#!/bin/sh
# End-to-end check of the CLI exit-code contract:
#   0 criterion holds / plain computation, 1 criterion fails, 2 usage error,
#   3 internal invariant failure (a bug; no command below should exit 3).
# Uses the installed `fox` entry point, or the source tree when there is none.
set -u

if ! command -v fox >/dev/null 2>&1; then
    root=$(cd "$(dirname "$0")/.." && pwd)
    fox() { PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python3 -m foxcalc.cli "$@"; }
fi

fail=0
expect() {
    want=$1; shift
    "$@" >/dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL (want $want, got $got): $*"
        fail=1
    else
        echo "ok   ($want): $*"
    fi
}

expect 0 fox lie dims --rank 2 --degree 3
expect 0 fox group derive --rank 2 --word "g1 g2" --gen g1
expect 0 fox group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient trivial
expect 1 fox group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient abel
expect 0 fox group conjcrit --rank 3 --relator "g1 g3 g1^-1 g3^-1"
expect 1 fox group conjcrit --rank 3 --relator "g1 g2 g1^-1 g2^-1"
expect 0 fox group gamma-criterion --rank 2 --word "g1^-3 g2^2 g1^3 g2^-2" --keep g1 --class 1 --cutoff 4
expect 1 fox group gamma-criterion --rank 2 --word "g1^3 g2^-2 g1^-3 g2^2" --keep g1 --class 2 --cutoff 4
expect 0 fox group conjcrit --rank 3 --relator "g1^-2 g3^3 g1^2 g3^-3"
expect 1 fox group conjcrit --rank 3 --relator "g1^-2 g2^3 g1^2 g2^-3"
expect 1 fox group conjcrit --rank 3 --relator "g1^-2 g2^3 g1^2 g2^-3" --bound 3
expect 0 fox lie freiheit --rank 3 --relator "[y1, y3]" --spec 3 --cutoff 4
expect 1 fox lie freiheit --rank 3 --relator "[y1, y2]" --spec 3 --cutoff 4
expect 2 fox lie dims --rank 2 --degree 3 --bogus
expect 2 fox lie dims --rank 2 --degree 0
expect 2 fox lie dims --rank -2 --degree 3
expect 2 fox group derive --rank 2 --word "zz" --gen g1
expect 2 fox lie derive --rank 2 --expr "1/0*y1"
expect 2 fox nonsense
expect 2 fox lie freiheit --rank 3 --relator "[y1,y3]" --spec 2 --cutoff 4 --h-rank -1
expect 2 fox lie freiheit --rank 3 --relator "[y1,y3]" --spec 2 --cutoff 4 --h-rank 5
expect 2 fox group conjcrit --rank 3 --relator "g1 g3 g1^-1 g3^-1" --h-rank -1
expect 2 fox lie decompose --rank 3 --expr "[[y1,y3],y2]" --keep 1,5 --cutoff 4
expect 2 fox lie decompose --rank 3 --expr "[[y1,y3],y2]" --keep 0,1 --cutoff 4
expect 2 fox group gamma-criterion --rank 2 --word "g1 g2" --keep g5 --class 1 --cutoff 3
expect 2 fox group gamma-criterion --rank 2 --word "g1 g2 g1^-1 g2^-1" --keep g1 --class -1 --cutoff 3
expect 2 fox group theorem1 --rank 2 --word "g1^2" --keep g1,a1 --quotient "index:2,2:g1=1,0;g2=0,1"
expect 2 fox group theorem1 --rank 2 --word "g1^2" --keep g1 --quotient "index:2,2:g1=1,0;g2=0,1" --bound 3
# one --keep parser for the Lie and group commands: an empty or repeated
# item is refused (a blank list still keeps no generator)
expect 2 fox lie decompose --rank 3 --expr "y1 + [y1, y2]" --keep 1,1 --cutoff 4
expect 2 fox lie decompose --rank 3 --expr "y1 + [y1, y2]" --keep 1,,2 --cutoff 4
expect 2 fox group theorem1 --rank 2 --word "g1^2" --keep g1,1 --quotient "index:2,2:g1=1,0;g2=0,1"
expect 2 fox group gamma-criterion --rank 2 --word "g1^2" --keep g1,,g2 --class 1 --cutoff 3
expect 1 fox group theorem1 --rank 2 --word "g1^2" --keep "" --quotient "index:2,2:g1=1,0;g2=0,1"
# theorem 1 takes free alphabets only; its witness is exact at any length
expect 2 fox group theorem1 --rank 1 --factors 3 --word "a1" --keep g1 --quotient "index:3:g1=0;a1=1"
expect 1 fox group theorem1 --rank 2 --word "g2" --keep g1 --quotient "index:60:g1=1;g2=30"
# conjcrit decides exactly: --bound is accepted and ignored, a negative one refused
expect 2 fox group conjcrit --rank 3 --relator "g1 g2 g1^-1 g2^-1" --bound -2
expect 1 fox group conjcrit --rank 3 --relator "g1 g2 g1^-1 g2^-1" --bound 5
expect 2 fox group transversal --rank 2 --quotient "index:2,2:g1=1,0;g2=0,1" --sub 5
expect 2 fox group transversal --rank 2 --quotient "index:2,2:g1=1,0;g2=0,1" --sub 1
expect 2 fox lie freiheit --rank 3 --relator "[y1, [y1, y2]] + [y2, y3]" --spec 6 --cutoff 10
expect 2 fox lie freiheit --rank 3 --relator "[y1, y3]" --spec 6 --cutoff 40
expect 2 fox group derive --rank 2 --word "g1^100000000" --gen g1
expect 2 fox group schumann --rank 2 --word "g1^100000000" --quotient trivial
expect 2 fox group conjcrit --rank 3 --relator "g1^100000000" --bound 1
# index quotients past the transversal budget (product of orders 4096) are
# refused at once by the commands that build a transversal
expect 0 fox group transversal --rank 2 --quotient "index:64,64:g1=1,0;g2=0,1"
expect 2 fox group transversal --rank 2 --quotient "index:300,300:g1=1,0;g2=0,1"
expect 2 fox group theorem1 --rank 2 --word "g1^2" --keep g1 --quotient "index:100000:g1=1;g2=0"
# quotient and root specs: every generator named once and in range, no
# suffix on trivial/abel other than abel:kill, no root other than F/power:m
expect 0 fox group schumann --rank 1 --factors 2 --word "a1" --quotient abel:kill
expect 2 fox group schumann --rank 1 --factors 2 --word "a1" --quotient abel
expect 2 fox group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient "index:2,2:g1=1,0;g2=0,1;g5=1,1"
expect 2 fox group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient "index:2,2:g1=1,0;g2=0,1;a1=1,0"
expect 2 fox group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient "index:2,2:g0=1,0;g1=1,0;g2=0,1"
expect 2 fox group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient "index:2,2:g1=1,0;g2=0,1;g1=0,1"
expect 2 fox group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient trivial:x
expect 2 fox group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient abel:x
expect 2 fox lie freiheit --rank 3 --relator "[y1, y3]" --spec 2 --cutoff 4 --root gamma:2
# Magnus images past the letter budget (monomials times the degree, 10^6)
# are refused as they grow: many syllables at a high class, through the
# gamma criterion and the nilpotent oracle, and one syllable at a high
# degree; a short word at a high class still answers
expect 2 fox group gamma-criterion --rank 3 --word "g1^-1 g2^-1 g3^-1 g1^-1 g2^-1 g3^-1 g1^-1 g2^-1 g3^-1 g1^-1 g2^-1 g3^-1" --keep g1 --class 20 --cutoff 21
expect 2 fox group schumann --rank 3 --word "g1^-1 g2^-1 g3^-1 g1^-1 g2^-1 g3^-1 g1^-1 g2^-1 g3^-1 g1^-1 g2^-1 g3^-1" --quotient nilpotent:20
expect 2 fox group gamma-criterion --rank 2 --word "g1^-1" --keep g1 --class 5000 --cutoff 5001
expect 1 fox group gamma-criterion --rank 2 --word "g1 g2 g1^-1 g2^-1" --keep g1 --class 20 --cutoff 21

exit $fail
