#!/bin/sh
# Same-answers check against another revision: runs the README `fox`
# commands, four more Lie commands, twenty-five group-criteria commands, four
# frontier Freiheitssatz commands, five frontier commands on generic
# (two-term) relators, two of them with specs that need every degree, two
# Kharlampovich checks at cutoff 8, three PBW commands on elements with
# rational coefficients, three commands that read [N, N] in several
# degrees of one N or an ideal built as gamma_3, and five PBW commands over
# gamma_3, where bracket terms survive reduction modulo N_U, five
# decompositions whose v1 carries block-d tails (the sigma slices) and a
# Kharlampovich check at rank 4 cutoff 7,
# on this checkout's src/ and on `git archive REV src` (REV defaults to
# HEAD), both with PYTHONHASHSEED=0, and prints ok/DIFF per command for
# stdout plus exit code.  Exits 1 on any difference.
#   scripts/same_answers.sh [REV]
set -u

root=$(cd "$(dirname "$0")/.." && pwd)
rev=${1:-HEAD}
old=$(mktemp -d)
trap 'rm -rf "$old"' EXIT
git -C "$root" archive "$rev" src | tar -x -C "$old" || exit 2

answer() {
    tree=$1; shift
    PYTHONHASHSEED=0 PYTHONPATH="$tree/src" python3 -m foxcalc.cli "$@" 2>/dev/null
    echo "exit $?"
}

fail=0
check() {
    if [ "$(answer "$root" "$@")" = "$(answer "$old" "$@")" ]; then
        echo "ok   fox $*"
    else
        echo "DIFF fox $*"
        fail=1
    fi
}

check lie dims --rank 2 --degree 3
check group derive --rank 2 --word "g1 g2" --gen g1
check group schumann --rank 2 --word "g1 g2 g1^-1 g2^-1" --quotient trivial
check group theorem1 --rank 2 --word "g1^2" --keep g1 --quotient "index:2,2:g1=1,0;g2=0,1"
check group transversal --rank 2 --quotient "index:2,2:g1=1,0;g2=0,1"
check group gamma-criterion --rank 2 --word "g1 g2 g1^-1 g2^-1" --keep g1 --class 2 --cutoff 3
check group conjcrit --rank 3 --relator "g1 g2 g1^-1 g2^-1" --bound 4
check lie derive --rank 3 --expr "[y1, [y2, y3]]"
check lie decompose --rank 3 --expr "y1 + [y1, y2]" --keep 1,2 --cutoff 4
check lie kharlampovich --rank 3 --expr "[[y1, y2], [y1, y3]]" --cutoff 4
check lie freiheit --rank 3 --relator "[y1, y3]" --spec 1,2 --cutoff 6
# PBW output (residues of a failing criterion, a decomposition, a failing
# Kharlampovich check) and a Freiheitssatz check on a generic relator
check lie decompose --rank 3 --expr "[[y1, y3], y2]" --keep 1,2 --cutoff 5
check lie decompose --rank 3 --expr "y1 + [y1, y2]" --keep 1,2 --cutoff 7
check lie kharlampovich --rank 3 --expr "[[y1, y2], y3]" --cutoff 6
check lie freiheit --rank 3 --relator "[y1, y2] + [y2, y3]" --spec 6 --cutoff 8
# group criteria: the gamma criterion read off one Magnus image, theorem 1
# on the alpha/beta transversal over K (once with a witness the retraction
# misses), and that transversal itself
check group gamma-criterion --rank 2 --word "g1^-3 g2^2 g1^3 g2^-2" --keep g1 --class 1 --cutoff 4
check group gamma-criterion --rank 2 --word "g1^3 g2^-2 g1^-3 g2^2" --keep g1 --class 2 --cutoff 4
check group gamma-criterion --rank 3 --word "g1 g2 g3 g1^-1" --keep g1,g2 --class 0 --cutoff 2
check group theorem1 --rank 2 --word "g2^2" --keep g1 --quotient "index:2,2:g1=1,0;g2=0,1"
check group theorem1 --rank 2 --word "g2" --keep g1 --quotient "index:2:g1=1;g2=1"
check group theorem1 --rank 3 --word "g1^2 g2^2" --keep g1,g2 --quotient "index:2,2,2:g1=1,0,0;g2=0,1,0;g3=0,0,1"
check group transversal --rank 2 --quotient "index:2,2:g1=1,0;g2=0,1" --style alphabeta --sub 1
# the alpha/beta transversal on a factor alphabet, and theorem 1 at index 400
check group transversal --rank 2 --factors 3 --quotient "index:6,3:g1=1,0;g2=0,1;a1=0,1" --style alphabeta --sub 2
check group theorem1 --rank 2 --word "g1^2" --keep g1 --quotient "index:20,20:g1=1,0;g2=0,1"
# Magnus keys of a long word's Fox terms, and theorem 1 with a conjugate of
# F_K cap N read off the rank-3 sub-lattice
check group schumann --rank 3 --quotient nilpotent:2 --word "g3^-1 g2^-1 g1^-1 g2 g1 g3 g1^-1 g2^-1 g1 g2 g1^-2 g3^-1 g2^-1 g3 g2 g1 g2^-1 g3^-1 g2 g3 g1 g2^-1 g1^-1 g2 g1 g3^-1 g1^-1 g2^-1 g1 g2 g3 g1^-1 g3^-1 g2^-1 g3 g2 g1^-1 g2^-1 g3^-1 g2 g3 g1^2 g2^-1 g1^-1 g2 g1 g3^-1 g1^-1 g2^-1 g1 g2 g3"
check group theorem1 --rank 3 --word "g1^2 g3^-1 g2^2 g3 g1^-2 g3^-2 g1^2 g3^2" --keep g1,g2 --quotient "index:2,2,2:g1=1,0,0;g2=0,1,0;g3=0,0,1"
# frontier
check lie freiheit --rank 3 --relator "[y1, y3]" --spec 6 --cutoff 9
check lie freiheit --rank 4 --relator "[y1, y4]" --spec 6 --cutoff 8
check lie freiheit --rank 3 --relator "[y1, y3]" --spec 6 --cutoff 10
check lie freiheit --rank 3 --relator "[y1, y3]" --spec 1,2 --cutoff 8
# frontier on relators whose ideals are not spans of Lyndon words
check lie freiheit --rank 3 --relator "[y1, y2] + [y2, y3]" --spec 6 --cutoff 9
check lie freiheit --rank 4 --relator "[y1, y2] + [y3, y4]" --spec 6 --cutoff 8
check lie freiheit --rank 3 --relator "[y1, y2] + [y2, y3]" --spec 3 --root power:2 --cutoff 7
check lie freiheit --rank 3 --relator "[y1, y2] + [y2, y3]" --spec 1,2 --cutoff 8
check lie kharlampovich --rank 3 --expr "[[y1, y2], [y1, y3]]" --cutoff 9
# [N, N] built in the element's degrees only: one member (exit 0), one not (exit 1)
check lie kharlampovich --rank 3 --expr "[[y1, y2], [y1, y3]]" --cutoff 8
check lie kharlampovich --rank 3 --expr "[y1, y2] + [[y1, y2], [y1, y3]]" --cutoff 8
# rational coefficients through PBW straightening: one member of [N, N]
# (exit 0), one not (exit 1), and a decomposition (exit 0)
check lie kharlampovich --rank 3 --expr "1/2*[[y1, y2], [y1, y3]] - 2/3*[[y1, y3], [y2, y3]]" --cutoff 7
check lie kharlampovich --rank 3 --expr "3/2*[y1, y2] + 1/3*[[y1, y2], [y1, y3]]" --cutoff 7
check lie decompose --rank 3 --expr "1/2*y1 + 2/3*[y1, y2] - 3/4*[[y1, y2], [y1, y3]]" --keep 1,2 --cutoff 6
# [N, N] kept on N across degrees (exit 0), over N = gamma_3 (exit 1), and a
# decomposition over gamma_3, an ideal by construction (exit 0)
check lie kharlampovich --rank 3 --expr "[[y1, y2], [y1, y3]] + [[y1, y2], [[y1, y2], y3]]" --cutoff 6
check lie kharlampovich --rank 3 --expr "[[y1, y2], [y1, [y1, y3]]]" --ideal power:3 --cutoff 6
check lie decompose --rank 3 --expr "y1 + [[y1, y2], y2]" --keep 1,2 --ideal power:3 --cutoff 6
# modulo gamma_3 the bracket of two degree-1 symbols survives reduction:
# Kharlampovich checks at cutoff 7 (exit 0, exit 1), a failing
# decomposition that prints its residue, and two at rank 4 (exit 0, exit 1)
check lie kharlampovich --rank 3 --expr "[[y1, [y1, y2]], [y2, [y1, y3]]]" --ideal power:3 --cutoff 7
check lie kharlampovich --rank 3 --expr "[[y1, y2], y3] + [[y1, [y1, y2]], [y3, [y2, y3]]]" --ideal power:3 --cutoff 7
check lie decompose --rank 3 --expr "[[y1, y3], y2] + [[y1, y2], [y1, [y1, y3]]]" --keep 1,2 --ideal power:3 --cutoff 7
check lie kharlampovich --rank 4 --expr "[[y1, [y1, y2]], [y3, [y3, y4]]]" --ideal power:3 --cutoff 6
check lie kharlampovich --rank 4 --expr "[[y1, y2], y4] + [[y1, [y1, y2]], [y3, [y3, y4]]]" --ideal power:3 --cutoff 6
# decompositions v0 + [x, y3] + c with x in F_K cap N and c in [N, N], as
# the lie-queries workload builds them, so v1 is folded slice by slice
# from d-tails: integer coefficients, rational ones, over gamma_3, at
# rank 4 (holds, and a failing one that prints rational residues); and a
# Kharlampovich check at rank 4 cutoff 7 (exit 0)
check lie decompose --rank 3 --expr "y1 + [[y1, y2], y3] + [[y1, y2], [y1, y3]]" --keep 1,2 --cutoff 5
check lie decompose --rank 3 --expr "1/2*y2 - 2/3*[[y1, y2], y3] + 3/4*[[[y1, y2], y3], y3] - 5/2*[[y1, y2], [y1, y3]]" --keep 1,2 --cutoff 5
check lie decompose --rank 3 --expr "y1 + 2/3*[[[y1, y2], y1], y3] - 1/2*[[[y1, y2], y2], y3] + [[[y1, y2], y1], [[y1, y2], y2]]" --keep 1,2 --ideal power:3 --cutoff 6
check lie decompose --rank 4 --expr "y1 - 3/2*[[y1, y2], y4] + 1/3*[[[y1, y2], y3], y4] + [[y1, y2], [y3, y4]]" --keep 1,2 --cutoff 5
check lie decompose --rank 4 --expr "1/2*[y3, y4] + [[y1, y2], y4]" --keep 1,2 --cutoff 5
check lie kharlampovich --rank 4 --expr "[[y1, y2], [y3, [y1, y4]]] - 1/2*[[y1, [y2, y4]], [[y1, y3], y4]]" --cutoff 7
# Magnus keys batched over all derivatives of v: schumann modulo gamma_4
# on a weight-3 commutator (not in N, exit 2), a commutator of two (exit
# 1) and one of two weight-4 commutators (exit 0); gamma criteria at
# classes 3 and 4 on words of 20 or more syllables (exit 0, exit 1 each);
# schumann over a factor alphabet
check group schumann --rank 3 --quotient nilpotent:3 --word "g2^-1 g1^-1 g2 g1 g3^-1 g1^-1 g2^-1 g1 g2 g3"
check group schumann --rank 3 --quotient nilpotent:3 --word "g3^-1 g2^-1 g1^-1 g2 g1 g3 g1^-1 g2^-1 g1 g2 g1 g3^-1 g2^-2 g3 g2^2 g1^-1 g2^-2 g3^-1 g2^2 g3 g2^-1 g1^-1 g2 g1 g3^-1 g1^-1 g2^-1 g1 g2^-1 g3 g2^2 g1 g2^-2 g3^-1 g2^2 g3 g1^-1"
check group schumann --rank 3 --quotient nilpotent:3 --word "g1^-1 g3^-1 g2^-1 g1^-1 g2 g1 g3 g1^-1 g2^-1 g1 g2 g1 g2^-1 g1^-1 g2 g1 g3^-1 g1^-1 g2^-1 g1 g2 g3 g2^-1 g1^-1 g2 g3^-1 g2^-1 g3 g1 g3^-1 g2 g3 g2 g3^-1 g2^-1 g3 g1^-1 g3^-1 g2 g3 g2^-1 g1 g3^-1 g2^-1 g1^-1 g2 g1 g3 g1^-1 g2^-1 g1 g2 g1^-1 g2^-1 g1^-1 g2 g1 g3^-1 g1^-1 g2^-1 g1 g2 g3 g2 g3^-1 g2^-1 g3 g1 g3^-1 g2 g3 g2^-1 g3^-1 g2^-1 g3 g1^-1 g3^-1 g2 g3 g2^-1 g1 g2"
check group gamma-criterion --rank 3 --word "g1^2 g2^-1 g1^3 g2^2 g1^-1 g2 g1 g2^-3 g1^2 g2 g3 g2^-2 g3^-1 g1^-1 g3 g1 g2 g1^-1 g3^-1 g1 g3^-1 g1^-1 g3 g1 g2^-1 g1^-1 g3^-1 g1 g3 g2 g3 g2 g3^-1" --keep g1,g2 --class 3 --cutoff 4
check group gamma-criterion --rank 3 --word "g1^2 g2^-1 g1^3 g2^2 g1^-1 g2 g1 g2^-3 g1^2 g2 g3^-2 g2^-1 g3 g2 g1^-1 g2^-1 g3^-1 g2 g3 g1 g3" --keep g1,g2 --class 3 --cutoff 4
check group gamma-criterion --rank 3 --word "g1^2 g2^-1 g1^3 g2^2 g1^-1 g2 g1 g2^-3 g1^2 g2 g3 g2^-1 g3^-1 g2^-1 g3^-1 g1^-1 g3 g1 g2 g1^-1 g3^-1 g1 g3 g1^-1 g3 g1 g2^-1 g1^-1 g3^-1 g1 g3 g2 g1^-1 g2^-1 g3^-1 g1^-1 g3 g1 g2 g1^-1 g3^-1 g1 g3^-1 g1^-1 g3 g1 g2^-1 g1^-1 g3^-1 g1 g3 g2 g3 g1 g2 g3^-1" --keep g1,g2 --class 4 --cutoff 5
check group gamma-criterion --rank 3 --word "g1^2 g2^-1 g1^3 g2^2 g1^-1 g2 g1 g2^-3 g1^2 g2 g3^-1 g1^-1 g3^-1 g2^-1 g3 g2 g1 g2^-1 g3^-1 g2 g3 g2^-2 g3^-1 g2^-1 g3 g2 g1^-1 g2^-1 g3^-1 g2 g3 g1 g2^2 g3" --keep g1,g2 --class 4 --cutoff 5
check group schumann --rank 2 --factors 3 --quotient "index:2,3:g1=1,0;g2=0,1;a1=0,1" --word "a1 g1^2 a1^2 g2^-1 g1^-2 a1 g2^2 a1 g1 g2^-1 a1 g1^-1"
# group-ring arithmetic: derivatives of a 40-syllable word over Z/5 * F2 in
# a factor and a free index; schumann modulo [F, F] with the factors
# killed (exit 1, exit 0); theorem 1 over an index quotient whose images
# are not coordinate vectors (holds, fails)
check group derive --rank 2 --factors 5 --word "g1^-2 a1^4 g1^-3 g2^-3 a1^2 g1^-1 g2^-3 g1^2 a1^4 g1^2 a1 g1 g2^4 g1^-1 g2^-4 g1^-4 a1^3 g1^-1 g2^-1 g1^-1 g2^-1 g1^2 g2^2 a1^3 g1^-3 g2^-2 a1^4 g1^-1 g2^7 a1^3 g1^3 a1^2 g2^-3 a1^3 g2^-3 a1 g1^5 a1^4 g1^-3 a1" --gen a1
check group derive --rank 2 --factors 5 --word "g1^-2 a1^4 g1^-3 g2^-3 a1^2 g1^-1 g2^-3 g1^2 a1^4 g1^2 a1 g1 g2^4 g1^-1 g2^-4 g1^-4 a1^3 g1^-1 g2^-1 g1^-1 g2^-1 g1^2 g2^2 a1^3 g1^-3 g2^-2 a1^4 g1^-1 g2^7 a1^3 g1^3 a1^2 g2^-3 a1^3 g2^-3 a1 g1^5 a1^4 g1^-3 a1" --gen g2
check group schumann --rank 2 --factors 5 --quotient abel:kill --word "a1^-1 g1^-2 a1^2 g2 a1 g1^2 a1^-2 g2^-1"
check group schumann --rank 2 --factors 5 --quotient abel:kill --word "g1 a1 g1^-1 a1^-1 g2 a1^2 g2^-1 a1^-2"
check group theorem1 --rank 3 --word "g1^4 g3^-1 g2^2 g3" --keep g1,g2 --quotient "index:4,2:g1=1,1;g2=2,0;g3=3,1"
check group theorem1 --rank 3 --word "g1 g3^-1" --keep g1,g2 --quotient "index:4,2:g1=1,1;g2=2,0;g3=3,1"
exit $fail
