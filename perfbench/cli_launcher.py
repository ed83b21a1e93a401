"""Traced stand-in for ``python -m foxcalc.cli``.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 perfbench/cli_launcher.py <span_path> <fox arguments...>

Times ``import foxcalc.cli``, installs the span wrappers, calls
``foxcalc.cli.main(argv)`` and exits with its code.  The span summary goes
to ``<span_path>.summary.json`` and the spans to ``<span_path>.{json,bin}``.
"""
from __future__ import annotations

import json
import sys
import time


def main() -> int:
    span_path, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import foxcalc.cli

    import_s = time.perf_counter() - t
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = foxcalc.cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(span_path + ".summary.json", "w") as fh:
            json.dump(summary, fh)
        tracer.dump(span_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
