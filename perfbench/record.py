"""Refresh the recorded data in perfbench/baseline.json for the default seed:
output digests, failed_frac per workload and the traced per-layer self-time
shares.  Run it only when the program's answers change on purpose.

Usage, from the root of the checkout:
    python3 perfbench/record.py

Each workload runs for BENCHMARK.json's run_seconds, as the benchmark does.
"""
from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    baseline = run.load_baseline()
    fresh = dict(baseline, digests={})
    seed = run.DEFAULT_SEED
    for name in run.WORKLOADS:
        runner = run.Runner(time.monotonic() + run.DEADLINE_S)
        if name == "cli-cold":
            plain = run.run_cli(runner, seed, seconds, fresh)
            traced = run.trace_cli(runner, seed, seconds, fresh)
        else:
            plain = run.run_library(runner, name, seed, seconds, fresh)
            traced = run.trace_library(runner, name, seed, seconds, fresh)
        baseline["digests"][name] = plain["digest"]
        baseline["failed_frac"][name] = plain["failed"] / plain["attempted"]
        layers = traced["layers"]
        wall = layers["trace.wall_s"]
        shares = {layer: round(layers[f"{layer}.self_s"] / wall, 4) for layer in run.LAYERS}
        shares["untraced_remainder"] = round(layers["trace.remainder_s"] / wall, 4)
        funcs = sorted(((k[: -len(".self_s")], v) for k, v in layers.items()
                        if k.endswith(".self_s") and k.count(".") > 1), key=lambda kv: -kv[1])
        baseline["traced_shares"][name] = {
            "traced_wall_s": round(wall, 3),
            "overhead_ratio": round(layers["trace.overhead_ratio"], 3),
            "layer_self_share": shares,
            "top_function_self_share": {k: round(v / wall, 4) for k, v in funcs[:8] if v > 0},
        }
        print(name, baseline["digests"][name], json.dumps(baseline["traced_shares"][name]), flush=True)
    baseline["recorded_with"] = run.env_info()
    with open(run.HERE / "baseline.json", "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
