"""One benchmark worker process for a library workload.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 perfbench/worker.py '<json config>'

Config keys: workload, seed, seconds, min_queries, mode ("setup" stops
after set-up, "run" measures for ``seconds`` of query time in whole rounds
and at least ``min_queries`` queries, "replay" runs exactly ``count``
queries), trace (install the span wrappers first), spawn_t (the parent's
time.monotonic() just before it started this process), span_path (where a
traced worker writes its spans) and flip (invert the expectation of the
first ``flip`` queries; the benchmark's own tests use it).

Prints one JSON object as the last line of standard output.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback


def main(cfg: dict) -> dict:
    tracer = None
    if cfg.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    name = cfg["workload"]
    wl = workloads.LIBRARY[name](cfg["seed"])
    wl.setup()

    def generate(r: int) -> list:
        if tracer is None:
            return wl.round(r)
        with tracer.region("bench.generate"):
            return wl.round(r)

    pending = generate(0)
    setup_s = time.monotonic() - cfg["spawn_t"]
    out = {"setup_s": setup_s}
    if cfg["mode"] == "setup":
        return out

    latencies, failures, canon, rounds = [], [], [], []
    digest_n = len(pending)  # the digest covers the first round
    query_s = 0.0
    r = 0
    flip = cfg.get("flip", 0)
    while True:
        round_start = len(latencies)
        for kind, query in pending:
            i = len(latencies)
            t = time.perf_counter()
            try:
                ok, text = query()
            except Exception as e:  # a raising query is a failed query, not a crashed run
                ok, text = False, f"error:{type(e).__name__}"
                failures.append({"i": i, "kind": kind, "error": traceback.format_exc(limit=3)})
            else:
                if i < flip:
                    ok = not ok
                if not ok:
                    failures.append({"i": i, "kind": kind, "error": f"check failed: {text}"})
            dt = time.perf_counter() - t
            latencies.append(dt * 1000.0)
            query_s += dt
            if i < digest_n:
                canon.append(text)
            if cfg["mode"] == "replay" and len(latencies) >= cfg["count"]:
                break
        n = len(latencies)
        rounds.append([n - round_start, sum(latencies[round_start:]) / 1000.0])
        if cfg["mode"] == "replay":
            if n >= cfg["count"]:
                break
        elif query_s >= cfg["seconds"] and n >= cfg["min_queries"]:
            break
        r += 1
        pending = generate(r)
    wall_s = time.monotonic() - cfg["spawn_t"]
    out.update(
        attempted=len(latencies),
        failed=len(failures),
        failures=failures[:20],
        latencies_ms=latencies,
        query_s=query_s,
        rounds=rounds,
        wall_s=wall_s,
        digest=hashlib.sha256("\n".join(canon).encode()).hexdigest() if len(canon) == digest_n else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        out["trace"] = tracer.summary()
        if cfg.get("span_path"):
            tracer.dump(cfg["span_path"])
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result))
