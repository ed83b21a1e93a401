"""foxcalc benchmark: one seeded workload per run, timed end to end or traced.

Usage, from the root of a checkout that holds ``src/foxcalc``:

    python3 perfbench/run.py --workload lie-queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Workloads (why each exists is in perfbench/baseline.json):
  lie-queries     warm library session against one ideal (PBW contexts in set-up)
  lie-closures    Freiheitssatz verification: closures and dense RREF, no caches
  group-criteria  group side only: theorem 1, Fox identities, gamma, Schumann
  cli-cold        the README's ``fox`` commands, one fresh process each

Every run starts fresh interpreters (``PYTHONPATH=src``, ``PYTHONHASHSEED``
pinned), one at a time, with a closed loop of one query at a time.  With
``--trace 0`` the last line of output is a JSON object whose metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, measured in
a second, traced process that replays the queries an untraced process
completed.  Untraced and traced processes alternate in pairs, the order
flipping from pair to pair, and the tracing overhead is the median of the
per-pair wall-time ratios.  Every answer is checked; a wrong or raising
query counts as failed and the run goes on.
Exit codes: 0 result printed, 1 result printed but not correct, 2 no
foxcalc source here or bad arguments, 3 a worker crashed or ran out of time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
HASH_SEED = "0"
DEFAULT_SEED = 0
DEADLINE_S = 170.0
WORKLOADS = ("lie-queries", "lie-closures", "group-criteria", "cli-cold")
SETUP_REPEATS = {"lie-queries": 5, "lie-closures": 11, "group-criteria": 11, "cli-cold": 11}
# ten samples beyond the percentile: n >= 20 for p50, n >= 100 for p90
MIN_QUERIES = 20
# untraced/traced pairs a traced library run makes; their order alternates
TRACE_PAIRS = 3

CLI_SUITE = (
    # (arguments, expectation): "compute" exits 0, "verdict" exits 0/1 as
    # the JSON verdict says, "usage" is bad input and must exit 2
    (["lie", "dims", "--rank", "2", "--degree", "3"], "compute"),
    (["group", "derive", "--rank", "2", "--word", "g1 g2", "--gen", "g1"], "compute"),
    (["group", "schumann", "--rank", "2", "--word", "g1 g2 g1^-1 g2^-1", "--quotient", "trivial"], "verdict"),
    (["group", "theorem1", "--rank", "2", "--word", "g1^2", "--keep", "g1",
      "--quotient", "index:2,2:g1=1,0;g2=0,1"], "verdict"),
    (["group", "transversal", "--rank", "2", "--quotient", "index:2,2:g1=1,0;g2=0,1"], "compute"),
    (["group", "gamma-criterion", "--rank", "2", "--word", "g1 g2 g1^-1 g2^-1", "--keep", "g1",
      "--class", "2", "--cutoff", "3"], "verdict"),
    (["group", "conjcrit", "--rank", "3", "--relator", "g1 g2 g1^-1 g2^-1", "--bound", "4"], "verdict"),
    (["lie", "derive", "--rank", "3", "--expr", "[y1, [y2, y3]]"], "compute"),
    (["lie", "decompose", "--rank", "3", "--expr", "y1 + [y1, y2]", "--keep", "1,2", "--cutoff", "4"], "verdict"),
    (["lie", "kharlampovich", "--rank", "3", "--expr", "[[y1, y2], [y1, y3]]", "--cutoff", "4"], "verdict"),
    (["lie", "freiheit", "--rank", "3", "--relator", "[y1, y3]", "--spec", "1,2", "--cutoff", "6"], "verdict"),
    (["lie", "decompose", "--rank", "3", "--expr", "y1 + [y1, y2]", "--keep", "1,2", "--cutoff", "5"], "verdict"),
    (["lie", "kharlampovich", "--rank", "3", "--expr", "[[y1, y2], [y1, y3]]", "--cutoff", "5"], "verdict"),
    (["lie", "freiheit", "--rank", "3", "--relator", "[y1, y3]", "--spec", "1,2", "--cutoff", "5"], "verdict"),
    (["lie", "dims", "--rank", "2", "--degree", "3", "--bogus"], "usage"),
    (["group", "derive", "--rank", "2", "--word", "zz", "--gen", "g1"], "usage"),
    (["nonsense"], "usage"),
    (["group", "derive", "--rank", "2", "--word", "g1 g2", "--gen", "g9"], "usage"),
)

# JSON keys that carry a verdict; witnesses a correct program may choose
# differently are left out of the digest
_VERDICT_KEYS = ("holds", "certified", "witness_member", "status", "in_commutator_subalgebra",
                 "criterion", "all_equal", "consistent", "entries", "conjugate_found",
                 "derivative_ok", "witness_weight_ok")

END_TO_END = (("setup_s", "s"), ("throughput_qps", "1/s"), ("lat_p50_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """A worker crashed or the run ran out of time; no result is printed."""


# -- per-layer metric names ------------------------------------------------

_EXTRA = {
    "linalg.rref": (("cells", "count", "lower"), ("max_cols", "count", "lower")),
    "lie_core.subalgebra_closure": (("yield", "ratio", "higher"),),
    "lie_core.ideal_closure": (("yield", "ratio", "higher"),),
    "assoc_env.PBWContext.rewrite": (("out_terms", "count", "lower"),),
    "fox_group.fox_derivative": (("letters", "count", "lower"),),
    "lattice.hermite_normal_form": (("max_rows", "count", "lower"),),
}
_BUILDS = ("linalg.SpanSolver", "assoc_env.PBWContext", "transversal.Transversal")
_CACHES = {"assoc_env.ideal_context": "ideal_cache", "fox_lie.SubalgebraIdealContext": "sub_cache"}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for _, _, prefix, _ in TARGETS:
        if prefix in _BUILDS:
            out.append((prefix + ".builds", "count", "lower"))
            if prefix != "assoc_env.PBWContext":
                out.append((prefix + ".build_s", "s", "lower"))
            continue
        out.append((prefix + ".calls", "count", "lower"))
        if prefix in _CACHES:
            out.append((prefix + ".hit_ratio", "ratio", "higher"))
            continue
        out.append((prefix + ".self_s", "s", "lower"))
        out.extend((f"{prefix}.{k}", u, b) for k, u, b in _EXTRA.get(prefix, ()))
    out.append(("cli.import_s", "s", "lower"))
    out.extend((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.remainder_s", "s", "lower"),
    ]
    return out


def merge_summaries(summaries: list[dict]) -> dict:
    merged = {"spans": 0, "top_level_s": 0.0, "per_name": {}, "counters": {}}
    for s in summaries:
        merged["spans"] += s["spans"]
        merged["top_level_s"] += s["top_level_s"]
        for name, rec in s["per_name"].items():
            acc = merged["per_name"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for k, v in s["counters"].items():
            if k.endswith((".max_cols", ".max_rows")):
                merged["counters"][k] = max(merged["counters"].get(k, 0), v)
            else:
                merged["counters"][k] = merged["counters"].get(k, 0) + v
    return merged


def layer_metrics(summary: dict, wall_s: float, untraced_wall_s: float, overhead_ratio: float,
                  import_s: float) -> dict:
    """Per-layer metric values from a (merged) span summary."""
    per, ctr = summary["per_name"], summary["counters"]
    values = {}
    for name, _, _ in per_layer_spec():
        prefix, _, stat = name.rpartition(".")
        rec = per.get(prefix, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        if stat in ("calls", "self_s"):
            values[name] = rec[stat]
        elif stat == "builds":
            values[name] = rec["calls"]
        elif stat == "build_s":
            values[name] = rec["total_s"]
        elif stat == "hit_ratio":
            values[name] = ctr.get(prefix + ".hits", 0) / rec["calls"] if rec["calls"] else 0.0
        elif stat == "yield":
            tried = ctr.get(prefix + ".tried", 0)
            values[name] = ctr.get(prefix + ".rows_kept", 0) / tried if tried else 0.0
        elif stat in ("cells", "max_cols", "out_terms", "letters", "max_rows"):
            values[name] = ctr.get(f"{prefix}.{stat}", 0)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(rec["self_s"] for prefix, rec in per.items()
                                        if prefix.split(".")[0] == layer)
    values["cli.import_s"] = import_s
    values["trace.wall_s"] = wall_s
    values["trace.untraced_wall_s"] = untraced_wall_s
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.remainder_s"] = wall_s - summary["top_level_s"]
    return values


# -- processes ---------------------------------------------------------------


class _Child(subprocess.Popen):
    """A Popen that keeps the peak RSS ``os.wait4`` reports for this child
    alone (``RUSAGE_CHILDREN`` would mix in every child reaped before it).
    It overrides the POSIX hook through which every Popen wait reaps."""

    maxrss_kb = 0

    def _try_wait(self, wait_flags):
        try:
            pid, sts, usage = os.wait4(self.pid, wait_flags)
        except ChildProcessError:
            return self.pid, 0
        if pid == self.pid:
            self.maxrss_kb = usage.ru_maxrss
        return pid, sts


class Runner:
    """Starts one child at a time from the checkout root, under one deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED=HASH_SEED)

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def run(self, argv: list[str]) -> tuple[int, str, str, float, float]:
        """Exit code, stdout, stderr, wall seconds and peak RSS (MB) of one child."""
        t = time.monotonic()
        proc = _Child(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                      stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"timed out: {argv}")
        return proc.returncode, out, err, time.monotonic() - t, proc.maxrss_kb / 1024.0

    def worker(self, cfg: dict) -> dict:
        cfg = dict(cfg, spawn_t=time.monotonic())
        code, out, err, _, _ = self.run([sys.executable, "perfbench/worker.py", json.dumps(cfg)])
        if code != 0 or not out.strip():
            raise BenchError(f"worker exited {code}: {err.strip()[-2000:]}")
        return json.loads(out.strip().splitlines()[-1])


# -- library workloads -------------------------------------------------------


def run_library(runner: Runner, workload: str, seed: int, seconds: float, baseline: dict) -> dict:
    base = {"workload": workload, "seed": seed, "seconds": seconds, "min_queries": MIN_QUERIES}
    setups = [runner.worker(dict(base, mode="setup"))["setup_s"]
              for _ in range(SETUP_REPEATS[workload] - 1)]
    res = runner.worker(dict(base, mode="run"))
    setups.append(res["setup_s"])
    expected = baseline["digests"].get(workload) if seed == DEFAULT_SEED else None
    return {
        "setup": setups,
        "latencies_ms": res["latencies_ms"],
        "busy_s": res["query_s"],
        "rounds": res["rounds"],
        "attempted": res["attempted"],
        "failures": res["failures"],
        "failed": res["failed"],
        "known_failed": 0,
        "digest": res["digest"],
        "digest_ok": expected is None or res["digest"] == expected,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def trace_library(runner: Runner, workload: str, seed: int, seconds: float, baseline: dict) -> dict:
    """Untraced and traced workers in TRACE_PAIRS pairs, untraced first in
    even pairs and traced first in odd ones; every worker replays the queries
    the first untraced one completed in its share of ``seconds``."""
    base = {"workload": workload, "seed": seed, "min_queries": 1}
    OUT.mkdir(exist_ok=True)
    first = runner.worker(dict(base, mode="run", seconds=seconds / (2 * TRACE_PAIRS)))
    replay = dict(base, mode="replay", count=first["attempted"])
    plain, traced = [first], []
    for j in range(TRACE_PAIRS):
        if j % 2 == 0 and j > 0:
            plain.append(runner.worker(replay))
        traced.append(runner.worker(dict(replay, trace=1, span_path=str(OUT / f"spans-{workload}-{seed}-{j}"))))
        if j % 2 == 1:
            plain.append(runner.worker(replay))
    runs = plain + traced
    expected = baseline["digests"].get(workload) if seed == DEFAULT_SEED else None
    digests = {r["digest"] for r in runs}
    summary = merge_summaries([t["trace"] for t in traced])
    ratio = statistics.median(t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced))
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "known_failed": 0,
        "digest": traced[0]["digest"],
        "digest_ok": len(digests) == 1 and (expected is None or digests == {expected}),
        "layers": layer_metrics(summary, sum(t["wall_s"] for t in traced),
                                sum(p["wall_s"] for p in plain), ratio, 0.0),
        "spans": summary["spans"],
        "top_level_s": summary["top_level_s"],
        "traced_setup_query_s": sum(t["setup_s"] + t["query_s"] for t in traced),
    }


# -- cli-cold ------------------------------------------------------------------


def _cli_check(expect: str, code: int, out: str) -> tuple[bool, str]:
    if expect == "usage":
        return code == 2, f"exit:{code}"
    try:
        doc = json.loads(out)
    except ValueError:
        return False, f"exit:{code}:unparsable"
    if expect == "compute":
        return code == 0, f"exit:{code}:{json.dumps(doc, sort_keys=True)}"
    if "criterion" in doc:
        verdict = doc["criterion"]["satisfied"]
    elif "conjugate_found" in doc:
        verdict = not doc["conjugate_found"]
    elif "in_commutator_subalgebra" in doc:
        verdict = doc["in_commutator_subalgebra"]
    else:
        verdict = doc["holds"]
    kept = {k: doc[k] for k in _VERDICT_KEYS if k in doc}
    return code == (0 if verdict else 1), f"exit:{code}:{json.dumps(kept, sort_keys=True)}"


def _cli_order(seed: int, pass_no: int) -> list[int]:
    order = list(range(len(CLI_SUITE)))
    random.Random(f"cli-cold:{seed}:{pass_no}").shuffle(order)
    return order


def _cli_run(runner: Runner, seed: int, idx: int, traced: bool, known: set) -> dict:
    args, expect = CLI_SUITE[idx]
    if traced:
        span_path = str(OUT / f"cli-{seed}-{idx}")
        argv = [sys.executable, "perfbench/cli_launcher.py", span_path, *args]
    else:
        argv = [sys.executable, "-m", "foxcalc.cli", *args]
    code, out, err, wall, rss_mb = runner.run(argv)
    ok, text = _cli_check(expect, code, out)
    rec = {"idx": idx, "cmd": " ".join(args), "ok": ok, "known": " ".join(args) in known,
           "canon": text, "wall_s": wall, "rss_mb": rss_mb, "stderr": err.strip()[-500:]}
    if traced:
        with open(span_path + ".summary.json") as fh:
            rec["summary"] = json.load(fh)
    return rec


def _cli_digest(records: list[dict]) -> str:
    lines = sorted(f"{r['idx']}:{r['canon']}" for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _cli_failures(records: list[dict]) -> list[dict]:
    return [{"cmd": r["cmd"], "known_defect": r["known"], "error": r["canon"] + " " + r["stderr"]}
            for r in records if not r["ok"]]


def run_cli(runner: Runner, seed: int, seconds: float, baseline: dict) -> dict:
    known = set(baseline["known_failures"].get("cli-cold", []))
    setups = [runner.run([sys.executable, "-c", "import foxcalc.cli"])[3]
              for _ in range(SETUP_REPEATS["cli-cold"])]
    records, busy, first, rounds = [], 0.0, None, []
    pass_no = 0
    while busy < seconds or len(records) < MIN_QUERIES:
        batch = [_cli_run(runner, seed, idx, False, known) for idx in _cli_order(seed, pass_no)]
        first = first or batch
        records += batch
        rounds.append([len(batch), sum(r["wall_s"] for r in batch)])
        busy += rounds[-1][1]
        pass_no += 1
    failures = _cli_failures(records)
    digest = _cli_digest(first)
    return {
        "setup": setups,
        "latencies_ms": [r["wall_s"] * 1000.0 for r in records],
        "busy_s": busy,
        "rounds": rounds,
        "attempted": len(records),
        "failures": failures,
        "failed": len(failures),
        "known_failed": sum(f["known_defect"] for f in failures),
        "digest": digest,
        "digest_ok": digest == baseline["digests"].get("cli-cold", digest),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def trace_cli(runner: Runner, seed: int, seconds: float, baseline: dict) -> dict:
    known = set(baseline["known_failures"].get("cli-cold", []))
    OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    # one untraced/traced pair per command, the order flipping from pair to pair
    for j, idx in enumerate(_cli_order(seed, 0)):
        for is_traced in ((False, True) if j % 2 == 0 else (True, False)):
            (traced if is_traced else plain).append(_cli_run(runner, seed, idx, is_traced, known))
    ratio = statistics.median(t["wall_s"] / p["wall_s"] for p, t in zip(plain, traced))
    failures = _cli_failures(plain + traced)
    summary = merge_summaries([r["summary"] for r in traced])
    import_s = statistics.median(r["summary"]["import_s"] for r in traced)
    wall = sum(r["wall_s"] for r in traced)
    digest = _cli_digest(traced)
    expected = baseline["digests"].get("cli-cold", digest)
    return {
        "attempted": len(plain) + len(traced),
        "failed": len(failures),
        "failures": failures,
        "known_failed": sum(f["known_defect"] for f in failures),
        "digest": digest,
        "digest_ok": digest == _cli_digest(plain) == expected,
        "layers": layer_metrics(summary, wall, sum(r["wall_s"] for r in plain), ratio, import_s),
        "spans": summary["spans"],
        "top_level_s": summary["top_level_s"],
    }


# -- reporting -----------------------------------------------------------------


def env_info() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "foxcalc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": sha,
            "src_sha256": src.hexdigest(), "pythonhashseed": HASH_SEED, "workers": 1, "threads": 1}


def end_to_end(res: dict) -> tuple[dict, list[str]]:
    lat = res["latencies_ms"]
    n = len(lat)
    metrics = {
        "setup_s": statistics.median(res["setup"]),
        "throughput_qps": statistics.median(size / busy for size, busy in res["rounds"]),
        "lat_p50_ms": statistics.median(lat),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines = [
        f"setup_s         {metrics['setup_s']:.4f} s     median of {len(res['setup'])} set-ups",
        f"throughput_qps  {metrics['throughput_qps']:.4f} 1/s   median over {len(res['rounds'])} rounds; "
        f"{n} queries in {res['busy_s']:.2f} s busy",
        f"lat_p50_ms      {metrics['lat_p50_ms']:.4f} ms    n={n}",
    ]
    if n >= 100:
        p90 = statistics.quantiles(lat, n=10)[8]
        lines.append(f"lat_p90_ms      {p90:.4f} ms    n={n}")
    else:
        lines.append(f"lat_p90_ms      omitted: needs 100 samples for ten beyond p90, have {n}")
    lines.append(f"peak_rss_mb     {metrics['peak_rss_mb']:.2f} MB")
    return metrics, lines


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
                 baseline: dict) -> tuple[dict, list[str]]:
    if workload == "cli-cold":
        res = (trace_cli if trace else run_cli)(runner, seed, seconds, baseline)
    else:
        res = (trace_library if trace else run_library)(runner, workload, seed, seconds, baseline)
    unexpected = res["failed"] - res["known_failed"]
    correct = unexpected == 0 and res["digest_ok"]
    lines = [f"# workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}"]
    if trace:
        metrics = res["layers"]
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        lines.append(f"spans {res['spans']}; traced wall {metrics['trace.wall_s']:.3f} s = layer self "
                     f"{layer_sum:.3f} s + untraced remainder {metrics['trace.remainder_s']:.3f} s; "
                     f"untraced {metrics['trace.untraced_wall_s']:.3f} s; median pair overhead "
                     f"{metrics['trace.overhead_ratio']:.3f}x")
        for layer in LAYERS:
            share = metrics[f"{layer}.self_s"] / metrics["trace.wall_s"]
            lines.append(f"  {layer:12s} self {metrics[f'{layer}.self_s']:9.4f} s  {share:6.1%}")
    else:
        metrics, metric_lines = end_to_end(res)
        lines += metric_lines
    frac = res["failed"] / res["attempted"]
    lines.append(f"failed_frac     {frac:.4f}  ({res['failed']}/{res['attempted']}; "
                 f"{res['known_failed']} from known defects)")
    for f in res["failures"][:5]:
        lines.append(f"  failure: {json.dumps(f)[:300]}")
    if not res["digest_ok"]:
        lines.append(f"  output digest {res['digest']} differs from the recorded one")
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in per_layer_spec())
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, lines


def load_baseline() -> dict:
    with open(HERE / "baseline.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foxcalc" / "__init__.py").is_file():
        print(f"error: no foxcalc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    baseline = load_baseline()
    start = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = env_info()
    print("# env " + json.dumps(info, sort_keys=True))
    results = {}
    try:
        for name in names:
            runner = Runner(time.monotonic() + DEADLINE_S)
            results[name], lines = run_workload(runner, name, args.seed, args.seconds,
                                                bool(args.trace), baseline)
            print("\n".join(lines), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    print(f"# total {time.monotonic() - start:.1f} s", flush=True)
    if args.workload == "all":
        print(json.dumps({"env": info, "results": results}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
