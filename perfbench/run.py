"""flpkit benchmark: one command per workload.

    python3 perfbench/run.py --workload check --seed 1 --seconds 32 --trace 0

Runs whole rounds of the workload, each in a fresh interpreter started
from ``perfbench/round.py``, one after another, for as long as another
round fits in ``--seconds`` (at least one).  Checks the outputs, then
prints as the last line of standard output one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A per-round breakdown goes to standard error as a JSON line that starts
with ``{"detail"``.

With ``--trace 1`` every unit of work is a pair of rounds, one untraced
and one traced, so the tracing overhead is measured in the same run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("check", "deep", "attack", "serve")
#: Longest a single round may take before it is killed.
ROUND_TIMEOUT_S = 150

#: End-to-end metrics: every workload reports each of them.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}

#: Workload-specific figures, taken from the untraced rounds of a
#: traced run and reported among the per-layer metrics.
FIGURES = {
    "check_s": "s", "explore_nodes_per_s": "1/s", "bytes_per_node": "B",
    "checkpoint_mb": "MB", "save_s": "s", "resume_s": "s", "attack_s": "s",
    "reduced_attack_s": "s", "cold_s": "s", "hit_ms": "ms",
}

#: Counters and self times from the traced rounds.
LAYERS = {
    "correctness.s": "s", "correctness.configurations": "count",
    "valency.classify_s": "s", "valency.reach_s": "s",
    "valency.reach_calls": "count", "valency.csr_rebuilds": "count",
    "engine.explore_s": "s", "engine.configurations": "count",
    "engine.edges": "count", "engine.fingerprint_s": "s",
    "kernel.table_hits": "count", "kernel.fills": "count",
    "kernel.hit_ratio": "ratio", "kernel.table_mb": "MB",
    "packing.buffers": "count",
    "store.arena_mb": "MB", "store.edge_mb": "MB",
    "reduction.build_s": "s", "reduction.canonical_s": "s",
    "reduction.sym_hits": "count",
    "reduction.sym_misses": "count", "reduction.por_pruned": "count",
    "checkpoint.save_s": "s", "checkpoint.load_s": "s",
    "checkpoint.payload_mb": "MB",
    "adversary.lemma2_s": "s", "adversary.lemma3_s": "s",
    "adversary.build_s": "s", "adversary.stages": "count",
    "adversary.verify_s": "s", "analysis.admissibility_s": "s",
    "serve.request_s": "s", "serve.queue_wait_ms": "ms",
    "serve.run_ms": "ms", "serve.explorations": "count",
    "serve.cache_hits": "count",
    "residual_s": "s", "trace.wall_s": "s",
}

def run_round(workload, seed, trace):
    """One round in a fresh interpreter (its own process group, so a
    serve daemon it started cannot outlive it)."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "round.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        out, err = child.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload} round ran over {ROUND_TIMEOUT_S}s")
    lines = out.decode().strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} round exited {child.returncode}: "
            + err.decode()[-2000:])
    return json.loads(lines[-1])


def reference_problems(workload, rounds):
    """Compare each round's census with the reference semantics'."""
    if workload not in ("check", "serve"):
        return []
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    n = 4 if workload == "check" else 3
    want = workloads.reference_census("parity-arbiter", n)
    problems = []
    for r in rounds:
        got = r["extra"].get("census")
        if got != want:
            r["failed"] += 1
            problems.append(
                f"census of parity-arbiter/{n} differs from the reference "
                f"semantics: {got} != {want}")
    return problems


def percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def median_of(rounds, key, source="metrics"):
    values = [r[source][key] for r in rounds if key in r[source]]
    return statistics.median(values) if values else None


def summarize(rounds, trace):
    plain = [r for r in rounds if not r["traced"]]
    if not trace:
        return {name: (median_of(plain, name), unit)
                for name, unit in END_TO_END.items()}
    traced = [r for r in rounds if r["traced"]]
    out = {}
    for name, unit in LAYERS.items():
        out[name] = (median_of(traced, name, "layers") or 0.0, unit)
    hits = sum((r["layers"].get("kernel.table_hits", 0) for r in traced))
    fills = sum((r["layers"].get("kernel.fills", 0) for r in traced))
    out["kernel.hit_ratio"] = (hits / (hits + fills) if hits else 0.0,
                               "ratio")
    for name, unit in FIGURES.items():
        out[name] = (median_of(plain, name) or 0.0, unit)
    pooled = [ms for r in plain for ms in r["extra"].get("hit_ms", [])]
    if pooled:
        out["hit_ms"] = (statistics.median(pooled), "ms")
    out["serve.hit_p99_ms"] = (percentile(pooled, 0.99) if pooled else 0.0,
                               "ms")
    for name in ("serve.queue_wait_ms", "serve.run_ms"):
        key = name.split(".", 1)[1]
        totals = [sum(r["extra"][key]) for r in traced if key in r["extra"]]
        out[name] = (statistics.median(totals) if totals else 0.0, "ms")
    untraced_s = median_of(plain, "round_s")
    traced_s = median_of(traced, "round_s")
    out["trace.overhead_pct"] = (
        (traced_s / untraced_s - 1.0) * 100.0
        if untraced_s and traced_s else 0.0, "%")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no flpkit sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    # One CPU for this process and every round and daemon it starts: a
    # serve query then hands off between client and daemon without a
    # cross-CPU wake-up.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    unit = (0, 1) if args.trace else (0,)
    rounds, longest = [], 0.0
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        for traced in unit:
            result = run_round(args.workload, args.seed, traced)
            result["traced"] = bool(traced)
            rounds.append(result)
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - started + longest > args.seconds:
            break

    problems = [p for r in rounds for p in r["problems"]]
    problems += reference_problems(args.workload, rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    summary = summarize(rounds, args.trace)
    missing = [name for name, (value, _u) in summary.items() if value is None]
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed,
        "rounds": [{"traced": r["traced"], "metrics": r["metrics"],
                    "raw": r["raw"], "refs": r["refs"]} for r in rounds],
        "problems": problems}}), file=sys.stderr)
    if missing:
        print(f"no value for {missing}: every round failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
