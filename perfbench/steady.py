"""Steadiness self-check: run each workload k times and show the spread.

    python3 perfbench/steady.py --runs 10 [--workloads check deep] [--first-seed 1]

Each run is ``run.py`` with its own seed and the run length from
``BENCHMARK.json``.  For every end-to-end metric the table shows the
median, the first and third quartiles (``statistics.quantiles(n=4)``),
the spread (Q3 - Q1) / median and the bound it must stay within (a
third of the bound is the target).  Every run's median reference-loop
time is printed too, so that a drifting machine shows as one.  The
share of failed operations must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = next(json.loads(line)["detail"]
                  for line in reversed(done.stderr.splitlines())
                  if line.startswith('{"detail"'))
    return result, detail


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in args.workloads:
        values, shares = {name: [] for name in bounds}, set()
        print(f"== {workload}: {args.runs} runs of "
              f"{bench['run_seconds']}s")
        for i in range(args.runs):
            seed = args.first_seed + i
            result, detail = one_run(workload, seed, bench["run_seconds"])
            refs = [x for r in detail["rounds"] for x in r["refs"]]
            raw = statistics.median(r["raw"]["round_s"]
                                    for r in detail["rounds"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            shares.add(Fraction(result["failed"], result["attempted"]))
            print(f"  seed {seed:3d}: rounds {len(detail['rounds'])}, "
                  f"reference {statistics.median(refs) * 1e3:6.1f} ms, "
                  f"raw round {raw:.4g} s, "
                  + ", ".join(f"{n} {v[-1]:.4g}" for n, v in values.items())
                  + f", failed {result['failed']}/{result['attempted']}")
        for name, bound in bounds.items():
            v = values[name]
            q1, _q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            ok = spread < bound / 3 or name == "setup_s"
            steady = steady and ok
            print(f"  {name:14s} median {statistics.median(v):10.4g}  "
                  f"Q1 {q1:10.4g}  Q3 {q3:10.4g}  spread {spread:6.3f}  "
                  f"bound {bound:.2f}  {'ok' if ok else 'WIDE'}")
        if len(shares) > 1:
            steady = False
            print(f"  failed share differs between runs: {shares}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
