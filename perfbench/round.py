"""One round of one workload, in a fresh interpreter.

    python3 perfbench/round.py --workload check --seed 1 --trace 0

Prints one JSON object: the round's scaled and raw metrics, layer
counters and self times (with ``--trace 1``), its operation counts and
the reference times it took.  ``run.py`` starts one of these per round,
one at a time, so that set-up and peak RSS are measured afresh in each
round.
"""

import argparse
import json
import os
import sys
import traceback

import refloop
import tracing
import workloads

#: Largest allowed gap between the traced wall time and the layer self
#: times plus residual, as a share of the wall time.
RECONCILE_TOLERANCE = 0.10


def layer_times(tracer, outcome):
    """Self time per layer, the residual, and their reconciliation with
    the operations' traced wall time."""
    self_times = tracer.self_times("op")
    residual = self_times.pop("op", 0.0)
    wall, covered = tracer.wall_and_covered("op")
    for name, seconds in self_times.items():
        outcome.add(name, seconds)
    outcome.add("residual_s", residual)
    outcome.add("trace.wall_s", wall)
    total = sum(self_times.values()) + residual
    outcome.operation("trace reconciliation", [
        (abs(total - wall) <= RECONCILE_TOLERANCE * wall,
         f"layer self times + residual = {total:.4f}s, wall {wall:.4f}s"),
        (abs((wall - covered) - residual) <= RECONCILE_TOLERANCE * wall,
         f"uncovered {wall - covered:.4f}s but residual {residual:.4f}s"),
    ])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer() if args.trace else None
    timer = workloads.Timer()
    outcome = workloads.Outcome()
    work = workloads.WORKLOADS[args.workload](args.seed)
    try:
        _none, outcome.metrics["setup_s"] = timer.timed(work.setup)
        timer.round_raw = 0.0
        if tracer is not None:
            workloads.instrument(tracer)
            timer.tracer = tracer
        work.run(timer, outcome)
        outcome.metrics["round_s"] = timer.round_raw
    except Exception:
        outcome.operation("round", [(False, traceback.format_exc(limit=3))])
    finally:
        stop = getattr(work, "stop", None)
        if stop is not None:
            stop()
    if tracer is not None:
        tracer.restore()
        layer_times(tracer, outcome)
        path = os.path.join(
            workloads.WORK, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as handle:
            json.dump(tracer.dump(), handle)
    factor = refloop.factor(timer.refs)
    for name in outcome.layers:
        if name.endswith("_s") or name == "correctness.s":
            outcome.layers[name] *= factor
    if "hit_ms" in outcome.extra:
        outcome.extra["hit_ms"] = [ms * factor
                                   for ms in outcome.extra["hit_ms"]]
    json.dump({
        "metrics": refloop.scale(outcome.metrics, factor),
        "raw": outcome.metrics,
        "refs": timer.refs,
        "layers": outcome.layers,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "extra": outcome.extra,
    }, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
