"""Tracing overhead: alternates untraced and traced operations of one
workload in one process and compares them pair by pair.

    python3 bench/overhead.py --workload principal-n3

One untraced warm-up operation runs first and is left out, so the cold
start of the process falls in neither half.  Both halves of a pair run
back to back and take turns to run first.  Prints the warm-up's wall
time, the median untraced wall time, the median traced `op.total_s` and
the median paired difference.  On a host whose speed drifts that
difference is mostly noise, so it also prints the cost of one span,
timed on a function that does nothing, times the spans per operation.
"""

import argparse
import statistics
import sys
import time

import run
import tracing

PAIRS = 6


def span_cost(calls=100_000):
    """Seconds one traced call adds, with a counter, over a bare call."""
    def nothing(x):
        return x

    traced = tracing.Tracer().wrap("nothing", nothing, lambda a, r: ("n", 1))
    times = []
    for fn in (nothing, traced):
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        times.append((time.perf_counter() - start) / calls)
    return times[1] - times[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    workdir = run.OUT / "work" / f"{args.workload}-overhead"
    cli, workload = run._setup(args.workload, 0, workdir)
    (warmup,) = run.measure(cli, workload, 0, workdir / "warmup")
    if warmup["problems"]:
        sys.exit(f"overhead: failed warm-up operation: {warmup['problems']}")
    tracer = tracing.Tracer()
    plain, traced, spans = [], [], 0
    for i in range(PAIRS):
        # alternate which half runs first, so an order effect cancels
        for traced_half in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_half:
                uninstall = tracing.install(tracer)
                try:
                    (sample,) = run.measure(cli, workload, 0, workdir / f"t{i}", tracer)
                finally:
                    uninstall()
                traced.append(sample["layers"]["op.total_s"])
                spans = sample["layers"]["trace.spans"]
            else:
                (sample,) = run.measure(cli, workload, 0, workdir / f"p{i}")
                plain.append(sample["wall_s"])
            if sample["problems"]:
                sys.exit(f"overhead: failed operation: {sample['problems']}")
    diffs = [t - p for p, t in zip(plain, traced)]
    print(f"{args.workload}: warm-up wall_s {warmup['wall_s']:.4f} s, "
          f"untraced wall_s {statistics.median(plain):.4f} s, "
          f"traced op.total_s {statistics.median(traced):.4f} s, "
          f"paired difference {statistics.median(diffs):+.4f} s "
          f"({statistics.median(diffs) / statistics.median(plain):+.2%}), "
          f"{PAIRS} pairs; {spans} spans per operation at "
          f"{span_cost() * 1e6:.1f} us each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
