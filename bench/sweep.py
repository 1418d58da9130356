"""Runs the benchmark over several seeds and summarizes each metric.

    python3 bench/sweep.py --seeds 1-10 [--trace 1]

For every workload of BENCHMARK.json it runs
`bench/run.py` once per seed, one run at a time, with the run length of
BENCHMARK.json, and prints per metric the median, the first and third
quartile (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles as a share of the median.  Raw results go
to bench/out/sweep-<trace>.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = [w["name"] for w in config["workloads"]]

    log = BENCH / "out" / f"sweep-{args.trace}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    results = {name: [] for name in names}
    with log.open("a") as fh:
        for seed in args.seeds:
            for name in names:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                       "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True, timeout=600)
                if done.returncode != 0:
                    sys.exit(f"sweep: {name} seed {seed} exited {done.returncode}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                results[name].append(result)
                fh.write(json.dumps(dict(result, workload=name, seed=seed)) + "\n")
                fh.flush()

    for name, runs in results.items():
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{name}: {len(runs)} runs, {failed}/{attempted} operations failed")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {metric:52s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
