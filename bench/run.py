"""Benchmark of the trigcert command line, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats one workload's operation in this process, through
`trigcert.cli.main`, until S seconds have passed, and checks every
operation's artifacts.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, which are the
end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1.  A result file with the run's samples and environment goes to
bench/out/results/.
"""

import os

# pinned before numpy loads, and inherited by the set-up probes
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in config[kind]}


def _import_program():
    """trigcert.cli from this checkout's src/; exits when it has none."""
    src = ROOT / "src"
    if not (src / "trigcert" / "cli.py").is_file():
        sys.exit(f"bench: no program source at {src / 'trigcert'}")
    sys.path.insert(0, str(src))
    import trigcert.cli
    if Path(trigcert.cli.__file__).resolve().parent != src / "trigcert":
        sys.exit(f"bench: trigcert imported from {trigcert.cli.__file__}, not {src}")
    return trigcert.cli


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(workload_name, seed, workdir):
    """Everything before the first operation: the program's imports, the
    oracles and the workload's input files."""
    cli = _import_program()
    from workloads import WORKLOADS
    if workload_name not in WORKLOADS:
        sys.exit(f"bench: unknown workload {workload_name!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.prepare(workdir, seed)
    return cli, workload


def _probe_setup(args):
    """Wall time from starting a fresh interpreter to the point where its
    first operation could begin, once for each of SETUP_PROBES processes."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                sys.exit(f"bench: set-up probe {i} failed")
        times.append(t1 - t0)
    return times


def _run_op(cli, workload, opdir):
    """One operation: every command must exit 0.  Returns the problems."""
    opdir.mkdir(parents=True)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in workload.commands(opdir):
            code = cli.main(argv)
            if code != 0:
                return [f"trigcert {argv[0]} exited {code}"]
    return []


def measure(cli, workload, seconds, workdir, tracer=None):
    """Operations until `seconds` have passed; one sample per operation.
    The first and the latest operation's artifacts are kept."""
    if tracer is not None:
        import tracing
    samples = []
    first = previous = None
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        opdir = workdir / f"op{len(samples)}"
        layers = None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                problems = _run_op(cli, workload, opdir)
            else:
                tracer.reset()
                with tracer.span("op"):
                    problems = _run_op(cli, workload, opdir)
        except Exception:
            traceback.print_exc()
            problems = ["operation raised"]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            layers = tracing.layer_metrics(tracer)
        if not problems:
            try:
                problems = workload.check(opdir)
                if first is not None:
                    problems += workload.check_rerun(first, opdir)
            except Exception:
                traceback.print_exc()
                problems = ["check raised"]
        samples.append({"wall_s": wall, "cpu_s": cpu, "problems": problems,
                        "layers": layers})
        if first is None:
            first = opdir
        elif previous != first:
            shutil.rmtree(previous, ignore_errors=True)
        previous = opdir
    return samples


def _environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


def main(argv=None):
    args = _parse(argv)
    workdir = OUT / "work" / args.workload
    if args.setup_probe:
        _setup(args.workload, args.seed, workdir.with_name(args.workload + "-probe"))
        print("ready", flush=True)
        return 0

    env_start = _environment()
    setup_times = [] if args.trace else _probe_setup(args)
    cli, workload = _setup(args.workload, args.seed, workdir)
    tracing = tracer = uninstall = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
    try:
        samples = measure(cli, workload, args.seconds, workdir, tracer)
    finally:
        if uninstall:
            uninstall()

    failed = sum(1 for s in samples if s["problems"])
    for s in samples:
        for problem in s["problems"]:
            print(f"bench: {args.workload}: {problem}", file=sys.stderr)
    if tracing:
        metrics = {}
        for name, unit in metric_units("per_layer").items():
            mid = statistics.median if unit == "s" else statistics.median_low
            # a layer the operation never entered reads 0
            value = mid(s["layers"].get(name, 0) for s in samples)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "cpu_s": statistics.median(s["cpu_s"] for s in samples),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}

    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_probes_s=setup_times, samples=samples,
                  environment_start=env_start, environment_end=_environment())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
