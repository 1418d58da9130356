"""The manifest of standard artifacts, kept in tests/baselines/artifacts.json:
the sha256 of each file the standard runs write, their headline values
(as the artifacts spell them, by f17), and the numpy and BLAS that wrote
them.  `test_artifacts.py` compares the runs of one test session, built
once by the `standard_runs` fixture in conftest.py, and names every entry
that moved.  A change that moves artifacts on purpose rewrites the file with

    PYTHONPATH=src python tests/artifact_manifest.py

and lists each move and its cause in CHANGES.md.
"""

import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from trigcert.cli import main

BASELINE = Path(__file__).resolve().parent / "baselines" / "artifacts.json"

# name -> (subcommand and flags, the config file passed last or None,
# {artifact: headline keys}); a dotted key is a path into the artifact
RUNS = {
    "bernstein-coins": (
        ["bernstein", "--config"], {"space": "coins", "N": 11, "p_plus": "3/4"},
        {"battery.json": ["deviation", "mu"]}),
    "bernstein-riesz": (
        ["bernstein", "--config"],
        {"space": "riesz", "N": 9, "s": "7/24", "phi": "cos", "w": "one"},
        {"battery.json": ["deviation", "mu"]}),
    # the benchmark's principal-n3 config
    "principal-n3": (
        ["principal", "--config"],
        {"q": 4, "eps": 0.9, "u": "cos", "N": 3, "mode": "empirical"},
        {"certificates.json": ["certificates.a_q_defect", "certificates.min_X_on_K"]}),
    "helson": (
        ["helson", "--q", "4", "--stages", "2"], None,
        {"certificates.json": ["final_norm", "step_norms", "outside_bound"]}),
    "demo-corollary": (
        ["demo-corollary", "--seed", "1"], None,
        {"certificates.json": ["deficit_best", "delta_hat"],
         "f_noncyclic.json": ["report.obstruction_bound", "report.obstruction_bound_l2"],
         "g_cyclic.json": ["probe.b_norm_lo", "probe.b_norm_hi"]}),
}


def toolchain() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def run(name: str, workdir: Path) -> Path:
    """Run one standard run under workdir; the directory it wrote."""
    argv, config, _ = RUNS[name]
    out = workdir / name
    argv = list(argv)
    if config is not None:
        cfg = workdir / f"{name}.json"
        cfg.write_text(json.dumps(config))
        argv.append(str(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name} exited {code}")
    return out


def describe(outs: dict) -> dict:
    """The manifest of the standard runs written to outs (name -> directory)."""
    runs = {}
    for name, out in outs.items():
        values = {}
        for art, keys in RUNS[name][2].items():
            doc = json.loads((out / art).read_text())
            for key in keys:
                values[key] = functools.reduce(lambda d, k: d[k], key.split("."), doc)
        runs[name] = {
            "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in sorted(out.iterdir())},
            "values": values,
        }
    return {"toolchain": toolchain(), "runs": runs}


def manifest(workdir: Path) -> dict:
    """Run every standard run under workdir and describe what it wrote."""
    return describe({name: run(name, workdir) for name in RUNS})


def moved(want: dict, got: dict) -> list:
    """The entries of two manifests that differ, each as 'run/artifact',
    'run/value' or 'toolchain/key', with both readings."""
    def flat(doc):
        entries = {f"toolchain/{k}": v for k, v in doc.get("toolchain", {}).items()}
        for run, rec in doc.get("runs", {}).items():
            for section in ("sha256", "values"):
                entries.update({f"{run}/{k}": v
                                for k, v in rec.get(section, {}).items()})
        return entries

    a, b = flat(want), flat(got)
    return [f"{key}: {a.get(key)!r} -> {b.get(key)!r}"
            for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def _rewrite() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        got = manifest(Path(tmp))
    want = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    for line in moved(want, got):
        print(line)
    BASELINE.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BASELINE}", file=sys.stderr)


if __name__ == "__main__":
    _rewrite()
