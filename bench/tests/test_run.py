import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
import workloads

BENCH = Path(__file__).resolve().parents[1]


def test_benchmark_json_names_the_workloads():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_never_imports_the_tracer(tmp_path):
    script = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(BENCH.parent / 'src')!r}]
import run, workloads
class Nothing(workloads.Workload):
    def commands(self, opdir):
        return []
    def check(self, opdir):
        return []
w = Nothing()
w.prepare({str(tmp_path)!r}, 0)
samples = run.measure(run._import_program(), w, 0, __import__("pathlib").Path({str(tmp_path)!r}))
assert len(samples) == 1 and not samples[0]["problems"]
assert "tracing" not in sys.modules, "tracer imported"
"""
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120)


class SmallBernstein(workloads.Bernstein):
    coins = {"space": "coins", "N": 3, "p_plus": "3/4"}
    riesz = {"space": "riesz", "N": 2, "s": "7/24", "phi": "cos", "w": "one"}


def _run(workload, tmp_path):
    import run
    cli = run._import_program()
    workload.prepare(tmp_path, 0)
    opdir = tmp_path / "op"
    assert run._run_op(cli, workload, opdir) == []
    return opdir


def test_bernstein_checks_pass_then_catch_a_wrong_tail(tmp_path):
    w = SmallBernstein()
    opdir = _run(w, tmp_path)
    assert w.check(opdir) == []
    for space in ("coins", "riesz"):
        report = opdir / space / "report.csv"
        lines = report.read_text().splitlines()
        alpha, tail, bound = lines[1].split(",")
        lines[1] = ",".join([alpha, repr(float(tail) + 1e-9), bound])
        report.write_text("\n".join(lines) + "\n")
    problems = w.check(opdir)
    assert any(p.startswith("coins: tail") for p in problems)
    assert any(p.startswith("riesz: tail") for p in problems)


def test_demo_rerun_check_finds_a_changed_artifact(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "x.json").write_text("{}\n")
    demo = workloads.DemoCorollary()
    assert demo.check_rerun(a, b) == []
    (b / "x.json").write_text("{ }\n")
    assert demo.check_rerun(a, b) == ["x.json differs between runs with one seed"]


def test_witness_check_passes_then_catches_a_wrong_witness():
    # a witness whose coefficients are the profile's DFT on the scan grid
    K, L = [(1.0, 2.0), (4.0, 4.5)], 64
    profile = oracles.witness_profile(K, oracles.TWO_PI * np.arange(L) / L)
    c = np.fft.fft(profile) / L
    n = np.fft.fftfreq(L, 1.0 / L).astype(int)
    zero = {"Z": {"arcs": [{"a": repr(a), "b": repr(b)} for a, b in K]},
            "scan_points": L, "witness_on_K_exact_max": "0"}
    f_doc = {"coeffs": [{"n": int(k), "re": repr(float(z.real)), "im": repr(float(z.imag))}
                        for k, z in zip(n, c)],
             "tail": {"M": L, "const": "0", "exp": "2"}}
    assert workloads.witness_problems(zero, f_doc) == []
    f_doc["coeffs"][3]["re"] = repr(float(c[3].real) + 1e-6)
    zero["witness_on_K_exact_max"] = "1.0000000000000001e-300"
    problems = workloads.witness_problems(zero, f_doc)
    assert problems[0].startswith("witness reaches")
    assert problems[1].startswith("witness artifact off the profile")


class SmallPrincipal(workloads.Principal):
    config = dict(workloads.Principal.config, N=1)


def test_principal_checks_pass_then_catch_a_small_P(tmp_path):
    w = SmallPrincipal()
    opdir = _run(w, tmp_path)
    assert w.check(opdir) == []
    doc = json.loads((opdir / "P.json").read_text())
    for entry in doc["coeffs"]:
        entry["re"] = repr(float(entry["re"]) / 10)
    (opdir / "P.json").write_text(json.dumps(doc))
    problems = w.check(opdir)
    assert any(p.startswith("|P| <= 1 on K") for p in problems)
