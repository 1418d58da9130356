"""End-to-end checks of the command line driver: artifact shapes,
deterministic reruns, exit codes 2/3/4."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trigcert
from trigcert.cli import main
from trigcert.gridcert import ArcSet
from trigcert.trigpoly import CoeffSeq, TrigPoly

P43 = "1.3333333333333333"


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


def read_csv(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def helson_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("helson")
    assert run_cli("helson", "--q", 4, "--stages", 1, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def probe_dir(helson_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("probe")
    assert run_cli("extension-probe", "--k", helson_dir / "K.json",
                   "--p", P43, "--eps", 0.05, "--d", 256, "--out", out) == 0
    return out


# -- artifact shape ---------------------------------------------------------


def test_construct_phi_artifact(tmp_path):
    assert run_cli("construct-phi", "--q", 4, "--gamma", 0.5,
                   "--out", tmp_path) == 0
    doc = read_json(tmp_path / "phi.json")
    assert doc["schema_version"] == 1
    # floats travel as 17-significant-digit strings
    assert isinstance(doc["a_norm"], str)
    assert float(doc["a_norm"]) < 0.5
    assert doc["k"] == 1


def test_kahane_artifacts(tmp_path):
    assert run_cli("kahane", "--a", "1/5", "--b", "2/5", "--delta", "1/8",
                   "--kmax", 12, "--out", tmp_path) == 0
    doc = read_json(tmp_path / "measure.json")
    n_zero = doc["exact_zero_moments"]
    rows = read_csv(tmp_path / "report.csv")
    assert len(rows) == 12
    for row in rows[:n_zero]:
        assert row["moment_abs"] == "0"
    for row in rows:
        assert float(row["moment_abs"]) < 0.125


def test_kahane_rerun_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("kahane", "--a", "1/5", "--b", "2/5", "--delta", "1/8",
                       "--kmax", 6, "--out", out) == 0
    assert (a / "measure.json").read_bytes() == (b / "measure.json").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_bernstein_artifacts_independent_of_blas_threads(tmp_path):
    # a BLAS reduction sums in an order set by its thread count; the
    # battery's artifacts must not depend on it
    cfg = tmp_path / "riesz.json"
    cfg.write_text('{"space": "riesz", "N": 9, "s": "7/24", '
                   '"phi": "cos", "w": "one"}\n')
    src = str(Path(trigcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=path,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "trigcert.cli", "bernstein",
                        "--config", str(cfg), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=600)
        outs.append(out)
    for name in ("battery.json", "report.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_bernstein_seed_flag_and_env(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"space": "coins", "N": 8, "p_plus": "3/4"}\n')
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli("bernstein", "--config", cfg, "--seed", 3, "--out", a) == 0
    assert run_cli("bernstein", "--config", cfg, "--seed", 3, "--out", b) == 0
    monkeypatch.setenv("MASTER_SEED", "3")
    assert run_cli("bernstein", "--config", cfg, "--out", c) == 0
    for name in ("battery.json", "report.csv"):
        blob = (a / name).read_bytes()
        assert blob == (b / name).read_bytes()
        assert blob == (c / name).read_bytes()
    battery = read_json(a / "battery.json")
    assert battery["violations"] == 0


def test_riesz_moment_report(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"phi": "cos", "w": "one", "N": 3, "mode": "exact"}\n')
    assert run_cli("riesz", "--spec", spec, "--s", "1/4",
                   "--check", "moments", "--out", tmp_path) == 0
    rows = read_csv(tmp_path / "report.csv")
    assert len(rows) == 7  # all nonempty subsets of {1,2,3}
    assert all(row["abs_err"] == "0" for row in rows)


def test_riesz_concentration_report(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"phi": "cos", "w": "one", "N": 3, "mode": "exact"}\n')
    assert run_cli("riesz", "--spec", spec, "--s", "7/24",
                   "--check", "concentration", "--out", tmp_path) == 0
    doc = read_json(tmp_path / "concentration.json")
    assert doc["holds"] is True
    assert float(doc["lhs"]) <= float(doc["rhs"])


def test_principal_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 4.0, "eps": 0.35, "u": "cos", "N": 2,
                               "mode": "empirical", "window": 1 << 16}))
    assert run_cli("principal", "--config", cfg, "--out", tmp_path) == 0
    K = ArcSet.from_json_dict(read_json(tmp_path / "K.json"))
    assert K.measure > 0
    f = CoeffSeq.from_json_dict(read_json(tmp_path / "f.json"))
    assert f.M > 0
    P = TrigPoly.from_json_dict(read_json(tmp_path / "P.json"))
    assert P.is_real()
    certs = read_json(tmp_path / "certificates.json")
    assert float(certs["achieved_eps"]) > 0


def test_helson_artifacts(helson_dir):
    stages = read_json(helson_dir / "stages.json")["stages"]
    assert [s["step_budget"] for s in stages] == ["0.25"]
    K = ArcSet.from_json_dict(read_json(helson_dir / "K.json"))
    assert K.measure > 0
    S = CoeffSeq.from_json_dict(read_json(helson_dir / "S.json"))
    assert S.tail_l1() < 0.1
    certs = read_json(helson_dir / "certificates.json")
    assert certs["k_nonempty"] is True


def test_extension_probe_artifacts(probe_dir):
    rep = read_json(probe_dir / "probe.json")
    assert float(rep["residual"]) < 1e-8
    assert "objective_trace" not in rep
    f = TrigPoly.from_json_dict(read_json(probe_dir / "f.json"))
    pts = np.array([float(t) for t in rep["points"]])
    assert np.abs(f.eval_at(pts) - 1.0).max() < 1e-7


def test_probe_cyclicity_profile(probe_dir, tmp_path):
    assert run_cli("probe-cyclicity", "--f", probe_dir / "f.json",
                   "--p", P43, "--dmax", 8, "--out", tmp_path) == 0
    rows = read_csv(tmp_path / "profile.csv")
    his = [float(r["hi"]) for r in rows]
    assert his == sorted(his, reverse=True)
    doc = read_json(tmp_path / "multiplier.json")
    TrigPoly.from_json_dict(doc["P"])


def test_probe_cyclicity_reads_polynomial_artifact(tmp_path):
    art = tmp_path / "f.json"
    art.write_text(json.dumps(TrigPoly({0: 1.0, 1: -1.0}).to_json_dict()))
    assert run_cli("probe-cyclicity", "--f", art, "--p", 2,
                   "--dmax", 0, "--out", tmp_path) == 0
    rows = read_csv(tmp_path / "profile.csv")
    assert float(rows[0]["hi"]) == pytest.approx(0.5**0.5, abs=1e-8)


def test_witness_artifacts(helson_dir, tmp_path):
    assert run_cli("witness", "--k", helson_dir / "K.json",
                   "--s", helson_dir / "S.json", "--p", P43,
                   "--out", tmp_path) == 0
    rep = read_json(tmp_path / "report.json")
    assert rep["ladder_positive"] is True
    w = CoeffSeq.from_json_dict(read_json(tmp_path / "witness.json"))
    assert w.tail_l1() < np.inf


# -- run dispatch ------------------------------------------------------------


def test_run_matches_direct_invocation(tmp_path):
    direct = tmp_path / "direct"
    assert run_cli("kahane", "--a", "1/5", "--b", "2/5", "--delta", "1/8",
                   "--kmax", 6, "--out", direct) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pipeline": "kahane", "a": "1/5", "b": "2/5",
                               "delta": "1/8", "kmax": 6,
                               "out": str(tmp_path / "via_run")}))
    assert run_cli("run", cfg) == 0
    for name in ("measure.json", "report.csv"):
        assert ((tmp_path / "via_run" / name).read_bytes()
                == (direct / name).read_bytes())


def test_run_unknown_pipeline(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"pipeline": "frobnicate"}\n')
    assert run_cli("run", cfg) == 2


def test_run_missing_config(tmp_path):
    assert run_cli("run", tmp_path / "absent.json") == 2


def test_run_invalid_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run_cli("run", cfg) == 2


# -- exit codes --------------------------------------------------------------


def test_precondition_exit_code(tmp_path):
    assert run_cli("construct-phi", "--q", 1.5, "--gamma", 0.5,
                   "--out", tmp_path) == 2


def test_certificate_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 4.0, "eps": 0.01, "u": "one", "N": 2,
                               "mode": "theoretical", "window": 1 << 16}))
    assert run_cli("principal", "--config", cfg, "--out", tmp_path) == 3


def test_resource_exit_code(tmp_path):
    art = tmp_path / "f.json"
    art.write_text(json.dumps(TrigPoly({0: 1.0, 1: -1.0}).to_json_dict()))
    assert run_cli("probe-cyclicity", "--f", art, "--p", 2,
                   "--dmax", 1 << 14, "--out", tmp_path) == 4


def test_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("MASTER_SEED", "-4")
    assert run_cli("construct-phi", "--q", 4, "--gamma", 0.5,
                   "--out", tmp_path) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


# -- demo --------------------------------------------------------------------


def test_demo_corollary_seeded_reruns_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("demo-corollary", "--q", 4, "--p", P43, "--stages", 2,
                       "--seed", 7, "--out", out) == 0
    names = ("f_noncyclic.json", "g_cyclic.json", "zero_set.json",
             "certificates.json", "report.csv")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    certs = read_json(a / "certificates.json")
    assert certs["obstruction_positive"] is True
    assert certs["deficit_below_half"] is True
    assert float(certs["delta_hat"]) > 0
    profile = read_json(a / "g_cyclic.json")["deficit_profile"]
    his = [float(r["value"]["hi"]) for r in profile]
    assert his == sorted(his, reverse=True)
    zeros = read_json(a / "zero_set.json")
    assert float(zeros["g_at_skeleton_max"]) < 1e-9
    assert float(zeros["g_off_K_grid_min"]) > 0
    assert float(zeros["witness_on_K_exact_max"]) == 0.0
