"""End-to-end checks of the command line driver: artifact shapes,
deterministic reruns, exit codes 2/3/4."""

import csv
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trigcert
from trigcert import principal
from trigcert.cli import _PIPELINES, _build_parser, _csv_cell, _encode, _write_json, main
from trigcert.gridcert import ArcSet
from trigcert.trigpoly import CoeffSeq, Interval, QComplex, TrigPoly, f17

P43 = "1.3333333333333333"


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


def json_text(obj):
    chunks = []
    _encode(obj, chunks, "\n")
    return "".join(chunks)


def read_csv(path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def helson_dir(standard_runs):
    # helson --q 4 --stages 2, the standard run of the artifact manifest
    return standard_runs["helson"]


@pytest.fixture(scope="module")
def probe_dir(helson_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("probe")
    assert run_cli("extension-probe", "--k", helson_dir / "K.json",
                   "--p", P43, "--eps", 0.05, "--d", 256, "--out", out) == 0
    return out


@pytest.fixture
def small_window(monkeypatch):
    # a principal window capped at 2^16 keeps a run short
    monkeypatch.setattr(principal, "_MAX_WINDOW", 1 << 16)


# -- artifact shape ---------------------------------------------------------


def test_construct_phi_artifact(tmp_path):
    assert run_cli("construct-phi", "--q", 4, "--gamma", 0.5,
                   "--out", tmp_path) == 0
    doc = read_json(tmp_path / "phi.json")
    assert doc["schema_version"] == 4
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


def test_demo_artifacts_independent_of_blas_threads(tmp_path):
    # the probe's projection and the p = 2 multiplier are solved without
    # LAPACK, and the BLAS products left on the demo's path split only
    # their outputs across threads; no artifact may depend on the count
    src = str(Path(trigcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=path,
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "trigcert.cli", "demo-corollary",
                        "--seed", "1", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=600)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert len(names) == 5
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_bernstein_seed_flag_and_env(tmp_path, monkeypatch):
    # the battery draws no random number: a rerun, and a run under
    # MASTER_SEED, write the same bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"space": "coins", "N": 8, "p_plus": "3/4"}\n')
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli("bernstein", "--config", cfg, "--out", a) == 0
    assert run_cli("bernstein", "--config", cfg, "--out", b) == 0
    monkeypatch.setenv("MASTER_SEED", "3")
    assert run_cli("bernstein", "--config", cfg, "--out", c) == 0
    for name in ("battery.json", "report.csv"):
        blob = (a / name).read_bytes()
        assert blob == (b / name).read_bytes()
        assert blob == (c / name).read_bytes()
    battery = read_json(a / "battery.json")
    assert battery["violations"] == 0
    assert battery["exhaustive"] is True


def test_bernstein_rejects_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"space": "coins", "N": 8, "p_plus": "3/4"}\n')
    with pytest.raises(SystemExit) as exc:
        run_cli("bernstein", "--config", cfg, "--seed", 3, "--out", tmp_path / "out")
    assert exc.value.code == 2


def test_bernstein_coins_past_the_subset_cap(tmp_path, capsys):
    # eps needs every subset, so 21 coins are refused before any work
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"space": "coins", "N": 21}\n')
    start = time.perf_counter()
    assert run_cli("bernstein", "--config", cfg, "--out", tmp_path / "out") == 2
    assert time.perf_counter() - start < 1.0
    assert "[n]" in capsys.readouterr().err


def test_riesz_moment_report(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"phi": "cos", "w": "one", "N": 3}\n')
    assert run_cli("riesz", "--spec", spec, "--s", "1/4",
                   "--check", "moments", "--out", tmp_path) == 0
    rows = read_csv(tmp_path / "report.csv")
    assert len(rows) == 7  # all nonempty subsets of {1,2,3}
    assert all(row["abs_err"] == "0" for row in rows)


def test_riesz_concentration_report(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"phi": "cos", "w": "one", "N": 3}\n')
    assert run_cli("riesz", "--spec", spec, "--s", "7/24",
                   "--check", "concentration", "--out", tmp_path) == 0
    doc = read_json(tmp_path / "concentration.json")
    assert doc["holds"] is True
    assert float(doc["lhs"]) <= float(doc["rhs"])


def test_riesz_default_s_per_check(tmp_path):
    # without --s, the concentration check takes 7/24 from inside its open
    # interval (1/4, 1/3) and the moment check keeps 1/4
    spec = tmp_path / "spec.json"
    spec.write_text('{"phi": "cos", "w": "one", "N": 3}\n')
    for check, s in (("concentration", "7/24"), ("moments", "1/4")):
        default, given = tmp_path / check / "default", tmp_path / check / "given"
        assert run_cli("riesz", "--spec", spec, "--check", check, "--out", default) == 0
        assert run_cli("riesz", "--spec", spec, "--check", check, "--s", s,
                       "--out", given) == 0
        names = sorted(p.name for p in default.iterdir())
        assert names == sorted(p.name for p in given.iterdir())
        for name in names:
            assert (default / name).read_bytes() == (given / name).read_bytes(), name


@pytest.mark.parametrize("command, flag, doc, field", [
    # principal's fixed parameters are no config keys
    ("principal", "--config", {"q": 4, "eps": 0.9, "u": "cos", "N": 3,
                               "gamma": 0.5}, "config"),
    # the Riesz product is always expanded exactly, on a fixed grid
    ("riesz", "--spec", {"phi": "cos", "w": "one", "N": 3, "mode": "exact"}, "mode"),
    ("riesz", "--spec", {"phi": "cos", "w": "one", "N": 3, "grid_bits": 20},
     "grid_bits"),
    ("riesz", "--spec", {"phi": "cos", "w": "one", "N": 3, "nuu": 9}, "nuu"),
    ("bernstein", "--config", {"space": "coins", "N": 4, "p_plus": "3/4",
                               "alphaz": [0.1]}, "alphaz"),
    ("bernstein", "--config", {"space": "riesz", "N": 2, "phi": "cos",
                               "mode": "sampled"}, "mode"),
], ids=["principal-gamma", "riesz-mode", "riesz-grid_bits", "riesz-nuu",
        "coins-alphaz", "riesz-space-mode"])
def test_config_rejects_unread_keys(tmp_path, capsys, command, flag, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(doc, schema_version=4)))
    assert run_cli(command, flag, cfg, "--out", tmp_path / "out") == 2
    assert f"[{field}]" in capsys.readouterr().err


def test_principal_artifacts(tmp_path, small_window):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 4.0, "eps": 0.35, "u": "cos", "N": 2,
                               "mode": "empirical"}))
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
    assert [s["step_budget"] for s in stages] == ["0.25", "0.125"]
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
    stages = rep["descent_stages"]
    # the stages run in order, and only a gap stop ends the descent early;
    # a gap check before the first step can certify the start, which
    # leaves the single record {mu 1e-2, steps 0, stop gap}
    mus = [float(r["mu"]) for r in stages]
    assert mus == [1e-2, 1e-4, 1e-8][: len(mus)]
    assert all(r["stop"] in ("cap", "step", "stall", "gap") for r in stages)
    assert len(mus) == 3 or stages[-1]["stop"] == "gap"
    assert sum(r["steps"] for r in stages) == rep["iterations"]
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
    assert float(rep["obstruction_bound"]) >= float(rep["obstruction_bound_l2"]) > 0
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


def test_every_pipeline_has_a_subcommand():
    _, subparsers = _build_parser()
    assert set(_PIPELINES) <= set(subparsers)


def test_seed_flag_only_where_a_seed_is_drawn():
    _, subparsers = _build_parser()
    seeded = {name for name, sp in subparsers.items()
              if any(a.dest == "seed" for a in sp._actions)}
    assert seeded == {"demo-corollary", "run"}


def test_kahane_rejects_seed(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("kahane", "--a", "1/5", "--b", "2/5", "--delta", "1/8",
                "--seed", 1, "--out", tmp_path)
    assert exc.value.code == 2


def test_run_seed_for_unseeded_pipeline(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pipeline": "kahane", "a": "1/5", "b": "2/5",
                               "delta": "1/8", "out": str(tmp_path / "out")}))
    assert run_cli("run", cfg, "--seed", 1) == 2
    assert "[seed]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_fills_subcommand_defaults(tmp_path, monkeypatch):
    # a config with only the required keys runs with the subcommand's
    # defaults: kmax 200 and the output directory out/
    monkeypatch.chdir(tmp_path)
    assert run_cli("kahane", "--a", "1/5", "--b", "2/5", "--delta", "1/8",
                   "--out", "direct") == 0
    Path("cfg.json").write_text(json.dumps({"pipeline": "kahane", "a": "1/5",
                                            "b": "2/5", "delta": "1/8"}))
    assert run_cli("run", "cfg.json") == 0
    for name in ("measure.json", "report.csv"):
        assert Path("out", name).read_bytes() == Path("direct", name).read_bytes()
    assert len(read_csv(Path("out", "report.csv"))) == 200


@pytest.mark.parametrize("doc, field", [
    # a misspelled key is neither ignored nor a traceback
    ({"pipeline": "kahane", "a": "1/5", "b": "2/5", "delta": "1/8",
      "kmaxx": 6}, "kmaxx"),
    ({"pipeline": "extension-probe", "k": "K.json", "p": P43,
      "epsilon": 0.05, "d": 8}, "epsilon"),
    ({"pipeline": "probe", "k": "K.json", "p": P43, "d": 8}, "eps"),
    # a pipeline that draws no random number takes no seed
    ({"pipeline": "kahane", "a": "1/5", "b": "2/5", "delta": "1/8",
      "seed": 1}, "seed"),
    ({"pipeline": "bernstein", "config": {"space": "coins", "N": 4},
      "seed": 1}, "seed"),
])
def test_run_checks_config_keys(tmp_path, monkeypatch, capsys, doc, field):
    # a readable K.json, so that a probe config gets as far as its keys
    monkeypatch.chdir(tmp_path)
    Path("K.json").write_text(json.dumps(ArcSet([(1.0, 2.0)]).to_json_dict()))
    Path("cfg.json").write_text(json.dumps(dict(doc, out="out")))
    assert run_cli("run", "cfg.json") == 2
    assert f"[{field}]" in capsys.readouterr().err
    assert not Path("out").exists()


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


def test_certificate_exit_code(tmp_path, small_window):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 4.0, "eps": 0.01, "u": "one", "N": 2,
                               "mode": "theoretical"}))
    assert run_cli("principal", "--config", cfg, "--out", tmp_path) == 3


def test_resource_exit_code(tmp_path):
    art = tmp_path / "f.json"
    art.write_text(json.dumps(TrigPoly({0: 1.0, 1: -1.0}).to_json_dict()))
    assert run_cli("probe-cyclicity", "--f", art, "--p", 2,
                   "--dmax", 1 << 14, "--out", tmp_path) == 4


def test_non_finite_tail_exit_code(tmp_path):
    # a NaN tail constant once gave the window's norm as a zero-width row
    data = CoeffSeq(np.array([0.5, 1.0, 0.5]), 1, 1.0, 5.0).to_json_dict()
    for const in ("1", "nan"):
        art = tmp_path / f"f_{const}.json"
        art.write_text(json.dumps(dict(data, tail=dict(data["tail"], const=const))))
        code = run_cli("probe-cyclicity", "--f", art, "--p", 1.5, "--dmax", 1,
                       "--out", tmp_path / const)
        assert code == (0 if const == "1" else 2)


@pytest.mark.parametrize("argv, config, field", [
    (["helson", "--q", 4, "--stages", "x"], None, "stages"),
    (["kahane", "--a", "1/5", "--b", "2/5", "--delta", "1/8", "--kmax", "2.5"],
     None, "kmax"),
    (["construct-phi", "--q", "four", "--gamma", 0.5], None, "q"),
    # numbers that name no run: a kmax below 1 asks for no moment, and at
    # q = inf phi's closed-form A_q norm reads 0 ** 0
    (["kahane", "--a", "1/5", "--b", "2/5", "--delta", "1/8", "--kmax", -3],
     None, "kmax"),
    (["kahane", "--a", "1/5", "--b", "2/5", "--delta", "1/8", "--kmax", 0],
     None, "kmax"),
    (["construct-phi", "--q", "inf", "--gamma", 0.5], None, "q"),
    (["riesz", "--spec"], {"phi": "cos", "w": "one", "N": 3, "nu": "x"}, "nu"),
    (["bernstein", "--config"], {"space": "coins", "N": "x"}, "N"),
    (["bernstein", "--config"], {"space": "coins", "N": 4, "alphas": ["0.1"]},
     "alphas"),
    (["bernstein", "--config"], {"space": "coins", "N": 4, "alphas": 0.1},
     "alphas"),
    # a bool is no number, though Python counts True as 1
    (["bernstein", "--config"], {"space": "coins", "N": 4, "alphas": [True]},
     "alphas"),
], ids=["helson-stages", "kahane-kmax", "phi-q", "kahane-kmax-negative",
        "kahane-kmax-zero", "phi-q-inf", "riesz-nu", "coins-N",
        "alphas-string", "alphas-scalar", "alphas-bool"])
def test_bad_number_exits_2(tmp_path, capsys, argv, config, field):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + [cfg]
    assert run_cli(*argv, "--out", tmp_path / "out") == 2
    assert f"[{field}]" in capsys.readouterr().err


def test_env_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("MASTER_SEED", "-4")
    assert run_cli("construct-phi", "--q", 4, "--gamma", 0.5,
                   "--out", tmp_path) == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


# -- demo --------------------------------------------------------------------


def test_demo_corollary_seeded_reruns_identical(standard_runs, tmp_path):
    # the standard run `demo-corollary --seed 1` takes the subcommand's
    # defaults; the rerun goes through a run config that spells them out,
    # q 4, p 4/3 and 2 stages
    a, b = standard_runs["demo-corollary"], tmp_path / "b"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pipeline": "demo-corollary", "q": 4, "p": P43,
                               "stages": 2, "seed": 1, "out": str(b)}))
    assert run_cli("run", cfg) == 0
    names = ("f_noncyclic.json", "g_cyclic.json", "zero_set.json",
             "certificates.json", "report.csv")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name

    certs = read_json(a / "certificates.json")
    assert float(certs["obstruction_bound"]) > 0
    assert certs["obstruction_rigour"].startswith("structural + enclosure")
    assert float(certs["delta_hat"]) > 0
    g_doc = read_json(a / "g_cyclic.json")
    probe = g_doc["probe"]
    lo, hi = float(probe["b_norm_lo"]), float(probe["b_norm_hi"])
    # Newton on the KKT system certifies the start, inside the bracket
    # [21.421958440921731, 21.422125398596716] that the descent alone
    # reached after 2 228 steps
    assert lo <= hi and hi - lo <= 1e-12 * lo
    assert 21.421958440921731 <= hi <= 21.422125398596716
    assert probe["descent_stages"] == [{"mu": "0.01", "steps": 0, "stop": "gap"}]
    assert probe["iterations"] == 0
    profile = g_doc["deficit_profile"]
    his = [float(r["value"]["hi"]) for r in profile]
    assert his == sorted(his, reverse=True)
    # each row is [dual, primal] with a relative gap of at most 1e-5
    for row in profile:
        lo, hi = float(row["value"]["lo"]), float(row["value"]["hi"])
        assert lo <= hi and hi - lo <= 1e-5 * lo, row
    assert set(g_doc["deficit_rigour"]) == {"lo", "hi"}
    zeros = read_json(a / "zero_set.json")
    assert float(zeros["g_at_skeleton_max"]) < 1e-9
    assert float(zeros["g_off_K_grid_min"]) > 0
    assert float(zeros["witness_on_K_exact_max"]) == 0.0


@pytest.mark.parametrize(
    "x,text", [(Fraction(-7, 3), "-7/3"), (Fraction(5), "5"), (Fraction(0), "0"),
               (0.1, "0.10000000000000001"), (True, "true")]
)
def test_fraction_format(x, text):
    # text is the CSV cell; JSON holds it as a string, except that a bool
    # stays a JSON boolean
    assert json_text(x) == (text if isinstance(x, bool) else json.dumps(text))
    assert _csv_cell(x) == text
    if isinstance(x, bool):
        return
    exact = isinstance(x, Fraction)
    poly = TrigPoly({1: QComplex(x, 1) if exact else complex(x, 1)})
    data = json.loads(json.dumps(poly.to_json_dict()))
    assert data["coeffs"][0]["re"] == text
    back = TrigPoly.from_json_dict(data)
    assert back.exact == exact and back == poly


# -- the artifact writer -----------------------------------------------------


def jsonable(obj):
    """The payload as JSON values: the writer's conversions spelled out."""
    if isinstance(obj, (float, np.floating, Fraction)) and not isinstance(obj, bool):
        return f17(obj)
    if isinstance(obj, complex):
        return {"re": f17(obj.real), "im": f17(obj.imag)}
    if isinstance(obj, Interval):
        return {"lo": f17(obj.lo), "hi": f17(obj.hi)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonable(v) for v in obj]
    return obj


def dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


KEYS = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["n", "re", "im", "a", "b", "%s", "100%", 'q"uote', "back\\slash", "tab\t", "\u00e9t\u00e9",
     "\U0001f600", "\x00"])
SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.fractions(max_denominator=10**6) | KEYS)
ROW_KEYS = st.lists(KEYS, min_size=1, max_size=4, unique=True)


@st.composite
def record_lists(draw):
    """Lists of flat records with one key set, now and then spoiled by a
    record with other keys or a nested value."""
    keys = draw(ROW_KEYS)
    rows = draw(st.lists(st.fixed_dictionaries({k: SCALARS for k in keys}),
                         min_size=1, max_size=5))
    spoil = draw(st.sampled_from(["none", "keys", "nested", "scalar"]))
    if spoil == "keys":
        rows.append({k + "x": 0 for k in keys})
    elif spoil == "nested":
        rows[-1] = dict(rows[-1], **{keys[0]: [1, {"a": 2.5}]})
    elif spoil == "scalar":
        rows.append(7)
    return rows


PAYLOADS = st.recursive(
    SCALARS | record_lists() | st.just([]) | st.just({}),
    lambda inner: (st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4)
                   | st.tuples(inner, inner)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_matches_json_dumps(payload):
    text = json_text(payload)
    assert text == dumps(jsonable(payload))
    assert text == dumps(json.loads(text))


def test_writer_converts_like_artifacts(tmp_path):
    payload = {
        "complex": 1.5 - 2j,
        "np": [np.float64(0.1), np.int64(3), np.complex128(1j), np.arange(3)],
        "interval": Interval(0.25, 0.5),
        "array": np.array([[0.5, 1.0], [2.0, 3.0]]),
        "fraction": Fraction(-7, 3),
        "rows": [{"n": n, "re": 0.5 * n, "im": Fraction(n, 3)} for n in range(-3, 4)],
        3: "int key",
        "mixed_key_rows": [{1: "a", "b": 2.5}, {1: "c", "b": 3}],
        "empty": {"list": [], "dict": {}, "tuple": ()},
    }
    _write_json(tmp_path, "doc.json", payload)
    text = (tmp_path / "doc.json").read_text()
    assert text == dumps(jsonable(dict(payload, schema_version=4))) + "\n"
    assert text == dumps(json.loads(text)) + "\n"


def test_writer_rejects_unknown_types(tmp_path):
    for bad in (np.bool_(True), QComplex(1, 2), object()):
        with pytest.raises(trigcert.PreconditionError, match="cannot serialize"):
            _write_json(tmp_path, "bad.json", {"x": [bad]})


def test_principal_n3_artifacts_are_json_dumps_text(standard_runs):
    out = standard_runs["principal-n3"]
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == ["K.json", "P.json", "certificates.json", "f.json"]
    for name in names:
        text = (out / name).read_text()
        assert text == dumps(json.loads(text)) + "\n", name
