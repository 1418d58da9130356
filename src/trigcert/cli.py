"""Command line front end: subcommand dispatch, deterministic artifacts.

Every subcommand writes versioned JSON (schema_version 1) and CSV into an
output directory.  Scalars are serialized as strings: floats with 17
significant digits, rationals as "p/q", so a rerun with the same inputs
and seed reproduces the files byte for byte.  Exit codes: 2 for
precondition and schema violations, 3 for certificate failures, 4 for
resource budgets.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .concentration import DiscreteProbSpace, bernstein_battery
from .cyclicity import (
    cyclicity_profile,
    multiplier_deficit,
    smooth_noncyclic_witness,
    witness_values,
)
from .errors import CertificateError, PreconditionError, ResourceError
from .gridcert import ArcSet
from .helson import extension_probe, helson_certificate, run_stages
from .kahane import build_rho
from .principal import PrincipalConfig, run_principal
from .riesz import (
    RieszSpec,
    choose_nu,
    grid_space,
    l2_concentration_check,
    verify_moment_formula,
)
from .rudin_shapiro import build_phi
from .trigpoly import TWO_PI, CoeffSeq, Interval, TrigPoly, f17

SCHEMA_VERSION = 1


# -- serialization -------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return f17(obj)
    if isinstance(obj, Fraction):
        return (f"{obj.numerator}/{obj.denominator}"
                if obj.denominator != 1 else str(obj.numerator))
    if isinstance(obj, complex):
        return {"re": f17(obj.real), "im": f17(obj.imag)}
    if isinstance(obj, Interval):
        return {"lo": f17(obj.lo), "hi": f17(obj.hi)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.complexfloating):
        return _jsonable(complex(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    raise PreconditionError(f"cannot serialize {type(obj).__name__}")


def _write_json(out: Path, name: str, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2)
    (out / name).write_text(text + "\n")


def _csv_cell(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f17(v)
    if isinstance(v, Fraction):
        return _jsonable(v)
    return v


def _write_csv(out: Path, name: str, header, rows) -> None:
    with (out / name).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _load_json(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise PreconditionError(f"no such file: {path}", field=str(path))
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"invalid JSON in {path}: {exc}", field=str(path))


def _load_seq(data: dict) -> CoeffSeq:
    """Coefficient artifact as a CoeffSeq; plain polynomial artifacts
    (window narrower than the degree) go through TrigPoly."""
    try:
        return CoeffSeq.from_json_dict(data)
    except PreconditionError:
        return TrigPoly.from_json_dict(data).as_coeffseq()


def _poly_arg(value) -> TrigPoly:
    named = {
        "one": TrigPoly.const(1),
        "cos": TrigPoly.cosine(1),
        "sin": TrigPoly.sine(1),
    }
    if isinstance(value, str):
        if value not in named:
            raise PreconditionError(f"unknown polynomial name {value!r}", field="u")
        return named[value]
    return TrigPoly.from_json_dict(value)


def _rational(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise PreconditionError(f"not a rational: {text!r}")


# -- environment ---------------------------------------------------------------


def master_seed(cfg: dict) -> int:
    """--seed wins over MASTER_SEED; both must be unsigned 64-bit."""
    raw = cfg.get("seed")
    if raw is None:
        raw = os.environ.get("MASTER_SEED", "0")
    try:
        seed = int(raw)
    except (TypeError, ValueError):
        raise PreconditionError(f"seed must be an integer: {raw!r}", field="seed")
    if not 0 <= seed < 1 << 64:
        raise PreconditionError("seed out of unsigned 64-bit range", field="seed")
    return seed


def _validate_env() -> None:
    if "MASTER_SEED" in os.environ:
        master_seed({})


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("out") or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommand cores ------------------------------------------------------------


def _do_phi(cfg: dict) -> str:
    out = _out_dir(cfg)
    bundle = build_phi(float(cfg["q"]), float(cfg["gamma"]))
    _write_json(out, "phi.json", bundle.to_json_dict())
    return f"phi: k={bundle.k} A_q={bundle.a_norm:.6g} -> {out / 'phi.json'}"


def _do_kahane(cfg: dict) -> str:
    out = _out_dir(cfg)
    a, b = _rational(cfg["a"]), _rational(cfg["b"])
    kmax = int(cfg.get("kmax", 200))
    rho = build_rho(a, b, _rational(cfg["delta"]))
    _write_json(out, "measure.json", {
        "measure": rho.to_json_dict(),
        "tv": float(rho.total_variation()),
        "tv_bound": float(rho.tv_bound()),
        "exact_zero_moments": int(rho.n - 1),
    })
    rows = [(k, f17(abs(float(rho.moment(k))))) for k in range(1, kmax + 1)]
    _write_csv(out, "report.csv", ("k", "moment_abs"), rows)
    return f"kahane: n={rho.n} tv={float(rho.total_variation()):.6g} -> {out}"


def _space_from_config(cfg: dict):
    kind = cfg.get("space", "coins")
    if kind == "coins":
        space, xs = DiscreteProbSpace.coin_product(
            _rational(cfg.get("p_plus", "3/4")), int(cfg["N"]))
        return space, xs
    if kind == "riesz":
        spec = _riesz_spec(cfg)
        space, xs, _ = grid_space(spec, _rational(cfg.get("s", "1/4")))
        return space, xs
    raise PreconditionError(f"unknown space kind {kind!r}", field="space")


def _do_bernstein(cfg: dict) -> str:
    out = _out_dir(cfg)
    sub = cfg.get("config")
    sub = _load_json(sub) if isinstance(sub, (str, Path)) else (sub or {})
    space, xs = _space_from_config(sub)
    battery = bernstein_battery(space, xs, alphas=sub.get("alphas"),
                                seed=master_seed(cfg))
    rows = [(r["alpha"], r["tail"], r["bound"]) for r in battery["rows"]]
    _write_csv(out, "report.csv", ("alpha", "tail", "bound"), rows)
    _write_json(out, "battery.json", {
        "N": battery["N"],
        "mu": battery["mu"],
        "deviation": battery["deviation"],
        "exhaustive": battery["exhaustive"],
        "violations": sum(1 for r in battery["rows"] if r["tail"] > r["bound"]),
    })
    return f"bernstein: N={battery['N']} rows={len(rows)} -> {out / 'report.csv'}"


def _riesz_spec(cfg: dict) -> RieszSpec:
    phi = _poly_arg(cfg.get("phi", "cos"))
    w = _poly_arg(cfg.get("w", "one"))
    N = int(cfg["N"])
    nu = int(cfg["nu"]) if "nu" in cfg else choose_nu(phi, w, N)
    return RieszSpec(phi, w, N, nu, cfg.get("mode", "exact"))


def _do_riesz(cfg: dict) -> str:
    out = _out_dir(cfg)
    sub = cfg.get("spec")
    sub = _load_json(sub) if isinstance(sub, (str, Path)) else (sub or {})
    spec = _riesz_spec(sub)
    s = _rational(cfg.get("s", "1/4"))
    check = cfg.get("check", "moments")
    if check == "moments":
        rows = []
        worst = 0.0
        for mask in range(1, 1 << spec.N):
            A = [j + 1 for j in range(spec.N) if mask >> j & 1]
            lhs, rhs, err = verify_moment_formula(spec, s, A)
            worst = max(worst, err)
            rows.append(("+".join(map(str, A)), float(lhs), float(rhs), err))
        _write_csv(out, "report.csv", ("subset", "lhs", "rhs", "abs_err"), rows)
        return f"riesz moments: subsets={len(rows)} max_err={worst:.3g} -> {out}"
    if check == "concentration":
        rep = l2_concentration_check(
            spec, s,
            c1=float(sub.get("c1", 2e-5)),
            mode=sub.get("conc_mode", "theoretical"),
            grid_bits=int(sub.get("grid_bits", 22)),
        )
        _write_csv(out, "report.csv",
                   ("lhs", "rhs", "holds", "mode", "method", "resolution"),
                   [(rep.lhs, rep.rhs, rep.holds, rep.mode, rep.method,
                     rep.resolution)])
        _write_json(out, "concentration.json", dataclasses.asdict(rep))
        return f"riesz concentration: holds={rep.holds} -> {out}"
    raise PreconditionError(f"unknown check {check!r}", field="check")


def _do_principal(cfg: dict) -> str:
    out = _out_dir(cfg)
    sub = cfg.get("config")
    sub = _load_json(sub) if isinstance(sub, (str, Path)) else dict(sub or {})
    sub.pop("schema_version", None)
    if "q" not in sub or "eps" not in sub:
        raise PreconditionError("principal config needs q and eps", field="config")
    sub["u"] = _poly_arg(sub.get("u", "cos"))
    try:
        pc = PrincipalConfig(**sub)
    except TypeError as exc:
        raise PreconditionError(f"bad principal config: {exc}", field="config")
    res = run_principal(pc)
    _write_json(out, "K.json", res.K.to_json_dict())
    _write_json(out, "f.json", res.f.to_json_dict(window_out=4096))
    _write_json(out, "P.json", res.P.to_json_dict())
    _write_json(out, "certificates.json", {
        "certificates": res.certificates,
        "achieved_eps": res.achieved_eps,
        "eta": res.eta,
        "lam": res.lam.to_json_dict() if res.lam is not None else None,
        "w_cert": res.w_cert.to_json_dict() if res.w_cert is not None else None,
    })
    _write_csv(out, "report.csv", ("key", "value"),
               sorted((k, v) for k, v in res.certificates.items()
                      if isinstance(v, (int, float, str, bool))))
    return (f"principal: achieved_eps={res.achieved_eps:.6g} "
            f"K_measure={res.K.measure:.6g} -> {out}")


def _do_helson(cfg: dict) -> str:
    out = _out_dir(cfg)
    q = float(cfg["q"])
    J = int(cfg["stages"])
    stages, S, K, certs = run_stages(q, J)
    _write_json(out, "K.json", K.to_json_dict() if K else {"arcs": []})
    # full window: downstream certificates (witness support check) need the
    # small analytic tail, not a truncation tail
    _write_json(out, "S.json", S.to_json_dict())
    _write_json(out, "stages.json", {"stages": [
        {
            "j": r.j,
            "eps": r.eps,
            "achieved_eps": r.achieved_eps,
            "step_norm": r.step_norm,
            "step_budget": r.step_budget,
            "within_budget": r.within_budget,
            "K_measure": r.K.measure,
        } for r in stages
    ]})
    _write_json(out, "certificates.json", certs)
    _write_csv(out, "report.csv",
               ("j", "eps", "step_hi", "budget", "within_budget"),
               [(r.j, r.eps, r.step_norm.hi, r.step_budget, r.within_budget)
                for r in stages])
    return (f"helson: J={J} final={certs['final_norm'].hi:.6g} "
            f"K_measure={certs['k_measure']:.6g} -> {out}")


def _skeleton(K: ArcSet) -> np.ndarray:
    return np.array([(a + b) / 2.0 for a, b in K.components()])


def _do_probe(cfg: dict) -> str:
    out = _out_dir(cfg)
    K = ArcSet.from_json_dict(_load_json(cfg["k"]))
    p, eps, d = float(cfg["p"]), float(cfg["eps"]), int(cfg["d"])
    dh = cfg.get("delta_hat")
    pts = _skeleton(K)
    f, rep = extension_probe(K, pts, np.ones(len(pts)), p, eps, d,
                             delta_hat=float(dh) if dh is not None else None)
    _write_json(out, "f.json", f.to_json_dict())
    rep = dict(rep)
    rep.pop("objective_trace", None)
    rep["points"] = pts
    _write_json(out, "probe.json", rep)
    return f"probe: a_p={rep['a_p_norm']:.6g} b={rep['b_norm']:.6g} -> {out}"


def _do_probe_cyclicity(cfg: dict) -> str:
    out = _out_dir(cfg)
    f = _load_seq(_load_json(cfg["f"]))
    p, dmax = float(cfg["p"]), int(cfg["dmax"])
    rows = cyclicity_profile(f, p, dmax)
    _write_csv(out, "profile.csv", ("d", "lo", "hi"),
               [(d, v.lo, v.hi) for d, v in rows])
    value, P = multiplier_deficit(f, p, dmax)
    _write_json(out, "multiplier.json",
                {"d": dmax, "p": p, "value": value, "P": P.to_json_dict()})
    return f"profile: deficit({dmax})={rows[-1][1].hi:.6g} -> {out}"


def _do_witness(cfg: dict) -> str:
    out = _out_dir(cfg)
    K = ArcSet.from_json_dict(_load_json(cfg["k"]))
    S = _load_seq(_load_json(cfg["s"]))
    f, rep = smooth_noncyclic_witness(K, S, float(cfg.get("eps_smooth", 1.0)),
                                      p=float(cfg["p"]))
    _write_json(out, "witness.json", f.to_json_dict(window_out=2048))
    _write_json(out, "report.json", rep)
    return (f"witness: ladder_positive={rep['ladder_positive']} "
            f"tail_const={rep['tail_const']:.6g} -> {out}")


def _do_demo(cfg: dict) -> str:
    out = _out_dir(cfg)
    q = float(cfg.get("q", 4.0))
    p = float(cfg.get("p", 4.0 / 3.0))
    J = int(cfg.get("stages", 2))
    seed = master_seed(cfg)

    stages, S, K, certs = run_stages(q, J)
    delta_hat, worst = helson_certificate(K, [r.P for r in stages],
                                          trials=100, M=256, seed=seed)

    pts = _skeleton(K)
    fprobe, probe_rep = extension_probe(K, pts, np.ones(len(pts)), p, 0.02,
                                        2048, delta_hat=delta_hat)
    g = TrigPoly.const(1.0) - fprobe
    gseq = g.as_coeffseq()
    profile = cyclicity_profile(gseq, p, 64, ds=(0, 1, 2, 4, 8, 16, 32, 64))

    fw, wrep = smooth_noncyclic_witness(K, S, 1.0, p=p)

    # shared zero set: the witness vanishes on all of K by construction;
    # g vanishes at the probe skeleton; no further zeros of g were found
    # off K on the scan grid
    t = np.arange(1 << 14) * (TWO_PI / (1 << 14))
    inside = K.mask(t)
    g_abs = np.abs(g.eval_at(t))
    g_at_skeleton = float(np.abs(g.eval_at(pts)).max())
    zero_report = {
        "Z": K.to_json_dict(),
        "skeleton": pts,
        "witness_on_K_exact_max": float(
            np.abs(witness_values(K, t[inside])).max()) if inside.any() else 0.0,
        "g_at_skeleton_max": g_at_skeleton,
        "g_off_K_grid_min": float(g_abs[~inside].min()),
        "g_on_K_grid_max": float(g_abs[inside].max()),
        "scan_points": int(len(t)),
    }

    deficit_ok = any(v.hi < 0.5 for _, v in profile)
    _write_json(out, "f_noncyclic.json", {
        "f": fw.to_json_dict(window_out=2048),
        "report": wrep,
    })
    _write_json(out, "g_cyclic.json", {
        "g": gseq.to_json_dict(),
        "probe": {k: v for k, v in probe_rep.items() if k != "objective_trace"},
        "deficit_profile": [{"d": d, "value": v} for d, v in profile],
    })
    _write_json(out, "zero_set.json", zero_report)
    _write_json(out, "certificates.json", {
        "stage_certificates": certs,
        "delta_hat": delta_hat,
        "worst_measure": worst,
        "obstruction_positive": wrep["ladder_positive"],
        "deficit_below_half": deficit_ok,
        "deficit_best": min(v.hi for _, v in profile),
    })
    _write_csv(out, "report.csv", ("key", "value"), [
        ("stages", J),
        ("K_measure", certs["k_measure"]),
        ("final_norm_hi", certs["final_norm"].hi),
        ("outside_max", certs["outside_max"]),
        ("delta_hat", delta_hat),
        ("obstruction_positive", wrep["ladder_positive"]),
        ("deficit_best", min(v.hi for _, v in profile)),
        ("g_at_skeleton_max", g_at_skeleton),
    ])
    return (f"demo: obstruction_positive={wrep['ladder_positive']} "
            f"deficit_best={min(v.hi for _, v in profile):.6g} "
            f"delta_hat={delta_hat:.6g} -> {out}")


_PIPELINES = {
    "phi": _do_phi,
    "construct-phi": _do_phi,
    "kahane": _do_kahane,
    "bernstein": _do_bernstein,
    "riesz": _do_riesz,
    "principal": _do_principal,
    "helson": _do_helson,
    "probe": _do_probe,
    "extension-probe": _do_probe,
    "probe-cyclicity": _do_probe_cyclicity,
    "witness": _do_witness,
    "demo-corollary": _do_demo,
}


def _do_run(cfg: dict) -> str:
    doc = _load_json(cfg["config"])
    name = doc.pop("pipeline", None)
    if name not in _PIPELINES:
        raise PreconditionError(f"unknown pipeline {name!r}", field="pipeline")
    doc.pop("schema_version", None)
    if "out" not in doc and cfg.get("out"):
        doc["out"] = cfg["out"]
    if cfg.get("seed") is not None:
        doc["seed"] = cfg["seed"]
    return _PIPELINES[name](doc)


# -- argument parsing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trigcert",
        description="certified constructions on the circle: flat polynomials, "
                    "interpolation measures, Riesz products, thin carriers, "
                    "cyclicity probes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        sp = sub.add_parser(name)
        for flag, kw in flags.items():
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag, **kw)
        sp.add_argument("--out", default="out")
        sp.add_argument("--seed", default=None)
        return sp

    add("construct-phi", q={"required": True}, gamma={"required": True})
    add("kahane", a={"required": True}, b={"required": True},
        delta={"required": True}, kmax={"default": "200"})
    add("bernstein", config={"required": True})
    add("riesz", spec={"required": True}, s={"default": "1/4"},
        check={"choices": ["moments", "concentration"], "default": "moments"})
    add("principal", config={"required": True})
    add("helson", q={"required": True}, stages={"required": True})
    add("extension-probe", k={"required": True}, p={"required": True},
        eps={"required": True}, d={"required": True})
    add("probe-cyclicity", f={"required": True}, p={"required": True},
        dmax={"required": True})
    add("witness", k={"required": True}, s={"required": True},
        p={"required": True}, eps_smooth={"default": "1.0"})
    add("demo-corollary", q={"default": "4"}, p={"default": "1.3333333333333333"},
        stages={"default": "2"})
    runp = sub.add_parser("run")
    runp.add_argument("config")
    runp.add_argument("--out", default=None)
    runp.add_argument("--seed", default=None)
    return ap


_COMMANDS = dict(_PIPELINES)
_COMMANDS["run"] = _do_run


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = {k: v for k, v in vars(args).items() if k != "command" and v is not None}
    try:
        _validate_env()
        summary = _COMMANDS[args.command](cfg)
    except PreconditionError as exc:
        field = f" [{exc.field}]" if getattr(exc, "field", None) else ""
        print(f"precondition failed{field}: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failed: {exc.name}: lhs={exc.lhs!r} rhs={exc.rhs!r}: "
              f"{exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 4
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
