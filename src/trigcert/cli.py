"""Command line front end: subcommand dispatch, deterministic artifacts.

Every subcommand writes versioned JSON (schema_version 4) and CSV into an
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
    DEFICIT_RIGOUR,
    cyclicity_profile,
    multiplier_deficit,
    smooth_noncyclic_witness,
    witness_values,
)
from .errors import CertificateError, PreconditionError, ResourceError
from .gridcert import ArcSet, uniform_grid
from .helson import extension_probe, helson_certificate, run_stages
from .kahane import build_rho
from .principal import PrincipalConfig, run_principal
from .riesz import (
    DEFAULT_C1_THEORETICAL,
    RieszSpec,
    choose_nu,
    grid_space,
    l2_concentration_check,
    verify_moment_formula,
)
from .rudin_shapiro import build_phi
from .trigpoly import CoeffSeq, Interval, TrigPoly, f17

SCHEMA_VERSION = 4


# -- serialization -------------------------------------------------------------


_ENCODE_STR = json.encoder.encode_basestring_ascii


def _scalar_text(obj):
    """JSON text of a scalar artifact value (a float or a Fraction as an
    f17 string), or None for anything else."""
    if isinstance(obj, str):
        return _ENCODE_STR(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating, Fraction)):
        return f'"{f17(obj)}"'
    return None


def _as_container(obj):
    """The dict or list that obj is written as."""
    if isinstance(obj, (dict, list)):
        return obj
    if isinstance(obj, (complex, np.complexfloating)):
        obj = complex(obj)
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Interval):
        return {"lo": obj.lo, "hi": obj.hi}
    if isinstance(obj, (tuple, np.ndarray)):
        return list(obj)
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise PreconditionError(f"cannot serialize {type(obj).__name__}")


def _encode(obj, chunks: list, nl: str) -> None:
    """Append to chunks the text json.dumps(..., sort_keys=True, indent=2)
    gives obj at the nesting whose line break and indent is nl, with
    floats and Fractions as f17 strings, complex numbers as {re, im},
    Intervals as {lo, hi}, tuples and arrays as lists and dataclasses as
    dicts."""
    text = _scalar_text(obj)
    if text is not None:
        chunks.append(text)
        return
    obj = _as_container(obj)
    if not obj:
        chunks.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = nl + "  "
    if isinstance(obj, dict):
        chunks.append("{")
        sep = inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            chunks.append(f"{sep}{_ENCODE_STR(key)}: ")
            _encode(value, chunks, inner)
            sep = "," + inner
        chunks.append(nl + "}")
        return
    chunks.append("[")
    rows = _flat_rows(obj, inner)
    if rows is not None:
        chunks.append(inner)
        chunks.append(("," + inner).join(rows))
    else:
        sep = inner
        for value in obj:
            chunks.append(sep)
            _encode(value, chunks, inner)
            sep = "," + inner
    chunks.append(nl + "]")


def _flat_rows(items: list, nl: str):
    """The texts of items, each at the nesting nl, when they are nonempty
    dicts with one key set and scalar values, like the coefficient rows:
    one %-template fills each.  None otherwise."""
    first = items[0]
    if type(first) is not dict or not first or not all(type(k) is str for k in first):
        return None
    keys = sorted(first)
    inner = nl + "  "
    template = "{" + ",".join(
        inner + _ENCODE_STR(k).replace("%", "%%") + ": %s" for k in keys) + nl + "}"
    key_set = first.keys()
    rows = []
    for item in items:
        if type(item) is not dict or item.keys() != key_set:
            return None
        texts = tuple(_scalar_text(item[k]) for k in keys)
        if None in texts:
            return None
        rows.append(template % texts)
    return rows


def _write_json(out: Path, name: str, payload: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    chunks = []
    _encode(doc, chunks, "\n")
    chunks.append("\n")
    with (out / name).open("w") as fh:
        fh.writelines(chunks)


def _csv_cell(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, Fraction)):
        return f17(v)
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


def _sub_config(value) -> dict:
    """A pipeline's config, given as a file name or inline in a run
    config, without its schema_version."""
    doc = _load_json(value) if isinstance(value, (str, Path)) else value
    if not isinstance(doc, dict):
        raise PreconditionError("a config must be a JSON object", field="config")
    doc = dict(doc)
    doc.pop("schema_version", None)
    return doc


def _check_keys(doc: dict, known, what: str) -> None:
    """A key that its reader does not read is an error, not ignored."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise PreconditionError(f"unknown {what} keys {unknown}", field=unknown[0])


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


def _number(cfg: dict, key: str, kind, default=None):
    """cfg[key], or default when the key is absent, read from its text as
    kind (int, float or Fraction); a value that does not read as one, a
    bool or a list say, fails naming the key."""
    raw = cfg.get(key, default)
    try:
        return kind(str(raw))
    except (ValueError, ZeroDivisionError):
        what = {int: "an integer", float: "a number", Fraction: "a rational"}[kind]
        raise PreconditionError(f"not {what}: {raw!r}", field=key)


# -- environment ---------------------------------------------------------------


def master_seed(cfg: dict) -> int:
    """--seed wins over MASTER_SEED; both must be unsigned 64-bit."""
    if cfg.get("seed") is None:
        cfg = {"seed": os.environ.get("MASTER_SEED", "0")}
    seed = _number(cfg, "seed", int)
    if not 0 <= seed < 1 << 64:
        raise PreconditionError("seed out of unsigned 64-bit range", field="seed")
    return seed


def _validate_env() -> None:
    if "MASTER_SEED" in os.environ:
        master_seed({})


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommand cores ------------------------------------------------------------


def _do_phi(cfg: dict) -> str:
    out = _out_dir(cfg)
    bundle = build_phi(_number(cfg, "q", float), _number(cfg, "gamma", float))
    _write_json(out, "phi.json", bundle.to_json_dict())
    return f"phi: k={bundle.k} A_q={bundle.a_norm:.6g} -> {out / 'phi.json'}"


def _do_kahane(cfg: dict) -> str:
    out = _out_dir(cfg)
    a, b = _number(cfg, "a", Fraction), _number(cfg, "b", Fraction)
    kmax = _number(cfg, "kmax", int)
    rho = build_rho(a, b, _number(cfg, "delta", Fraction))
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
        _check_keys(cfg, {"space", "alphas", "N", "p_plus"}, "coins config")
        return DiscreteProbSpace.coin_product(
            _number(cfg, "p_plus", Fraction, "3/4"), _number(cfg, "N", int))
    if kind == "riesz":
        _check_keys(cfg, _RIESZ_SPEC_KEYS | {"space", "alphas", "s"},
                    "riesz space config")
        spec = _riesz_spec(cfg)
        space, xs, _ = grid_space(spec, _number(cfg, "s", Fraction, "1/4"))
        return space, xs
    raise PreconditionError(f"unknown space kind {kind!r}", field="space")


def _do_bernstein(cfg: dict) -> str:
    out = _out_dir(cfg)
    sub = _sub_config(cfg["config"])
    alphas = sub.get("alphas")
    # type() and not isinstance(), which counts a bool as an int
    if alphas is not None and not (
            isinstance(alphas, list) and all(type(a) in (int, float) for a in alphas)):
        raise PreconditionError(f"not a list of numbers: {alphas!r}", field="alphas")
    space, xs = _space_from_config(sub)
    battery = bernstein_battery(space, xs, alphas=alphas)
    rows = [(r["alpha"], r["tail"], r["bound"]) for r in battery["rows"]]
    _write_csv(out, "report.csv", ("alpha", "tail", "bound"), rows)
    _write_json(out, "battery.json", {
        "N": battery["N"],
        "mu": battery["mu"],
        "deviation": battery["deviation"],
        "exhaustive": True,  # always, and dropped at the next schema
        "violations": sum(1 for r in battery["rows"] if r["tail"] > r["bound"]),
    })
    return f"bernstein: N={battery['N']} rows={len(rows)} -> {out / 'report.csv'}"


_RIESZ_SPEC_KEYS = {"phi", "w", "N", "nu"}


def _riesz_spec(cfg: dict) -> RieszSpec:
    phi = _poly_arg(cfg.get("phi", "cos"))
    w = _poly_arg(cfg.get("w", "one"))
    N = _number(cfg, "N", int)
    nu = _number(cfg, "nu", int) if "nu" in cfg else choose_nu(phi, w, N)
    return RieszSpec(phi, w, N, nu)


def _do_riesz(cfg: dict) -> str:
    out = _out_dir(cfg)
    sub = _sub_config(cfg["spec"])
    _check_keys(sub, _RIESZ_SPEC_KEYS | {"c1", "conc_mode"}, "riesz spec")
    spec = _riesz_spec(sub)
    check = cfg["check"]
    # the moment check takes any s in (0, 1), the concentration check only
    # s inside (1/4, 1/3), whose midpoint is 7/24
    s = _number(cfg, "s", Fraction, "1/4" if check == "moments" else "7/24")
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
            c1=_number(sub, "c1", float, DEFAULT_C1_THEORETICAL),
            mode=sub.get("conc_mode", "theoretical"),
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
    sub = _sub_config(cfg["config"])
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
        "w_cert": res.w_cert,
    })
    _write_csv(out, "report.csv", ("key", "value"),
               sorted((k, v) for k, v in res.certificates.items()
                      if isinstance(v, (int, float, str, bool))))
    return (f"principal: achieved_eps={res.achieved_eps:.6g} "
            f"K_measure={res.K.measure:.6g} -> {out}")


def _do_helson(cfg: dict) -> str:
    out = _out_dir(cfg)
    q = _number(cfg, "q", float)
    J = _number(cfg, "stages", int)
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
    comps = K.components()
    return (comps[:, 0] + comps[:, 1]) / 2.0


def _do_probe(cfg: dict) -> str:
    out = _out_dir(cfg)
    K = ArcSet.from_json_dict(_load_json(cfg["k"]))
    p, eps = _number(cfg, "p", float), _number(cfg, "eps", float)
    d = _number(cfg, "d", int)
    pts = _skeleton(K)
    f, rep = extension_probe(K, pts, np.ones(len(pts)), p, eps, d)
    _write_json(out, "f.json", f.to_json_dict())
    rep["points"] = pts
    _write_json(out, "probe.json", rep)
    return f"probe: a_p={rep['a_p_norm']:.6g} b={rep['b_norm']:.6g} -> {out}"


def _do_probe_cyclicity(cfg: dict) -> str:
    out = _out_dir(cfg)
    f = CoeffSeq.from_json_dict(_load_json(cfg["f"]))
    p, dmax = _number(cfg, "p", float), _number(cfg, "dmax", int)
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
    S = CoeffSeq.from_json_dict(_load_json(cfg["s"]))
    f, rep = smooth_noncyclic_witness(K, S, _number(cfg, "eps_smooth", float),
                                      p=_number(cfg, "p", float))
    _write_json(out, "witness.json", f.to_json_dict())
    _write_json(out, "report.json", rep)
    return (f"witness: obstruction_bound={rep['obstruction_bound']:.6g} "
            f"tail_const={rep['tail_const']:.6g} -> {out}")


def _do_demo(cfg: dict) -> str:
    out = _out_dir(cfg)
    q = _number(cfg, "q", float)
    p = _number(cfg, "p", float)
    J = _number(cfg, "stages", int)
    seed = master_seed(cfg)

    _, S, K, certs = run_stages(q, J)
    delta_hat = helson_certificate(K, trials=100, M=256, seed=seed)

    pts = _skeleton(K)
    fprobe, probe_rep = extension_probe(K, pts, np.ones(len(pts)), p, 0.02, 2048)
    g = TrigPoly.const(1.0) - fprobe
    gseq = g.as_coeffseq()
    profile = cyclicity_profile(gseq, p, 64, ds=(0, 1, 2, 4, 8, 16, 32, 64))
    deficit_best = profile[-1][1].hi  # the rows' hi is a running minimum

    fw, wrep = smooth_noncyclic_witness(K, S, 1.0, p=p)

    # shared zero set: the witness vanishes on all of K by construction;
    # g vanishes at the probe skeleton; no further zeros of g were found
    # off K on the scan grid
    t = uniform_grid(1 << 14)
    inside = K.grid_mask(len(t))
    g_abs = np.abs(g.eval_grid(len(t)))
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

    _write_json(out, "f_noncyclic.json", {
        "f": fw.to_json_dict(),
        "report": wrep,
    })
    _write_json(out, "g_cyclic.json", {
        "g": gseq.to_json_dict(),
        "probe": probe_rep,
        "deficit_profile": [{"d": d, "value": v} for d, v in profile],
        "deficit_rigour": DEFICIT_RIGOUR,
    })
    _write_json(out, "zero_set.json", zero_report)
    _write_json(out, "certificates.json", {
        "stage_certificates": certs,
        "delta_hat": delta_hat,
        "obstruction_bound": wrep["obstruction_bound"],
        "obstruction_rigour": wrep["obstruction_rigour"],
        "deficit_best": deficit_best,
    })
    _write_csv(out, "report.csv", ("key", "value"), [
        ("stages", J),
        ("K_measure", certs["k_measure"]),
        ("final_norm_hi", certs["final_norm"].hi),
        ("outside_max", certs["outside_max"]),
        ("delta_hat", delta_hat),
        ("obstruction_bound", wrep["obstruction_bound"]),
        ("deficit_best", deficit_best),
        ("g_at_skeleton_max", g_at_skeleton),
    ])
    return (f"demo: obstruction_bound={wrep['obstruction_bound']:.6g} "
            f"deficit_best={deficit_best:.6g} "
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
    doc = _sub_config(cfg["config"])
    name = doc.pop("pipeline", None)
    if name not in _PIPELINES:
        raise PreconditionError(f"unknown pipeline {name!r}", field="pipeline")
    # run's --out and --seed fill what the config leaves out
    for key in ("out", "seed"):
        if key not in doc and cfg.get(key) is not None:
            doc[key] = cfg[key]
    # the config's keys are the flags of the pipeline's subcommand, and
    # the subcommand's defaults fill the flags it leaves out
    flags = [a for a in _build_parser()[1][name]._actions if a.dest != "help"]
    _check_keys(doc, {a.dest for a in flags}, f"{name} config")
    missing = [a.dest for a in flags if a.required and a.dest not in doc]
    if missing:
        raise PreconditionError(f"{name} config misses keys {missing}",
                                field=missing[0])
    for a in flags:
        if a.dest not in doc and a.default is not None:
            doc[a.dest] = a.default
    return _PIPELINES[name](doc)


# -- argument parsing ------------------------------------------------------------


def _build_parser():
    """The argument parser, and its subcommand parsers by name and alias."""
    ap = argparse.ArgumentParser(
        prog="trigcert",
        description="certified constructions on the circle: flat polynomials, "
                    "interpolation measures, Riesz products, thin carriers, "
                    "cyclicity probes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, aliases=(), **flags):
        sp = sub.add_parser(name, aliases=aliases)
        for flag, kw in flags.items():
            sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag, **kw)
        sp.add_argument("--out", default="out")
        return sp

    add("construct-phi", ["phi"], q={"required": True}, gamma={"required": True})
    add("kahane", a={"required": True}, b={"required": True},
        delta={"required": True}, kmax={"default": "200"})
    add("bernstein", config={"required": True})
    add("riesz", spec={"required": True}, s={},
        check={"choices": ["moments", "concentration"], "default": "moments"})
    add("principal", config={"required": True})
    add("helson", q={"required": True}, stages={"required": True})
    add("extension-probe", ["probe"], k={"required": True}, p={"required": True},
        eps={"required": True}, d={"required": True})
    add("probe-cyclicity", f={"required": True}, p={"required": True},
        dmax={"required": True})
    add("witness", k={"required": True}, s={"required": True},
        p={"required": True}, eps_smooth={"default": "1.0"})
    add("demo-corollary", q={"default": "4"}, p={"default": "1.3333333333333333"},
        stages={"default": "2"}, seed={})
    runp = sub.add_parser("run")
    runp.add_argument("config")
    runp.add_argument("--out", default=None)
    runp.add_argument("--seed", default=None)
    return ap, sub.choices


_COMMANDS = dict(_PIPELINES)
_COMMANDS["run"] = _do_run


def main(argv=None) -> int:
    args = _build_parser()[0].parse_args(argv)
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
