"""The benchmark's workloads: inputs, the CLI calls of one operation, and
the checks of each operation's artifacts against `oracles`.

An operation is a list of `trigcert` command lines run in-process through
`trigcert.cli.main`; it fails when a call exits non-zero or a check finds a
problem.  Every operation of a run is the same, on the same inputs.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

P_ARG = "1.3333333333333333"


class Workload:
    name = ""

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write the inputs that every operation of a run reads."""
        self.workdir = workdir
        self.seed = seed

    def commands(self, opdir: Path):
        raise NotImplementedError

    def check(self, opdir: Path):
        """Problems found in one operation's artifacts (empty when correct)."""
        raise NotImplementedError

    def check_rerun(self, first: Path, opdir: Path):
        """Problems found by comparing an operation with the run's first."""
        return []


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, sort_keys=True) + "\n")
    return path


class Principal(Workload):
    """The single-stage pipeline at N=3; N=4 (the criterion-7 config) takes
    about 75 s an operation, too long to repeat within a run's budget."""

    name = "principal-n3"
    config = {"q": 4, "eps": 0.9, "u": "cos", "N": 3, "mode": "empirical"}

    def prepare(self, workdir, seed):
        super().prepare(workdir, seed)
        self.config_path = _write_config(workdir / "principal.json", self.config)

    def commands(self, opdir):
        return [["principal", "--config", str(self.config_path), "--out", str(opdir)]]

    def check(self, opdir):
        problems = []
        K = oracles.arcs(oracles.load(opdir / "K.json"))
        n, c = oracles.coeff_table(oracles.load(opdir / "P.json"))
        t = oracles.sample(K, 20000)
        P = oracles.eval_direct(n, c, t)
        if float(abs(P.imag).max()) > 1e-9 * float(abs(P.real).max()):
            problems.append("P is not real on K")
        if not (abs(P) > 1.0).all():
            problems.append(f"|P| <= 1 on K: min {float(abs(P).min())!r}")
        if not (P.real * np.cos(t) > 0.0).all():
            problems.append("P cos changes sign on K")
        certs = oracles.load(opdir / "certificates.json")["certificates"]
        a_norm_P, Cq = oracles.scalar(certs["a_norm_P"]), oracles.scalar(certs["Cq"])
        if abs(a_norm_P - Cq) > 1e-12 * Cq:
            problems.append(f"a_norm_P {a_norm_P!r} != Cq {Cq!r}")
        lo = oracles.scalar(certs["a_q_defect"]["lo"])
        hi = oracles.scalar(certs["a_q_defect"]["hi"])
        f_lo, f_hi = oracles.defect_enclosure(oracles.load(opdir / "f.json"),
                                              self.config["q"])
        if not (lo <= hi and f_lo <= hi and lo <= f_hi):
            problems.append(f"a_q_defect [{lo!r}, {hi!r}] misses the enclosure "
                            f"[{f_lo!r}, {f_hi!r}] of the f artifact")
        if not hi <= self.config["eps"]:
            problems.append(f"a_q_defect {hi!r} above eps {self.config['eps']}")
        return problems


class DemoCorollary(Workload):
    """The corollary's whole chain: stages, sampled annihilation, extension
    probe, deficit profile and the smooth witness.  Every operation of a
    run takes the run's seed, so their artifacts must agree byte for byte."""

    name = "demo-corollary"
    DEGREES = [0, 1, 2, 4, 8, 16, 32, 64]  # the profile's multiplier degrees

    def commands(self, opdir):
        return [["demo-corollary", "--q", "4", "--p", P_ARG, "--stages", "2",
                 "--seed", str(self.seed), "--out", str(opdir)]]

    def check(self, opdir):
        zero = oracles.load(opdir / "zero_set.json")
        problems = witness_problems(zero, oracles.load(opdir / "f_noncyclic.json")["f"])

        # g must vanish at the skeleton: the midpoints of K's components
        g_doc = oracles.load(opdir / "g_cyclic.json")
        skeleton = [(a + b) / 2.0 for a, b in oracles.components(oracles.arcs(zero["Z"]))]
        n, c = oracles.coeff_table(g_doc["g"])
        g_max = float(abs(oracles.eval_direct(n, c, skeleton)).max())
        if not g_max < 1e-9:
            problems.append(f"g at the skeleton reaches {g_max!r}")

        profile_rows = g_doc["deficit_profile"]
        if [r["d"] for r in profile_rows] != self.DEGREES:
            problems.append(f"deficit profile at d = {[r['d'] for r in profile_rows]}")
        his = [oracles.scalar(r["value"]["hi"]) for r in profile_rows]
        if any(b > a for a, b in zip(his, his[1:])):
            problems.append("deficit profile increases in d")

        certs = oracles.load(opdir / "certificates.json")
        final = oracles.scalar(certs["stage_certificates"]["final_norm"]["hi"])
        if not final < 1.0:
            problems.append(f"final_norm.hi {final!r} >= 1")
        delta_hat = oracles.scalar(certs["delta_hat"])
        if not delta_hat > 0.0:
            problems.append(f"delta_hat {delta_hat!r} <= 0")
        return problems

    def check_rerun(self, first, opdir):
        names = sorted(p.name for p in first.iterdir())
        if sorted(p.name for p in opdir.iterdir()) != names:
            return ["rerun wrote a different set of artifacts"]
        return [f"{name} differs between runs with one seed" for name in names
                if (first / name).read_bytes() != (opdir / name).read_bytes()]


class Bernstein(Workload):
    """The Bernstein battery on two spaces: exact Fraction tails over coins,
    float tails over the Riesz quadrature grid."""

    name = "bernstein"
    coins = {"space": "coins", "N": 11, "p_plus": "3/4"}
    riesz = {"space": "riesz", "N": 9, "s": "7/24", "phi": "cos", "w": "one"}
    NU = 3  # lacunarity chosen for phi = cos, w = 1: 2 max(1, 0) + 1
    ALPHAS = [0.05 * k for k in range(1, 41)]  # the battery's default grid

    def prepare(self, workdir, seed):
        super().prepare(workdir, seed)
        self.paths = {k: _write_config(workdir / f"{k}.json", getattr(self, k))
                      for k in ("coins", "riesz")}

    def commands(self, opdir):
        return [["bernstein", "--config", str(self.paths[k]),
                 "--out", str(opdir / k)] for k in ("coins", "riesz")]

    def check(self, opdir):
        problems = []
        for k in ("coins", "riesz"):
            battery = oracles.load(opdir / k / "battery.json")
            if battery["violations"] != 0:
                problems.append(f"{k}: {battery['violations']} bound violations")
            if not oracles.scalar(battery["deviation"]) < 1.0:
                problems.append(f"{k}: deviation {battery['deviation']} >= 1")
        coins = _report_rows(opdir / "coins" / "report.csv")
        riesz = _report_rows(opdir / "riesz" / "report.csv")
        for k, rows in (("coins", coins), ("riesz", riesz)):
            if [a for a, _ in rows] != self.ALPHAS:
                problems.append(f"{k}: {len(rows)} rows, not the 40 default alphas")
        for alpha, got in coins:
            want = oracles.coin_tail(self.coins["N"], Fraction(self.coins["p_plus"]),
                                     Fraction(alpha).limit_denominator(1000))
            if got != float(want):
                problems.append(f"coins: tail at alpha {alpha!r} is {got!r}, "
                                f"binomial sum {float(want)!r}")
        want = oracles.riesz_tails(self.riesz["N"], self.NU,
                                   Fraction(self.riesz["s"]), [a for a, _ in riesz])
        for (alpha, got), w in zip(riesz, want):
            if abs(got - w) > 1e-12:
                problems.append(f"riesz: tail at alpha {alpha!r} is {got!r}, "
                                f"recomputed {w!r}")
        return problems


def witness_problems(zero, f_doc):
    """The program's smooth witness must vanish on K exactly, and its
    coefficients, summed on the scan grid, must match the profile
    ((t-a)(b-t))^3 of K's gaps, peak 1, within the bound of their tail."""
    problems = []
    on_K = oracles.scalar(zero["witness_on_K_exact_max"])
    if on_K != 0.0:
        problems.append(f"witness reaches {on_K!r} on K")
    K = oracles.arcs(zero["Z"])
    L = int(zero["scan_points"])
    profile = oracles.witness_profile(K, oracles.TWO_PI * np.arange(L) / L)
    n, c = oracles.coeff_table(f_doc)
    slack = oracles.tail_lp(*oracles.tail(f_doc), 1.0) + 1e-9
    err = float(abs(oracles.eval_grid(n, c, L) - profile).max())
    if err > slack:
        problems.append(f"witness artifact off the profile by {err!r} > {slack!r}")
    return problems


def _report_rows(path: Path):
    lines = path.read_text().splitlines()[1:]
    return [(float(a), float(t)) for a, t, _ in (line.split(",") for line in lines)]


WORKLOADS = {w.name: w for w in (Principal(), DemoCorollary(), Bernstein())}
