"""The four benchmark workloads: adol CLI commands, configs and output checks.

Each workload is a list of `adol` commands run against one JSON config.  The
benchmark adds `--config`, `--out` and `--seed` to every command; the seed is
the only input that varies between runs.  A workload's `check` reads the
files the commands wrote and returns one `Check` per value it compared, plus
the accuracy figures the traced run reports beside its timings.

The reference values below do not depend on the seed: the Fourier prices and
CF values are deterministic, only the Monte Carlo rows move with `--seed`.
"""

from __future__ import annotations

import cmath
import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The reference model of the ROADMAP baseline table.
REF_MODEL = {"s0": 1.0, "sigma0": 0.3, "v0": 5.0, "kappa": 2.0, "xi": 0.05,
             "rho": -0.5, "h": 0.3, "m_rho": 1.0, "m_pi": 0.5, "t_mat": 0.5}
STRIKES = [0.8, 0.9, 1.0, 1.1, 1.2]

# Damped-Fourier prices of the reference model, pinned from the adaptive
# inversion.  PRICE_TOL admits any inversion at least as accurate as a
# 256-node shared-grid rule (6e-9 from the adaptive one at order 0) with a
# wide margin, and sits four orders below the order-1 correction itself
# (|o1 - o0| >= 4e-4 on every strike), so a wrong correction cannot pass.
PRICE_TOL = 1e-7
REF_PRICE = {
    "cf-order-0": {0.8: 0.20289564763258494, 0.9: 0.11717162567677812,
                   1.0: 0.05559980375080712, 1.1: 0.021469167193048352,
                   1.2: 0.006839888474722699},
    "cf-order-1": {0.8: 0.20344459759059821, 0.9: 0.11757945645368548,
                   1.0: 0.054709104202682546, 1.1: 0.019630827408052266,
                   1.2: 0.005244792634773483},
}

# Order-2 CF values (z0 + xi z1 + xi^2 z2) of the reference model on u = 0..5.
# The converged z2 differs from the one pinned here by about 3e-6 relative;
# with xi^2 |z2| <= 8.4e-4 that moves these values by at most 2.5e-9.
# CF_TOL admits that with a fourfold margin and stays five orders below the
# second-order term itself (xi^2 |z2| >= 1.2e-4 for u >= 1).
CF_TOL = 1e-8
REF_CF_O2 = {
    0.0: complex(1.0, 0.0),
    1.0: complex(0.9903564101075025, -0.009371369586902604),
    2.0: complex(0.9620160176708461, -0.017665721550173725),
    3.0: complex(0.9166854631063418, -0.023960575943493472),
    4.0: complex(0.8570046473116861, -0.02761489048360085),
    5.0: complex(0.786274360785951, -0.028346653523152108),
}

# At xi = 0 the model is lognormal: the CF and the Black-Scholes price are
# closed forms.  The CF tolerance is the accuracy the affine zero order is
# tested to; the price tolerance is the one `adol check` arms itself.
LOGNORMAL_CF_TOL = 1e-9
BS_PRICE_TOL = 1e-6

# `adol check` on the default config breaches exactly on the hundredths
# H = 0.72 .. 0.90, where the projection defect exceeds 12%.
KNOWN_CEILING_BREACHES = [round(0.72 + 0.01 * j, 2) for j in range(19)]

# Monte Carlo references: per workload, the mean and standard error of each
# Monte Carlo quantity it prints, ("call", strike) with strike 0 for the
# discounted forward and ("qv", None) for the realized variance, over
# MC_REF_PATHS paths of the workload's own time grid, drawn from the seeds
# MC_REF_SEED, MC_REF_SEED + 1, ...  `mc_reference.py` recomputes them.  A
# run's value must lie within MC_Z combined standard errors of its reference:
# a chance miss has odds below 1e-6 per value, while a broken simulation
# (a wrong drift, a lost correlation) is off by many standard errors.
MC_REF_PATHS = 20_000_000
MC_REF_SEED = 10 ** 12
MC_Z = 5.0
MC_REF = {
    "smile_o1": {
        ("call", 0.0): (1.0000107709261186, 3.083214834060727e-05),
        ("call", 0.8): (0.20356978228542127, 2.9365818193418607e-05),
        ("call", 0.9): (0.1177268755056093, 2.547921711231263e-05),
        ("call", 1.0): (0.05489071853558144, 1.875101893436605e-05),
        ("call", 1.1): (0.019869376955072574, 1.141584747883989e-05),
        ("call", 1.2): (0.005522061274884127, 5.837914781320008e-06),
    },
    "mc_oracle": {
        ("call", 0.0): (1.000004365424974, 3.078049603761348e-05),
        ("call", 0.8): (0.2035549078043511, 2.931515677825199e-05),
        ("call", 0.9): (0.1176676662120251, 2.543527602940871e-05),
        ("call", 1.0): (0.0547899035637069, 1.8709239530236757e-05),
        ("call", 1.1): (0.019777067593022772, 1.137624379800698e-05),
        ("call", 1.2): (0.005478630262353491, 5.804668822253168e-06),
        ("qv", None): (0.03861864488480491, 1.0061514353739851e-05),
    },
    "check_default": {
        ("call", 0.0): (1.0000073211171758, 3.141627057410047e-05),
        ("call", 0.8): (0.20293495317038374, 3.027229494582672e-05),
        ("call", 0.9): (0.11727522954899576, 2.6498212052734434e-05),
        ("call", 1.0): (0.05574093275756984, 1.982460889295251e-05),
        ("call", 1.1): (0.021580698423161546, 1.2611673068608733e-05),
        ("call", 1.2): (0.006895130870446414, 7.024195344608407e-06),
        ("qv", None): (0.03922068077514452, 9.663607397763453e-06),
    },
}

# The Fourier fd-richardson and affine-analytic variance strikes use the same
# sampled states and differ only by the O(h^4) finite-difference error.
VARSWAP_REL_TOL = 1e-7


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Outcome:
    """What a workload's check made of its outputs: one Check per compared
    value, the accuracy figures of the traced run, and the findings, one line
    for each statistical `--check` gate of the program that tripped."""
    checks: list
    accuracy: dict
    findings: list


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    # adol arguments of each command, in order
    commands: tuple[tuple[str, ...], ...]
    # (output directory, resolved config, (exit code, log) of each command)
    check: Callable[[Path, dict, list[tuple[int, str]]], Outcome]


def read_csv(path: Path) -> list[dict]:
    """Rows of an adol CSV, skipping its '#' metadata line."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _close(label: str, got: float, want: float, tol: float) -> Check:
    err = abs(got - want)
    return Check(label, err <= tol, f"got {got!r}, want {want!r}, |err| {err:.3g} > {tol:g}")


def _mc_rows(out: Path, cfg: dict) -> list[tuple[str, tuple, float, float]]:
    """Every Monte Carlo row the commands wrote, as (label, reference key,
    value, standard error).  The martingale offset is mapped back to the
    discounted forward it is computed from."""
    m = cfg["model"]
    fwd0 = m["s0"] * math.exp(-m["q"] * m["t_mat"])
    rows = []
    if (out / "price.csv").exists():
        rows += [(f"mc price @ {r['strike']}", ("call", float(r["strike"])),
                  float(r["value"]), float(r["std_error"]))
                 for r in read_csv(out / "price.csv") if r["method"] == "mc"]
    if (out / "mc.csv").exists():
        for r in read_csv(out / "mc.csv"):
            q, val, se = r["quantity"], float(r["estimate"]), float(r["std_error"])
            if q == "martingale-offset":
                rows.append((f"mc {q} as a forward", ("call", 0.0),
                             (val + 1.0) * fwd0, se * fwd0))
            else:
                strike = 0.0 if q == "discounted-forward" else float(q.removeprefix("call@"))
                rows.append((f"mc {q}", ("call", strike), val, se))
    if (out / "varswap.csv").exists():
        rows += [("varswap mc-qv", ("qv", None), float(r["value"]), float(r["std_error"]))
                 for r in read_csv(out / "varswap.csv") if r["method"] == "mc-qv"]
    return rows


def _mc_checks(out: Path, cfg: dict, refs: dict) -> tuple[list[Check], float]:
    """Every Monte Carlo row has a positive standard error and lies within
    MC_Z combined standard errors of its pinned reference; returns the checks
    and the largest standard error."""
    checks, se_max = [], 0.0
    for label, key, val, se in _mc_rows(out, cfg):
        se_max = max(se_max, se)
        if key not in refs:
            checks.append(Check(label, False, f"no reference for {key}"))
            continue
        ref, ref_se = refs[key]
        tol = MC_Z * math.hypot(se, ref_se)
        checks.append(Check(label, math.isfinite(val) and se > 0.0 and abs(val - ref) <= tol,
                            f"value {val!r}, std_error {se!r}, reference {ref!r} "
                            f"+- {ref_se:.3g}: off by more than {MC_Z:g} combined SE"))
    return checks, se_max


# ---------------------------------------------------------------------------
# the program's statistical --check gates, recomputed from its own outputs
#
# `adol price`, `mc` and `varswap` compare a Fourier value with a Monte Carlo
# one and count a breach when they sit more than 3 (or 4) standard errors
# apart.  Such a gate trips on some seeds by chance, and more often where the
# order-1 price carries its O(xi^2) truncation error (see README.md,
# Findings).  The benchmark does not count a trip as a wrong output: it
# checks that the program's exit code and breach count are exactly what its
# gates give on the values it wrote, and reports each trip as a finding.
# ---------------------------------------------------------------------------

def _price_gates(out: Path, cfg: dict) -> list[str]:
    # armed only for a model that passes small_param_check, as the
    # reference model does (xi = 0.05 <= 0.25 f(H, T) = 0.21)
    rows = read_csv(out / "price.csv")
    se = {float(r["strike"]): float(r["std_error"]) for r in rows if r["method"] == "mc"}
    trips = []
    for r in rows:
        if r["method"].startswith("cf-order-") and r["method"] != "cf-order-0":
            strike, gap = float(r["strike"]), float(r["gap_to_mc"])
            if abs(gap) > 3.0 * se[strike]:
                trips.append(f"price: {r['method']} at strike {strike} is "
                             f"{abs(gap) / se[strike]:.2f} SE from MC (gap {gap:.3g})")
    return trips


def _varswap_gates(out: Path, cfg: dict) -> list[str]:
    rows = {r["method"]: r for r in read_csv(out / "varswap.csv")}
    gap = float(rows["fd-richardson"]["gap_to_mc"])
    se = max(float(rows["mc-qv"]["std_error"]), 1e-12)
    if abs(gap) > 3.0 * se:
        return [f"varswap: fd-richardson strike is {abs(gap) / se:.2f} SE "
                f"from the MC QV (gap {gap:.3g})"]
    return []


def _mc_gates(out: Path, cfg: dict) -> list[str]:
    row = next(r for r in read_csv(out / "mc.csv") if r["quantity"] == "martingale-offset")
    off, se = float(row["estimate"]), float(row["std_error"])
    if abs(off) > 4.0 * se + 1e-3:
        return [f"mc: martingale offset {off:.3g} exceeds 4 SE + 1e-3 ({se:.3g})"]
    return []


GATES = {"price": _price_gates, "varswap": _varswap_gates, "mc": _mc_gates}


def _gate_checks(out: Path, cfg: dict, commands, runs) -> tuple[list[Check], list[str]]:
    """Each `--check` command exits 3 exactly when one of its gates trips on
    the values it wrote, and 0 otherwise; returns the checks and the trips."""
    checks, findings = [], []
    for args, (code, log) in zip(commands, runs):
        trips = GATES[args[0]](out, cfg)
        want = 3 if trips else 0
        checks.append(Check(f"exit code of adol {' '.join(args)}", code == want,
                            f"exit {code}, want {want} from {len(trips)} gate trip(s): "
                            f"{log[-300:]}"))
        findings += trips
    return checks, findings


def _price_rows(out: Path) -> dict[tuple[str, float], dict]:
    return {(r["method"], float(r["strike"])): r for r in read_csv(out / "price.csv")}


def check_smile(out: Path, cfg: dict, runs: list[tuple[int, str]]) -> Outcome:
    checks, findings = _gate_checks(out, cfg, SMILE_O1.commands, runs)
    more, se_max = _mc_checks(out, cfg, MC_REF["smile_o1"])
    checks += more
    rows = _price_rows(out)
    err_max = 0.0
    for method, refs in REF_PRICE.items():
        for strike in cfg["pricing"]["strikes"]:
            row = rows.get((method, strike))
            if row is None:
                checks.append(Check(f"{method} @ {strike}", False, "row missing"))
                continue
            got = float(row["value"])
            err_max = max(err_max, abs(got - refs[strike]))
            checks.append(_close(f"{method} @ {strike}", got, refs[strike], PRICE_TOL))
    return Outcome(checks, {"price_abs_err": err_max, "se": se_max}, findings)


def check_cf(out: Path, cfg: dict, runs: list[tuple[int, str]]) -> Outcome:
    # `cf --check` has no Monte Carlo gate: it must exit 0
    checks = [Check("exit code of adol cf --check", code == 0, f"exit {code}: {log[-300:]}")
              for code, log in runs]
    rows = read_csv(out / "cf.csv")
    if len(rows) != cfg["cf"]["n_u"]:
        checks.append(Check("cf rows", False, f"{len(rows)} rows, want {cfg['cf']['n_u']}"))
    err_max = 0.0
    for row in rows:
        u = float(row["u"])
        got = complex(float(row["corrected_re"]), float(row["corrected_im"]))
        if u not in REF_CF_O2:
            checks.append(Check(f"cf order 2 @ u={u}", False, "no reference value"))
            continue
        want = REF_CF_O2[u]
        err_max = max(err_max, abs(got - want))
        checks.append(_close(f"cf order 2 re @ u={u}", got.real, want.real, CF_TOL))
        checks.append(_close(f"cf order 2 im @ u={u}", got.imag, want.imag, CF_TOL))
    return Outcome(checks, {"cf_abs_err": err_max}, [])


def check_mc(out: Path, cfg: dict, runs: list[tuple[int, str]]) -> Outcome:
    checks, findings = _gate_checks(out, cfg, MC_ORACLE.commands, runs)
    more, se_max = _mc_checks(out, cfg, MC_REF["mc_oracle"])
    checks += more
    mc_rows = read_csv(out / "mc.csv")
    want = [f"call@{s!r}" for s in cfg["pricing"]["strikes"]] \
        + ["discounted-forward", "martingale-offset"]
    got = [r["quantity"] for r in mc_rows]
    checks.append(Check("mc quantities", got == want, f"{got}"))
    n_paths = cfg["mc"]["n_paths"]
    for row in mc_rows:
        checks.append(Check(f"mc n_effective {row['quantity']}",
                            int(row["n_effective"]) == n_paths, row["n_effective"]))
    vs = {r["method"]: float(r["value"]) for r in read_csv(out / "varswap.csv")}
    checks.append(_close("varswap fd-richardson vs affine-analytic", vs["fd-richardson"],
                         vs["affine-analytic"], VARSWAP_REL_TOL * abs(vs["affine-analytic"])))
    return Outcome(checks, {"se": se_max}, findings)


def check_default(out: Path, cfg: dict, runs: list[tuple[int, str]]) -> Outcome:
    (code, log), = runs
    checks, se_max = _mc_checks(out, cfg, MC_REF["check_default"])
    # the deterministic gates breach on the 19 ceiling points only (the ones
    # of price and varswap are checked below); the Monte Carlo gates of
    # price, varswap and mc add whatever they trip
    findings = [trip for gates in GATES.values() for trip in gates(out, cfg)]
    want = len(KNOWN_CEILING_BREACHES) + len(findings)
    found = re.findall(r"check: (\d+) tolerance breach", log)
    n = int(found[-1]) if found else 0
    checks.append(Check("exit code of adol check", code == 3, f"exit {code}: {log[-300:]}"))
    checks.append(Check("breach count", n == want,
                        f"{n} breaches, want {len(KNOWN_CEILING_BREACHES)} ceiling points "
                        f"+ {len(findings)} Monte Carlo gate trip(s)"))
    over = sorted(float(r["h"]) for r in read_csv(out / "constants.csv")
                  if float(r["h"]) >= 0.4 and r["defect_within_0p12"] == "false")
    checks.append(Check("breaches are the known ceiling points",
                        over == KNOWN_CEILING_BREACHES, f"{over}"))

    # xi = 0: the zero order is the lognormal model
    m = cfg["model"]
    t = m["t_mat"]
    var = m["sigma0"] ** 2 * (1.0 - math.exp(-2.0 * m["kappa"] * t)) / (2.0 * m["kappa"])
    cf_err = 0.0
    for row in read_csv(out / "cf.csv"):
        u = float(row["u"])
        want = cmath.exp(1j * u * (m["r"] - m["q"]) * t - 0.5 * var * (u * u + 1j * u))
        err = abs(complex(float(row["corrected_re"]), float(row["corrected_im"])) - want)
        cf_err = max(cf_err, err)
        checks.append(Check(f"lognormal cf @ u={u}", err <= LOGNORMAL_CF_TOL, f"|err| {err:.3g}"))
    rows = _price_rows(out)
    px_err = 0.0
    for strike in cfg["pricing"]["strikes"]:
        got, bs = rows[("cf-order-0", strike)]["value"], rows[("bs", strike)]["value"]
        px_err = max(px_err, abs(float(got) - float(bs)))
        checks.append(_close(f"cf-order-0 vs bs @ {strike}", float(got), float(bs),
                             BS_PRICE_TOL))
    vs = {r["method"]: float(r["value"]) for r in read_csv(out / "varswap.csv")}
    closed = vs["integrated-variance"]
    checks.append(_close("varswap fd-richardson vs integrated variance", vs["fd-richardson"],
                         closed, 0.01 * closed))
    return Outcome(checks, {"price_abs_err": px_err, "cf_abs_err": cf_err, "se": se_max},
                   findings)


SMILE_O1 = Workload(
    name="smile_o1",
    config={"model": REF_MODEL, "cf": {"order": 1},
            "pricing": {"strikes": STRIKES}, "mc": {"n_paths": 20000, "n_steps": 200}},
    commands=(("price", "--check"),),
    check=check_smile,
)

CF_O2 = Workload(
    name="cf_o2",
    config={"model": REF_MODEL, "cf": {"order": 2, "u_max": 5.0, "n_u": 6}},
    commands=(("cf", "--check"),),
    check=check_cf,
)

MC_ORACLE = Workload(
    name="mc_oracle",
    config={"model": REF_MODEL,
            "pricing": {"strikes": STRIKES, "varswap": {"observation_times": [0.25, 0.5]}},
            "mc": {"n_paths": 100000, "n_steps": 500}},
    commands=(("mc", "--check"), ("varswap", "--check")),
    check=check_mc,
)

CHECK_DEFAULT = Workload(
    name="check_default",
    config={},
    commands=(("check",),),
    check=check_default,
)

WORKLOADS = {w.name: w for w in (SMILE_O1, CF_O2, MC_ORACLE, CHECK_DEFAULT)}
