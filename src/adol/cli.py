"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Every command is deterministic given its config; re-runs are byte-identical
except for the timestamp carried in the single '#' metadata line of each
CSV.  Exit codes: 0 success, 1 config/validation error, 2 numerical
failure or exhausted memory, 3 tolerance breach in --check mode.
"""

from __future__ import annotations

import argparse
import csv
import datetime as _dt
import json
import math
import sys
from pathlib import Path

import numpy as np

from .charfn import (MODE_AFFINE, MODE_PAPER, CorrectionConfig, _j_integrand,
                     _unit_response, cf_values, cf_zero, j_closed, j_integral, j_state,
                     pde_residual, tau_closed_gap)
from .do_process import do_constants
from .model import XI_MARGIN, AdolModel, f_ht, small_param_check
from .montecarlo import (McSpec, Paths, _grid, _qv_indices, mc_prices,
                         mc_quadratic_variation, simulate_paths)
from .numerics import QuadratureError
from .pricing import (FourierPricingSpec, VarSwapSpec, bs_price, fourier_prices,
                      varswap_strike, varswap_strike_analytic)

__all__ = ["main", "load_config"]


class ConfigError(ValueError):
    pass


# --------------------------------------------------------------------------
# config schema: {block: {key: (kind, default)}}; kind drives validation
# --------------------------------------------------------------------------

_MODEL_KEYS = {
    "s0": ("num", 1.0), "sigma0": ("num", 0.3), "v0": ("num", 5.0),
    "r": ("num", 0.0), "q": ("num", 0.0), "kappa": ("num", 2.0),
    "xi": ("num", 0.0), "rho": ("num", -0.5), "h": ("num", 0.3),
    "m_rho": ("num", 1.0), "m_pi": ("num", 0.5), "t_mat": ("num", 0.5),
}

_SCHEMA = {
    "model": _MODEL_KEYS,
    "cf": {
        "mode": ("enum", MODE_AFFINE, (MODE_AFFINE, MODE_PAPER)),
        "order": ("int", 1),
        "u_max": ("num", 5.0),
        "n_u": ("int", 21),
    },
    "pricing": {
        "damping": ("num", 1.5),
        "u_max": ("num", 150.0),
        "strikes": ("numlist", [0.8, 0.9, 1.0, 1.1, 1.2]),
        "varswap": {
            "observation_times": ("numlist", [0.25, 0.5]),
        },
    },
    "mc": {
        "n_paths": ("int", 20000),
        "n_steps": ("int", 200),
        "seed": ("int", 20177),
    },
    "output": {
        "directory": ("str", "out"),
    },
}


def _finite(x, here: str) -> float:
    """x as a float; NaN, infinities and integers past the float range are
    refused with the key's name, as the model's own checks word it."""
    try:
        val = float(x)
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        block, _, name = here.rpartition(".")
        raise ConfigError(f"{block}: {name} must be finite, got {val}")
    return val


def _validate_block(schema: dict, data: dict, path: str) -> dict:
    out = {}
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown key '{path}{key}'")
    for key, rule in schema.items():
        here = f"{path}{key}"
        if isinstance(rule, dict):
            sub = data.get(key, {})
            if not isinstance(sub, dict):
                raise ConfigError(f"'{here}' must be an object")
            out[key] = _validate_block(rule, sub, here + ".")
            continue
        kind, default = rule[0], rule[1]
        val = data.get(key, default)
        if kind == "num":
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"'{here}' must be a number, got {val!r}")
            val = _finite(val, here)
        elif kind == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"'{here}' must be an integer, got {val!r}")
        elif kind == "str":
            if not isinstance(val, str):
                raise ConfigError(f"'{here}' must be a string, got {val!r}")
        elif kind == "enum":
            if val not in rule[2]:
                raise ConfigError(f"'{here}' must be one of {rule[2]}, got {val!r}")
        elif kind == "numlist":
            if (not isinstance(val, list) or not val
                    or any(isinstance(x, bool) or not isinstance(x, (int, float))
                           for x in val)):
                raise ConfigError(f"'{here}' must be a nonempty list of numbers")
            val = [_finite(x, here) for x in val]
        out[key] = val
    return out


def load_config(source) -> dict:
    """Parse and validate a config; returns the fully resolved dict."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
                f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = _validate_block(_SCHEMA, raw, "")
    # value-level checks up front so every command rejects a bad config the
    # same way; the variance-swap schedule binds only the commands that read it
    _model_from(resolved)
    _corr_cfg(resolved)
    if resolved["cf"]["n_u"] < 1:
        raise ConfigError(f"cf: n_u must be at least 1, got {resolved['cf']['n_u']}")
    _fourier_spec(resolved)
    _mc_spec(resolved)
    return resolved


def _model_from(cfg: dict) -> AdolModel:
    m = cfg["model"]
    try:
        return AdolModel(
            s0=m["s0"], sigma0=m["sigma0"], v0=m["v0"], r=m["r"], q=m["q"],
            kappa=m["kappa"], xi=m["xi"], rho=m["rho"], h=m["h"],
            m_rho=m["m_rho"], m_pi=m["m_pi"], t_mat=m["t_mat"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _corr_cfg(cfg: dict, model: AdolModel | None = None) -> CorrectionConfig:
    """The CF's config; given the model, also refused where the model cannot
    honour it: the paper mode's slices, and the corrections at nonzero xi,
    need H < 1/2.  Only the commands that read the CF pass the model, so the
    others still run such a config."""
    c = cfg["cf"]
    try:
        ccfg = CorrectionConfig(order=c["order"], mode=c["mode"])
    except ValueError as exc:
        raise ConfigError(f"cf: {exc}") from exc
    if model is not None and model.h >= 0.5:
        if ccfg.mode == MODE_PAPER:
            raise ConfigError(f"cf.mode {MODE_PAPER} needs model.h < 1/2, got {model.h}")
        if model.xi != 0.0 and ccfg.order >= 1:
            raise ConfigError(f"cf.order {ccfg.order} needs model.h < 1/2 at nonzero "
                              f"model.xi, got h = {model.h}")
    return ccfg


def _fourier_spec(cfg: dict) -> FourierPricingSpec:
    """The pricer's spec.  The strikes are refused here too: the pricers
    need them positive, and one refusal by key serves every command."""
    p = cfg["pricing"]
    try:
        spec = FourierPricingSpec(damping=p["damping"], u_max=p["u_max"])
    except ValueError as exc:
        raise ConfigError(f"pricing: {exc}") from exc
    for strike in p["strikes"]:
        if strike <= 0.0:
            raise ConfigError(f"pricing: strikes must be positive, got {strike}")
    return spec


def _mc_spec(cfg: dict) -> McSpec:
    m = cfg["mc"]
    try:
        return McSpec(n_paths=m["n_paths"], n_steps=m["n_steps"], seed=m["seed"])
    except ValueError as exc:
        raise ConfigError(f"mc: {exc}") from exc


# --------------------------------------------------------------------------
# output plumbing
# --------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


# the CSV layout's version, echoed into each file's '#' line
_FORMAT_VERSION = "1"


def _write_csv(out_dir: Path, name: str, command: str,
               header: list[str], rows: list[list]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat()
    with open(path, "w", newline="") as fh:
        fh.write(f"# command={command} format={_FORMAT_VERSION} generated={stamp}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


# --------------------------------------------------------------------------
# subcommands; each returns the number of tolerance breaches
# --------------------------------------------------------------------------

def cmd_constants(cfg: dict, out_dir: Path, check: bool) -> int:
    t_mat = cfg["model"]["t_mat"]
    rows, breaches = [], 0
    for j in range(1, 100):
        h = j / 100.0
        c = do_constants(h)
        d = math.sqrt(max(c.d_h_sq, 0.0))
        ok = d <= 0.12
        if check and h >= 0.4 and not ok:
            breaches += 1
        rows.append([h, c.alpha_h, c.c_h, c.b_h, c.d_h_sq, c.psi_scale, f_ht(h, t_mat), ok])
    _write_csv(out_dir, "constants.csv", "constants",
               ["h", "alpha_h", "c_h", "b_h", "d_h_sq", "psi_scale",
                "f_ht", "defect_within_0p12"], rows)
    return breaches


def cmd_figures(cfg: dict, out_dir: Path, check: bool) -> int:
    # the figures draw the reference model, the schema's defaults, whatever the config
    model = _model_from({"model": {key: rule[1] for key, rule in _MODEL_KEYS.items()}})
    T = model.t_mat
    breaches = 0

    # figs 1-2: the spatial integrand against sigma' at two source times
    for name, chi in (("fig1_integrand.csv", 0.5 * T), ("fig2_integrand.csv", 0.9 * T)):
        center, k = j_state(model, 1.0, chi)
        mean, half = center + 2.0 * chi, 6.0 * math.sqrt(2.0 * chi)
        xs = np.linspace(mean - half, mean + half, 201)
        val = _j_integrand(xs, center, k, chi)
        _write_csv(out_dir, name, "figures",
                   ["sigma_prime", "integrand_re", "integrand_im"],
                   np.column_stack([xs, val.real, val.imag]).tolist())

    # fig 3: closed form vs quadrature on the 100-point source-time grid; an
    # inapplicable closed form gives a NaN gap, which breaches too
    chis = np.linspace(0.05 * T, T, 100)
    center, k = j_state(model, 1.0, chis)
    jq = j_integral(center, k, chis)
    jc, a2 = j_closed(center, k, chis)
    bps = np.abs(jc - jq) / np.abs(jq) * 1e4
    if check and not np.max(bps) <= 10.0:
        breaches += 1
    _write_csv(out_dir, "fig3_j_gap.csv", "figures",
               ["chi", "j_quad_re", "j_quad_im", "j_closed_re", "j_closed_im",
                "gap_bps"],
               np.column_stack([chis, jq.real, jq.imag, jc.real, jc.imag, bps]).tolist())

    # fig 4: curvature coefficient of the quadratic exponent
    if check:
        breaches += int(np.count_nonzero(~(a2.real < 0.0)))
    _write_csv(out_dir, "fig4_a2.csv", "figures",
               ["chi", "a2_re", "a2_im"],
               np.column_stack([chis, a2.real, a2.imag]).tolist())

    # figs 5-6: the expansion's smallness measure over (H, T)
    h_cols = [0.1, 0.2, 0.3, 0.4]
    t_rows = [round(0.1 * j, 1) for j in range(1, 21)]
    rows = [[t] + [f_ht(h, t) for h in h_cols]
            for t in t_rows]
    _write_csv(out_dir, "fig5_f_vs_t.csv", "figures",
               ["t_mat"] + [f"f_h_{h}" for h in h_cols], rows)
    h_rows = [round(0.05 * j, 2) for j in range(1, 10)]
    t_cols = [0.25, 0.5, 1.0, 2.0]
    rows = [[h] + [f_ht(h, t) for t in t_cols]
            for h in h_rows]
    _write_csv(out_dir, "fig6_f_vs_h.csv", "figures",
               ["h"] + [f"f_t_{t}" for t in t_cols], rows)
    return breaches


def cmd_cf(cfg: dict, out_dir: Path, check: bool) -> int:
    model = _model_from(cfg)
    ccfg = _corr_cfg(cfg, model)
    u_grid = np.linspace(0.0, cfg["cf"]["u_max"], cfg["cf"]["n_u"])
    # one call per column, each on the whole grid
    z_aff = cf_zero(u_grid, model, MODE_AFFINE)
    z_pap = (cf_zero(u_grid, model, MODE_PAPER) if model.h < 0.5
             else np.full(u_grid.shape, complex(math.nan, math.nan)))
    z_tot = cf_values(u_grid, model, ccfg)
    rows = np.column_stack([u_grid, z_aff.real, z_aff.imag, z_pap.real, z_pap.imag,
                            np.abs(z_pap - z_aff), z_tot.real, z_tot.imag]).tolist()
    _write_csv(out_dir, "cf.csv", "cf",
               ["u", "affine0_re", "affine0_im", "paper0_re", "paper0_im",
                "mode_gap_abs", "corrected_re", "corrected_im"], rows)
    return 0


def _varswap_spec(cfg: dict, model: AdolModel) -> VarSwapSpec:
    vs = cfg["pricing"]["varswap"]
    try:
        vspec = VarSwapSpec(observation_times=tuple(vs["observation_times"]))
    except ValueError as exc:
        raise ConfigError(f"pricing.varswap: {exc}") from exc
    try:
        _qv_indices(_grid(model, _mc_spec(cfg)), vspec.observation_times)
    except ValueError as exc:
        raise ConfigError(f"pricing.varswap.observation_times: {exc}") from exc
    return vspec


def cmd_price(cfg: dict, out_dir: Path, check: bool, *,
              paths: Paths | None = None) -> int:
    model = _model_from(cfg)
    ccfg = _corr_cfg(cfg, model)
    fspec = _fourier_spec(cfg)
    mspec = _mc_spec(cfg)
    breaches = 0
    report = small_param_check(model)
    rows = []
    var0 = model.sigma0 ** 2 * float(_unit_response(model.kappa, model.t_mat))
    strikes = cfg["pricing"]["strikes"]
    mcs = mc_prices(model, mspec, strikes, paths=paths)

    def ladder(order_cfg: CorrectionConfig) -> list[float]:
        return fourier_prices(lambda u: cf_values(u, model, order_cfg), model.s0,
                              strikes, model.r, model.q, model.t_mat, fspec)

    px0 = ladder(CorrectionConfig(order=0, mode=ccfg.mode))
    corrected = model.xi != 0.0 and ccfg.order >= 1
    try:
        pxn = ladder(ccfg) if corrected else [math.nan] * len(strikes)
    except RuntimeError as exc:
        if report.admissible:
            raise
        raise RuntimeError(f"{exc}; the model is outside the expansion's admissible region: "
                           f"xi = {report.xi} exceeds {XI_MARGIN} f(H, T) = "
                           f"{XI_MARGIN * report.f_ht:.6g}") from exc
    for strike, mc, px_cf0, px_cfn in zip(strikes, mcs, px0, pxn):
        rows.append([strike, "cf-order-0", px_cf0, math.nan,
                     px_cf0 - mc.estimate])
        if corrected:
            gap = px_cfn - mc.estimate
            rows.append([strike, f"cf-order-{ccfg.order}", px_cfn, math.nan, gap])
            if check and report.admissible and abs(gap) > 3.0 * mc.std_error:
                breaches += 1
        rows.append([strike, "mc", mc.estimate, mc.std_error, 0.0])
        if model.xi == 0.0:
            bs = bs_price(model.s0, strike, model.r, model.q, var0, model.t_mat)
            rows.append([strike, "bs", bs, math.nan, bs - mc.estimate])
            if check and abs(px_cf0 - bs) > 1e-6 * model.s0:
                breaches += 1
    _write_csv(out_dir, "price.csv", "price",
               ["strike", "method", "value", "std_error", "gap_to_mc"], rows)
    return breaches


def cmd_varswap(cfg: dict, out_dir: Path, check: bool, *,
                paths: Paths | None = None) -> int:
    model = _model_from(cfg)
    vspec = _varswap_spec(cfg, model)
    mspec = _mc_spec(cfg)
    breaches = 0
    # both strikes are exact expectations; only the realized variance marches
    k_fd = varswap_strike(model, vspec)
    k_an = varswap_strike_analytic(model, vspec)
    qv = mc_quadratic_variation(model, mspec, vspec.observation_times, paths=paths)
    rows = [["fd-richardson", k_fd, math.nan, k_fd - qv.estimate],
            ["affine-analytic", k_an, math.nan, k_an - qv.estimate],
            ["mc-qv", qv.estimate, qv.std_error, 0.0]]
    if model.xi == 0.0:
        T = model.t_mat
        closed = model.sigma0 ** 2 * float(_unit_response(model.kappa, T)) / T
        rows.append(["integrated-variance", closed, math.nan, closed - qv.estimate])
        if check and abs(k_fd - closed) > 0.01 * closed:
            breaches += 1
    if check and abs(k_fd - qv.estimate) > 3.0 * max(qv.std_error, 1e-12):
        breaches += 1
    _write_csv(out_dir, "varswap.csv", "varswap",
               ["method", "value", "std_error", "gap_to_mc"], rows)
    return breaches


def cmd_mc(cfg: dict, out_dir: Path, check: bool, *,
           paths: Paths | None = None) -> int:
    model = _model_from(cfg)
    mspec = _mc_spec(cfg)
    strikes = cfg["pricing"]["strikes"]
    # strike 0 prices the discounted forward off the same paths
    *calls, fwd = mc_prices(model, mspec, strikes + [0.0], paths=paths)
    rows = []
    for strike, st in zip(strikes, calls):
        rows.append([f"call@{_fmt(strike)}", st.estimate, st.std_error,
                     st.n_effective])
    forward = model.s0 * math.exp(-model.q * model.t_mat)
    drift_off = fwd.estimate / forward - 1.0
    off_se = fwd.std_error / forward
    rows.append(["discounted-forward", fwd.estimate, fwd.std_error,
                 fwd.n_effective])
    rows.append(["martingale-offset", drift_off, off_se, fwd.n_effective])
    breaches = 0
    if check and abs(drift_off) > 4.0 * off_se + 1e-3:
        breaches += 1
    _write_csv(out_dir, "mc.csv", "mc",
               ["quantity", "estimate", "std_error", "n_effective"], rows)
    return breaches


def cmd_ledger(cfg: dict, out_dir: Path, check: bool) -> int:
    model = _model_from(cfg)
    modes = (MODE_AFFINE, MODE_PAPER) if model.h < 0.5 else (MODE_AFFINE,)
    grid = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
    za = cf_zero(grid, model, MODE_AFFINE)
    zp = (cf_zero(grid, model, MODE_PAPER) if MODE_PAPER in modes
          else np.full(grid.shape, complex("nan")))
    gaps = [{"u": u, MODE_AFFINE: [a.real, a.imag], MODE_PAPER: [p.real, p.imag],
             "gap_abs": abs(a - p)} for u, a, p in zip(grid.tolist(), za, zp)]
    T = model.t_mat
    pts = [(t, s, v)
           for t in (0.3 * T, 0.6 * T, 0.9 * T)
           for s in (0.7 * model.sigma0, model.sigma0, 1.3 * model.sigma0)
           for v in (0.5 * model.v0, model.v0)]
    stats = {mode: pde_residual(1.0, model, mode, pts) for mode in modes}
    res = {mode: {"max": st.max_abs, "mean": st.mean_abs, "points": st.n_points}
           for mode, st in stats.items()}
    doc = {
        "config": cfg,
        "zero_order_mode_gap": gaps,
        "pde_residuals": res,
        "tau_closed_vs_quadrature_gap": tau_closed_gap(model) if model.h < 0.5 else math.nan,
    }
    # strict JSON: NaN and the infinities are written as null
    doc = json.loads(json.dumps(doc, default=float), parse_constant=lambda _: None)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ledger.json").write_text(json.dumps(doc, indent=2, sort_keys=True,
                                                    allow_nan=False) + "\n")
    return int(model.xi == 0.0 and check and stats[MODE_AFFINE].max_abs > 1e-6)


def cmd_check(cfg: dict, out_dir: Path, check: bool) -> int:
    # every spec is built before the first artifact is written, so a config
    # that one command refuses leaves nothing behind
    model = _model_from(cfg)
    _corr_cfg(cfg, model)
    mspec = _mc_spec(cfg)
    observation_times = _varswap_spec(cfg, model).observation_times
    total = 0
    for fn in (cmd_constants, cmd_figures, cmd_cf):
        total += fn(cfg, out_dir, True)
    # price, varswap and mc all read the one path set
    paths = simulate_paths(model, mspec, observation_times)
    for fn in (cmd_price, cmd_varswap, cmd_mc):
        total += fn(cfg, out_dir, True, paths=paths)
    del paths
    return total + cmd_ledger(cfg, out_dir, True)


_COMMANDS = {
    "constants": cmd_constants,
    "figures": cmd_figures,
    "cf": cmd_cf,
    "price": cmd_price,
    "varswap": cmd_varswap,
    "mc": cmd_mc,
    "ledger": cmd_ledger,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="adol",
                                     description="rough-vol pricing toolkit")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="MC seed override")
    parser.add_argument("--check", action="store_true",
                        help="exit 3 if any tolerance in scope is breached")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["mc"]["seed"] = args.seed
            _mc_spec(cfg)  # refused as the config's own seed would be
        if args.out is not None:
            cfg["output"]["directory"] = args.out
        out_dir = Path(cfg["output"]["directory"])
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "resolved_config.json").write_text(
            json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        check = args.check or args.command == "check"
        breaches = _COMMANDS[args.command](cfg, out_dir, check)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, ArithmeticError, RuntimeError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    if check and breaches:
        print(f"check: {breaches} tolerance breach(es)", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
