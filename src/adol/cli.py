"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Every command is deterministic given its config; re-runs are byte-identical
except for the timestamp carried in the single '#' metadata line of each
CSV.  Exit codes: 0 success, 1 config/validation error, 2 numerical
failure, 3 tolerance breach in --check mode.
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

from .charfn import (MODE_AFFINE, MODE_PAPER, CorrectionConfig, cf_total,
                     cf_zero, coeffs_paper, green_pieces, j_integral,
                     pde_residual, zero_order_fn, J_QUADRATURE, J_QUAD_CENTER)
from .do_process import do_constants
from .model import AdolModel, small_param_check
from .montecarlo import McSpec, mc_prices, mc_quadratic_variation
from .numerics import QuadratureError
from .pricing import (FourierPricingSpec, VarSwapSpec, bs_price, fourier_price,
                      varswap_leg_states, varswap_strike,
                      varswap_strike_analytic)

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
    "eps": ("num", 1e-4),
}

_SCHEMA = {
    "model": _MODEL_KEYS,
    "cf": {
        "mode": ("enum", MODE_AFFINE, (MODE_AFFINE, MODE_PAPER)),
        "order": ("int", 1),
        "sigma_step": ("num", 1e-3),
        "v_step": ("num", 1e-3),
        "u_max": ("num", 5.0),
        "n_u": ("int", 21),
    },
    "pricing": {
        "damping": ("num", 1.5),
        "u_max": ("num", 150.0),
        "strikes": ("numlist", [0.8, 0.9, 1.0, 1.1, 1.2]),
        "varswap": {
            "observation_times": ("numlist", [0.25, 0.5]),
            "u_step": ("num", 1e-2),
            "mc_states": ("int", 2048),
        },
    },
    "mc": {
        "n_paths": ("int", 20000),
        "n_steps": ("int", 200),
        "seed": ("int", 20177),
        "t_start": ("numornull", None),
        "antithetic": ("bool", False),
    },
    "output": {
        "directory": ("str", "out"),
        "format_version": ("str", "1"),
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
        elif kind == "bool":
            if not isinstance(val, bool):
                raise ConfigError(f"'{here}' must be a boolean, got {val!r}")
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
        elif kind == "numornull":
            if val is not None and (isinstance(val, bool)
                                    or not isinstance(val, (int, float))):
                raise ConfigError(f"'{here}' must be a number or null")
            if val is not None:
                val = _finite(val, here)
        out[key] = val
    return out


def load_config(source) -> dict:
    """Parse and validate a config; returns the fully resolved dict."""
    if isinstance(source, dict):
        raw = source
    else:
        text = Path(source).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
                f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    resolved = _validate_block(_SCHEMA, raw, "")
    # value-level checks up front so every command rejects a bad config the
    # same way, not just the commands that happen to build these objects
    _model_from(resolved)
    _corr_cfg(resolved)
    _mc_spec(resolved)
    return resolved


def _model_from(cfg: dict) -> AdolModel:
    m = cfg["model"]
    try:
        return AdolModel(
            s0=m["s0"], sigma0=m["sigma0"], v0=m["v0"], r=m["r"], q=m["q"],
            kappa=m["kappa"], xi=m["xi"], rho=m["rho"], h=m["h"],
            m_rho=m["m_rho"], m_pi=m["m_pi"], t_mat=m["t_mat"], eps=m["eps"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc


def _corr_cfg(cfg: dict) -> CorrectionConfig:
    c = cfg["cf"]
    try:
        return CorrectionConfig(sigma_step=c["sigma_step"], v_step=c["v_step"],
                                order=c["order"], mode=c["mode"])
    except ValueError as exc:
        raise ConfigError(f"cf: {exc}") from exc


def _mc_spec(cfg: dict) -> McSpec:
    m = cfg["mc"]
    try:
        return McSpec(n_paths=m["n_paths"], n_steps=m["n_steps"], seed=m["seed"],
                      t_start=m["t_start"], antithetic=m["antithetic"])
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


def _write_csv(out_dir: Path, name: str, command: str, version: str,
               header: list[str], rows: list[list]) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    stamp = _dt.datetime.now(_dt.timezone.utc).isoformat()
    with open(path, "w", newline="") as fh:
        fh.write(f"# command={command} format={version} generated={stamp}\r\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
    return path


def _table1_model() -> AdolModel:
    return AdolModel(s0=1.0, sigma0=0.3, v0=5.0, r=0.0, q=0.0, kappa=2.0,
                     xi=0.0, rho=-0.5, h=0.3, m_rho=1.0, m_pi=0.5, t_mat=0.5)


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
        f_ht = 2.0 / (c.b_h * t_mat ** h)
        ok = d <= 0.12
        if check and h >= 0.4 and not ok:
            breaches += 1
        rows.append([h, c.alpha_h, c.c_h, c.b_h, c.d_h_sq, c.psi_scale, f_ht, ok])
    _write_csv(out_dir, "constants.csv", "constants",
               cfg["output"]["format_version"],
               ["h", "alpha_h", "c_h", "b_h", "d_h_sq", "psi_scale",
                "f_ht", "defect_within_0p12"], rows)
    return breaches


def _j_setup():
    model = _table1_model()
    green = green_pieces(model)
    co = coeffs_paper(1.0, model)
    omega = model.sigma0 * model.v0  # at chi the transported state is e^(k chi) s v
    return model, green, co, omega


def cmd_figures(cfg: dict, out_dir: Path, check: bool) -> int:
    version = cfg["output"]["format_version"]
    model, green, co, sv = _j_setup()
    T = model.t_mat
    breaches = 0

    # figs 1-2: the spatial integrand against sigma' at two source times
    for name, chi in (("fig1_integrand.csv", 0.5 * T), ("fig2_integrand.csv", 0.9 * T)):
        om = math.exp(model.kappa * chi) * sv
        a1c = green.alpha1(chi)
        sig = a1c * model.v0 + 2.0 * green.tau(chi)
        k = co.gamma(chi) * a1c * a1c * om * math.exp(-model.kappa * chi)
        w = chi
        mean, half = sig + 2.0 * w, 6.0 * math.sqrt(2.0 * w)
        rows = []
        for x in np.linspace(mean - half, mean + half, 201):
            x = float(x)
            d = x - 2.0 * chi
            val = 0j if d == 0.0 else np.exp(k / d ** 2 + x - (x - sig) ** 2 / (4.0 * w))
            rows.append([x, complex(val).real, complex(val).imag])
        _write_csv(out_dir, name, "figures", version,
                   ["sigma_prime", "integrand_re", "integrand_im"], rows)

    # fig 3: closed form vs quadrature on the 100-point source-time grid
    chis = np.linspace(0.05 * T, T, 100)
    rows = []
    max_bps = 0.0
    for chi in chis:
        chi = float(chi)
        om = math.exp(model.kappa * chi) * sv
        sig = green.alpha1(chi) * model.v0 + 2.0 * green.tau(chi)
        jq = j_integral(sig, om, chi, model, green, co, method=J_QUADRATURE)
        jc = j_integral(sig, om, chi, model, green, co, method=J_QUAD_CENTER)
        bps = abs(jc - jq) / abs(jq) * 1e4
        max_bps = max(max_bps, bps)
        rows.append([chi, jq.real, jq.imag, jc.real, jc.imag, bps])
    if check and max_bps > 10.0:
        breaches += 1
    _write_csv(out_dir, "fig3_j_gap.csv", "figures", version,
               ["chi", "j_quad_re", "j_quad_im", "j_closed_re", "j_closed_im",
                "gap_bps"], rows)

    # fig 4: curvature coefficient of the quadratic exponent
    rows = []
    for chi in chis:
        chi = float(chi)
        om = math.exp(model.kappa * chi) * sv
        a1c = green.alpha1(chi)
        sig = a1c * model.v0 + 2.0 * green.tau(chi)
        k = co.gamma(chi) * a1c * a1c * om * math.exp(-model.kappa * chi)
        a2 = -1.0 / (4.0 * chi) + 3.0 * k / (sig - 2.0 * chi) ** 4
        if check and complex(a2).real >= 0.0:
            breaches += 1
        rows.append([chi, complex(a2).real, complex(a2).imag])
    _write_csv(out_dir, "fig4_a2.csv", "figures", version,
               ["chi", "a2_re", "a2_im"], rows)

    # figs 5-6: the expansion's smallness measure over (H, T)
    h_cols = [0.1, 0.2, 0.3, 0.4]
    t_rows = [round(0.1 * j, 1) for j in range(1, 21)]
    rows = [[t] + [2.0 / (do_constants(h).b_h * t ** h) for h in h_cols]
            for t in t_rows]
    _write_csv(out_dir, "fig5_f_vs_t.csv", "figures", version,
               ["t_mat"] + [f"f_h_{h}" for h in h_cols], rows)
    h_rows = [round(0.05 * j, 2) for j in range(1, 10)]
    t_cols = [0.25, 0.5, 1.0, 2.0]
    rows = [[h] + [2.0 / (do_constants(h).b_h * t ** h) for t in t_cols]
            for h in h_rows]
    _write_csv(out_dir, "fig6_f_vs_h.csv", "figures", version,
               ["h"] + [f"f_t_{t}" for t in t_cols], rows)
    return breaches


def cmd_cf(cfg: dict, out_dir: Path, check: bool) -> int:
    model = _model_from(cfg)
    ccfg = _corr_cfg(cfg)
    u_grid = np.linspace(0.0, cfg["cf"]["u_max"], cfg["cf"]["n_u"])
    rows = []
    for u in u_grid:
        u = float(u)
        z_aff = cf_zero(u, model, MODE_AFFINE)
        row = [u, z_aff.real, z_aff.imag]
        if model.h < 0.5:
            z_pap = cf_zero(u, model, MODE_PAPER)
            row += [z_pap.real, z_pap.imag, abs(z_pap - z_aff)]
        else:
            row += [math.nan, math.nan, math.nan]
        z_tot = cf_total(u, model, ccfg)
        row += [z_tot.real, z_tot.imag]
        rows.append(row)
    _write_csv(out_dir, "cf.csv", "cf", cfg["output"]["format_version"],
               ["u", "affine0_re", "affine0_im", "paper0_re", "paper0_im",
                "mode_gap_abs", "corrected_re", "corrected_im"], rows)
    return 0


def cmd_price(cfg: dict, out_dir: Path, check: bool) -> int:
    model = _model_from(cfg)
    ccfg = _corr_cfg(cfg)
    p = cfg["pricing"]
    fspec = FourierPricingSpec(damping=p["damping"], u_max=p["u_max"])
    mspec = _mc_spec(cfg)
    breaches = 0
    admissible = small_param_check(model).admissible
    rows = []
    var0 = model.sigma0 ** 2 * (1.0 - math.exp(-2.0 * model.kappa * model.t_mat)) \
        / (2.0 * model.kappa) if model.kappa > 0 else model.sigma0 ** 2 * model.t_mat
    for strike, mc in zip(p["strikes"], mc_prices(model, mspec, p["strikes"])):
        cf0 = lambda u: cf_total(u, model, CorrectionConfig(order=0, mode=ccfg.mode))
        px_cf0 = fourier_price(cf0, model.s0, strike, model.r, model.q,
                               model.t_mat, fspec)
        rows.append([strike, "cf-order-0", px_cf0, math.nan,
                     px_cf0 - mc.estimate])
        if model.xi != 0.0 and ccfg.order >= 1:
            cfn = lambda u: cf_total(u, model, ccfg)
            px_cfn = fourier_price(cfn, model.s0, strike, model.r, model.q,
                                   model.t_mat, fspec)
            gap = px_cfn - mc.estimate
            rows.append([strike, f"cf-order-{ccfg.order}", px_cfn, math.nan, gap])
            if check and admissible and abs(gap) > 3.0 * mc.std_error:
                breaches += 1
        rows.append([strike, "mc", mc.estimate, mc.std_error, 0.0])
        if model.xi == 0.0:
            bs = bs_price(model.s0, strike, model.r, model.q, var0, True,
                          model.t_mat)
            rows.append([strike, "bs", bs, math.nan, bs - mc.estimate])
            if check and abs(px_cf0 - bs) > 1e-6 * model.s0:
                breaches += 1
    _write_csv(out_dir, "price.csv", "price", cfg["output"]["format_version"],
               ["strike", "method", "value", "std_error", "gap_to_mc"], rows)
    return breaches


def cmd_varswap(cfg: dict, out_dir: Path, check: bool) -> int:
    model = _model_from(cfg)
    vs = cfg["pricing"]["varswap"]
    try:
        vspec = VarSwapSpec(observation_times=tuple(vs["observation_times"]),
                            u_step=vs["u_step"], mc_states=vs["mc_states"])
    except ValueError as exc:
        raise ConfigError(f"pricing.varswap: {exc}") from exc
    if vspec.observation_times[-1] > model.t_mat * (1.0 + 1e-12):
        raise ConfigError("pricing.varswap: observations beyond the maturity")
    mspec = _mc_spec(cfg)
    breaches = 0
    # one sample of each leg serves both estimators; it is dropped before the
    # realized variance marches its own paths
    legs = varswap_leg_states(model, vspec, mspec)
    k_fd = varswap_strike(model, vspec, legs=legs)
    k_an = varswap_strike_analytic(model, vspec, legs=legs)
    del legs
    qv = mc_quadratic_variation(model, mspec, vspec.observation_times)
    rows = [["fd-richardson", k_fd, math.nan, k_fd - qv.estimate],
            ["affine-analytic", k_an, math.nan, k_an - qv.estimate],
            ["mc-qv", qv.estimate, qv.std_error, 0.0]]
    if model.xi == 0.0:
        T = model.t_mat
        closed = model.sigma0 ** 2 * (1.0 - math.exp(-2.0 * model.kappa * T)) \
            / (2.0 * model.kappa * T) if model.kappa > 0 \
            else model.sigma0 ** 2
        rows.append(["integrated-variance", closed, math.nan, closed - qv.estimate])
        if check and abs(k_fd - closed) > 0.01 * closed:
            breaches += 1
    if check and abs(k_fd - qv.estimate) > 3.0 * max(qv.std_error, 1e-12):
        breaches += 1
    _write_csv(out_dir, "varswap.csv", "varswap", cfg["output"]["format_version"],
               ["method", "value", "std_error", "gap_to_mc"], rows)
    return breaches


def cmd_mc(cfg: dict, out_dir: Path, check: bool) -> int:
    model = _model_from(cfg)
    mspec = _mc_spec(cfg)
    strikes = cfg["pricing"]["strikes"]
    # strike 0 prices the discounted forward off the same paths
    *calls, fwd = mc_prices(model, mspec, strikes + [0.0])
    rows = []
    for strike, st in zip(strikes, calls):
        rows.append([f"call@{_fmt(strike)}", st.estimate, st.std_error,
                     st.n_effective])
    drift_off = fwd.estimate / (model.s0 * math.exp(-model.q * model.t_mat)) - 1.0
    rows.append(["discounted-forward", fwd.estimate, fwd.std_error,
                 fwd.n_effective])
    rows.append(["martingale-offset", drift_off, fwd.std_error / model.s0,
                 fwd.n_effective])
    breaches = 0
    if check and abs(drift_off) > 4.0 * fwd.std_error / model.s0 + 1e-3:
        breaches += 1
    _write_csv(out_dir, "mc.csv", "mc", cfg["output"]["format_version"],
               ["quantity", "estimate", "std_error", "n_effective"], rows)
    return breaches


def cmd_ledger(cfg: dict, out_dir: Path, check: bool) -> int:
    model = _model_from(cfg)
    breaches = 0
    grid = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0]
    gaps = []
    for u in grid:
        za = cf_zero(u, model, MODE_AFFINE)
        zp = cf_zero(u, model, MODE_PAPER) if model.h < 0.5 else complex("nan")
        gaps.append({"u": u, MODE_AFFINE: [za.real, za.imag],
                     MODE_PAPER: [zp.real, zp.imag], "gap_abs": abs(za - zp)})
    T = model.t_mat
    pts = [(t, s, v)
           for t in (0.3 * T, 0.6 * T, 0.9 * T)
           for s in (0.7 * model.sigma0, model.sigma0, 1.3 * model.sigma0)
           for v in (0.5 * model.v0, model.v0)]
    res = {}
    for mode in (MODE_AFFINE, MODE_PAPER):
        if mode == MODE_PAPER and model.h >= 0.5:
            continue
        fn = zero_order_fn(1.0, model, mode)
        st = pde_residual(fn, 1.0, model, pts)
        res[mode] = {"max": st.max_abs, "mean": st.mean_abs, "points": st.n_points}
    if model.xi == 0.0 and check and res[MODE_AFFINE]["max"] > 1e-6:
        breaches += 1
    tau_gap = green_pieces(model).tau_closed_gap if model.h < 0.5 else math.nan
    doc = {
        "config": cfg,
        "zero_order_mode_gap": gaps,
        "pde_residuals": res,
        "tau_closed_vs_quadrature_gap": tau_gap,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ledger.json").write_text(json.dumps(doc, indent=2, sort_keys=True,
                                                    default=float) + "\n")
    return breaches


def cmd_check(cfg: dict, out_dir: Path, check: bool) -> int:
    total = 0
    for fn in (cmd_constants, cmd_figures, cmd_cf, cmd_price, cmd_varswap,
               cmd_mc, cmd_ledger):
        total += fn(cfg, out_dir, True)
    return total


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
    if check and breaches:
        print(f"check: {breaches} tolerance breach(es)", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
