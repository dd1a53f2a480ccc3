"""End-to-end CLI runs: exit codes, artifact shapes, determinism."""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from adol import cli, montecarlo
from adol.cli import ConfigError, load_config, main


def _write(tmp_path: Path, cfg: dict, name: str = "cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# command=")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows


# ---------------------------------------------------------------- config

def test_empty_config_resolves_to_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, {}))
    assert cfg["model"]["kappa"] == 2.0
    assert cfg["model"]["xi"] == 0.0
    assert cfg["mc"]["seed"] == 20177
    assert cfg["output"]["directory"] == "out"


def test_unknown_key_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"model": {"vol_of_vol": 0.1}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"pricing": {"varswap": {"steps": 3}}}))
    # no field reads these, so naming one is an error, not a silent no-op
    for block, key in (("model", "theta"), ("model", "lambda"), ("model", "mu"),
                       ("cf", "j_method"), ("cf", "v_step"), ("cf", "sigma_step"),
                       ("pricing", "n_points"), ("output", "format_version")):
        with pytest.raises(ConfigError, match=f"unknown key '{block}.{key}'"):
            load_config(_write(tmp_path, {block: {key: 0}}))
    # the paths are plain halves: the antithetic switch is refused, even off
    with pytest.raises(ConfigError, match="unknown key 'mc.antithetic'"):
        load_config(_write(tmp_path, {"mc": {"antithetic": False}}))
    theta = _write(tmp_path, {"model": {"theta": 0.0}}, "theta.json")
    assert main(["constants", "--config", theta, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'model.theta'" in capsys.readouterr().err
    # the leg states come from the mc block's paths, so a separate path count
    # for them would be accepted and ignored
    states = _write(tmp_path, {"pricing": {"varswap": {"mc_states": 2048}}},
                    "states.json")
    assert main(["varswap", "--config", states, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'pricing.varswap.mc_states'" in capsys.readouterr().err
    # the variance-swap stencil step is a constant of the pricer
    step = _write(tmp_path, {"pricing": {"varswap": {"u_step": 1e-2}}}, "step.json")
    assert main(["varswap", "--config", step, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'pricing.varswap.u_step'" in capsys.readouterr().err


@pytest.mark.parametrize("block, key", [("mc", "t_start"), ("model", "eps")])
def test_march_start_is_no_setting(tmp_path, capsys, block, key):
    # the march starts at 0, the CF's clock, so a config cannot move it
    path = _write(tmp_path, {block: {key: 1e-4}})
    assert main(["mc", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert f"unknown key '{block}.{key}'" in capsys.readouterr().err


def test_type_errors_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"model": {"kappa": "two"}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"mc": {"n_paths": 2.5}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"cf": {"mode": "heston"}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"pricing": {"strikes": []}}))


def test_exit_codes_for_bad_configs(tmp_path, capsys):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["constants", "--config", str(bad_json)]) == 1

    # a UTF-16 byte-order mark: the file is not UTF-8 text
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{\x00}\x00")
    capsys.readouterr()
    assert main(["constants", "--config", str(not_utf8),
                 "--out", str(tmp_path / "o5")]) == 1
    assert "config is not UTF-8 text" in capsys.readouterr().err

    bad_model = _write(tmp_path, {"model": {"sigma0": -1.0}})
    assert main(["constants", "--config", bad_model,
                 "--out", str(tmp_path / "o1")]) == 1

    # NaN is valid JSON for Python's reader, but no model parameter
    nan_model = _write(tmp_path, {"model": {"sigma0": float("nan")},
                                  "cf": {"n_u": 3}}, "nan.json")
    capsys.readouterr()
    assert main(["cf", "--config", nan_model, "--out", str(tmp_path / "o3")]) == 1
    assert "model: sigma0 must be finite" in capsys.readouterr().err

    # NaN and infinities pass every range comparison downstream, so every
    # number is refused by name where the config is read
    nan, inf = float("nan"), float("inf")
    for cmd, cfg, msg in (
            ("mc", {"pricing": {"strikes": [nan, 1.0]}}, "pricing: strikes"),
            ("price", {"pricing": {"damping": nan}}, "pricing: damping"),
            ("cf", {"cf": {"u_max": inf, "n_u": 3}}, "cf: u_max"),
            ("varswap", {"pricing": {"varswap": {"observation_times": [0.25, -inf]}}},
             "pricing.varswap: observation_times"),
            ("cf", {"model": {"xi": 10 ** 400}}, "model: xi")):
        path = _write(tmp_path, cfg, "nonfinite.json")
        assert main([cmd, "--config", path, "--out", str(tmp_path / "o4")]) == 1, msg
        assert f"{msg} must be finite" in capsys.readouterr().err, msg

    unknown = _write(tmp_path, {"nope": {}}, "u.json")
    assert main(["constants", "--config", unknown,
                 "--out", str(tmp_path / "o2")]) == 1
    capsys.readouterr()


def test_values_the_grid_rejects_are_config_errors(tmp_path, capsys):
    # only the Monte Carlo grid can tell these apart from good values; they
    # are still refused by key with exit 1, by the commands that read them:
    # an observation time must be a node of the grid, never rounded to one
    cases = (("varswap", {"pricing": {"varswap": {"observation_times": [0.24, 0.5]}},
                          "mc": {"n_steps": 4}},
              "pricing.varswap.observation_times: observation time 0.24 is not a "
              "date of the 4-step grid"),
             ("varswap", {"mc": {"n_steps": 7}},
              "pricing.varswap.observation_times: observation time 0.25 is not a "
              "date of the 7-step grid"),
             ("check", {"model": {"t_mat": 0.3}},
              "pricing.varswap.observation_times: observation time 0.25 is not a "
              "date of the 200-step grid"))
    for cmd, cfg, msg in cases:
        path = _write(tmp_path, cfg, "grid.json")
        assert main([cmd, "--config", path, "--out", str(tmp_path / "o")]) == 1, msg
        assert msg in capsys.readouterr().err


def test_values_the_pricer_rejects_are_config_errors(tmp_path, capsys):
    # the pricer and the CF grid refuse these downstream; the config refuses
    # them first, by key, with exit 1, whichever command reads the config
    cases = (("price", {"pricing": {"strikes": [-1.0]}},
              "pricing: strikes must be positive, got -1.0"),
             ("mc", {"pricing": {"strikes": [1.0, -1.0]}},
              "pricing: strikes must be positive, got -1.0"),
             ("price", {"pricing": {"strikes": [0.0]}},
              "pricing: strikes must be positive, got 0.0"),
             ("price", {"pricing": {"damping": -1.0}},
              "pricing: damping must be positive and finite, got -1.0"),
             ("cf", {"cf": {"n_u": -3}}, "cf: n_u must be at least 1, got -3"),
             ("cf", {"cf": {"n_u": 0}}, "cf: n_u must be at least 1, got 0"))
    for cmd, cfg, msg in cases:
        path = _write(tmp_path, cfg, "pricer.json")
        assert main([cmd, "--config", path, "--out", str(tmp_path / "o")]) == 1, msg
        assert msg in capsys.readouterr().err


def test_check_refuses_its_config_before_writing_artifacts(tmp_path, capsys):
    # the default observation times do not fit a 0.3 maturity; check must
    # say so before the constants, figures and CF work writes anything
    out = tmp_path / "out"
    path = _write(tmp_path, {"model": {"t_mat": 0.3}})
    assert main(["check", "--config", path, "--out", str(out)]) == 1
    assert "pricing.varswap.observation_times" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["resolved_config.json"]


_H_ABOVE_HALF = ({"model": {"h": 0.6, "xi": 0.05}},
                 ("cf.order 1 needs model.h < 1/2", "got h = 0.6"))


@pytest.mark.parametrize("cfg, msgs", [
    _H_ABOVE_HALF,
    ({"model": {"h": 0.6}, "cf": {"mode": "paper-closed-form", "order": 0}},
     ("cf.mode paper-closed-form needs model.h < 1/2, got 0.6",)),
], ids=["corrections", "paper-mode"])
@pytest.mark.parametrize("command", ["cf", "price", "check"])
def test_cf_the_model_cannot_honour_is_a_config_error(tmp_path, capsys, command,
                                                      cfg, msgs):
    # the corrections and the paper mode's slices need H < 1/2; each command
    # that reads the CF refuses them by key before it writes anything
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert all(msg in err for msg in msgs), err
    assert [p.name for p in out.iterdir()] == ["resolved_config.json"]


@pytest.mark.parametrize("command", ["mc", "varswap", "ledger"])
def test_commands_without_the_cf_run_above_half(tmp_path, command):
    cfg = dict(_H_ABOVE_HALF[0], mc={"n_paths": 2000, "n_steps": 20})
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        montecarlo.McSpec(n_paths=16, n_steps=4, seed=-1)
    path = _write(tmp_path, {"mc": {"seed": -3}})
    with pytest.raises(ConfigError, match="mc: seed must be nonnegative, got -3"):
        load_config(path)
    assert main(["mc", "--config", path, "--out", str(tmp_path / "o1")]) == 1
    assert "mc: seed must be nonnegative, got -3" in capsys.readouterr().err
    # the command-line override is refused the same way, before any output
    out = tmp_path / "o2"
    assert main(["mc", "--config", _write(tmp_path, {}, "ok.json"),
                 "--out", str(out), "--seed", "-5"]) == 1
    assert "mc: seed must be nonnegative, got -5" in capsys.readouterr().err
    assert not out.exists()
    # no ceiling above: a seed past 2**128 is a seed like any other
    assert main(["mc", "--config", _write(tmp_path, {"mc": {"n_paths": 8, "n_steps": 2}},
                                          "big.json"),
                 "--out", str(tmp_path / "o3"), "--seed", str(2 ** 130)]) == 0


@pytest.mark.parametrize("mc", [{"n_paths": 1}], ids=["one-path"])
def test_one_independent_unit_is_a_config_error(tmp_path, capsys, mc):
    # one path's standard error is 0, which the martingale gate reads as
    # certainty: one path of 5 steps would exit 3 on an offset nothing sizes
    path = _write(tmp_path, {"mc": dict(mc, n_steps=5)})
    out = tmp_path / "o"
    assert main(["mc", "--config", path, "--out", str(out), "--check"]) == 1
    err = capsys.readouterr().err
    assert f"mc: n_paths must be at least 2: a standard error needs two paths, " \
           f"got {mc['n_paths']}" in err
    assert not out.exists()
    # two paths give a standard error, and the gate a scale
    path = _write(tmp_path, {"mc": dict(mc, n_paths=2 * mc["n_paths"], n_steps=5)})
    assert main(["mc", "--config", path, "--out", str(out)]) == 0


def test_observation_schedule_binds_only_the_variance_swap(tmp_path):
    # the default schedule (0.25, 0.5) does not fit these grids, and only
    # varswap and check read it
    mc = {"n_paths": 200, "n_steps": 20}
    for cmd, cfg in (("price", {"model": {"t_mat": 0.3}, "mc": mc}),
                     ("mc", {"model": {"t_mat": 0.3}, "mc": mc}),
                     ("mc", {"mc": dict(mc, n_steps=7)})):
        path = _write(tmp_path, cfg, "short.json")
        assert main([cmd, "--config", path, "--out", str(tmp_path / "o")]) == 0, cfg


def test_overflowing_march_is_a_numerical_failure(tmp_path, capsys):
    cfg = {"model": {"m_rho": -20.0, "xi": 5.0}, "mc": {"n_paths": 64, "n_steps": 50}}
    path = _write(tmp_path, cfg)
    assert main(["mc", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure: the march left a non-finite" in capsys.readouterr().err


# ------------------------------------------------------------- artifacts

def test_constants_artifact(tmp_path):
    cfgp = _write(tmp_path, {})
    out = tmp_path / "out"
    assert main(["constants", "--config", cfgp, "--out", str(out)]) == 0
    meta, rows = _read_csv(out / "constants.csv")
    assert "command=constants" in meta
    assert rows[0][0] == "h"
    assert len(rows) == 100  # header + 99 levels
    assert rows[1][0] == "0.01" and rows[-1][0] == "0.99"
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["output"]["directory"] == str(out)


def test_price_artifact(tmp_path):
    cfgp = _write(tmp_path, {"pricing": {"strikes": [0.9, 1.0]},
                             "mc": {"n_paths": 4000, "n_steps": 50}})
    out = tmp_path / "out"
    # xi = 0 default arms the closed-form cross-check on every strike
    assert main(["price", "--config", cfgp, "--out", str(out), "--check"]) == 0
    _, rows = _read_csv(out / "price.csv")
    assert rows[0] == ["strike", "method", "value", "std_error", "gap_to_mc"]
    by_strike = {}
    for r in rows[1:]:
        by_strike.setdefault(r[0], set()).add(r[1])
    assert by_strike == {"0.9": {"cf-order-0", "mc", "bs"},
                         "1.0": {"cf-order-0", "mc", "bs"}}
    vals = {(r[0], r[1]): float(r[2]) for r in rows[1:]}
    # deeper strike is worth more for a call, both routes
    assert vals[("0.9", "cf-order-0")] > vals[("1.0", "cf-order-0")]
    assert abs(vals[("0.9", "cf-order-0")] - vals[("0.9", "bs")]) <= 1e-6


def test_figures_artifacts(tmp_path):
    cfgp = _write(tmp_path, {})
    out = tmp_path / "out"
    # --check arms the 10 bps route gap and the a2 < 0 sweep; both hold
    assert main(["figures", "--config", cfgp, "--out", str(out),
                 "--check"]) == 0
    for name in ("fig1_integrand.csv", "fig2_integrand.csv", "fig3_j_gap.csv",
                 "fig4_a2.csv", "fig5_f_vs_t.csv", "fig6_f_vs_h.csv"):
        assert (out / name).exists(), name

    _, rows = _read_csv(out / "fig3_j_gap.csv")
    gaps = sorted(float(r[5]) for r in rows[1:])
    assert len(gaps) == 100
    assert gaps[-1] <= 10.0          # closed form within 10 bps everywhere
    assert gaps[len(gaps) // 2] <= 10.0

    _, rows = _read_csv(out / "fig4_a2.csv")
    assert all(float(r[1]) < 0.0 for r in rows[1:])

    # f(h, t) falls as maturity grows, in both table orientations
    _, rows = _read_csv(out / "fig5_f_vs_t.csv")
    for col in range(1, 5):
        vals = [float(r[col]) for r in rows[1:]]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    _, rows = _read_csv(out / "fig6_f_vs_h.csv")
    for r in rows[1:]:
        vals = [float(x) for x in r[1:]]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_reruns_identical_after_timestamp_line(tmp_path):
    cfgp = _write(tmp_path, {})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["constants", "--config", cfgp, "--out", str(out1)]) == 0
    assert main(["constants", "--config", cfgp, "--out", str(out2)]) == 0
    a = (out1 / "constants.csv").read_text().splitlines()
    b = (out2 / "constants.csv").read_text().splitlines()
    assert a[0] != b[0] or a[0].split("generated=")[0] == b[0].split("generated=")[0]
    assert a[1:] == b[1:]


def test_seed_override_lands_in_resolved_config(tmp_path):
    cfgp = _write(tmp_path, {"mc": {"seed": 1}})
    out = tmp_path / "out"
    assert main(["constants", "--config", cfgp, "--out", str(out),
                 "--seed", "777"]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["mc"]["seed"] == 777


def test_cf_artifact_normalized_at_zero(tmp_path):
    cfgp = _write(tmp_path, {"cf": {"n_u": 5, "u_max": 2.0}})
    out = tmp_path / "out"
    assert main(["cf", "--config", cfgp, "--out", str(out)]) == 0
    _, rows = _read_csv(out / "cf.csv")
    header, first = rows[0], rows[1]
    assert header[:3] == ["u", "affine0_re", "affine0_im"]
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[2]) == 0.0
    assert len(rows) == 6


def test_cf_artifact_has_no_paper_column_above_half(tmp_path):
    # the closed-form slices exist only for H < 1/2: at h = 0.6 (xi = 0, so
    # the affine orders run) both parts of the paper CF and the mode gap
    # read nan, not a plausible 0.0
    cfgp = _write(tmp_path, {"model": {"h": 0.6}, "cf": {"n_u": 4, "u_max": 3.0}})
    out = tmp_path / "out"
    assert main(["cf", "--config", cfgp, "--out", str(out)]) == 0
    _, rows = _read_csv(out / "cf.csv")
    header = rows[0]
    paper = [header.index(c) for c in ("paper0_re", "paper0_im", "mode_gap_abs")]
    assert len(rows) == 5
    for row in rows[1:]:
        assert all(math.isnan(float(row[i])) for i in paper), row
        assert all(math.isfinite(float(x)) for i, x in enumerate(row) if i not in paper), row


def test_paper_cf_at_order_two_checks_in_under_a_second(tmp_path):
    # the paper mode's z2 takes V's law in closed form, as the affine one
    # does: about 10 ms per u, where the Hermite-stencil kernel took 3.4 s
    model = {"s0": 1.0, "sigma0": 0.3, "v0": 5.0, "kappa": 2.0, "xi": 0.05,
             "rho": -0.5, "h": 0.3, "m_rho": 1.0, "m_pi": 0.5, "t_mat": 0.5}
    cfgp = _write(tmp_path, {"model": model, "cf": {"mode": "paper-closed-form",
                                                    "order": 2, "n_u": 6}})
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["cf", "--config", cfgp, "--out", str(out), "--check"]) == 0
    assert time.perf_counter() - start < 1.0
    _, rows = _read_csv(out / "cf.csv")
    assert len(rows) == 7
    assert all(math.isfinite(float(x)) for row in rows[1:] for x in row)


def test_mc_artifact_and_martingale_line(tmp_path):
    cfgp = _write(tmp_path, {
        "mc": {"n_paths": 4000, "n_steps": 25},
        "pricing": {"strikes": [1.0]},
    })
    out = tmp_path / "out"
    assert main(["mc", "--config", cfgp, "--out", str(out), "--check"]) == 0
    _, rows = _read_csv(out / "mc.csv")
    names = [r[0] for r in rows[1:]]
    assert names == ["call@1.0", "discounted-forward", "martingale-offset"]


@pytest.mark.parametrize("model, forward", [
    # e^(-q T) at q = 0.08 and T = 2
    ({"q": 0.08, "t_mat": 2.0}, math.exp(-0.16)),
    # the march starts at 0, so at r = 0.05 and q = 0 the forward it prices
    # is s0 itself
    ({"r": 0.05}, 1.0),
], ids=["dividend", "rate"])
def test_martingale_offset_is_relative_to_the_marched_forward(tmp_path, model, forward):
    # the march prices the discounted forward s0 e^(-q T); the offset and
    # its standard error are both relative to it
    cfgp = _write(tmp_path, {"model": model, "pricing": {"strikes": [1.0]},
                             "mc": {"n_paths": 20_000, "n_steps": 50}})
    out = tmp_path / "out"
    assert main(["mc", "--config", cfgp, "--out", str(out), "--check"]) == 0
    _, rows = _read_csv(out / "mc.csv")
    got = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
    fwd, fwd_se = got["discounted-forward"]
    off, off_se = got["martingale-offset"]
    assert off == pytest.approx(fwd / forward - 1.0, rel=1e-12)
    assert off_se == pytest.approx(fwd_se / forward, rel=1e-12)


def test_huge_spot_keeps_finite_standard_errors(tmp_path):
    # payoffs near 1e200 square past the float range: an infinite standard
    # error would read as no evidence, and switch every --check gate off
    cfgp = _write(tmp_path, {"model": {"s0": 1e200}, "pricing": {"strikes": [1e200]},
                             "mc": {"n_paths": 2000, "n_steps": 20}})
    out = tmp_path / "out"
    assert main(["mc", "--config", cfgp, "--out", str(out), "--check"]) == 0
    _, rows = _read_csv(out / "mc.csv")
    assert [r[0] for r in rows[1:]] == ["call@1e+200", "discounted-forward",
                                        "martingale-offset"]
    for row in rows[1:]:
        assert 0.0 < float(row[2]) < math.inf, row


def _strict_json(text: str):
    """json.loads that refuses NaN and the infinities, which JSON lacks."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_ledger_artifact_contents(tmp_path):
    cfgp = _write(tmp_path, {})
    out = tmp_path / "out"
    assert main(["ledger", "--config", cfgp, "--out", str(out), "--check"]) == 0
    doc = _strict_json((out / "ledger.json").read_text())
    assert set(doc) == {"config", "zero_order_mode_gap", "pde_residuals",
                        "tau_closed_vs_quadrature_gap"}
    assert doc["pde_residuals"]["affine-ode"]["max"] <= 1e-6
    # the closed-form mode's residual is recorded without a tolerance
    assert doc["pde_residuals"]["paper-closed-form"]["max"] > 0.0
    assert doc["tau_closed_vs_quadrature_gap"] == pytest.approx(
        0.16642248752948324, rel=1e-6)
    gap0 = doc["zero_order_mode_gap"][0]
    assert gap0["u"] == 0.0 and gap0["gap_abs"] <= 1e-12


def test_ledger_is_strict_json_above_half(tmp_path):
    # at h = 0.6 the paper mode and the exponential-integral clock have no
    # value: the ledger writes null for each, never a bare NaN token
    out = tmp_path / "out"
    cfgp = _write(tmp_path, {"model": {"h": 0.6}})
    assert main(["ledger", "--config", cfgp, "--out", str(out)]) == 0
    doc = _strict_json((out / "ledger.json").read_text())
    assert doc["tau_closed_vs_quadrature_gap"] is None
    for gap in doc["zero_order_mode_gap"]:
        assert gap["paper-closed-form"][0] is None and gap["gap_abs"] is None, gap
        assert all(math.isfinite(x) for x in gap["affine-ode"]), gap
    assert list(doc["pde_residuals"]) == ["affine-ode"]


def test_ledger_probes_a_short_maturity(tmp_path):
    # the residual's t step is relative: at T = 5e-4 the probe's first time,
    # 1.5e-4, was once inside an absolute step of 2e-4 and refused
    cfgp = _write(tmp_path, {"model": {"t_mat": 0.0005}})
    out = tmp_path / "out"
    assert main(["ledger", "--config", cfgp, "--out", str(out), "--check"]) == 0
    doc = _strict_json((out / "ledger.json").read_text())
    assert doc["pde_residuals"]["affine-ode"]["max"] <= 1e-6


# ------------------------------------------------------------ exit codes

def test_numerical_failure_exit_code(tmp_path, capsys):
    # a reversion speed far below zero: the first-order rule cannot meet
    # its tolerance, which is a numerical failure, not a config error
    cfgp = _write(tmp_path, {"model": {"m_rho": -400.0, "xi": 0.05},
                             "cf": {"order": 1, "n_u": 3, "u_max": 1.0}})
    out = tmp_path / "out"
    assert main(["cf", "--config", cfgp, "--out", str(out)]) == 2
    assert "numerical failure: tanh-sinh rule for z1 missed its tolerance" \
        in capsys.readouterr().err


def test_exhausted_memory_exits_2_and_says_so(tmp_path, capsys, monkeypatch):
    # numpy's failed allocation once escaped main as a traceback with exit 1,
    # the code of a bad config; the march here fails without allocating
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(montecarlo, "_march", exhausted)
    path = _write(tmp_path, {"mc": {"n_paths": 64, "n_steps": 20}})
    assert main(["mc", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "out of memory: Unable to allocate 7.28 TiB for an array\n"


def test_non_finite_cf_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a CF that is NaN near u = 40 once gave nan prices, which no --check
    # gate can trip on, and exit 0
    cf_values = cli.cf_values
    monkeypatch.setattr(cli, "cf_values", lambda u, model, cfg: np.where(
        (39.0 < u.real) & (u.real < 41.0), math.nan, cf_values(u, model, cfg)))
    path = _write(tmp_path, {"mc": {"n_paths": 64, "n_steps": 20}})
    assert main(["price", "--check", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure: integrand is not finite on the panel [37.5, 75.0]" \
        in capsys.readouterr().err


def test_very_rough_h_is_named_not_misreported(tmp_path, capsys):
    # at h = 0.01 the flow tables' nodes nearest the origin put
    # nu(r)^2 = B_H^2 r^(2h-1) out of float range: each command that reads
    # V's law names h, not a NaN tolerance miss (cf) or an e^(2M(T))
    # overflow that has not happened (mc, varswap, price)
    path = _write(tmp_path, {"model": {"h": 0.01, "xi": 0.05}, "cf": {"n_u": 3},
                             "mc": {"n_paths": 64, "n_steps": 20}})
    for cmd in ("cf", "mc", "varswap", "price"):
        assert main([cmd, "--config", path, "--out", str(tmp_path / cmd)]) == 2, cmd
        assert "V's law is out of float range at h = 0.01" in capsys.readouterr().err
    # at h = 0.03 the tables are finite on order 1's time rule, and order 2's
    # finer time nodes, which gave a NaN CF, are refused
    cfg = {"model": {"h": 0.03, "xi": 0.05}, "cf": {"n_u": 3, "u_max": 1.0}}
    assert main(["cf", "--config", _write(tmp_path, cfg), "--out",
                 str(tmp_path / "o1")]) == 0
    cfg["cf"]["order"] = 2
    assert main(["cf", "--config", _write(tmp_path, cfg), "--out",
                 str(tmp_path / "o2")]) == 2
    assert "out of float range at h = 0.03" in capsys.readouterr().err


@pytest.mark.parametrize("model", [{"h": 0.03, "xi": 0.05},
                                   {"xi": 0.2, "h": 0.1, "m_rho": 3.0}])
def test_varswap_leg_out_of_float_range_is_named(tmp_path, capsys, model):
    # V_t1's variance is so wide at t1 = 0.25 that E[sigma_t1^4] overflows:
    # both strikes refuse the leg by name, with no numpy warning on the way
    # and no bare "math range error"
    path = _write(tmp_path, {"model": model, "mc": {"n_paths": 64, "n_steps": 20}})
    assert main(["varswap", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "numerical failure: the vol law of the variance-swap leg (0.25, 0.5) is out " \
        f"of float range at h = {model['h']}" in capsys.readouterr().err


@pytest.mark.parametrize("model, f_ht", [({"h": 0.03, "xi": 0.05}, 0.000141616),
                                         ({"xi": 0.2, "h": 0.1, "m_rho": 3.0}, 0.00627627)])
def test_price_failure_outside_the_admissible_region_says_so(tmp_path, capsys, model, f_ht):
    # the order-1 CF is far outside small_param_check's region here, and its
    # inversion gives a materially negative price; the refusal names the cause
    path = _write(tmp_path, {"model": model, "mc": {"n_paths": 64, "n_steps": 20}})
    assert main(["price", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "inversion produced a materially negative price" in err
    assert "the model is outside the expansion's admissible region: " \
        f"xi = {model['xi']} exceeds 0.25 f(H, T) = {f_ht}" in err


def test_varswap_check_flags_coarse_schedule(tmp_path, capsys):
    # one annual observation on a high-rate model: the drift-squared term
    # dominates the continuous integrated variance, an honest breach
    cfgp = _write(tmp_path, {
        "model": {"sigma0": 0.2, "kappa": 0.01, "xi": 0.0, "t_mat": 2.0,
                  "r": 0.5},
        "pricing": {"varswap": {"observation_times": [2.0]}},
        "mc": {"n_paths": 4000, "n_steps": 50},
    })
    out = tmp_path / "out"
    assert main(["varswap", "--config", cfgp, "--out", str(out),
                 "--check"]) == 3
    capsys.readouterr()
    _, rows = _read_csv(out / "varswap.csv")
    vals = {r[0]: float(r[1]) for r in rows[1:]}
    assert vals["fd-richardson"] > 2.0 * vals["integrated-variance"]


def test_varswap_clean_schedule_passes(tmp_path):
    cfgp = _write(tmp_path, {
        "pricing": {"varswap": {"observation_times": [0.125, 0.25, 0.375, 0.5]}},
        "mc": {"n_paths": 8000, "n_steps": 100},
    })
    out = tmp_path / "out"
    assert main(["varswap", "--config", cfgp, "--out", str(out),
                 "--check"]) == 0
    _, rows = _read_csv(out / "varswap.csv")
    names = [r[0] for r in rows[1:]]
    assert names == ["fd-richardson", "affine-analytic", "mc-qv",
                     "integrated-variance"]


def test_tiny_kappa_reaches_the_lognormal_limit(tmp_path):
    # (1 - exp(-2 kappa T)) / (2 kappa) cancels to a few digits at kappa =
    # 1e-13; the unit response keeps the limit sigma0^2 T
    cfgp = _write(tmp_path, {"model": {"kappa": 1e-13},
                             "pricing": {"strikes": [0.9, 1.0, 1.1]},
                             "mc": {"n_paths": 2000, "n_steps": 20}})
    out = tmp_path / "out"
    assert main(["price", "--config", cfgp, "--out", str(out), "--check"]) == 0
    assert main(["varswap", "--config", cfgp, "--out", str(out)]) == 0
    _, rows = _read_csv(out / "varswap.csv")
    closed = {r[0]: float(r[1]) for r in rows[1:]}["integrated-variance"]
    assert closed == pytest.approx(0.3 ** 2, rel=1e-12)


# ------------------------------------------------------ Monte Carlo rows

# A small xi > 0 config whose Monte Carlo rows are pinned below.  Each
# command reads them off its own march, and `adol check` off one march
# shared by price, varswap and mc: both must reproduce them bit for bit.
_PIN_CFG = {"model": {"xi": 0.05}, "pricing": {"strikes": [0.9, 1.0, 1.1]},
            "mc": {"n_paths": 2000, "n_steps": 20, "seed": 7}}

_PIN_MC = {
    "call@0.9": (0.11606881147870207, 0.0024899252876931163),
    "call@1.0": (0.053619387847110726, 0.0018004272578365337),
    "call@1.1": (0.018325555364206332, 0.0010626887301372053),
    "discounted-forward": (0.9996702470496314, 0.00298559537405075),
    "martingale-offset": (-0.0003297529503686336, 0.00298559537405075),
}


# varswap.csv on _PIN_CFG, as written: both strikes are expectations over
# the exact law of the leg's vol, 3.8e-10 relative apart; only the realized
# variance (mc-qv) is a Monte Carlo value
_PIN_VARSWAP = [
    ["fd-richardson", "0.03873700994416751", "nan", "0.0018143901784333158"],
    ["affine-analytic", "0.038737009958792104", "nan", "0.001814390193057909"],
    ["mc-qv", "0.036922619765734195", "0.000919402582904844", "0.0"],
]


def test_mc_rows_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["mc", "--config", _write(tmp_path, _PIN_CFG), "--out", str(out)]) == 0
    _, rows = _read_csv(out / "mc.csv")
    assert {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]} == _PIN_MC


def test_price_mc_rows_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["price", "--config", _write(tmp_path, _PIN_CFG),
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out / "price.csv")
    got = {r[0]: (float(r[2]), float(r[3])) for r in rows[1:] if r[1] == "mc"}
    assert got == {k[len("call@"):]: v for k, v in _PIN_MC.items()
                   if k.startswith("call@")}


def test_varswap_rows_pinned(tmp_path):
    out = tmp_path / "out"
    assert main(["varswap", "--config", _write(tmp_path, _PIN_CFG),
                 "--out", str(out)]) == 0
    assert _read_csv(out / "varswap.csv")[1][1:] == _PIN_VARSWAP


def test_check_mc_rows_pinned(tmp_path, capsys):
    # price, varswap and mc of `adol check` read one path set, which holds
    # the terminal states and the realized variance's snapshots
    out = tmp_path / "out"
    assert main(["check", "--config", _write(tmp_path, _PIN_CFG),
                 "--out", str(out)]) == 3
    capsys.readouterr()
    _, rows = _read_csv(out / "mc.csv")
    assert {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]} == _PIN_MC
    _, rows = _read_csv(out / "price.csv")
    got = {r[0]: (float(r[2]), float(r[3])) for r in rows[1:] if r[1] == "mc"}
    assert got == {k[len("call@"):]: v for k, v in _PIN_MC.items()
                   if k.startswith("call@")}
    assert _read_csv(out / "varswap.csv")[1][1:] == _PIN_VARSWAP


@pytest.mark.parametrize("command, cfg, code, sims", [
    ("mc", _PIN_CFG, 0, 1),
    ("price", _PIN_CFG, 0, 1),
    # the strikes march nothing; the realized variance marches once
    ("varswap", _PIN_CFG, 0, 1),
    # price, mc and the realized variance share one march, at xi = 0 and
    # at xi > 0 alike
    ("check", {}, 3, 1),
    ("check", _PIN_CFG, 3, 1),
], ids=["mc", "price", "varswap", "check", "check-xi"])
def test_simulations_per_command(tmp_path, monkeypatch, capsys, command, cfg,
                                 code, sims):
    calls = []
    run = montecarlo._run

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return run(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_run", counted)
    assert main([command, "--config", _write(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == code
    capsys.readouterr()
    assert len(calls) == sims
