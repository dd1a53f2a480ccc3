"""End-to-end CLI runs: exit codes, artifact shapes, determinism."""

import csv
import json
from pathlib import Path

import pytest

from adol import montecarlo
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
    assert cfg["pricing"]["varswap"]["u_step"] == 1e-2
    assert cfg["output"]["directory"] == "out"


def test_unknown_key_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"model": {"vol_of_vol": 0.1}}))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, {"pricing": {"varswap": {"steps": 3}}}))
    # no field reads these, so naming one is an error, not a silent no-op
    for block, key in (("model", "theta"), ("model", "lambda"), ("model", "mu"),
                       ("cf", "j_method"), ("pricing", "n_points")):
        with pytest.raises(ConfigError, match=f"unknown key '{block}.{key}'"):
            load_config(_write(tmp_path, {block: {key: 0}}))
    theta = _write(tmp_path, {"model": {"theta": 0.0}}, "theta.json")
    assert main(["constants", "--config", theta, "--out", str(tmp_path / "o")]) == 1
    assert "unknown key 'model.theta'" in capsys.readouterr().err


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
            ("mc", {"mc": {"t_start": nan}}, "mc: t_start"),
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


def test_ledger_artifact_contents(tmp_path):
    cfgp = _write(tmp_path, {})
    out = tmp_path / "out"
    assert main(["ledger", "--config", cfgp, "--out", str(out), "--check"]) == 0
    doc = json.loads((out / "ledger.json").read_text())
    assert set(doc) == {"config", "zero_order_mode_gap", "pde_residuals",
                        "tau_closed_vs_quadrature_gap"}
    assert doc["pde_residuals"]["affine-ode"]["max"] <= 1e-6
    # the closed-form mode's residual is recorded without a tolerance
    assert doc["pde_residuals"]["paper-closed-form"]["max"] > 0.0
    assert doc["tau_closed_vs_quadrature_gap"] == pytest.approx(
        0.16642248752948324, rel=1e-6)
    gap0 = doc["zero_order_mode_gap"][0]
    assert gap0["u"] == 0.0 and gap0["gap_abs"] <= 1e-12


# ------------------------------------------------------------ exit codes

def test_numerical_failure_exit_code(tmp_path, capsys):
    # smooth regime plus corrections: the rough-kernel machinery refuses
    cfgp = _write(tmp_path, {"model": {"h": 0.6, "xi": 0.05},
                             "cf": {"order": 1, "n_u": 3, "u_max": 1.0}})
    out = tmp_path / "out"
    assert main(["cf", "--config", cfgp, "--out", str(out)]) == 2
    capsys.readouterr()


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


# ------------------------------------------------------ Monte Carlo rows

# A small xi > 0 config whose Monte Carlo rows are pinned below.  The pins
# come from the earlier code, which simulated once per strike: reading every
# strike off one simulation must reproduce them bit for bit.
_PIN_CFG = {"model": {"xi": 0.05}, "pricing": {"strikes": [0.9, 1.0, 1.1]},
            "mc": {"n_paths": 2000, "n_steps": 20, "seed": 7}}

_PIN_MC = {
    "call@0.9": (0.11722882343280572, 0.00262426131934714),
    "call@1.0": (0.055734681019069914, 0.0019439237886529378),
    "call@1.1": (0.020831394572901125, 0.001227161006837809),
    "discounted-forward": (0.998643235788976, 0.0031818416204553576),
    "martingale-offset": (-0.0013567642110240419, 0.0031818416204553576),
}


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


@pytest.mark.parametrize("command, cfg, code, sims", [
    ("mc", _PIN_CFG, 0, 1),
    ("price", _PIN_CFG, 0, 1),
    # two legs: the first starts at inception and needs no states; the
    # second leg's states are drawn once and shared by the stencil and the
    # analytic cross-check, and the realized variance takes one more
    ("varswap", _PIN_CFG, 0, 2),
    # at xi = 0 no leg draws states: price, mc and the realized variance
    ("check", {}, 3, 3),
], ids=["mc", "price", "varswap", "check"])
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
