"""Recompute the pinned Monte Carlo references in workloads.py.

    python3 perfbench/mc_reference.py [WORKLOAD ...]

It takes about 15 minutes on one core for all workloads; the workloads'
references are independent, so they can be computed in parallel runs.

The Monte Carlo rows of a run move with --seed.  The benchmark checks each
one against the mean of the same estimator (same model, same time grid) over
REF_PATHS paths drawn from seeds no run uses, within a few combined standard
errors.  This script prints those means with their standard errors, in the
form workloads.MC_REF holds them.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from run import SRC
from workloads import MC_REF_PATHS, MC_REF_SEED, WORKLOADS

sys.path.insert(0, str(SRC))
from adol import cli, montecarlo  # noqa: E402

CHUNK_PATHS = 200_000


def reference(config: dict, with_qv: bool) -> dict:
    """Mean and standard error of every Monte Carlo quantity a workload's
    config prints: the calls at each strike, the discounted forward and, with
    `with_qv`, the realized variance over the variance-swap dates."""
    cfg = cli.load_config(config)
    model, spec = cli._model_from(cfg), cli._mc_spec(cfg)
    strikes = [0.0] + cfg["pricing"]["strikes"]
    df = math.exp(-model.r * model.t_mat)
    n_chunks = MC_REF_PATHS // CHUNK_PATHS
    total, total_sq = np.zeros(len(strikes)), np.zeros(len(strikes))
    qv_means, qv_ses = [], []
    for i in range(n_chunks):
        chunk = dataclasses.replace(spec, n_paths=CHUNK_PATHS, seed=MC_REF_SEED + i)
        s_term = model.s0 * np.exp(montecarlo.simulate_q(model, chunk).x)
        for j, strike in enumerate(strikes):
            pay = df * np.maximum(s_term - strike, 0.0)
            total[j] += pay.sum()
            total_sq[j] += (pay * pay).sum()
        if with_qv:
            qv = montecarlo.mc_quadratic_variation(
                model, chunk, cfg["pricing"]["varswap"]["observation_times"])
            qv_means.append(qv.estimate)
            qv_ses.append(qv.std_error)
    n = n_chunks * CHUNK_PATHS
    mean = total / n
    se = np.sqrt((total_sq / n - mean * mean) / (n - 1))
    out = {("call", strike): (float(m), float(s)) for strike, m, s in zip(strikes, mean, se)}
    if with_qv:
        out[("qv", None)] = (float(np.mean(qv_means)),
                             math.sqrt(sum(s * s for s in qv_ses)) / n_chunks)
    return out


def main(names: list[str]) -> int:
    for name, workload in WORKLOADS.items():
        commands = {args[0] for args in workload.commands}
        if commands == {"cf"} or (names and name not in names):
            continue
        ref = reference(workload.config, bool(commands & {"varswap", "check"}))
        print(f"    {name!r}: {{")
        for key, (m, s) in ref.items():
            print(f"        {key!r}: ({m!r}, {s!r}),")
        print("    },", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
