"""Fast self-test of the benchmark harness, on every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it makes one untraced and two traced runs of a shrunken
copy and asserts that:
  * every metric BENCHMARK.json names is emitted, with its unit;
  * the outputs pass their checks, traced and untraced alike;
  * the counts repeat between the two traced runs;
  * span self times are non-negative and add up to their root span.
It also removes two hooked functions from a loaded package and asserts that
the tracer reports them as absent instead of failing.  Exits 1 on a failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import tracer
from workloads import WORKLOADS

# Fewer strikes, u points and paths; the time grids stay, as the Monte Carlo
# references in workloads.py hold for the workloads' own grids.
TINY = {
    "smile_o1": {"pricing": {"strikes": [1.0]}, "mc": {"n_paths": 2000}},
    "cf_o2": {"cf": {"n_u": 1}},
    "mc_oracle": {"mc": {"n_paths": 2000}},
    "check_default": {},
}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print(f"FAIL {what}", flush=True)


def merged(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, val in over.items():
        out[key] = merged(base.get(key, {}), val) if isinstance(val, dict) else val
    return out


def expect_metrics(name: str, outcome: dict, units: dict) -> None:
    result = outcome["result"]
    expect(result["correct"], f"{name}: checks pass "
           f"({[f'{c.label}: {c.detail}' for c in outcome['failures']]})")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(got == units, f"{name}: metrics and units {sorted(set(got.items()) ^ set(units.items()))}")


def expect_self_times(name: str, spans: list) -> None:
    own = tracer.self_times(spans)
    expect(all(t >= 0 for t in own), f"{name}: self times are non-negative")
    root, total = [], {}
    for i, span in enumerate(spans):
        parent = span[3]
        root.append(i if parent < 0 else root[parent])
        total[root[i]] = total.get(root[i], 0) + own[i]
    for i, summed in total.items():
        expect(summed == spans[i][2] - spans[i][1],
               f"{name}: self times sum to the {spans[i][0]} span")


def check_absent() -> None:
    sys.path.insert(0, str(run.SRC))
    import adol.charfn
    import adol.montecarlo

    saved = adol.charfn._affine_unit_curve, adol.montecarlo._run
    del adol.charfn._affine_unit_curve, adol.montecarlo._run
    try:
        t = tracer.Tracer()
        t.install()
        t.reset_caches()
        expect({"charfn.cache.affine_unit_curve", "montecarlo.simulation"} <= set(t.absent),
               f"removed functions reported absent: {t.absent}")
        expect(list(tracer.layer_metrics([], t.cache_stats)) == list(tracer.UNITS),
               "every layer metric emitted when functions are absent")
    finally:
        adol.charfn._affine_unit_curve, adol.montecarlo._run = saved


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json lists every workload")
    work = run.WORK / "selftest"
    for name, workload in WORKLOADS.items():
        tiny = dataclasses.replace(workload, config=merged(workload.config, TINY[name]))
        print(f"{name} ...", flush=True)
        expect_metrics(name, run.measure(tiny, 1, 0, trace=False, work=work), e2e)
        first, second = (run.measure(tiny, 1, 0, trace=True, work=work) for _ in range(2))
        for outcome in (first, second):
            expect_metrics(f"{name} traced", outcome, layer)
            expect_self_times(name, outcome["traces"][0]["spans"])
        a, b = first["traces"][0]["metrics"], second["traces"][0]["metrics"]
        for metric, unit in tracer.UNITS.items():
            if unit in tracer.DETERMINISTIC_UNITS:
                expect(a[metric] == b[metric], f"{name}: {metric} repeats ({a[metric]}, {b[metric]})")
    check_absent()
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failure(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
