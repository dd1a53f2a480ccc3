"""Traced run of one workload: `adol.cli.main(argv)` per command, in this
process, with every layer wrapped from outside the package.

    python3 perfbench/tracer.py SPEC.json RESULT.json

SPEC.json holds {"commands": [[arg, ...], ...]}: the full argument list of
each `adol` command.  The tracer replaces each hooked function in every
`adol` module namespace that holds it (for example `adol.cli.cf_total` and
`adol.charfn.cf_total`) by a wrapper that records a span: name, start, end,
parent.  Spans stay in memory; at the end RESULT.json receives the exit
codes, the spans and the per-layer metrics derived from them.  A hooked
function that the package no longer defines is reported as absent.

Between commands the per-model caches are cleared, as a fresh `adol`
process would start with them empty.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, module that defines it, attribute)
HOOKS = [
    ("charfn.cf_total", "adol.charfn", "cf_total"),
    ("charfn.cf_zero", "adol.charfn", "cf_zero"),
    ("charfn.j_integral", "adol.charfn", "j_integral"),
    ("charfn.pde_residual", "adol.charfn", "pde_residual"),
    ("pricing.fourier_price", "adol.pricing", "fourier_price"),
    ("pricing.forward_cf", "adol.pricing", "forward_cf"),
    ("pricing.varswap_strike", "adol.pricing", "varswap_strike"),
    ("pricing.varswap_strike_analytic", "adol.pricing", "varswap_strike_analytic"),
    ("montecarlo.mc_price", "adol.montecarlo", "mc_price"),
    ("montecarlo.mc_quadratic_variation", "adol.montecarlo", "mc_quadratic_variation"),
    # every simulation, whichever public function asked for it
    ("montecarlo.simulation", "adol.montecarlo", "_run"),
    ("numerics.integrate_adaptive", "adol.numerics", "integrate_adaptive"),
    ("numerics.integrate_ode", "adol.numerics", "integrate_ode"),
    ("do_process.do_constants", "adol.do_process", "do_constants"),
    ("cli.load_config", "adol.cli", "load_config"),
]

# per-model caches: metric name -> cached builder in adol.charfn
CACHES = {
    "affine_unit_curve": "_affine_unit_curve",
    "flow_tables": "_flow_tables",
    "green_build": "_green_build",
}

COMMANDS = ("price", "cf", "mc", "varswap", "check")

# every per-layer metric, with its unit, in report order
UNITS = {
    "charfn.cf_total.calls.o0": "count",
    "charfn.cf_total.calls.o1": "count",
    "charfn.cf_total.calls.o2": "count",
    "charfn.cf_total.ms_per_call.o1": "ms",
    "charfn.cf_total.ms_per_call.o2": "ms",
    "charfn.cf_unique_ratio.o0": "ratio",
    "charfn.cf_unique_ratio.o1": "ratio",
    **{f"charfn.cache.{c}.{k}": "count" for c in CACHES for k in ("hits", "misses")},
    "charfn.j_integral.calls": "count",
    "charfn.j_integral.s": "s",
    "charfn.pde_residual.s": "s",
    "charfn.cf_zero.calls": "count",
    "charfn.cf_zero.s": "s",
    "pricing.fourier_price.calls": "count",
    "pricing.fourier_price.self_s": "s",
    "pricing.cf_calls_per_price": "ratio",
    "pricing.varswap_strike.s": "s",
    "pricing.varswap_strike_analytic.s": "s",
    "pricing.forward_cf.calls": "count",
    "montecarlo.sims": "count",
    "montecarlo.sim_unique_ratio": "ratio",
    "montecarlo.path_steps": "count",
    "montecarlo.path_steps_per_s": "1/s",
    "montecarlo.mc_price.s": "s",
    "montecarlo.mc_quadratic_variation.s": "s",
    "numerics.integrate_adaptive.calls": "count",
    "numerics.integrate_adaptive.evals": "count",
    "numerics.integrate_adaptive.failures": "count",
    "numerics.integrate_ode.calls": "count",
    "numerics.integrate_ode.s": "s",
    "do_process.do_constants.calls": "count",
    "do_process.do_constants.s": "s",
    **{f"cli.{c}.s": "s" for c in COMMANDS},
    "cli.load_config.s": "s",
}

# metrics that depend on the inputs only, never on timing: they must repeat
# exactly between traced runs of one seed
DETERMINISTIC_UNITS = ("count", "ratio")


class Tracer:
    """Spans in memory: [name, start_ns, end_ns, parent index, info dict]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.cache_stats = {c: [0, 0] for c in CACHES}

    def open(self, name: str, info: dict) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, info])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        describe = _DESCRIBE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, describe(args, kwargs) if describe else {})
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.spans[idx][4]["failed"] = True
                raise
            finally:
                self.close(idx)
        return wrapper

    def wrap_integrate(self, name: str, fn):
        """Like wrap, and counts evaluations by wrapping the integrand."""
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            idx = self.open(name, {})
            try:
                return fn(counted, *args, **kwargs)
            except Exception:
                self.spans[idx][4]["failed"] = True
                raise
            finally:
                self.spans[idx][4]["evals"] = evals
                self.close(idx)
        return wrapper

    def install(self) -> None:
        """Wrap every hooked function in each adol namespace that holds it."""
        importlib.import_module("adol.cli")  # imports every adol module
        modules = _adol_modules()
        for name, mod_name, attr in HOOKS:
            fn = getattr(importlib.import_module(mod_name), attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            wrapper = (self.wrap_integrate if name == "numerics.integrate_adaptive"
                       else self.wrap)(name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
        charfn = importlib.import_module("adol.charfn")
        for cache, attr in CACHES.items():
            if not hasattr(getattr(charfn, attr, None), "cache_info"):
                self.absent.append(f"charfn.cache.{cache}")

    def reset_caches(self) -> None:
        """Fold the cache statistics into the totals and empty every cache."""
        charfn = importlib.import_module("adol.charfn")
        for cache, attr in CACHES.items():
            builder = getattr(charfn, attr, None)
            if hasattr(builder, "cache_info"):
                info = builder.cache_info()
                self.cache_stats[cache][0] += info.hits
                self.cache_stats[cache][1] += info.misses
        for mod in _adol_modules():
            for val in list(vars(mod).values()):
                if hasattr(val, "cache_clear"):
                    val.cache_clear()

    def run(self, commands: list[list[str]]) -> list[int]:
        """adol.cli.main on each argument list, each under a cli.<command> span."""
        cli = importlib.import_module("adol.cli")
        exit_codes = []
        for args in commands:
            self.reset_caches()
            idx = self.open(f"cli.{args[0]}", {})
            try:
                exit_codes.append(cli.main(list(args)))
            finally:
                self.close(idx)
        self.reset_caches()
        return exit_codes


def _adol_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "adol" or n.startswith("adol."))]


def _cf_total_info(args, kwargs):
    u = args[0] if args else kwargs["u"]
    model = args[1] if len(args) > 1 else kwargs["model"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    order = 1 if cfg is None else cfg.order
    return {"order": order if model.xi != 0.0 else 0, "u": [complex(u).real, complex(u).imag]}


def _sim_info(args, kwargs):
    model = args[0] if args else kwargs["model"]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return {"key": repr((model, spec)), "path_steps": spec.n_paths * spec.n_steps}


_DESCRIBE = {
    "charfn.cf_total": _cf_total_info,
    "montecarlo.simulation": _sim_info,
}


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its children cover, in ns.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their coverage is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list], cache_stats: dict) -> dict:
    """Per-layer metrics from the spans; values of absent hooks are 0."""
    own = self_times(spans)
    calls = defaultdict(int)
    total_ns = defaultdict(int)  # outermost spans only, so recursion counts once
    self_ns = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += own[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total_ns[name] += end - start

    def secs(name):
        return total_ns[name] * 1e-9

    m = {}
    by_order = defaultdict(lambda: [0, 0, set()])  # calls, ns, distinct u
    sims, sim_keys, path_steps, evals, failures = 0, set(), 0, 0, 0
    cf_in_price = 0
    under_price = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        if name == "charfn.cf_total":
            agg = by_order[info["order"]]
            agg[0] += 1
            agg[1] += end - start
            agg[2].add(tuple(info["u"]))
        elif name == "montecarlo.simulation":
            sims += 1
            sim_keys.add(info["key"])
            path_steps += info["path_steps"]
        elif name == "numerics.integrate_adaptive":
            evals += info.get("evals", 0)
            failures += bool(info.get("failed"))
        # whether this span runs inside a fourier_price span
        inside = name == "pricing.fourier_price" or (parent >= 0 and under_price[parent])
        under_price[i] = inside
        if name == "charfn.cf_total" and inside:
            cf_in_price += 1

    for o in (0, 1, 2):
        m[f"charfn.cf_total.calls.o{o}"] = by_order[o][0]
    for o in (1, 2):
        n, ns, _ = by_order[o]
        m[f"charfn.cf_total.ms_per_call.o{o}"] = ns * 1e-6 / n if n else 0.0
    for o in (0, 1):
        n, _, distinct = by_order[o]
        m[f"charfn.cf_unique_ratio.o{o}"] = len(distinct) / n if n else 0.0
    for cache, (hits, misses) in cache_stats.items():
        m[f"charfn.cache.{cache}.hits"] = hits
        m[f"charfn.cache.{cache}.misses"] = misses
    m["charfn.j_integral.calls"] = calls["charfn.j_integral"]
    m["charfn.j_integral.s"] = secs("charfn.j_integral")
    m["charfn.pde_residual.s"] = secs("charfn.pde_residual")
    m["charfn.cf_zero.calls"] = calls["charfn.cf_zero"]
    m["charfn.cf_zero.s"] = secs("charfn.cf_zero")
    n_price = calls["pricing.fourier_price"]
    m["pricing.fourier_price.calls"] = n_price
    m["pricing.fourier_price.self_s"] = self_ns["pricing.fourier_price"] * 1e-9
    m["pricing.cf_calls_per_price"] = cf_in_price / n_price if n_price else 0.0
    m["pricing.varswap_strike.s"] = secs("pricing.varswap_strike")
    m["pricing.varswap_strike_analytic.s"] = secs("pricing.varswap_strike_analytic")
    m["pricing.forward_cf.calls"] = calls["pricing.forward_cf"]
    m["montecarlo.sims"] = sims
    m["montecarlo.sim_unique_ratio"] = len(sim_keys) / sims if sims else 0.0
    m["montecarlo.path_steps"] = path_steps
    sim_s = secs("montecarlo.simulation")
    m["montecarlo.path_steps_per_s"] = path_steps / sim_s if sim_s else 0.0
    m["montecarlo.mc_price.s"] = secs("montecarlo.mc_price")
    m["montecarlo.mc_quadratic_variation.s"] = secs("montecarlo.mc_quadratic_variation")
    m["numerics.integrate_adaptive.calls"] = calls["numerics.integrate_adaptive"]
    m["numerics.integrate_adaptive.evals"] = evals
    m["numerics.integrate_adaptive.failures"] = failures
    m["numerics.integrate_ode.calls"] = calls["numerics.integrate_ode"]
    m["numerics.integrate_ode.s"] = secs("numerics.integrate_ode")
    m["do_process.do_constants.calls"] = calls["do_process.do_constants"]
    m["do_process.do_constants.s"] = secs("do_process.do_constants")
    for c in COMMANDS:
        m[f"cli.{c}.s"] = secs(f"cli.{c}")
    m["cli.load_config.s"] = secs("cli.load_config")
    return m


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        commands = json.load(fh)["commands"]
    tracer = Tracer()
    tracer.install()
    exit_codes = tracer.run(commands)
    result = {
        "exit_codes": exit_codes,
        "absent": tracer.absent,
        "metrics": layer_metrics(tracer.spans, tracer.cache_stats),
        "spans": tracer.spans,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
