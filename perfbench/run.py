"""Benchmark of the adol command line: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`.

--trace 0 runs the workload's `adol` commands, each in a fresh `python3`
process, again and again for about S seconds, and checks every output.  It
reports the median wall time of one pass, the set-up time of a fresh process
(median of several), the peak RSS of the command processes and the share of
checked values within tolerance.

--trace 1 alternates an untraced pass with a traced one (perfbench/tracer.py:
the same commands through `adol.cli.main` in one process, every layer
wrapped) and reports the per-layer metrics, the accuracy of the outputs and
the tracing overhead.  The traced outputs must equal the untraced ones, and
the counts must repeat between traced passes.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Failed checks are listed on standard error, and so is each trip of one of the
program's statistical `--check` gates (a finding, not a failure; see
workloads.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import DETERMINISTIC_UNITS, UNITS
from workloads import WORKLOADS, Check, Outcome, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# a run must end within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170.0
# set-up time is the median of this many fresh processes
SETUP_SAMPLES = 9

# Fresh interpreter until import, config, model and the first zero-order CF
# (which builds the cold per-model cache) have returned.
SETUP_CODE = """\
import sys
import numpy
import adol.charfn
import adol.cli
import adol.model
cfg = adol.cli.load_config(sys.argv[1])
fields = ("s0", "sigma0", "v0", "r", "q", "kappa", "xi", "rho", "h",
          "m_rho", "m_pi", "t_mat")
model = adol.model.AdolModel(**{k: cfg["model"][k] for k in fields})
adol.charfn.cf_zero(0.5, model)
print(numpy.__version__)
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
ACCURACY = {"pricing.price_abs_err.max": "price_abs_err",
            "charfn.cf_abs_err.max": "cf_abs_err",
            "montecarlo.se.max": "se"}


def child_env() -> dict:
    """The program from src/, with every BLAS/OpenMP pool pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Child:
    wall_s: float
    exit_code: int
    rss_mb: float
    log: str


class Runner:
    """Starts children one at a time and kills any that would overrun the run."""

    def __init__(self, work: Path, limit_s: float) -> None:
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + limit_s

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str], log: Path) -> Child:
        remaining = self.remaining()
        if remaining <= 0:
            raise TimeoutError("the run's time limit is spent")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                     log.read_text(errors="replace"))


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    outcome: Outcome


def adol_args(workload: Workload, cfg: Path, out: Path, seed: int) -> list[list[str]]:
    return [[*args, "--config", str(cfg), "--out", str(out), "--seed", str(seed)]
            for args in workload.commands]


def check_outputs(workload: Workload, out: Path, exit_codes: list[int],
                  logs: list[str]) -> Outcome:
    try:
        cfg = json.loads((out / "resolved_config.json").read_text())
        return workload.check(out, cfg, list(zip(exit_codes, logs)))
    except (OSError, KeyError, ValueError, IndexError, StopIteration) as exc:
        detail = f"{exc!r}; exit codes {exit_codes}: {logs[-1][-300:] if logs else ''}"
        return Outcome([Check("outputs readable", False, detail)], {}, [])


def untraced_pass(runner: Runner, workload: Workload, cfg: Path, out: Path,
                  seed: int) -> Pass:
    """The workload's commands, each in a fresh process, then the checks."""
    shutil.rmtree(out, ignore_errors=True)
    children = [runner.run([sys.executable, "-m", "adol.cli", *args],
                           runner.work / f"adol-{i}.log")
                for i, args in enumerate(adol_args(workload, cfg, out, seed))]
    outcome = check_outputs(workload, out, [c.exit_code for c in children],
                            [c.log for c in children])
    return Pass(sum(c.wall_s for c in children), max(c.rss_mb for c in children), outcome)


def traced_pass(runner: Runner, workload: Workload, cfg: Path, out: Path,
                seed: int) -> tuple[Pass, dict]:
    """The same commands in one traced process; returns its pass and trace."""
    shutil.rmtree(out, ignore_errors=True)
    spec, result = runner.work / "trace-spec.json", runner.work / "trace-result.json"
    spec.write_text(json.dumps({"commands": adol_args(workload, cfg, out, seed)}))
    result.unlink(missing_ok=True)
    child = runner.run([sys.executable, str(BENCH_DIR / "tracer.py"), str(spec), str(result)],
                       runner.work / "trace.log")
    if child.exit_code != 0 or not result.exists():
        check = Check("traced run", False, f"exit {child.exit_code}: {child.log[-300:]}")
        return Pass(child.wall_s, child.rss_mb, Outcome([check], {}, [])), {}
    trace = json.loads(result.read_text())
    outcome = check_outputs(workload, out, trace["exit_codes"],
                            [child.log] * len(workload.commands))
    return Pass(child.wall_s, child.rss_mb, outcome), trace


def same_outputs(a: Path, b: Path) -> list[Check]:
    """Files of two runs of one seed agree, apart from the CSV timestamp line
    and the output directory that some files echo."""
    def content(path: Path, out: Path) -> str:
        text = path.read_text().replace(str(out), "<out>")
        return text.split("\n", 1)[1] if path.suffix == ".csv" else text

    names = sorted(p.name for p in a.iterdir())
    checks = [Check("traced run writes the same files",
                    names == sorted(p.name for p in b.iterdir()), f"{names}")]
    for name in names:
        if (b / name).exists():
            checks.append(Check(f"traced {name} equals untraced",
                                content(a / name, a) == content(b / name, b)))
    return checks


def measure_setup(runner: Runner, cfg: Path) -> tuple[float, str]:
    """Median set-up time of fresh processes, after one untimed warm-up that
    also compiles the package's bytecode; returns it with numpy's version."""
    argv = [sys.executable, "-c", SETUP_CODE, str(cfg)]
    warm = runner.run(argv, runner.work / "setup.log")
    if warm.exit_code != 0:
        raise RuntimeError(f"set-up failed: {warm.log[-500:]}")
    walls = []
    for _ in range(SETUP_SAMPLES):
        child = runner.run(argv, runner.work / "setup.log")
        if child.exit_code != 0:
            raise RuntimeError(f"set-up failed: {child.log[-500:]}")
        walls.append(child.wall_s)
    return statistics.median(walls), warm.log.strip()


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path = WORK) -> dict:
    """One benchmark run; returns the result object and what it is made of."""
    work = work / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, RUN_LIMIT_S)
    cfg = work / "config.json"
    cfg.write_text(json.dumps(workload.config))

    info = {"workload": workload.name, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version()}
    setup_s, info["numpy"] = measure_setup(runner, cfg)

    checks: list[Check] = []
    findings: set[str] = set()
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        plain.append(untraced_pass(runner, workload, cfg, work / "out", seed))
        checks += plain[-1].outcome.checks
        findings.update(plain[-1].outcome.findings)
        if trace:
            traced.append(traced_pass(runner, workload, cfg, work / "out-traced", seed))
            checks += traced[-1][0].outcome.checks
            findings.update(traced[-1][0].outcome.findings)
            checks += same_outputs(work / "out", work / "out-traced")
        took = time.perf_counter() - start
        if time.perf_counter() - t0 + took > seconds or runner.remaining() < 2 * took:
            break

    info["passes"] = len(plain)
    info["pass_walls_s"] = [round(p.wall_s, 4) for p in plain]
    info["gate_trips"] = len(findings)
    if trace:
        metrics, more = layer_result(plain, traced)
        checks += more
    else:
        ok = sum(c.ok for c in checks)
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
            "pass_ratio": ok / len(checks),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    failed = [c for c in checks if not c.ok]
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": metrics}
    return {"result": result, "info": info, "failures": failed,
            "findings": sorted(findings), "traces": [t for _, t in traced]}


def layer_result(plain: list[Pass], traced: list[tuple[Pass, dict]]) -> tuple[dict, list[Check]]:
    """Per-layer metrics of the traced passes: counts from the first pass
    (checked to repeat in the others), times as medians over the passes."""
    traces = [t for _, t in traced if t]
    if not traces:
        return {}, [Check("traced pass produced a trace", False)]
    first = traces[0]["metrics"]
    checks = [Check(f"{name} repeats between traced passes", t["metrics"][name] == first[name],
                    f"{t['metrics'][name]} != {first[name]}")
              for t in traces[1:] for name, unit in UNITS.items()
              if unit in DETERMINISTIC_UNITS]
    metrics = {name: {"value": first[name] if unit in DETERMINISTIC_UNITS
                      else statistics.median(t["metrics"][name] for t in traces),
                      "unit": unit}
               for name, unit in UNITS.items()}
    accuracy = traced[0][0].outcome.accuracy
    for name, key in ACCURACY.items():
        metrics[name] = {"value": accuracy.get(key, 0.0), "unit": "abs"}
    overhead = statistics.median(p.wall_s for p, _ in traced) \
        - statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.absent_hooks"] = {"value": len(traces[0]["absent"]), "unit": "count"}
    return metrics, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of the adol command line")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="Monte Carlo seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    args = parser.parse_args(argv)
    if not (SRC / "adol" / "cli.py").is_file():
        print(f"error: no adol sources under {SRC}", file=sys.stderr)
        return 2
    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for check in run["failures"]:
        print(f"FAILED {check.label}: {check.detail}", file=sys.stderr)
    for trip in run["findings"]:
        print(f"finding: seed {args.seed}: {trip}", file=sys.stderr)
    print("# " + json.dumps(run["info"]))
    if args.trace:
        absent = run["traces"][0]["absent"] if run["traces"] else []
        print("# absent: " + (", ".join(absent) or "none"))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
