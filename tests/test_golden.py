"""Golden artifacts: every file that eight CLI command sets write, cell by cell.

Each set runs through cli.main at seed 1 with tiny Monte Carlo sizes, and
the four sets whose outputs read the seed run at seeds 2 and 3 too.  Every
file a run writes is compared with tests/golden/<run>/<file>: a CSV by its
body below the '#' line, a JSON document without the output directory.
Text cells must match exactly and numbers to REL_TOL relative, NaN equal to
NaN; a cell that is a difference of larger numbers (DIFFERENCE_OF) is
relative to the larger of itself and the cell it is a difference of.  Each
run's exit code and stderr, kept in tests/golden/runs.json, must match
exactly.  A change that moves values on purpose rewrites the goldens with
update_golden.py, which prints the largest relative move per file and
column.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from adol.charfn import MODE_PAPER
from adol.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# numpy's float64 exp and log may take SIMD paths that round differently by
# an ulp between CPUs; 1e-13 admits a few hundred ulps of such drift, while
# a changed formula, rule or draw moves a value by far more
REL_TOL = 1e-13
# a column that is a difference of larger numbers, by file: the column of the
# same row it is relative to.  gap_to_mc is a price less the Monte Carlo one,
# so an ulp of the price can move a small gap by far more than 1e-13 of itself
DIFFERENCE_OF = {("price.csv", "gap_to_mc"): "value", ("varswap.csv", "gap_to_mc"): "value"}

_MC = {"n_paths": 2000, "n_steps": 50}
# the benchmark's reference model
_REF = {"s0": 1.0, "sigma0": 0.3, "v0": 5.0, "kappa": 2.0, "xi": 0.05, "rho": -0.5,
        "h": 0.3, "m_rho": 1.0, "m_pi": 0.5, "t_mat": 0.5}
_CF_O2 = {"order": 2, "u_max": 5.0, "n_u": 6}

# set name -> (config, command and flags)
SETS = {
    "check": ({"mc": _MC}, ["check"]),
    "cf_o2_affine": ({"model": _REF, "cf": _CF_O2, "mc": _MC}, ["cf", "--check"]),
    "cf_o2_paper": ({"model": _REF, "cf": {**_CF_O2, "mode": MODE_PAPER}, "mc": _MC},
                    ["cf", "--check"]),
    "price_o1": ({"model": _REF, "cf": {"order": 1}, "mc": _MC}, ["price", "--check"]),
    "mc": ({"model": _REF, "mc": _MC}, ["mc", "--check"]),
    "varswap": ({"model": _REF, "mc": _MC}, ["varswap", "--check"]),
    "ledger": ({"model": _REF, "mc": _MC}, ["ledger"]),
    "figures": ({"model": _REF, "mc": _MC}, ["figures", "--check"]),
}
# run name -> (set, seed): every set at seed 1, and the sets whose outputs
# read the seed at seeds 2 and 3 too
RUNS = {name: (name, 1) for name in SETS} | {
    f"{name}_seed{seed}": (name, seed)
    for name in ("check", "price_o1", "mc", "varswap") for seed in (2, 3)}


def run_set(run: str, work: Path) -> tuple[dict, dict[str, str]]:
    """Run `run` of RUNS in the directory `work`: its exit code and stderr,
    and the body of each file it wrote, by file name."""
    name, seed = RUNS[run]
    config, args = SETS[name]
    work.mkdir(parents=True)
    cfg, out = work / "config.json", work / "out"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*args, "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
    bodies = {}
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.suffix == ".csv":
            head, _, body = text.partition("\n")
            assert head.startswith("# command="), path
            bodies[path.name] = body
        else:
            doc = json.loads(text)
            # the resolved config, alone or in the ledger, names the run's directory
            for cfg in (doc, doc.get("config", {})):
                cfg.get("output", {}).pop("directory", None)
            bodies[path.name] = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return {"exit_code": code, "stderr": err.getvalue()}, bodies


def _gap(old, new, scale: float = 0.0) -> float:
    """The move from old to new relative to the larger of |old|, |new| and
    scale: 0 if equal, NaN equal to NaN; inf if either is text and they
    differ, or one is NaN and one is not."""
    if isinstance(old, str) or isinstance(new, str):
        return 0.0 if old == new else math.inf
    if math.isnan(old) or math.isnan(new):
        return 0.0 if math.isnan(old) and math.isnan(new) else math.inf
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), abs(new), scale)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _magnitude(*cells: str) -> float:
    """The largest |x| of the cells that hold a finite number, 0 if none does."""
    return max((abs(x) for x in map(_cell, cells) if isinstance(x, float) and math.isfinite(x)),
               default=0.0)


def _walk(old, new, column: str, moves: dict) -> None:
    """Fold the moves between two JSON values into moves, by key path; list
    indices are not part of the path, so a list's entries share a column."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            _walk(old[key], new[key], f"{column}.{key}" if column else key, moves)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            _walk(a, b, column + "[]", moves)
    else:
        def leaf(x):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                return json.dumps(x, sort_keys=True)
            return float(x)
        moves[column] = max(moves.get(column, 0.0), _gap(leaf(old), leaf(new)))


def moves(name: str, old: str, new: str) -> dict[str, float]:
    """The largest relative move per column between two bodies of the file
    `name`: CSV columns by header, JSON values by key path.  A changed
    header or row count is an infinite move of `<header>` or `<rows>`."""
    found: dict[str, float] = {}
    if name.endswith(".csv"):
        old_rows, new_rows = (list(csv.reader(io.StringIO(text))) for text in (old, new))
        if old_rows[:1] != new_rows[:1]:
            return {"<header>": math.inf}
        if len(old_rows) != len(new_rows) or any(len(a) != len(b)
                                                  for a, b in zip(old_rows, new_rows)):
            return {"<rows>": math.inf}
        header = old_rows[0]
        for a, b in zip(old_rows[1:], new_rows[1:]):
            for column, x, y in zip(header, a, b):
                of = DIFFERENCE_OF.get((name, column))
                scale = _magnitude(a[header.index(of)], b[header.index(of)]) if of else 0.0
                found[column] = max(found.get(column, 0.0), _gap(_cell(x), _cell(y), scale))
    else:
        _walk(json.loads(old), json.loads(new), "", found)
    return found


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_their_goldens(tmp_path, name):
    run, bodies = run_set(name, tmp_path / name)
    assert run == json.loads((GOLDEN / "runs.json").read_text())[name]
    golden = GOLDEN / name
    assert sorted(bodies) == sorted(p.name for p in golden.iterdir())
    for file, body in bodies.items():
        found = moves(file, (golden / file).read_text(), body)
        moved = {column: gap for column, gap in found.items() if not gap <= REL_TOL}
        assert not moved, (file, moved)
