"""Rewrite tests/golden from the current code, and print what moved.

    PYTHONPATH=src python tests/update_golden.py

Runs every command set of test_golden.py, prints per file and column the
largest relative move from the goldens it replaces (inf for changed text, a
new or lost file, or a changed exit code or stderr), then writes the new
goldens.  A change that moves values on purpose pastes this table into its
change log.
"""

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from test_golden import GOLDEN, REL_TOL, SETS, moves, run_set


def main() -> int:
    runs_file = GOLDEN / "runs.json"
    old_runs = json.loads(runs_file.read_text()) if runs_file.exists() else {}
    runs, table = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(SETS):
            runs[name], bodies = run_set(name, Path(tmp) / name)
            if runs[name] != old_runs.get(name):
                table.append((name, "runs.json", name, math.inf))
            old_dir = GOLDEN / name
            old_files = {p.name for p in old_dir.iterdir()} if old_dir.is_dir() else set()
            for file in sorted(old_files | set(bodies)):
                if file not in bodies or file not in old_files:
                    table.append((name, file, "<file>", math.inf))
                    continue
                for column, gap in moves(file, (old_dir / file).read_text(),
                                         bodies[file]).items():
                    if gap != 0.0:
                        table.append((name, file, column, gap))
            shutil.rmtree(old_dir, ignore_errors=True)
            old_dir.mkdir(parents=True)
            for file, body in bodies.items():
                (old_dir / file).write_text(body)
    runs_file.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")
    print("| set | file | column | largest relative move |")
    print("|---|---|---|---|")
    for name, file, column, gap in table:
        print(f"| {name} | {file} | {column} | {gap:.3g} |")
    past = sum(not gap <= REL_TOL for *_, gap in table)
    print(f"{len(table)} column(s) moved, {past} past the test's {REL_TOL:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
