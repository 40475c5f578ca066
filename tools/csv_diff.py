"""Compare the CSVs of csv_digests' ops at two checkouts, column by column.

    python3 tools/csv_diff.py --before PARENT [--after CHECKOUT]

tools/csv_digests.py --csv runs every op against each checkout, in two
child processes at once, each importing nlogis from its own checkout's
src/ (CHECKOUT defaults to the checkout holding this script).  The CSVs of
each op id are then compared cell by cell.  A cell that reads as a number
on both sides changes by |after - before| / |before|, or by
|after - before| where |before| <= 1e-8; any other cell (a
classification, a pass flag) is text and must be equal.

Printed: for each CSV column, the largest relative and the largest
absolute change over every op, with the op it occurred in; how many CSVs
differ and how many ops verify ok on each side; then every text cell that
differs and every op whose status, header or row count differs.  The exit
status is 1 when any of those differ, 0 when only numbers moved.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NEAR_ZERO = 1e-8


def _outputs(checkout: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "csv_digests.py"), "--root",
         str(checkout), "--csv"], stdout=subprocess.PIPE, text=True)


def _read(proc: subprocess.Popen) -> dict[str, dict]:
    out, _ = proc.communicate()
    return {line["id"]: line for line in map(json.loads, out.splitlines())}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(before: dict[str, dict], after: dict[str, dict]):
    """(largest, changed, problems): largest maps (column, "rel" or "abs")
    to (change, op id, before cell, after cell); changed counts the CSVs
    that differ; problems lists every difference that is not numeric."""
    largest: dict[tuple[str, str], tuple] = {}
    changed = 0
    problems = []
    for op in sorted(set(before) | set(after)):
        if op not in before or op not in after:
            problems.append(f"{op}: only {'after' if op in after else 'before'}")
            continue
        b, a = before[op], after[op]
        if b["status"] != a["status"]:
            problems.append(f"{op}: status {b['status']!r} -> {a['status']!r}")
        if b["csv"] == a["csv"]:
            continue
        changed += 1
        rows_b = list(csv.reader(io.StringIO(b["csv"])))
        rows_a = list(csv.reader(io.StringIO(a["csv"])))
        if not rows_b or rows_b[0] != rows_a[0] or len(rows_b) != len(rows_a):
            problems.append(f"{op}: header or row count differs")
            continue
        header = rows_b[0]
        for i, (row_b, row_a) in enumerate(zip(rows_b[1:], rows_a[1:]), 1):
            for column, cell_b, cell_a in zip(header, row_b, row_a):
                if cell_b == cell_a:
                    continue
                x, y = _number(cell_b), _number(cell_a)
                if x is None or y is None:
                    problems.append(f"{op} row {i} {column}: "
                                    f"{cell_b!r} -> {cell_a!r}")
                    continue
                kind = "abs" if abs(x) <= NEAR_ZERO else "rel"
                change = abs(y - x) / (1.0 if kind == "abs" else abs(x))
                key = (column, kind)
                if key not in largest or change > largest[key][0]:
                    largest[key] = (change, op, cell_b, cell_a)
    return largest, changed, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", type=Path, required=True)
    p.add_argument("--after", type=Path, default=HERE.parent)
    args = p.parse_args(argv)
    procs = [_outputs(args.before.resolve()), _outputs(args.after.resolve())]
    before, after = (_read(proc) for proc in procs)
    largest, changed, problems = compare(before, after)
    for (column, kind), (change, op, cell_b, cell_a) in sorted(largest.items()):
        print(f"{column:20s} {kind} {change:.1e}  {op}  ({cell_b} -> {cell_a})")
    ok = [sum(op["status"] == "ok" for op in side.values())
          for side in (before, after)]
    print(f"{changed} of {len(after)} CSVs differ; ops ok: {ok[0]} of "
          f"{len(before)} before, {ok[1]} of {len(after)} after; "
          f"{len(problems)} differences that are not numeric")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
