"""Correctness gate: compare sweep output rows with the archived goldens.

Rows are lists of CSV cells as `oemsim.sweep.csv_rows` and the CLI write them.
A golden row is compared cell by cell at 1e-9 relative, like the golden test
of the suite; a dense grid is compared at its golden-coincident rows (every
`stride`-th row). Every row, coincident or not, must also be internally
consistent: a numeric stability flag, E_N values exactly where the requested
pairs of a stable point need them, and every E_N finite and non-negative.

The goldens are only read.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-9


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(Path(path).read_text())))
    return rows[0], rows[1:]


def cells_match(have: str, want: str) -> bool:
    if have == want:
        return True
    try:
        a, b = float(have), float(want)
    except ValueError:
        return False
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _en_ok(cell: str) -> bool:
    try:
        value = float(cell)
    except ValueError:
        return False
    return math.isfinite(value) and value >= 0.0


def row_is_consistent(row: list[str], header: list[str],
                      pairs: tuple[str, ...]) -> bool:
    """Schema-level checks that need no golden value."""
    if len(row) != len(header):
        return False
    cells = dict(zip(header, row))
    if cells["stable"] not in ("true", "false"):
        return False  # an error record: the point failed
    stable = cells["stable"] == "true"
    for col, cell in cells.items():
        if not col.startswith("en_"):
            continue
        if col.startswith("en_baseline_"):
            if cell and not _en_ok(cell):
                return False
            continue
        requested = col[3:] in pairs
        if stable and requested:
            if not _en_ok(cell):
                return False
        elif cell:
            return False
    return True


def failed_points(have: list[list[str]], golden: list[list[str]],
                  header: list[str], pairs: tuple[str, ...],
                  stride: int = 1, unchecked: frozenset[str] = frozenset()
                  ) -> int:
    """Number of points of `have` that fail the gate.

    `have` holds (len(golden) - 1) * stride + 1 rows when complete. Row
    i * stride is compared with golden row i except in the `unchecked`
    columns (pairs the golden run did not request); a row missing from that
    position counts as a failed point, and so does every surplus row.
    """
    bad: set[int] = set()
    for j, row in enumerate(have):
        if not row_is_consistent(row, header, pairs):
            bad.add(j)
    cols = [k for k, col in enumerate(header) if col not in unchecked]
    for i, want in enumerate(golden):
        j = i * stride
        if j >= len(have):
            bad.add(j)
            continue
        row = have[j]
        if len(row) != len(want) or not all(
                cells_match(row[k], want[k]) for k in cols):
            bad.add(j)
    expected = (len(golden) - 1) * stride + 1
    bad.update(range(expected, len(have)))
    return len(bad)


def meta_matches(meta_path: Path, rows: list[list[str]],
                 header: list[str]) -> bool:
    """The sidecar's counts agree with the CSV rows it describes."""
    counts = json.loads(Path(meta_path).read_text())["counts"]
    k = header.index("stable")
    return counts == {
        "points": len(rows),
        "stable": sum(1 for r in rows if r[k] == "true"),
        "errors": sum(1 for r in rows if r[k] == ""),
    }
