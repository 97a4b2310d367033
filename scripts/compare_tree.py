"""Compare the outputs of this tree with those of another tree, file by file.

    python scripts/compare_tree.py PARENT [--out DIR]

PARENT is the root of another checkout of this repository, such as a
`git clone` or `git archive` of the commit to compare against. Each tree
runs from its own src/, in fresh interpreters, over the same outputs:

- each preset's CSV and .meta.json, through the CLI, at --jobs 1 and 2;
- fig5 at 8001 points with all five pairs, and fig6a at 4001 points,
  through the CLI at --jobs 1 and 2;
- scripts/make_goldens.py --out;
- evaluate_point at every 13th grid point of each preset, one CSV row each.

For each file it prints "identical", or the number of changed cells (a
CSV's cells, a JSON file's leaves) and the worst |d| / max(1, |x|), where x
is PARENT's value and d the change; a cell that is not a number on both
sides counts as inf. It exits 1 when a run fails in either tree, and 0
otherwise, whatever the differences. --out keeps the outputs in DIR/this
and DIR/parent; by default they go to a temporary directory.
"""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: evaluate_point at every 13th grid point of each preset, written as a CSV
#: to argv[1]: the preset, the index, the gate, the abscissa, E_N of every
#: pair, the atom-free E_N of every bosonic pair ("" where absent), the error
POINTS = """
import csv, sys
from oemsim import BIPARTITE_PAIRS, PRESET_NAMES, evaluate_point, preset
from oemsim.gaussian import BOSONIC_PAIRS
cell = lambda value: "" if value is None else format(value, ".17g")
with open(sys.argv[1], "w", newline="") as handle:
    out = csv.writer(handle)
    for name in PRESET_NAMES:
        spec = preset(name)
        column = spec.grid() * spec.axis_scale
        for k in range(0, spec.count, 13):
            record = evaluate_point(spec.base.replace(**{spec.varied: float(column[k])}),
                                    spec.pairs, baseline=spec.baseline)
            out.writerow([name, k, record.stable, cell(record.max_real_part)]
                         + [cell(record.e_n.get(tag)) for tag in BIPARTITE_PAIRS]
                         + [cell(record.baseline_e_n.get(tag)) for tag in BOSONIC_PAIRS]
                         + [record.error or ""])
"""


def commands(tree: Path, presets: list[str]) -> list[list[str]]:
    """The runs of one tree, each a fresh interpreter started in its output
    directory."""
    sweep = [sys.executable, "-m", "oemsim", "sweep"]
    runs = []
    for jobs in ("1", "2"):
        for name in presets:
            runs.append([*sweep, "--preset", name, "--jobs", jobs, "--out", f"{name}-j{jobs}.csv"])
        runs.append([*sweep, "--preset", "fig5", "--grid", "0", "100", "8001",
                     "--pairs", "mr_oc,mr_mc,oc_mc,oc_sba,oc_scb", "--jobs", jobs,
                     "--out", f"fig5-8001-j{jobs}.csv"])
        runs.append([*sweep, "--preset", "fig6a", "--grid", "-2", "2", "4001",
                     "--jobs", jobs, "--out", f"fig6a-4001-j{jobs}.csv"])
    runs.append([sys.executable, str(tree / "scripts" / "make_goldens.py"), "--out", "goldens"])
    runs.append([sys.executable, "-c", POINTS, "points.csv"])
    return runs


def environment(tree: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def cells(path: Path) -> dict:
    """An output file's cells by position: a CSV's by (row, column), a JSON
    file's leaves by their keys."""
    text = path.read_text()
    if path.suffix == ".csv":
        return {(i, j): cell for i, row in enumerate(csv.reader(io.StringIO(text)))
                for j, cell in enumerate(row)}
    leaves = {}

    def walk(value, key: tuple) -> None:
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for k, item in items:
                walk(item, (*key, k))
        else:
            leaves[key] = value

    walk(json.loads(text), ())
    return leaves


def _number(cell) -> float | None:
    """A cell's value as a float, or None where it is not a number."""
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def difference(ours: Path, theirs: Path) -> tuple[int, float] | None:
    """None where the two files hold the same bytes; else the number of
    cells that differ and the worst |d| / max(1, |x|) among them, x the
    cell in theirs: inf where a cell is not a number on both sides, or is
    missing from one."""
    if ours.read_bytes() == theirs.read_bytes():
        return None
    a, b = cells(ours), cells(theirs)
    changed, worst = 0, 0.0
    for key in a.keys() | b.keys():
        if key in a and key in b and a[key] == b[key]:
            continue
        changed += 1
        y, x = _number(a.get(key)), _number(b.get(key))
        relative = math.inf if x is None or y is None else abs(y - x) / max(1.0, abs(x))
        worst = max(worst, relative if relative == relative else math.inf)
    return changed, worst


def describe(result: tuple[int, float] | None) -> str:
    if result is None:
        return "identical"
    changed, worst = result
    return f"{changed} changed cells, worst |d|/max(1, |x|) {worst:.3g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the tree to compare against")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="keep the outputs in DIR/this and DIR/parent")
    args = parser.parse_args(argv)
    trees = {"this": ROOT, "parent": args.parent.resolve()}
    names = subprocess.run(
        [sys.executable, "-c", "from oemsim import PRESET_NAMES; print(*PRESET_NAMES)"],
        env=environment(ROOT), capture_output=True, text=True, check=True).stdout.split()
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        base = args.out or Path(scratch)
        for label, tree in trees.items():
            out = base / label
            out.mkdir(parents=True, exist_ok=True)
            for command in commands(tree, names):
                proc = subprocess.run(command, cwd=out, env=environment(tree),
                                      capture_output=True, text=True)
                if proc.returncode:
                    failed = True
                    shown = " ".join(command[1:]) if command[1] != "-c" else "evaluate_point set"
                    print(f"{label}: run failed ({proc.returncode}): {shown}\n{proc.stderr}",
                          file=sys.stderr)
        files = sorted({path.relative_to(base / label) for label in trees
                        for path in (base / label).rglob("*") if path.is_file()})
        for name in files:
            ours, theirs = base / "this" / name, base / "parent" / name
            if not (ours.is_file() and theirs.is_file()):
                status = "only in " + ("this tree" if ours.is_file() else "parent")
            else:
                status = describe(difference(ours, theirs))
            print(f"{name}: {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
