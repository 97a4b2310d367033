"""Regression against the archived sweep outputs.

Cells are compared numerically (1e-9 relative) rather than textually so the
pins survive harmless floating-point variation across BLAS builds; schema and
stability flags must match exactly.
"""

import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

from oemsim import preset, run_sweep
from oemsim.sweep import csv_header, csv_rows

GOLDEN_DIR = Path(__file__).parent / "golden"
SCRIPT = Path(__file__).parent.parent / "scripts" / "make_goldens.py"

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c")


def cells_match(have: str, want: str) -> bool:
    if have == want:
        return True
    try:
        a, b = float(have), float(want)
    except ValueError:
        return False
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("name", PRESETS)
def test_sweep_matches_archive(name):
    archived = list(csv.reader(io.StringIO(
        (GOLDEN_DIR / f"{name}.csv").read_text())))
    spec = preset(name)
    result = run_sweep(spec, jobs=4)
    assert archived[0] == csv_header(spec)
    rows = csv_rows(result)
    assert len(archived) == len(rows) + 1
    for i, (want_row, have_row) in enumerate(zip(archived[1:], rows)):
        assert len(want_row) == len(have_row)
        for j, (want, have) in enumerate(zip(want_row, have_row)):
            assert cells_match(have, want), \
                f"{name} row {i} col {j}: {have!r} vs archived {want!r}"


def test_make_goldens_reproduces_the_archive(tmp_path):
    # the goldens are not byte-reproducible across machines, but a fresh
    # set must match the committed one at this module's tolerance
    spec = importlib.util.spec_from_file_location("make_goldens", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in GOLDEN_DIR.iterdir())
    for name in PRESETS:
        have = list(csv.reader(io.StringIO((tmp_path / f"{name}.csv").read_text())))
        want = list(csv.reader(io.StringIO((GOLDEN_DIR / f"{name}.csv").read_text())))
        assert len(have) == len(want) and have[0] == want[0]
        for i, (have_row, want_row) in enumerate(zip(have, want)):
            assert len(have_row) == len(want_row)
            assert all(cells_match(h, w) for h, w in zip(have_row, want_row)), \
                f"{name} row {i}"
    have = json.loads((tmp_path / "fig5_peaks.json").read_text())
    want = json.loads((GOLDEN_DIR / "fig5_peaks.json").read_text())
    assert have["couplings_rad_s"] == want["couplings_rad_s"]
    assert all(cells_match(repr(h), repr(w)) for h, w in
               zip(have["peak_en_oc_sba"], want["peak_en_oc_sba"], strict=True))
