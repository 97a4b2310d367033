"""scripts/compare_tree.py: the cell comparison of two output files."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_tree.py"


@pytest.fixture(scope="module")
def compare_tree():
    spec = importlib.util.spec_from_file_location("compare_tree", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


PARENT = "x_value,stable,en_mr_oc\n-2,true,0.5\n0,false,\n2,true,250\n"


def test_the_same_bytes_are_identical(compare_tree, tmp_path):
    ours, theirs = write(tmp_path / "a.csv", PARENT), write(tmp_path / "b.csv", PARENT)
    assert compare_tree.difference(ours, theirs) is None
    assert compare_tree.describe(None) == "identical"


def test_changed_cells_and_the_worst_relative_change(compare_tree, tmp_path):
    # 0.5 -> 0.5000001 moves by 1e-7 of max(1, 0.5); 250 -> 250.5 by 0.5/250
    theirs = write(tmp_path / "parent.csv", PARENT)
    ours = write(tmp_path / "this.csv",
                 "x_value,stable,en_mr_oc\n-2,true,0.5000001\n0,false,\n2,true,250.5\n")
    changed, worst = compare_tree.difference(ours, theirs)
    assert changed == 2
    assert worst == pytest.approx(0.5 / 250)
    assert compare_tree.describe((changed, worst)) == (
        "2 changed cells, worst |d|/max(1, |x|) 0.002")


def test_a_cell_that_is_not_a_number_on_both_sides_is_inf(compare_tree, tmp_path):
    # an absent value that became a number, a gate that flipped, and a row
    # that only the parent has
    theirs = write(tmp_path / "parent.csv", PARENT)
    ours = write(tmp_path / "this.csv", "x_value,stable,en_mr_oc\n-2,true,0.5\n0,true,0.1\n")
    changed, worst = compare_tree.difference(ours, theirs)
    assert changed == 2 + 3
    assert worst == math.inf


def test_same_cells_in_other_bytes_are_no_change(compare_tree, tmp_path):
    # line endings differ, cells do not
    theirs = write(tmp_path / "parent.csv", PARENT)
    ours = tmp_path / "this.csv"
    ours.write_bytes(PARENT.replace("\n", "\r\n").encode())
    assert compare_tree.difference(ours, theirs) == (0, 0.0)


def test_json_leaves_are_cells(compare_tree, tmp_path):
    # 150 -> 151 moves by 1/150, 2.0 -> 2.5 by 0.5/2
    theirs = write(tmp_path / "parent.json", '{"counts": {"stable": 150}, "peaks": [1.0, 2.0]}')
    ours = write(tmp_path / "this.json", '{"counts": {"stable": 151}, "peaks": [1.0, 2.5]}')
    changed, worst = compare_tree.difference(ours, theirs)
    assert changed == 2
    assert worst == pytest.approx(0.25)
