import json
import subprocess
import sys
from pathlib import Path

import pytest

TREEDIFF = Path(__file__).with_name("treediff.py")


def _treediff(a, b):
    return subprocess.run([sys.executable, str(TREEDIFF), str(a), str(b)],
                          capture_output=True, text=True)


def _tree(root, solve_s, hat):
    (root / "cell").mkdir(parents=True)
    (root / "summary.csv").write_text(f"subject,hat,solve_s\n0,{hat},{solve_s}\n")
    (root / "cell" / "run_report.json").write_text(
        json.dumps({"lam": 0.1, "wall_time_s": solve_s}))


def test_trees_apart_only_in_timing_fields_are_equal(tmp_path):
    _tree(tmp_path / "a", 1.5, 0.25)
    _tree(tmp_path / "b", 2.5, 0.25)
    done = _treediff(tmp_path / "a", tmp_path / "b")
    assert (done.returncode, done.stdout) == (0, "")


def test_differing_and_unpaired_files_are_listed(tmp_path):
    _tree(tmp_path / "a", 1.5, 0.25)
    _tree(tmp_path / "b", 1.5, 0.5)
    (tmp_path / "b" / "cell" / "error.txt").write_text("stale")
    done = _treediff(tmp_path / "a", tmp_path / "b")
    assert (done.returncode, done.stdout) == (1, "cell/error.txt\nsummary.csv\n")


@pytest.mark.parametrize("missing", ["a", "b"])
def test_a_tree_that_is_not_a_directory_is_a_usage_error(tmp_path, missing):
    for name in ("a", "b"):
        if name != missing:
            _tree(tmp_path / name, 1.5, 0.25)
    done = _treediff(tmp_path / "a", tmp_path / "b")
    assert done.returncode == 2
    assert f"{tmp_path / missing} is not a directory" in done.stderr
