"""`bench/trajectory.py` still runs against the CLI it measures.

The script is loaded from its file, never changed.  One row runs on the
pure kernel, in a fresh process, as the script runs every row.  So does
`main` with two trees, which runs the row on each, back to back, and
`main` with --repeat, which runs it several times and keeps the spread.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory",
                                                  ROOT / "bench" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


needs_git = pytest.mark.skipif(
    not (ROOT / ".git").exists(),
    reason="a row records the commit, so the tree must be a git checkout")


@needs_git
def test_row_runs_and_records_its_search(tmp_path):
    row = _load_trajectory().run_row("n1-L15-D24", ROOT, "python", tmp_path / "prefix.json")
    assert (row["status"], row["visited"], row["depth_reached"], row["backend"]) == \
        ("found", 26565, 4, "python")


@needs_git
def test_main_runs_each_row_on_every_tree(tmp_path):
    out = tmp_path / "rows.json"
    _load_trajectory().main(["--tree", str(ROOT)] * 2 + [
        "--row", "n1-L15-D24", "--backend", "python", "--out", str(out)])
    rows = json.loads(out.read_text())
    assert [(r["row"], r["backend"], r["status"], r["visited"]) for r in rows] == \
        [("n1-L15-D24", "python", "found", 26565)] * 2


@needs_git
def test_repeat_records_the_spread_of_the_runs(tmp_path):
    out = tmp_path / "rows.json"
    _load_trajectory().main(["--row", "n1-L15-D24", "--backend", "python",
                             "--repeat", "2", "--out", str(out)])
    (row,) = json.loads(out.read_text())
    assert (row["status"], row["visited"], row["depth_reached"], row["repeat"]) == \
        ("found", 26565, 4, 2)
    for name in ("wall_s", "cpu_s"):
        assert 0 < row[name + "_min"] <= row[name] <= row[name + "_max"]


def test_repeat_fails_when_the_runs_differ(tmp_path, monkeypatch):
    """A row whose runs disagree in status, visited or depth is refused,
    not summarized."""
    trajectory = _load_trajectory()
    visited = iter((26565, 26564))

    def fake_search(cmd, env):
        outcome = {"status": "found", "stats": {"visited": next(visited), "depth_reached": 4}}
        usage = SimpleNamespace(ru_utime=0.9, ru_stime=0.1, ru_maxrss=20480)
        return 0, json.dumps({"outcome": outcome}), "", 1.0, usage

    monkeypatch.setattr(trajectory, "_run_search", fake_search)
    with pytest.raises(SystemExit, match="the runs differ"):
        trajectory.run_row("n1-L15-D24", ROOT, "python", tmp_path / "prefix.json", repeat=2)


def test_repeat_must_be_positive():
    with pytest.raises(SystemExit):
        _load_trajectory().main(["--repeat", "0"])
