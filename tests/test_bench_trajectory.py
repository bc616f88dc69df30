"""`bench/trajectory.py` still runs against the CLI it measures.

The script is loaded from its file, never changed.  One row runs on the
pure kernel, in a fresh process, as the script runs every row.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_trajectory():
    spec = importlib.util.spec_from_file_location("bench_trajectory",
                                                  ROOT / "bench" / "trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not (ROOT / ".git").exists(),
                    reason="a row records the commit, so the tree must be a git checkout")
def test_row_runs_and_records_its_search(tmp_path):
    row = _load_trajectory().run_row("n1-L15-D24", ROOT, "python", tmp_path / "prefix.json")
    assert (row["status"], row["visited"], row["depth_reached"], row["backend"]) == \
        ("found", 26565, 4, "python")
