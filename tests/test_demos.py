"""The walk-through scripts in demos/ run to completion.

Each demo runs in-process, with a fresh temporary directory as the working
directory (demo 03 writes ``uniform_orbit.csv`` into it).
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_unitary_synthesis.py", "02_combining_three_states.py",
                                  "03_linkage_clock.py", "04_mub_orbit.py",
                                  "05_concavity_scan.py", "06_flat_search.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
