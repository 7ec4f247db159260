"""The walk-through scripts in demos/ run to completion.

Demos 01-04 and 06 run in-process, each with a fresh temporary directory as
the working directory (demo 03 writes ``uniform_orbit.csv`` into it).  Demo
05 is left out for its runtime, several seconds: it scans thousands of
samples.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_unitary_synthesis.py", "02_combining_three_states.py",
                                  "03_linkage_clock.py", "04_mub_orbit.py",
                                  "06_flat_search.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
