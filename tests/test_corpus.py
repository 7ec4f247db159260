"""A checked-in request corpus: every subcommand at small sizes, with its declared exit code.

Each entry of ``CORPUS`` is ``(argv, documents, exit code)``.  ``documents``
maps a file name to what is written there before the run: JSON for any value
but a str, which is written as it stands.  argv names those files and its
outputs relative to one working directory, so a report that echoes a path
reads the same wherever the corpus runs.  Each entry runs twice in-process;
both runs must give the declared exit code and the same stdout, stderr and
output files outside the reports' ``timing`` member.

Each entry's output is also checked in, in ``tests/golden/corpus.json``, so a
change between trees shows up as a diff of that file.  Rewrite it with

    QMIX_REGOLD=1 python -m pytest tests/test_corpus.py

Per entry id it holds the argv, the exit code, the stderr, and stdout and each
output file: a report as parsed JSON without ``timing``, a CSV as its data-row
count, its SHA-256 and, up to ``TEXT_LIMIT`` bytes, its lines.  On the numpy
version that wrote the file every float must match bitwise; on another, within
``CROSS_VERSION_RTOL`` (plus ``CROSS_VERSION_ATOL`` for rounding residuals near
zero), and a CSV by its rows and parsed cells, since numpy builds may round
transcendentals differently.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from qmix._serial import pairs
from qmix.cli import main


def state(d: int, seed: int) -> list:
    """A full-rank d x d density matrix as [re, im] pairs, exactly Hermitian."""
    g = np.random.default_rng(seed).normal(size=(2, d, d))
    G = g[0] + 1j * g[1]
    M = G @ G.conj().T
    return pairs((M + M.conj().T) / (2 * np.trace(M).real))


BLOCKS = {"trivial": [[[1.0, 0.0]]], "sign": [[[0.0, 1.0]]],
          "standard": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}
PHASES = {"phi1": 0.4, "phi2": -0.4, "a": [0.6, 0.1], "c": [float(np.sqrt(0.63)), 0.0]}
UNBALANCED = dict(PHASES, phi2=-0.7)
Q = [[0.25424279306274034, -0.48942676664938306], [0.668085488139441, -0.003964769055880173],
     [0.07767171879781866, 0.4933915357052633]]
PDELTA = {"p": [0.3041779577372131, 0.4463539388561816, 0.24946810340660558],
          "deltas": [-1.0857594274805553, -1.420588125191413, 2.5063475526719685]}
Z = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
NOT_PSD = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
NOT_HERMITIAN = [[[0.5, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


def synth(doc, *flags):
    return ["synth", "--config", "c.json", *flags], {"c.json": doc}


def combine(mats, params, *flags):
    return (["combine", "--states", "s.json", "--params", "p.json", *flags],
            {"s.json": {"states": mats}, "p.json": params})


def orbit(p, *flags):
    return ["orbit", "--config", "w.json", "--out", "trace.csv", *flags], {"w.json": {"p": p}}


def scan(*flags):
    return ["epi-scan", *flags], {}


def states(d, count=3):
    return [state(d, 10 * d + k) for k in range(count)]


CORPUS = [
    # synth: s3 blocks, s3 phases and z5, with and without --verify, on stdout and to --out
    (*synth({"group": "s3", "blocks": BLOCKS}), 0),
    (*synth({"group": "s3", "blocks": BLOCKS}, "--verify", "--out", "out.json"), 0),
    (*synth({"group": "s3", "phases": PHASES}), 0),
    (*synth({"group": "s3", "phases": PHASES}, "--verify"), 0),
    (*synth({"group": "z5", "phases": [0.1, 0.2, 0.3, 0.4, 0.5]}, "--out", "out.json"), 0),
    (*synth({"group": "z5", "phases": [0.1, 0.2, 0.3, 0.4, 0.5]}, "--verify"), 0),
    (*synth({"group": "s3", "blocks": dict(BLOCKS, trivial=[[[0.5, 0.0]]])}), 3),
    (*synth({"group": "s3", "blocks": dict(BLOCKS, trivial=[[[0.5, 0.0]]])}, "--verify"), 3),
    (*synth({"blocks": BLOCKS}), 2),
    (*synth({"group": "z121", "phases": [0.0]}), 2),
    (*synth({"group": "s3", "blocks": {"trivial": [[[1.0, 0.0]]]}}), 2),
    (*synth("{not json"), 2),
    (["synth", "--config", "missing.json"], {}, 2),
    (*synth({"group": "s3", "blocks": BLOCKS}, "--out", "no-such-dir/out.json"), 2),
    # combine: each mode with and without --verify, each parameter form, d = 1/2/3/4/8
    (*combine(states(2), {"q": Q}), 0),
    (*combine(states(2), {"q": Q}, "--mode", "magic"), 0),
    (*combine(states(2), {"q": Q}, "--mode", "brute"), 0),
    (*combine(states(2), {"q": Q}, "--verify"), 0),
    (*combine(states(2), {"q": Q}, "--mode", "magic", "--verify", "--out", "out.json"), 0),
    (*combine(states(2), {"q": Q}, "--mode", "brute", "--verify"), 0),
    (*combine(states(1), {"q": Q}, "--verify"), 0),
    (*combine(states(3), PDELTA, "--verify"), 0),
    (*combine(states(4), {"z": Z}, "--mode", "magic", "--verify"), 0),
    (*combine(states(3), {"phases": PHASES}, "--mode", "brute"), 0),
    (*combine(states(2), {"phases": UNBALANCED}, "--mode", "magic", "--verify"), 0),
    (*combine(states(8), {"q": Q}), 0),
    (*combine(states(8), {"q": Q}, "--mode", "magic"), 0),
    (*combine(states(8), {"q": Q}, "--verify"), 0),
    (*combine(states(2, 2), {"lambda": 0.3}), 0),
    (*combine(states(3, 2), {"lambda": 0.7, "sign": -1}, "--verify"), 0),
    (*combine(states(2), {"phases": UNBALANCED}), 3),
    (*combine(states(2), {"q": [[0.9, 0.0], [0.1, 0.0], [0.1, 0.0]]}), 3),
    (*combine([NOT_PSD, *states(2, 2)], {"q": Q}), 3),
    (*combine([NOT_HERMITIAN, state(2, 0)], {"lambda": 0.5}), 3),
    (*combine(states(9), {"q": Q}, "--verify"), 3),
    (*combine(states(9), {"q": Q}, "--mode", "brute"), 3),
    (*combine(states(2, 2), {"q": Q}), 2),
    (*combine([state(2, 0), state(3, 0)], {"lambda": 0.5}), 2),
    (*combine(states(2), {"q": [[1.0, 0.0], [0.0, 0.0]]}), 2),
    (*combine(states(2), {"lambda": 0.5, "sign": 0.5}), 2),
    (*combine(states(2), {"nothing": 1}), 2),
    # epi-scan: n = 2/3, d = 2/3/4, every functional, around the 256-sample block, 1 and 2 workers
    (*scan("--n", "2", "--samples", "1"), 0),
    (*scan("--n", "2", "--samples", "257", "--seed", "3", "--out", "out.json"), 0),
    (*scan("--n", "3", "--samples", "256", "--seed", "4"), 0),
    (*scan("--n", "3", "--samples", "700", "--seed", "4", "--workers", "2"), 0),
    (*scan("--n", "3", "--d", "3", "--functional", "renyi-0.5", "--samples", "255"), 0),
    (*scan("--n", "2", "--d", "3", "--functional", "renyi-2", "--samples", "40"), 0),
    (*scan("--n", "2", "--d", "4", "--functional", "neg-purity", "--samples", "40"), 0),
    (*scan("--n", "3", "--d", "4", "--samples", "40", "--seed", "9"), 0),
    (*scan("--n", "2", "--d", "7"), 2),
    (*scan("--n", "4"), 2),
    (*scan("--n", "2", "--samples", "0"), 2),
    (*scan("--n", "2", "--seed", "-1"), 2),
    (*scan("--n", "2", "--workers", "0"), 2),
    (*scan("--n", "2", "--functional", "shannon"), 2),
    # orbit: one orbit, two orbits and zero weights, with and without --mub
    (*orbit([1 / 3, 1 / 3, 1 / 3], "--steps", "120"), 0),
    (*orbit([1 / 3, 1 / 3, 1 / 3], "--steps", "120", "--mub"), 0),
    (*orbit([0.01, 0.36, 0.63], "--steps", "60"), 0),
    (*orbit([0.01, 0.36, 0.63], "--steps", "60", "--mub"), 0),
    (*orbit([0.6, 0.3, 0.1], "--steps", "60", "--mub"), 0),
    (*orbit([1.0, 0.0, 0.0], "--mub"), 0),
    (*orbit([0.0, 0.5, 0.5], "--steps", "60", "--mub"), 0),
    (*orbit([0.5, 0.5, 0.5]), 3),
    (*orbit([1 / 3, 1 / 3, 1 / 3], "--steps", "4"), 2),
    (*orbit([0.5, 0.5]), 2),
    (["orbit", "--config", "w.json", "--out", "trace.csv"], {"w.json": {"weights": [1, 0, 0]}}, 2),
    (["orbit", "--config", "w.json"], {"w.json": {"p": [0.5, 0.3, 0.2]}}, 2),
    # flat-search
    (["flat-search", "--attempts", "2", "--seed", "1"], {}, 0),
    (["flat-search", "--attempts", "1", "--out", "out.json"], {}, 0),
    (["flat-search", "--attempts", "0"], {}, 2),
    (["flat-search", "--seed", "-1"], {}, 2),
    # help and usage
    (["--help"], {}, 0),
    *(([command, "--help"], {}, 0) for command in ("synth", "combine", "orbit", "epi-scan",
                                                    "flat-search")),
    ([], {}, 2),
    (["scan"], {}, 2),
    # appended after the rest so the numbered ids above keep their numbers: synth configs with
    # phases that are not an object, and with neither blocks nor phases
    (*synth({"group": "s3", "phases": 5}), 2),
    (*synth({"group": "s3"}), 2),
    # orbit at a tiny weight: a 1e-8 bar traced in full, and a 1e-12 bar, which as the crank
    # traces two full loops
    (*orbit([0.44, 0.56, 1e-16]), 0),
    (*orbit([0.5, 0.5, 1e-24]), 0),
    # orbit with two small unequal bars, beside a bar of exactly 1 and beside a bar just below 1
    (*orbit([1.0, 1.1227030650458948e-17, 4.1602002640974797e-17], "--steps", "1200"), 0),
    (*orbit([0.9999999999, 1e-10, 1e-20], "--steps", "1200"), 0),
    # orbit with two equal tiny bars beside a bar of 1: 3e-9 bars trace as one loop, while 3e-10
    # bars cannot pass the tangency at theta = 0 and exit 2; one ulp off the Grashof boundary, one
    # loop as orbit_count says; and a zero crank beside bars of 1e-12 and 1, one point orbit
    (*orbit([1.0, 1e-17, 1e-17]), 0),
    (*orbit([1.0, 1e-19, 1e-19]), 2),
    (*orbit([0.006596427004888358, 0.9855792992581145, 0.007824273736997078]), 0),
    (*orbit([0.0, 1e-24, 1.0]), 0),
]


GOLDEN = Path(__file__).parent / "golden" / "corpus.json"
REGOLD = os.environ.get("QMIX_REGOLD") == "1"
TEXT_LIMIT = 40_000
# floats are written by repr, so the numpy build that wrote the file reproduces them bitwise.
# Another build may round a transcendental's last bit differently, and a scan, an orbit bisection
# or a Levenberg-Marquardt fit carries that on: the relative bound sits far above such rounding
# and far below a change in what a request computes; the absolute one covers residuals that are
# rounding noise near zero (unitarity residuals of about 1e-16).
CROSS_VERSION_RTOL = 1e-9
CROSS_VERSION_ATOL = 1e-12

ENTRIES = [(f"{i:02d}", *entry) for i, entry in enumerate(CORPUS)]
IDS = [f"{key} {' '.join(argv)}" for key, argv, _, _ in ENTRIES]


def outside_timing(text: str) -> str:
    """A report's text up to its last member, ``timing``; any other text whole."""
    return text.partition('\n  "timing": ')[0]


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """``tmp_path`` as the working directory, with argparse wrapping its help at 80 columns."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    return tmp_path


def run(capsys, tmp_path, argv, documents) -> tuple[int, str, str, dict]:
    """Exit code, stdout, stderr and output files' text of one in-process run in ``tmp_path``."""
    for path in tmp_path.iterdir():
        if path.name not in documents and path.is_file():
            path.unlink()
    for name, doc in documents.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main(list(argv))
    captured = capsys.readouterr()
    files = {p.name: p.read_text() for p in sorted(tmp_path.iterdir()) if p.name not in documents}
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("argv, documents, code", CORPUS, ids=IDS)
def test_request_repeats_outside_timing(in_tmp, capsys, argv, documents, code):
    runs = []
    for _ in range(2):
        rc, out, err, files = run(capsys, in_tmp, argv, documents)
        assert rc == code
        runs.append((outside_timing(out), err,
                     {name: outside_timing(text) for name, text in files.items()}))
    assert runs[0] == runs[1]
    assert "Traceback" not in runs[0][1]


def report(text: str) -> dict:
    """A report as parsed JSON without its ``timing`` member."""
    doc = json.loads(text)
    doc.pop("timing")
    return doc


def csv_record(text: str) -> dict:
    """A CSV by its data-row count and SHA-256, and its lines when it is small."""
    lines = text.splitlines(keepends=True)
    rec = {"data_rows": len(lines) - 1, "sha256": hashlib.sha256(text.encode()).hexdigest()}
    if len(text) <= TEXT_LIMIT:
        rec["lines"] = lines
    return rec


def record(argv, code, out, err, files) -> dict:
    """An entry of the golden file: stdout is a report or text (help), each file a report or CSV."""
    return {"argv": list(argv), "exit": code, "stderr": err,
            "stdout": report(out) if out.startswith("{") else out,
            "files": {name: report(text) if text.startswith("{") else csv_record(text)
                      for name, text in files.items()}}


def cells(line: str) -> list:
    """A CSV line's cells, each a float where it reads as one."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    return [cell(c) for c in line.rstrip("\r\n").split(",")]


def cross_version(rec):
    """``rec`` as compared on another numpy version: CSVs by row count and parsed cells."""
    if isinstance(rec, dict):
        if "sha256" in rec:
            return {"data_rows": rec["data_rows"],
                    "cells": [cells(line) for line in rec.get("lines", [])]}
        return {key: cross_version(value) for key, value in rec.items()}
    return [cross_version(value) for value in rec] if isinstance(rec, list) else rec


def mismatches(old, new, exact: bool, path: str = ""):
    """(JSON path, golden value, new value, float difference or None) where ``new`` departs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            if key not in old or key not in new:
                yield f"{path}/{key}", old.get(key, "<absent>"), new.get(key, "<absent>"), None
            else:
                yield from mismatches(old[key], new[key], exact, f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for k, (a, b) in enumerate(zip(old, new)):
            yield from mismatches(a, b, exact, f"{path}/{k}")
    elif type(old) is float and type(new) is float:
        if repr(old) != repr(new):  # repr reads back bitwise, and NaN equals NaN here
            diff = abs(old - new)
            bound = CROSS_VERSION_RTOL * max(abs(old), abs(new)) + CROSS_VERSION_ATOL
            if exact or not diff <= bound:
                yield path, old, new, diff
    elif type(old) is not type(new) or old != new:
        yield path, old, new, None


@pytest.fixture(scope="module")
def golden():
    """The golden file's contents; under QMIX_REGOLD=1, rewritten from this run at the end."""
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"numpy": None, "entries": {}}
    yield doc
    if REGOLD:
        keys = {key for key, *_ in ENTRIES}
        entries = doc["entries"]
        doc = {"numpy": np.__version__,
               "entries": {k: entries[k] for k in sorted(entries, key=int) if k in keys}}
        GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")


@pytest.mark.parametrize("key, argv, documents, code", ENTRIES, ids=IDS)
def test_request_matches_golden_file(in_tmp, capsys, golden, key, argv, documents, code):
    new = record(argv, *run(capsys, in_tmp, argv, documents))
    if REGOLD:
        golden["entries"][key] = new
        return
    assert key in golden["entries"], f"entry {key} is not in {GOLDEN.name}; rewrite it"
    old = golden["entries"][key]
    exact = golden["numpy"] == np.__version__
    if not exact:
        old, new = cross_version(old), cross_version(new)
    found = list(mismatches(old, new, exact))
    if found:
        path, a, b, _ = found[0]
        diffs = [(diff, where) for where, _, _, diff in found if diff is not None]
        worst = "largest float difference %.3g at %s" % max(diffs) if diffs else "no float differs"
        pytest.fail(f"entry {key} ({' '.join(argv)}) departs from {GOLDEN.name} "
                    f"(numpy {golden['numpy']}, here {np.__version__}) at {len(found)} path(s), "
                    f"first {path}: golden {a!r}, now {b!r}; {worst}")
