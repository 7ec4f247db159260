"""A checked-in request corpus: every subcommand at small sizes, with its declared exit code.

Each entry of ``CORPUS`` is ``(argv, documents, exit code)``.  ``documents``
maps a file name to what is written there before the run: JSON for any value
but a str, which is written as it stands.  argv names those files and its
outputs relative to one working directory, so a report that echoes a path
reads the same wherever the corpus runs.  Each entry runs twice in-process;
both runs must give the declared exit code and the same stdout, stderr and
output files outside the reports' ``timing`` member.
"""

import json

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


def outside_timing(text: str) -> str:
    """A report's text up to its last member, ``timing``; any other text whole."""
    return text.partition('\n  "timing": ')[0]


@pytest.mark.parametrize("argv, documents, code", CORPUS,
                         ids=[f"{i:02d} {' '.join(argv)}" for i, (argv, _, _) in enumerate(CORPUS)])
def test_request_repeats_outside_timing(tmp_path, monkeypatch, capsys, argv, documents, code):
    monkeypatch.chdir(tmp_path)
    for name, doc in documents.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    runs = []
    for _ in range(2):
        for path in tmp_path.iterdir():
            if path.name not in documents and path.is_file():
                path.unlink()
        assert main(list(argv)) == code
        captured = capsys.readouterr()
        outputs = {p.name: outside_timing(p.read_text()) for p in sorted(tmp_path.iterdir())
                   if p.name not in documents}
        runs.append((outside_timing(captured.out), captured.err, outputs))
    assert runs[0] == runs[1]
    assert "Traceback" not in runs[0][1]
