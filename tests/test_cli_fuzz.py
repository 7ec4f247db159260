"""The exit-code contract under arbitrary JSON input files.

Every input file reaches ``main`` either as a random JSON value or as a
valid document with one node replaced by one.  Whatever it holds, ``main``
returns 0, 2, 3 or 4 and prints no traceback.
"""

import copy
import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmix.cli import main

HALF = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
PHASES = {"phi1": 0.4, "phi2": -0.4, "a": [0.6, 0.1], "c": [float(np.sqrt(0.63)), 0.0]}
VALID = {
    "synth": [
        {"group": "s3", "blocks": {"trivial": [[[1.0, 0.0]]], "sign": [[[0.0, 1.0]]],
                                   "standard": [[[1.0, 0.0], [0.0, 0.0]],
                                                [[0.0, 0.0], [1.0, 0.0]]]}},
        {"group": "s3", "phases": PHASES},
        {"group": "z3", "phases": [0.1, 0.2, 0.3]},
    ],
    "states": [{"states": [HALF, HALF, HALF]}, [HALF, HALF, HALF]],
    "params": [
        {"q": [[0.5, 0.5], [0.5, -0.5], [0.0, 0.0]]},
        {"p": [0.5, 0.5, 0.0], "deltas": [np.pi / 2, -np.pi / 4, -np.pi / 4]},
        {"z": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]},
        {"phases": PHASES},
        {"lambda": 0.3, "sign": -1},
    ],
    "orbit": [{"p": [0.5, 0.3, 0.2]}, {"p": [0.01, 0.36, 0.63]}],
}

LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
JSON = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


def node_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from node_paths(value, prefix + (key,))


@st.composite
def mutant(draw, docs):
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(list(node_paths(doc))))
    value = draw(JSON)
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def documents(role):
    return st.one_of(JSON, mutant(VALID[role]))


def assert_contract(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), err
    assert "Traceback" not in err


FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=120,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@FUZZ
@given(doc=documents("synth"))
def test_synth_config(tmp_path, capsys, doc):
    assert_contract(["synth", "--config", write(tmp_path, "c.json", doc)], capsys)


@FUZZ
@given(doc=documents("states"))
def test_combine_states(tmp_path, capsys, doc):
    params = write(tmp_path, "p.json", VALID["params"][0])
    assert_contract(["combine", "--states", write(tmp_path, "s.json", doc),
                     "--params", params], capsys)


@FUZZ
@given(doc=documents("params"), n=st.sampled_from([2, 3]))
def test_combine_params(tmp_path, capsys, doc, n):
    states = write(tmp_path, "s.json", {"states": [HALF] * n})
    assert_contract(["combine", "--states", states,
                     "--params", write(tmp_path, "p.json", doc)], capsys)


@FUZZ
@given(doc=documents("orbit"))
def test_orbit_config(tmp_path, capsys, doc):
    assert_contract(["orbit", "--config", write(tmp_path, "c.json", doc), "--steps", "12",
                     "--out", str(tmp_path / "o.csv")], capsys)
