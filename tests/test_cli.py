import copy
import json
import os
import shutil
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmix
import qmix.cli as cli
import qmix.linkage as linkage
from qmix._serial import pairs
from qmix.cli import main
from qmix.combine import (QTriple, _balanced_q_rows, combine2, combine3_bruteforce, combine3_closed,
                          random_qtriple, z_from_q)
from qmix.irreps import s3_coeffs_from_phases
from qmix.linkage import write_orbit_csv
from qmix.states import (DensityMatrix, EntropyFunctional, _bloch_rows, _gram_states, bloch_vector,
                         entropy, get_functional, random_density)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return rc, doc


def report_of(doc):
    assert doc["format"] == "qmix/1"
    assert "timing" in doc and "elapsed_s" in doc["timing"]
    return doc["report"]


def strip_timing(doc):
    doc = copy.deepcopy(doc)
    doc.pop("timing", None)
    return doc


def mat_json(M):
    return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in M]


def states_file(tmp_path, name, mats):
    return write_json(tmp_path, name, {"states": [mat_json(m) for m in mats]})


@pytest.fixture
def serial_pool(monkeypatch):
    """Run epi-scan's worker ranges in this process, on a machine with 4 CPUs; gives the pool sizes."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    return sizes


# argmin record of `epi-scan --n 3 --d 2 --samples 400 --seed 5`, floats as their repr; the states
# are (I + r.sigma)/2 of the drawn Bloch vectors r
PINNED_ARGMIN = {
    "sample_index": 255,
    "seed_path": [5, 255],
    "states": [
        [
            [[0.4387276544879293, 0.0], [0.2711346727832096, 0.32096319278254093]],
            [[0.2711346727832096, -0.32096319278254093], [0.5612723455120707, 0.0]],
        ],
        [
            [[0.383254624274653, 0.0], [0.1939619779150685, -0.058639582837938936]],
            [[0.1939619779150685, 0.058639582837938936], [0.6167453757253469, 0.0]],
        ],
        [
            [[0.3864114479154231, 0.0], [0.10871992989506371, -0.3552941267330024]],
            [[0.10871992989506371, 0.3552941267330024], [0.613588552084577, 0.0]],
        ],
    ],
    "q": [[-0.03776308427292292, -0.08639024606061008], [0.983303482663426, 0.13680989301637303],
          [0.05445960160949677, -0.05041964695576297]],
}

IDENTITY_BLOCKS = {
    "trivial": [[[1.0, 0.0]]],
    "sign": [[[1.0, 0.0]]],
    "standard": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
}


class TestSynth:
    def test_identity_blocks_give_indicator(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"group": "s3", "blocks": IDENTITY_BLOCKS})
        rc, doc = run(capsys, "synth", "--config", cfg)
        assert rc == 0
        rep = report_of(doc)
        assert doc["command"] == "synth"
        z = [complex(re, im) for re, im in rep["z"]]
        assert_allclose(z, [1, 0, 0, 0, 0, 0], atol=1e-12)
        assert rep["regular_unitarity_residual"] < 1e-10
        assert rep["block_roundtrip_error"] < 1e-9
        assert rep["labels"] == ["trivial", "sign", "standard"]

    def test_phases_match_library(self, tmp_path, capsys):
        a, c = 0.6 + 0.1j, complex(np.sqrt(1 - abs(0.6 + 0.1j) ** 2), 0)
        cfg = write_json(tmp_path, "c.json", {
            "group": "s3",
            "phases": {"phi1": 0.4, "phi2": -0.7,
                       "a": [a.real, a.imag], "c": [c.real, c.imag]},
        })
        rc, doc = run(capsys, "synth", "--config", cfg, "--verify")
        assert rc == 0
        z = [complex(re, im) for re, im in report_of(doc)["z"]]
        expect = s3_coeffs_from_phases(0.4, -0.7, a, c)
        assert_allclose(z, expect.coeffs, atol=1e-12)

    def test_cyclic_phases(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"group": "z2", "phases": [0.0, np.pi]})
        rc, doc = run(capsys, "synth", "--config", cfg)
        assert rc == 0
        z = [complex(re, im) for re, im in report_of(doc)["z"]]
        assert_allclose(z, [0, 1], atol=1e-12)

    @pytest.mark.parametrize("phases", [
        {"phi1": 0.4, "phi2": -0.7, "c": [1.0, 0.0]},
        {"phi1": "x", "phi2": -0.7, "a": [1.0, 0.0], "c": [0.0, 0.0]},
        {"phi1": 0.4, "phi2": -0.7, "a": [1.0], "c": [0.0, 0.0]},
    ])
    def test_malformed_phases_are_usage_errors(self, tmp_path, capsys, phases):
        cfg = write_json(tmp_path, "c.json", {"group": "s3", "phases": phases})
        rc = main(["synth", "--config", cfg])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_group_is_usage_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"blocks": IDENTITY_BLOCKS})
        rc, _ = run(capsys, "synth", "--config", cfg)
        assert rc == 2

    def test_missing_block_is_usage_error(self, tmp_path, capsys):
        blocks = {k: v for k, v in IDENTITY_BLOCKS.items() if k != "sign"}
        cfg = write_json(tmp_path, "c.json", {"group": "s3", "blocks": blocks})
        rc, _ = run(capsys, "synth", "--config", cfg)
        assert rc == 2

    def test_non_unitary_block_is_domain_error(self, tmp_path, capsys):
        blocks = dict(IDENTITY_BLOCKS)
        blocks["trivial"] = [[[0.5, 0.0]]]
        cfg = write_json(tmp_path, "c.json", {"group": "s3", "blocks": blocks})
        rc, _ = run(capsys, "synth", "--config", cfg)
        assert rc == 3

    def test_missing_file(self, tmp_path, capsys):
        rc, _ = run(capsys, "synth", "--config", str(tmp_path / "nope.json"))
        assert rc == 2

    def test_verify_failure_still_emits_the_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_unitarity_residual", lambda U: 1.0)
        cfg = write_json(tmp_path, "c.json", {"group": "s3", "blocks": IDENTITY_BLOCKS})
        rc = main(["synth", "--config", cfg, "--verify"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == "qmix: synthesized coefficients failed verification\n"
        assert report_of(json.loads(captured.out))["regular_unitarity_residual"] == 1.0

    def test_deterministic_modulo_timing(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"group": "s3", "blocks": IDENTITY_BLOCKS})
        _, doc1 = run(capsys, "synth", "--config", cfg)
        _, doc2 = run(capsys, "synth", "--config", cfg)
        assert strip_timing(doc1) == strip_timing(doc2)

    def test_out_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"group": "s3", "blocks": IDENTITY_BLOCKS})
        out = tmp_path / "report.json"
        rc, doc = run(capsys, "synth", "--config", cfg, "--out", str(out))
        assert rc == 0
        assert doc is None  # report went to the file, not stdout
        saved = json.loads(out.read_text())
        assert saved["format"] == "qmix/1"


class TestCombine:
    def test_binary_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        r1, r2 = random_density(2, seed=rng), random_density(2, seed=rng)
        states = states_file(tmp_path, "s.json", [r1.mat, r2.mat])
        params = write_json(tmp_path, "p.json", {"lambda": 0.5})
        rc, doc = run(capsys, "combine", "--states", states, "--params", params)
        assert rc == 0
        rep = report_of(doc)
        got = np.array([[re + 1j * im for re, im in row] for row in rep["state"]])
        assert_allclose(got, combine2(r1, r2, 0.5).mat, atol=1e-12)
        assert rep["mode"] == "binary"
        assert abs(rep["diagnostics"]["trace"] - 1) < 1e-12

    def test_binary_verify_cross_checks_the_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        r1, r2 = random_density(3, seed=rng), random_density(3, seed=rng)
        states = states_file(tmp_path, "s.json", [r1.mat, r2.mat])
        params = write_json(tmp_path, "p.json", {"lambda": 0.3, "sign": -1})
        rc, doc = run(capsys, "combine", "--states", states, "--params", params, "--verify")
        assert rc == 0
        assert report_of(doc)["verify"]["max_mode_diff"] < 1e-10
        rc, doc = run(capsys, "combine", "--states", states, "--params", params)
        assert rc == 0 and "verify" not in report_of(doc)

    def test_binary_verify_fails_on_a_broken_oracle(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "combine2_bruteforce", lambda r1, r2, lam, sign: r2)
        rng = np.random.default_rng(9)
        states = states_file(tmp_path, "s.json", [random_density(2, seed=rng).mat for _ in "ab"])
        params = write_json(tmp_path, "p.json", {"lambda": 0.3, "sign": -1})
        rc, doc = run(capsys, "combine", "--states", states, "--params", params, "--verify")
        assert rc == 4
        assert report_of(doc)["verify"]["max_mode_diff"] > 1e-3  # the report is still emitted

    def test_ternary_verify_modes_agree(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rhos = [random_density(3, seed=rng) for _ in range(3)]
        q = random_qtriple(5)
        states = states_file(tmp_path, "s.json", [r.mat for r in rhos])
        params = write_json(tmp_path, "p.json", {"q": q.to_json()})
        rc, doc = run(capsys, "combine", "--states", states, "--params", params,
                      "--verify")
        assert rc == 0
        rep = report_of(doc)
        assert rep["verify"]["max_mode_diff"] < 1e-10
        got = np.array([[re + 1j * im for re, im in row] for row in rep["state"]])
        assert_allclose(got, combine3_closed(*rhos, q).mat, atol=1e-12)

    def test_verify_runs_each_mode_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("combine3_closed", "combine3_magic", "combine3_bruteforce"):
            def counted(*args, f=getattr(cli, name), name=name):
                calls.append(name)
                return f(*args)
            monkeypatch.setattr(cli, name, counted)
        rhos = [random_density(2, seed=s) for s in range(3)]
        states = states_file(tmp_path, "s.json", [r.mat for r in rhos])
        params = write_json(tmp_path, "p.json", {"q": random_qtriple(5).to_json()})
        rc, doc = run(capsys, "combine", "--states", states, "--params", params, "--verify")
        assert rc == 0 and report_of(doc)["verify"]["max_mode_diff"] < 1e-10
        assert sorted(calls) == ["combine3_bruteforce", "combine3_closed", "combine3_magic"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_qubit_verify_runs_the_bloch_form(self, tmp_path, capsys, monkeypatch, n):
        # at d = 2 the scan's Bloch evaluator is cross-checked too: breaking it fails the run
        rhos = [random_density(2, seed=s) for s in range(n)]
        states = states_file(tmp_path, "s.json", [r.mat for r in rhos])
        params = write_json(tmp_path, "p.json", {"lambda": 0.3} if n == 2
                            else {"q": random_qtriple(5).to_json()})
        rc, doc = run(capsys, "combine", "--states", states, "--params", params, "--verify")
        assert rc == 0 and report_of(doc)["verify"]["max_mode_diff"] < 1e-10
        monkeypatch.setattr(cli, "_binary_bloch" if n == 2 else "_closed_bloch",
                            lambda r, *params: r[:, 0])
        rc, doc = run(capsys, "combine", "--states", states, "--params", params, "--verify")
        assert rc == 4 and report_of(doc)["verify"]["max_mode_diff"] > 1e-3

    def test_verify_beyond_brute_force_cap_is_domain_error(self, tmp_path, capsys):
        states = states_file(tmp_path, "s.json", [np.eye(9) / 9] * 3)
        params = write_json(tmp_path, "p.json", {"q": random_qtriple(5).to_json()})
        rc = main(["combine", "--states", states, "--params", params, "--verify"])
        assert rc == 3
        assert "capped at local dimension 8" in capsys.readouterr().err

    def test_bloch_reported_for_qubits(self, tmp_path, capsys):
        rhos = [DensityMatrix.from_bloch(1, 0, 0), DensityMatrix.from_bloch(0, 1, 0),
                DensityMatrix.from_bloch(0, 0, 1)]
        q = random_qtriple(6)
        states = states_file(tmp_path, "s.json", [r.mat for r in rhos])
        params = write_json(tmp_path, "p.json", {"q": q.to_json()})
        rc, doc = run(capsys, "combine", "--states", states, "--params", params)
        assert rc == 0
        rep = report_of(doc)
        assert_allclose(rep["bloch"], bloch_vector(combine3_closed(*rhos, q)),
                        atol=1e-12)
        assert_allclose(rep["bloch_inputs"][0], [1, 0, 0], atol=1e-12)

    def test_pdelta_params(self, tmp_path, capsys):
        from qmix.combine import pdelta_from_q
        q = random_qtriple(7)
        pd = pdelta_from_q(q)
        rng = np.random.default_rng(2)
        rhos = [random_density(2, seed=rng) for _ in range(3)]
        states = states_file(tmp_path, "s.json", [r.mat for r in rhos])
        params = write_json(tmp_path, "p.json", pd.to_json())
        rc, doc = run(capsys, "combine", "--states", states, "--params", params)
        assert rc == 0
        got = np.array([[re + 1j * im for re, im in row]
                        for row in report_of(doc)["state"]])
        assert_allclose(got, combine3_closed(*rhos, q).mat, atol=1e-9)

    def test_invalid_state_matrix(self, tmp_path, capsys):
        bad = [[1.0, 0.5], [0.0, 0.0]]  # not hermitian
        states = states_file(tmp_path, "s.json", [np.array(bad), np.eye(2) / 2])
        params = write_json(tmp_path, "p.json", {"lambda": 0.5})
        rc, _ = run(capsys, "combine", "--states", states, "--params", params)
        assert rc == 3

    def test_off_manifold_q(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rhos = [random_density(2, seed=rng) for _ in range(3)]
        states = states_file(tmp_path, "s.json", [r.mat for r in rhos])
        params = write_json(tmp_path, "p.json",
                            {"q": [[0.9, 0.0], [0.1, 0.0], [0.1, 0.0]]})
        rc, _ = run(capsys, "combine", "--states", states, "--params", params)
        assert rc == 3

    def test_unbalanced_z_with_closed_mode(self, tmp_path, capsys):
        a = 0.6 + 0.1j
        c = complex(np.sqrt(1 - abs(a) ** 2), 0)
        z = s3_coeffs_from_phases(0.4, -0.7, a, c)  # phi2 != -phi1: no gauge
        rng = np.random.default_rng(4)
        rhos = [random_density(2, seed=rng) for _ in range(3)]
        states = states_file(tmp_path, "s.json", [r.mat for r in rhos])
        params = write_json(tmp_path, "p.json", {"z": pairs(z.coeffs)})
        rc, _ = run(capsys, "combine", "--states", states, "--params", params,
                    "--mode", "closed")
        assert rc == 3
        # magic mode has no gauge requirement
        rc, doc = run(capsys, "combine", "--states", states, "--params", params,
                      "--mode", "magic")
        assert rc == 0

    def test_two_states_need_lambda(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        mats = [random_density(2, seed=rng).mat for _ in range(2)]
        states = states_file(tmp_path, "s.json", mats)
        params = write_json(tmp_path, "p.json", {"q": random_qtriple(1).to_json()})
        rc, _ = run(capsys, "combine", "--states", states, "--params", params)
        assert rc == 2

    def test_states_object_without_states_is_usage_error(self, tmp_path, capsys):
        states = write_json(tmp_path, "s.json", {"foo": 1})
        params = write_json(tmp_path, "p.json", {"lambda": 0.5})
        rc = main(["combine", "--states", states, "--params", params])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("params", [
        {"lambda": "x"},
        {"lambda": 0.5, "sign": "x"},
        {"lambda": 0.5, "sign": 0.5},
    ])
    def test_malformed_binary_params_are_usage_errors(self, tmp_path, capsys, params):
        states = states_file(tmp_path, "s.json", [np.eye(2) / 2, np.eye(2) / 2])
        rc = main(["combine", "--states", states, "--params",
                   write_json(tmp_path, "p.json", params)])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_phases_without_a_is_usage_error(self, tmp_path, capsys):
        states = states_file(tmp_path, "s.json", [np.eye(2) / 2] * 3)
        params = write_json(tmp_path, "p.json",
                            {"phases": {"phi1": 0.4, "phi2": -0.4, "c": [1.0, 0.0]}})
        rc = main(["combine", "--states", states, "--params", params])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        states = states_file(tmp_path, "s.json", [np.eye(2) / 2, np.eye(3) / 3])
        params = write_json(tmp_path, "p.json", {"lambda": 0.5})
        rc, _ = run(capsys, "combine", "--states", states, "--params", params)
        assert rc == 2


class TestOrbit:
    def test_uniform_trace(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"p": [1 / 3, 1 / 3, 1 / 3]})
        out = tmp_path / "trace.csv"
        rc, doc = run(capsys, "orbit", "--config", cfg, "--steps", "1200",
                      "--out", str(out))
        assert rc == 0
        rep = report_of(doc)
        assert rep["orbits"] == 1
        assert rep["nested_rows"] == 12
        lines = out.read_text().splitlines()
        assert len(lines) == rep["rows"] + 1
        assert lines[0].startswith("step,orbit,re_q1")

    def test_mub_columns(self, tmp_path, capsys):
        # two orbits: every row's Bloch columns belong to that row's own q
        cfg = write_json(tmp_path, "c.json", {"p": [0.01, 0.36, 0.63]})
        out = tmp_path / "trace.csv"
        rc, doc = run(capsys, "orbit", "--config", cfg, "--steps", "120",
                      "--out", str(out), "--mub")
        assert rc == 0
        assert report_of(doc)["orbits"] == 2
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[-3:] == ["bloch_x", "bloch_y", "bloch_z"]
        rhos = [DensityMatrix.from_bloch(1, 0, 0), DensityMatrix.from_bloch(0, 1, 0),
                DensityMatrix.from_bloch(0, 0, 1)]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == report_of(doc)["rows"]
        assert {row[1] for row in rows} == {"0", "1"}
        for row in rows:
            q = QTriple(complex(float(row[2]), float(row[3])),
                        complex(float(row[4]), float(row[5])),
                        complex(float(row[6]), float(row[7])))
            # the columns come from the Bloch form, so they match the matrix form to rounding
            expect = bloch_vector(combine3_closed(*rhos, q))
            assert_allclose([float(v) for v in row[-3:]], expect, rtol=0, atol=1e-15)

    def test_mub_columns_of_no_rows(self, tmp_path):
        cols = cli._mub_columns(np.empty((0, 3), complex))
        assert list(cols) == ["bloch_x", "bloch_y", "bloch_z"]
        assert all(c.shape == (0,) for c in cols.values())
        out = tmp_path / "t.csv"
        write_orbit_csv([], out, extra=cli._mub_columns)
        assert out.read_text().strip().split(",")[-3:] == ["bloch_x", "bloch_y", "bloch_z"]

    def test_bad_weights(self, tmp_path, capsys):
        # a well-formed triple off the probability simplex is a domain error, as in combine
        cfg = write_json(tmp_path, "c.json", {"p": [0.5, 0.5, 0.5]})
        rc = main(["orbit", "--config", cfg, "--out", str(tmp_path / "t.csv")])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err == "qmix: weights must be a probability triple\n"
        assert captured.out == ""
        assert not (tmp_path / "t.csv").exists()

    def test_tiny_weight_traces_and_closes(self, tmp_path, capsys):
        # a bar of 1e-8: the stable circle intersection resolves it; so do two small bars beside
        # a bar of exactly 1, unequal (the crank moves the shortest) and equal
        for p in ([0.44, 0.56, 1e-16], [1.0, 1.1227030650458948e-17, 4.1602002640974797e-17],
                  [1.0, 1e-17, 1e-17]):
            cfg = write_json(tmp_path, "c.json", {"p": p})
            out = tmp_path / "t.csv"
            rc, doc = run(capsys, "orbit", "--config", cfg, "--steps", "1200", "--out", str(out))
            assert rc == 0, p
            rows = np.array([[float(v) for v in line.split(",")[2:8]]
                             for line in out.read_text().splitlines()[1:]])
            assert len(rows) == report_of(doc)["rows"] > 0, p
            q = rows[:, 0::2] + 1j * rows[:, 1::2]
            assert np.abs(q.sum(axis=1) - 1).max() <= 1e-10, p
            assert np.abs((np.abs(q) ** 2).sum(axis=1) - 1).max() <= 1e-10, p
            assert np.abs(np.abs(q) ** 2 - p).max() <= 1e-10, p

    def test_unmet_gap_bound_exits_2_without_a_csv(self, tmp_path, capsys, monkeypatch):
        # a circle intersection that mirrors its first row leaves a jump no bisection closes
        config_at = linkage._config_at

        def jumping(*args):
            rows = config_at(*args)
            if rows.ndim == 2:
                rows[0] = rows[0].conj()
            return rows

        monkeypatch.setattr(linkage, "_config_at", jumping)
        cfg = write_json(tmp_path, "c.json", {"p": [1 / 3, 1 / 3, 1 / 3]})
        out = tmp_path / "t.csv"
        rc = main(["orbit", "--config", cfg, "--steps", "1200", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("qmix: orbit trace leaves a bar-angle gap of ")
        assert captured.out == ""
        assert not out.exists()
        assert os.listdir(tmp_path) == ["c.json"]

    def test_equal_tiny_bars_beside_a_bar_of_1_exit_2_under_warnings_as_errors(self, tmp_path, capsys):
        # the two 3e-10 bars cannot be traced through the tangency at theta = 0; the trace must
        # end in its own ValueError, exit 2, and not in a numpy warning raised as an error
        cfg = write_json(tmp_path, "c.json", {"p": [1.0, 1e-19, 1e-19]})
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["orbit", "--config", cfg, "--steps", "1200", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("qmix: ")
        assert captured.out == ""
        assert os.listdir(tmp_path) == ["c.json"]

    def test_missing_p(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"weights": [1, 0, 0]})
        rc, _ = run(capsys, "orbit", "--config", cfg, "--out",
                    str(tmp_path / "t.csv"))
        assert rc == 2

    def test_point_orbit(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"p": [1.0, 0.0, 0.0]})
        out = tmp_path / "t.csv"
        rc, doc = run(capsys, "orbit", "--config", cfg, "--out", str(out))
        assert rc == 0
        rep = report_of(doc)
        assert rep["orbits"] == 1 and rep["rows"] == 1

    def test_two_loop_regime(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"p": [0.01, 0.36, 0.63]})
        out = tmp_path / "t.csv"
        rc, doc = run(capsys, "orbit", "--config", cfg, "--steps", "200",
                      "--out", str(out))
        assert rc == 0
        rep = report_of(doc)
        assert rep["orbits"] == 2
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        ids = sorted({r[1] for r in rows})
        assert ids == ["0", "1"]
        first_of_1 = next(r for r in rows if r[1] == "1")
        assert first_of_1[0] == "0"

    def test_step_floor(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"p": [1 / 3, 1 / 3, 1 / 3]})
        rc, _ = run(capsys, "orbit", "--config", cfg, "--steps", "4",
                    "--out", str(tmp_path / "t.csv"))
        assert rc == 2

    def test_control_character_in_out_path_is_escaped(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "c.json", {"p": [0.5, 0.3, 0.2]})
        out = str(tmp_path / "a\rb\x01.csv")
        rc, doc = run(capsys, "orbit", "--config", cfg, "--steps", "60", "--out", out)
        assert rc == 0
        assert report_of(doc)["csv"] == out


class TestEpiScan:
    def test_binary_scan_passes(self, capsys):
        rc, doc = run(capsys, "epi-scan", "--n", "2", "--samples", "300",
                      "--seed", "11")
        assert rc == 0
        rep = report_of(doc)
        assert rep["min_gap"] >= -1e-9
        assert rep["asserted"] is True
        assert rep["negative_samples"] == 0
        assert rep["argmin"]["sample_index"] >= 0

    def test_deterministic(self, capsys):
        rc1, doc1 = run(capsys, "epi-scan", "--n", "2", "--samples", "120",
                        "--seed", "7")
        rc2, doc2 = run(capsys, "epi-scan", "--n", "2", "--samples", "120",
                        "--seed", "7")
        assert rc1 == rc2 == 0
        assert strip_timing(doc1) == strip_timing(doc2)

    def test_worker_count_invariant(self, capsys):
        # three or four blocks, so --workers 3 runs a real process pool; epi-scan caps the workers
        # at the CPU count, so on fewer than three CPUs it runs as many as there are.  d = 2 takes
        # the Bloch route, d = 3 the column-sum products and d = 4 numpy's matmul.
        for n, d, samples, seed in ((3, 2, 700, 3), (2, 2, 1000, 5), (3, 2, 1000, 5),
                                    (3, 3, 1000, 5), (3, 4, 1000, 5)):
            docs = []
            for workers in (1, 2, 3):
                rc, doc = run(capsys, "epi-scan", "--n", str(n), "--d", str(d), "--samples",
                              str(samples), "--seed", str(seed), "--workers", str(workers))
                assert rc == 0, (n, d, workers)
                docs.append(strip_timing(doc))
            assert docs[1] == docs[0] and docs[2] == docs[0], f"n={n} d={d}: reports differ"

    def test_argmin_gap_rebuilds_through_the_bruteforce_channel(self, capsys):
        # the argmin's states and closed q, mixed by the permutation channel instead of the Bloch
        # form the scan ran, give min_gap back
        rc, doc = run(capsys, "epi-scan", "--n", "3", "--samples", "300")
        assert rc == 0
        rep = report_of(doc)
        q = np.array([complex(re, im) for re, im in rep["argmin"]["q"]])
        assert abs(q.sum() - 1) <= 1e-10 and abs((np.abs(q) ** 2).sum() - 1) <= 1e-10, q
        rhos = [DensityMatrix.from_json(m) for m in rep["argmin"]["states"]]
        qt, f = QTriple(*q), get_functional("von-neumann")
        gap = entropy(f, combine3_bruteforce(*rhos, z_from_q(qt))) - sum(
            w * entropy(f, rho) for w, rho in zip(qt.weights(), rhos))
        assert abs(gap - rep["min_gap"]) <= 1e-12, (gap, rep["min_gap"])

    def test_ternary_scan_records_without_asserting(self, capsys):
        rc, doc = run(capsys, "epi-scan", "--n", "3", "--d", "3",
                      "--functional", "renyi-0.5", "--samples", "80", "--seed", "1")
        assert rc == 0
        rep = report_of(doc)
        assert rep["asserted"] is False
        # the argmin detail reproduces the reported gap exactly
        idx = rep["argmin"]["sample_index"]
        gap, detail = cli._argmin_sample(3, 3, "renyi-0.5", 1, idx)
        assert gap == rep["min_gap"]
        assert detail == rep["argmin"]

    def test_argmin_is_drawn_once(self, capsys, monkeypatch):
        # one draw for the single chunk, one for the argmin's recompute and record
        calls = []
        draw = cli._draw

        def counted(*args):
            calls.append(args)
            return draw(*args)
        monkeypatch.setattr(cli, "_draw", counted)
        rc, _ = run(capsys, "epi-scan", "--n", "3", "--samples", "40", "--workers", "1")
        assert rc == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_draw_matches_the_single_samplers(self, d):
        # block 0 is drawn whole from SeedSequence((9, 0)) and passes through the single samplers'
        # rules (random_density, random_qtriple); rows of a block are those rows of the whole block.
        # At d = 2 the states are (3, n, N) Bloch vectors, computed apart from _gram_states.
        B = cli.DRAW_BLOCK
        for n in (2, 3):
            states, params = cli._draw(n, d, 9, 0, 0, B)
            rng = np.random.default_rng(np.random.SeedSequence((9, 0)))
            expected = _gram_states(rng.normal(size=(B, n * 2 * d * d)).reshape(B, n, 2, d, d))
            if d == 2:
                assert np.abs(states - _bloch_rows(np.moveaxis(expected, 1, 0))).max() <= 1e-15
            else:
                np.testing.assert_array_equal(states, expected)
            whole_states, whole_params = cli._draw(n, d, 9, 1, 0, B)
            for lo, hi in ((250, B), (0, 1), (17, 130)):
                part_states, part_params = cli._draw(n, d, 9, 1, lo, hi)
                np.testing.assert_array_equal(part_states, whole_states[..., lo:hi] if d == 2
                                              else whole_states[lo:hi])
                if n == 2:
                    np.testing.assert_array_equal(np.stack(part_params),
                                                  np.stack(whole_params)[:, lo:hi])
                else:
                    np.testing.assert_array_equal(part_params, whole_params[lo:hi])
            if n == 2:
                lam, sign = rng.uniform(size=B), 1 - 2 * rng.integers(2, size=B)
                np.testing.assert_array_equal(np.stack(params), [lam, sign])
            else:
                q = _balanced_q_rows(rng.uniform(0, 2 * np.pi, size=B), rng.normal(size=(B, 4)))
                np.testing.assert_array_equal(params, q)

    def test_draw_stream_is_pinned(self, capsys):
        # the states and q of this scan's argmin, exactly as the block draw recorded them
        rc, doc = run(capsys, "epi-scan", "--n", "3", "--d", "2", "--samples", "400",
                      "--seed", "5")
        assert rc == 0
        rep = report_of(doc)
        assert rep["argmin"] == PINNED_ARGMIN
        assert rep["negative_samples"] == 0
        assert abs(rep["min_gap"] - 0.004226493327209813) <= 1e-12

    def test_bad_dimension(self, capsys):
        rc, _ = run(capsys, "epi-scan", "--n", "2", "--d", "7")
        assert rc == 2

    def test_bad_functional(self, capsys):
        rc, _ = run(capsys, "epi-scan", "--n", "2", "--functional", "shannon")
        assert rc == 2

    def test_bad_samples(self, capsys):
        rc, _ = run(capsys, "epi-scan", "--n", "2", "--samples", "0")
        assert rc == 2

    def test_pool_never_exceeds_cpus_or_blocks(self, capsys, serial_pool):
        # 10 samples are one block, so no pool; 1000 samples are four blocks on four CPUs
        argv = ("epi-scan", "--n", "2", "--seed", "5")
        docs = [strip_timing(run(capsys, *argv, "--samples", n, "--workers", w)[1])
                for n, w in (("10", "1"), ("10", "100000"), ("1000", "1"), ("1000", "100000"))]
        assert serial_pool == [4]
        assert docs[0] == docs[1]
        assert docs[2] == docs[3]

    def test_worker_split_falls_on_a_block_edge(self, capsys, monkeypatch, serial_pool):
        # two workers split 1000 samples (four blocks) at block 2, sample 512
        spans, scan = [], cli._scan_blocks
        monkeypatch.setattr(cli, "_scan_blocks",
                            lambda packed: spans.append(packed[-2:]) or scan(packed))
        argv = ("epi-scan", "--n", "3", "--samples", "1000", "--seed", "4")
        docs = [strip_timing(run(capsys, *argv, "--workers", w)[1]) for w in ("1", "2")]
        assert serial_pool == [2]
        assert spans == [(0, 4), (0, 2), (2, 4)]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_sample_counts_off_block_boundaries(self, capsys, n):
        # a scan of the first N samples sees the same per-sample gaps whatever N is
        B = cli.DRAW_BLOCK
        gaps = np.concatenate([cli._gaps(n, "von-neumann", *cli._draw(n, 2, 8, b, 0, B))
                               for b in range(4)])
        for samples in (1, 255, 257, 1000):
            rc, doc = run(capsys, "epi-scan", "--n", str(n), "--samples", str(samples), "--seed", "8")
            assert rc == 0
            rep, head = report_of(doc), gaps[:samples]
            assert rep["min_gap"] == head.min()
            assert rep["argmin"]["sample_index"] == int(np.argmin(head))
            assert rep["negative_samples"] == int(np.count_nonzero(head < 0))

    @pytest.mark.parametrize("workers, blocks", [("1", [0, 1, 2, 3]), ("2", [0, 1, 2, 3]),
                                                 ("3", [0, 1, 2, 3])])
    def test_one_seed_sequence_per_block(self, capsys, monkeypatch, serial_pool, workers, blocks):
        # 1000 samples are four blocks, each drawn once whatever the worker count, and the
        # argmin redraws its own; per-sample seeding would make 1001
        seeds = []
        seed_sequence = np.random.SeedSequence

        def counted(*args):
            seeds.append(args)
            return seed_sequence(*args)
        monkeypatch.setattr(np.random, "SeedSequence", counted)
        rc, doc = run(capsys, "epi-scan", "--n", "3", "--samples", "1000", "--workers", workers)
        assert rc == 0
        argmin_block = report_of(doc)["argmin"]["sample_index"] // cli.DRAW_BLOCK
        assert seeds == [((0, b),) for b in blocks + [argmin_block]]

    def test_rigged_functional_fails_binary_scan(self, capsys, monkeypatch):
        # anti-concave functional: mixing can only lower it
        rigged = EntropyFunctional("purity", lambda lam: np.sum(lam ** 2, axis=-1),
                                   concave_max_dim=None)
        monkeypatch.setattr(cli, "get_functional", lambda name: rigged)
        rc, doc = run(capsys, "epi-scan", "--n", "2", "--samples", "50",
                      "--seed", "0")
        assert rc == 4
        assert report_of(doc)["min_gap"] < -1e-9  # report still emitted

    def test_unreproducible_argmin_still_emits_the_report(self, capsys, monkeypatch):
        argmin_sample = cli._argmin_sample

        def drifted(*args):
            gap, detail = argmin_sample(*args)
            return gap + 1.0, detail
        monkeypatch.setattr(cli, "_argmin_sample", drifted)
        rc = main(["epi-scan", "--n", "3", "--samples", "40", "--seed", "2"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == "qmix: argmin sample failed to reproduce from its seed\n"
        rep = report_of(json.loads(captured.out))
        assert rep["samples"] == 40
        assert rep["argmin"] == argmin_sample(3, 2, "von-neumann", 2, rep["argmin"]["sample_index"])[1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_finite_gap_still_emits_the_report(self, capsys, monkeypatch, n):
        nan = EntropyFunctional("nan", lambda lam: np.full(lam.shape[:-1], np.nan))
        monkeypatch.setattr(cli, "get_functional", lambda name: nan)
        rc = main(["epi-scan", "--n", str(n), "--samples", "300", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == "qmix: no sample gave a finite concavity gap\n"
        rep = report_of(json.loads(captured.out))
        assert (rep["samples"], rep["min_gap"], rep["argmin"]) == (300, None, None)
        assert rep["negative_samples"] == 0 and "counterexample" not in rep

    @pytest.mark.parametrize("n", [2, 3])
    def test_nan_draw_is_a_domain_error(self, capsys, monkeypatch, n):
        # a NaN state component fails the spectra check: exit 3, no traceback
        draw = cli._draw

        def poisoned(*args):
            states, params = draw(*args)
            states.flat[0] = np.nan
            return states, params
        monkeypatch.setattr(cli, "_draw", poisoned)
        rc = main(["epi-scan", "--n", str(n), "--samples", "20"])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("qmix: ") and "Traceback" not in captured.err

    def test_rigged_functional_dumps_counterexample(self, capsys, monkeypatch):
        rigged = EntropyFunctional("purity", lambda lam: np.sum(lam ** 2, axis=-1),
                                   concave_max_dim=None)
        monkeypatch.setattr(cli, "get_functional", lambda name: rigged)
        rc, doc = run(capsys, "epi-scan", "--n", "3", "--samples", "50",
                      "--seed", "0")
        assert rc == 0  # ternary scans record, they do not assert
        rep = report_of(doc)
        assert rep["min_gap"] < -1e-6
        assert "counterexample" in rep
        assert len(rep["counterexample"]["states"]) == 3
        assert "q" in rep["counterexample"]


class TestFlatSearch:
    def test_finds_flat_solutions(self, capsys):
        rc, doc = run(capsys, "flat-search", "--attempts", "6", "--seed", "3")
        assert rc == 0
        rep = report_of(doc)
        assert rep["found"] >= 1
        assert len(rep["solutions"]) == rep["found"]
        for sol in rep["solutions"]:
            assert sol["flatness"] < 1e-8
            mods = [abs(complex(re, im)) for re, im in sol["z"]]
            assert max(abs(m - 1 / np.sqrt(6)) for m in mods) < 1e-8

    def test_deterministic(self, capsys):
        _, doc1 = run(capsys, "flat-search", "--attempts", "4", "--seed", "9")
        _, doc2 = run(capsys, "flat-search", "--attempts", "4", "--seed", "9")
        assert strip_timing(doc1) == strip_timing(doc2)

    def test_bad_attempts(self, capsys):
        rc, _ = run(capsys, "flat-search", "--attempts", "0")
        assert rc == 2


COMMANDS = ["synth", "combine", "orbit", "epi-scan", "flat-search"]


def quick_args(tmp_path, command) -> list:
    """Arguments, all but --out, for a run of ``command`` that takes well under a second."""
    if command == "synth":
        return ["--config", write_json(tmp_path, "c.json",
                                       {"group": "s3", "blocks": IDENTITY_BLOCKS})]
    if command == "combine":
        return ["--states", states_file(tmp_path, "s.json", [np.eye(2) / 2] * 2),
                "--params", write_json(tmp_path, "p.json", {"lambda": 0.5})]
    if command == "orbit":
        return ["--config", write_json(tmp_path, "c.json", {"p": [0.5, 0.3, 0.2]}),
                "--steps", "60"]
    if command == "epi-scan":
        return ["--n", "2", "--samples", "5"]
    return ["--attempts", "1"]


@pytest.mark.parametrize("command", COMMANDS)
def test_unwritable_out_is_usage_error(tmp_path, capsys, command):
    rc = main([command, *quick_args(tmp_path, command),
               "--out", str(tmp_path / "missing" / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "qmix: cannot write" in err and "Traceback" not in err


@pytest.mark.parametrize("command", COMMANDS)
def test_report_bytes_repeat_outside_timing(tmp_path, capsys, command):
    # orbit prints its report and writes the CSV to --out; the others write the report there
    out = tmp_path / "out"
    argv = [command, *quick_args(tmp_path, command), "--out", str(out)]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        printed = capsys.readouterr().out
        text = printed if command == "orbit" else out.read_text()
        # the report is the standard json encoding, not a hand-written one
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
        kept, cut, _ = text.partition('\n  "timing": ')  # timing is the last member
        assert cut
        runs.append((kept, out.read_text() if command == "orbit" else None))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", COMMANDS)
def test_envelope_is_built_once_for_every_command(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, *quick_args(tmp_path, command), "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out if command == "orbit" else out.read_text())
    assert list(doc) == ["format", "command", "report", "timing"]
    assert doc["format"] == "qmix/1" and doc["command"] == command
    assert list(doc["timing"]) == ["elapsed_s"] and doc["timing"]["elapsed_s"] >= 0


def test_failed_out_write_keeps_old_file(tmp_path, capsys, monkeypatch):
    cfg = write_json(tmp_path, "c.json", {"p": [0.5, 0.3, 0.2]})
    out = tmp_path / "trace.csv"
    out.write_text("old contents\n")

    def partial_write(orbits, path, extra=None):
        with open(path, "w") as fh:
            fh.write("step,orbit\n0,")
        raise OSError("disk full")
    monkeypatch.setattr(cli, "write_orbit_csv", partial_write)
    rc = main(["orbit", "--config", cfg, "--steps", "60", "--out", str(out)])
    assert rc == 2
    assert "qmix: cannot write" in capsys.readouterr().err
    assert out.read_text() == "old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "trace.csv"]


def test_out_written_with_plain_open_mode(tmp_path, capsys):
    umask = os.umask(0o022)
    try:
        rc = main(["epi-scan", "--n", "2", "--samples", "5", "--out", str(tmp_path / "r.json")])
    finally:
        os.umask(umask)
    assert rc == 0
    assert stat.S_IMODE(os.stat(tmp_path / "r.json").st_mode) == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    (tmp_path / "real.json").write_text("old")
    (tmp_path / "link.json").symlink_to("real.json")
    rc = main(["epi-scan", "--n", "2", "--samples", "5", "--out", str(tmp_path / "link.json")])
    assert rc == 0
    assert (tmp_path / "link.json").is_symlink()
    assert json.loads((tmp_path / "real.json").read_text())["command"] == "epi-scan"


def test_out_to_a_pipe_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        rc = main(["epi-scan", "--n", "2", "--samples", "5", "--out", str(fifo)])
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert rc == 0
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert json.loads(data)["command"] == "epi-scan"


HALF = mat_json(np.eye(2) / 2)


@pytest.mark.parametrize("role, doc", [
    pytest.param("params", {"q": 5}, id="q-number"),
    pytest.param("params", {"q": [[1, 0], [0, 0]]}, id="q-two-entries"),
    pytest.param("params", {"q": [["a", 0], [0, 0], [0, 0]]}, id="q-string"),
    pytest.param("params", {"q": [[1, 0, 0], [0, 0], [0, 0]]}, id="q-triple-entry"),
    pytest.param("params", {"q": [[float("nan"), 0], [0, 0], [0, 0]]}, id="q-nan"),
    pytest.param("params", {"z": 5}, id="z-number"),
    pytest.param("params", {"z": [[1, 0]]}, id="z-one-entry"),
    pytest.param("params", {"p": 5, "deltas": 1}, id="pdelta-numbers"),
    pytest.param("params", {"p": [0.2, 0.3, 0.5], "deltas": [0, 0]}, id="deltas-two"),
    pytest.param("params", {"p": ["a", "b", "c"], "deltas": [0, 0, 0]}, id="p-strings"),
    pytest.param("states", {"states": [5, 5, 5]}, id="states-numbers"),
    pytest.param("states", {"states": [[[1, 0]], HALF, HALF]}, id="state-flat-row"),
    pytest.param("states", {"states": [[[[1, 0], [0, 0]]], HALF, HALF]}, id="state-non-square"),
    pytest.param("states", {"states": [[[[float("nan"), 0], [0, 0]], [[0, 0], [0.5, 0]]],
                                       HALF, HALF]}, id="state-nan"),
    pytest.param("synth", {"group": 5}, id="group-number"),
    pytest.param("synth", {"group": "z121", "phases": [0] * 121}, id="group-too-large"),
    pytest.param("synth", {"group": "z2", "blocks": 5}, id="blocks-number"),
    pytest.param("synth", {"group": "z2", "blocks": {"chi0": 5, "chi1": [[[1, 0]]]}},
                 id="block-number"),
    pytest.param("synth", {"group": "z2", "blocks": {"chi0": [[[1, 0, 0]]], "chi1": [[[1, 0]]]}},
                 id="block-triple-entry"),
    pytest.param("synth", {"group": "z3", "phases": 5}, id="cyclic-phases-number"),
    pytest.param("synth", {"group": "z3", "phases": ["a", "b", "c"]}, id="cyclic-phases-strings"),
    pytest.param("orbit", {"p": 5}, id="p-number"),
    pytest.param("orbit", {"p": [True, False, False]}, id="p-booleans"),
])
def test_malformed_input_is_usage_error(tmp_path, capsys, role, doc):
    bad = write_json(tmp_path, "bad.json", doc)
    states = write_json(tmp_path, "s.json", {"states": [HALF] * 3})
    params = write_json(tmp_path, "p.json", {"q": [[1, 0], [0, 0], [0, 0]]})
    argv = {"params": ["combine", "--states", states, "--params", bad],
            "states": ["combine", "--states", bad, "--params", params],
            "synth": ["synth", "--config", bad],
            "orbit": ["orbit", "--config", bad, "--steps", "12",
                      "--out", str(tmp_path / "o.csv")]}[role]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("qmix: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    pytest.param(["epi-scan", "--n", "2", "--seed", "-1"], id="scan-negative-seed"),
    pytest.param(["epi-scan", "--n", "2", "--workers", "0"], id="scan-zero-workers"),
    pytest.param(["epi-scan", "--n", "2", "--workers", "-3"], id="scan-negative-workers"),
    pytest.param(["flat-search", "--seed", "-1"], id="flat-negative-seed"),
    pytest.param(["orbit", "--steps", "1000000000"], id="orbit-huge-steps"),
])
def test_out_of_range_numeric_flag_is_usage_error(tmp_path, capsys, argv):
    if argv[0] == "orbit":
        argv = argv + ["--config", write_json(tmp_path, "c.json", {"p": [0.5, 0.3, 0.2]})]
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("qmix: ") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_non_psd_state_is_domain_error(tmp_path, capsys):
    states = states_file(tmp_path, "s.json", [np.diag([1.5, -0.5]), np.eye(2) / 2, np.eye(2) / 2])
    params = write_json(tmp_path, "p.json", {"q": [[1, 0], [0, 0], [0, 0]]})
    assert main(["combine", "--states", states, "--params", params]) == 3
    assert "negative eigenvalue" in capsys.readouterr().err


def source_env() -> dict:
    """Environment for a child interpreter that imports qmix from the tested tree."""
    src = str(Path(qmix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestDispatch:
    def test_no_arguments(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_console_script_entry(self):
        # Runs the `[project.scripts] qmix` target the way the installed
        # wrapper does, so it needs no install and breaks if the target does.
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qmix"]
        module, attr = target.split(":")
        code = (
            "import sys; sys.argv = ['qmix', '--help']; "
            f"from {module} import {attr}; sys.exit({attr}())"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=source_env())
        assert res.returncode == 0, res.stderr
        assert "synth" in res.stdout and "epi-scan" in res.stdout, res.stderr

    def test_python_dash_m(self):
        # under -W error, so a warning on a fresh interpreter's import fails too
        res = subprocess.run([sys.executable, "-W", "error", "-m", "qmix", "--help"],
                             capture_output=True, text=True, env=source_env())
        assert res.returncode == 0, res.stderr
        assert "synth" in res.stdout and "epi-scan" in res.stdout, res.stderr

    def test_import_loads_no_scipy(self):
        code = ("import sys, qmix.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=source_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    @pytest.mark.skipif(shutil.which("qmix") is None, reason="qmix console script not on PATH")
    def test_installed_console_script(self):
        res = subprocess.run(["qmix", "--help"], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert "synth" in res.stdout and "epi-scan" in res.stdout, res.stderr
