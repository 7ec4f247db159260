"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single summary line (visible with ``pytest -s``) and
enforces the documented tolerance and, where relevant, a runtime budget.
"""

import json
import time

import numpy as np
from numpy.testing import assert_allclose

from qmix.cli import main
from qmix.combine import (
    NestedSpec,
    combine3_bruteforce,
    combine3_closed,
    combine3_magic,
    delta_from_nested,
    nested_expand,
    nested_from_delta,
    nested_params_for_weights,
    q_from_pdelta,
    random_qtriple,
    verify_real_imag_param,
    z_from_q,
)
from qmix.groups import regular_lincomb
from qmix.irreps import (
    extract_blocks,
    irreps_s3,
    random_block_unitaries,
    s3_coeffs_from_phases,
    synthesize_coeffs,
    tensor_rep,
)
from qmix.linkage import (
    LinkageSpec,
    b0,
    config_deltas,
    orbit_count,
    orbit_count_bruteforce,
    orbit_trace,
)
from qmix.states import DensityMatrix, random_density

from conftest import random_s3_phases

IR3 = irreps_s3()


def test_01_regular_synthesis_is_unitary():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_unitary = 0.0
    worst_roundtrip = 0.0
    n = IR3.group.order
    for _ in range(1000):
        blocks = random_block_unitaries(IR3, rng)
        z = synthesize_coeffs(blocks, IR3)
        L = regular_lincomb(z)
        worst_unitary = max(worst_unitary,
                            float(np.abs(L @ L.conj().T - np.eye(n)).max()))
        back = extract_blocks(z, IR3)
        worst_roundtrip = max(worst_roundtrip,
                              max(float(np.abs(np.asarray(B) - np.asarray(U)).max())
                                  for B, U in zip(back, blocks)))
    elapsed = time.perf_counter() - t0
    assert worst_unitary < 1e-10
    assert worst_roundtrip < 1e-9
    assert elapsed < 5.0
    print(f"regular synthesis: unitarity {worst_unitary:.2e}, "
          f"roundtrip {worst_roundtrip:.2e}, {elapsed:.2f}s — PASS")


def test_02_same_coefficients_act_unitarily_on_qudit_triples():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for d in (1, 2, 3):
        Q = np.stack([tensor_rep(IR3.group.perms[g], d)
                      for g in IR3.group.elements])
        dim = d ** 3
        eye = np.eye(dim)
        for _ in range(1000):
            blocks = random_block_unitaries(IR3, rng)
            z = synthesize_coeffs(blocks, IR3)
            U = np.tensordot(z.coeffs, Q, axes=(0, 0))
            worst = max(worst, float(np.abs(U @ U.conj().T - eye).max()))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 30.0
    print(f"qudit-triple unitarity (d=1,2,3): residual {worst:.2e}, "
          f"{elapsed:.2f}s — PASS")


def test_03_three_evaluators_agree():
    t0 = time.perf_counter()
    worst = 0.0
    for d, count, seed in ((2, 200, 103), (3, 50, 104)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            rhos = [random_density(d, seed=rng) for _ in range(3)]
            q = random_qtriple(rng)
            z = z_from_q(q)
            a = combine3_closed(*rhos, q).mat
            b = combine3_magic(*rhos, z).mat
            c = combine3_bruteforce(*rhos, z).mat
            worst = max(worst, float(np.abs(a - b).max()), float(np.abs(a - c).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 60.0
    print(f"evaluator agreement: max diff {worst:.2e}, {elapsed:.2f}s — PASS")


def test_04_synthesis_matches_direct_formulas():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        phi1, phi2, a, c = random_s3_phases(rng, balanced=False)
        z = s3_coeffs_from_phases(phi1, phi2, a, c).coeffs
        e1, e2 = np.exp(1j * phi1), np.exp(1j * phi2)
        apc, amc = a + np.sqrt(3) * c, a - np.sqrt(3) * c
        direct = np.array([
            (e1 + e2 + 4 * np.real(a)) / 6,
            (e1 + e2 - 2 * np.real(apc)) / 6,
            (e1 + e2 - 2 * np.real(amc)) / 6,
            (e1 - e2 + 4j * np.imag(a)) / 6,
            (e1 - e2 - 2j * np.imag(apc)) / 6,
            (e1 - e2 - 2j * np.imag(amc)) / 6,
        ])
        worst = max(worst, float(np.abs(z - direct).max()))
    assert worst < 1e-12
    print(f"coefficient formulas: max error {worst:.2e} — PASS")


def test_05_opposite_phases_make_pairs_independent():
    rng = np.random.default_rng(106)

    def residuals(z):
        return [abs(np.real(z[k] * np.conj(z[k + 3]))) for k in range(3)]

    worst_balanced = 0.0
    for _ in range(1000):
        phi1, phi2, a, c = random_s3_phases(rng, balanced=True)
        z = s3_coeffs_from_phases(phi1, phi2, a, c).coeffs
        worst_balanced = max(worst_balanced, max(residuals(z)))
    assert worst_balanced < 1e-12

    hits = 0
    for _ in range(1000):
        phi1, phi2, a, c = random_s3_phases(rng, balanced=False)
        z = s3_coeffs_from_phases(phi1, phi2, a, c).coeffs
        hits += max(residuals(z)) > 1e-3
    assert hits >= 990
    print(f"pair independence: balanced max {worst_balanced:.2e}, "
          f"generic violations {hits}/1000 — PASS")


def test_06_nested_round_trip():
    rng = np.random.default_rng(107)
    worst = 0.0
    checked = 0
    while checked < 100:
        p = rng.dirichlet([2.0, 2.0, 2.0])
        if p.min() < 0.02:
            continue
        checked += 1
        rhos = [random_density(2, seed=rng) for _ in range(3)]
        for ordering in (1, 2, 3):
            a, ap = nested_params_for_weights(p, ordering)
            for s in (0, 1):
                for sp in (0, 1):
                    spec = NestedSpec(ordering, a, ap, s, sp)
                    pd = delta_from_nested(spec, p)
                    q = q_from_pdelta(pd)
                    direct = combine3_closed(*rhos, q).mat
                    nested = nested_expand(spec, *rhos).mat
                    worst = max(worst, float(np.abs(direct - nested).max()))
                    back = nested_from_delta(pd)
                    assert back.ordering == ordering
                    assert back.s == s and back.s_prime == sp
                    assert abs(back.a - a) < 1e-9
                    assert abs(back.a_prime - ap) < 1e-9
    assert worst < 1e-10
    print(f"nested specs: 100 weight draws x 12 specs, max diff {worst:.2e} — PASS")


def test_07_orbit_count_matches_brute_force():
    t0 = time.perf_counter()
    pts = []
    for c in np.linspace(0.62, 0.96, 10):
        blo = np.sqrt((1 - c * c) / 2)
        bhi = min(c, np.sqrt(1 - c * c))
        for b in np.linspace(blo + 1e-3, bhi - 1e-3, 5):
            pts.append((float(b), float(c)))
    assert len(pts) == 50
    used = 0
    for b, c in pts:
        if abs(b - b0(c)) < 1e-6:
            continue  # threshold band: count is genuinely ambiguous there
        used += 1
        a2 = max(1.0 - b * b - c * c, 0.0)
        spec, _ = LinkageSpec.from_weights((a2, b * b, c * c))
        assert orbit_count_bruteforce(spec) == orbit_count(spec)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"orbit counts: {used}/50 grid points agree, {elapsed:.2f}s — PASS")


def test_08_uniform_orbit_is_one_loop_with_twelve_nested_points():
    spec, _ = LinkageSpec.from_weights((1 / 3, 1 / 3, 1 / 3))
    orbits = orbit_trace(spec, steps=1200)
    assert len(orbits) == 1
    hits = sum(int(min(abs(np.cos(d)) for d in config_deltas(cfg)) < 1e-6)
               for cfg in orbits[0])
    assert hits == 12
    print(f"uniform orbit: 1 loop, {hits} nested configurations — PASS")


def test_09_mub_bloch_formula_through_cli(tmp_path, capsys):
    states = {"states": [
        [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
        [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    ]}
    states_path = tmp_path / "mub.json"
    states_path.write_text(json.dumps(states))

    spec, _ = LinkageSpec.from_weights((1 / 3, 1 / 3, 1 / 3))
    loop = orbit_trace(spec, steps=120)[0]
    stride = max(1, len(loop) // 100)
    configs = loop[::stride][:100]
    assert len(configs) == 100

    worst = 0.0
    for cfg in configs:
        params_path = tmp_path / "q.json"
        params_path.write_text(json.dumps(
            {"q": [[v.real, v.imag] for v in cfg.tolist()]}))
        rc = main(["combine", "--states", str(states_path),
                   "--params", str(params_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        d12, d23, d31 = config_deltas(cfg)
        expect = ((1 - np.sin(d23)) / 3, (1 - np.sin(d31)) / 3,
                  (1 - np.sin(d12)) / 3)
        worst = max(worst, float(np.abs(np.array(doc["report"]["bloch"])
                                        - np.array(expect)).max()))
    assert worst < 1e-10
    print(f"mub orbit bloch: 100 configs, max error {worst:.2e} — PASS")


def test_10_binary_concavity_scan(capsys):
    t0 = time.perf_counter()
    worst = np.inf
    for d in (2, 3):
        for fname in ("von-neumann", "renyi-2"):
            rc = main(["epi-scan", "--n", "2", "--d", str(d),
                       "--functional", fname, "--samples", "10000",
                       "--seed", "42"])
            doc = json.loads(capsys.readouterr().out)
            assert rc == 0
            gap = doc["report"]["min_gap"]
            assert gap >= -1e-9
            worst = min(worst, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"binary concavity: 4 x 10^4 samples, min gap {worst:.2e}, "
          f"{elapsed:.2f}s — PASS")


def test_11_ternary_scan_reproducible_not_asserted(capsys):
    args = ["epi-scan", "--n", "3", "--d", "2", "--samples", "400", "--seed", "5"]
    rc1 = main(list(args))
    doc1 = json.loads(capsys.readouterr().out)
    rc2 = main(list(args))
    doc2 = json.loads(capsys.readouterr().out)
    assert rc1 == 0 and rc2 == 0
    doc1.pop("timing")
    doc2.pop("timing")
    assert doc1 == doc2
    rep = doc1["report"]
    assert rep["asserted"] is False
    assert "min_gap" in rep and np.isfinite(rep["min_gap"])
    print(f"ternary scan: reproducible, min gap {rep['min_gap']:.3e} "
          f"(recorded, not asserted) — PASS")


def test_12_two_constraint_test_matches_block_unitarity():
    rng = np.random.default_rng(112)
    disagreements = 0
    trues = 0
    for k in range(10000):
        if k % 2 == 0:
            qa = random_qtriple(rng).as_array()
            vec = np.concatenate([qa.real, qa.imag])
        else:
            vec = rng.normal(scale=0.6, size=6)
        z = np.array([vec[0], vec[1], vec[2],
                      1j * vec[3], 1j * vec[4], 1j * vec[5]])
        blocks_ok = True
        for r in IR3:
            B = sum(zv * r(g) for zv, g in zip(z, IR3.group.elements))
            if np.abs(B @ B.conj().T - np.eye(r.dim)).max() > 1e-10:
                blocks_ok = False
                break
        mine = verify_real_imag_param(*vec)
        disagreements += mine != blocks_ok
        trues += blocks_ok
    assert disagreements == 0
    assert 0 < trues < 10000
    print(f"constraint equivalence: 10^4 tuples, {trues} unitary, "
          f"0 disagreements — PASS")
