import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from qmix.combine import (
    NestedSpec,
    QTriple,
    cos_vanishes,
    delta_from_nested,
    nested_params_for_weights,
    pdelta_from_q,
    q_from_pdelta,
)
from qmix.linkage import (
    _config_at,
    config_deltas,
    LinkageSpec,
    b0,
    grashof,
    orbit_count,
    orbit_count_bruteforce,
    orbit_trace,
    solve_configs,
    write_orbit_csv,
)

UNIFORM = (1 / 3, 1 / 3, 1 / 3)


def written_csv(tmp_path, orbits, extra=None) -> tuple[int, list[str]]:
    """write_orbit_csv's count of nested rows, and the lines of the file it wrote."""
    path = tmp_path / "trace.csv"
    flagged = write_orbit_csv(orbits, path, extra=extra)
    return flagged, path.read_text().splitlines()


def uniform_spec():
    spec, assignment = LinkageSpec.from_weights(UNIFORM)
    return spec


def lower_tangent_weights(r1: float) -> tuple[float, float, float]:
    """Weights (r1^2, r2^2, r3^2) with r2 + r3 = 1 + r1: crank r1's circles touch at theta = pi.

    With the crank in another slot the same lengths make the upper bound tangent at theta = 0.
    """
    root = np.sqrt(max((1.0 - 3.0 * r1) * (1.0 + r1), 0.0))
    r2, r3 = (1.0 + r1 + root) / 2.0, (1.0 + r1 - root) / 2.0
    return (r1 * r1, r2 * r2, r3 * r3)


def largest_gap(loop) -> float:
    """The largest wrapped bar-angle step between adjacent rows of a loop, wraparound included."""
    angles = np.angle(loop)
    diffs = np.diff(np.vstack([angles, angles[:1]]), axis=0)
    return float(np.abs((diffs + np.pi) % (2 * np.pi) - np.pi).max())


class TestCriticalLength:
    def test_special_point(self):
        # at c = 2/3 the crossover length coincides with c itself
        assert abs(b0(2 / 3) - 2 / 3) < 1e-14

    def test_frozen_value(self):
        assert abs(b0(0.8) - 0.5123105625617661) < 1e-15

    def test_interpolates_monotone(self):
        cs = np.linspace(1 / np.sqrt(3) + 1e-3, 1 - 1e-3, 50)
        vals = np.array([b0(c) for c in cs])
        assert (np.diff(vals) < 0).all()

    def test_threshold_flips_orbit_count(self):
        c = 0.8
        for eps, expect in ((-1e-3, 1), (1e-3, 2)):
            b = b0(c) + eps
            a2 = 1 - c * c - b * b
            spec, _ = LinkageSpec.from_weights((a2, b * b, c * c))
            assert orbit_count(spec) == expect


class TestGrashof:
    def test_double_crank(self):
        assert grashof(0.1, 0.6, 0.7935, 1.0)

    def test_not_double_crank(self):
        assert not grashof(0.5, 0.6, 0.6245, 1.0)

    def test_equality_excluded(self):
        # a + d = b + c exactly: boundary case counts as non-Grashof
        assert not grashof(0.2, 0.5, 0.7, 1.0)

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            grashof(0.6, 0.1, 0.7935, 1.0)


class TestOrbitCount:
    def test_uniform_single(self):
        assert orbit_count(uniform_spec()) == 1

    def test_grashof_pair(self):
        # a = 0, b = 0.6, c = 0.8 gives the two-loop regime
        spec, _ = LinkageSpec.from_weights((0.0, 0.36, 0.64))
        assert orbit_count(spec) == 2

    def test_balanced_edge_is_single(self):
        # b == c == 2/3 sits exactly on the threshold: strict inequality
        # keeps it a single component
        spec, _ = LinkageSpec.from_weights((1 / 9, 4 / 9, 4 / 9))
        assert orbit_count(spec) == 1


class TestSpecValidation:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            LinkageSpec.from_weights((0.5, 0.5, 0.5))

    def test_sorted_sides(self):
        spec, assignment = LinkageSpec.from_weights((0.64, 0.06, 0.30))
        a, b, c = spec.a, spec.b, spec.c
        assert a <= b <= c
        assert abs(a * a + b * b + c * c - 1) < 1e-10
        # assignment maps sorted slots back to the original inputs
        lengths = np.sqrt([0.64, 0.06, 0.30])
        assert_allclose(np.array([a, b, c]), np.sort(lengths), atol=1e-12)
        # assignment keeps the user's slot order
        assert_allclose(assignment, lengths, atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LinkageSpec.from_weights((-0.1, 0.55, 0.55))


class TestSolveConfigs:
    def test_uniform_generic_two_solutions(self):
        cfgs = solve_configs(uniform_spec(), theta=0.3)
        assert len(cfgs) == 2
        for cfg in cfgs:
            q = QTriple(cfg.q1, cfg.q2, cfg.q3)
            assert abs(sum(q.as_array()) - 1) < 1e-8

    def test_mirror_pair_about_chord(self):
        cfgs = solve_configs(uniform_spec(), theta=0.3)
        a, b = cfgs
        w = 1 - a.q1
        mirror = lambda z: w * w * np.conj(z) / abs(w) ** 2
        assert abs(mirror(a.q2) - b.q2) < 1e-9
        assert abs(mirror(a.q3) - b.q3) < 1e-9

    def test_mirror_is_conjugate_at_zero_crank(self):
        cfgs = solve_configs(uniform_spec(), theta=0.0)
        a, b = cfgs
        assert abs(np.conj(a.q2) - b.q2) < 1e-9

    def test_uniform_tangency(self):
        # the uniform triangle closes in a line exactly at theta = pi/2
        cfgs = solve_configs(uniform_spec(), theta=np.pi / 2)
        assert len(cfgs) == 1
        # the two moving bars fold onto the chord
        assert abs(np.imag(cfgs[0].q2 * np.conj(cfgs[0].q3))) < 1e-7
        assert abs(cfgs[0].q2 - cfgs[0].q3) < 1e-7

    def test_no_solution_region(self):
        # uniform upper window is free above cos(theta) = 2/sqrt(3) > 1, so
        # only the lower bound can cut; past pi/2 nothing closes
        cfgs = solve_configs(uniform_spec(), theta=2.0)
        assert cfgs == []

    def test_closure_and_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            w = rng.dirichlet([1, 1, 1])
            spec, _ = LinkageSpec.from_weights(tuple(w))
            for theta in rng.uniform(-np.pi, np.pi, size=4):
                for cfg in solve_configs(spec, theta=theta):
                    qa = np.array([cfg.q1, cfg.q2, cfg.q3])
                    assert abs(qa.sum() - 1) < 1e-8
                    assert abs((np.abs(qa) ** 2).sum() - 1) < 1e-8

    @pytest.mark.parametrize("p", [UNIFORM, (0.6, 0.3, 0.1), (0.83, 0.15, 0.02)])
    def test_near_tangency_never_raises(self, p):
        # crank angles within 1e-8 of every tangency, in every slot order:
        # each returned configuration closes, and none fails QTriple validation
        spec, _ = LinkageSpec.from_weights(p)
        offsets = np.concatenate([np.linspace(-1e-8, 1e-8, 41), [-1e-9, -5e-10, 5e-10, 1e-9]])
        closed = 0
        for r in itertools.permutations(spec.lengths()):
            r1, r2, r3 = r
            ends = [(1 + r1 * r1 - s * s) / (2 * r1) for s in (r2 + r3, r2 - r3)]
            for t in (np.arccos(c) for c in ends if abs(c) <= 1):
                for theta in np.concatenate([t + offsets, -t + offsets]):
                    for cfg in solve_configs(spec, r, theta):
                        qa = cfg.as_array()
                        assert abs(qa.sum() - 1) <= 1e-10
                        assert np.abs(np.abs(qa) ** 2 - np.square(r)).max() <= 1e-10
                        closed += 1
        assert closed > 0

    @pytest.mark.parametrize("solve", [lambda spec, r: solve_configs(spec, r, 0.0),
                                       lambda spec, r: orbit_trace(spec, 60, r)],
                             ids=["solve_configs", "orbit_trace"])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_nan_assignment_is_rejected(self, solve, slot):
        # in sorted order the NaN stays in its slot, so every other length lines up
        spec, _ = LinkageSpec.from_weights((0.6, 0.3, 0.1))
        r = list(spec.lengths())
        r[slot] = float("nan")
        with pytest.raises(ValueError, match="assignment must be a permutation"):
            solve(spec, r)

    @pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan], ids=["inf", "neg-inf", "nan"])
    def test_non_finite_theta_is_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            solve_configs(uniform_spec(), None, theta)

    def test_zero_bar(self):
        spec, _ = LinkageSpec.from_weights((0.0, 0.5, 0.5))
        cfgs = solve_configs(spec, theta=0.0)
        assert len(cfgs) >= 1
        for cfg in cfgs:
            assert abs(cfg.q1) < 1e-9


class TestOrbitTrace:
    def test_uniform_single_loop(self):
        orbits = orbit_trace(uniform_spec(), steps=1200)
        assert len(orbits) == 1

    def test_uniform_nested_count(self):
        orbits = orbit_trace(uniform_spec(), steps=1200)
        hits = 0
        for cfg in orbits[0]:
            d = config_deltas(cfg)
            hits += int(min(abs(np.cos(x)) for x in d) < 1e-6)
        assert hits == 12

    def test_constraints_hold_everywhere(self):
        orbits = orbit_trace(uniform_spec(), steps=240)
        for loop in orbits:
            for cfg in loop:
                assert abs(cfg.sum() - 1) < 1e-8
                assert abs((np.abs(cfg) ** 2).sum() - 1) < 1e-8

    def test_angle_gaps_bounded(self):
        steps = 240
        orbits = orbit_trace(uniform_spec(), steps=steps)
        for loop in orbits:
            assert largest_gap(loop) <= 2 * np.pi * 3 / steps + 1e-9

    def test_angle_gaps_bounded_short_bar(self):
        # the short bar makes the branches meet steeply at the arc ends; the
        # loop must still turn there rather than stall short of the tangency
        spec, assignment = LinkageSpec.from_weights((0.83, 0.15, 0.02))
        for steps in (120, 1200):
            for loop in orbit_trace(spec, steps, assignment):
                assert largest_gap(loop) <= 2 * np.pi * 3 / steps + 1e-9

    @pytest.mark.parametrize("steps", [120, 1200])
    @pytest.mark.parametrize("r1", [0.02, 0.1, 0.2, 1 / 3])
    def test_angle_gaps_bounded_at_lower_tangency(self, r1, steps):
        # the lower bound binds exactly at theta = pi while theta = 0 is free: one arc
        # [-pi, pi] that turns at the tangency, not a loop that switches branch at theta = 0
        spec, assignment = LinkageSpec.from_weights(lower_tangent_weights(r1))
        for loop in orbit_trace(spec, steps, assignment):
            assert largest_gap(loop) < 2 * np.pi * 3 / steps

    def test_two_loop_regime_conjugate_pairs(self):
        spec, _ = LinkageSpec.from_weights((0.01, 0.36, 0.63))
        orbits = orbit_trace(spec, steps=400)
        assert len(orbits) == 2
        # the loops are complex-conjugate mirrors of each other
        pts0, pts1 = orbits
        for row in pts0[:: max(1, len(pts0) // 25)]:
            d = np.abs(pts1 - np.conj(row)[None, :]).max(axis=1).min()
            assert d < 0.05

    def test_point_orbit_all_weight_on_one(self):
        spec, assignment = LinkageSpec.from_weights((1.0, 0.0, 0.0))
        orbits = orbit_trace(spec, steps=100, assignment=assignment)
        assert len(orbits) == 1
        assert len(orbits[0]) == 1
        assert_allclose(orbits[0][0], [1, 0, 0], atol=1e-9)

    def test_point_orbits_zero_first_weight(self):
        spec, _ = LinkageSpec.from_weights((0.0, 0.5, 0.5))
        orbits = orbit_trace(spec, steps=100)
        assert len(orbits) == 2
        for loop in orbits:
            assert len(loop) == 1
            assert abs(loop[0][0]) < 1e-9

    def test_step_floor(self):
        with pytest.raises(ValueError):
            orbit_trace(uniform_spec(), steps=6)


def _scalar_config(r1, r2, r3, theta, branch):
    """One configuration the way the per-point tracer built it: Python abs and complex products."""
    q1 = r1 * np.exp(1j * theta)
    w = 1.0 - q1
    D = abs(w)
    x = (D * D + r2 * r2 - r3 * r3) / (2.0 * D)
    q2 = (x + 1j * branch * np.sqrt(max(r2 * r2 - x * x, 0.0))) * (w / D)
    return [q1, q2, w - q2]


@pytest.mark.parametrize("p", [UNIFORM, (0.6, 0.3, 0.1), (0.83, 0.15, 0.02), (0.01, 0.36, 0.63)])
def test_config_rows_bitwise_match_scalar_calls(p):
    # a row of the traced arrays must not depend on its neighbours, bit for bit:
    # crank angles and branches of a traced loop, plus the exact tangency angles
    spec, r = LinkageSpec.from_weights(p)
    r1, r2, r3 = r
    ends = [(1 + r1 * r1 - s * s) / (2 * r1) for s in (r2 + r3, r2 - r3)]
    tangent = [t for c in ends if abs(c) <= 1 for t in (np.arccos(c), -np.arccos(c))]
    for loop in orbit_trace(spec, 1200, r):
        w = 1.0 - loop[:, 0]
        traced = np.where(loop[:, 1].imag * w.real >= loop[:, 1].real * w.imag, 1, -1)
        theta = np.concatenate([np.angle(loop[:, 0]), tangent, tangent])
        branch = np.concatenate([traced, np.ones(len(tangent), int), -np.ones(len(tangent), int)])
        rows = _config_at(r1, r2, r3, theta, branch)
        pairs = list(zip(theta.tolist(), branch.tolist()))
        scalar = np.array([_config_at(r1, r2, r3, t, b) for t, b in pairs])
        reference = np.array([_scalar_config(r1, r2, r3, t, b) for t, b in pairs])
        assert_array_equal(rows.view(np.uint64), scalar.view(np.uint64))
        assert_array_equal(rows.view(np.uint64), reference.view(np.uint64))


INTERIOR_WEIGHTS = st.tuples(*[st.floats(1.0, 499.0)] * 3).map(
    lambda x: tuple(v / sum(x) for v in x))  # every weight >= 1e-3
TANGENT_WEIGHTS = st.tuples(st.floats(0.02, 1 / 3), st.permutations(range(3))).map(
    lambda t: tuple(lower_tangent_weights(t[0])[i] for i in t[1]))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(p=st.one_of(INTERIOR_WEIGHTS, TANGENT_WEIGHTS), steps=st.sampled_from([12, 120, 1200]))
def test_traces_meet_their_gap_bound_and_close(p, steps):
    spec, assignment = LinkageSpec.from_weights(p)
    loops = orbit_trace(spec, steps, assignment)
    for loop in loops:
        assert largest_gap(loop) < 2 * np.pi * 3 / steps
        assert np.abs(loop.sum(axis=1) - 1).max() <= 1e-10
        assert np.abs((np.abs(loop) ** 2).sum(axis=1) - 1).max() <= 1e-10
    assert sum(int(cos_vanishes(config_deltas(loop)).any(axis=1).sum()) for loop in loops) == 12


NESTED_TRIPLES = [UNIFORM, (0.5, 0.3, 0.2), (0.6, 0.3, 0.1), (0.01, 0.36, 0.63),
                  (0.83, 0.15, 0.02)] + [
    tuple(float(v) for v in w) for w in np.random.default_rng(11).dirichlet([1, 1, 1], size=4)]


class TestNestedRows:
    @pytest.mark.parametrize("steps", [120, 1200])
    @pytest.mark.parametrize("p", NESTED_TRIPLES)
    def test_flagged_rows_are_the_nested_expressions(self, tmp_path, p, steps):
        # independent oracle: the 12 nested expressions (3 orderings x 2 x 2
        # sign bits) mapped to q-triples through the (p, delta) form
        expected = []
        for ordering in (1, 2, 3):
            a, a_prime = nested_params_for_weights(p, ordering)
            for s in (0, 1):
                for s_prime in (0, 1):
                    spec = NestedSpec(ordering, a, a_prime, s, s_prime)
                    expected.append(q_from_pdelta(delta_from_nested(spec, p)).as_array())
        spec, assignment = LinkageSpec.from_weights(p)
        flagged, lines = written_csv(tmp_path, orbit_trace(spec, steps, assignment))
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        got = [np.array(r[2:8:2]) + 1j * np.array(r[3:8:2]) for r in rows if r[11] == 1]
        assert flagged == len(got) == 12
        expected, got = np.array(expected), np.array(got)
        for q in got:
            assert np.abs(expected - q).max(axis=1).min() < 1e-9
        for q in expected:
            assert np.abs(got - q).max(axis=1).min() < 1e-9


class TestBruteforceCount:
    def test_uniform(self):
        assert orbit_count_bruteforce(uniform_spec(), resolution=400) == 1

    def test_grashof(self):
        spec, _ = LinkageSpec.from_weights((0.01, 0.36, 0.63))
        assert orbit_count_bruteforce(spec, resolution=400) == 2

    def test_degenerate_two_equal(self):
        spec, _ = LinkageSpec.from_weights((0.0, 0.5, 0.5))
        # the zero bar collapses the torus components onto each other in the
        # (t1, t2) picture: both point configs come from one residual curve
        assert orbit_count_bruteforce(spec, resolution=360) >= 1

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            orbit_count_bruteforce(uniform_spec(), resolution=100)

    def test_agrees_with_analytic_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            w = rng.dirichlet([2, 2, 2])
            if min(w) < 0.02:
                continue
            spec, _ = LinkageSpec.from_weights(tuple(w))
            if abs(spec.b - b0(spec.c)) < 1e-3:
                continue
            assert orbit_count_bruteforce(spec, resolution=400) == orbit_count(spec)


class TestCsvExport:
    def test_header_and_rows(self, tmp_path):
        orbits = orbit_trace(uniform_spec(), steps=120)
        _, lines = written_csv(tmp_path, orbits)
        header = lines[0].split(",")
        assert header == ["step", "orbit", "re_q1", "im_q1", "re_q2", "im_q2",
                          "re_q3", "im_q3", "delta12", "delta23", "delta31",
                          "nested"]
        assert len(lines) == 1 + sum(len(o) for o in orbits)

    def test_step_restarts_per_orbit(self, tmp_path):
        spec, _ = LinkageSpec.from_weights((0.01, 0.36, 0.63))
        orbits = orbit_trace(spec, steps=200)
        rows = [ln.split(",") for ln in written_csv(tmp_path, orbits)[1][1:]]
        starts = [int(r[0]) for r in rows if r[1] == "1"]
        assert starts[0] == 0

    def test_nested_flags(self, tmp_path):
        orbits = orbit_trace(uniform_spec(), steps=1200)
        rows = [ln.split(",") for ln in written_csv(tmp_path, orbits)[1][1:]]
        assert sum(int(r[-1]) for r in rows) == 12

    def test_path_output(self, tmp_path):
        orbits = orbit_trace(uniform_spec(), steps=60)
        out = tmp_path / "trace.csv"
        write_orbit_csv(orbits, out)
        assert out.read_text().startswith("step,orbit,")

    def test_extra_called_once_per_orbit(self, tmp_path):
        spec, _ = LinkageSpec.from_weights((0.01, 0.36, 0.63))
        orbits = orbit_trace(spec, steps=60)
        assert len(orbits) == 2
        calls = []

        def extra(rows):
            calls.append(rows)
            return {"w1": np.abs(rows[:, 0]) ** 2}
        written_csv(tmp_path, orbits, extra=extra)
        assert len(calls) == len(orbits)
        for rows, orbit in zip(calls, orbits):
            assert_array_equal(rows, orbit)

    @pytest.mark.parametrize("p", [UNIFORM, (0.6, 0.3, 0.1), (0.01, 0.36, 0.63),
                                   (1, 0, 0), (0, 0.5, 0.5), (0.5, 0, 0.5)])
    def test_cells_read_back_exactly(self, tmp_path, p):
        spec, assignment = LinkageSpec.from_weights(p)
        orbits = orbit_trace(spec, 120, assignment)
        w1 = [np.abs(o[:, 0]) ** 2 for o in orbits]
        _, lines = written_csv(tmp_path, orbits, extra=lambda rows: {"w1": np.abs(rows[:, 0]) ** 2})
        rows = [ln.split(",") for ln in lines[1:]]
        cfgs = [(i, step, cfg) for i, o in enumerate(orbits) for step, cfg in enumerate(o)]
        assert len(rows) == len(cfgs)
        # a zero weight leaves a zero bar, and so undefined deltas, in every row
        assert all((r[8] == "nan") == (min(p) == 0) for r in rows)
        for row, (orbit_id, step, cfg) in zip(rows, cfgs):
            assert [int(row[0]), int(row[1])] == [step, orbit_id]
            assert int(row[11]) in (0, 1)
            expect = [cfg[0].real, cfg[0].imag, cfg[1].real, cfg[1].imag,
                      cfg[2].real, cfg[2].imag, *config_deltas(cfg)]
            # exact equality, with a nan cell standing where a zero bar leaves a delta undefined
            assert_array_equal([float(v) for v in row[2:11]], expect)
            if np.isnan(expect[6:]).any():
                assert row[8:11] == ["nan"] * 3 and row[11] == "0"
            assert float(row[12]) == w1[orbit_id][step]

    @pytest.mark.parametrize("p", [UNIFORM, (0.6, 0.3, 0.1), (0.01, 0.36, 0.63), (0, 0.5, 0.5), None])
    def test_bytes_match_csv_writer(self, tmp_path, p):
        # the file's bytes, not values read back: "1" vs "1.0", "\r\n" vs "\n" and quoting all show
        if p is None:
            orbits = []
        else:
            spec, assignment = LinkageSpec.from_weights(p)
            orbits = orbit_trace(spec, 120, assignment)

        def extra(rows):
            return {"w,1": np.abs(rows[:, 0]) ** 2, "edge": np.resize([-0.0, 1e-20, -np.inf], len(rows))}
        path = tmp_path / "trace.csv"
        flagged = write_orbit_csv(orbits, path, extra=extra)

        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["step", "orbit", "re_q1", "im_q1", "re_q2", "im_q2", "re_q3", "im_q3",
                         "delta12", "delta23", "delta31", "nested", "w,1", "edge"])
        nested_rows = 0
        for orbit_id, orbit in enumerate(orbits):
            cols = extra(orbit)
            for step, cfg in enumerate(orbit):
                deltas = config_deltas(cfg)
                flag = bool(cos_vanishes(deltas).any())
                nested_rows += flag
                writer.writerow([step, orbit_id, *(float(v) for c in cfg for v in (c.real, c.imag)),
                                 *(float(d) for d in deltas), int(flag),
                                 float(cols["w,1"][step]), float(cols["edge"][step])])
        written = path.read_bytes()
        assert written == ref.getvalue().encode()
        assert flagged == nested_rows
        assert written.startswith(b'step,orbit,re_q1,im_q1,re_q2,im_q2,re_q3,im_q3,'
                                  b'delta12,delta23,delta31,nested,"w,1",edge\r\n')
        edges = [b",-0.0\r\n", b",1e-20\r\n", b",-inf\r\n"][:max(map(len, orbits), default=0)]
        assert all(cell in written for cell in edges)

    def test_extra_columns_without_orbits(self, tmp_path):
        _, lines = written_csv(tmp_path, [], extra=lambda rows: {"w1": np.abs(rows[:, 0]) ** 2})
        assert len(lines) == 1
        assert lines[0].split(",") == [
            "step", "orbit", "re_q1", "im_q1", "re_q2", "im_q2", "re_q3", "im_q3",
            "delta12", "delta23", "delta31", "nested", "w1"]

    def test_extra_columns(self, tmp_path):
        orbits = orbit_trace(uniform_spec(), steps=60)
        _, lines = written_csv(tmp_path, orbits, extra=lambda rows: {"w1": np.abs(rows[:, 0]) ** 2})
        assert lines[0].endswith(",w1")
        first = lines[1].split(",")
        assert abs(float(first[-1]) - 1 / 3) < 1e-6


class TestDeltasAgainstPDelta:
    def test_matches_reference_conversion(self):
        orbits = orbit_trace(uniform_spec(), steps=120)
        for cfg in orbits[0][::10]:
            q = QTriple(*cfg)
            if min(q.weights()) < 1e-6:
                continue
            pd = pdelta_from_q(q)
            d = config_deltas(cfg)
            for mine, ref in zip(d, pd.deltas):
                assert abs((mine - ref + np.pi) % (2 * np.pi) - np.pi) < 1e-7
