"""Four-bar linkage view of the ternary-mix parameter space.

Fixing the three mixing weights makes the feasible q-triples a planar
linkage: three mobile bars of lengths sqrt(p_i) closing against a fixed
bar of length 1 (the sum-one gauge).  This module classifies the
configuration space (one closed orbit or two), solves configurations at
a given crank angle by circle intersection, traces whole orbits, and
counts components by an independent grid method for cross-checking.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .combine import (_CONSTRAINT_TOL, QTriple, _closed_rows, _is_probability_triple, _phase_deltas,
                      cos_vanishes, wrap_angle)
from .states import _require

__all__ = [
    "LinkageSpec",
    "b0",
    "grashof",
    "orbit_count",
    "solve_configs",
    "orbit_trace",
    "orbit_count_bruteforce",
    "write_orbit_csv",
    "config_deltas",
]

_TANGENT_TOL = 1e-9
_ZERO_RADIUS = 1e-12
_MAX_STEPS = 1_000_000  # caps memory: orbit_trace at 10^6 steps already peaks near 650 MiB


@dataclass(frozen=True)
class LinkageSpec:
    """Sorted bar lengths a <= b <= c with a^2 + b^2 + c^2 = 1; ground bar 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not 0 <= self.a <= self.b <= self.c <= 1:
            raise ValueError("lengths must satisfy 0 <= a <= b <= c <= 1")
        norm = self.a**2 + self.b**2 + self.c**2
        _require(abs(norm - 1), _CONSTRAINT_TOL, "squared lengths sum to {:.12g}, not 1",
                 quote=norm)

    @classmethod
    def from_weights(cls, p) -> tuple["LinkageSpec", tuple[float, float, float]]:
        """Spec for mixing weights p, plus the slot assignment (sqrt(p) in user order)."""
        p = np.asarray(p, dtype=float)
        if not _is_probability_triple(p):
            raise ValueError("weights must be a probability triple")
        r = np.sqrt(np.maximum(p, 0.0))
        sa, sb, sc = np.sort(r)
        return cls(float(sa), float(sb), float(sc)), tuple(float(v) for v in r)

    def lengths(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def b0(c: float) -> float:
    """Critical middle length: two orbits exist exactly when b exceeds this."""
    return 0.5 * (1.0 - c + np.sqrt(1.0 + (2.0 - 3.0 * c) * c))


def grashof(a: float, b: float, c: float, d: float) -> bool:
    """Shortest-plus-longest strictly less than the sum of the other two.

    Lengths must be given sorted ascending (d largest).  True means the
    shortest bar can fully rotate and the configuration space splits in
    two; the equality case counts as False (the components touch).
    """
    if not a <= b <= c <= d:
        raise ValueError("lengths must be sorted ascending")
    return a + d < b + c


def orbit_count(spec: LinkageSpec) -> int:
    """1 or 2 connected components of the configuration space."""
    return 2 if spec.b > b0(spec.c) else 1


def _check_assignment(spec: LinkageSpec, assignment) -> tuple[float, float, float]:
    if assignment is None:
        return spec.lengths()
    r = tuple(float(v) for v in assignment)
    residual = np.abs(np.sort(r) - spec.lengths()) if len(r) == 3 else np.inf
    _require(residual, 1e-12, "assignment must be a permutation of the spec lengths")
    return r


def solve_configs(spec: LinkageSpec, assignment=None, theta: float = 0.0) -> list[QTriple]:
    """All configurations with bar 1 at angle theta: 0, 1 (tangent), or 2.

    ``assignment`` gives the bar lengths in slot order (defaults to the
    sorted spec order).  Bars 2 and 3 close the chain q2 + q3 = 1 - q1,
    solved as the intersection of two circles; the two generic solutions
    are mirror images about that chord.  Within 1e-9 of a tangency one
    configuration is returned.  Just past a tangency the circles miss by
    h^2 = r2^2 - x^2 < 0, and folding bars 2 and 3 onto the chord misses
    sum |q_i|^2 = 1 by -2 h^2, so that is done only while it stays within
    the ``_CONSTRAINT_TOL`` QTriple accepts; beyond it there is no configuration.
    """
    r1, r2, r3 = _check_assignment(spec, assignment)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    D = abs(1.0 - r1 * np.exp(1j * theta))
    if D < _ZERO_RADIUS:
        if r2 < _TANGENT_TOL and r3 < _TANGENT_TOL:
            return [QTriple(r1 * np.exp(1j * theta), 0j, 0j)]
        return []
    x = (D * D + r2 * r2 - r3 * r3) / (2.0 * D)
    if r2 * r2 - x * x < -0.5 * _CONSTRAINT_TOL:
        return []
    tangent = min(r2 + r3 - D, D - abs(r2 - r3)) < _TANGENT_TOL
    return [QTriple(*_config_at(r1, r2, r3, theta, branch))
            for branch in ((+1,) if tangent else (+1, -1))]


def _config_at(r1: float, r2: float, r3: float, theta, branch) -> np.ndarray:
    """Bars (..., 3) at crank angles theta on branches +-1; clamps h^2 rounding at tangency.

    theta and branch broadcast, as scalars or arrays, and a row is bitwise
    the same either way: D is a hypot, which the array abs is not, and
    (x + i h) u is spelled out in reals, which the array complex product is not.
    """
    q1 = r1 * np.exp(1j * theta)
    w = 1.0 - q1
    D = np.hypot(w.real, w.imag)
    x = (D * D + r2 * r2 - r3 * r3) / (2.0 * D)
    h = branch * np.sqrt(np.maximum(r2 * r2 - x * x, 0.0))
    u = w / D
    q2 = np.stack([x * u.real - h * u.imag, x * u.imag + h * u.real], -1).view(complex)[..., 0]
    return np.stack([q1, q2, w - q2], axis=-1)


def config_deltas(q) -> np.ndarray:
    """Phase differences (d12, d23, d31) over the last axis of bars; NaN rows on zero bars."""
    q = np.asarray(q)
    return np.where((np.abs(q) < _ZERO_RADIUS).any(-1, keepdims=True), np.nan, _phase_deltas(q))


def _degenerate_orbits(r1, r2, r3) -> list[list]:
    """Point orbits when some bar has zero length, each a list of bar triples."""
    zero = [r < _ZERO_RADIUS for r in (r1, r2, r3)]
    if sum(zero) >= 2:
        # two zero bars force the third to span the ground bar exactly
        q = [0j, 0j, 0j]
        q[zero.index(False)] = 1.0 + 0j
        return [[q]]
    if zero[0]:
        spec = LinkageSpec(*np.sort([r1, r2, r3]))
        return [[c.as_array()] for c in solve_configs(spec, (r1, r2, r3), 0.0)]
    # zero bar in slot 2 or 3: the remaining pair meets at discrete crank angles
    other = r3 if zero[1] else r2
    t = (1.0 + r1 * r1 - other * other) / (2.0 * r1)
    if abs(t) > 1.0 + 1e-12:
        return []
    orbits = []
    angles = [np.arccos(np.clip(t, -1.0, 1.0))]
    if angles[0] > 1e-12:
        angles.append(-angles[0])
    for th in angles:
        q1 = r1 * np.exp(1j * th)
        rest = 1.0 - q1
        orbits.append([(q1, 0j, rest) if zero[1] else (q1, rest, 0j)])
    return orbits


def _nested_configs(spec: LinkageSpec, r: tuple[float, float, float]) -> list[np.ndarray]:
    """The configurations where some cos(delta_ij) vanishes, in closed form.

    With sum q = 1 and sum |q|^2 = 1, Re(q_i conj(q_j)) = p_k - Re q_k, so
    cos(delta_ij) = 0 exactly when q_k = sqrt(p_k) e^{+-i arccos sqrt(p_k)};
    the other two bars then close against 1 - q_k.  Generically 12 points.
    """
    out = []
    for k in range(3):
        slots = [k, (k + 1) % 3, (k + 2) % 3]
        angle = np.arccos(r[k])
        for theta in (angle, -angle):
            for cfg in solve_configs(spec, [r[i] for i in slots], theta):
                q = np.empty(3, dtype=complex)
                q[slots] = cfg.as_array()
                out.append(q)
    return out


def orbit_trace(spec: LinkageSpec, steps: int, assignment=None) -> list[np.ndarray]:
    """Ordered configurations around each connected component, as (m, 3) bar arrays.

    Bars 2 and 3 close when cos(theta) lies in [lo, hi].  With both sides
    free the two intersection branches are two full circles; else, if
    theta = 0 is passable or tangent, one arc [-beta, beta], or otherwise
    two mirrored arcs [arccos(hi), beta] and its negative, each run out on
    one branch and back on the other, turning at tangencies.  Bisection adds
    points where the grid is too coarse, and the nested configurations (some
    cos(delta_ij) = 0) are solved in closed form and inserted where the loop
    passes them.  Adjacent rows, the wraparound pair included, must then
    differ by at most 2*pi*3/steps in every bar angle, else ValueError (a bar
    too short for the circle intersection to resolve).  Every row is checked
    against the QTriple constraints in one pass.
    """
    if not 12 <= steps <= _MAX_STEPS:
        raise ValueError(f"steps must be between 12 and {_MAX_STEPS}")
    r1, r2, r3 = _check_assignment(spec, assignment)
    if min(r1, r2, r3) < _ZERO_RADIUS:
        return [_closed_rows(o) for o in _degenerate_orbits(r1, r2, r3)]

    lo = (1.0 + r1 * r1 - (r2 + r3) ** 2) / (2.0 * r1)
    hi = (1.0 + r1 * r1 - (r2 - r3) ** 2) / (2.0 * r1)
    beta = np.pi if lo <= -1.0 else float(np.arccos(lo))

    # each loop is crank angles theta with intersection branches; tangency points carry h = 0
    if hi >= 1.0 + _TANGENT_TOL and lo <= -1.0 - _TANGENT_TOL:
        grid = np.linspace(0.0, 2.0 * np.pi, steps, endpoint=False)
        loops = [(grid, np.full(steps, b)) for b in (+1, -1)]
    else:
        half = steps // 2
        if hi > 1.0 - _TANGENT_TOL:
            arcs = [np.linspace(-beta, beta, half)]
        else:
            arcs = [np.linspace(float(np.arccos(hi)), beta, half)]
            arcs.append(-arcs[0])
        # out along the arc on branch +1 and back on branch -1
        back = np.repeat([+1, -1], [half, half - 2])
        loops = [(np.concatenate([arc, arc[-2:0:-1]]), back) for arc in arcs]

    # each nested configuration with its crank angle and its branch, the sign of Im(q2 conj(w))
    nested = np.reshape(_nested_configs(spec, (r1, r2, r3)), (-1, 3))
    w = 1.0 - nested[:, 0]
    nested_theta = np.angle(nested[:, 0])
    nested_branch = np.where(nested[:, 1].imag * w.real >= nested[:, 1].real * w.imag, +1, -1)
    max_gap = 2.0 * np.pi * 3.0 / steps
    out: list[np.ndarray] = []
    for theta, branch in loops:
        # bisect until every adjacent pair, wraparound included, respects the bar-angle bound
        cfgs = _config_at(r1, r2, r3, theta, branch)
        for _ in range(40):
            angles = np.angle(cfgs)
            gaps = np.abs(wrap_angle(angles - np.roll(angles, -1, axis=0))).max(axis=1)
            wide = np.flatnonzero(gaps >= max_gap)
            if wide.size == 0:
                break
            # Each loop runs an arc on branch +1 and back on branch -1, switching
            # only at the arc ends.  Those are tangencies, where both branches
            # meet, so every edge that switches branch lies on branch -1.
            edge = np.where(branch == np.roll(branch, -1), branch, -1)
            theta = np.insert(theta, wide + 1, (theta + np.roll(theta, -1))[wide] / 2.0)
            branch = np.insert(branch, wide + 1, edge[wide])
            cfgs = _config_at(r1, r2, r3, theta, branch)
        # an edge holds a nested point when its crank interval and its branch do
        edge = np.where(branch == np.roll(branch, -1), branch, -1)
        span = wrap_angle(np.roll(theta, -1) - theta)
        off = wrap_angle(nested_theta[:, None] - theta)
        k, i = np.nonzero((off * span > 0) & (np.abs(off) < np.abs(span))
                          & (edge == nested_branch[:, None]))
        order = np.lexsort((k, np.abs(off[k, i]), i))
        cfgs = np.insert(cfgs, i[order] + 1, nested[k[order]], axis=0)
        angles = np.angle(cfgs)
        gaps = np.abs(wrap_angle(angles - np.roll(angles, -1, axis=0)))
        _require(gaps, max_gap, f"orbit trace leaves a bar-angle gap of {{:.3g}} rad, "
                                f"above the bound 2*pi*3/steps = {max_gap:.3g}")
        out.append(_closed_rows(cfgs))
    return out


def orbit_count_bruteforce(spec: LinkageSpec, resolution: int = 400) -> int:
    """Count components by flood-filling sign-change cells on the angle torus.

    The closure defect g(t1, t2) = |1 - a e^{i t1} - b e^{i t2}|^2 - c^2
    vanishes exactly on the configuration set; cells of a resolution^2
    grid whose corners straddle zero (or sit on it) are glued by
    8-neighbor adjacency with wraparound and counted.  Independent of
    the analytic classification.
    """
    if resolution < 360:
        raise ValueError("resolution must be >= 360")
    a, b, c = spec.lengths()
    t = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    w = 1.0 - a * np.exp(1j * t)[:, None] - b * np.exp(1j * t)[None, :]
    g = np.abs(w) ** 2 - c * c
    corners = np.stack([g,
                        np.roll(g, -1, axis=0),
                        np.roll(g, -1, axis=1),
                        np.roll(np.roll(g, -1, axis=0), -1, axis=1)])
    cell = (corners.min(axis=0) < 0) & (corners.max(axis=0) > 0)
    cell |= np.abs(corners).min(axis=0) < 1e-12
    idx = np.flatnonzero(cell.ravel())
    pos = {int(v): i for i, v in enumerate(idx)}
    parent = list(range(idx.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n = resolution
    ii, jj = np.unravel_index(idx, (n, n))
    for k, (i, j) in enumerate(zip(ii.tolist(), jj.tolist())):
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                neighbor = pos.get(((i + di) % n) * n + ((j + dj) % n))
                if neighbor is not None:
                    ra, rb = find(k), find(neighbor)
                    if ra != rb:
                        parent[ra] = rb
    return len({find(k) for k in range(idx.size)})


def write_orbit_csv(orbits: list[np.ndarray], path, extra=None) -> int:
    """Write CSV rows per traced configuration to ``path``; returns the number flagged nested.

    Columns: step, orbit, Re/Im of each bar, the three deltas, and a nested
    flag (1 when some cos delta_ij vanishes, see ``combine.cos_vanishes``).
    ``orbits`` are (m, 3) bar arrays as ``orbit_trace`` returns them.
    ``extra`` may add numeric columns: it is called once per orbit with that
    orbit's rows and returns a dict from column name to an (m,) column.  The
    first orbit's keys name the columns; with no orbits, the keys ``extra``
    returns for a (0, 3) array do.  The header goes through ``csv.writer``;
    each row cell is its ``str`` (a float's ``repr``); lines end in ``\\r\\n``.
    """
    orbits = [np.ascontiguousarray(o, dtype=complex) for o in orbits]
    extra = extra if extra is not None else (lambda rows: {})
    columns = [extra(o) for o in orbits] or [extra(np.empty((0, 3), complex))]
    keys = list(columns[0])
    flagged = 0
    header = ["step", "orbit", "re_q1", "im_q1", "re_q2", "im_q2",
              "re_q3", "im_q3", "delta12", "delta23", "delta31", "nested"] + keys
    line = ",".join(["%s"] * len(header)) + "\r\n"  # csv.writer's bytes for numeric cells
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for orbit_id, (orbit, cols) in enumerate(zip(orbits, columns)):
            deltas = config_deltas(orbit)
            nested = cos_vanishes(deltas).any(axis=-1)
            flagged += int(np.count_nonzero(nested))
            cells = np.column_stack([orbit.view(float), deltas] + [cols[k] for k in keys])
            for step, (row, flag) in enumerate(zip(cells, nested.tolist())):
                row = row.tolist()  # one row at a time: Python floats, per-row memory
                fh.write(line % (step, orbit_id, *row[:9], int(flag), *row[9:]))
    return flagged
