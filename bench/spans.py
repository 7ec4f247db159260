"""Spans and counters around the package's public calls, installed from outside.

``Tracer.install`` replaces module-level names with timing wrappers at the
binding the caller looks up (``cli`` imports ``combine3_closed`` into its own
namespace, so the wrapper goes there), and ``Tracer.restore`` puts the
originals back.  Spans stay in memory: each is ``[name, parent, request,
start, end]`` with ``parent`` the index of the enclosing span (or -1).
Counters are exact counts at the same boundaries.
"""

from __future__ import annotations

import os
from time import perf_counter

# (module, attribute, span name); the span name says which layer the function lives in
SPANNED = [
    ("qmix.cli", "dumps", "serial.dumps"),
    ("qmix.cli", "random_density", "states.random_density"),
    ("qmix.cli", "entropy", "states.entropy"),
    ("qmix.cli", "random_qtriple", "combine.random_qtriple"),
    ("qmix.cli", "combine3_closed", "combine.combine3_closed"),
    ("qmix.cli", "combine3_magic", "combine.combine3_magic"),
    ("qmix.cli", "combine3_bruteforce", "combine.combine3_bruteforce"),
    ("qmix.cli", "orbit_trace", "linkage.orbit_trace"),
    ("qmix.cli", "write_orbit_csv", "linkage.write_orbit_csv"),
    ("qmix.cli", "flat_unitary_search", "irreps.flat_unitary_search"),
    ("qmix.combine", "tensor", "states.tensor"),
    ("qmix.combine", "partial_trace", "states.partial_trace"),
    ("qmix.combine", "tensor_rep", "irreps.tensor_rep"),
    ("qmix.irreps", "synthesize_coeffs", "irreps.synthesize_coeffs"),
]

# (module, attribute, counter name): calls are counted, not timed
COUNTED = [
    ("numpy.linalg", "eigvalsh", "kernel.eigvalsh.calls"),
    ("qmix.linkage", "config_deltas", "linkage.config_deltas.calls"),
    ("qmix.irreps", "extract_blocks", "irreps.extract_blocks.calls"),
    ("qmix.combine", "extract_blocks", "irreps.extract_blocks.calls"),
]


def _bruteforce_gflop(args, result) -> float:
    """Two complex N x N matmuls (U rho U^dag) with N = d^3, at 8 real flops per multiply-add."""
    n = args[0].dim ** 3
    return 2 * 8 * n**3 / 1e9


# span name -> (counter, amount measured from the call's arguments and result)
MEASURED = {
    "serial.dumps": ("serial.dumps.bytes", lambda args, result: len(result.encode())),
    "linkage.write_orbit_csv": ("linkage.write_orbit_csv.bytes",
                                lambda args, result: os.path.getsize(args[1])),
    "combine.combine3_bruteforce": ("combine.combine3_bruteforce.gflop", _bruteforce_gflop),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.request = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.request, perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn):
        measured = MEASURED.get(name)

        def wrapped(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measured:
                self._add(measured[0], measured[1](args, result))
            return result
        return wrapped

    def _counted(self, name, fn):
        def wrapped(*args, **kwargs):
            self._add(name)
            return fn(*args, **kwargs)
        return wrapped

    def _solver(self, fn):
        def wrapped(*args, **kwargs):
            res = fn(*args, **kwargs)
            self._add("irreps.solver.nfev", res.nfev)
            self._add("irreps.solver.nit", res.nit)
            return res
        return wrapped

    def _validating_init(self, init):
        def wrapped(obj, mat, check: bool = True):
            if not check:
                return init(obj, mat, check)
            idx = self.open("states.validate")
            try:
                return init(obj, mat, check)
            finally:
                self.close(idx)
        return wrapped

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def install(self) -> None:
        import importlib

        from qmix.states import DensityMatrix

        for module, attr, name in SPANNED:
            self._patch(importlib.import_module(module), attr,
                        lambda fn, name=name: self._spanned(name, fn))
        for module, attr, name in COUNTED:
            self._patch(importlib.import_module(module), attr,
                        lambda fn, name=name: self._counted(name, fn))
        self._patch(importlib.import_module("qmix.irreps"), "minimize", self._solver)
        self._patch(DensityMatrix, "__init__", self._validating_init)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _, _, t0, t1) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["busy_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
        return out
