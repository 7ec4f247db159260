"""Every name the benchmark tracer wraps must still exist where it looks for it.

``bench/spans.py`` replaces ``(module, attribute)`` bindings with timing
wrappers by ``getattr``; a renamed or unimported function would only show
up as a traced benchmark run that crashes.  The file is read as text and
executed, so nothing under ``bench/`` is imported or written.
"""

import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _tracer_bindings() -> list[tuple[str, str]]:
    namespace: dict = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    pairs = [(module, attr) for module, attr, _ in namespace["SPANNED"] + namespace["COUNTED"]]
    return pairs + [("qmix.irreps", "minimize")]


@pytest.mark.parametrize("module, attr", _tracer_bindings(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_traced_binding_resolves(module, attr):
    importlib.import_module("qmix.cli")
    assert callable(getattr(importlib.import_module(module), attr))


def test_validating_init_signature():
    # the tracer times DensityMatrix construction through a wrapper taking (obj, mat, check)
    from qmix.states import DensityMatrix
    assert list(inspect.signature(DensityMatrix.__init__).parameters) == ["self", "mat", "check"]
