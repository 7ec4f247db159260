"""The package's JSON formats: report emission and the [re, im] codec.

Reports are the standard ``json`` encoding with a two-space indent and
keys in insertion order.  Floats are written as their ``repr``, the
shortest text that reads back to the same double, and NaN or infinity
is rejected.  Complex numbers cross the JSON boundary as ``[re, im]``
pairs, through ``pairs`` and ``complexes``.
"""

from __future__ import annotations

import json
import sys

import numpy as np

__all__ = ["dumps", "FormatError", "pairs", "reals", "complexes"]


class FormatError(ValueError):
    """The input document does not have the documented shape or types."""


def pairs(x) -> list:
    """A complex scalar or array of any shape as nested ``[re, im]`` float lists."""
    a = np.asarray(x, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _check(data, shape: tuple) -> bool:
    if not shape:  # the bound is False for NaN, infinities and ints beyond the float range
        return (isinstance(data, (int, float)) and not isinstance(data, bool)
                and abs(data) <= sys.float_info.max)
    return (isinstance(data, (list, tuple)) and len(data) == shape[0]
            and all(_check(v, shape[1:]) for v in data))


def reals(data, shape: tuple, what: str) -> np.ndarray:
    """Nested lists of exactly ``shape`` with finite int/float leaves, as a float array.

    Anything else (booleans, strings, NaN, infinities, another shape) raises
    a FormatError naming ``what``.
    """
    if not _check(data, shape):
        dims = f"length-{shape[0]}" if len(shape) == 1 else "x".join(map(str, shape))
        kind = f"a {dims} list of finite numbers" if shape else "a finite number"
        raise FormatError(f"{what} must be {kind}")
    return np.array(data, dtype=float).reshape(shape)


def complexes(data, shape: tuple, what: str) -> np.ndarray:
    """Nested lists of ``[re, im]`` pairs, ``shape`` deep, as a complex array."""
    a = reals(data, (*shape, 2), what)
    return a[..., 0] + 1j * a[..., 1]


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
