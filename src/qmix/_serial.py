"""The package's JSON formats: deterministic report emission and the [re, im] codec.

The stdlib encoder ties float formatting to repr; report files need a
byte-stable format independent of Python patch version, so this small
emitter pins floats to ``%.17g`` (lossless for doubles) and emits dict
keys in insertion order without whitespace surprises.  Complex numbers
cross the JSON boundary as ``[re, im]`` pairs, through ``pairs`` and ``complexes``.
"""

from __future__ import annotations

import json
import math
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


def _emit(obj, parts: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("reports must not contain NaN or infinity")
        parts.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"non-string key: {k!r}")
            parts.append(pad + "  " + json.dumps(k, ensure_ascii=False) + ": ")
            _emit(v, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, v in enumerate(obj):
            parts.append(pad + "  ")
            _emit(v, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    parts: list = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)
