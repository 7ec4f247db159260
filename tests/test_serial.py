import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from qmix._serial import FormatError, complexes, dumps, pairs, reals


class TestDumps:
    def test_common_escapes_keep_their_bytes(self):
        assert dumps('a\\b"c\nd\te') == '"a\\\\b\\"c\\nd\\te"\n'

    def test_control_characters_and_keys_are_escaped(self):
        doc = {'a"b': 1, "c\rd": "e\x01f", "k\\": ["\r\n\b\f"], "é": "ü"}
        assert json.loads(dumps(doc)) == doc

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps({"x": math.nan})

    def test_integral_floats_stay_floats(self):
        back = json.loads(dumps({"x": 1.0, "y": 1e16}))
        assert back == {"x": 1.0, "y": 1e16}
        assert all(type(v) is float for v in back.values())

    def test_floats_round_trip_exactly(self):
        # random bit patterns of both signs; clearing the exponent makes subnormals
        bits = np.random.default_rng(0).integers(0, 2**64, size=2000, dtype=np.uint64)
        subnormal = bits[:200] & np.uint64(0x800F_FFFF_FFFF_FFFF)
        edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 0.1, 1e16, 1e-5]
        x = np.concatenate([bits.view(float), subnormal.view(float), edge])
        x = x[np.isfinite(x)]
        back = np.array(json.loads(dumps(x.tolist())), dtype=float)
        assert_array_equal(back.view(np.uint64), x.view(np.uint64))


class TestCodec:
    def test_pairs_any_shape(self):
        assert pairs(1 - 2j) == [1.0, -2.0]
        assert pairs(np.array([[1j, 2]])) == [[[0.0, 1.0], [2.0, 0.0]]]
        assert pairs(np.zeros((2, 3, 4))) == np.zeros((2, 3, 4, 2)).tolist()

    def test_complexes_inverts_pairs(self):
        z = np.random.default_rng(0).normal(size=(3, 2, 2)) * (1 + 2j)
        assert_array_equal(complexes(pairs(z), (3, 2, 2), "z"), z)

    def test_reals_accepts_ints_and_floats(self):
        got = reals([[1, 2.5], [-3, 0]], (2, 2), "m")
        assert got.dtype == float and got.shape == (2, 2)
        assert_array_equal(got, [[1.0, 2.5], [-3.0, 0.0]])
        assert reals(7, (), "x") == 7.0

    @pytest.mark.parametrize("data, shape", [
        (True, ()), ("1", ()), (None, ()), (math.nan, ()), (math.inf, ()), (-math.inf, ()),
        (10**400, ()), ([1.0], ()), ([1, 2], (3,)), (5, (3,)), ([1, [2], 3], (3,)),
        ([[1, 2], [3]], (2, 2)), ([[1, 2], [3, False]], (2, 2)), ({"0": 1}, (1,)),
    ])
    def test_reals_rejects(self, data, shape):
        with pytest.raises(FormatError, match="^thing must be"):
            reals(data, shape, "thing")

    def test_complexes_rejects_a_bare_number(self):
        with pytest.raises(FormatError, match="q must be a 3x2 list"):
            complexes([1, 0, 0], (3,), "q")
