import importlib

import pytest

import qmix

MODULES = ("groups", "irreps", "states", "combine", "linkage")

# names deleted because they only re-derived another public name, or had no caller
REMOVED = [
    "combine3_pdelta",
    "random_s3_phases",
    "irreps_to_json",
    "irreps_from_json",
    "S3Coeffs",
    "BlockUnitaries",
    "double_commutator",
    "covariance_check",
    "commutator",
]


def test_all_is_the_modules_all_without_duplicates():
    expected = [name for mod in MODULES for name in importlib.import_module(f"qmix.{mod}").__all__]
    assert qmix.__all__ == expected + ["__version__"]
    assert len(set(qmix.__all__)) == len(qmix.__all__)


@pytest.mark.parametrize("mod", MODULES)
def test_each_name_is_defined_in_the_module_that_lists_it(mod):
    module = importlib.import_module(f"qmix.{mod}")
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(qmix, name) is obj
        # classes and functions must come from this module, not be re-exported from another
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    assert not hasattr(qmix, name)  # so `from qmix import name` raises ImportError


def test_removed_methods_are_gone():
    assert not hasattr(qmix.FiniteGroup, "from_json")
    assert not hasattr(qmix.FiniteGroup, "to_json")
    assert "name" not in qmix.FiniteGroup.__dataclass_fields__
    assert not hasattr(qmix.symmetric_group(3), "labels")
    assert not hasattr(qmix.DensityMatrix, "eigenvalues")
