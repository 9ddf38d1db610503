"""The declared public API: each module's ``__all__`` and the package re-export."""

import inspect

import pytest

import qgas
from qgas import errors, gas, polylog, regime, sweep

MODULES = (errors, gas, polylog, regime, sweep)


def test_package_all_is_the_module_lists_in_order():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert qgas.__all__ == expected
    assert len(set(qgas.__all__)) == len(qgas.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_export_is_defined_in_the_module_that_lists_it(module):
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(qgas, name) is obj
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qgas import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(qgas.__all__)
