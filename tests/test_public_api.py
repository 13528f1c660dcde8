"""The package's export lists name only what exists.

Every ``repro`` package re-exports its public names through ``__all__``;
a name left in an ``__all__`` after its definition is deleted fails
``from package import *`` at the first import, not at the first call.
These tests import every module of the package, resolve every name in
every ``__all__``, and run ``from repro import *``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _module_names():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


MODULES = _module_names()


def test_every_subpackage_is_walked():
    assert {"repro.core", "repro.data", "repro.service", "repro.analysis.rules"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [symbol for symbol in exported if not hasattr(module, symbol)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
