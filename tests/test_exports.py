import importlib
import pkgutil

import pytest

import boxact

MODULES = ["boxact"] + [f"boxact.{m.name}" for m in pkgutil.iter_modules(boxact.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), sorted(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
