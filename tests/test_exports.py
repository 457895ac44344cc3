"""Every name in a ``ddsounder`` module's ``__all__`` resolves.

Tracing tools wrap each exported function by ``getattr``, so an entry left
behind by a deletion breaks them before any stage runs.
"""

import importlib
import pkgutil

import pytest

import ddsounder

MODULES = sorted(m.name for m in pkgutil.iter_modules(ddsounder.__path__, "ddsounder."))


def test_every_library_module_is_listed():
    assert "ddsounder.channel" in MODULES and "ddsounder.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    if name != "ddsounder.cli":
        assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []
