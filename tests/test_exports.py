"""Every name in a ``ddsounder`` module's ``__all__`` resolves, and so does
every package name the benchmark's timed step reads.

Tracing tools wrap each exported function by ``getattr``, so an entry left
behind by a deletion breaks them before any stage runs.
"""

import importlib
import importlib.util
import pathlib
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


def test_benchmark_child_reads_the_package():
    """``perfbench/child.py`` records the software context after every timed
    run; a name it reads that the package lost fails every benchmark run."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    context = child.software_context()
    assert context["backend"] == "numpy"
