"""Every name in a ``ddsounder`` module's ``__all__`` resolves, and so does
every package name the benchmark's timed step reads.  scipy is imported only
for the Slepian taper solve.

Tracing tools wrap each exported function by ``getattr``, so an entry left
behind by a deletion breaks them before any stage runs.
"""

import ast
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


def _imported_modules(path):
    """The absolute module names a source file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_scipy_serves_only_the_taper_solve():
    """Only ``tfanalysis`` imports scipy, and from it only ``scipy.linalg``
    (``eigh_tridiagonal``): every other scipy module costs each CLI call its
    import time and memory."""
    package = pathlib.Path(ddsounder.__file__).parent
    scipy_imports = {
        path.name: sorted(
            name for name in _imported_modules(path)
            if name == "scipy" or name.startswith("scipy.")
        )
        for path in sorted(package.glob("*.py"))
    }
    assert {name: mods for name, mods in scipy_imports.items() if mods} == {
        "tfanalysis.py": ["scipy.linalg"]
    }


def test_io_loads_no_scipy():
    """``import ddsounder.io`` (every benchmark set-up, every file reader)
    loads no scipy module: the surface and peak types it builds come from
    ``tfanalysis`` only when a surface or a peak list is read."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(ddsounder.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, ddsounder.io; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.stdout.strip() == "[]"
