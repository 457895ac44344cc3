"""Every name in a ``ddsounder`` module's ``__all__`` resolves, and so does
every package name the benchmark's timed step reads.  scipy is never
imported: the Slepian taper solve loads its LAPACK extension by file.

Tracing tools wrap each exported function by ``getattr``, so an entry left
behind by a deletion breaks them before any stage runs.
"""

import ast
import builtins
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


def _scipy_names(path):
    """The string constants of a source file that name scipy or a scipy module."""
    return sorted({
        node.value
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and (node.value == "scipy" or node.value.startswith("scipy."))
    })


def test_scipy_serves_only_the_taper_solve():
    """No module imports scipy: every scipy package costs each CLI call its
    import time and memory.  ``tfanalysis`` alone names scipy, to find the
    LAPACK extension that its taper solve loads by file."""
    package = pathlib.Path(ddsounder.__file__).parent
    paths = sorted(package.glob("*.py"))
    importers = [
        path.name for path in paths
        if any(name == "scipy" or name.startswith("scipy.") for name in _imported_modules(path))
    ]
    assert importers == []
    named = {path.name: _scipy_names(path) for path in paths}
    assert {name: names for name, names in named.items() if names} == {
        "tfanalysis.py": ["scipy"]
    }


def test_io_reads_binary_payloads_by_offset_in_one_place():
    """``io`` reads every binary payload through one ``os.preadv`` loop, so a
    second decoder cannot come back, and nothing in it reads at a shared
    file position (``seek``, ``readinto``)."""
    path = pathlib.Path(ddsounder.__file__).parent / "io.py"
    tree = ast.parse(path.read_text(), str(path))
    attributes = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert attributes.count("preadv") == calls.count("os.preadv") == 1
    assert "readinto" not in attributes and "seek" not in attributes


def _module_bindings(tree):
    """The names a module binds at its top level, its top-level ``if``, ``try``
    and ``with`` blocks included (so the imports under ``if TYPE_CHECKING:``)."""
    names, blocks = set(), [tree.body]
    while blocks:
        for node in blocks.pop():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                )
            else:
                blocks += [getattr(node, f, []) for f in ("body", "orelse", "finalbody")]
                blocks += [handler.body for handler in getattr(node, "handlers", [])]
    return names


def _annotation_names(tree):
    """Every name read in an annotation of the module, at any depth; a string
    annotation is parsed for its names too."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            annotations += [arg.annotation for arg in args if arg is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                annotations.append(ast.parse(node.value, mode="eval"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
    return names


def test_annotations_name_bound_names():
    """Every name an annotation in the package reads is bound at module level
    (an import, under ``if TYPE_CHECKING:`` too, a def, a class or an
    assignment) or is a builtin: with postponed annotations nothing else
    catches a name that no line binds."""
    package = pathlib.Path(ddsounder.__file__).parent
    unbound = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _annotation_names(tree) - _module_bindings(tree) - set(dir(builtins))
        if names:
            unbound[path.name] = sorted(names)
    assert unbound == {}


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
