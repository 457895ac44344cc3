"""The source distribution builds offline from ``pyproject.toml`` and holds
every module of the package.

The build runs on copies of ``pyproject.toml``, ``README.md`` and ``src/`` in
a temporary directory, so that no ``egg-info`` lands in the tree, and in a
subprocess, so that setuptools' state stays out of the test process.  No
wheel is built: that needs the ``wheel`` package.
"""

import pathlib
import re
import shutil
import subprocess
import sys
import tarfile

import setuptools

ROOT = pathlib.Path(__file__).resolve().parents[1]

_BUILD_SDIST = "import sys, setuptools.build_meta as b; b.build_sdist(sys.argv[1])"


def _version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in re.findall(r"\d+", text)[:3])


def test_build_floor_admits_this_setuptools():
    """``[build-system]`` asks for no newer setuptools than the one that
    builds the sdist below."""
    match = re.search(r'"setuptools>=([\d.]+)"', (ROOT / "pyproject.toml").read_text())
    assert match, "pyproject.toml declares no setuptools floor"
    assert _version(match.group(1)) <= _version(setuptools.__version__)


def test_sdist_holds_every_module(tmp_path):
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(
        ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    dist = tmp_path / "dist"
    subprocess.run(
        [sys.executable, "-c", _BUILD_SDIST, str(dist)],
        cwd=tmp_path, check=True, capture_output=True, timeout=120,
    )
    (archive,) = dist.glob("ddsounder-*.tar.gz")
    with tarfile.open(archive) as sdist:
        # members are ``ddsounder-<version>/<path>``
        members = {name.split("/", 1)[-1] for name in sdist.getnames()}
    modules = {path.relative_to(ROOT).as_posix() for path in (ROOT / "src/ddsounder").glob("*.py")}
    assert "src/ddsounder/cli.py" in modules
    assert modules <= members, sorted(modules - members)
