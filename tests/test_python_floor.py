"""Every source file parses at the oldest Python that ``pyproject.toml``
admits.

The interpreter running the tests may be newer than that floor, so syntax
it accepts (a parenthesised ``with``, a ``match``, ``except*``) could reach
a file unnoticed.  ``ast.parse(..., feature_version=(3, minor))`` rejects
much of the newer grammar.  It is best-effort: the parser does not promise
to catch every construct newer than ``minor``, and it checks syntax only,
not the library names a file uses.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _oldest_minor() -> int:
    """The minor version of ``requires-python = ">=3.N"``; a regex, since
    ``tomllib`` is itself newer than the floor."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*3\.(\d+)', text, re.M)
    assert match, "pyproject.toml declares no requires-python floor"
    return int(match.group(1))


SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
)


def test_sources_found():
    assert "src/ddsounder/cli.py" in SOURCES and "tests/test_python_floor.py" in SOURCES


@pytest.mark.parametrize("name", SOURCES)
def test_parses_at_the_oldest_python(name):
    source = (ROOT / name).read_text()
    ast.parse(source, name, feature_version=(3, _oldest_minor()))
