"""The README's library examples run as written.

Each ```python block of ``README.md`` runs in a fresh namespace with a
temporary directory as the working directory, so an example that names a
function the package no longer has, or passes it the wrong arguments, fails
here.
"""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

with open(README) as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
