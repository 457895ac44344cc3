"""The README's library examples run as written, and its tables and CLI
usage follow the code.

Each ```python block of ``README.md`` runs in a fresh namespace with a
temporary directory as the working directory, so an example that names a
function the package no longer has, or passes it the wrong arguments, fails
here.  The ``[sounder]``, ``[scenario]`` and plan-check tables list, in
order, the fields, keywords and checks that the code has, each
``ddsounder <command>`` line of the CLI block names that command's flags and
shows their defaults, and each binary format's header is the codec's.
"""

import argparse
import dataclasses
import inspect
import os
import re

import pytest

from ddsounder import cli
from ddsounder import io as ddio
from ddsounder.channel import default_scenario
from ddsounder.params import SounderConfig, default_config, validate_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")

with open(README) as fh:
    TEXT = fh.read()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)


def _first_column(marker):
    """The backticked first cells of the first table at or after the first
    line that starts with ``marker``."""
    lines = TEXT.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(marker))
    while not lines[start].startswith("|"):
        start += 1
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names += re.findall(r"^\| `(\w+)` \|", line)
    return names


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_sounder_table_lists_the_config_fields():
    fields = [f.name for f in dataclasses.fields(SounderConfig)]
    assert _first_column("### `[sounder]`") == fields


def test_scenario_table_lists_the_scenario_keywords():
    keywords = [
        name
        for name, parameter in inspect.signature(default_scenario).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    ]
    assert _first_column("### `[scenario]`") == keywords


def test_check_table_lists_the_plan_checks():
    checks = [check.name for check in validate_config(default_config()).checks]
    assert _first_column("| check |") == checks


def _cli_usage():
    """Each ``ddsounder <command>`` line of the CLI ``sh`` block, by command."""
    (block,) = [
        b for b in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S) if "ddsounder plan" in b
    ]
    return {line.split()[1]: line for line in block.splitlines() if line.startswith("ddsounder ")}


def _subparsers():
    (commands,) = [
        a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return commands


def _flags(parser):
    return {s for a in parser._actions for s in a.option_strings if s.startswith("--")} - {"--help"}


def test_cli_usage_names_every_flag():
    usage, commands = _cli_usage(), _subparsers()
    assert sorted(usage) == sorted(commands)
    for command, line in usage.items():
        named = set(re.findall(r"--[\w-]+", line.split("#")[0]))
        if "plus analyze flags" in line:
            named |= _flags(commands["analyze"])
        assert named == _flags(commands[command]), command


def test_cli_usage_shows_the_parser_defaults():
    commands = _subparsers()
    shown = [
        (command, flag, int(value))
        for command, line in _cli_usage().items()
        for flag, value in re.findall(r"\[(--[\w-]+) (\d+)\]", line)
    ]
    assert [flag for _, flag, _ in shown] == [
        "--window-length", "--sbl-iters", "--peaks", "--seed"
    ]
    for command, flag, value in shown:
        assert commands[command].get_default(flag[2:].replace("-", "_")) == value, flag


def test_file_formats_give_the_codec_headers():
    """Each ``struct <...>`` string and byte count under "File formats" is
    the format and the size of the header that its magic's files carry."""
    section = TEXT[TEXT.index("## File formats") :]
    found = re.findall(r"header `struct (<\w+)` \((\d+) B\):\s+magic\s+`(\w+)`", section)
    assert len(found) == len(ddio._FORMATS)
    assert {magic.encode(): (fmt, int(size)) for fmt, size, magic in found} == {
        kind: (fmt.header.format, fmt.header.size) for kind, fmt in ddio._FORMATS.items()
    }
