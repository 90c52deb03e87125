"""README's code and tables match the library and the CLI.

Each ``python`` block of the "Library use" section is executed from the
repository root, as a reader would paste it, so a documented call that the
library no longer accepts fails here.  The field table of "Config documents"
must list every ranged field with the hard and surveyed range it declares.
Each command line of the "CLI" section runs and exits 0, and the section
names every option of every command and no option that does not exist.
The scheme table lists each ``Integration`` value, in enum order.
"""

import argparse
import dataclasses
import re
import shlex
import warnings
from pathlib import Path

import pytest

from carbon3d import (
    BondingProfile,
    DesignSpec,
    DieSpec,
    FabEnvironment,
    Integration,
    PackagingProfile,
    TechnologyProfile,
    UsageProfile,
    WiringParameters,
)
from carbon3d.cli import build_parser, main
from carbon3d.params import SURVEYED

ROOT = Path(__file__).resolve().parent.parent


def _section(title: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", _section("Library use"), flags=re.M | re.S)


def test_the_section_has_python_blocks():
    assert _library_blocks()


@pytest.mark.parametrize("index", range(len(_library_blocks())))
def test_library_block_runs(index, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exec(compile(_library_blocks()[index], f"README.md library block {index}", "exec"), {})
    assert capsys.readouterr().out


# the table's section column -> the profile or spec it sets
SECTIONS = {
    "technology_overrides.<node>": TechnologyProfile, "design.dies[i].wiring": WiringParameters,
    "design.bonding": BondingProfile, "design.packaging": PackagingProfile, "environment": FabEnvironment,
    "usage": UsageProfile, "design.dies[i]": DieSpec, "design": DesignSpec,
}
CROSS_FIELD = {(UsageProfile, "t_exe_hours"), (DieSpec, "explicit_beol")}  # rules written by hand


def _field_table() -> dict[tuple[type, str], tuple[str, str]]:
    rows = {}
    for line in _section("Config documents").splitlines():
        if cells := re.fullmatch(r"\| `([^`]+)` \| `(\w+)` \|([^|]*)\|([^|]*)\|([^|]*)\|", line):
            key = (SECTIONS[cells[1]], cells[2])
            assert key not in rows, f"{cells[1]}.{cells[2]} is listed twice"
            rows[key] = (cells[4].strip(), cells[5].strip())
    return rows


def test_field_table_lists_each_declared_range():
    rows = _field_table()
    declared = {}
    for cls in SECTIONS.values():
        for f in dataclasses.fields(cls):
            if "range" in f.metadata:
                survey = f.metadata["surveyed"]
                declared[cls, f.name] = (f"`{f.metadata['range']}`",
                                         "" if survey is None else "`[{:g}, {:g}]`".format(*SURVEYED[survey]))
    assert {key: rows[key] for key in declared if key in rows} == declared
    assert set(rows) == set(declared) | CROSS_FIELD


def _cli_lines() -> list[list[str]]:
    """The argv of each ``carbon3d`` line of the CLI section's ``sh`` block, continuations joined."""
    block = re.search(r"^```sh\n(.*?)^```$", _section("CLI"), flags=re.M | re.S)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("carbon3d ")]


def test_the_cli_section_has_command_lines():
    assert {argv[0] for argv in _cli_lines()} == set(_subparsers())


@pytest.mark.parametrize("argv", _cli_lines(), ids=" ".join)
def test_cli_line_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # an --out file lands here; configs/ is the repository's
    argv = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out or "--out" in argv


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _named(option: str, text: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text) is not None


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_cli_section_names_every_option(command):
    section = _section("CLI")
    missing = [action.option_strings for action in _subparsers()[command]._actions
               if action.option_strings and not isinstance(action, argparse._HelpAction)
               and not any(_named(option, section) for option in action.option_strings)]
    assert missing == []


def test_cli_section_names_no_option_that_does_not_exist():
    options = {o for parser in _subparsers().values() for a in parser._actions for o in a.option_strings}
    assert set(re.findall(r"(?<![\w-])--\w[\w-]*", _section("CLI"))) - options == set()


def test_scheme_table_lists_each_integration_in_enum_order():
    intro = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` +\|", intro, flags=re.M) == [i.value for i in Integration]
