"""README's code and tables match the library.

Each ``python`` block of the "Library use" section is executed from the
repository root, as a reader would paste it, so a documented call that the
library no longer accepts fails here.  The field table of "Config documents"
must list every ranged field with the hard and surveyed range it declares.
"""

import dataclasses
import re
import warnings
from pathlib import Path

import pytest

from carbon3d import (
    BondingProfile,
    DesignSpec,
    DieSpec,
    FabEnvironment,
    PackagingProfile,
    TechnologyProfile,
    UsageProfile,
    WiringParameters,
)
from carbon3d.params import SURVEYED

ROOT = Path(__file__).resolve().parent.parent


def _library_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


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
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config documents\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
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
