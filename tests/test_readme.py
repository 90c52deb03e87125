"""The ``python`` blocks of README's "Library use" section run as documented.

Each block is executed from the repository root, as a reader would paste it,
so a documented call that the library no longer accepts fails here.
"""

import re
import warnings
from pathlib import Path

import pytest

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
