"""Loader fuzzing: any JSON value at any place of a config document.

Each example takes one of ``configs/*.json``, replaces or inserts a value
at a drawn place, and requires that ``load_scenario`` returns or raises a
``ValidationError``, and that ``carbon3d estimate`` exits 0 or 2.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carbon3d import (
    BondingProfile,
    DieSpec,
    FabEnvironment,
    PackagingProfile,
    TechnologyProfile,
    UsageProfile,
    WiringParameters,
    load_scenario,
)
from carbon3d.cli import main
from carbon3d.errors import ValidationError

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
DOCUMENTS = [json.loads(path.read_text(encoding="utf-8")) for path in CONFIGS]

# keys worth inserting: every document and profile key, node names and a comment
PROFILES = (TechnologyProfile, WiringParameters, BondingProfile, PackagingProfile, FabEnvironment, UsageProfile, DieSpec)
PROFILE_KEYS = {f.name for cls in PROFILES for f in dataclasses.fields(cls)}
DOCUMENT_KEYS = {
    "design", "technology_overrides", "environment", "usage", "integration", "facing", "stacking",
    "dies", "technology", "wiring", "gate_count_2d", "n_dies", "area_ratios", "bonding", "packaging",
    "interposer", "beol_layers", "7nm", "28nm", "_comment",
}
KEYS = sorted(PROFILE_KEYS | DOCUMENT_KEYS)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.sampled_from([2**64, -(2**63), 10**400])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, sys.float_info.max, 5e-324, 0.5])
    | st.text(max_size=8)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _places(node, place=()):
    """(container, key) for every value in a document; key None inserts a new one."""
    yield place, None
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield place, key
        if isinstance(value, (dict, list)):
            yield from _places(value, place + (key,))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_value_anywhere_loads_or_is_rejected(data, registry, config_path):
    doc = copy.deepcopy(data.draw(st.sampled_from(DOCUMENTS), label="document"))
    place, key = data.draw(st.sampled_from(list(_places(doc))), label="place")
    target = doc
    for step in place:
        target = target[step]
    value = data.draw(JSON_VALUES, label="value")
    if key is not None:
        target[key] = value
    elif isinstance(target, dict):
        target[data.draw(st.sampled_from(KEYS), label="new key")] = value
    else:
        target.append(value)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            load_scenario(doc, registry)
        except ValidationError:
            pass
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["estimate", "-c", str(config_path), "--format", "csv"]) in (0, 2)
