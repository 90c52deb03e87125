import dataclasses
import json
import math
import os
import shutil
import types
import warnings
from pathlib import Path

import pytest

from carbon3d import (
    Facing,
    FixtureRegistry,
    Integration,
    Stacking,
    build_design,
    design_to_document,
    load_scenario,
)
from carbon3d.errors import (
    CarbonModelWarning,
    InvalidCombination,
    MissingField,
    OutOfRange,
    UnknownNode,
    ValidationError,
)
from carbon3d import params
from carbon3d.cli import main
from carbon3d.params import SURVEYED, resolve_node, validate_design, validate_profile

from conftest import basic_document, make_design, write_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestLoadDesign:
    def test_minimal_hybrid_f2f(self):
        design = load_scenario(basic_document()).design
        assert design.integration is Integration.HYBRID_3D
        assert design.facing is Facing.F2F
        assert design.stacking is Stacking.D2W
        assert len(design.dies) == 2
        assert design.signal_count_f2f == 0

    def test_f2f_with_three_dies_rejected(self):
        doc = basic_document(dies=[{"technology": "7nm", "gate_count": 1e8}] * 3)
        with pytest.raises(InvalidCombination) as exc:
            load_scenario(doc)
        assert "facing" in str(exc.value)

    def test_die_without_size_information(self):
        doc = basic_document(dies=[{"technology": "7nm"}, {"technology": "7nm", "gate_count": 1e8}])
        with pytest.raises(MissingField) as exc:
            load_scenario(doc)
        assert "dies[0]" in str(exc.value)

    def test_defaults_applied(self):
        doc = basic_document()
        del doc["design"]["facing"], doc["design"]["stacking"]
        design = load_scenario(doc).design
        assert design.facing is Facing.F2F       # 2 dies
        assert design.stacking is Stacking.D2W

    def test_f2b_default_for_deeper_stacks(self):
        doc = basic_document(dies=[{"technology": "7nm", "gate_count": 1e8}] * 3)
        del doc["design"]["facing"]
        design = load_scenario(doc).design
        assert design.facing is Facing.F2B

    def test_facing_rejected_for_25d(self):
        doc = basic_document(integration="mcm")
        with pytest.raises(InvalidCombination):
            load_scenario(doc)

    def test_mono2d_wants_one_die(self):
        doc = basic_document(integration="mono_2d", facing=None, stacking=None)
        with pytest.raises(InvalidCombination):
            load_scenario(doc)

    def test_m3d_mixed_nodes_rejected(self):
        doc = basic_document(
            integration="m3d", facing="f2b", stacking=None,
            dies=[{"technology": "7nm", "gate_count": 5e8},
                  {"technology": "5nm", "gate_count": 5e8}],
        )
        with pytest.raises(InvalidCombination):
            load_scenario(doc)

    def test_gate_count_2d_expansion(self):
        doc = basic_document()
        doc["design"].pop("dies")
        doc["design"].update({"gate_count_2d": 1e9, "n_dies": 2, "technology": "7nm"})
        design = load_scenario(doc).design
        assert [d.gate_count for d in design.dies] == [5e8, 5e8]

    def test_gate_count_2d_with_ratios(self):
        doc = basic_document()
        doc["design"].pop("dies")
        doc["design"].update({"gate_count_2d": 1e9, "n_dies": 2, "technology": "7nm",
                              "area_ratios": [3, 1]})
        design = load_scenario(doc).design
        assert design.dies[0].gate_count == pytest.approx(7.5e8)
        assert design.dies[1].gate_count == pytest.approx(2.5e8)

    @pytest.mark.parametrize("ratios, message", [
        ([1, 2, 3], "expected 2 entries, got 3"),
        ([1], "expected 2 entries, got 1"),
        ([1, 0], "ratios must be > 0"),
        ([-1, 2], "ratios must be > 0"),
    ])
    def test_bad_area_ratios_are_an_error_on_area_ratios(self, ratios, message):
        doc = basic_document()
        doc["design"].pop("dies")
        doc["design"].update({"gate_count_2d": 1e9, "n_dies": 2, "technology": "7nm", "area_ratios": ratios})
        with pytest.raises(OutOfRange) as exc:
            load_scenario(doc)
        assert exc.value.path == "design.area_ratios" and str(exc.value) == f"design.area_ratios: {message}"

    @pytest.mark.parametrize("root", [[], [{"design": {}}], "design", 3, None])
    def test_a_config_file_whose_root_is_not_an_object(self, tmp_path, root):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(root))
        with pytest.raises(MissingField) as exc:
            load_scenario(path)
        assert exc.value.path == "<root>" and str(exc.value) == "<root>: config document must be a JSON object"

    def test_unknown_integration_names_value(self):
        doc = basic_document(integration="origami")
        with pytest.raises(OutOfRange) as exc:
            load_scenario(doc)
        assert "origami" in str(exc.value)

    def test_explicit_beol_above_cap(self):
        doc = basic_document()
        doc["design"]["dies"][0]["explicit_beol"] = 99
        with pytest.raises(OutOfRange) as exc:
            load_scenario(doc)
        assert "explicit_beol" in str(exc.value)

    def test_usage_requires_exactly_one_energy_source(self):
        doc = basic_document()
        doc["usage"]["energy_override_kwh"] = 10.0
        with pytest.raises(InvalidCombination):
            load_scenario(doc)
        del doc["usage"]["energy_override_kwh"], doc["usage"]["power_density"]
        with pytest.raises(MissingField):
            load_scenario(doc)

    def test_t_app_bounded_by_t_exe(self):
        doc = basic_document()
        doc["usage"]["t_app_hours"] = 1e6
        with pytest.raises(OutOfRange):
            load_scenario(doc)

    def test_malformed_value_is_typed_error(self):
        doc = basic_document()
        doc["design"]["dies"][0]["gate_count"] = "many"
        with pytest.raises(ValidationError) as exc:
            load_scenario(doc)
        assert "dies[0]" in str(exc.value)

    def test_technology_override_applies(self):
        doc = basic_document()
        doc["technology_overrides"] = {"7nm": {"defect_density_d0": 0.42}}
        design = load_scenario(doc).design
        assert design.dies[0].technology.defect_density_d0 == 0.42

    def test_surveyed_range_violation_warns_not_raises(self):
        doc = basic_document()
        doc["environment"] = {"ci_fab": 5.0}
        with pytest.warns(CarbonModelWarning):
            load_scenario(doc)


class TestRegistry:
    def test_known_node_in_surveyed_range(self, registry):
        tech = registry.technology("7nm")
        lo, hi = SURVEYED["epa_feol"]
        assert lo <= tech.epa_feol <= hi

    def test_upper_bound_node(self, registry):
        assert registry.technology("28nm").node_name == "28nm"

    def test_unknown_node(self, registry):
        with pytest.raises(UnknownNode):
            registry.technology("90nm")

    def test_unknown_node_lists_the_known_nodes_in_numeric_order(self):
        with pytest.raises(UnknownNode, match=r"^technology: unknown node '90nm'; "
                                              r"known: 3nm, 5nm, 7nm, 10nm, 14nm, 20nm, 28nm$"):
            FixtureRegistry.bundled().technology("90nm")

    @pytest.mark.parametrize("name", ["../7nm", "7nm/x", "nodes/7nm", "7nm.json", ""])
    def test_a_name_that_is_not_a_node_file_is_unknown(self, monkeypatch, name):
        opened = []
        monkeypatch.setattr(params, "open", lambda file, *a, **k: opened.append(file), raising=False)
        with pytest.raises(UnknownNode) as exc:
            FixtureRegistry.bundled().technology(name)
        assert exc.value.node == name and opened == []

    def test_the_nodes_are_listed_once_per_registry(self, monkeypatch):
        listed = []
        listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda path: listed.append(path) or listdir(path))
        registry = FixtureRegistry.bundled()
        for node in ("7nm", "14nm", "5nm"):
            registry.technology(node)
            registry.default_wiring(node)
        for name in ("90nm", "../7nm"):
            with pytest.raises(UnknownNode):
                registry.technology(name)
        assert registry.node_names()[:3] == ["3nm", "5nm", "7nm"]
        assert len(listed) == 1
        FixtureRegistry.bundled().technology("7nm")  # a new registry lists the directory again
        assert len(listed) == 2

    def test_every_fixture_passes_invariants_silently(self):
        registry = FixtureRegistry.bundled()  # fresh: every profile is built and validated here
        with warnings.catch_warnings():
            warnings.simplefilter("error", CarbonModelWarning)
            for name in registry.node_names():
                validate_profile(registry.technology(name), "technology")
                validate_profile(registry.default_wiring(name), "wiring")
            registry.bonding()
            registry.packaging()
            registry.environment()

    def test_env_var_override(self, registry, tmp_path, monkeypatch):
        (tmp_path / "nodes").mkdir()
        (tmp_path / "nodes" / "7nm.json").write_text(
            (registry.root / "nodes" / "7nm.json").read_text()
        )
        monkeypatch.setenv("CARBON3D_FIXTURES", str(tmp_path))
        assert FixtureRegistry.bundled().node_names() == ["7nm"]

    def test_repeated_reads_return_the_same_object(self):
        registry = FixtureRegistry.bundled()
        assert registry.technology("7nm") is registry.technology("7nm")
        assert registry.default_wiring("7nm") is registry.default_wiring("7nm")
        assert registry.bonding() is registry.bonding()
        assert registry.packaging() is registry.packaging()
        assert registry.environment() is registry.environment()

    def test_each_fixture_file_is_opened_once_per_registry(self, monkeypatch):
        opened = []

        def spy(file, *args, **kwargs):
            opened.append(Path(file).relative_to(registry.root).as_posix())
            return open(file, *args, **kwargs)

        registry = FixtureRegistry.bundled()
        monkeypatch.setattr(params, "open", spy, raising=False)
        for _ in range(3):
            for node in ("7nm", "14nm"):
                registry.technology(node)
                registry.default_wiring(node)
            registry.bonding()
            registry.packaging()
            registry.environment()
        assert sorted(opened) == [
            "bonding.json", "environment.json", "nodes/14nm.json", "nodes/7nm.json", "packaging.json",
        ]
        FixtureRegistry.bundled().technology("7nm")  # a new registry reads the file again
        assert opened.count("nodes/7nm.json") == 2

    def test_new_registry_sees_an_edited_fixture(self, tmp_path):
        root = _fixture_copy(tmp_path)
        first = FixtureRegistry(root)
        assert first.technology("7nm").epa_feol == 0.42
        _edit_node(root, "7nm", epa_feol=0.5)
        assert first.technology("7nm").epa_feol == 0.42  # pinned for the registry's lifetime
        assert FixtureRegistry(root).technology("7nm").epa_feol == 0.5

    def test_failures_are_not_cached(self, registry, tmp_path):
        for _ in range(2):
            with pytest.raises(UnknownNode):
                registry.technology("90nm")
        root = _fixture_copy(tmp_path)
        (root / "bonding.json").unlink()
        fresh = FixtureRegistry(root)
        for _ in range(2):
            with pytest.raises(MissingField):
                fresh.bonding()
        shutil.copy(registry.root / "bonding.json", root / "bonding.json")
        assert fresh.bonding() == registry.bonding()

    def test_warnings_repeat_across_cli_runs_in_one_process(self, tmp_path, monkeypatch, capsys):
        # the cache lives on the registry, which each CLI command builds anew
        root = _fixture_copy(tmp_path)
        _edit_node(root, "7nm", epa_feol=0.9)
        monkeypatch.setenv("CARBON3D_FIXTURES", str(root))
        config = write_config(tmp_path, basic_document())
        line = "warning: fixtures/nodes/7nm.epa_feol=0.9 is outside the surveyed range [0.24, 0.56]"
        for _ in range(2):
            assert main(["estimate", "-c", str(config), "--format", "csv"]) == 0
            assert line in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("relpath, method, args, where", [
        ("nodes/5nm.json", "technology", ("5nm",), "fixtures/nodes/5nm"),
        ("nodes/5nm.json", "default_wiring", ("5nm",), "fixtures/nodes/5nm"),
        ("bonding.json", "bonding", (), "fixtures/bonding"),
        ("environment.json", "environment", (), "fixtures/environment"),
    ])
    def test_malformed_fixture_is_a_validation_error(self, tmp_path, relpath, method, args, where):
        root = _fixture_copy(tmp_path)
        good = (root / relpath).read_text()
        (root / relpath).write_text(good[: len(good) // 2])  # truncated JSON
        read = getattr(FixtureRegistry(root), method)
        for _ in range(2):  # the failure is not cached
            with pytest.raises(ValidationError) as exc:
                read(*args)
            assert exc.value.path == where and "not valid JSON" in str(exc.value)
        (root / relpath).write_text(good)
        read(*args)

    def test_registries_share_the_built_profiles(self):
        first, second = FixtureRegistry.bundled(), FixtureRegistry.bundled()
        assert first.technology("7nm") is second.technology("7nm")
        assert first.default_wiring("7nm") is second.default_wiring("7nm")
        assert first.bonding() is second.bonding()
        assert first.packaging() is second.packaging()
        assert first.environment() is second.environment()

    def test_an_edit_that_keeps_size_and_mtime_is_seen(self, tmp_path):
        root = _fixture_copy(tmp_path)
        file = root / "nodes" / "7nm.json"
        assert FixtureRegistry(root).technology("7nm").epa_feol == 0.42
        before, text = file.stat(), file.read_text()
        edited = text.replace('"epa_feol": 0.42,', '"epa_feol": 0.43,')
        assert edited != text and len(edited) == len(text)
        file.write_text(edited)
        os.utime(file, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = file.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert FixtureRegistry(root).technology("7nm").epa_feol == 0.43

    def test_fixture_warnings_repeat_on_every_new_registry(self, tmp_path):
        root = _fixture_copy(tmp_path)
        _edit_node(root, "7nm", epa_feol=0.9)
        for _ in range(3):
            with pytest.warns(CarbonModelWarning, match=r"^fixtures/nodes/7nm\.epa_feol=0\.9 is outside"):
                registry = FixtureRegistry(root)
                tech = registry.technology("7nm")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert registry.technology("7nm") is tech  # once per registry

    def test_a_fixture_that_warns_and_fails_gives_both(self, tmp_path):
        root = _fixture_copy(tmp_path)
        env = root / "environment.json"
        env.write_text(json.dumps({**json.loads(env.read_text()), "ci_fab": 5.0, "wafer_diameter_cm": 0}))
        for _ in range(2):  # the failure is not memoized, so each registry warns again
            with pytest.warns(CarbonModelWarning, match=r"^fixtures/environment\.ci_fab=5 is outside"):
                with pytest.raises(OutOfRange, match="wafer_diameter_cm"):
                    FixtureRegistry(root).environment()

    def test_fixture_warnings_come_from_the_params_module(self, tmp_path):
        root = _fixture_copy(tmp_path)
        _edit_node(root, "7nm", epa_feol=0.9)
        for _ in range(2):  # the build, then the memo's replay
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.filterwarnings("ignore", module=r"carbon3d\.params\Z")
                FixtureRegistry(root).technology("7nm")
            assert caught == []

    def test_memo_keeps_one_entry_per_profile(self, tmp_path):
        root = _fixture_copy(tmp_path)
        sizes = set()
        for i in range(50):
            _edit_node(root, "7nm", epa_feol=0.3 + i / 1000)
            registry = FixtureRegistry(root)
            assert registry.technology("7nm").epa_feol == 0.3 + i / 1000
            registry.default_wiring("7nm")
            sizes.add(len(params._BUILT))
        assert len(sizes) == 1
        # one entry per fixture file: the node's technology and wiring are one build
        assert [file for file in params._BUILT if "7nm" in file] == ["nodes/7nm.json"]
        _, (tech, wiring), _ = params._BUILT["nodes/7nm.json"]
        assert tech is registry.technology("7nm") and wiring is registry.default_wiring("7nm")

    def test_fixture_that_is_not_an_object(self, tmp_path):
        root = _fixture_copy(tmp_path)
        (root / "nodes" / "7nm.json").write_text("[1, 2]")
        with pytest.raises(MissingField) as exc:
            FixtureRegistry(root).default_wiring("7nm")
        assert exc.value.path == "fixtures/nodes/7nm"

    def test_fixture_comment_keys_are_skipped(self, tmp_path, registry):
        root = _fixture_copy(tmp_path)
        node = json.loads((root / "nodes" / "7nm.json").read_text())
        node["wiring"]["_comment"] = "from a foundry survey"
        _edit_node(root, "7nm", wiring=node["wiring"], _source="survey 2023")
        fresh = FixtureRegistry(root)
        assert fresh.technology("7nm") == registry.technology("7nm")
        assert fresh.default_wiring("7nm") == registry.default_wiring("7nm")

    def test_fixture_typo_is_an_error_on_its_path(self, tmp_path):
        root = _fixture_copy(tmp_path)
        _edit_node(root, "7nm", epa_feoll=0.4)
        with pytest.raises(OutOfRange) as exc:
            FixtureRegistry(root).technology("7nm")
        assert exc.value.path == "fixtures/nodes/7nm.epa_feoll"

    def test_fixture_defaults_apply_when_omitted(self, tmp_path):
        root = _fixture_copy(tmp_path)
        node = json.loads((root / "nodes" / "7nm.json").read_text())
        del node["io_overhead_ratio"], node["wiring"]["rent_alpha"]
        (root / "nodes" / "7nm.json").write_text(json.dumps(node))
        fresh = FixtureRegistry(root)
        assert fresh.technology("7nm").io_overhead_ratio == 0.1
        assert fresh.default_wiring("7nm").rent_alpha == 1.0

    def test_custom_fixture_warns_once_on_the_fixture_path(self, tmp_path, monkeypatch, capsys):
        # the registry validates a profile once; validate_design does not re-check it per die
        root = _fixture_copy(tmp_path)
        _edit_node(root, "7nm", epa_feol=0.9)
        monkeypatch.setenv("CARBON3D_FIXTURES", str(root))
        config = write_config(tmp_path, basic_document())
        assert main(["sweep", "-c", str(config), "--axis", "dies[*].gate_count=1e8,2e8", "--baseline"]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if "epa_feol" in line]
        assert lines == ["warning: fixtures/nodes/7nm.epa_feol=0.9 is outside the surveyed range [0.24, 0.56]"]


class TestNodeFile:
    """A node file is one fixture: its technology and its wiring are read, parsed and validated together."""

    @pytest.mark.parametrize("node, reader", [
        ("28nm", "interposer"),    # hybrid_2die_7nm's dies are 7nm; only its interposer is 28nm
        ("14nm", "override"),      # no die or interposer uses 14nm; an override is built over it
        ("5nm", "fixtures list"),  # the table prints only technology fields
    ])
    def test_a_broken_wiring_refuses_the_node_wherever_it_is_read(self, tmp_path, monkeypatch, capsys, node, reader):
        root = _fixture_copy(tmp_path)
        wiring = json.loads((root / "nodes" / f"{node}.json").read_text())["wiring"]
        _edit_node(root, node, wiring={**wiring, "rent_p": 2.0})
        monkeypatch.setenv("CARBON3D_FIXTURES", str(root))
        overridden = {**basic_document(), "technology_overrides": {node: {"defect_density_d0": 0.1}}}
        argv = {
            "interposer": ["estimate", "-c", str(CONFIG_DIR / "hybrid_2die_7nm.json")],
            "override": ["estimate", "-c", str(write_config(tmp_path, overridden))],
            "fixtures list": ["fixtures", "list"],
        }[reader]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: fixtures/nodes/{node}.wiring.rent_p: must be in (0, 1)\n"

    def test_a_node_file_is_parsed_once_per_process(self, tmp_path, monkeypatch):
        root = _fixture_copy(tmp_path)
        _edit_node(root, "7nm", epa_feol=0.41)  # bytes that no earlier build in this process has seen
        parsed = []
        spy = types.SimpleNamespace(load=json.load, loads=lambda text: parsed.append(text) or json.loads(text))
        monkeypatch.setattr(params, "json", spy)
        for registry in (FixtureRegistry(root), FixtureRegistry(root)):
            assert registry.technology("7nm").epa_feol == 0.41
            registry.default_wiring("7nm")
            resolve_node("7nm", {}, registry, "technology")
            load_scenario(basic_document(), registry=registry)
        assert sum('"epa_feol": 0.41' in text for text in parsed) == 1

    def test_resolve_node_gives_an_override_with_the_fixture_wiring(self, registry):
        fixture = registry.technology("7nm"), registry.default_wiring("7nm")
        override = dataclasses.replace(fixture[0], defect_density_d0=0.42)
        tech, wiring = resolve_node("7nm", {"7nm": override}, registry, "technology")
        assert tech is override and wiring is fixture[1]
        assert resolve_node("7nm", {}, registry, "technology") == fixture
        for overrides in ({}, {"90nm": override}):  # an override has no wiring: the node needs its fixture
            with pytest.raises(UnknownNode) as exc:
                resolve_node("90nm", overrides, registry, "design.dies[1].technology")
            assert exc.value.path == "design.dies[1].technology"


def _fixture_copy(tmp_path) -> Path:
    root = tmp_path / "fixtures"
    shutil.copytree(params._BUNDLED_DIR, root)
    return root


def _edit_node(root: Path, node: str, **fields):
    path = root / "nodes" / f"{node}.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


class TestRoundTrip:
    @pytest.mark.parametrize("integration", [
        "mono_2d", "micro_3d", "hybrid_3d", "m3d", "mcm",
        "info_chip_first", "info_chip_last", "si_interposer",
    ])
    def test_serialize_reload_identical(self, integration, registry):
        doc = basic_document()
        if integration == "mono_2d":
            doc["design"].update(integration=integration, facing=None, stacking=None,
                                 dies=[{"technology": "7nm", "gate_count": 1e9}])
        elif integration == "m3d":
            doc["design"].update(integration=integration, facing="f2b", stacking=None)
        elif integration in ("micro_3d", "hybrid_3d"):
            doc["design"].update(integration=integration)
        else:
            doc["design"].update(integration=integration, facing=None, stacking=None)
        scenario = load_scenario(doc, registry)

        reloaded = load_scenario(design_to_document(scenario), registry)
        assert reloaded.design == scenario.design
        assert reloaded.profiles == scenario.profiles
        assert reloaded.environment == scenario.environment

    def test_round_trip_preserves_overrides(self, registry):
        doc = basic_document()
        doc["technology_overrides"] = {"7nm": {"gpa": 0.19}}
        doc["design"]["dies"][0]["explicit_beol"] = 5
        scenario = load_scenario(doc, registry)
        reloaded = load_scenario(design_to_document(scenario), registry)
        assert reloaded.design == scenario.design
        assert reloaded.technology_overrides["7nm"] == scenario.technology_overrides["7nm"]


class TestDeclaredRanges:
    # fields whose rule spans fields, checked by hand: t_exe_hours >= t_app_hours,
    # explicit_beol within the die node's max_beol_layers
    CROSS_FIELD = ("t_exe_hours", "explicit_beol")

    def test_every_numeric_field_declares_a_range(self):
        for cls, fields in params._FIELDS.items():
            for f in dataclasses.fields(cls):
                if f.name in fields:
                    assert ("range" in f.metadata) != (f.name in self.CROSS_FIELD), f"{cls.__name__}.{f.name}"

    def test_each_declared_survey_names_a_surveyed_range(self):
        for cls in params._FIELDS:
            for f in dataclasses.fields(cls):
                assert f.metadata.get("surveyed") in (None, *SURVEYED), f"{cls.__name__}.{f.name}"

    @pytest.mark.parametrize("rule, bounds", [
        ("(0, 1)", (5e-324, 1 - 2**-53, "must be in (0, 1)")),
        ("(0, 1]", (5e-324, 1.0, "must be in (0, 1]")),
        ("[0, 1]", (0.0, 1.0, "must be in [0, 1]")),
        ("> 0", (5e-324, math.inf, "must be > 0")),
        (">= 1", (1.0, math.inf, "must be >= 1")),
    ])
    def test_an_open_end_excludes_exactly_its_bound(self, rule, bounds):
        assert params._ranged(rule).metadata["bounds"] == (*bounds, None)

    def test_a_list_field_is_checked_entry_by_entry(self, registry):
        tech = registry.technology("7nm")
        bad = dataclasses.replace(tech, epa_beol_per_layer=tech.epa_beol_per_layer[:-1] + (-0.5,))
        with pytest.raises(OutOfRange, match=r"^t\.epa_beol_per_layer: entries must be >= 0$"):
            validate_profile(bad, "t")
        high = dataclasses.replace(tech, epa_beol_per_layer=tech.epa_beol_per_layer[:-1] + (2.0,))
        with pytest.warns(CarbonModelWarning, match=r"^t\.epa_beol_per_layer\[13\]=2 is outside"):
            validate_profile(high, "t")

    def test_a_hand_built_profile_is_checked_on_the_given_path(self, registry):
        with pytest.raises(OutOfRange, match=r"^env\.wafer_diameter_cm: must be > 0$"):
            validate_profile(dataclasses.replace(registry.environment(), wafer_diameter_cm=math.nan), "env")


class TestScenario:
    def test_load_scenario_from_file(self, tmp_path, registry):
        path = write_config(tmp_path, basic_document())
        scenario = load_scenario(path, registry, gamma=0.5)
        assert scenario.gamma == 0.5
        assert scenario.design.integration is Integration.HYBRID_3D

    def test_interposer_profile_defaults(self, registry):
        doc = basic_document(integration="si_interposer", facing=None, stacking=None)
        profiles = load_scenario(doc, registry).profiles
        assert profiles.interposer_technology.node_name == "28nm"
        assert profiles.interposer_beol_layers == 4

    @pytest.mark.parametrize("die", [0, 1])
    def test_bad_wiring_keeps_its_document_path(self, registry, die):
        doc = basic_document()
        doc["design"]["dies"][die]["wiring"] = {"rent_p": 1.5}
        with pytest.raises(OutOfRange) as exc:
            load_scenario(doc, registry)
        assert exc.value.path == f"design.dies[{die}].wiring.rent_p"

    def test_wiring_that_is_not_an_object(self, registry):
        doc = basic_document()
        doc["design"]["dies"][1]["wiring"] = [0.5]
        with pytest.raises(OutOfRange) as exc:
            load_scenario(doc, registry)
        assert exc.value.path == "design.dies[1].wiring"

    def test_validate_design_is_reusable(self):
        design = make_design()
        validate_design(design)
        bad = dataclasses.replace(design, dies=design.dies * 2)  # 4 dies but F2F
        with pytest.raises(InvalidCombination):
            validate_design(bad)

    def test_validate_design_bounds_the_die_count(self):
        die = make_design(Integration.MCM).dies[0]
        design = make_design(Integration.MCM)
        validate_design(dataclasses.replace(design, dies=(die,) * params.MAX_DIES))
        with pytest.raises(OutOfRange, match=r"^design\.dies: must be in \[1, 1000\]$"):
            validate_design(dataclasses.replace(design, dies=(die,) * (params.MAX_DIES + 1)))


class TestValidationTotality:
    """Every malformed document must yield a typed error, never a partial spec."""

    def _mutations(self):
        def mut(fn):
            doc = basic_document()
            fn(doc)
            return doc

        return [
            {},
            {"design": None, "usage": {}},
            mut(lambda d: d["design"].update(integration="origami")),
            mut(lambda d: d["design"].update(integration=5)),
            mut(lambda d: d["design"].update(dies=[])),
            mut(lambda d: d["design"].update(dies="two please")),
            mut(lambda d: d["design"]["dies"][0].update(gate_count=-1)),
            mut(lambda d: d["design"]["dies"][0].update(gate_count="many")),
            mut(lambda d: d["design"]["dies"][0].update(technology=None)),
            mut(lambda d: d["design"]["dies"][0].update(explicit_beol=0)),
            mut(lambda d: d["design"].update(stacking="glue")),
            mut(lambda d: d["design"].update(signal_count_f2f=-5)),
            mut(lambda d: d["design"].update(signal_count_f2f=2.5)),
            mut(lambda d: d["usage"].update(delay_s=-1)),
            mut(lambda d: d["usage"].update(t_app_hours="soon")),
            mut(lambda d: d["usage"].update(t_app_hours=0)),
            mut(lambda d: d.update(usage=[1, 2, 3])),
            mut(lambda d: d.update(environment={"wafer_diameter_cm": 0})),
            mut(lambda d: d["design"].update(bonding={"bond_yield": 1.5})),
            mut(lambda d: d["design"].update(packaging={"s_package_3d": 0.5})),
            mut(lambda d: d["design"].update(interposer={"beol_layers": 99})),
            mut(lambda d: d.update(technology_overrides={"7nm": {"lambda": 1e-7}})),
            mut(lambda d: d.update(technology_overrides={"7nm": {"feature_size_cm": -1}})),
            mut(lambda d: d.update(technology_overrides={"7nm": {"max_beol_layers": 99}})),
            mut(lambda d: d["design"]["dies"][0].update(wiring={"rent_p": 1.5})),
        ]

    def test_every_mutation_is_a_typed_error(self, registry):
        from carbon3d.errors import CarbonModelError

        for i, doc in enumerate(self._mutations()):
            with pytest.raises(CarbonModelError):
                load_scenario(doc, registry)


class TestSchemeRules:
    def test_every_integration_has_rules(self):
        for integ in Integration:
            rules = integ.rules
            assert rules.default_stacking in rules.stackings
            assert all(rules.default_facing(n) in rules.facings for n in (2, 3))

    def test_rules_is_the_members_table_row(self):
        for integ in Integration:
            assert integ.rules is params.SCHEME_RULES[integ]

    def test_defaults_agree_across_builders(self, registry):
        checked = 0
        for integ in Integration:
            for n in (1, 2, 3, 4):
                doc = basic_document(integration=integ.value, dies=[{"technology": "7nm", "gate_count": 1e9 / n}] * n)
                del doc["design"]["facing"], doc["design"]["stacking"]
                try:
                    loaded = load_scenario(doc, registry).design
                except ValidationError:
                    continue  # the scheme does not take n dies
                die = loaded.dies[0]
                built = build_design(integ, die.technology, die.wiring, n, 1e9)
                made = make_design(integ, n=n)
                assert (loaded.facing, loaded.stacking) == (built.facing, built.stacking), (integ, n)
                assert (loaded.facing, loaded.stacking) == (made.facing, made.stacking), (integ, n)
                # the early-design form splits a total as build_design does, also one that n does not divide
                for total in (1e9, 1e9 + 1, 2e10 / 3):
                    early = {"integration": integ.value, "gate_count_2d": total, "n_dies": n, "technology": "7nm"}
                    split = load_scenario({**doc, "design": early}, registry).design
                    assert split == build_design(integ, die.technology, die.wiring, n, total), (integ, n, total)
                checked += 1
        assert checked == 20
