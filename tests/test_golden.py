"""Frozen CLI outputs and validation verdicts for behaviour-preserving refactors.

``tests/golden/cli.json`` holds stdout, stderr and the exit code of
``estimate`` (CSV, JSON and table), ``sweep``, ``switch`` and ``pareto`` on
the committed ``configs/*.json``;
they must match byte for byte.  ``tests/golden/validate_design.json`` holds
``validate_design``'s verdict (accepted, or error type and path) for every
integration x facing x stacking x die-count combination.  ``tests/golden/embodied.json``
holds the ``repr`` of every ``embodied_breakdown`` component and every
``YieldContext`` field, or the error type name, for each scheme x die count x stacking x node x gate count built with
``build_design`` on the bundled fixtures.  ``tests/golden/ranges.json`` holds
the output of ``estimate --format csv`` on ``configs/hybrid_2die_7nm.json``
with one field set outside its hard range (``hard/<path>``) or outside its
surveyed range (``surveyed/<path>``), for every ranged field a document can
set, through the document section that sets it.  ``tests/golden/switch.json``
holds the ``repr`` of each ``switching_point`` result, or the error type name,
and the distinct warning texts in order, on ``configs/hybrid_2die_7nm.json``
over (1e6, 1e10) for every scheme but ``mono_2d`` x node x die count the
scheme admits, D2W and W2W where the scheme offers both: it pins the
bisection paths of the switching-point search.

Re-freeze only for a change that is meant to alter these outputs, and say so:

    PYTHONPATH=src python tests/test_golden.py --freeze
"""

import contextlib
import io
import json
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from carbon3d import (
    DesignSpec,
    DieSpec,
    Facing,
    FixtureRegistry,
    Integration,
    Stacking,
    build_design,
    embodied_breakdown,
    load_scenario,
    stack_geometry,
    switching_point,
    yield_context,
)
from carbon3d.cli import main
from carbon3d.errors import CarbonModelError
from carbon3d.params import validate_design

from conftest import make_tech, make_wiring

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
DIE_COUNTS = (1, 2, 3, 4)
EMBODIED_NODES = ("28nm", "7nm", "3nm")
EMBODIED_GATES = (1e6, 3e8, 2e9, 4e10)
SWITCH_NODES = ("28nm", "7nm", "3nm")
SWITCH_DIES = (2, 4)


def cli_cases() -> dict[str, list[str]]:
    cases = {}
    for name in CONFIGS:
        cases[f"estimate/{name}"] = ["estimate", "-c", name, "--format", "csv"]
        cases[f"estimate_breakdown/{name}"] = ["estimate", "-c", name, "--format", "csv", "--breakdown"]
        cases[f"estimate_json/{name}"] = ["estimate", "-c", name, "--format", "json"]
        cases[f"estimate_table/{name}"] = ["estimate", "-c", name, "--format", "table", "--breakdown"]
        cases[f"pareto/{name}"] = ["pareto", "-c", name]
        cases[f"sweep_gates/{name}"] = [
            "sweep", "-c", name, "--baseline", "--axis", "dies[*].gate_count=1e8,1e9,4e9",
        ]
    cases["sweep_technology/hybrid_2die_7nm"] = [
        "sweep", "-c", "hybrid_2die_7nm", "--baseline",
        "--axis", "dies[*].gate_count=1e8,1e9,4e9", "--axis", "technology=14nm,7nm,5nm",
    ]
    for integ in Integration:
        if integ is not Integration.MONO_2D:
            cases[f"switch/{integ.value}"] = [
                "switch", "-c", "hybrid_2die_7nm", "--integration", integ.value,
                "--node", "7nm", "--dies", "2", "--range", "1e6:1e11",
            ]
    return cases


_EPA_BEOL = [1.1, 1.08, 1.06, 1.04, 1.02, 1.0, 0.98, 0.96, 0.94, 0.92, 0.9, 0.88, 0.86]  # 7nm's first 13

# (range, case) -> the document edits: (dotted path, value) pairs
RANGE_CASES = {
    **{("hard", f"technology_overrides.7nm.{f}"): v for f, v in {
        "feature_size_cm": 0, "gate_area_scaling": 0, "epa_feol": -0.1, "epa_mol": -0.1,
        "epa_beol_per_layer": _EPA_BEOL + [-0.5], "max_beol_layers": 0, "gpa": -0.1, "mpa": -0.1,
        "defect_density_d0": -0.1, "cluster_alpha": 0, "tsv_pitch_cm": 0, "io_overhead_ratio": 1.5,
    }.items()},
    **{("surveyed", f"technology_overrides.7nm.{f}"): v for f, v in {
        "epa_feol": 0.9, "epa_mol": 0.05, "epa_beol_per_layer": _EPA_BEOL + [2.0], "gpa": 0.6, "tsv_pitch_cm": 3e-4,
    }.items()},
    **{("hard", f"design.dies[0].wiring.{f}"): v for f, v in {
        "rent_k": 0, "rent_p": 1, "fanout": 0, "wire_pitch_cm": 0, "utilization": 1.5, "rent_alpha": 0,
    }.items()},
    **{("hard", f"design.bonding.{f}"): v for f, v in {
        "epa_d2w": -1, "epa_w2w": -1, "cpa_bonding": -1, "cpa_rdl": -1,
        "bond_yield": 1.5, "rdl_yield": 0, "interposer_yield": 1.5,
    }.items()},
    **{("surveyed", f"design.bonding.{f}"): v for f, v in {"epa_d2w": 3.0, "epa_w2w": 0.5}.items()},
    **{("hard", f"design.packaging.{f}"): v for f, v in {
        "cpa_packaging": -1, "s_package_3d": 0.5, "s_package_25d": 0.5, "s_substrate_25d": 0.5,
    }.items()},
    **{("hard", f"environment.{f}"): v for f, v in {
        "ci_fab": -0.1, "ci_use": -0.1, "ci_bonding": -0.1, "wafer_diameter_cm": 0,
    }.items()},
    **{("surveyed", f"environment.{f}"): v for f, v in {"ci_fab": 0.8, "ci_use": 0.01, "ci_bonding": 0.9}.items()},
    **{("hard", f"usage.{f}"): v for f, v in {
        "t_app_hours": 0, "t_exe_hours": 8000, "power_density": -1, "delay_s": 0,
    }.items()},
    ("hard", "usage.energy_override_kwh"): -1,
    ("surveyed", "usage.t_exe_hours"): 100000,
    **{("hard", f"design.dies[0].{f}"): v for f, v in {"gate_count": 0, "explicit_area": 0, "explicit_beol": 0}.items()},
    ("hard", "design.signal_count_f2f"): -1,
}


def range_edits(case: tuple[str, str]) -> list[tuple[str, object]]:
    _, path = case
    edits = [(path, RANGE_CASES[case])]
    if path == "usage.energy_override_kwh":  # one of power_density / energy_override_kwh
        edits.insert(0, ("usage.power_density", None))
    return edits


def run_range_case(case: tuple[str, str]) -> dict:
    doc = json.loads((ROOT / "configs" / "hybrid_2die_7nm.json").read_text(encoding="utf-8"))
    for path, value in range_edits(case):
        *parents, leaf = path.replace("[0]", ".0").split(".")
        node = doc
        for key in parents:
            node = node[int(key)] if key.isdigit() else node.setdefault(key, {})
        node[leaf] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["estimate", "-c", str(config), "--format", "csv"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_cli(argv: list[str]) -> dict:
    argv = list(argv)
    argv[2] = str(ROOT / "configs" / f"{argv[2]}.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _design(integ, facing, stacking, n, nodes=None) -> DesignSpec:
    nodes = nodes or ["test"] * n
    dies = tuple(
        DieSpec(technology=make_tech(node_name=node), wiring=make_wiring(), gate_count=1e9 / n)
        for node in nodes
    )
    return DesignSpec(integration=integ, facing=facing, stacking=stacking, dies=dies)


def validation_cases() -> dict[str, DesignSpec]:
    cases = {
        f"{integ.value}/{facing.value}/{stacking.value}/{n}": _design(integ, facing, stacking, n)
        for integ in Integration
        for facing in Facing
        for stacking in Stacking
        for n in DIE_COUNTS
    }
    cases["m3d_mixed_node"] = _design(Integration.M3D, Facing.F2B, Stacking.NA, 2, nodes=["7nm", "5nm"])
    return cases


def verdict(design: DesignSpec) -> str:
    try:
        validate_design(design)
    except CarbonModelError as exc:
        return f"{type(exc).__name__} {getattr(exc, 'path', '')}"
    return "ok"


def embodied_cases() -> dict[str, dict[str, str] | str]:
    base = load_scenario(ROOT / "configs" / "hybrid_2die_7nm.json")
    registry = FixtureRegistry.bundled()
    profiles, env = base.profiles, base.environment
    cases = {}
    for integ in Integration:
        for n in DIE_COUNTS:
            for stacking in (Stacking.D2W, Stacking.W2W):
                for node in EMBODIED_NODES:
                    tech, wiring = registry.technology(node), registry.default_wiring(node)
                    for gates in EMBODIED_GATES:
                        key = f"{integ.value}/{n}/{stacking.value}/{node}/{gates:g}"
                        try:
                            with warnings.catch_warnings():
                                warnings.simplefilter("ignore")
                                design = build_design(integ, tech, wiring, n, gates, stacking=stacking)
                                geom = stack_geometry(design, profiles.packaging)
                                yields = yield_context(design, geom, profiles)
                                b = embodied_breakdown(design, geom, yields, env, profiles)
                        except (CarbonModelError, ArithmeticError, ValueError) as exc:
                            cases[key] = type(exc).__name__
                            continue
                        cases[key] = {
                            "c_die_per_die": repr(b.c_die_per_die),
                            "c_bonding": repr(b.c_bonding),
                            "c_packaging": repr(b.c_packaging),
                            "c_substrate": repr(b.c_substrate),
                            **{f.name: repr(getattr(yields, f.name)) for f in fields(yields)},
                        }
    return cases


def switch_cases() -> dict[str, tuple]:
    cases = {}
    for integ in Integration:
        for node in SWITCH_NODES:
            for n in SWITCH_DIES:
                for stacking in integ.rules.stackings if len(integ.rules.stackings) > 1 else (Stacking.D2W,):
                    if integ is not Integration.MONO_2D and integ.rules.admits(n):
                        cases[f"{integ.value}/{node}/{n}/{stacking.value}"] = (integ, node, n, stacking)
    return cases


def run_switch_case(integ, node, n, stacking) -> dict:
    base = load_scenario(ROOT / "configs" / "hybrid_2die_7nm.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(switching_point(base, integ, node, n, 1e6, 1e10, stacking=stacking))
        except CarbonModelError as exc:
            result = type(exc).__name__
    return {"result": result, "warnings": list(dict.fromkeys(str(w.message) for w in caught))}


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(cli_cases()))
def test_cli_output_matches_golden(case):
    assert run_cli(cli_cases()[case]) == _load("cli.json")[case]


def test_golden_covers_every_cli_case():
    assert sorted(_load("cli.json")) == sorted(cli_cases())


@pytest.mark.parametrize("case", sorted(RANGE_CASES), ids="/".join)
def test_out_of_range_field_matches_golden(case):
    assert run_range_case(case) == _load("ranges.json")["/".join(case)]


def test_golden_covers_every_range_case():
    assert sorted(_load("ranges.json")) == sorted("/".join(case) for case in RANGE_CASES)


def test_validate_design_matrix_matches_golden():
    frozen = _load("validate_design.json")
    got = {key: verdict(design) for key, design in validation_cases().items()}
    assert got == frozen


def test_embodied_grid_matches_golden():
    assert embodied_cases() == _load("embodied.json")


@pytest.mark.parametrize("case", sorted(switch_cases()))
def test_switching_point_search_matches_golden(case):
    assert run_switch_case(*switch_cases()[case]) == _load("switch.json")[case]


def test_golden_covers_every_switch_case():
    assert sorted(_load("switch.json")) == sorted(switch_cases())


def freeze():
    GOLDEN.mkdir(exist_ok=True)
    cli = {case: run_cli(argv) for case, argv in cli_cases().items()}
    matrix = {key: verdict(design) for key, design in validation_cases().items()}
    embodied = embodied_cases()
    ranges = {"/".join(case): run_range_case(case) for case in RANGE_CASES}
    switch = {case: run_switch_case(*args) for case, args in switch_cases().items()}
    for name, data in (("cli.json", cli), ("validate_design.json", matrix), ("embodied.json", embodied),
                       ("ranges.json", ranges), ("switch.json", switch)):
        (GOLDEN / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__" and "--freeze" in sys.argv:
    freeze()
