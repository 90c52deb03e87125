"""Frozen CLI outputs and validation verdicts for behaviour-preserving refactors.

``tests/golden/cli.json`` holds stdout, stderr and the exit code of
``estimate``, ``sweep`` and ``switch`` on the committed ``configs/*.json``;
they must match byte for byte.  ``tests/golden/validate_design.json`` holds
``validate_design``'s verdict (accepted, or error type and path) for every
integration x facing x stacking x die-count combination.  ``tests/golden/embodied.json``
holds the ``repr`` of every ``embodied_breakdown`` component, or the error type
name, for each scheme x die count x stacking x node x gate count built with
``build_design`` on the bundled fixtures.

Re-freeze only for a change that is meant to alter these outputs, and say so:

    PYTHONPATH=src python tests/test_golden.py --freeze
"""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from carbon3d import (
    DesignSpec,
    DieSpec,
    Facing,
    FixtureRegistry,
    Integration,
    Stacking,
    UsageProfile,
    build_design,
    embodied_breakdown,
    load_scenario,
    stack_geometry,
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


def cli_cases() -> dict[str, list[str]]:
    cases = {}
    for name in CONFIGS:
        cases[f"estimate/{name}"] = ["estimate", "-c", name, "--format", "csv"]
        cases[f"estimate_breakdown/{name}"] = ["estimate", "-c", name, "--format", "csv", "--breakdown"]
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
    usage = UsageProfile(t_app_hours=8766.0, t_exe_hours=26298.0, power_density=25.0)
    return DesignSpec(integration=integ, facing=facing, stacking=stacking, dies=dies, usage=usage)


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
    profiles, env, usage = base.profiles, base.environment, base.design.usage
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
                                design = build_design(integ, tech, wiring, n, gates, usage, stacking=stacking)
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
                        }
    return cases


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(cli_cases()))
def test_cli_output_matches_golden(case):
    assert run_cli(cli_cases()[case]) == _load("cli.json")[case]


def test_golden_covers_every_cli_case():
    assert sorted(_load("cli.json")) == sorted(cli_cases())


def test_validate_design_matrix_matches_golden():
    frozen = _load("validate_design.json")
    got = {key: verdict(design) for key, design in validation_cases().items()}
    assert got == frozen


def test_embodied_grid_matches_golden():
    assert embodied_cases() == _load("embodied.json")


def freeze():
    GOLDEN.mkdir(exist_ok=True)
    cli = {case: run_cli(argv) for case, argv in cli_cases().items()}
    matrix = {key: verdict(design) for key, design in validation_cases().items()}
    embodied = embodied_cases()
    for name, data in (("cli.json", cli), ("validate_design.json", matrix), ("embodied.json", embodied)):
        (GOLDEN / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__" and "--freeze" in sys.argv:
    freeze()
