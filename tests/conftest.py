import dataclasses
import json

import pytest

from carbon3d import (
    BondingProfile,
    DesignSpec,
    DieSpec,
    FabEnvironment,
    FixtureRegistry,
    Integration,
    PackagingProfile,
    ProcessProfiles,
    Scenario,
    TechnologyProfile,
    UsageProfile,
    WiringParameters,
    YieldContext,
    stack_geometry,
    yield_context,
)


@pytest.fixture(scope="session")
def registry() -> FixtureRegistry:
    return FixtureRegistry.bundled()


def make_tech(**overrides) -> TechnologyProfile:
    fields = dict(
        node_name="test",
        feature_size_cm=7e-7,
        gate_area_scaling=700.0,
        epa_feol=0.42,
        epa_mol=0.17,
        epa_beol_per_layer=tuple([1.1] * 14),
        max_beol_layers=14,
        gpa=0.30,
        mpa=0.50,
        defect_density_d0=0.12,
        cluster_alpha=3.0,
        tsv_pitch_cm=8e-4,
        io_overhead_ratio=0.1,
    )
    fields.update(overrides)
    return TechnologyProfile(**fields)


def make_wiring(**overrides) -> WiringParameters:
    fields = dict(rent_k=4.0, rent_p=0.6, rent_alpha=1.0, fanout=3.0,
                  wire_pitch_cm=14e-7, utilization=0.85)
    fields.update(overrides)
    return WiringParameters(**fields)


def make_design(
    integration=Integration.HYBRID_3D,
    n=2,
    gate_count=1e9,
    tech=None,
    wiring=None,
    facing=None,
    stacking=None,
    signal_count_f2f=0,
    explicit_areas=None,
    explicit_beol=None,
) -> DesignSpec:
    tech = tech or make_tech()
    wiring = wiring or make_wiring()
    rules = integration.rules
    if rules.max_dies == 1:
        n = 1
    dies = []
    for i in range(n):
        dies.append(
            DieSpec(
                technology=tech,
                wiring=wiring,
                gate_count=None if explicit_areas else gate_count / n,
                explicit_area=explicit_areas[i] if explicit_areas else None,
                explicit_beol=explicit_beol,
            )
        )
    if facing is None:
        facing = rules.default_facing(n)
    if stacking is None:
        stacking = rules.default_stacking
    return DesignSpec(
        integration=integration,
        facing=facing,
        stacking=stacking,
        dies=tuple(dies),
        signal_count_f2f=signal_count_f2f,
    )


def make_profiles(**overrides) -> ProcessProfiles:
    bonding = BondingProfile(
        epa_d2w=1.83, epa_w2w=1.20, cpa_bonding=0.10, cpa_rdl=0.60,
        bond_yield=0.995, rdl_yield=0.85, interposer_yield=None,
    )
    packaging = PackagingProfile(cpa_packaging=0.10, s_package_3d=1.5,
                                 s_package_25d=1.3, s_substrate_25d=1.1)
    fields = dict(bonding=bonding, packaging=packaging,
                  interposer_technology=make_tech(node_name="interposer", defect_density_d0=0.05),
                  interposer_beol_layers=4)
    fields.update(overrides)
    return ProcessProfiles(**fields)


def stack_yields(integration, d0s, gate_counts=None, stacking=None, **bonding) -> YieldContext:
    """``yield_context`` of a design whose die i has defect density ``d0s[i]`` (0: yield 1)
    and ``gate_counts[i]`` gates (default 1e9), under ``make_profiles()`` with ``bonding`` replaced."""
    design = make_design(integration, n=len(d0s), stacking=stacking)
    design = dataclasses.replace(design, dies=tuple(
        dataclasses.replace(die, technology=make_tech(defect_density_d0=d0), gate_count=gates)
        for die, d0, gates in zip(design.dies, d0s, gate_counts or [1e9] * len(d0s))
    ))
    profiles = make_profiles()
    profiles = dataclasses.replace(profiles, bonding=dataclasses.replace(profiles.bonding, **bonding))
    return yield_context(design, stack_geometry(design, profiles.packaging), profiles)


def make_env(**overrides) -> FabEnvironment:
    fields = dict(ci_fab=0.365, ci_use=0.365, ci_bonding=0.365, wafer_diameter_cm=30.0)
    fields.update(overrides)
    return FabEnvironment(**fields)


def make_usage(**overrides) -> UsageProfile:
    fields = dict(t_app_hours=8766.0, t_exe_hours=26298.0, power_density=25.0)
    fields.update(overrides)
    return UsageProfile(**fields)


def make_scenario(design=None, gamma=1.0, usage=None, **design_kw) -> Scenario:
    return Scenario(
        design=design or make_design(**design_kw),
        profiles=make_profiles(),
        environment=make_env(),
        usage=usage or make_usage(),
        gamma=gamma,
    )


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def basic_document(**design_overrides):
    design = {
        "integration": "hybrid_3d",
        "facing": "f2f",
        "stacking": "d2w",
        "dies": [
            {"technology": "7nm", "gate_count": 5e8},
            {"technology": "7nm", "gate_count": 5e8},
        ],
    }
    design.update(design_overrides)
    return {
        "design": design,
        "usage": {"t_app_hours": 8766, "t_exe_hours": 26298, "power_density": 25.0, "delay_s": 1.0},
    }
