"""Analytical life-cycle carbon model for 2D/2.5D/3D integrated circuits."""

from .carbon import (
    CarbonBreakdown,
    bonding_wafer_carbon,
    dies_per_wafer,
    embodied_breakdown,
    evaluate,
    operational_energy_kwh,
    wafer_carbon,
)
from .explorer import (
    CrossingResult,
    SweepAxis,
    SweepRow,
    SwitchingPoint,
    build_design,
    crossing,
    find_crossing,
    gamma_pareto,
    mono2d_equivalent,
    sweep,
    switching_point,
)
from .geometry import (
    DieGeometry,
    StackGeometry,
    area_2d,
    average_wire_length,
    beol_layers,
    die_areas,
    gates_from_area,
    package_area,
    stack_geometry,
    substrate_area,
    tsv_count_f2b,
)
from .params import (
    BondingProfile,
    DesignSpec,
    DieSpec,
    FabEnvironment,
    Facing,
    FixtureRegistry,
    Integration,
    PackagingProfile,
    ProcessProfiles,
    Scenario,
    Stacking,
    TechnologyProfile,
    UsageProfile,
    WiringParameters,
    design_to_document,
    load_scenario,
)
from .yieldmodel import YieldContext, die_yield_negbin, yield_context

__version__ = "0.1.0"
