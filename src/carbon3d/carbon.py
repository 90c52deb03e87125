"""Embodied/operational carbon accounting and the CDP/CEP/tCDP metrics.

Accounting structure (kg CO2e per packaged device unless a unit is given):

  die        sum_i  wafer_carbon_i / DPW_i / Y_die_i
  bonding    3D:    sum of per-interface bond-wafer shares / Y_bond
             InFO:  chip-last RDL bonding per area (chip-first has none)
             Si:    interposer D2W bond wafer share, once per die attach
  packaging  CPA_packaging * package area
  substrate  InFO RDL build-up per area, or the interposer's own die cost
  overall    die + bonding + packaging + substrate
  amortized  overall * t_app / t_exe
  total      operational + gamma * amortized
  cdp        overall * delay, in kg*s (CDP and CEP as in ACT, Gupta et al., ISCA 2022)
  cep        overall * operational energy, in kg*kWh
  tcdp       total * delay, in kg*s

Every part cut from a wafer (a logic die, an M3D tier, a 3D bond layer,
the silicon interposer) is charged by one rule: the carbon of its wafer
divided by the dies per wafer at the part's area, then by the part's
yield.  Only the per-wafer carbon differs from part to part.  Within one
call, a part whose inputs are the previous part's own objects (``is``, not
``==``) takes that part's result: a split design's equal dies cost one die.

M3D is the one integration without a per-die wafer pass: both sequential
tiers share a single wafer, so fab energy for FEOL+MOL is charged per
tier, the BEOL stack and the per-wafer gas/material footprints are
charged once (with tier 0), and there is no bonding term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import (
    CardinalityMismatch,
    CarbonModelWarning,
    DieLargerThanWafer,
    LayerCountExceedsProfile,
    NonPositiveArea,
    UnsupportedConfiguration,
    _OUT_OF_RANGE,
)
from .geometry import StackGeometry, stack_geometry
from .params import (
    BondingProfile,
    DesignSpec,
    FabEnvironment,
    Integration,
    ProcessProfiles,
    Scenario,
    Stacking,
    TechnologyProfile,
    UsageProfile,
    left_sum,
)
from .yieldmodel import YieldContext, yield_context


@dataclass(frozen=True)
class CarbonBreakdown:
    """Embodied carbon by component and, from evaluate, operational carbon and the metrics."""

    c_die_per_die: tuple[float, ...]
    c_bonding: float
    c_packaging: float
    c_substrate: float
    c_operational: float = 0.0
    c_embodied_amortized: float = 0.0
    c_total: float = 0.0
    operational_energy_kwh: float = 0.0
    cdp: float = 0.0
    cep: float = 0.0
    tcdp: float = 0.0

    @property
    def c_die(self) -> float:
        return left_sum(self.c_die_per_die)

    @property
    def c_embodied_overall(self) -> float:
        return self.c_die + self.c_bonding + self.c_packaging + self.c_substrate


def dies_per_wafer(wafer_diameter: float, die_area: float) -> int:
    """Gross die-per-wafer: pi*(d/2)^2/A - pi*d/sqrt(2A), floored.

    Clamps to 1 (with a warning) when the edge-loss term dominates a die
    that still fits on the wafer.  A die so small that the count overflows
    a float raises UnsupportedConfiguration.
    """
    if die_area <= 0:
        raise NonPositiveArea(f"die area must be > 0, got {die_area}")
    wafer_area = math.pi * (wafer_diameter / 2.0) ** 2
    if die_area >= wafer_area:
        raise DieLargerThanWafer(
            f"die of {die_area:g} cm^2 cannot be cut from a {wafer_area:g} cm^2 wafer"
        )
    raw = wafer_area / die_area - math.pi * wafer_diameter / math.sqrt(2.0 * die_area)
    if math.isinf(raw):  # wafer_area / die_area overflowed
        raise UnsupportedConfiguration(f"{_OUT_OF_RANGE}a {die_area:g} cm^2 die gives more dies per wafer "
                                       "than a float holds")
    count = math.floor(raw)
    while count * die_area > wafer_area:  # below about 1e-30 cm^2 the edge term is lost in raw's rounding
        count = math.floor(math.nextafter(count, 0))
    if count < 1:
        warnings.warn(
            f"die-per-wafer formula gave {raw:.2f} for a {die_area:g} cm^2 die; clamping to 1",
            CarbonModelWarning,
            stacklevel=2,
        )
        return 1
    return count


def wafer_carbon(tech: TechnologyProfile, beol_layers: int, env: FabEnvironment) -> float:
    """Per-wafer fab carbon in kg CO2: (CI_fab*EPA + GPA + MPA) * wafer area.

    EPA sums FEOL, MOL and the first ``beol_layers`` per-layer BEOL energies.
    """
    if beol_layers > tech.max_beol_layers:
        raise LayerCountExceedsProfile(
            f"{beol_layers} BEOL layers exceeds {tech.node_name}'s max of {tech.max_beol_layers}"
        )
    epa = tech.epa_feol + tech.epa_mol + left_sum(tech.epa_beol_per_layer[:beol_layers])
    return (env.ci_fab * epa + tech.gpa + tech.mpa) * env.wafer_area


def bonding_wafer_carbon(stacking: Stacking, bonding: BondingProfile, env: FabEnvironment) -> float:
    """Per-wafer bonding carbon: CI_bonding * EPA_{D2W|W2W} * wafer area."""
    epa = bonding.epa_w2w if stacking is Stacking.W2W else bonding.epa_d2w
    return env.ci_bonding * epa * env.wafer_area


def _share(per_wafer: float, area: float, env: FabEnvironment) -> float:
    # one part's share of its wafer's carbon, before yield
    return per_wafer / dies_per_wafer(env.wafer_diameter_cm, area)


def embodied_breakdown(
    spec: DesignSpec,
    geom: StackGeometry,
    yields: YieldContext,
    env: FabEnvironment,
    profiles: ProcessProfiles,
) -> CarbonBreakdown:
    """Embodied carbon decomposition for one packaged device."""
    n = len(spec.dies)
    if len(geom.dies) != n or len(yields.effective_die_y) != n:
        raise CardinalityMismatch("design, geometry and yields disagree on the die count")
    rules = spec.integration.rules
    bonding = profiles.bonding

    m3d = spec.integration is Integration.M3D
    tech0 = spec.dies[0].technology
    c_die = []
    prev_g = prev_tech = prev_y = None  # the geometry, technology and yield of the last die carbon computed
    for i, (die, g, y) in enumerate(zip(spec.dies, geom.dies, yields.effective_die_y)):
        if m3d and i > 0:  # a later tier on tier 0's wafer: its FEOL+MOL pass only
            c = _share(env.ci_fab * (tech0.epa_feol + tech0.epa_mol) * env.wafer_area, g.total_area, env) / y
        elif g is not prev_g or die.technology is not prev_tech or y != prev_y:
            prev_g, prev_tech, prev_y = g, die.technology, y
            c = _share(wafer_carbon(prev_tech, g.beol_layers, env), g.total_area, env) / y
        c_die.append(c)  # else the previous die's own geometry and node at an equal yield: its carbon

    c_bond = c_sub = 0.0
    if rules.bonds == "n-1":
        per_wafer = bonding_wafer_carbon(spec.stacking, bonding, env)
        for i in range(n - 1):
            # interface i binds die i and i+1; charged at die i+1's wafer share, which it keeps
            # from interface i-1 when die i+1 is die i's own geometry object
            if not (i and geom.dies[i + 1] is geom.dies[i]):
                share = _share(per_wafer, geom.dies[i + 1].total_area, env)
            c_bond += share / yields.effective_bond_y[i]
    elif rules.bonds == "n" and rules.substrate == "rdl":  # chip-last InFO
        c_bond = bonding.cpa_bonding * geom.substrate_area / yields.effective_bond_y[0]
    elif rules.bonds == "n":  # one D2W micro-bump attach per die onto the silicon interposer
        per_wafer = bonding_wafer_carbon(Stacking.D2W, bonding, env)
        c_bond = _share(per_wafer, geom.substrate_area, env) * left_sum(1.0 / y for y in yields.effective_bond_y)

    if rules.substrate == "rdl":
        c_sub = bonding.cpa_rdl * geom.substrate_area / yields.substrate_y
    elif rules.substrate == "interposer":
        per_wafer = wafer_carbon(profiles.interposer_technology, profiles.interposer_beol_layers, env)
        c_sub = _share(per_wafer, geom.substrate_area, env) / yields.substrate_y

    c_pack = profiles.packaging.cpa_packaging * geom.package_area
    return CarbonBreakdown(
        c_die_per_die=tuple(c_die),
        c_bonding=c_bond,
        c_packaging=c_pack,
        c_substrate=c_sub,
    )


def operational_energy_kwh(usage: UsageProfile, active_area: float) -> float:
    """Lifetime-application energy: override, or density*area*t_app / 1000."""
    if usage.energy_override_kwh is not None:
        return usage.energy_override_kwh
    return usage.power_density * active_area * usage.t_app_hours / 1000.0


class _EmbodiedChain:
    """The embodied chain, geometry -> yields -> embodied carbon, reused stage by stage.

    It keeps its last inputs and results.  Geometry and yields are computed
    again only when the design or the process profiles are other objects;
    embodied carbon also when the fab environment is another object.  Every
    input is a frozen dataclass and held here, so a hit gives exactly the
    floats a fresh computation would (a reused stage does not raise its
    warnings again).  Within a call, each stage computes equal dies that are
    one object once, by the module docstring's rule.  Inputs outside the
    model's numeric range, including a non-finite overall embodied carbon,
    raise UnsupportedConfiguration.
    """

    _design: DesignSpec | None = None
    _profiles: ProcessProfiles | None = None
    _env: FabEnvironment | None = None

    def __call__(
        self, design: DesignSpec, profiles: ProcessProfiles, env: FabEnvironment
    ) -> tuple[StackGeometry, CarbonBreakdown]:
        try:
            if design is not self._design or profiles is not self._profiles:
                geom = stack_geometry(design, profiles.packaging)
                yields = yield_context(design, geom, profiles)
                self._design, self._profiles, self._env = design, profiles, None
                self._geometry, self._yields = geom, yields
            if env is not self._env:
                embodied = embodied_breakdown(design, self._geometry, self._yields, env, profiles)
                if not math.isfinite(embodied.c_embodied_overall):
                    raise UnsupportedConfiguration(_OUT_OF_RANGE + "a result is not finite")
                self._embodied, self._env = embodied, env
        except (ArithmeticError, ValueError) as exc:  # overflow, x/0 or int(nan) on extreme finite inputs
            raise UnsupportedConfiguration(f"{_OUT_OF_RANGE}{exc}") from exc
        return self._geometry, self._embodied


def evaluate(scenario: Scenario, *, _chain: _EmbodiedChain | None = None) -> CarbonBreakdown:
    """Full pipeline: geometry -> yields -> embodied -> operational -> metrics.

    Amortized embodied carbon is the t_app/t_exe share of the overall
    embodied carbon; the total is operational + gamma * amortized, and
    the metrics are those of the module docstring.
    ``_chain`` lets the sweep and Pareto drivers reuse the embodied chain
    of the previous scenario they evaluated.
    """
    usage = scenario.usage
    geom, embodied = (_chain or _EmbodiedChain())(scenario.design, scenario.profiles, scenario.environment)
    energy = operational_energy_kwh(usage, geom.equivalent_2d_area)
    c_operational = scenario.environment.ci_use * energy
    overall = embodied.c_embodied_overall
    amortized = overall * usage.t_app_hours / usage.t_exe_hours
    c_total = c_operational + scenario.gamma * amortized
    cdp, cep, tcdp = overall * usage.delay_s, overall * energy, c_total * usage.delay_s
    # finite inputs can still overflow; c_total and the metrics cover every reported value
    if not all(map(math.isfinite, (c_total, cdp, cep, tcdp))):
        raise UnsupportedConfiguration(_OUT_OF_RANGE + "a result is not finite")
    return CarbonBreakdown(
        c_die_per_die=embodied.c_die_per_die,
        c_bonding=embodied.c_bonding,
        c_packaging=embodied.c_packaging,
        c_substrate=embodied.c_substrate,
        c_operational=c_operational,
        c_embodied_amortized=amortized,
        c_total=c_total,
        operational_energy_kwh=energy,
        cdp=cdp,
        cep=cep,
        tcdp=tcdp,
    )
