"""Die, package and substrate geometry prediction from gate counts.

The area chain works in three steps applied per die:

1. gate area: explicit_area if given, else gate_count * beta * lambda^2
   (for M3D, each of the two sequential tiers takes half the equivalent
   2D area instead);
2. integration overheads: TSV blocks sized from the signal count (F2F)
   or a Rent's-rule estimate of inter-die connections (F2B), plus an IO
   driver strip for micro-bump and 2.5D dies;
3. BEOL layer count from the average-wire-length estimate; when the
   estimate exceeds the node's layer cap the die area is grown until the
   wiring fits in exactly max_beol_layers.

All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import NonPositiveArea, UnsupportedConfiguration, _OUT_OF_RANGE
from .params import (
    DesignSpec,
    DieSpec,
    Facing,
    Integration,
    PackagingProfile,
    TechnologyProfile,
    WiringParameters,
    left_sum,
)

# Relative slack for integer ceilings so that a value computed to be an
# exact integer does not round up on the last ulp.
_CEIL_EPS = 1e-12


def _ceil_count(raw: float) -> int:
    if not math.isfinite(raw):  # no integer holds it, as for a die area so small that the BEOL estimate overflows
        raise UnsupportedConfiguration(_OUT_OF_RANGE + "a count is not finite")
    return math.ceil(raw * (1.0 - _CEIL_EPS))


@dataclass(frozen=True)
class DieGeometry:
    """One sized die (areas after any BEOL growth); total_area is exactly the component sum."""

    gate_area: float
    tsv_area: float
    io_area: float
    beol_layers: int
    tsv_count: int

    @property
    def total_area(self) -> float:
        return self.gate_area + self.tsv_area + self.io_area


@dataclass(frozen=True)
class StackGeometry:
    """Per-die geometry plus the package, substrate and 2D-equivalent areas."""

    dies: tuple[DieGeometry, ...]
    package_area: float
    substrate_area: float       # 0 unless InFO / silicon interposer
    equivalent_2d_area: float   # sum of gate areas (active logic footprint)


def area_2d(gate_count: float, tech: TechnologyProfile) -> float:
    """2D die area in cm^2: gate_count * beta * lambda^2."""
    return gate_count * tech.gate_area_scaling * tech.feature_size_cm**2


def gates_from_area(area: float, tech: TechnologyProfile) -> float:
    return area / (tech.gate_area_scaling * tech.feature_size_cm**2)


def rent_terminals(gate_count: float, wiring: WiringParameters) -> float:
    """External connections of a block per Rent's rule: a*k*N*(1 - N^(p-1))."""
    return wiring.rent_alpha * wiring.rent_k * gate_count * (1.0 - gate_count ** (wiring.rent_p - 1.0))


def tsv_count_f2b(ng_i: float, ng_j: float, wiring: WiringParameters) -> int:
    """Inter-die connection TSVs between two adjacent F2B dies.

    Rent's-rule estimate: terminals of the merged block minus the
    terminals each die would expose alone.  Degenerate blocks (<= 1 gate,
    where Rent statistics are meaningless) and negative intermediate
    values clamp to zero; the result rounds up.
    """
    if ng_i <= 1 or ng_j <= 1:
        return 0
    raw = (
        rent_terminals(ng_i + ng_j, wiring)
        - rent_terminals(ng_i, wiring)
        - rent_terminals(ng_j, wiring)
    )
    if raw <= 0:
        return 0
    return _ceil_count(raw)


def average_wire_length(rent_p: float, gate_count: float) -> float:
    """Average interconnect length in gate pitches (Rent-based estimate).

    L = 2/9 * (1-4^(p-1))/(1-N^(p-1))
        * ( (7*N^(p-0.5)-1)/(4^(p-0.5)-1) - (1-N^(p-1.5))/(1-4^(p-1.5)) )

    Singular at p = 1 and meaningless below 2 gates; returns 0 for N <= 1.
    """
    p, n = rent_p, gate_count
    if n <= 1.0:
        return 0.0
    scale = (1.0 - 4.0 ** (p - 1.0)) / (1.0 - n ** (p - 1.0))
    term1 = (7.0 * n ** (p - 0.5) - 1.0) / (4.0 ** (p - 0.5) - 1.0)
    term2 = (1.0 - n ** (p - 1.5)) / (1.0 - 4.0 ** (p - 1.5))
    return (2.0 / 9.0) * scale * (term1 - term2)


def _die_gate_count(die: DieSpec, area: float) -> float:
    if die.gate_count is not None:
        return die.gate_count
    return gates_from_area(area, die.technology)


def beol_layers(die: DieSpec, area: float) -> tuple[int, float]:
    """Estimate the BEOL layer count for a die of the given area.

    Returns (layers, area): the wiring demand is fanout * Ng * Labs * omega
    with Labs the average wire length converted to cm via the gate pitch
    sqrt(beta)*lambda; layers = ceil(demand / (eta * area)).  If that
    exceeds the node's max_beol_layers, the area is grown to the smallest
    value that fits the cap and (max_layers, grown_area) is returned.
    An explicit_beol override bypasses the estimate entirely.
    """
    if area <= 0:
        raise NonPositiveArea(f"die area must be > 0, got {area}")
    if die.explicit_beol is not None:
        return die.explicit_beol, area
    tech, wiring = die.technology, die.wiring
    ng = _die_gate_count(die, area)
    gate_pitch = math.sqrt(tech.gate_area_scaling) * tech.feature_size_cm
    l_abs = average_wire_length(wiring.rent_p, ng) * gate_pitch
    demand = wiring.fanout * ng * l_abs * wiring.wire_pitch_cm   # cm^2 of wiring
    raw = demand / (wiring.utilization * area)
    layers = max(1, _ceil_count(raw))
    if layers > tech.max_beol_layers:
        adjusted = demand / (wiring.utilization * tech.max_beol_layers)
        return tech.max_beol_layers, adjusted
    return layers, area


def _base_gate_areas(dies: Sequence[DieSpec]) -> list[float]:
    # each die's gate area before overheads: its explicit_area, else its 2D area
    return [d.explicit_area if d.explicit_area is not None else area_2d(d.gate_count, d.technology) for d in dies]


def _sized_die(die: DieSpec, gate: float, tsv_count: int, tsv_area: float, io_area: float) -> DieGeometry:
    # set the BEOL count on the overhead-inclusive area; grow the gate region
    # where the wiring only fits in the node's max_beol_layers
    total = gate + tsv_area + io_area
    layers, adjusted = beol_layers(die, total)
    if adjusted > total:
        gate = adjusted - tsv_area - io_area
    return DieGeometry(gate_area=gate, tsv_area=tsv_area, io_area=io_area, beol_layers=layers, tsv_count=tsv_count)


def die_areas(spec: DesignSpec) -> list[DieGeometry]:
    """Per-die areas and BEOL layer counts: steps 1-3 of the module docstring.

    Overheads by integration (``SchemeRules.io_strip`` and ``tsvs``):
      micro 3D F2F:  IO strip on both dies; signal TSVs in the bottom die
      micro 3D F2B:  IO strip everywhere; Rent TSVs in dies 1..N-1
      hybrid 3D:     same TSV rules, no IO strip
      M3D:           two tiers of half the equivalent 2D area, no overhead
      2.5D flavors:  IO strip for inter-chiplet links, no TSVs
      mono 2D:       bare gate area

    A die that is the previous die's own ``DieSpec`` object (``is``, not ``==``)
    at an equal TSV count, which fixes its areas, takes that die's ``DieGeometry``.
    """
    bases = _base_gate_areas(spec.dies)
    n = len(spec.dies)
    if spec.integration is Integration.M3D:
        if n != 2:
            raise UnsupportedConfiguration(f"m3d supports exactly 2 tiers, got {n}")
        a_2d = left_sum(bases)
        bases = [die.explicit_area if die.explicit_area is not None else a_2d / 2.0 for die in spec.dies]

    rules, f2f = spec.integration.rules, spec.facing is Facing.F2F
    geoms: list[DieGeometry] = []
    prev_die = None  # the die of g, the last geometry computed
    for i, die in enumerate(spec.dies):
        tsv_count, tsv_area = 0, 0.0
        if rules.tsvs and (i == n - 1 if f2f else i < n - 1):
            if f2f:  # the bottom die carries the package-bound signal TSVs
                tsv_count = spec.signal_count_f2f
            elif die is prev_die and spec.dies[i + 1] is die:  # interface i-1's own dies: its count
                tsv_count = g.tsv_count
            else:  # F2B: dies 1..N-1 carry the inter-die TSVs of interface i
                ng_j = _die_gate_count(spec.dies[i + 1], bases[i + 1])
                tsv_count = tsv_count_f2b(_die_gate_count(die, bases[i]), ng_j, die.wiring)
            tsv_area = tsv_count * die.technology.tsv_pitch_cm**2
        if die is not prev_die or tsv_count != g.tsv_count:
            prev_die, io_area = die, die.technology.io_overhead_ratio * bases[i] if rules.io_strip else 0.0
            g = _sized_die(die, bases[i], tsv_count, tsv_area, io_area)
        geoms.append(g)  # else the previous die's sizing: the same expressions on the same inputs
    return geoms


def package_area(spec: DesignSpec, die_geoms: Sequence[DieGeometry], packaging: PackagingProfile) -> float:
    """Package area: 3D scales the largest stacked die, 2.5D/2D the total."""
    areas = [g.total_area for g in die_geoms]
    if spec.integration.rules.package == "max":
        return packaging.s_package_3d * max(areas)
    return packaging.s_package_25d * left_sum(areas)


def substrate_area(spec: DesignSpec, die_geoms: Sequence[DieGeometry], packaging: PackagingProfile) -> float:
    """Unifying-substrate area (RDL or interposer); 0 when not applicable."""
    if spec.integration.rules.substrate != "none":
        return packaging.s_substrate_25d * left_sum(g.total_area for g in die_geoms)
    return 0.0


def stack_geometry(spec: DesignSpec, packaging: PackagingProfile) -> StackGeometry:
    """Full geometry pipeline: the sized dies plus package, substrate and 2D-equivalent areas."""
    dies = die_areas(spec)
    return StackGeometry(
        dies=tuple(dies),
        package_area=package_area(spec, dies, packaging),
        substrate_area=substrate_area(spec, dies, packaging),
        equivalent_2d_area=left_sum(g.gate_area for g in dies),
    )
