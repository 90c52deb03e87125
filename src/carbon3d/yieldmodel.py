"""Standalone and effective yields for every supported integration scheme.

One rule composes them: a part's effective yield is its standalone yield
times the yield of every step it goes through untested.  Standalone die
yields come from the negative binomial model, each bond yields
``bond_yield``, and the substrate yields ``rdl_yield``, the given
``interposer_yield`` or the negative binomial yield of the interposer area.
What each part goes through untested ("-": the scheme has no such part):

  scheme       dies                        bonds                       substrate
  D2W 3D       the N-1 bonds               the other bonds             -
  W2W 3D       the other dies, every bond  every die, the other bonds  -
  chip-first   the RDL built over them     -                           nothing
  chip-last    the N die attaches          the other attaches          the N die attaches
  interposer   the N die attaches          the other attaches          the N die attaches
  MCM, 2D      nothing                     -                           -
  M3D          nothing                     -                           -

M3D tiers share one wafer, so each tier's standalone yield is that of
their combined area under tier 0's node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import DesignSpec, Integration, ProcessProfiles, Stacking, left_sum


@dataclass(frozen=True)
class YieldContext:
    """Standalone and effective die and bond yields, and the substrate yield."""

    standalone_die_y: tuple[float, ...]
    standalone_bond_y: tuple[float, ...]
    effective_die_y: tuple[float, ...]
    effective_bond_y: tuple[float, ...]
    substrate_y: float


def die_yield_negbin(area: float, d0: float, alpha: float) -> float:
    """Negative binomial die yield: (1 + area*d0/alpha)^(-alpha).

    Evaluated as exp(-alpha*log1p(...)) so the Poisson limit alpha->inf
    is numerically clean.
    """
    return math.exp(-alpha * math.log1p(area * d0 / alpha))


def yield_context(spec: DesignSpec, geometry, profiles: ProcessProfiles) -> YieldContext:
    """Standalone yields from the final die areas of ``geometry`` (the design's
    StackGeometry), each composed with the steps its part goes through untested."""
    rules = spec.integration.rules
    bonding = profiles.bonding
    if spec.integration is Integration.M3D:
        tech = spec.dies[0].technology
        combined_area = left_sum(g.total_area for g in geometry.dies)
        die_y = (die_yield_negbin(combined_area, tech.defect_density_d0, tech.cluster_alpha),) * len(spec.dies)
    else:
        ys, prev_g, prev_tech = [], None, None  # prev_*: the geometry and technology of the last yield computed
        for d, g in zip(spec.dies, geometry.dies):
            if g is not prev_g or d.technology is not prev_tech:
                prev_g, prev_tech = g, d.technology
                y = die_yield_negbin(g.total_area, prev_tech.defect_density_d0, prev_tech.cluster_alpha)
            ys.append(y)  # else the previous die's own geometry and technology objects: its yield
        die_y = tuple(ys)
    bond_y = (bonding.bond_yield,) * rules.bond_count(len(spec.dies))

    if rules.substrate == "rdl":
        substrate_y = bonding.rdl_yield
    elif rules.substrate == "none":
        substrate_y = 1.0
    elif bonding.interposer_yield is not None:
        substrate_y = bonding.interposer_yield
    else:
        tech = profiles.interposer_technology
        substrate_y = die_yield_negbin(geometry.substrate_area, tech.defect_density_d0, tech.cluster_alpha)

    bond_product = math.prod(bond_y)
    if spec.stacking is Stacking.W2W:  # nothing is tested before bonding
        eff_bond = math.prod(die_y) * bond_product
        eff_die = (eff_bond,) * len(die_y)
    else:
        eff_bond = bond_product
        exposure = bond_product if bond_y else substrate_y  # without bonds: the substrate built over the dies
        eff_die = tuple([y * exposure for y in die_y])
    if rules.bonds == "n":  # the dies are attached to the substrate
        substrate_y = substrate_y * bond_product
    return YieldContext(die_y, bond_y, eff_die, (eff_bond,) * len(bond_y), substrate_y)
