"""Standalone and composed yields for every supported integration scheme.

Standalone die yields come from the negative binomial model; effective
yields fold in the bonding/substrate losses a die is exposed to before
the assembly can be sold:

  D2W 3D        dies are tested first, so every die additionally survives
                all N-1 bond steps
  W2W 3D        nothing can be tested before bonding; every term carries
                the full product of die and bond yields
  chip-first    dies are embedded before the RDL is built on top
  chip-last     dies (and the substrate) survive the N die-attach bonds
  MCM           bonding is part of packaging; die yields pass through
  M3D           sequential tiers count as a single die of combined area
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .params import DesignSpec, Integration, ProcessProfiles, Stacking, left_sum


@dataclass(frozen=True)
class YieldContext:
    """Standalone and effective die and bond yields, and the substrate yield."""

    standalone_die_y: tuple[float, ...]
    standalone_bond_y: tuple[float, ...]
    effective_die_y: tuple[float, ...]
    effective_bond_y: tuple[float, ...]
    substrate_y: float = 1.0


def die_yield_negbin(area: float, d0: float, alpha: float) -> float:
    """Negative binomial die yield: (1 + area*d0/alpha)^(-alpha).

    Evaluated as exp(-alpha*log1p(...)) so the Poisson limit alpha->inf
    is numerically clean.
    """
    return math.exp(-alpha * math.log1p(area * d0 / alpha))


def compose_3d(spec: DesignSpec, die_y: Sequence[float], bond_y: Sequence[float]) -> YieldContext:
    """Effective die/bond yields for stacked (micro/hybrid) 3D ICs."""
    n = len(spec.dies)
    bond_product = math.prod(bond_y)
    if spec.stacking is Stacking.W2W:
        combined = math.prod(die_y) * bond_product
        eff_die = (combined,) * n
        eff_bond = (combined,) * (n - 1)
    else:  # D2W: dies are known-good before bonding
        eff_die = tuple(y * bond_product for y in die_y)
        eff_bond = (bond_product,) * (n - 1)
    return YieldContext(
        standalone_die_y=tuple(die_y),
        standalone_bond_y=tuple(bond_y),
        effective_die_y=eff_die,
        effective_bond_y=eff_bond,
    )


def compose_25d(
    spec: DesignSpec,
    die_y: Sequence[float],
    bond_y: Sequence[float],
    substrate_y: float = 1.0,
) -> YieldContext:
    """Effective yields for mono-2D and MCM / InFO / silicon-interposer 2.5D ICs.

    Without die-attach bonds (2D, MCM, chip-first) dies carry the substrate
    yield (1.0: none); with one bond per die all parts survive every attach.
    """
    if not bond_y:
        eff_die = tuple(y * substrate_y for y in die_y)
        return YieldContext(tuple(die_y), (), eff_die, (), substrate_y=substrate_y)
    bond_product = math.prod(bond_y)
    return YieldContext(
        standalone_die_y=tuple(die_y),
        standalone_bond_y=tuple(bond_y),
        effective_die_y=tuple(y * bond_product for y in die_y),
        effective_bond_y=(bond_product,) * len(bond_y),
        substrate_y=substrate_y * bond_product,
    )


def yield_context(spec: DesignSpec, geometry, profiles: ProcessProfiles) -> YieldContext:
    """Standalone yields from die areas, composed per the integration scheme.

    ``geometry`` is the StackGeometry of the design (final, BEOL-adjusted
    areas).  The silicon-interposer standalone yield defaults to a
    negative-binomial evaluation on the interposer area under its own
    node's defect density unless the bonding profile overrides it.
    """
    integ = spec.integration
    bonding = profiles.bonding

    if integ is Integration.M3D:
        combined_area = left_sum(g.total_area for g in geometry.dies)
        tech = spec.dies[0].technology
        y = die_yield_negbin(combined_area, tech.defect_density_d0, tech.cluster_alpha)
        n = len(spec.dies)
        return YieldContext((y,) * n, (), (y,) * n, (), substrate_y=1.0)

    die_y = [
        die_yield_negbin(g.total_area, d.technology.defect_density_d0, d.technology.cluster_alpha)
        for d, g in zip(spec.dies, geometry.dies)
    ]
    rules = integ.rules
    bond_y = [bonding.bond_yield] * rules.bond_count(len(spec.dies))
    if rules.bonds == "n-1":
        return compose_3d(spec, die_y, bond_y)

    if rules.substrate == "rdl":
        sub_y = bonding.rdl_yield
    elif rules.substrate == "none":
        sub_y = 1.0
    elif bonding.interposer_yield is not None:
        sub_y = bonding.interposer_yield
    else:
        tech = profiles.interposer_technology
        sub_y = die_yield_negbin(geometry.substrate_area, tech.defect_density_d0, tech.cluster_alpha)
    return compose_25d(spec, die_y, bond_y, substrate_y=sub_y)
