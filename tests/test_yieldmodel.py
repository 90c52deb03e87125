import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from carbon3d import (
    Integration,
    Stacking,
    die_yield_negbin,
    stack_geometry,
    yield_context,
)

from conftest import make_design, make_profiles, stack_yields


class TestNegbin:
    def test_reference_point(self):
        # (1 + 0.1/3)^-3, frozen via tools/rederive_oracles.py
        assert die_yield_negbin(1.0, 0.1, 3.0) == pytest.approx(0.9063140, abs=5e-5)

    def test_defect_free(self):
        assert die_yield_negbin(1.0, 0.0, 3.0) == 1.0

    def test_zero_area(self):
        assert die_yield_negbin(0.0, 0.1, 3.0) == 1.0

    def test_poisson_limit(self):
        for ad in (0.05, 0.3, 1.0):
            assert die_yield_negbin(1.0, ad, 1e6) == pytest.approx(math.exp(-ad), abs=1e-4)

    @given(
        area=st.floats(min_value=0, max_value=20),
        d0=st.floats(min_value=0, max_value=1),
        alpha=st.floats(min_value=0.1, max_value=100),
    )
    def test_bounds(self, area, d0, alpha):
        y = die_yield_negbin(area, d0, alpha)
        assert 0.0 < y <= 1.0

    def test_monotonicity_in_alpha(self):
        # clustering helps: (1+x/a)^-a falls toward the Poisson limit as a grows
        ys = [die_yield_negbin(1.0, 0.2, a) for a in (0.5, 1, 3, 10, 100)]
        assert ys == sorted(ys, reverse=True)
        assert ys[-1] > math.exp(-0.2)

    def test_monotonicity_in_area_and_d0(self):
        ys = [die_yield_negbin(a, 0.2, 3.0) for a in (0.1, 0.5, 1, 2, 5)]
        assert ys == sorted(ys, reverse=True)
        ys = [die_yield_negbin(1.0, d, 3.0) for d in (0.01, 0.05, 0.2, 0.5)]
        assert ys == sorted(ys, reverse=True)


class TestCompose3d:
    def test_d2w_reference(self):
        ctx = stack_yields(Integration.HYBRID_3D, [0.12, 0.3], stacking=Stacking.D2W, bond_yield=0.95)
        y0, y1 = ctx.standalone_die_y
        assert 0.5 < y1 < y0 < 1.0
        assert ctx.effective_die_y == (y0 * 0.95, y1 * 0.95)
        assert ctx.effective_bond_y == (0.95,)

    def test_w2w_reference(self):
        ctx = stack_yields(Integration.HYBRID_3D, [0.12, 0.3], stacking=Stacking.W2W, bond_yield=0.95)
        y0, y1 = ctx.standalone_die_y
        assert ctx.effective_die_y == (y0 * y1 * 0.95,) * 2
        assert ctx.effective_bond_y == (y0 * y1 * 0.95,)

    def test_perfect_yield_fixed_point(self):
        for stacking in (Stacking.D2W, Stacking.W2W):
            ctx = stack_yields(Integration.HYBRID_3D, [0.0, 0.0], stacking=stacking, bond_yield=1.0)
            assert all(y == 1.0 for y in ctx.effective_die_y + ctx.effective_bond_y)

    def test_w2w_never_beats_d2w(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(2, 5)
            d0s = [rng.uniform(0.0, 0.5) for _ in range(n)]
            gates = [rng.uniform(1e8, 4e9) for _ in range(n)]
            bond_yield = rng.uniform(0.8, 1.0)
            d2w = stack_yields(Integration.HYBRID_3D, d0s, gates, Stacking.D2W, bond_yield=bond_yield)
            w2w = stack_yields(Integration.HYBRID_3D, d0s, gates, Stacking.W2W, bond_yield=bond_yield)
            assert w2w.standalone_die_y == d2w.standalone_die_y
            for yw, yd in zip(w2w.effective_die_y, d2w.effective_die_y):
                assert yw <= yd * (1 + 1e-15)

    def test_effective_never_exceeds_standalone(self):
        ctx = stack_yields(Integration.HYBRID_3D, [0.1, 0.2, 0.3], [1e9, 2e9, 3e9], bond_yield=0.97)
        assert ctx.standalone_bond_y == (0.97, 0.97)
        for eff, alone in zip(ctx.effective_die_y, ctx.standalone_die_y):
            assert eff <= alone


class TestCompose25d:
    def test_chip_first_reference(self):
        ctx = stack_yields(Integration.INFO_CHIP_FIRST, [0.12, 0.12], rdl_yield=0.98)
        y = ctx.standalone_die_y[0]
        assert ctx.standalone_bond_y == ctx.effective_bond_y == ()
        assert ctx.effective_die_y == (y * 0.98, y * 0.98)
        assert ctx.substrate_y == 0.98

    def test_chip_last_reference(self):
        ctx = stack_yields(Integration.INFO_CHIP_LAST, [0.12, 0.12], bond_yield=0.99, rdl_yield=0.95)
        y = ctx.standalone_die_y[0]
        assert ctx.standalone_bond_y == (0.99, 0.99)
        assert list(ctx.effective_die_y) == pytest.approx([y * 0.9801] * 2, rel=1e-12)
        assert ctx.substrate_y == pytest.approx(0.95 * 0.9801, rel=1e-12)
        assert list(ctx.effective_bond_y) == pytest.approx([0.9801] * 2, rel=1e-12)

    def test_mcm_identity(self):
        ctx = stack_yields(Integration.MCM, [0.12, 0.3])
        assert ctx.effective_die_y == ctx.standalone_die_y
        assert ctx.standalone_die_y[0] > ctx.standalone_die_y[1]
        assert ctx.substrate_y == 1.0


class TestYieldContext:
    def test_m3d_single_die_of_combined_area(self):
        design = make_design(Integration.M3D, n=2, gate_count=2e9)
        profiles = make_profiles()
        geom = stack_geometry(design, profiles.packaging)
        ctx = yield_context(design, geom, profiles)
        tech = design.dies[0].technology
        combined = sum(g.total_area for g in geom.dies)
        expected = die_yield_negbin(combined, tech.defect_density_d0, tech.cluster_alpha)
        assert list(ctx.effective_die_y) == [expected, expected]
        assert ctx.standalone_bond_y == ()

    def test_each_die_yield_from_its_own_area(self):
        design = make_design(Integration.MCM, n=3, explicit_areas=[0.5, 1.0, 2.0])
        profiles = make_profiles()
        geom = stack_geometry(design, profiles.packaging)
        ctx = yield_context(design, geom, profiles)
        tech = design.dies[0].technology
        assert ctx.standalone_die_y == tuple(
            die_yield_negbin(g.total_area, tech.defect_density_d0, tech.cluster_alpha) for g in geom.dies
        )
        assert ctx.standalone_die_y == tuple(sorted(ctx.standalone_die_y, reverse=True))

    def test_interposer_yield_derived_from_area(self):
        design = make_design(Integration.SI_INTERPOSER, n=2, gate_count=2e9)
        profiles = make_profiles()
        geom = stack_geometry(design, profiles.packaging)
        ctx = yield_context(design, geom, profiles)
        itech = profiles.interposer_technology
        alone = die_yield_negbin(geom.substrate_area, itech.defect_density_d0, itech.cluster_alpha)
        bond_product = profiles.bonding.bond_yield ** 2
        assert ctx.substrate_y == pytest.approx(alone * bond_product, rel=1e-12)

    def test_given_interposer_yield_survives_every_attach(self):
        design = make_design(Integration.SI_INTERPOSER, n=3, gate_count=2e9)
        profiles = make_profiles()
        profiles = dataclasses.replace(
            profiles, bonding=dataclasses.replace(profiles.bonding, interposer_yield=0.93)
        )
        ctx = yield_context(design, stack_geometry(design, profiles.packaging), profiles)
        bond_product = math.prod(ctx.standalone_bond_y)
        assert ctx.standalone_bond_y == (profiles.bonding.bond_yield,) * 3
        assert ctx.substrate_y == 0.93 * bond_product

    def test_mono2d_passthrough(self):
        design = make_design(Integration.MONO_2D, gate_count=1e9)
        profiles = make_profiles()
        geom = stack_geometry(design, profiles.packaging)
        ctx = yield_context(design, geom, profiles)
        assert ctx.effective_die_y == ctx.standalone_die_y
        assert ctx.substrate_y == 1.0
