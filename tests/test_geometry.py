import dataclasses
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon3d import (
    DieSpec,
    Facing,
    Integration,
    area_2d,
    average_wire_length,
    beol_layers,
    die_areas,
    load_scenario,
    package_area,
    stack_geometry,
    substrate_area,
    tsv_count_f2b,
)
from carbon3d.errors import NonPositiveArea, UnsupportedConfiguration
from carbon3d.explorer import apply_parameter
from carbon3d.geometry import DieGeometry, gates_from_area

from conftest import make_design, make_profiles, make_tech, make_wiring

mp.mp.dps = 50


class TestArea2d:
    def test_reference_point(self):
        # N_g=1e6, beta=100, lambda=1e-4 cm -> exactly 1 cm^2
        tech = make_tech(gate_area_scaling=100.0, feature_size_cm=1e-4)
        assert area_2d(1e6, tech) == pytest.approx(1.0, rel=1e-12)

    def test_single_gate(self):
        tech = make_tech()
        assert area_2d(1, tech) == pytest.approx(
            tech.gate_area_scaling * tech.feature_size_cm**2, rel=1e-12
        )

    def test_linearity(self):
        tech = make_tech()
        assert area_2d(2e9, tech) == pytest.approx(2 * area_2d(1e9, tech), rel=1e-14)

    def test_gates_from_area_inverts(self):
        tech = make_tech()
        assert gates_from_area(area_2d(3.7e8, tech), tech) == pytest.approx(3.7e8, rel=1e-12)


class TestTsvCount:
    def test_symmetric_oracle(self):
        # frozen via tools/rederive_oracles.py: raw 7711.868 -> ceil 7712
        wiring = make_wiring(rent_k=4.0, rent_p=0.6, rent_alpha=1.0)
        assert tsv_count_f2b(1e6, 1e6, wiring) == 7712

    def test_degenerate_sizes_clamp_to_zero(self):
        wiring = make_wiring()
        assert tsv_count_f2b(1, 1, wiring) == 0

    def test_a_two_gate_die_has_f2b_tsvs(self):
        # only a block of <= 1 gate is degenerate: T(4) - 2 T(2) = a k 2^p (2 - 2^p) = 2.94 here
        wiring = make_wiring(rent_k=4.0, rent_p=0.6, rent_alpha=1.0)
        assert tsv_count_f2b(2, 2, wiring) == 3
        assert tsv_count_f2b(2, 1e6, wiring) == tsv_count_f2b(1e6, 2, wiring) > 0

    def test_a_count_below_one_rounds_up_to_one(self):
        # raw = 0.1 * 2^0.6 * (2 - 2^0.6) = 0.073: a positive count is at least one TSV
        assert tsv_count_f2b(2, 2, make_wiring(rent_k=0.1, rent_p=0.6, rent_alpha=1.0)) == 1

    def test_p_equal_one_vanishes(self):
        wiring = make_wiring(rent_p=1.0)
        assert tsv_count_f2b(1e6, 1e6, wiring) == 0

    def test_monotone_in_gate_count(self):
        wiring = make_wiring()
        counts = [tsv_count_f2b(n, n, wiring) for n in (1e4, 1e5, 1e6, 1e7)]
        assert counts == sorted(counts)

    @settings(max_examples=200, deadline=None)
    @given(
        ng_i=st.floats(min_value=10, max_value=1e10),
        ng_j=st.floats(min_value=10, max_value=1e10),
        k=st.floats(min_value=0.5, max_value=10),
        p=st.floats(min_value=0.05, max_value=0.95),
        a=st.floats(min_value=0.1, max_value=4),
    )
    def test_agrees_with_arbitrary_precision(self, ng_i, ng_j, k, p, a):
        wiring = make_wiring(rent_k=k, rent_p=p, rent_alpha=a)
        got = tsv_count_f2b(ng_i, ng_j, wiring)

        def terms(n):
            n = mp.mpf(n)
            return mp.mpf(a) * mp.mpf(k) * n * (1 - n ** (mp.mpf(p) - 1))

        exact = terms(mp.mpf(ng_i) + mp.mpf(ng_j)) - terms(ng_i) - terms(ng_j)
        if exact <= 0:
            assert got == 0
        else:
            assert abs(got - mp.ceil(exact)) <= 1  # float eval within one ceiling step
            raw = float(
                terms(mp.mpf(ng_i) + mp.mpf(ng_j)) - terms(ng_i) - terms(ng_j)
            )
            assert raw == pytest.approx(float(exact), rel=1e-9)


class TestWireLength:
    def test_reference_point(self):
        # Both size-dependent ratios collapse to 1 at N_g=4
        assert average_wire_length(0.6, 4) == pytest.approx(10.3000319, abs=1e-4)

    def test_tiny_block_has_no_wires(self):
        assert average_wire_length(0.6, 1) == 0.0

    def test_a_block_between_one_and_two_gates_has_wires(self):
        # only N <= 1 has none; frozen from the closed form at N = 1.2
        assert average_wire_length(0.6, 1.2) == pytest.approx(55.1453814, rel=1e-8)

    def test_grows_with_gate_count(self):
        values = [average_wire_length(0.6, n) for n in (1e4, 1e6, 1e8, 1e10)]
        assert values == sorted(values)


class TestBeolLayers:
    def test_single_layer_reference(self):
        # fo*Ng*Labs*omega/(eta*A) = 4*1e6*1e-3*1e-4/(0.4*1) = 1.0 exactly
        # choose beta*lambda^2 so that Labs = Lbar * gate_pitch = 1e-3 cm
        pitch = 1e-3 / average_wire_length(0.6, 1e6)
        tech = make_tech(gate_area_scaling=1.0, feature_size_cm=pitch, max_beol_layers=14)
        die = DieSpec(technology=tech, wiring=make_wiring(fanout=4.0, wire_pitch_cm=1e-4, utilization=0.4),
                      gate_count=1e6)
        layers, adjusted = beol_layers(die, 1.0)
        assert layers == 1
        assert adjusted == 1.0

    def test_clamp_grows_area(self):
        tech = make_tech(max_beol_layers=10)
        die = DieSpec(technology=tech, wiring=make_wiring(), gate_count=1e9)
        # find an area whose raw estimate is exactly 12 layers, then expect 1.2x growth
        _, demand_area = beol_layers(die, 1e-9)  # heavily clamped; recover demand
        demand = demand_area * die.wiring.utilization * tech.max_beol_layers
        area = demand / (die.wiring.utilization * 12.0)
        layers, adjusted = beol_layers(die, area)
        assert layers == 10
        assert adjusted == pytest.approx(1.2 * area, rel=1e-12)

    def test_recompute_on_adjusted_hits_cap_exactly(self):
        tech = make_tech(max_beol_layers=8)
        die = DieSpec(technology=tech, wiring=make_wiring(), gate_count=2e9)
        layers, adjusted = beol_layers(die, 0.01)
        assert layers == 8
        again, area_again = beol_layers(die, adjusted)
        assert again == 8
        assert area_again == adjusted

    def test_explicit_override(self):
        die = DieSpec(technology=make_tech(), wiring=make_wiring(), gate_count=1e9, explicit_beol=3)
        assert beol_layers(die, 0.5) == (3, 0.5)

    def test_nonpositive_area(self):
        die = DieSpec(technology=make_tech(), wiring=make_wiring(), gate_count=1e9)
        with pytest.raises(NonPositiveArea):
            beol_layers(die, 0.0)

    def test_nonincreasing_in_area(self):
        die = DieSpec(technology=make_tech(max_beol_layers=60), wiring=make_wiring(), gate_count=1e9)
        layer_seq = [beol_layers(die, a)[0] for a in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert layer_seq == sorted(layer_seq, reverse=True)


class TestDieAreas:
    def test_micro_f2f_io_overhead(self):
        design = make_design(Integration.MICRO_3D, n=2, explicit_areas=[0.5, 0.5])
        geoms = die_areas(design)
        assert [g.total_area for g in geoms] == pytest.approx([0.55, 0.55], rel=1e-12)
        assert all(g.io_area == pytest.approx(0.05, rel=1e-12) for g in geoms)

    def test_hybrid_f2f_no_io(self):
        design = make_design(Integration.HYBRID_3D, n=2, explicit_areas=[0.5, 0.5])
        geoms = die_areas(design)
        assert [g.total_area for g in geoms] == pytest.approx([0.5, 0.5], rel=1e-12)
        assert all(g.io_area == 0.0 for g in geoms)

    def test_m3d_halves_equivalent_2d(self):
        tech = make_tech()
        gates = gates_from_area(1.0, tech)
        design = make_design(Integration.M3D, n=2, gate_count=gates, tech=tech)
        geoms = die_areas(design)
        assert [g.total_area for g in geoms] == pytest.approx([0.5, 0.5], rel=1e-9)
        assert all(g.tsv_area == 0.0 and g.io_area == 0.0 for g in geoms)

    def test_f2f_signal_tsvs_in_bottom_die(self):
        design = make_design(Integration.MICRO_3D, n=2, explicit_areas=[0.5, 0.5],
                             signal_count_f2f=1000)
        geoms = die_areas(design)
        pitch = design.dies[0].technology.tsv_pitch_cm
        assert geoms[0].tsv_area == 0.0
        assert geoms[1].tsv_count == 1000
        assert geoms[1].tsv_area == pytest.approx(1000 * pitch**2, rel=1e-12)

    def test_f2b_rent_tsvs_skip_bottom_die(self):
        design = make_design(Integration.MICRO_3D, n=3, gate_count=3e8, facing=Facing.F2B)
        geoms = die_areas(design)
        assert geoms[0].tsv_count > 0
        assert geoms[1].tsv_count > 0
        assert geoms[2].tsv_count == 0

    def test_an_f2b_interface_reads_only_its_own_two_dies(self):
        # die i carries interface i's TSVs, whose count reads dies i and i+1 alone, on a stack of unequal dies
        scenario = load_scenario(Path(__file__).resolve().parent.parent / "configs" / "hybrid_2die_7nm.json")
        die = scenario.design.dies[0]

        def counts(*gates):
            dies = tuple(dataclasses.replace(die, gate_count=g) for g in gates)
            return [g.tsv_count for g in die_areas(dataclasses.replace(scenario.design, facing=Facing.F2B, dies=dies))]

        base = counts(1e8, 2e8, 8e8)
        assert base == [tsv_count_f2b(1e8, 2e8, die.wiring), tsv_count_f2b(2e8, 8e8, die.wiring), 0]
        assert counts(1e8, 2e8, 3.2e9)[0] == base[0]  # die 2 is not on interface 0
        assert counts(4e8, 2e8, 8e8)[1] == base[1]  # die 0 is not on interface 1

    def test_25d_io_only(self):
        design = make_design(Integration.MCM, n=2, explicit_areas=[0.5, 0.5])
        geoms = die_areas(design)
        assert all(g.tsv_area == 0.0 for g in geoms)
        assert all(g.io_area == pytest.approx(0.05, rel=1e-12) for g in geoms)

    def test_mono2d_bare(self):
        design = make_design(Integration.MONO_2D, explicit_areas=[1.0])
        geoms = die_areas(design)
        assert geoms[0].total_area == 1.0
        assert geoms[0].io_area == 0.0

    def test_hybrid_never_larger_than_micro(self):
        for n, facing in ((2, Facing.F2F), (3, Facing.F2B), (4, Facing.F2B)):
            micro = die_areas(make_design(Integration.MICRO_3D, n=n, gate_count=2e9, facing=facing))
            hybrid = die_areas(make_design(Integration.HYBRID_3D, n=n, gate_count=2e9, facing=facing))
            for h, m in zip(hybrid, micro):
                assert h.total_area <= m.total_area


class TestPackageSubstrate:
    def test_package_3d_uses_max(self):
        design = make_design(Integration.HYBRID_3D, n=2, explicit_areas=[1.5, 1.0])
        profiles = make_profiles()
        geoms = [DieGeometry(1.5, 0.0, 0.0, 0, 0), DieGeometry(1.0, 0.0, 0.0, 0, 0)]
        packaging = profiles.packaging
        assert package_area(design, geoms, packaging) == pytest.approx(
            packaging.s_package_3d * 1.5, rel=1e-12
        )

    def test_package_25d_uses_sum(self):
        design = make_design(Integration.MCM, n=2, explicit_areas=[1.0, 1.0])
        packaging = make_profiles().packaging
        geoms = [DieGeometry(1.0, 0.0, 0.0, 0, 0), DieGeometry(1.0, 0.0, 0.0, 0, 0)]
        assert package_area(design, geoms, packaging) == pytest.approx(
            packaging.s_package_25d * 2.0, rel=1e-12
        )

    def test_substrate_only_for_unifying_substrates(self):
        packaging = make_profiles().packaging
        geoms = [DieGeometry(1.0, 0.0, 0.0, 0, 0), DieGeometry(1.0, 0.0, 0.0, 0, 0)]
        info = make_design(Integration.INFO_CHIP_LAST, n=2, explicit_areas=[1.0, 1.0])
        assert substrate_area(info, geoms, packaging) == pytest.approx(
            packaging.s_substrate_25d * 2.0, rel=1e-12
        )
        mcm = make_design(Integration.MCM, n=2, explicit_areas=[1.0, 1.0])
        assert substrate_area(mcm, geoms, packaging) == 0.0
        mono = make_design(Integration.MONO_2D, explicit_areas=[1.0])
        assert substrate_area(mono, [geoms[0]], packaging) == 0.0


class TestStackGeometry:
    @given(
        gate=st.floats(min_value=1e-4, max_value=10),
        tsv=st.floats(min_value=0, max_value=1),
        io=st.floats(min_value=0, max_value=1),
    )
    def test_additivity_exact(self, gate, tsv, io):
        geom = DieGeometry(gate_area=gate, tsv_area=tsv, io_area=io, beol_layers=0, tsv_count=0)
        assert geom.total_area == gate + tsv + io

    def test_beol_filled_and_bounded(self):
        design = make_design(Integration.HYBRID_3D, n=2, gate_count=1e9)
        geom = stack_geometry(design, make_profiles().packaging)
        for die, g in zip(design.dies, geom.dies):
            assert 1 <= g.beol_layers <= die.technology.max_beol_layers

    def test_equivalent_2d_area_is_gate_sum(self):
        design = make_design(Integration.MICRO_3D, n=2, gate_count=1e9)
        geom = stack_geometry(design, make_profiles().packaging)
        assert geom.equivalent_2d_area == sum(g.gate_area for g in geom.dies)

    def test_clamped_die_grows(self):
        tech = make_tech(max_beol_layers=4)
        design = make_design(Integration.MONO_2D, gate_count=4e9, tech=tech)
        geom = stack_geometry(design, make_profiles().packaging)
        assert geom.dies[0].beol_layers == 4
        assert geom.dies[0].total_area > area_2d(4e9, tech)

    @pytest.mark.parametrize("area", [1e-310, 1e-320])
    def test_a_die_too_small_for_a_finite_beol_count_is_out_of_the_numeric_range(self, area):
        config = Path(__file__).resolve().parent.parent / "configs" / "hybrid_2die_7nm.json"
        scenario = apply_parameter(load_scenario(config), "dies[*].explicit_area", area)
        with pytest.raises(UnsupportedConfiguration) as caught:
            stack_geometry(scenario.design, scenario.profiles.packaging)
        assert str(caught.value) == "inputs outside the model's numeric range: a count is not finite"


class TestDieAreasAreFinished:
    @pytest.mark.parametrize("integration, n", [(integ, 2) for integ in Integration]
                             + [(Integration.MICRO_3D, 3), (Integration.HYBRID_3D, 3)])
    @pytest.mark.parametrize("max_beol", [14, 4])
    def test_die_areas_equal_stack_dies(self, integration, n, max_beol):
        # with a cap of 4 every die's wiring estimate exceeds it, so each die grows
        tech = make_tech(max_beol_layers=max_beol)
        design = make_design(integration, n=n, gate_count=4e9, tech=tech)
        dies = die_areas(design)
        assert dies == list(stack_geometry(design, make_profiles().packaging).dies)
        assert all(1 <= g.beol_layers <= max_beol for g in dies)
        if max_beol == 4:
            assert all(g.beol_layers == 4 and g.gate_area > area_2d(4e9, tech) / len(dies) for g in dies)


class TestExplicitAreaWithGateCount:
    def test_explicit_area_wins_but_gates_drive_wiring(self):
        tech = make_tech()
        wiring = make_wiring()
        # same explicit area, very different gate counts: the TSV estimate
        # must follow the declared gates, not the area-derived count
        small = DieSpec(technology=tech, wiring=wiring, gate_count=1e6, explicit_area=0.4)
        large = DieSpec(technology=tech, wiring=wiring, gate_count=1e9, explicit_area=0.4)
        from carbon3d.geometry import _die_gate_count
        assert _die_gate_count(small, 0.4) == 1e6
        assert _die_gate_count(large, 0.4) == 1e9
        assert tsv_count_f2b(1e6, 1e6, wiring) < tsv_count_f2b(1e9, 1e9, wiring)

    def test_area_derived_gates_when_unset(self):
        tech = make_tech()
        die = DieSpec(technology=tech, wiring=make_wiring(), explicit_area=0.4)
        from carbon3d.geometry import _die_gate_count, gates_from_area
        assert _die_gate_count(die, 0.4) == gates_from_area(0.4, tech)
