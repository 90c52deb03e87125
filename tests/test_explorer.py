import collections
import dataclasses
import gc
import itertools
import json
import math
import re
import shutil
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbon3d import (
    CarbonBreakdown,
    DesignSpec,
    DieSpec,
    FixtureRegistry,
    Integration,
    Stacking,
    SweepAxis,
    SweepRow,
    build_design,
    crossing,
    evaluate,
    find_crossing,
    gamma_pareto,
    load_scenario,
    mono2d_equivalent,
    stack_geometry,
    sweep,
    switching_point,
)
from carbon3d import carbon, explorer
from carbon3d.cli import main
from carbon3d.errors import (
    CapExceeded,
    CarbonModelError,
    CarbonModelWarning,
    InvalidCombination,
    OutOfRange,
    UnresolvablePath,
    UnsupportedConfiguration,
    ValidationError,
)
from carbon3d.explorer import PRESCAN_POINTS, REL_TOL, ROW_CAP, CrossingResult, apply_parameter
from carbon3d.geometry import area_2d
from carbon3d.params import _BUNDLED_DIR, validate_design

from conftest import make_design, make_env, make_profiles, make_scenario, make_tech


class TestApplyParameter:
    def test_gamma(self):
        scn = apply_parameter(make_scenario(), "gamma", 0.25)
        assert scn.gamma == 0.25

    def test_die_broadcast(self):
        scn = apply_parameter(make_scenario(), "dies[*].gate_count", 7e8)
        assert all(d.gate_count == 7e8 for d in scn.design.dies)

    def test_single_die_index(self):
        scn = apply_parameter(make_scenario(), "design.dies[1].gate_count", 7e8)
        assert scn.design.dies[0].gate_count != 7e8
        assert scn.design.dies[1].gate_count == 7e8

    def test_environment_field(self):
        scn = apply_parameter(make_scenario(), "environment.ci_fab", 0.05)
        assert scn.environment.ci_fab == 0.05

    def test_bonding_field(self):
        scn = apply_parameter(make_scenario(), "bonding.bond_yield", 0.9)
        assert scn.profiles.bonding.bond_yield == 0.9

    def test_technology_axis(self, registry):
        doc_scn = make_scenario()
        # swap in registry-backed dies first so node switching makes sense
        scn = apply_parameter(doc_scn, "technology", "5nm")
        assert all(d.technology.node_name == "5nm" for d in scn.design.dies)

    def test_wiring_subfield(self):
        scn = apply_parameter(make_scenario(), "dies[*].wiring.rent_p", 0.55)
        assert all(d.wiring.rent_p == 0.55 for d in scn.design.dies)

    def test_unresolvable(self):
        with pytest.raises(UnresolvablePath):
            apply_parameter(make_scenario(), "dies[*].flux_capacitor", 1)
        with pytest.raises(UnresolvablePath):
            apply_parameter(make_scenario(), "nonsense", 1)


# Each parameter path with a value and the one Scenario field it patches, as
# the module docstring states it (not as explorer._route computes it).
ROUTED_FIELDS = [
    ("gamma", 0.25, "gamma"),
    ("technology", "5nm", "design"),
    ("dies[*].gate_count", 7e8, "design"),
    ("design.dies[1].gate_count", 7e8, "design"),
    ("dies[*].wiring.rent_p", 0.6, "design"),
    ("signal_count_f2f", 1000, "design"),
    ("usage.t_app_hours", 5000.0, "usage"),
    ("design.usage.t_app_hours", 5000.0, "usage"),
    ("environment.ci_fab", 0.05, "environment"),
    ("bonding.bond_yield", 0.9, "profiles"),
    ("packaging.cpa_packaging", 0.1, "profiles"),
]


class TestRoute:
    @pytest.mark.parametrize("path, value, field", ROUTED_FIELDS)
    def test_a_path_patches_exactly_its_field(self, path, value, field):
        template = make_scenario()
        scn = apply_parameter(template, path, value)
        assert getattr(scn, field) is not getattr(template, field)
        others = [f.name for f in dataclasses.fields(template) if f.name != field]
        assert "technology_overrides" in others and "registry" in others
        assert [name for name in others if getattr(scn, name) is not getattr(template, name)] == []

    def test_an_unknown_section_is_refused_before_any_value_is_applied(self, capsys):
        argv = ["sweep", "-c", str(CONFIGS[0]), "--axis", "gamma=-1", "--axis", "usage2.x=1"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: cannot resolve parameter path 'usage2.x'\n"

    def test_an_unknown_field_of_a_known_section_is_refused_when_applied(self, capsys):
        argv = ["sweep", "-c", str(CONFIGS[0]), "--axis", "gamma=-1", "--axis", "usage.foo=1"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: gamma: ")

    def test_a_field_under_a_die_field_that_is_no_profile_is_refused(self, capsys):
        argv = ["sweep", "-c", str(CONFIGS[0]), "--axis", "dies[0].gate_count.x=1"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: cannot resolve parameter path 'dies[0].gate_count.x'\n"
        with pytest.raises(UnresolvablePath, match=r"^cannot resolve parameter path 'dies\[0\]\.gate_count\.x'$"):
            apply_parameter(make_scenario(), "dies[0].gate_count.x", 1.0)

    def test_an_axis_with_no_values_is_refused(self):
        with pytest.raises(UnresolvablePath, match="^axis 'gamma' has no values$"):
            SweepAxis("gamma", [])


class TestSweep:
    def test_cartesian_cardinality(self):
        rows = list(sweep(make_scenario(), [
            SweepAxis("dies[*].gate_count", [1e8, 2e8, 4e8]),
            SweepAxis("gamma", [0.0, 0.5, 1.0, 2.0]),
        ]))
        assert len(rows) == 12
        assert rows[0].values == (1e8, 0.0)
        assert rows[-1].values == (4e8, 2.0)

    @pytest.mark.parametrize("path, values", [("technology", "7nm"), ("gamma", "12")])
    def test_a_string_of_values_is_refused_naming_the_axis(self, path, values):
        # a string is a sequence of its characters; it used to sweep "7", "n" and "m"
        with pytest.raises(UnresolvablePath, match=f"^axis '{path}': "):
            SweepAxis(path, values)
        with pytest.raises(UnresolvablePath, match=f"^axis '{path}': "):
            sweep(make_scenario(), [(path, values)])

    def test_empty_axes_single_row(self):
        rows = list(sweep(make_scenario(), []))
        assert len(rows) == 1

    def test_linearity_through_pipeline(self):
        rows = sweep(make_scenario(), [SweepAxis("dies[*].gate_count", [1e6, 2e6])])
        areas = [
            stack_geometry(r.scenario.design, r.scenario.profiles.packaging).equivalent_2d_area
            for r in rows
        ]
        assert areas[1] == pytest.approx(2 * areas[0], rel=1e-12)

    def test_cap(self):
        # 1001 x 1000 rows is over the cap; raised by the call itself, before any row is built
        assert 1001 * 1000 > ROW_CAP
        axes = [SweepAxis("gamma", list(range(1001))), SweepAxis("dies[*].gate_count", [1e9] * 1000)]
        with pytest.raises(CapExceeded):
            sweep(make_scenario(), axes)

    def test_deterministic(self):
        axes = [SweepAxis("dies[*].gate_count", [1e8, 3e8, 9e8])]
        a = sweep(make_scenario(), axes)
        b = sweep(make_scenario(), axes)
        for ra, rb in zip(a, b):
            assert ra.breakdown == rb.breakdown

    def test_baseline_and_switching_annotation(self):
        # hybrid starts above the 2D baseline at small sizes and drops below
        scn = make_scenario(design=make_design(Integration.HYBRID_3D, n=2, gate_count=1e6))
        values = [1e5, 1e6, 1e7, 1e8, 1e9]
        rows = list(sweep(scn, [SweepAxis("dies[*].gate_count", values)], baseline=True))
        assert [r.baseline for r in rows] == [_mono2d_embodied(r.scenario) for r in rows]
        assert len(rows) == len(values)
        diffs = [r.breakdown.c_embodied_overall - r.baseline for r in rows]
        assert diffs[0] > 0 and diffs[-1] < 0  # brackets at least one crossing
        brackets = [b for b in map(crossing, rows, rows[1:]) if b is not None]
        assert brackets and brackets[0][2] == "down"
        for a, b, direction in brackets:
            assert values.index(b) == values.index(a) + 1
            assert direction in ("down", "up")

    def test_a_baseline_sweep_evaluates_once_per_row(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(explorer, "evaluate", lambda *a, _f=explorer.evaluate, **k: calls.append(1) or _f(*a, **k))
        argv = ["sweep", "-c", str(CONFIGS[0]), "--baseline",
                "--axis", "dies[*].gate_count=1e8,1e9", "--axis", "usage.power_density=5,25,40"]
        assert main(argv) == 0
        assert len(calls) == 6 and len(capsys.readouterr().out.splitlines()) == 4 + 6

    def test_a_baseline_whose_metrics_overflow_still_gives_its_embodied_carbon(self, registry):
        # a delay between max/row and max/baseline: the row's CDP is finite, the baseline's is not
        scenario = load_scenario(next(p for p in CONFIGS if p.stem == "hybrid_2die_7nm"), registry)
        row, base = evaluate(scenario).c_embodied_overall, _mono2d_embodied(scenario)
        assert row < base
        usage = dataclasses.replace(scenario.usage, power_density=0.0, delay_s=sys.float_info.max / ((row + base) / 2))
        scenario = dataclasses.replace(scenario, usage=usage)
        (swept,) = sweep(scenario, [SweepAxis("gamma", [1.0])], baseline=True)
        assert swept.breakdown.c_embodied_overall == row and swept.baseline == base
        with pytest.raises(UnsupportedConfiguration, match="not finite"):
            _mono2d_embodied(scenario)

    def test_a_die_given_by_its_area_merges_into_the_baseline_by_its_gates(self, registry):
        path = next(p for p in CONFIGS if p.stem == "mcm_hetero_4die")
        by_gates = load_scenario(path, registry)
        doc = json.loads(path.read_text(encoding="utf-8"))
        die = doc["design"]["dies"][3]  # the 14nm die
        die["explicit_area"] = area_2d(die.pop("gate_count"), registry.technology("14nm"))
        by_area = load_scenario(doc, registry)
        with pytest.warns(CarbonModelWarning, match="heterogeneous-node"):
            (row_gates,) = sweep(by_gates, [], baseline=True)
            (row_area,) = sweep(by_area, [], baseline=True)
        assert row_area.breakdown.c_embodied_overall == pytest.approx(row_gates.breakdown.c_embodied_overall, rel=1e-12)
        assert row_area.baseline == pytest.approx(row_gates.baseline, rel=1e-12)

    def test_crossing_needs_one_axis_with_baseline(self, registry):
        scn = make_scenario(design=make_design(Integration.HYBRID_3D, n=2, gate_count=1e6))
        axis = SweepAxis("dies[*].gate_count", [1e5, 1e9])
        with_base = list(sweep(scn, [axis], baseline=True))
        assert crossing(*with_base) is not None
        assert crossing(*sweep(scn, [axis])) is None
        two_axes = list(sweep(scn, [axis, SweepAxis("gamma", [1.0])], baseline=True))
        assert crossing(*two_axes) is None
        # a bracket does no arithmetic on the values, so node names bracket: below 7nm hybrid 3D turns dearer
        hybrid = load_scenario(next(p for p in CONFIGS if p.stem == "hybrid_2die_7nm"), registry)
        nodes = SweepAxis("technology", ["7nm", "5nm"])
        assert crossing(*sweep(hybrid, [nodes], baseline=True)) == ("7nm", "5nm", "up")
        assert crossing(*sweep(hybrid, [nodes])) is None

    @pytest.mark.parametrize("first, second", [
        (("gamma", [0.0]), ("gamma", [2.0])),
        (("technology", ["5nm"]), ("dies[*].technology", ["7nm"])),
        (("design.usage.t_app_hours", [100.0]), ("usage.t_app_hours", [200.0])),
    ])
    def test_two_axes_on_one_parameter_raise_at_the_call(self, first, second):
        with pytest.raises(UnresolvablePath, match="^more than one axis sets "):
            sweep(make_scenario(), [SweepAxis(*first), SweepAxis(*second)])

    def test_overlapping_axes_apply_in_order(self):
        axes = [SweepAxis("dies[*].gate_count", [1e8]), SweepAxis("dies[0].gate_count", [3e8])]
        (row,) = sweep(make_scenario(), axes)
        assert [d.gate_count for d in row.scenario.design.dies] == [3e8, 1e8]

    def test_rows_are_built_as_they_are_consumed(self):
        rows = sweep(make_scenario(), [SweepAxis("bonding.bond_yield", [0.9, 1.5])])
        assert next(rows).values == (0.9,)
        with pytest.raises(OutOfRange, match="bonding.bond_yield"):
            next(rows)

    def test_memory_does_not_grow_with_row_count(self):
        def fill_tuple_free_lists():
            # The interpreter keeps up to 2000 freed tuples of each length up
            # to 20 for reuse, and tracemalloc counts those allocated while it
            # traces.  Freeing that many of each length fills the lists, so a
            # measured run frees its tuples for good, however many it makes.
            held = [tuple(range(i, i + n)) for n in range(1, 21) for i in range(2000)]
            del held

        def peak(n):
            axes = [SweepAxis("dies[*].gate_count", [1e8 + i for i in range(n // 4)]),
                    SweepAxis("gamma", [0.5, 1.0, 1.5, 2.0])]
            scenario = make_scenario()
            fill_tuple_free_lists()
            tracemalloc.start()
            try:
                for _ in sweep(scenario, axes, baseline=True):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # A first run makes the objects the code creates only once.  A full
        # collection empties the free lists, so none runs while measuring.
        peak(2400)
        enabled = gc.isenabled()
        gc.disable()
        try:
            small, large = peak(400), peak(1600)
        finally:
            if enabled:
                gc.enable()
        assert large < 1.5 * small


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

# Axis paths a sweep can take, each with values that are mostly valid; an
# invalid combination (say explicit_beol above a node's cap) must fail the
# same way on both sides.
AXIS_VALUES = {
    "gamma": st.floats(0.0, 4.0),
    "technology": st.sampled_from(["14nm", "7nm", "5nm"]),
    "dies[*].gate_count": st.floats(1e7, 3e9),
    "dies[0].gate_count": st.floats(1e7, 3e9),
    "dies[*].explicit_area": st.floats(0.05, 2.0),
    "dies[*].explicit_beol": st.integers(1, 14),
    "dies[*].wiring.rent_p": st.floats(0.55, 0.8),
    "dies[0].wiring.fanout": st.floats(1.0, 5.0),
    "signal_count_f2f": st.integers(0, 100_000),
    "usage.t_app_hours": st.floats(100.0, 30_000.0),
    "usage.power_density": st.floats(0.0, 100.0),
    "usage.delay_s": st.floats(0.01, 10.0),
    "environment.ci_fab": st.floats(0.03, 0.7),
    "environment.ci_use": st.floats(0.0, 0.7),
    "environment.wafer_diameter_cm": st.floats(15.0, 45.0),
    "bonding.bond_yield": st.floats(0.8, 1.0),
    "bonding.epa_w2w": st.floats(0.9, 2.75),
    "packaging.cpa_packaging": st.floats(0.0, 0.3),
    "packaging.s_package_3d": st.floats(1.0, 2.0),
}


@st.composite
def sweep_axes(draw):
    paths = draw(st.lists(st.sampled_from(sorted(AXIS_VALUES)), min_size=1, max_size=3, unique=True))
    return [SweepAxis(p, draw(st.lists(AXIS_VALUES[p], min_size=1, max_size=3))) for p in paths]


def _outcome(run):
    """What a sweep gives: its rows, baselines, or the error it stopped with."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return run()
        except CarbonModelError as exc:
            return type(exc).__name__, str(exc)


def _mono2d_embodied(scenario):
    """The overall embodied carbon of a full evaluation of the scenario's mono-2D equivalent."""
    return evaluate(dataclasses.replace(scenario, design=mono2d_equivalent(scenario.design))).c_embodied_overall


def _row_by_row(scenario, axes):
    """The per-row chain: apply every axis to the template, then evaluate."""
    rows, baselines = [], []
    for combo in itertools.product(*(a.values for a in axes)):
        scn = scenario
        for axis, value in zip(axes, combo):
            scn = apply_parameter(scn, axis.parameter_path, value)
        validate_design(scn.design)
        rows.append((combo, scn, evaluate(scn)))
        baselines.append(_mono2d_embodied(scn))
    return rows, baselines


class TestSweepMatchesRowByRow:
    """sweep applies each axis prefix once; its rows must be those of the per-row chain."""

    @pytest.fixture(scope="class")
    def scenarios(self, registry):
        return [load_scenario(path, registry) for path in CONFIGS]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(config=st.integers(0, len(CONFIGS) - 1), axes=sweep_axes())
    def test_rows_and_baselines_match(self, scenarios, registry, config, axes):
        scenario = scenarios[config]

        def swept():
            rows = list(sweep(scenario, axes, baseline=True))
            return [(row.values, row.scenario, row.breakdown) for row in rows], [row.baseline for row in rows]

        assert _outcome(swept) == _outcome(lambda: _row_by_row(scenario, axes))


SIDE_BY_SIDE = (Integration.MCM, Integration.INFO_CHIP_FIRST, Integration.INFO_CHIP_LAST, Integration.SI_INTERPOSER)


class TestBaselineReadsNoDieOrder:
    """Side-by-side dies have no physical order: a 2.5D or MCM design listed in any order has
    the same embodied carbon (to rounding) and the same 2D baseline, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        integ=st.sampled_from(SIDE_BY_SIDE),
        dies=st.lists(
            st.tuples(st.sampled_from(("28nm", "14nm", "7nm", "5nm")), st.floats(1e7, 1e9), st.booleans()),
            min_size=2, max_size=4,
        ),
    )
    def test_every_permutation_gives_one_baseline(self, registry, integ, dies):
        specs = [
            DieSpec(registry.technology(node), dataclasses.replace(registry.default_wiring(node), rent_p=0.7)
                    if patched else registry.default_wiring(node), gate_count=gates)
            for node, gates, patched in dies
        ]
        rules = integ.rules
        carbon, baselines, merged = [], set(), set()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CarbonModelWarning)
            for order in itertools.permutations(specs):
                design = DesignSpec(integ, rules.default_facing(len(order)), rules.default_stacking, order)
                (row,) = sweep(make_scenario(design=design), [], baseline=True)
                carbon.append(row.breakdown.c_embodied_overall)
                baselines.add(row.baseline)
                merged.add(mono2d_equivalent(design))
        assert len(baselines) == 1 and len(merged) == 1
        assert carbon == pytest.approx([carbon[0]] * len(carbon), rel=1e-12)


# Inner axes that leave the dies alone, so rows can reuse the stages before them
# (a signal count changes the design, so its rows recompute geometry and yields).
INNER_AXES = {
    "usage.power_density": (5.0, 25.0, 40.0),
    "environment.ci_fab": (0.1, 0.3, 0.5),
    "gamma": (0.0, 1.0, 2.5),
    "bonding.bond_yield": (0.9, 0.95, 0.99),
    "signal_count_f2f": (0.0, 100.0, 1000.0),
}
# The larger gate count clamps the die-per-wafer count of a baseline or a die.
GATE_AXIS = SweepAxis("dies[*].gate_count", (1e9, 2e11))


def _recorded_texts(run):
    """Each distinct warning text run() raises, in first-seen order (as the CLI reports them)."""
    texts = {}
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: texts.setdefault(str(message))
        run()
    return list(texts)


class TestReuseMatchesFreshEvaluation:
    """Sweep rows and gamma points reuse the previous one's geometry, yields and embodied
    carbon where their inputs are unchanged; every number must be a fresh evaluation's."""

    @pytest.mark.parametrize("baseline", [False, True])
    @pytest.mark.parametrize("inner", sorted(INNER_AXES))
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_rows_equal_fresh_evaluate(self, registry, config, inner, baseline):
        scenario = load_scenario(config, registry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = list(sweep(scenario, [GATE_AXIS, SweepAxis(inner, INNER_AXES[inner])], baseline=baseline))
            assert [row.values for row in rows] == list(itertools.product(GATE_AXIS.values, INNER_AXES[inner]))
            for row in rows:
                assert row.breakdown == evaluate(row.scenario)
                if baseline:
                    assert row.baseline == _mono2d_embodied(row.scenario)
                else:
                    assert row.baseline is None

    @pytest.mark.parametrize("inner, geometry_calls, embodied_calls", [
        ("usage.power_density", 4, 4),
        ("gamma", 4, 4),
        ("environment.ci_fab", 4, 12),
        ("bonding.bond_yield", 12, 12),
        ("signal_count_f2f", 8, 8),
    ])
    def test_rows_recompute_only_the_stages_they_change(self, registry, monkeypatch, inner, geometry_calls, embodied_calls):
        calls = collections.Counter()
        for module, name in ((carbon, "stack_geometry"), (carbon, "yield_context"),
                             (carbon, "embodied_breakdown"), (explorer, "mono2d_equivalent")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: calls.update([_n]) or _f(*args))
        scenario = load_scenario(CONFIGS[0], registry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = list(sweep(scenario, [GATE_AXIS, SweepAxis(inner, INNER_AXES[inner])], baseline=True))
        # 6 rows and 6 baselines over 2 distinct die sets; a signal count is a new design on every row
        assert len(rows) == 6
        assert calls == {"stack_geometry": geometry_calls, "yield_context": geometry_calls,
                         "embodied_breakdown": embodied_calls, "mono2d_equivalent": 2}

    @pytest.mark.parametrize("n_dies", [2, 4])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_gamma_pareto_equals_per_point_evaluate(self, registry, config, n_dies):
        # every scheme that admits the count, each variant built on the comparison designs' basis
        schemes = [i for i in Integration if i.rules.admits(explorer._die_count(i, n_dies))]
        scenario = load_scenario(config, registry)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tech, wiring, gates = explorer._basis(scenario.design)
            designs = {"reference": scenario.design}
            designs.update((i.value, build_design(i, tech, wiring, n_dies, gates)) for i in schemes)
            gammas = (0.0, 0.5, 1.0, 4.0)
            reference_tcdp, series = gamma_pareto(scenario, schemes, n_dies, gammas)
            ref = evaluate(dataclasses.replace(scenario, gamma=1.0)).tcdp
            assert reference_tcdp == ref
            assert list(series) == list(designs)
            for name, design in designs.items():
                expected = tuple(
                    evaluate(dataclasses.replace(scenario, design=design, gamma=g)).tcdp / ref for g in gammas
                )
                assert series[name] == expected

    @pytest.mark.parametrize("inner", sorted(INNER_AXES))
    @pytest.mark.parametrize("config", ["hybrid_2die_7nm", "mcm_hetero_4die"])
    def test_cli_warnings_equal_fresh_rows(self, registry, capsys, config, inner):
        path = next(p for p in CONFIGS if p.stem == config)
        axes = [GATE_AXIS, SweepAxis(inner, INNER_AXES[inner])]
        expected = _recorded_texts(lambda: _row_by_row(load_scenario(path, registry), axes))
        assert any("clamping to 1" in text for text in expected)
        assert (config == "mcm_hetero_4die") == any("heterogeneous-node design" in text for text in expected)

        argv = ["sweep", "-c", str(path), "--baseline"]
        for axis in axes:
            argv += ["--axis", f"{axis.parameter_path}={','.join(map(repr, axis.values))}"]
        assert main(argv) == 0
        assert capsys.readouterr().err == "".join(f"warning: {text}\n" for text in expected)


# Axes of each Scenario field, with repeated values and signed zeros, so that
# a patch kept by value rather than by position shows in a row's sign of zero.
REUSED_AXIS_VALUES = {
    "usage.power_density": st.sampled_from([0.0, -0.0, 5.0, 40.0]),
    "usage.t_app_hours": st.floats(100.0, 30_000.0),
    "environment.ci_fab": st.sampled_from([0.1, 0.3, 0.9]),
    "environment.ci_use": st.sampled_from([0.0, -0.0, 0.4]),
    "bonding.bond_yield": st.floats(0.8, 1.0),
    "bonding.epa_w2w": st.floats(0.9, 2.75),
    "packaging.cpa_packaging": st.sampled_from([0.0, -0.0, 0.2]),
    "packaging.s_package_3d": st.floats(1.0, 2.0),
    "gamma": st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    "signal_count_f2f": st.integers(0, 100_000),
    "dies[*].gate_count": st.floats(1e7, 3e9),
    "dies[0].gate_count": st.floats(1e7, 3e9),
    "dies[*].wiring.rent_p": st.floats(0.55, 0.75),
    "technology": st.sampled_from(["14nm", "7nm", "5nm"]),
}


def _sweep_peak(axes) -> int:
    """The traced peak memory of a baseline sweep of the default scenario, as in
    ``TestSweep.test_memory_does_not_grow_with_row_count``: the tuple free lists
    are filled first, and the caller turns the collector off."""
    scenario = make_scenario()
    held = [tuple(range(i, i + n)) for n in range(1, 21) for i in range(2000)]
    del held
    tracemalloc.start()
    try:
        for _ in sweep(scenario, axes, baseline=True):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInnerAxisReuse:
    """A later axis whose Scenario field no earlier axis patches is applied once per value
    and its patch reused on every outer value; each row must be the fold of apply_parameter
    over the template, down to the sign of zero."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(config=st.integers(0, len(CONFIGS) - 1),
           paths=st.lists(st.sampled_from(sorted(REUSED_AXIS_VALUES)), min_size=2, max_size=3, unique=True),
           data=st.data())
    def test_rows_equal_a_fold_of_apply_parameter(self, registry, config, paths, data):
        scenario = load_scenario(CONFIGS[config], registry)
        axes = [SweepAxis(p, data.draw(st.lists(REUSED_AXIS_VALUES[p], min_size=1, max_size=3))) for p in paths]

        def swept():
            return [repr((row.values, row.scenario, row.breakdown, row.baseline))
                    for row in sweep(scenario, axes, baseline=True)]

        def folded():
            rows, baselines = _row_by_row(scenario, axes)
            return [repr((combo, scn, breakdown, base)) for (combo, scn, breakdown), base in zip(rows, baselines)]

        assert _outcome(swept) == _outcome(folded)

    def test_a_signed_zero_is_its_own_value(self, capsys):
        argv = ["sweep", "-c", str(next(p for p in CONFIGS if p.stem == "hybrid_2die_7nm")),
                "--axis", "dies[*].gate_count=1e8,2e8", "--axis", "usage.power_density=0,-0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        column = lines[3].split(",").index("c_operational")
        assert [line.split(",")[column] for line in lines[4:]] == ["0", "-0", "0", "-0"]

    def test_memory_does_not_grow_with_row_count(self):
        def peak(n):
            return _sweep_peak([SweepAxis("dies[*].gate_count", [1e8 + i for i in range(n // 4)]),
                                SweepAxis("usage.power_density", [5.0, 10.0, 25.0, 40.0])])

        def once(n):  # an inner axis that the outer one does not repeat keeps no patch
            return _sweep_peak([SweepAxis("gamma", [1.0]),
                                SweepAxis("dies[*].gate_count", [1e8 + i for i in range(n)])])

        peak(2400)
        enabled = gc.isenabled()
        gc.disable()
        try:
            small, large = peak(400), peak(1600)
            once_small, once_large = once(400), once(1600)
        finally:
            if enabled:
                gc.enable()
        assert large < 1.5 * small
        assert once_large < 1.5 * once_small

    def test_a_reused_value_outside_its_survey_warns_once(self, capsys):
        argv = ["sweep", "-c", str(next(p for p in CONFIGS if p.stem == "hybrid_2die_7nm")),
                "--axis", "dies[*].gate_count=1e8,2e8,3e8", "--axis", "environment.ci_fab=0.1,0.9"]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert len(out.out.splitlines()) == 4 + 6
        assert out.err == "warning: environment.ci_fab=0.9 is outside the surveyed range [0.03, 0.7]\n"


class TestFindCrossing:
    def test_linear_synthetic_oracle(self):
        # C_2D = a*g, C_3D = b*g + c with a > b: crossing at c/(a-b)
        a, b, c = 3.0e-9, 1.0e-9, 4.2
        g_star = c / (a - b)
        result = find_crossing(lambda g: (b * g + c) - a * g, 1e6, 1e12)
        assert result.status == "crossing"
        assert result.value == pytest.approx(g_star, rel=1e-3)

    def test_always_below(self):
        result = find_crossing(lambda g: -1.0, 1e6, 1e12)
        assert result.status == "always_below"
        assert result.value == 0.0

    def test_never_below(self):
        result = find_crossing(lambda g: 1.0, 1e6, 1e12)
        assert result.status == "never_below"
        assert result.value == math.inf

    def test_bisection_soundness(self):
        a, b, c = 3.0e-9, 1.0e-9, 4.2
        f = lambda g: (b * g + c) - a * g
        result = find_crossing(f, 1e6, 1e12)
        tol = 1e-3 * result.value
        assert f(result.value - tol) * f(result.value + tol) < 0

    def test_multiple_crossings_warn_and_return_smallest(self):
        # sign pattern +,-,+,- over the range
        def f(g):
            return math.sin(math.log10(g) * math.pi)

        with pytest.warns(CarbonModelWarning):
            result = find_crossing(f, 10**0.5, 10**3.5)
        assert result.status == "crossing"
        assert result.value == pytest.approx(10.0, rel=1e-3)

    @pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (0.0, 10.0), (10.0, 10.0), (20.0, 10.0), (math.nan, 10.0)])
    def test_a_bad_range_is_an_error_on_range(self, lo, hi):
        with pytest.raises(OutOfRange, match=r"^range: need finite 0 < lo < hi, got \["):
            find_crossing(lambda g: pytest.fail("evaluated"), lo, hi)


class TestSignRule:
    """A sign change is one between f > 0 and f <= 0; an exact 0 is below and ends no search.

    On [1, 2**16] the pre-scan grid is the powers of two 2**0 .. 2**16."""

    GRID = [2.0**i for i in range(PRESCAN_POINTS)]

    @staticmethod
    def _search(f):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = find_crossing(f, 1.0, 2.0**16)
        return result, [str(w.message) for w in caught]

    def test_a_later_zero_does_not_hide_the_smallest_crossing(self):
        grid = self.GRID
        result, warned = self._search(lambda x: 1.0 if x < grid[1] else 0.0 if x == grid[5] else -1.0)
        assert result.status == "crossing" and grid[0] <= result.value <= grid[1]
        assert warned == []

    def test_a_zero_function_is_always_below(self):
        result, warned = self._search(lambda x: 0.0)
        assert result == CrossingResult("always_below", 0.0, PRESCAN_POINTS)
        assert warned == []

    @pytest.mark.parametrize("f, crossing", [
        (lambda x: 1.5 - x, 1.5),
        # below up to 1.9 and 0 at 1.5: that zero is on the side of f(1), so the search goes on past it
        (lambda x: 0.0 if x == 1.5 else -1.0 if x < 1.9 else 1.0, 1.9),
    ], ids=["zero_at_the_crossing", "zero_before_the_crossing"])
    def test_a_zero_at_the_first_midpoint_still_converges_on_the_crossing(self, f, crossing):
        points = []
        result, warned = self._search(lambda x: points.append(x) or f(x))
        assert points[PRESCAN_POINTS] == 1.5  # the first midpoint, of the bracket [1, 2]
        assert result.status == "crossing" and abs(result.value - crossing) <= REL_TOL * crossing
        assert warned == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pattern=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=PRESCAN_POINTS, max_size=PRESCAN_POINTS),
           between=st.sampled_from([-1.0, 0.0, 1.0]))
    def test_the_first_class_change_is_the_bracket(self, pattern, between):
        grid = self.GRID
        at = dict(zip(grid, pattern))
        result, warned = self._search(lambda x: at.get(x, between))  # ``between`` off the grid
        changes = [k for k in range(len(grid) - 1) if (pattern[k] > 0) != (pattern[k + 1] > 0)]
        if changes:
            k = changes[0]
            assert result.status == "crossing" and grid[k] <= result.value <= grid[k + 1]
        else:
            assert (result.status, result.value) == (("never_below", math.inf) if pattern[0] > 0 else ("always_below", 0.0))
        assert warned == ([f"{len(changes)} sign changes detected on the search range; returning the smallest"]
                          if len(changes) > 1 else [])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pattern=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=PRESCAN_POINTS, max_size=PRESCAN_POINTS))
    def test_a_sweep_brackets_the_changes_that_find_crossing_sees(self, pattern):
        grid, scenario = self.GRID, make_scenario()
        # each row's gap to its baseline is exactly its pattern value: (g + 1) - 1
        rows = [SweepRow((x,), scenario, CarbonBreakdown((g + 1.0,), 0.0, 0.0, 0.0), 1.0) for x, g in zip(grid, pattern)]
        brackets = [b for b in map(crossing, rows, rows[1:]) if b is not None]
        at = dict(zip(grid, pattern))
        result, warned = self._search(lambda x: at.get(x, 0.0))
        assert brackets == [(grid[k], grid[k + 1], "down" if pattern[k] > 0 else "up")
                            for k in range(len(grid) - 1) if (pattern[k] > 0) != (pattern[k + 1] > 0)]
        if brackets:
            assert result.status == "crossing" and brackets[0][0] <= result.value <= brackets[0][1]
        else:
            assert result.status == ("never_below" if pattern[0] > 0 else "always_below")
        assert warned == ([f"{len(brackets)} sign changes detected on the search range; returning the smallest"]
                          if len(brackets) > 1 else [])


class TestSweepAndSearchAgree:
    """A ``--baseline`` sweep of hybrid_2die_7nm over half of each prescan point of ``switch --integration
    hybrid_3d --node 7nm --range 1e6:1e10``: its rows are the designs that search builds, two dies of
    half the gates each, and the gaps change sign 11 times (``++-++-++-+-+-+---``)."""

    LO, HI = 1e6, 1e10

    def _scenario(self, registry):
        return load_scenario(next(p for p in CONFIGS if p.stem == "hybrid_2die_7nm"), registry)

    def _brackets(self, registry):
        grid = []
        find_crossing(lambda g: grid.append(g) or 1.0, self.LO, self.HI)  # the prescan points, and no bisection
        rows = list(sweep(self._scenario(registry), [SweepAxis("dies[*].gate_count", [g / 2 for g in grid])],
                          baseline=True))
        return [b for b in map(crossing, rows, rows[1:]) if b is not None]

    def test_the_sweep_reports_every_sign_change_in_both_directions(self, registry):
        brackets = self._brackets(registry)
        assert len(brackets) == 11
        assert [direction for _, _, direction in brackets] == ["down", "up"] * 5 + ["down"]

    def test_the_switch_crossing_lies_in_the_first_bracket(self, registry):
        with pytest.warns(CarbonModelWarning, match="^11 sign changes detected"):
            point = switching_point(self._scenario(registry), Integration.HYBRID_3D, "7nm", 2, self.LO, self.HI)
        a, b, direction = self._brackets(registry)[0]
        assert point.status == "crossing" and direction == "down"
        assert 2 * a <= point.gate_count <= 2 * b  # a sweep value is one die's gates, of two


class TestSwitchingPoint:
    def test_m3d_always_cheaper_on_bundled_fixture(self, registry):
        scn = make_scenario()
        point = switching_point(scn, Integration.M3D, "7nm", 2, 1e6, 1e11)
        assert point.status == "always_below"
        assert point.gate_count == 0.0

    def test_crossing_reports_area(self, registry):
        scn = make_scenario()
        with pytest.warns(CarbonModelWarning, match="sign changes"):  # ROADMAP item 2's rounding noise
            point = switching_point(scn, Integration.MICRO_3D, "7nm", 2, 1e6, 1e11)
        if point.status == "crossing":
            tech = registry.technology("7nm")
            expected = point.gate_count * tech.gate_area_scaling * tech.feature_size_cm**2
            assert point.area_cm2 == pytest.approx(expected, rel=1e-12)
        else:
            assert point.area_cm2 in (0.0, math.inf)

    @pytest.mark.parametrize("n_dies", [0, 2.5, 10**12])
    def test_a_bad_die_count_is_an_error_on_n_dies_before_any_die_is_made(self, monkeypatch, n_dies):
        monkeypatch.setattr(explorer, "_equal_split", lambda *a: pytest.fail("split"))
        with pytest.raises(OutOfRange, match="^n_dies: "):
            switching_point(make_scenario(), Integration.MCM, "7nm", n_dies, 1e6, 1e9)

    def test_only_the_schemes_leg_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(explorer, "build_design", lambda *a, **k: built.append(a[0]) or build_design(*a, **k))
        switching_point(make_scenario(), Integration.M3D, "7nm", 2, 1e6, 1e11)
        assert built == [Integration.M3D]

    @pytest.mark.parametrize("n_dies", [1, 0, 5000])
    def test_mono_2d_is_an_error_on_integration_before_anything_is_built(self, monkeypatch, n_dies):
        monkeypatch.setattr(explorer, "build_design", lambda *a, **k: pytest.fail("built"))
        monkeypatch.setattr(explorer, "_EmbodiedChain", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(InvalidCombination, match="^integration: mono_2d is the 2D baseline"):
            switching_point(make_scenario(), Integration.MONO_2D, "7nm", n_dies, 1e6, 1e9)

    def test_the_record_holds_the_die_count_searched(self):
        point = switching_point(make_scenario(), Integration.M3D, "7nm", 2.0, 1e6, 1e11)
        assert point.n_dies == 2 and type(point.n_dies) is int


class TestGammaPareto:
    def test_reference_normalizes_to_one(self):
        _, series = gamma_pareto(make_scenario(), [], 2, [0.0, 1.0, 2.0])
        assert series["reference"][1] == pytest.approx(1.0, rel=1e-12)

    def test_gamma_zero_row(self):
        scn = make_scenario()
        _, series = gamma_pareto(scn, [], 2, [0.0, 1.0])
        b = evaluate(dataclasses.replace(scn, gamma=1.0))
        expected = (b.c_operational * scn.usage.delay_s) / b.tcdp
        assert series["reference"][0] == pytest.approx(expected, rel=1e-12)

    def test_grid_pointwise_independence(self):
        scn = make_scenario()
        _, coarse = gamma_pareto(scn, [Integration.M3D], 2, [0.0, 1.0])
        _, fine = gamma_pareto(scn, [Integration.M3D], 2, [0.0, 0.5, 1.0])
        for name in ("reference", "m3d"):
            assert coarse[name][0] == fine[name][0]
            assert coarse[name][1] == fine[name][2]

    def test_no_gammas_is_an_error(self):
        with pytest.raises(OutOfRange, match="^gammas: "):
            gamma_pareto(make_scenario(), [], 2, [])

    def test_a_repeated_name_is_an_error_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr(explorer, "build_design", lambda *a, **k: pytest.fail("built"))
        monkeypatch.setattr(explorer, "evaluate", lambda *a, **k: pytest.fail("evaluated"))
        # a member and its value are one scheme
        schemes = [Integration.M3D, "mono_2d", "m3d", "hybrid_3d", Integration.MONO_2D]
        with pytest.raises(OutOfRange, match="^integrations: names m3d, mono_2d more than once$"):
            gamma_pareto(make_scenario(), schemes, 2, [0.0, 1.0])

    def test_a_scheme_is_read_from_a_member_or_its_value(self):
        scn = make_scenario()
        by_member = gamma_pareto(scn, [Integration.M3D, Integration.MCM], 2, [1.0])
        assert by_member == gamma_pareto(scn, ["m3d", "mcm"], 2, [1.0])
        with pytest.raises(OutOfRange, match=r"^integrations\[1\]: 'hybrid' is not one of: mono_2d, "):
            gamma_pareto(scn, ["m3d", "hybrid"], 2, [1.0])

    @pytest.mark.parametrize("n_dies, message", [(1, "mcm requires >= 2 dies, got 1"), (2.5, "expected an integer")])
    def test_a_bad_die_count_is_an_error_on_n_dies_before_any_evaluation(self, monkeypatch, n_dies, message):
        monkeypatch.setattr(explorer, "evaluate", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(ValidationError, match=f"^n_dies: {re.escape(message)}"):
            gamma_pareto(make_scenario(), [Integration.MONO_2D, Integration.MCM], n_dies, [1.0])

    def test_a_one_die_variant_bounds_the_die_count_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr(explorer, "evaluate", lambda *a, **k: pytest.fail("evaluated"))
        with pytest.raises(OutOfRange, match=r"^n_dies: must be in \[1, 1000\]$"):
            gamma_pareto(make_scenario(), [Integration.MONO_2D], 0, [1.0])

    def test_monotone_in_gamma(self):
        _, series = gamma_pareto(make_scenario(), [Integration.MONO_2D], 2, [0.0, 0.5, 1.0, 2.0, 4.0])
        assert list(series) == ["reference", "mono_2d"]
        for values in series.values():
            assert list(values) == sorted(values)


class TestBuildDesign:
    def test_facing_rules(self):
        scn = make_scenario()
        tech = scn.design.dies[0].technology
        wiring = scn.design.dies[0].wiring
        two = build_design(Integration.MICRO_3D, tech, wiring, 2, 1e9)
        four = build_design(Integration.MICRO_3D, tech, wiring, 4, 1e9)
        assert two.facing.value == "f2f" and four.facing.value == "f2b"
        mono = build_design(Integration.MONO_2D, tech, wiring, 4, 1e9)
        assert len(mono.dies) == 1
        assert mono.dies[0].gate_count == 1e9

    @pytest.mark.parametrize("n_dies", [0, -3, 1001])
    def test_a_one_die_scheme_bounds_the_count_before_it_takes_1(self, monkeypatch, n_dies):
        die = make_scenario().design.dies[0]
        monkeypatch.setattr(explorer, "_equal_split", lambda *a: pytest.fail("split"))
        with pytest.raises(OutOfRange) as caught:
            build_design(Integration.MONO_2D, die.technology, die.wiring, n_dies, 1e9)
        assert str(caught.value) == "n_dies: must be in [1, 1000]"

    @pytest.mark.parametrize("n_dies, error, message", [
        (0, OutOfRange, "must be in [1, 1000]"),
        (2.5, OutOfRange, "expected an integer, got 2.5"),
        (10**12, OutOfRange, "must be in [1, 1000]"),
        (1, InvalidCombination, "mcm requires >= 2 dies, got 1"),
    ])
    def test_a_bad_die_count_is_refused_before_any_die_is_made(self, monkeypatch, n_dies, error, message):
        die = make_scenario().design.dies[0]
        monkeypatch.setattr(explorer, "_equal_split", lambda *a: pytest.fail("split"))
        with pytest.raises(error) as caught:
            build_design(Integration.MCM, die.technology, die.wiring, n_dies, 1e9)
        assert type(caught.value) is error and str(caught.value) == f"n_dies: {message}"


def test_gamma_pareto_zero_reference_tcdp_is_a_typed_error():
    design = make_design(tech=make_tech(gpa=0.0, mpa=0.0))
    profiles = make_profiles()
    profiles = dataclasses.replace(
        profiles, packaging=dataclasses.replace(profiles.packaging, cpa_packaging=0.0)
    )
    scn = dataclasses.replace(
        make_scenario(design=design),
        profiles=profiles,
        environment=make_env(ci_fab=0.0, ci_use=0.0, ci_bonding=0.0),
    )
    with pytest.raises(UnsupportedConfiguration, match="tCDP"):
        gamma_pareto(scn, [], 2, [0.0, 1.0])


class TestNodesResolveThroughTheScenarioRegistry:
    """A node named after loading resolves in the fixtures the scenario was loaded from."""

    CONFIG = Path(__file__).resolve().parent.parent / "configs" / "hybrid_2die_7nm.json"

    def _fixtures(self, tmp_path, **fields):
        root = tmp_path / "fixtures"
        shutil.copytree(_BUNDLED_DIR, root)
        file = root / "nodes" / "7nm.json"
        file.write_text(json.dumps({**json.loads(file.read_text()), **fields}))
        return root

    def test_technology_axis_and_apply_parameter(self, tmp_path):
        scenario = load_scenario(self.CONFIG, FixtureRegistry(self._fixtures(tmp_path, defect_density_d0=0.5)))
        expected = evaluate(scenario).c_embodied_overall
        (row,) = sweep(scenario, [SweepAxis("technology", ["7nm"])])
        assert row.breakdown.c_embodied_overall == expected
        assert evaluate(apply_parameter(scenario, "technology", "7nm")).c_embodied_overall == expected

    def test_switching_point_matches_switch_on_the_same_fixtures(self, tmp_path, capsys, monkeypatch):
        root = self._fixtures(tmp_path, gate_area_scaling=400)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CarbonModelWarning)
            scenario = load_scenario(self.CONFIG, FixtureRegistry(root))
            point = switching_point(scenario, Integration.HYBRID_3D, "7nm", 2, 1e6, 1e11)
            bundled = switching_point(load_scenario(self.CONFIG), Integration.HYBRID_3D, "7nm", 2, 1e6, 1e11)
        assert point.status == bundled.status == "crossing" and point.gate_count != bundled.gate_count

        monkeypatch.setenv("CARBON3D_FIXTURES", str(root))
        argv = ["switch", "-c", str(self.CONFIG), "--integration", "hybrid_3d", "--node", "7nm", "--range", "1e6:1e11"]
        assert main(argv) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("hybrid_3d,")]
        assert line.split(",")[3:5] == [point.status, format(point.gate_count, ".9g")]


class TestSwitchingPointMatchesTheFullPipeline:
    """The search validates each leg once and runs the embodied chain only; its result must
    be the one found over full evaluations of a validated design at every g."""

    CONFIG = Path(__file__).resolve().parent.parent / "configs" / "hybrid_2die_7nm.json"
    RANGES = ((1e6, 1e10), (3e7, 4e9))

    @staticmethod
    def _reference(base, integration, node, n_dies, lo, hi, stacking):
        tech, wiring = base.registry.technology(node), base.registry.default_wiring(node)

        def embodied(integ, g):
            design = build_design(integ, tech, wiring, n_dies, g, stacking=stacking)
            return evaluate(dataclasses.replace(base, design=design)).c_embodied_overall

        result = find_crossing(lambda g: embodied(integration, g) - embodied(Integration.MONO_2D, g), lo, hi)
        area = area_2d(result.value, tech) if math.isfinite(result.value) else math.inf
        return explorer.SwitchingPoint(integration.value, node, n_dies, result.status, result.value, area)

    @staticmethod
    def _cases():
        for integ in Integration:
            if integ is Integration.MONO_2D:
                continue
            for node, n_dies in itertools.product(("5nm", "7nm", "14nm"), (2, 4)):
                if integ.rules.admits(n_dies):
                    for stacking in integ.rules.stackings if len(integ.rules.stackings) > 1 else (Stacking.D2W,):
                        yield integ, node, n_dies, stacking

    def test_every_case_equals_the_reference(self):
        base = load_scenario(self.CONFIG)
        cases = list(self._cases())
        assert len(cases) == 51
        statuses = collections.Counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CarbonModelWarning)
            for (integ, node, n_dies, stacking), (lo, hi) in itertools.product(cases, self.RANGES):
                point = switching_point(base, integ, node, n_dies, lo, hi, stacking=stacking)
                assert point == self._reference(base, integ, node, n_dies, lo, hi, stacking), (integ, node, n_dies)
                statuses[point.status] += 1
        assert statuses["crossing"] > 0 and statuses["always_below"] > 0
