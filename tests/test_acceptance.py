"""Acceptance suite: one test per release criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Criterion 2's constants are cross-checked at runtime against the
arbitrary-precision re-derivation script in tools/rederive_oracles.py.
"""

import dataclasses
import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import pytest

from carbon3d import (
    Integration,
    PackagingProfile,
    Scenario,
    Stacking,
    UsageProfile,
    average_wire_length,
    build_design,
    die_yield_negbin,
    dies_per_wafer,
    evaluate,
    find_crossing,
    tsv_count_f2b,
)
from carbon3d.cli import main as cli_main

from conftest import (
    basic_document,
    make_design,
    make_env,
    make_profiles,
    make_scenario,
    make_usage,
    make_tech,
    make_wiring,
    stack_yields,
    write_config,
)


def _report(number: int, text: str):
    print(f"[ACCEPTANCE] criterion {number}: PASS - {text}")


def _rederived():
    path = Path(__file__).resolve().parent.parent / "tools" / "rederive_oracles.py"
    spec = importlib.util.spec_from_file_location("rederive_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# 1. 2D reduction
# ---------------------------------------------------------------------------

def test_criterion_1_2d_reduction():
    rng = random.Random(101)
    for _ in range(100):
        layers = rng.randint(1, 10)
        tech = make_tech(
            epa_feol=rng.uniform(0.24, 0.56),
            epa_mol=rng.uniform(0.08, 0.23),
            epa_beol_per_layer=tuple(rng.uniform(0.6, 1.81) for _ in range(12)),
            max_beol_layers=12,
            gpa=rng.uniform(0.1, 0.5),
            mpa=rng.uniform(0.3, 0.7),
            defect_density_d0=rng.uniform(0.0, 0.3),
            cluster_alpha=rng.uniform(0.5, 10.0),
        )
        env = make_env(
            ci_fab=rng.uniform(0.0, 0.7),
            ci_use=rng.uniform(0.0, 0.7),
            wafer_diameter_cm=rng.uniform(20.0, 45.0),
        )
        packaging = PackagingProfile(
            cpa_packaging=rng.uniform(0.0, 0.3),
            s_package_3d=rng.uniform(1.0, 2.0),
            s_package_25d=rng.uniform(1.0, 2.0),
            s_substrate_25d=rng.uniform(1.0, 2.0),
        )
        area = rng.uniform(0.05, 5.0)
        design = make_design(Integration.MONO_2D, explicit_areas=[area],
                             explicit_beol=layers, tech=tech)
        profiles = dataclasses.replace(make_profiles(), packaging=packaging)
        got = evaluate(Scenario(design, profiles, env, make_usage(), 1.0)).c_embodied_overall

        # direct Eq.-style evaluation: single wafer share + package, no pipeline
        epa = tech.epa_feol + tech.epa_mol + sum(tech.epa_beol_per_layer[:layers])
        wafer_area = math.pi * (env.wafer_diameter_cm / 2.0) ** 2
        dpw = math.floor(wafer_area / area - math.pi * env.wafer_diameter_cm / math.sqrt(2.0 * area))
        y = (1.0 + area * tech.defect_density_d0 / tech.cluster_alpha) ** (-tech.cluster_alpha)
        want = (env.ci_fab * epa + tech.gpa + tech.mpa) * wafer_area / dpw / y
        want += packaging.cpa_packaging * packaging.s_package_25d * area
        assert got == pytest.approx(want, rel=1e-12)
    _report(1, "mono-2D pipeline equals the direct formula on 100 random parameter sets (rel < 1e-12)")


# ---------------------------------------------------------------------------
# 2. Formula oracles
# ---------------------------------------------------------------------------

def test_criterion_2_formula_oracles():
    oracle = _rederived()

    assert dies_per_wafer(30.0, 1.0) == 640
    assert math.floor(float(oracle.dies_per_wafer_raw(30, 1))) == 640

    assert die_yield_negbin(1.0, 0.1, 3.0) == pytest.approx(0.9063, abs=5e-5)
    assert die_yield_negbin(1.0, 0.1, 3.0) == pytest.approx(
        float(oracle.negbin_yield(1, "0.1", 3)), rel=1e-12
    )

    # The committed arbitrary-precision re-derivation gives a raw count of
    # 7711.868, hence 7712 after the ceiling rule.
    wiring = make_wiring(rent_k=4.0, rent_p=0.6, rent_alpha=1.0)
    raw = float(oracle.tsv_count_raw(10**6, 10**6, 4, "0.6", 1))
    assert raw == pytest.approx(7711.868, abs=1e-2)
    assert tsv_count_f2b(1e6, 1e6, wiring) == math.ceil(raw) == 7712

    assert average_wire_length(0.6, 4) == pytest.approx(10.30, abs=0.01)
    assert average_wire_length(0.6, 4) == pytest.approx(
        float(oracle.average_wire_length("0.6", 4)), rel=1e-12
    )
    _report(2, "DPW=640, negbin=0.9063, Rent TSV=7712 (raw 7711.868), Lbar=10.30, all re-derived")


# ---------------------------------------------------------------------------
# 3. Yield composition
# ---------------------------------------------------------------------------

def test_criterion_3_w2w_vs_d2w():
    rng = random.Random(103)
    for trial in range(1000):
        n = rng.randint(2, 5)
        if trial % 11 == 0:
            d0s = [0.0] * n  # every die yields 1
        elif trial % 7 == 0:
            d0s = [0.0 if rng.random() < 0.5 else rng.uniform(1e-6, 0.5) for _ in range(n)]
            if all(d0 == 0.0 for d0 in d0s):
                d0s[0] = 0.3
        else:
            d0s = [rng.uniform(1e-6, 0.5) for _ in range(n)]
        gates = [rng.uniform(1e8, 4e9) for _ in range(n)]
        bond_yield = rng.uniform(0.8, 1.0)

        d2w = stack_yields(Integration.HYBRID_3D, d0s, gates, Stacking.D2W, bond_yield=bond_yield)
        w2w = stack_yields(Integration.HYBRID_3D, d0s, gates, Stacking.W2W, bond_yield=bond_yield)

        for yw, yd in zip(w2w.effective_die_y, d2w.effective_die_y):
            assert yw <= yd
            assert 0.0 < yw <= 1.0 and 0.0 < yd <= 1.0
        if all(y == 1.0 for y in d2w.standalone_die_y):
            assert w2w.effective_die_y == d2w.effective_die_y
        else:
            assert w2w.effective_die_y != d2w.effective_die_y
    _report(3, "W2W <= D2W with equality iff all die yields are 1, on 1000 random yield vectors")


# ---------------------------------------------------------------------------
# 4. Monotonicity suite
# ---------------------------------------------------------------------------

def test_criterion_4_monotonicity():
    rng = random.Random(104)
    integrations = [
        Integration.MONO_2D, Integration.MICRO_3D, Integration.HYBRID_3D,
        Integration.MCM, Integration.INFO_CHIP_FIRST, Integration.INFO_CHIP_LAST,
        Integration.SI_INTERPOSER,
    ]
    # the surveyed box parameters, each with the section it lies in; raising one never lowers the carbon
    box = {"ci_fab": "env", "ci_bonding": "env", "epa_feol": "tech", "epa_mol": "tech",
           "epa_beol_per_layer": "tech", "gpa": "tech", "mpa": "tech", "epa_d2w": "bonding",
           "epa_w2w": "bonding", "cpa_bonding": "bonding", "cpa_rdl": "bonding"}
    kinds = ("die_area", "d0", "beol_layers", "cpa_packaging",
             "bond_yield", "rdl_yield", "die_yield_via_alpha", *box)
    for trial in range(500):
        # every kind meets every scheme
        integ = integrations[trial % len(integrations)]
        kind = kinds[trial // len(integrations) % len(kinds)]
        area = rng.uniform(0.2, 2.0)
        layers = rng.randint(2, 8)
        d0 = rng.uniform(0.02, 0.2)

        def scenario(area=area, layers=layers, d0=d0, bond=0.99, rdl=0.9, cpa=0.1, tech=(), env=(), bonding=()):
            tech = make_tech(defect_density_d0=d0, **dict(tech))
            profiles = make_profiles()
            profiles = dataclasses.replace(
                profiles,
                bonding=dataclasses.replace(profiles.bonding, bond_yield=bond, rdl_yield=rdl, **dict(bonding)),
                packaging=dataclasses.replace(profiles.packaging, cpa_packaging=cpa),
            )
            design = make_design(integ, n=2, explicit_areas=[area / 2, area / 2],
                                 explicit_beol=layers, tech=tech)
            return Scenario(design, profiles, make_env(**dict(env)), make_usage(), 1.0)

        def emb(**kw):
            return evaluate(scenario(**kw)).c_embodied_overall

        if kind in box:
            nominal = {"env": make_env(), "tech": make_tech(), "bonding": make_profiles().bonding}[box[kind]]
            value, up = getattr(nominal, kind), rng.uniform(1.05, 3.0)
            if kind == "epa_beol_per_layer":  # one layer's energy
                i = rng.randrange(len(value))
                raised = value[:i] + (value[i] * up,) + value[i + 1:]
            else:
                raised = value * up
            assert emb(**{box[kind]: {kind: raised}}) >= emb(), (kind, integ)
        elif kind == "die_area":
            assert emb(area=area * rng.uniform(1.05, 2.0)) >= emb()
        elif kind == "d0":
            assert emb(d0=d0 * rng.uniform(1.05, 3.0)) >= emb()
        elif kind == "beol_layers":
            assert emb(layers=layers + rng.randint(1, 4)) >= emb()
        elif kind == "cpa_packaging":
            assert emb(cpa=0.1 * rng.uniform(1.05, 3.0)) >= emb()
        elif kind == "bond_yield":
            assert emb(bond=0.999) <= emb(bond=rng.uniform(0.7, 0.99))
        elif kind == "rdl_yield":
            assert emb(rdl=0.99) <= emb(rdl=rng.uniform(0.6, 0.9))
        else:  # higher clustering alpha lowers the standalone die yield
            base = emb()
            tech_low_yield = make_tech(defect_density_d0=d0, cluster_alpha=30.0)
            design = make_design(integ, n=2, explicit_areas=[area / 2, area / 2],
                                 explicit_beol=layers, tech=tech_low_yield)
            worse = evaluate(Scenario(design, scenario().profiles, make_env(), make_usage(), 1.0)).c_embodied_overall
            assert worse >= base
    _report(4, "embodied carbon monotone under 500 one-parameter perturbations, every kind on every scheme")


# ---------------------------------------------------------------------------
# 5. Gamma affinity
# ---------------------------------------------------------------------------

def test_criterion_5_gamma_affinity():
    rng = random.Random(105)
    integrations = list(Integration)
    for trial in range(50):
        integ = integrations[trial % len(integrations)]
        scn = make_scenario(design=make_design(integ, n=2, gate_count=rng.uniform(1e8, 4e9)))
        f = {g: evaluate(dataclasses.replace(scn, gamma=g)).c_total for g in (0.0, 1.0, 2.0)}
        ref = evaluate(dataclasses.replace(scn, gamma=1.0))
        slope1 = f[1.0] - f[0.0]
        slope2 = f[2.0] - f[1.0]
        assert slope1 == pytest.approx(slope2, rel=1e-12)
        assert f[2.0] == pytest.approx(f[1.0] + slope1, rel=1e-12)
        assert f[0.0] == ref.c_operational
        assert slope1 == pytest.approx(ref.c_embodied_amortized, rel=1e-12)
    _report(5, "C_total(gamma) affine with intercept C_operational and slope C_embodied_amortized")


# ---------------------------------------------------------------------------
# 6. Switching-point soundness
# ---------------------------------------------------------------------------

def test_criterion_6_switching_points():
    a, b, c = 3.0e-9, 1.0e-9, 4.2
    g_star = c / (a - b)
    crossing = find_crossing(lambda g: (b * g + c) - a * g, 1e6, 1e12)
    assert crossing.status == "crossing"
    assert abs(crossing.value - g_star) / g_star < 1e-3

    always = find_crossing(lambda g: -0.5, 1e6, 1e12)
    assert always.status == "always_below" and always.value == 0.0

    never = find_crossing(lambda g: 0.5, 1e6, 1e12)
    assert never.status == "never_below" and math.isinf(never.value)
    _report(6, "bisection hits c/(a-b) within 0.1%; constant signs yield the 0 / inf sentinels")


# ---------------------------------------------------------------------------
# 7. Default-fixture integration-technology trends
# ---------------------------------------------------------------------------

def test_criterion_7_default_fixture_trends(registry):
    usage = UsageProfile(t_app_hours=8766.0, t_exe_hours=26298.0, power_density=25.0, delay_s=1.0)
    profiles = dataclasses.replace(
        make_profiles(),
        bonding=registry.bonding(),
        packaging=registry.packaging(),
        interposer_technology=registry.technology("28nm"),
    )
    env = registry.environment()
    areas = (0.25, 0.5, 1.0, 2.0, 4.0)
    nodes = ("14nm", "7nm", "5nm")

    def emb(integ, tech, wiring, gates, gamma=1.0):
        design = build_design(integ, tech, wiring, 2, gates)
        return evaluate(Scenario(design, profiles, env, usage, gamma))

    beats_2d_at_low_gamma = 0
    for node in nodes:
        tech = registry.technology(node)
        wiring = registry.default_wiring(node)
        for area in areas:
            gates = area / (tech.gate_area_scaling * tech.feature_size_cm**2)
            micro = emb(Integration.MICRO_3D, tech, wiring, gates)
            hybrid = emb(Integration.HYBRID_3D, tech, wiring, gates)
            m3d = emb(Integration.M3D, tech, wiring, gates)
            first = emb(Integration.INFO_CHIP_FIRST, tech, wiring, gates)
            last = emb(Integration.INFO_CHIP_LAST, tech, wiring, gates)
            assert hybrid.c_embodied_overall <= micro.c_embodied_overall
            assert m3d.c_embodied_overall <= micro.c_embodied_overall
            assert first.c_embodied_overall >= last.c_embodied_overall

            mono = emb(Integration.MONO_2D, tech, wiring, gates, gamma=0.1)
            for contender in (Integration.MICRO_3D, Integration.HYBRID_3D, Integration.M3D):
                got = emb(contender, tech, wiring, gates, gamma=0.1)
                if got.tcdp < mono.tcdp:
                    beats_2d_at_low_gamma += 1
                    break
    assert beats_2d_at_low_gamma == len(nodes) * len(areas)
    _report(7, "hybrid & M3D <= micro, chip-first >= chip-last, and 3D beats 2D tCDP at gamma=0.1 "
               "on the 5-area x 3-node bundled-fixture sweep")


# ---------------------------------------------------------------------------
# 8. Decomposition closure and CSV round-trip
# ---------------------------------------------------------------------------

def test_criterion_8_closure_and_csv_roundtrip(tmp_path, capsys):
    config = write_config(tmp_path, basic_document())
    assert cli_main(["estimate", "-c", str(config), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    b = doc["breakdown"]
    assert b["c_embodied_overall"] == b["c_die"] + b["c_bonding"] + b["c_packaging"] + b["c_substrate"]

    out = tmp_path / "sweep.csv"
    assert cli_main([
        "sweep", "-c", str(config), "--axis", "dies[*].gate_count=2e8,5e8,1e9,2e9", "--out", str(out),
    ]) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    from carbon3d.explorer import apply_parameter
    from carbon3d.params import load_scenario
    scenario = load_scenario(config, gamma=1.0)
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        scn = apply_parameter(scenario, "dies[*].gate_count", float(row["dies[*].gate_count"]))
        breakdown = evaluate(scn)
        for column, value in (
            ("c_die", breakdown.c_die),
            ("c_embodied_overall", breakdown.c_embodied_overall),
            ("c_total", breakdown.c_total),
            ("tcdp", breakdown.tcdp),
        ):
            parsed = float(row[column])
            assert parsed == pytest.approx(value, rel=1e-8), column  # 9 significant digits
    _report(8, "emitted totals close exactly; re-parsed CSV matches memory to 9 significant digits")


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    config = write_config(tmp_path, basic_document())
    values = ",".join(f"{2e8 + 1.7e6 * i:.6g}" for i in range(1000))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "-c", str(config), "--axis", f"dies[*].gate_count={values}", "--out", str(out_a)]) == 0
    assert cli_main(["sweep", "-c", str(config), "--axis", f"dies[*].gate_count={values}", "--out", str(out_b)]) == 0
    body_a = out_a.read_bytes()
    assert len(body_a.splitlines()) == 1004  # 3 metadata + header + 1000 rows
    assert body_a == out_b.read_bytes()
    _report(9, "two identical 1000-row sweeps produce byte-identical CSV files")
