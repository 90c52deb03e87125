import dataclasses
import json
import math
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from carbon3d import (
    BondingProfile,
    DesignSpec,
    DieSpec,
    FabEnvironment,
    Integration,
    PackagingProfile,
    Stacking,
    UsageProfile,
    WiringParameters,
    evaluate,
    load_scenario,
    switching_point,
)
from carbon3d import explorer, params
from carbon3d.cli import build_parser, main
from carbon3d.errors import CarbonModelWarning
from carbon3d.params import _BUNDLED_DIR

from conftest import basic_document, write_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _config_path(tmp_path, name: str) -> Path:
    """A committed config, or with a ``-reversed`` suffix a copy that lists its dies in reverse order."""
    stem, _, reversed_ = name.partition("-")
    if not reversed_:
        return CONFIG_DIR / f"{stem}.json"
    doc = json.loads((CONFIG_DIR / f"{stem}.json").read_text(encoding="utf-8"))
    doc["design"]["dies"].reverse()
    return write_config(tmp_path, doc)


def _recorded_builds(monkeypatch) -> list:
    """The list that each ``explorer.build_design`` result is appended to, from now on."""
    built, original = [], explorer.build_design
    monkeypatch.setattr(explorer, "build_design", lambda *a, **k: built.append(original(*a, **k)) or built[-1])
    return built


def parse_csv(text):
    meta = [l for l in text.splitlines() if l.startswith("#")]
    data = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in data[1:]]
    return meta, header, rows


class TestEstimate:
    def test_json_report_closure(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        assert main(["estimate", "-c", str(path), "--gamma", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        b = doc["breakdown"]
        assert b["c_embodied_overall"] == b["c_die"] + b["c_bonding"] + b["c_packaging"] + b["c_substrate"]
        assert doc["schema_version"] == "1"
        assert doc["inputs_digest"].startswith("sha256:")

    def test_bad_config_exits_2_and_names_key(self, tmp_path, capsys):
        doc = basic_document()
        del doc["design"]["dies"][0]["gate_count"]
        path = write_config(tmp_path, doc)
        assert main(["estimate", "-c", str(path)]) == 2
        err = capsys.readouterr().err
        assert "dies[0]" in err

    def test_missing_file_exits_2(self, capsys):
        assert main(["estimate", "-c", "/nonexistent/x.json"]) == 2

    def test_breakdown_rows_sum_to_total(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        assert main(["estimate", "-c", str(path), "--format", "csv", "--breakdown"]) == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        cells = {r["component"]: float(r["value"]) for r in rows}
        # each cell is quantized to 9 significant digits, so the sum check
        # carries up to ~3 half-ulps of that quantization
        assert cells["c_die[0]"] + cells["c_die[1]"] == pytest.approx(cells["c_die"], rel=5e-9)

    def test_table_output(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        assert main(["estimate", "-c", str(path)]) == 0
        out = capsys.readouterr().out
        assert "embodied (overall)" in out and "g CO2e" in out

    def test_digest_stable_across_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        main(["estimate", "-c", str(path), "--format", "json"])
        first = json.loads(capsys.readouterr().out)["inputs_digest"]
        main(["estimate", "-c", str(path), "--format", "json"])
        second = json.loads(capsys.readouterr().out)["inputs_digest"]
        assert first == second


class TestSweep:
    def test_row_count_and_roundtrip(self, tmp_path):
        path = write_config(tmp_path, basic_document())
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "-c", str(path),
            "--axis", "technology=14nm,7nm,5nm",
            "--axis", "dies[*].gate_count=5e8,1e9",
            "--out", str(out),
        ])
        assert code == 0
        meta, header, rows = parse_csv(out.read_text())
        assert len(rows) == 6
        assert any("schema_version=1" in m for m in meta)

        # re-parse matches an in-memory evaluation to CSV precision
        scenario = load_scenario(path, gamma=1.0)
        from carbon3d.explorer import apply_parameter
        scn = apply_parameter(scenario, "technology", "14nm")
        scn = apply_parameter(scn, "dies[*].gate_count", 5e8)
        b = evaluate(scn)
        row = rows[0]
        assert float(row["c_embodied_overall"]) == pytest.approx(b.c_embodied_overall, rel=1e-8)
        assert float(row["c_total"]) == pytest.approx(b.c_total, rel=1e-8)

    def test_axis_parse_error_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        assert main(["sweep", "-c", str(path), "--axis", "garbage"]) == 2

    def test_technology_axis_takes_node_names_as_typed(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, basic_document())
        assert main(["sweep", "-c", str(path), "--axis", "technology=7"]) == 2
        assert "technology: unknown node '7';" in capsys.readouterr().err

        root = tmp_path / "fixtures"
        shutil.copytree(_BUNDLED_DIR, root)
        shutil.copy(root / "nodes" / "7nm.json", root / "nodes" / "7.json")
        monkeypatch.setenv("CARBON3D_FIXTURES", str(root))
        assert main(["sweep", "-c", str(path), "--axis", "technology=7nm"]) == 0
        _, _, (same_profile,) = parse_csv(capsys.readouterr().out)
        for axis in ("technology", "design.dies[*].technology", "dies[0].technology"):
            assert main(["sweep", "-c", str(path), "--axis", f"{axis}= 7", "--axis", "gamma=1"]) == 0
            _, _, (row,) = parse_csv(capsys.readouterr().out)
            assert row.pop(axis) == "7" and row.pop("gamma") == "1"
            assert row == {k: v for k, v in same_profile.items() if k != "technology"}

    @pytest.mark.parametrize("first, second, expected", [
        ("gamma=0", "gamma=2", "gamma"),
        ("technology=5nm", "dies[*].technology=7nm", "dies[*].technology"),
    ])
    def test_two_axes_on_one_parameter_exit_2(self, tmp_path, capsys, first, second, expected):
        path = write_config(tmp_path, basic_document())
        assert main(["sweep", "-c", str(path), "--axis", first, "--axis", second]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: more than one axis sets {expected}\n"

    def test_overlapping_axes_apply_in_order(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        argv = ["sweep", "-c", str(path), "--axis", "dies[*].gate_count=1e9", "--axis", "dies[0].gate_count=2e9"]
        assert main(argv) == 0
        _, _, (row,) = parse_csv(capsys.readouterr().out)
        scenario = load_scenario(path)
        scenario = dataclasses.replace(scenario, design=dataclasses.replace(scenario.design, dies=(
            dataclasses.replace(scenario.design.dies[0], gate_count=2e9),
            dataclasses.replace(scenario.design.dies[1], gate_count=1e9),
        )))
        assert row["c_total"] == format(evaluate(scenario).c_total, ".9g")

    def test_no_partial_files_on_failure(self, tmp_path):
        path = write_config(tmp_path, basic_document())
        out = tmp_path / "never.csv"
        code = main(["sweep", "-c", str(path), "--axis", "dies[*].bogus=1,2", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("to_files", [False, True])
    def test_failing_last_row_leaves_no_output(self, tmp_path, capsys, monkeypatch, to_files):
        # rows are written as they arrive, so the first two are on disk when the third fails
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        path = write_config(tmp_path, basic_document())
        argv = ["sweep", "-c", str(path), "--baseline", "--axis", "bonding.bond_yield=0.9,0.95,1.5"]
        if to_files:
            argv += ["--out", str(tmp_path / "s.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bonding.bond_yield: must be in (0, 1]\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestMainInOneProcess:
    """main() builds its parser once per process; a call must not see an earlier one."""

    CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "mcm_hetero_4die.json")
    SEQUENCE = (
        ("sweep", "-c", CONFIG, "--baseline", "--axis", "dies[*].gate_count=1e8,3e8", "--axis", "gamma=1,2"),
        ("sweep", "-c", CONFIG, "--axis", "garbage"),
        ("estimate", "-c", CONFIG, "--format", "xml"),
        ("estimate", "-c", CONFIG, "--format", "csv", "--breakdown"),
    )

    def test_sequence_matches_each_call_alone(self, capsys, monkeypatch):
        monkeypatch.delenv("CARBON3D_FIXTURES", raising=False)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        alone = []
        for argv in self.SEQUENCE:
            done = subprocess.run([sys.executable, "-m", "carbon3d.cli", *argv], capture_output=True, text=True, env=env)
            alone.append((done.returncode, done.stdout, done.stderr))

        in_sequence = []
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the option
                code = exc.code
            out = capsys.readouterr()
            in_sequence.append((code, out.out, out.err))
        assert in_sequence == alone
        assert [code for code, _, _ in alone] == [0, 2, 2, 0]
        assert "heterogeneous-node design" in alone[0][2] and "invalid choice" in alone[2][2]
        assert build_parser() is build_parser()


class TestSwitch:
    def test_matches_library_result(self, tmp_path, capsys, registry):
        path = write_config(tmp_path, basic_document())
        code = main([
            "switch", "-c", str(path), "--integration", "hybrid_3d",
            "--node", "7nm", "--dies", "2", "--range", "1e6:1e11",
        ])
        assert code == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        scenario = load_scenario(path, registry, gamma=1.0)
        with pytest.warns(CarbonModelWarning, match="sign changes"):  # ROADMAP item 2's rounding noise
            point = switching_point(scenario, Integration.HYBRID_3D, "7nm", 2, 1e6, 1e11)
        assert rows[0]["status"] == point.status
        if point.status == "crossing":
            assert float(rows[0]["gate_count"]) == pytest.approx(point.gate_count, rel=1e-8)

    def test_require_crossing_exit_3(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        # m3d never crosses on the bundled fixture: always cheaper -> status 0
        code = main([
            "switch", "-c", str(path), "--integration", "m3d",
            "--node", "7nm", "--dies", "2", "--require-crossing",
        ])
        assert code == 3

    def test_inf_sentinel_in_csv(self, tmp_path, capsys):
        doc = basic_document()
        path = write_config(tmp_path, doc)
        # a sky-high bonding yield penalty makes chip-first InFO never cheaper
        code = main([
            "switch", "-c", str(path), "--integration", "info_chip_first",
            "--node", "7nm", "--dies", "2", "--range", "1e6:1e9",
        ])
        assert code == 0
        _, _, rows = parse_csv(capsys.readouterr().out)
        if rows[0]["status"] == "never_below":
            assert math.isinf(float(rows[0]["gate_count"]))


class TestSwitchReadsEmbodiedCarbonOnly:
    """switch reports embodied carbon only, so operational carbon, which it never
    computes, cannot fail it; an overflow of the embodied chain still does."""

    CONFIG = Path(__file__).resolve().parent.parent / "configs" / "hybrid_2die_7nm.json"
    ARGV = ["switch", "--integration", "hybrid_3d", "--node", "7nm", "--range", "1e6:1e10"]

    def _edited(self, tmp_path, section, **fields):
        doc = json.loads(self.CONFIG.read_text())
        doc[section].update(fields)
        return write_config(tmp_path, doc)

    def test_operational_overflow_leaves_the_output_unchanged(self, tmp_path, capsys):
        hot = self._edited(tmp_path, "usage", power_density=1e308)
        assert main(self.ARGV + ["-c", str(hot)]) == 0
        hot_out = capsys.readouterr().out.splitlines()
        assert main(self.ARGV + ["-c", str(self.CONFIG)]) == 0
        plain_out = capsys.readouterr().out.splitlines()
        assert len(hot_out) == len(plain_out)
        differing = [(a, b) for a, b in zip(hot_out, plain_out) if a != b]
        assert [a.split("=")[0] for a, _ in differing] == ["# inputs_digest"]

        assert main(["estimate", "-c", str(hot), "--format", "csv"]) == 2
        assert "a result is not finite" in capsys.readouterr().err

    def test_embodied_overflow_exits_2(self, tmp_path, capsys):
        path = self._edited(tmp_path, "environment", ci_fab=1e308)
        assert main(self.ARGV + ["-c", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: inputs outside the model's numeric range: a result is not finite" in out.err.splitlines()


class TestSharedDiesKeepTheStderr:
    """A split design's equal dies are one object, so a die-per-wafer clamp among them warns once
    per chain call, not once per die; the CLI prints each distinct warning text once, so stderr
    is unchanged.  Four 7nm dies of 2.75e11 gates (110 cm^2 each) clamp, as does their 2D baseline."""

    DOC = {
        "design": {"integration": "mcm", "dies": [{"technology": "7nm", "gate_count": 2.75e11}] * 4},
        "environment": {"ci_fab": 0.45},
        "usage": {"t_app_hours": 17532, "t_exe_hours": 43830, "power_density": 18.0, "delay_s": 0.5},
    }

    def test_sweep_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path, self.DOC)
        assert main(["sweep", "-c", str(path), "--baseline", "--axis", "dies[*].gate_count=2.75e11,2.8e11"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: die-per-wafer formula gave 0.07 for a 110.114 cm^2 die; clamping to 1",
            "warning: die-per-wafer formula gave -1.57 for a 506.768 cm^2 die; clamping to 1",
            "warning: die-per-wafer formula gave 0.01 for a 112.321 cm^2 die; clamping to 1",
            "warning: die-per-wafer formula gave -1.56 for a 516.922 cm^2 die; clamping to 1",
        ]

    def test_switch_output_is_that_of_separate_equal_dies(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, self.DOC)
        argv = ["switch", "-c", str(path), "--integration", "mcm", "--node", "7nm", "--dies", "4",
                "--range", "1e12:1.2e12"]
        assert main(argv) == 0
        shared = capsys.readouterr()
        split = explorer._equal_split
        monkeypatch.setattr(explorer, "_equal_split", lambda *args: dataclasses.replace(
            design := split(*args), dies=tuple(dataclasses.replace(d) for d in design.dies)))
        assert main(argv) == 0
        assert capsys.readouterr() == shared
        lines = shared.err.splitlines()
        assert len(lines) == len(set(lines)) == 34  # each clamp of the 17 prescan points' two legs, once
        assert all(line.startswith("warning: die-per-wafer formula gave ") for line in lines)


class TestPareto:
    def test_reference_row(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        code = main(["pareto", "-c", str(path), "--gammas", "0,0.5,1,2"])
        assert code == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 4
        by_gamma = {float(r["gamma"]): r for r in rows}
        assert float(by_gamma[1.0]["tcdp_norm_reference"]) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("dies, variants", [
        ("1", ["mono_2d"]),
        ("2", ["mono_2d", "micro_3d", "hybrid_3d", "m3d"]),
        ("3", ["mono_2d", "micro_3d", "hybrid_3d"]),
    ])
    def test_default_variants_are_those_the_die_count_admits(self, capsys, dies, variants):
        config = Path(__file__).resolve().parent.parent / "configs" / "hybrid_2die_7nm.json"
        assert main(["pareto", "-c", str(config), "--dies", dies]) == 0
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["gamma", "tcdp_norm_reference"] + [f"tcdp_norm_{v}" for v in variants]
        assert len(rows) == 6

    @pytest.mark.parametrize("gammas", ["", ","])
    def test_no_gammas_exits_2(self, tmp_path, capsys, gammas):
        path = write_config(tmp_path, basic_document())
        assert main(["pareto", "-c", str(path), "--gammas", gammas]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --gammas: needs at least one value\n"

    def test_variant_columns_present(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        main(["pareto", "-c", str(path), "--gammas", "0,1", "--integrations", "mono_2d,m3d"])
        _, header, rows = parse_csv(capsys.readouterr().out)
        assert "tcdp_norm_mono_2d" in header and "tcdp_norm_m3d" in header

    def test_spaces_around_a_variant_name_are_ignored(self, capsys):
        config = str(CONFIG_DIR / "hybrid_2die_7nm.json")
        outputs = []
        for names in ("mono_2d,m3d", "mono_2d, m3d "):
            assert main(["pareto", "-c", config, "--integrations", names, "--gammas", "1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_a_heterogeneous_design_warns_as_the_sweep_does(self, capsys):
        config = str(CONFIG_DIR / "mcm_hetero_4die.json")
        assert main(["pareto", "-c", config, "--integrations", "mono_2d", "--gammas", "1"]) == 0
        pareto_err = capsys.readouterr().err
        assert main(["sweep", "-c", config, "--baseline", "--axis", "gamma=1"]) == 0
        sweep_err = capsys.readouterr().err
        assert "warning: heterogeneous-node design" in pareto_err
        assert pareto_err == sweep_err

    @pytest.mark.parametrize("config", [*sorted(p.stem for p in CONFIG_DIR.glob("*.json")), "mcm_hetero_4die-reversed"])
    def test_mono_2d_variant_is_the_sweep_baseline(self, tmp_path, capsys, monkeypatch, config):
        path = _config_path(tmp_path, config)
        built = _recorded_builds(monkeypatch)
        assert main(["pareto", "-c", str(path), "--integrations", "mono_2d", "--gammas", "1"]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CarbonModelWarning)
            assert built == [explorer.mono2d_equivalent(load_scenario(path).design)]

    def test_the_variants_stack_d2w_whatever_the_config_stacks(self, tmp_path, capsys, monkeypatch):
        # pareto has no --stacking: the config's stacking does not reach the variants
        doc = json.loads((CONFIG_DIR / "hybrid_2die_7nm.json").read_text(encoding="utf-8"))
        doc["design"]["stacking"] = "w2w"
        built = _recorded_builds(monkeypatch)
        for path in (CONFIG_DIR / "hybrid_2die_7nm.json", write_config(tmp_path, doc)):
            assert main(["pareto", "-c", str(path), "--integrations", "hybrid_3d,micro_3d,m3d,mcm"]) == 0
        capsys.readouterr()
        assert built[:4] == built[4:] and len(built) == 8
        assert [d.stacking for d in built if d.integration in (Integration.HYBRID_3D, Integration.MICRO_3D)] == [
            Stacking.D2W] * 4


class TestComparisonDesignsReadNoDieOrder:
    def test_the_reversed_heterogeneous_baseline(self, tmp_path, capsys):
        path = _config_path(tmp_path, "mcm_hetero_4die-reversed")
        assert main(["sweep", "-c", str(path), "--baseline", "--axis", "gamma=1"]) == 0
        out = capsys.readouterr()
        _, _, (row,) = parse_csv(out.out)
        assert row["baseline_c_embodied_overall"] == "11.751296"
        assert out.err == ("warning: heterogeneous-node design; the 2D baseline and other comparison designs "
                           "use its most advanced node, 7nm\n")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--baseline", "--axis", "gamma=1"],
        ["pareto", "--integrations", "mono_2d,hybrid_3d", "--gammas", "1"],
    ])
    def test_reversed_dies_give_the_same_output(self, tmp_path, capsys, argv):
        outputs = []
        for config in ("mcm_hetero_4die", "mcm_hetero_4die-reversed"):
            assert main([argv[0], "-c", str(_config_path(tmp_path, config)), *argv[1:]]) == 0
            out = capsys.readouterr()  # the digest line names the document, so only data lines are compared
            outputs.append(([line for line in out.out.splitlines() if not line.startswith("#")], out.err))
        assert outputs[0] == outputs[1]


class TestOutputTargets:
    """An --out that cannot be written is an error on --out, exit 2, that names the
    target and leaves no file behind."""

    COMMANDS = {
        "estimate": ["estimate", "--format", "csv"],
        "sweep": ["sweep", "--axis", "gamma=0,1", "--baseline"],
        "switch": ["switch", "--integration", "hybrid_3d", "--node", "7nm"],
        "pareto": ["pareto", "--gammas", "0,1"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_directory_is_an_error_on_out(self, tmp_path, capsys, command):
        path = write_config(tmp_path, basic_document())
        target = tmp_path / "report"
        target.mkdir()
        assert main([*self.COMMANDS[command], "-c", str(path), "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: --out: cannot write {target}: it is a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "report"]
        assert list(target.iterdir()) == []

    def test_an_unwritable_target_names_the_option_not_the_temp_file(self, tmp_path, capsys):
        path = write_config(tmp_path, basic_document())
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "out.csv"  # its parent is a file
        assert main(["estimate", "-c", str(path), "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out: cannot write {target}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]

    def test_a_failed_rename_is_an_error_on_the_option(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")
        monkeypatch.setattr(os, "replace", refuse)
        path = write_config(tmp_path, basic_document())
        target = tmp_path / "out.csv"
        assert main(["estimate", "-c", str(path), "--out", str(target)]) == 2
        assert capsys.readouterr().err == f"error: --out: cannot write {target}: Permission denied\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("through_link", [False, True], ids=["fifo", "link_to_fifo"])
    @pytest.mark.parametrize("command, option", [("estimate", "--out"), ("sweep", "--out")])
    def test_a_fifo_target_is_written_in_place(self, tmp_path, capsys, command, option, through_link):
        path = write_config(tmp_path, basic_document())
        argv = [*self.COMMANDS[command], "-c", str(path)]
        assert main([*argv, option, str(tmp_path / "plain.csv")]) == 0
        expected = (tmp_path / "plain.csv").read_bytes()
        fifo = target = tmp_path / "fifo"
        os.mkfifo(fifo)
        if through_link:
            target = tmp_path / "link"
            target.symlink_to(fifo)
        # the reader is open before the command runs, so opening the FIFO to write cannot block
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main([*argv, option, str(target)]) == 0
            received = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
        finally:
            os.close(reader)
        assert received == expected
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert target.is_symlink() == through_link
        assert capsys.readouterr().err == ""

    def test_a_closed_stdout_exits_1_without_a_traceback(self, tmp_path):
        # the reader takes one line and closes the pipe, as `| head -1` does; the
        # ~500 kB report overflows the pipe, so the copy to stdout meets the closed end
        config = Path(__file__).resolve().parent.parent / "configs" / "hybrid_2die_7nm.json"
        axis = "dies[*].gate_count=" + ",".join(str(1e8 + i * 1e5) for i in range(3000))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {
            **os.environ, "TMPDIR": str(tmp_path),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        proc = subprocess.Popen(
            [sys.executable, "-m", "carbon3d.cli", "sweep", "-c", str(config), "--axis", axis],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"# schema_version=1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""  # no traceback and no "Exception ignored" line
        assert list(tmp_path.iterdir()) == []  # the temp file is gone


class TestFixtures:
    def test_list(self, capsys):
        assert main(["fixtures", "list"]) == 0
        out = capsys.readouterr().out
        assert "7nm" in out and "28nm" in out


class TestSampleConfigs:
    CONFIGS = sorted(str(p) for p in Path(__file__).resolve().parent.parent.glob("configs/*.json"))

    def test_corpus_present(self):
        assert len(self.CONFIGS) >= 4

    @pytest.mark.parametrize("config", CONFIGS)
    def test_sample_evaluates_clean(self, config, capsys):
        assert main(["estimate", "-c", config, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["breakdown"]["c_embodied_overall"] > 0
        assert doc["warnings"] == []

    def test_unknown_node_exits_2(self, tmp_path, capsys):
        doc = basic_document()
        doc["design"]["dies"][0]["technology"] = "90nm"
        path = write_config(tmp_path, doc)
        assert main(["estimate", "-c", str(path)]) == 2
        assert "90nm" in capsys.readouterr().err


def _split_design(doc, **fields):
    """Turn the document's dies into the early-design form: gate_count_2d split over n_dies."""
    del doc["design"]["dies"]
    doc["design"].update({"gate_count_2d": 1e9, "n_dies": 2, "technology": "7nm", **fields})


# the axis path of each profile a sweep sets, which is also the path its errors name
_AXIS_SECTIONS = {
    WiringParameters: "design.dies[0].wiring", BondingProfile: "bonding", PackagingProfile: "packaging",
    FabEnvironment: "environment", UsageProfile: "usage", DieSpec: "dies[0]", DesignSpec: "design",
}


def _outside_range_axes() -> list:
    """(``<path>=<value>``, message) for a value just outside each end of each declared
    range that a sweep axis can set; integers, so that integer fields parse too."""
    cases = []
    for cls, section in _AXIS_SECTIONS.items():
        for f in dataclasses.fields(cls):
            if "range" not in f.metadata:
                continue
            rule = f.metadata["range"]
            message = f"must be in {rule}" if rule[0] in "([" else f"must be {rule}"
            name, low, high, *_ = next(r for r in params._RANGES[cls] if r[0] == f.name)
            outside = [math.floor(math.nextafter(low, -math.inf))]
            if high < math.inf:
                outside.append(math.ceil(math.nextafter(high, math.inf)))
            cases += [pytest.param(f"{section}.{name}={v}", message, id=f"{section}.{name}={v}") for v in outside]
    return cases


class TestRejectsBadValues:
    """Out-of-range and non-finite inputs exit 2 with the offending path."""

    def _run(self, tmp_path, capsys, doc, *argv):
        path = write_config(tmp_path, doc)
        code = main([argv[0], "-c", str(path), *argv[1:]])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("mutate, where", [
        (lambda d: d["usage"].update(power_density=math.inf), "usage.power_density"),
        (lambda d: d["usage"].update(t_exe_hours=math.inf), "usage.t_exe_hours"),
        (lambda d: d.update(technology_overrides={"7nm": {"cluster_alpha": math.inf}}),
         "technology_overrides.7nm.cluster_alpha"),
        (lambda d: d.update(environment={"wafer_diameter_cm": math.nan}), "environment.wafer_diameter_cm"),
    ])
    def test_non_finite_document_value(self, tmp_path, capsys, mutate, where):
        doc = basic_document()
        mutate(doc)
        code, out = self._run(tmp_path, capsys, doc, "estimate", "--format", "csv")
        assert code == 2 and out.out == ""
        assert where in out.err and "finite" in out.err

    @pytest.mark.parametrize("mutate, where", [
        (lambda d: _split_design(d, area_ratios=3), "design.area_ratios"),
        (lambda d: d.update(technology_overrides={"7nm": {"epa_beol_per_layer": 1.0}}),
         "technology_overrides.7nm.epa_beol_per_layer"),
        (lambda d: d["design"].update(bonding=[1]), "design.bonding"),
        (lambda d: d["design"].update(packaging=3), "design.packaging"),
        (lambda d: d["design"].update(interposer=[1]), "design.interposer"),
        (lambda d: d.update(technology_overrides=[1]), "technology_overrides"),
        (lambda d: d.update(technology_overrides=3), "technology_overrides"),
    ])
    def test_wrongly_shaped_section(self, tmp_path, capsys, mutate, where):
        doc = basic_document()
        mutate(doc)
        code, out = self._run(tmp_path, capsys, doc, "estimate", "--format", "csv")
        assert code == 2 and out.out == ""
        assert out.err.startswith(f"error: {where}: expected ")

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["design"]["dies"][0].update(wiring={"rent_P": 0.9}),
         "design.dies[0].wiring.rent_P: unknown field"),
        (lambda d: d["design"]["dies"][0].update(explicit_beol=5.5),
         "design.dies[0].explicit_beol: expected an integer, got 5.5"),
        # a BEOL count lies in [1, max_beol_layers] of its node, for a die and for the interposer
        (lambda d: d["design"]["dies"][0].update(explicit_beol=99),
         "design.dies[0].explicit_beol: must be in [1, 14] for 7nm"),
        (lambda d: d["design"].update(interposer={"technology": "28nm", "beol_layers": 11}),
         "design.interposer.beol_layers: must be in [1, 10] for 28nm"),
        (lambda d: d["design"]["dies"][0].update(technology="../bonding"),
         "design.dies[0].technology: unknown node '../bonding'"),
        (lambda d: d["design"]["dies"][0].update(technology="x" * 300),
         "design.dies[0].technology: unknown node 'xxx"),
        (lambda d: d["design"]["dies"][0].update(gate_count=1e-300),
         "inputs outside the model's numeric range"),
        (lambda d: d["design"]["dies"][0].update(gate_count=1e300),
         "inputs outside the model's numeric range"),
        # every die yield underflows to 0, and the embodied chain divides by it
        (lambda d: d.update(technology_overrides={"7nm": {"defect_density_d0": 1e300}}),
         "inputs outside the model's numeric range"),
        # a die area so small that its BEOL estimate is not finite
        (lambda d: ("sweep", "--axis", "dies[*].explicit_area=1e-310"),
         "inputs outside the model's numeric range: a count is not finite\n"),
        (lambda d: ("sweep", "--axis", "dies[*].explicit_area=1e-320"),
         "inputs outside the model's numeric range: a count is not finite\n"),
        (lambda d: _split_design(d, n_dies=2**64), "design.n_dies: must be in [1, 1000]"),
        # the early-design form's total and die count are errors on its own keys, not on the split dies
        (lambda d: _split_design(d, gate_count_2d=-1e9), "design.gate_count_2d: must be > 0"),
        (lambda d: _split_design(d, gate_count_2d=0), "design.gate_count_2d: must be > 0"),
        (lambda d: _split_design(d, integration="mono_2d"),
         "design.n_dies: mono_2d requires exactly 1 dies, got 2"),
        (lambda d: d.update(technology_overrides={"7nm": {"feature_size_cm": -1}}),
         "technology_overrides.7nm.feature_size_cm: must be > 0"),
        # override entries of nodes that no die or interposer uses
        (lambda d: d.update(technology_overrides={"99nm": {"gpa": 0.1}}),
         "technology_overrides.99nm: unknown node '99nm'"),
        (lambda d: d.update(technology_overrides={"5nm": {"bogus": 1}}), "technology_overrides.5nm.bogus: unknown field"),
        (lambda d: d.update(environmnet={}), "environmnet: unknown field"),
        (lambda d: d["design"].update(facing_="f2b"), "design.facing_: unknown field"),
        (lambda d: d["design"]["dies"][0].update(explicit_beols=3), "design.dies[0].explicit_beols: unknown field"),
        (lambda d: d["design"].update(interposer={"technology": "28nm", "bogus": 1}),
         "design.interposer.bogus: unknown field"),
        (lambda d: d["usage"].update(power_density=1e308),
         "inputs outside the model's numeric range: a result is not finite"),
        # a die list and the early-design keys exclude each other
        (lambda d: d["design"].update(n_dies=7, gate_count_2d=-5, technology="nonsense", area_ratios="x"),
         "design.gate_count_2d: not allowed with dies"),
        (lambda d: d["design"].update(technology="7nm"), "design.technology: not allowed with dies"),
        # an unknown node is an error on the place its name came from
        (lambda d: _split_design(d, technology="90nm"), "design.technology: unknown node '90nm'"),
        (lambda d: d["design"].update(interposer={"technology": "90nm"}),
         "design.interposer.technology: unknown node '90nm'"),
        (lambda d: ("sweep", "--axis", "technology=99nm"), "technology: unknown node '99nm'"),
        (lambda d: ("sweep", "--axis", "dies[1].technology=7nm,99nm"), "dies[1].technology: unknown node '99nm'"),
        (lambda d: ("switch", "--integration", "hybrid_3d", "--node", "99nm"), "--node: unknown node '99nm'"),
        # a scheme, facing or stacking is spelled exactly as its enum value, in a document and in pareto
        (lambda d: d["design"].update(integration="hybrid"), "design.integration: 'hybrid' is not one of: mono_2d, "),
        (lambda d: d["design"].update(integration="Hybrid_3D"), "design.integration: 'Hybrid_3D' is not one of: "),
        (lambda d: d["design"].update(integration="hybrid-3d"), "design.integration: 'hybrid-3d' is not one of: "),
        (lambda d: d["design"].update(integration=" hybrid_3d "), "design.integration: ' hybrid_3d ' is not one of: "),
        (lambda d: d["design"].update(facing="F2F"), "design.facing: 'F2F' is not one of: f2f, f2b, na\n"),
        (lambda d: d["design"].update(stacking="none"), "design.stacking: 'none' is not one of: d2w, w2w, na\n"),
        (lambda d: ("pareto", "--integrations", "hybrid"), "--integrations: 'hybrid' is not one of: mono_2d, "),
        # both would be one tcdp_norm_hybrid_3d column
        (lambda d: ("pareto", "--integrations", "hybrid_3d,hybrid_3d"), "--integrations: names hybrid_3d more than once\n"),
    ])
    def test_bad_document_value_exits_2(self, tmp_path, capsys, mutate, message):
        doc = basic_document()
        argv = mutate(doc) or ("estimate", "--format", "csv")  # a case may name the command to run instead
        code, out = self._run(tmp_path, capsys, doc, *argv)
        assert code == 2 and out.out == ""
        assert out.err.startswith(f"error: {message}")

    def test_comment_keys_are_ignored(self, tmp_path, capsys):
        outputs = []
        for comment in ({}, {"_note": "x"}):
            doc = basic_document(**comment, interposer={"technology": "28nm", **comment})
            doc.update(comment)
            doc["design"]["dies"][0].update(comment)
            code, out = self._run(tmp_path, capsys, doc, "estimate", "--format", "csv")
            assert code == 0
            outputs.append(out.out)
        assert outputs[0] == outputs[1]

    def test_integral_float_document_values_match_integers(self, tmp_path, capsys):
        outputs = []
        for beol in (9, 9.0):
            doc = basic_document()
            doc["design"]["dies"][0]["explicit_beol"] = beol
            code, out = self._run(tmp_path, capsys, doc, "estimate", "--format", "csv")
            assert code == 0
            outputs.append(out.out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("axis", [
        "usage.power_density=inf",
        "environment.ci_fab=nan",
        "dies[*].gate_count=-inf",
        "bonding.bond_yield=1.5",
        "environment.ci_fab=-1",
        "packaging.s_package_3d=0.1",
        "dies[*].explicit_beol=3.7",
        "signal_count_f2f=2.9",
    ])
    def test_bad_sweep_axis_exits_2(self, tmp_path, capsys, axis):
        code, out = self._run(tmp_path, capsys, basic_document(), "sweep", "--axis", axis)
        assert code == 2 and out.out == ""
        assert axis.partition("=")[0] in out.err

    @pytest.mark.parametrize("axis, where", [
        ("dies[*].wiring.rent_p=1.5", "design.dies[0].wiring.rent_p"),
        ("dies[1].wiring.rent_p=0.6,1.5", "design.dies[1].wiring.rent_p"),
    ])
    def test_bad_wiring_axis_names_the_die(self, tmp_path, capsys, axis, where):
        code, out = self._run(tmp_path, capsys, basic_document(), "sweep", "--axis", axis)
        assert code == 2 and out.out == ""
        assert out.err == f"error: {where}: must be in (0, 1)\n"

    @pytest.mark.parametrize("axis, message", _outside_range_axes())
    def test_axis_value_outside_a_declared_range_exits_2(self, tmp_path, capsys, axis, message):
        code, out = self._run(tmp_path, capsys, basic_document(), "sweep", "--axis", axis)
        assert code == 2 and out.out == ""
        assert out.err == f"error: {axis.partition('=')[0]}: {message}\n"

    def test_malformed_fixture_exits_2(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "fixtures"
        shutil.copytree(_BUNDLED_DIR, root)
        node = root / "nodes" / "5nm.json"
        node.write_text(node.read_text()[:100])
        monkeypatch.setenv("CARBON3D_FIXTURES", str(root))
        code, out = self._run(tmp_path, capsys, basic_document(), "sweep", "--axis", "technology=5nm")
        assert code == 2 and out.out == ""
        assert out.err.startswith("error: fixtures/nodes/5nm: not valid JSON: ")

    @pytest.mark.parametrize("axis", ["dies[*].explicit_beol=5,8", "signal_count_f2f=0,100"])
    def test_integral_float_axis_values_still_accepted(self, tmp_path, capsys, axis):
        code, out = self._run(tmp_path, capsys, basic_document(), "sweep", "--axis", axis)
        assert code == 0
        assert len(parse_csv(out.out)[2]) == 2

    @pytest.mark.parametrize("argv, where", [
        (("switch", "--integration", "hybrid_3d", "--node", "7nm", "--range", "0:1e9"), "--range"),
        (("switch", "--integration", "hybrid_3d", "--node", "7nm", "--range", "1e6:inf"), "--range"),
        (("pareto", "--gammas", "x"), "--gammas"),
        (("pareto", "--integrations", "mono_2d,foo"), "--integrations"),
        (("switch", "--integration", "hybrid_3d", "--node", "7nm", "--dies", "-1"), "--dies"),
        (("switch", "--integration", "hybrid_3d", "--node", "7nm", "--dies", "5000"), "--dies"),
        (("pareto", "--dies", "0"), "--dies"),
        (("pareto", "--dies", "1001"), "--dies"),
        (("pareto", "--integrations", ""), "--integrations"),
        (("switch", "--integration", "hybrid_3d", "--node", "7nm", "--range", "1e9:1e6"), "--range"),
    ])
    def test_bad_option_value_exits_2(self, tmp_path, capsys, argv, where):
        code, out = self._run(tmp_path, capsys, basic_document(), *argv)
        assert code == 2 and out.out == ""
        assert out.err.startswith(f"error: {where}: ")

    @pytest.mark.parametrize("bounds", ["1e6:abc", "1e6", "1e6:1e7:1e8", "1e6,1e9"])
    def test_malformed_range_exits_2(self, tmp_path, capsys, bounds):
        with pytest.raises(SystemExit) as exc:
            self._run(tmp_path, capsys, basic_document(), "switch", "--integration", "hybrid_3d", "--node", "7nm",
                      "--range", bounds)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --range: expected <lo>:<hi>, got {bounds!r}\n" in out.err
        assert "_range_pair" not in out.err

    # --out is each command's one output, and --gamma is read only by estimate and sweep
    @pytest.mark.parametrize("argv", [
        ("sweep", "--axis", "gamma=0,1", "--plot-out", "plot.csv"),
        ("pareto", "--gammas", "0,1", "--plot-out", "plot.csv"),
        ("switch", "--integration", "hybrid_3d", "--node", "7nm", "--gamma", "3"),
        ("pareto", "--gammas", "0,1", "--gamma", "3"),
    ])
    def test_an_option_without_effect_is_unrecognized(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            self._run(tmp_path, capsys, basic_document(), *argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    # an abbreviation would silently rebind to another option when one is removed or renamed
    @pytest.mark.parametrize("argv", [
        ("estimate", "--form", "csv"),
        ("sweep", "--base"),
        ("switch", "--integ", "hybrid_3d", "--node", "7nm"),
    ])
    def test_an_abbreviated_option_is_unrecognized(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            self._run(tmp_path, capsys, basic_document(), *argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ("switch", "--integration", "m3d", "--node", "7nm", "--dies", "3"),
        ("pareto", "--integrations", "m3d", "--dies", "3"),  # an explicit variant is not dropped
    ])
    def test_die_count_the_scheme_forbids_is_an_error_on_dies(self, tmp_path, capsys, argv):
        code, out = self._run(tmp_path, capsys, basic_document(), *argv)
        assert code == 2 and out.out == ""
        assert out.err == "error: --dies: m3d requires exactly 2 dies, got 3\n"

    @pytest.mark.parametrize("content, why", [(None, "cannot read"), (b"\xd0\xff{}", "not valid JSON")])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, why):
        path = tmp_path  # a directory when there is no content
        if content is not None:
            path = tmp_path / "bin.json"
            path.write_bytes(content)
        assert main(["estimate", "-c", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: {path}: {why}")

    @pytest.mark.parametrize("argv, where, why", [
        (("estimate", "--gamma", "inf", "--format", "csv"), "--gamma", "finite"),
        (("estimate", "--gamma", "-1", "--format", "csv"), "--gamma", ">= 0"),
        (("pareto", "--gammas", "nan,1"), "--gammas[0]", "finite"),
        (("pareto", "--gammas", "0,-0.5"), "--gammas[1]", ">= 0"),
        (("sweep", "--axis", "gamma=-1"), "gamma", ">= 0"),
    ])
    def test_bad_gamma_exits_2(self, tmp_path, capsys, argv, where, why):
        code, out = self._run(tmp_path, capsys, basic_document(), *argv)
        assert code == 2 and out.out == ""
        assert out.err.startswith(f"error: {where}: ") and why in out.err

    def test_zero_reference_tcdp_in_pareto(self, tmp_path, capsys):
        doc = basic_document()
        doc["environment"] = {"ci_fab": 0.0, "ci_use": 0.0, "ci_bonding": 0.0}
        doc["technology_overrides"] = {"7nm": {"gpa": 0.0, "mpa": 0.0}}
        doc["design"]["packaging"] = {"cpa_packaging": 0.0}
        code, out = self._run(tmp_path, capsys, doc, "pareto", "--gammas", "0,1")
        assert code == 2 and out.out == ""
        assert "tCDP" in out.err


class TestOverrideMatchesEditedFixture:
    """A technology_overrides entry behaves exactly like the same edit made to a fixture copy."""

    CONFIG = Path(__file__).resolve().parent.parent / "configs" / "hybrid_2die_7nm.json"
    # 7nm is the dies' node; 5nm is named only by the overrides (and by the commands below)
    OVERRIDES = {
        "7nm": {"defect_density_d0": 0.5, "gate_area_scaling": 400},
        "5nm": {"defect_density_d0": 0.3, "gate_area_scaling": 500},
    }

    def _run(self, tmp_path, capsys, doc, argv):
        path = write_config(tmp_path, doc)
        assert main([argv[0], "-c", str(path), *argv[1:]]) == 0
        return capsys.readouterr().out

    def _both(self, tmp_path, capsys, monkeypatch, overrides, argv):
        """The command's output on the override document, then on the plain one over an edited fixture copy."""
        plain = json.loads(self.CONFIG.read_text())
        with_override = self._run(tmp_path, capsys, {**plain, "technology_overrides": overrides}, argv)
        root = tmp_path / "fixtures"
        shutil.copytree(_BUNDLED_DIR, root)
        for node, fields in overrides.items():
            file = root / "nodes" / f"{node}.json"
            file.write_text(json.dumps({**json.loads(file.read_text()), **fields}))
        monkeypatch.setenv("CARBON3D_FIXTURES", str(root))
        return with_override, self._run(tmp_path, capsys, plain, argv)

    @pytest.mark.parametrize("argv", [
        ("estimate", "--format", "csv"),
        ("sweep", "--axis", "technology=7nm,5nm", "--baseline"),
        ("switch", "--integration", "hybrid_3d", "--node", "7nm"),
        ("switch", "--integration", "micro_3d", "--node", "5nm"),
    ])
    def test_same_data_rows(self, tmp_path, capsys, monkeypatch, argv):
        with_override, edited = self._both(tmp_path, capsys, monkeypatch, self.OVERRIDES, argv)

        # only the digest differs: it covers the 5nm override, which the plain document lacks
        def strip(text):
            return [line for line in text.splitlines() if not line.startswith("# inputs_digest=")]
        assert strip(with_override) == strip(edited)
        assert with_override != edited

    def test_switch_is_byte_identical_when_the_dies_use_the_node(self, tmp_path, capsys, monkeypatch):
        argv = ("switch", "--integration", "hybrid_3d", "--node", "7nm")
        overrides = {"7nm": self.OVERRIDES["7nm"]}
        with_override, edited = self._both(tmp_path, capsys, monkeypatch, overrides, argv)
        assert with_override == edited

    def test_technology_axis_row_matches_estimate(self, tmp_path, capsys):
        doc = {**json.loads(self.CONFIG.read_text()), "technology_overrides": {"7nm": {"defect_density_d0": 0.5}}}
        _, _, estimate = parse_csv(self._run(tmp_path, capsys, doc, ("estimate", "--format", "csv")))
        _, _, rows = parse_csv(self._run(tmp_path, capsys, doc, ("sweep", "--axis", "technology=7nm")))
        expected = {r["component"]: r["value"] for r in estimate}["c_embodied_overall"]
        assert rows[0]["c_embodied_overall"] == expected == "4.34906294"
