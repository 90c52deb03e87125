"""tools/bench_pairs.py with a stubbed runner in place of bench/run.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("rows_per_s", "higher"), ("op_ms_p50", "lower")]


def _stub(calls, values):
    """A runner that records its calls and returns the next (rows_per_s, op_ms_p50) of its side."""
    def run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        rows, ms = values[checkout.name].pop(0)
        return {"rows_per_s": rows, "op_ms_p50": ms, "fail_ratio": 0.0}
    return run


def test_pairs_alternate_the_order_and_share_a_seed():
    calls = []
    values = {"parent": [(100, 3.0)] * 3, "change": [(130, 2.5)] * 3}
    results = bench_pairs.pairs(Path("parent"), Path("change"), "dse_search", 3, 20.0, 501, run=_stub(calls, values))
    assert [(name, seed) for name, _, seed, _ in calls] == [
        ("parent", 501), ("change", 501), ("change", 502), ("parent", 502), ("parent", 503), ("change", 503),
    ]
    assert all(workload == "dse_search" and seconds == 20.0 for _, workload, _, seconds in calls)
    assert results == [({"rows_per_s": 100, "op_ms_p50": 3.0, "fail_ratio": 0.0},
                         {"rows_per_s": 130, "op_ms_p50": 2.5, "fail_ratio": 0.0})] * 3


def test_report_counts_wins_by_direction_and_gives_the_median_change():
    values = {"parent": [(100, 3.0), (90, 3.3), (110, 2.9), (100, 3.0)],
              "change": [(130, 2.5), (80, 3.4), (140, 2.2), (100, 3.0)]}  # the last pair ties
    results = bench_pairs.pairs(Path("parent"), Path("change"), "w", 4, 1.0, 1, run=_stub([], values))
    lines = bench_pairs.report(results, METRICS)
    assert lines[0] == "pair 1: rows_per_s=100->130  op_ms_p50=3->2.5"
    assert len(lines) == 4 + len(METRICS)
    rows, ms = lines[4:]
    assert rows.startswith("rows_per_s (higher is better): parent 100 ")
    assert "median change +15.0%" in rows and "change won 2 of 4" in rows
    assert ms.startswith("op_ms_p50 (lower is better): ") and "change won 2 of 4" in ms


def test_run_length_and_metrics_come_from_the_checkouts_benchmark(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 20, "end_to_end": [
        {"name": "rows_per_s", "better": "higher", "unit": "1/s", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "unit": "MB", "bound": 0.1},
    ]}))
    assert bench_pairs.benchmark(tmp_path) == (20, [("rows_per_s", "higher"), ("peak_rss_mb", "lower")])


def test_main_prints_the_bytecode_setting_and_the_pairs(tmp_path, monkeypatch, capsys):
    for side, seconds in (("parent", 5), ("change", 7)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"run_seconds": seconds, "end_to_end": [
            {"name": "rows_per_s", "better": "higher"}]}))
    calls, values = [], {"parent": [(100, 3.0)] * 2, "change": [(120, 2.0)] * 2}
    monkeypatch.setattr(bench_pairs, "run_bench", _stub(calls, values))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "PYTHONDONTWRITEBYTECODE=1"
    assert out[1:3] == ["pair 1: rows_per_s=100->120  fail_ratio=0->0", "pair 2: rows_per_s=100->120  fail_ratio=0->0"]
    assert "change won 2 of 2" in out[3]
    assert {seconds for *_, seconds in calls} == {7}  # the change's run length, for both sides


def test_pairs_must_be_positive(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "0"])


def test_failed_ops_are_reported_not_raised(tmp_path, monkeypatch):
    result = {"correct": False, "attempted": 200, "failed": 2, "metrics": {"rows_per_s": {"value": 90.0, "unit": "1/s"}}}

    def fake_run(argv, cwd, **kwargs):
        assert "--seconds" in argv and argv[argv.index("--seconds") + 1] == "20"
        return subprocess.CompletedProcess(argv, 0, stdout="dse_search: ...\n" + json.dumps(result) + "\n")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.run_bench(tmp_path, "dse_search", 1, 20) == {"rows_per_s": 90.0, "fail_ratio": 0.01}
