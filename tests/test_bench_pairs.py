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

METRICS = [("rows_per_s", "higher", 0.25), ("op_ms_p50", "lower", 0.25)]


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
    assert rows.startswith("rows_per_s (higher is better, bound 0.25): parent 100 ")
    assert "median change +15.0%" in rows and "change won 2 of 4" in rows
    assert ms.startswith("op_ms_p50 (lower is better, bound 0.25): ") and "change won 2 of 4" in ms


def test_run_length_and_metrics_come_from_the_checkouts_benchmark(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 20, "end_to_end": [
        {"name": "rows_per_s", "better": "higher", "unit": "1/s", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "unit": "MB", "bound": 0.1},
    ]}))
    assert bench_pairs.benchmark(tmp_path) == (20, [("rows_per_s", "higher", 0.25), ("peak_rss_mb", "lower", 0.1)])


def test_main_prints_the_bytecode_setting_and_the_pairs(tmp_path, monkeypatch, capsys):
    for side, seconds in (("parent", 5), ("change", 7)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"run_seconds": seconds, "end_to_end": [
            {"name": "rows_per_s", "better": "higher", "bound": 0.25}]}))
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


def _verdict_line(parent, change, better="higher", bound=0.25, name="rows_per_s"):
    """The summary line report() gives one metric over pairs of (parent, change) values."""
    results = [({name: p}, {name: c}) for p, c in zip(parent, change)]
    (line,) = bench_pairs.report(results, [(name, better, bound)])[len(results):]
    return line


def test_a_gain_needs_nine_of_ten_wins_and_a_move_beyond_the_parents_quartile_spread():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 100]
    assert _verdict_line(parent, [p + 10 for p in parent]).endswith("change won 10 of 10  verdict: gain")
    nine = [p + 10 for p in parent[:9]] + [parent[9] - 1]
    assert _verdict_line(parent, nine).endswith("change won 9 of 10  verdict: gain")
    eight = [p + 10 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    assert _verdict_line(parent, eight).endswith("change won 8 of 10  verdict: unresolved")
    # every pair won, but the median moved by less than the parent's quartile spread
    assert _verdict_line(parent, [p + 0.5 for p in parent]).endswith("verdict: unresolved")


def test_a_metric_that_got_worse_is_never_a_gain():
    # peak_rss_mb 23.60 -> 23.95 with no win: 1.5% worse, inside its 10% bound
    line = _verdict_line([23.6, 23.5, 23.7, 23.6], [23.95, 23.9, 24.0, 23.95], better="lower", bound=0.1,
                         name="peak_rss_mb")
    assert line.endswith("change won 0 of 4  verdict: unresolved")
    assert _verdict_line([23.6] * 4, [26.5] * 4, better="lower", bound=0.1).endswith("verdict: worse")
    assert _verdict_line([100] * 4, [70] * 4).endswith("verdict: worse")   # 30% fewer rows, bound 25%
    assert _verdict_line([100] * 4, [80] * 4).endswith("verdict: unresolved")


def test_any_rise_of_the_failed_share_is_worse(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
        {"name": "rows_per_s", "better": "higher", "bound": 0.25}]}))

    def run(checkout, workload, seed, seconds):
        return {"rows_per_s": 100.0, "fail_ratio": 0.01 if checkout.name == "change" else 0.0}
    monkeypatch.setattr(bench_pairs, "run_bench", run)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("rows_per_s ") and out[-2].endswith("verdict: unresolved")
    assert out[-1].startswith("fail_ratio (lower is better, bound 0): ") and out[-1].endswith("verdict: worse")
