"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q
"""

import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gauge  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ccarena import harness  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "ops_per_s", "cell_p50_s", "cell_p90_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct(workload):
    report = run.measure(workload, workloads.DEFAULT_SEED, seconds=0.0, trace=False,
                         smoke=True)
    assert report["correct"], report["problems"]
    assert report["failed"] == 0
    assert report["attempted"] == 2 * report["cells"]   # canary + one pass
    assert set(report["metrics"]) == END_TO_END
    assert all(value > 0 for value, _ in report["metrics"].values())


def test_traced_smoke_run_matches_untraced():
    report = run.measure("desk-matrix", 3, seconds=0.0, trace=True, smoke=True)
    assert report["correct"], report["problems"]
    metrics = report["metrics"]
    assert metrics["occ.validate_calls"][0] > 0
    assert metrics["s2pl.acquire_calls"][0] > 0
    assert metrics["opcot.commits_attempted"][0] > 0
    assert metrics["core.history_events"][0] > 0
    assert metrics["simkit.events"][0] > 0


def test_tracer_restores_the_originals():
    before = [vars(owner)[attr] for owner, attr, _ in tracer.SPANS]
    report = run.measure("s2pl-hotspot", 2, seconds=0.0, trace=True, smoke=True)
    assert report["correct"], report["problems"]
    assert [vars(owner)[attr] for owner, attr, _ in tracer.SPANS] == before


def test_altered_csv_is_caught(monkeypatch):
    original = harness.rows_to_csv
    monkeypatch.setattr(harness, "rows_to_csv", lambda rows: original(rows) + "\n")
    report = run.measure("opcot-stress", workloads.DEFAULT_SEED, seconds=0.0, trace=False,
                         smoke=True)
    assert not report["correct"]
    assert report["failed"] == report["attempted"]
    assert any("CSV digest differs" in p for p in report["problems"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_changes_the_cells(workload):
    for smoke in (False, True):
        first = workloads.build_cells(workload, 1, smoke)
        assert workloads.build_cells(workload, 1, smoke) == first
        second = workloads.build_cells(workload, 2, smoke)
        assert len(second) == len(first)
        assert {c.seed for c in first}.isdisjoint(c.seed for c in second)


def _spin(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_gauge_clock_runs_at_the_probe_speed():
    before = signal.getsignal(signal.SIGALRM)
    g = gauge.Gauge()
    c0, h0 = g.clock(), g.host_clock()
    with g.running():
        _spin(0.5)
    clocked, host = g.clock() - c0, g.host_clock() - h0
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(g.samples) > 5                       # probed while the block ran
    assert 0 < g.spent < host                       # probes are left out of host time
    scale = gauge.NOMINAL_S / statistics.median(g.samples)
    assert 0.5 * scale < clocked / host < 2 * scale


def test_gauge_leaves_the_simulation_unchanged():
    cells = workloads.build_cells("desk-matrix", workloads.DEFAULT_SEED, smoke=True)
    plain = run.run_pass(cells)
    g = gauge.Gauge()
    probed = run.run_pass(cells, gauge=g)
    assert probed.digests() == plain.digests()
    assert len(g.samples) > gauge.RECENT
    assert all(t > 0 for t in probed.cell_s)
