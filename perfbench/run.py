"""ccarena benchmark runner.

    python3 perfbench/run.py --workload desk-matrix --seed 1 --seconds 20 --trace 0

Runs every cell of a workload the way `run_matrix` does, in this one process
(workers=1): `run_simulation` -> `verify_run` -> `metrics_for_run`, then
`rows_to_csv` over the sorted rows. It repeats such passes for about
`--seconds` seconds and checks every output:

* every cell passes the oracle gate;
* every pass of the run yields the same histories and CSV;
* a canary (the workload at smoke size and the default seed) matches the
  digests recorded in golden.json, and so does the full workload when
  `--seed` is the default seed;
* with `--trace 1`, one more pass runs with spans around every layer, and
  its histories and CSV must match the untraced passes.

End-to-end times are read off `gauge.Gauge.clock()`: seconds at a fixed host
speed, which the shared host's drift does not move (see gauge.py). The raw
host seconds are printed beside them and kept in the run's report.

It prints every metric by name with its unit, and as its last line one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. It exits 0 only when every check passed, and 2 without a result
when the ccarena sources are not in the checkout.

    python3 perfbench/run.py --record-golden

re-records golden.json. Do that only for a change that is meant to alter
simulation output.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("opcot-stress", "s2pl-hotspot", "desk-matrix")
SETUP_SAMPLES = 9

# Run in a fresh interpreter: the time to import ccarena and build the cells,
# on the gauge's clock, then in host seconds.
_SETUP_PROBE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import gauge
g = gauge.Gauge()
with g.running():
    c0, t0, spent = g.clock(), time.perf_counter(), g.spent
    import workloads
    workloads.build_cells(sys.argv[3], int(sys.argv[4]))
    print(g.clock() - c0, time.perf_counter() - t0 - (g.spent - spent))
"""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """One pass over all cells of a workload."""

    cell_s: list[float] = field(default_factory=list)   # run + verify + metrics
    csv_s: float = 0.0
    host_s: float = 0.0                                 # wall_s in host seconds
    violations: dict[int, str] = field(default_factory=dict)  # cell -> oracle verdict
    histories: list[str] = field(default_factory=list)  # sha256 of each to_text()
    csv: str = ""                                       # sha256 of the CSV
    ops: int = 0                                        # history data operations
    events: int = 0                                     # history events

    @property
    def wall_s(self) -> float:
        return sum(self.cell_s) + self.csv_s

    def digests(self) -> dict:
        return {"csv": self.csv, "histories": self.histories}


def run_pass(cells, tracer=None, gauge=None) -> PassResult:
    """Run, gate and summarize every cell; digests are taken off the clock.

    With a gauge, times are read off its clock while it probes, and `host_s`
    leaves out the probes; without one, every time is in host seconds."""
    from ccarena import core, harness, simkit

    if gauge is None:
        clock = host = perf_counter
        probing = nullcontext()
    else:
        clock, host = gauge.clock, gauge.host_clock
        probing = gauge.running()
    out = PassResult()
    rows = []
    with probing:
        for i, cfg in enumerate(cells):
            if tracer is not None:
                tracer.cell = i
            t0, h0 = clock(), host()
            result = simkit.run_simulation(cfg)
            violation = harness.verify_run(result.history, cfg.protocol)
            if violation is None:
                rows.append(harness.metrics_for_run(result))
            out.cell_s.append(clock() - t0)
            out.host_s += host() - h0
            if violation is not None:
                out.violations[i] = violation
            out.histories.append(_sha(result.history.to_text()))
            out.ops += sum(1 for ev in result.history.events if isinstance(ev, core.OpEvent))
            out.events += len(result.history)
            del result  # free the history off the clock, not in the next cell
        if tracer is not None:
            tracer.cell = -1
        t0, h0 = clock(), host()
        rows.sort(key=harness.RunMetrics.sort_key)
        csv_text = harness.rows_to_csv(rows)
        out.csv_s = clock() - t0
        out.host_s += host() - h0
    out.csv = _sha(csv_text)
    return out


class Ledger:
    """Cells attempted and failed; a cell fails on an oracle violation or
    when its history, or the CSV of its pass, differs from what is expected."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, label: str, result: PassResult, expected: dict | None) -> None:
        bad = set(result.violations)
        for i, verdict in result.violations.items():
            self.problems.append(f"{label}: cell {i} fails the oracle gate: {verdict}")
        if expected is not None:
            if len(expected["histories"]) != len(result.histories):
                self.problems.append(f"{label}: {len(result.histories)} cells, "
                                     f"expected {len(expected['histories'])}")
                bad.update(range(len(result.histories)))
            for i, (got, want) in enumerate(zip(result.histories, expected["histories"])):
                if got != want:
                    self.problems.append(f"{label}: cell {i} history digest differs")
                    bad.add(i)
            if result.csv != expected["csv"]:
                self.problems.append(f"{label}: CSV digest differs")
                bad.update(range(len(result.histories)))
        self.attempted += len(result.histories)
        self.failed += len(bad)

    @property
    def correct(self) -> bool:
        return not self.problems


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Import ccarena and build the cells in fresh interpreters: the times on
    the gauge's clock, and in host seconds."""
    clocked, host = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        c, h = proc.stdout.strip().splitlines()[-1].split()
        clocked.append(float(c))
        host.append(float(h))
    return clocked, host


def environment() -> dict:
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "probe_ms_start": probe_ms(),
    }


def probe_ms() -> float:
    """Median time of the gauge's probe, in ms: how fast the host is now."""
    from gauge import probe

    return statistics.median(probe() for _ in range(9)) * 1000


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """Run one benchmark measurement and return its report."""
    import tracer as tracing
    import workloads
    from gauge import Gauge

    env = environment()
    golden = json.loads(GOLDEN.read_text())[workload]
    setup, setup_host = ([], []) if trace else measure_setup(workload, seed)
    cells = workloads.build_cells(workload, seed, smoke)
    ledger = Ledger()
    canary = run_pass(workloads.build_cells(workload, workloads.DEFAULT_SEED, smoke=True))
    ledger.check("canary", canary, golden["smoke"])

    clock = Gauge()
    first = run_pass(cells, gauge=clock)
    expected = golden["smoke" if smoke else "full"] if seed == workloads.DEFAULT_SEED else None
    ledger.check("pass 1", first, expected)
    passes = [first]
    for k in range(2, max(1, round(seconds / first.host_s)) + 1):
        passes.append(run_pass(cells, gauge=clock))
        ledger.check(f"pass {k}", passes[-1], first.digests())
    walls = [p.wall_s for p in passes]
    wall_s = statistics.median(walls)
    host_wall_s = statistics.median(p.host_s for p in passes)
    cell_s = [t for p in passes for t in p.cell_s]

    report = {
        "workload": workload, "seed": seed, "trace": int(trace), "smoke": smoke,
        "env": env, "cells": len(cells), "passes": len(passes),
        "pass_wall_s": walls, "pass_host_s": [p.host_s for p in passes],
        "probes": len(clock.samples), "digests": first.digests(),
    }
    if trace:
        tr = tracing.Tracer()
        with tr.installed():
            traced = run_pass(cells, tr)
        ledger.check("traced pass", traced, first.digests())
        metrics = tracing.layer_metrics(tr, traced.wall_s, host_wall_s, traced.events)
        report["tracer"] = tr
    else:
        report["host"] = {"setup_s": statistics.median(setup_host), "wall_s": host_wall_s}
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (first.ops / wall_s, "1/s"),
            "cell_p50_s": (statistics.median(cell_s), "s"),
            "cell_p90_s": (nearest_rank(cell_s, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["samples"] = {"setup_s": len(setup), "wall_s": len(walls),
                             "cell_p50_s": len(cell_s), "cell_p90_s": len(cell_s)}
    env["loadavg_end"] = list(os.getloadavg())
    env["probe_ms_end"] = probe_ms()
    report.update(metrics=metrics, attempted=ledger.attempted, failed=ledger.failed,
                  failed_ratio=ledger.failed / ledger.attempted,
                  correct=ledger.correct, problems=ledger.problems)
    return report


def record_golden() -> dict:
    """Digests of every workload at the default seed, smoke and full size."""
    import workloads

    golden = {}
    for name in WORKLOAD_NAMES:
        golden[name] = {}
        for size in ("smoke", "full"):
            cells = workloads.build_cells(name, workloads.DEFAULT_SEED, smoke=size == "smoke")
            result = run_pass(cells)
            if result.violations:
                raise SystemExit(f"{name} {size}: oracle violations {result.violations}")
            golden[name][size] = result.digests()
    return golden


def _print_report(report: dict) -> None:
    env = report["env"]
    print(" ".join(["env"] + [f"{key}={value}" for key, value in env.items()]))
    print(f"workload {report['workload']} seed {report['seed']}: {report['cells']} cells "
          f"per pass, {report['passes']} passes, pass wall_s "
          + " ".join(f"{w:.3f}" for w in report["pass_wall_s"])
          + ", in host seconds " + " ".join(f"{w:.3f}" for w in report["pass_host_s"]))
    for name, value in report.get("host", {}).items():
        print(f"host {name} {value:.6g} s")
    samples = report.get("samples", {})
    for name, (value, unit) in report["metrics"].items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"{name} {value:.6g} {unit}{n}")
    print(f"failed_ratio {report['failed_ratio']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} cells)")
    for problem in report["problems"]:
        print(f"FAILED {problem}")


def _save(report: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    tr = report.pop("tracer", None)
    if tr is not None:
        tr.write(RESULTS / f"{stem}.spans.tsv.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "ccarena" / "__init__.py").is_file():
        print(f"ccarena sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    if args.record_golden:
        GOLDEN.write_text(json.dumps(record_golden(), indent=1) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _save(report)
    _print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
