"""Spans around the calls into each ccarena layer, for the traced run.

`Tracer.installed()` replaces public functions and methods with wrappers
where their callers look them up (e.g. `ccarena.simkit.commit_transaction`,
which simkit imported from opcot), and puts the originals back on exit. Each
wrapper calls the original unchanged, so a traced run must produce the same
histories and CSV as an untraced one; the benchmark checks that.

A span records its name, start, end, parent span and cell id. Spans are kept
in flat arrays in memory (hot calls such as `History.record_op` make hundreds
of thousands of them) and written out once the run ends. Counters are kept
at the same boundaries, so ratios are measured where the work happens.
"""

import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from ccarena import baselines, core, harness, opcot, simkit

# (owner looked up by the caller, attribute, span name); the span name's
# first component is the layer it is charged to.
SPANS = [
    (simkit, "run_simulation", "simkit.run_simulation"),
    (simkit, "gen_workload", "simkit.gen_workload"),
    (simkit, "client_record_op", "opcot.client_record_op"),
    (simkit, "commit_transaction", "opcot.commit_transaction"),
    (opcot, "rebase_to_server_time", "opcot.rebase_to_server_time"),
    (opcot, "validate_commit", "opcot.validate_commit"),
    (core.History, "record_op", "core.History.record_op"),
    (baselines.LockTable, "acquire", "s2pl.LockTable.acquire"),
    (baselines.LockTable, "find_cycle", "s2pl.LockTable.find_cycle"),
    (baselines.LockTable, "release_all", "s2pl.LockTable.release_all"),
    (simkit, "occ_validate", "occ.occ_validate"),
    (harness, "verify_run", "harness.verify_run"),
    (harness, "conflict_skeleton", "oracle.conflict_skeleton"),
    (harness, "is_acyclic", "oracle.is_acyclic"),
    (harness, "check_commitment_ordering", "oracle.check_commitment_ordering"),
    (harness, "metrics_for_run", "harness.metrics_for_run"),
    (harness, "rows_to_csv", "harness.rows_to_csv"),
]

LAYERS = ("simkit", "core", "opcot", "s2pl", "occ", "oracle", "harness")


# span name -> (counter, amount a call adds to it given its result)
OUTCOMES = {
    "s2pl.LockTable.acquire": ("s2pl.queued", lambda r: not isinstance(r, baselines.Granted)),
    "s2pl.LockTable.find_cycle": ("s2pl.cycles_found", bool),
    "opcot.commit_transaction": ("opcot.committed", lambda r: r.committed),
    "occ.occ_validate": ("occ.committed", lambda r: r is core.Outcome.COMMITTED),
    "oracle.conflict_skeleton": ("oracle.skeleton_edges", lambda r: len(r.edges)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [name for _, _, name in SPANS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell_of = array("i")
        self.cell = -1          # id of the cell now running, set by run_pass
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _wrap(self, name_id: int, fn):
        outcome = OUTCOMES.get(self.names[name_id])
        counts = self.counts

        def span(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1])
            self.cell_of.append(self.cell)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if outcome is not None:
                counts[outcome[0]] += outcome[1](result)
            return result
        return span

    def _counting(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Wrap every traced call for the duration of the block."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in SPANS]
        pop = simkit.EventQueue.pop
        try:
            for name_id, (owner, attr, original) in enumerate(saved):
                setattr(owner, attr, self._wrap(name_id, original))
            simkit.EventQueue.pop = self._counting("simkit.events", pop)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            simkit.EventQueue.pop = pop

    def by_name(self) -> dict[str, tuple[float, float, int]]:
        """span name -> (total seconds, self seconds, calls).

        Self time is a span's duration minus the durations of its direct
        children; children never overlap, since every wrapped call returns
        before its caller continues."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals = {name: [0.0, 0.0, 0] for name in self.names}
        for i in range(n):
            agg = totals[self.names[self.name[i]]]
            agg[0] += dur[i]
            agg[1] += dur[i] - child[i]
            agg[2] += 1
        return {name: tuple(agg) for name, agg in totals.items()}

    def root_seconds(self) -> float:
        """Summed duration of spans with no traced parent."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, start and end in
        microseconds from the first span, parent index (-1 for none), cell id
        (-1 outside any cell)."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\tcell\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\t"
                         f"{self.parent[i]}\t{self.cell_of[i]}\n")


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float,
                  history_events: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit).

    A ratio whose base is zero (the layer did not run) is reported as 0."""
    spans = tracer.by_name()
    counts = tracer.counts

    def total(name):
        return spans[name][0]

    def self_s(name):
        return spans[name][1]

    def calls(name):
        return spans[name][2]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    events = counts["simkit.events"]
    sim_s = total("simkit.run_simulation")
    gen_s = total("simkit.gen_workload")
    out = {
        "simkit.gen_workload_s": (gen_s, "s"),
        "simkit.run_simulation_s": (sim_s, "s"),
        "simkit.loop_self_s": (self_s("simkit.run_simulation"), "s"),
        "simkit.events": (events, "count"),
        "simkit.host_us_per_event": (ratio(sim_s - gen_s, events) * 1e6, "us"),
        "core.record_op_s": (total("core.History.record_op"), "s"),
        "core.history_events": (history_events, "count"),
        "opcot.commit_s": (total("opcot.commit_transaction"), "s"),
        "opcot.rebase_s": (total("opcot.rebase_to_server_time"), "s"),
        "opcot.validate_s": (total("opcot.validate_commit"), "s"),
        "opcot.client_record_op_s": (total("opcot.client_record_op"), "s"),
        "opcot.commits_attempted": (calls("opcot.commit_transaction"), "count"),
        "opcot.commit_ratio": (ratio(counts["opcot.committed"],
                                     calls("opcot.commit_transaction")), "ratio"),
        "s2pl.acquire_self_s": (self_s("s2pl.LockTable.acquire"), "s"),
        "s2pl.acquire_calls": (calls("s2pl.LockTable.acquire"), "count"),
        "s2pl.queued_ratio": (ratio(counts["s2pl.queued"],
                                    calls("s2pl.LockTable.acquire")), "ratio"),
        "s2pl.find_cycle_s": (total("s2pl.LockTable.find_cycle"), "s"),
        "s2pl.find_cycle_calls": (calls("s2pl.LockTable.find_cycle"), "count"),
        "s2pl.cycles_found": (counts["s2pl.cycles_found"], "count"),
        "s2pl.release_all_s": (total("s2pl.LockTable.release_all"), "s"),
        "occ.validate_s": (total("occ.occ_validate"), "s"),
        "occ.validate_calls": (calls("occ.occ_validate"), "count"),
        "occ.commit_ratio": (ratio(counts["occ.committed"],
                                   calls("occ.occ_validate")), "ratio"),
        "oracle.skeleton_s": (total("oracle.conflict_skeleton"), "s"),
        "oracle.skeleton_edges": (counts["oracle.skeleton_edges"], "count"),
        "oracle.cycle_s": (total("oracle.is_acyclic"), "s"),
        "oracle.co_scan_s": (total("oracle.check_commitment_ordering"), "s"),
        "harness.verify_s": (total("harness.verify_run"), "s"),
        "harness.metrics_s": (total("harness.metrics_for_run"), "s"),
        "harness.csv_s": (total("harness.rows_to_csv"), "s"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(s for name, (_, s, _) in spans.items()
                                      if name.split(".", 1)[0] == layer), "s")
    out["trace.unattributed_s"] = (traced_wall_s - tracer.root_seconds(), "s")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    out["trace.spans"] = (len(tracer.start), "count")
    return out
