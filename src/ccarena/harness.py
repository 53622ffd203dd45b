"""Experiment harness: metrics, matrix runs, CSV emission, oracle gate.

Every simulation run is checked before its metrics row is emitted: the
committed history must be conflict-serializable and must satisfy the
commit-order property, and no operation may come after its own
transaction's terminal, whichever protocol produced it. judge computes the
gate's findings once, for the gate and for `ccarena check`: one commit-order
check, a replay that returns each finding, a late operation included, whose
pass implies an acyclic conflict graph; only a history it fails builds the
conflict skeleton, to name a cycle if there is one.
A violation dumps the offending history to a file, by default in the working
directory, and aborts the whole matrix.
"""

import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product

from .core import ConfigError, History
from .oracle import (CoCheck, CycleCheck, check_commitment_ordering, conflict_skeleton,
                     is_acyclic)
from .simkit import (FIELD_TYPES, PROTOCOLS, RunResult, SimConfig, TxnTiming, parse_kv_text,
                     parse_value, run_simulation)

CSV_HEADER = ("protocol,seed,n_txns,n_items,committed,aborted,abort_rate,"
              "mean_wait_ms,p95_wait_ms,mean_messages_per_txn")


class OracleViolation(RuntimeError):
    """A run produced a history that fails its correctness checks."""


@dataclass
class RunMetrics:
    protocol: str
    seed: int
    n_txns: int
    n_items: int
    committed: int
    aborted: int
    abort_rate: float
    mean_wait_ms: float
    p95_wait_ms: float
    mean_messages_per_txn: float

    def sort_key(self):
        return (self.protocol, self.n_items, self.n_txns, self.seed)

    def csv_row(self) -> str:
        return (f"{self.protocol},{self.seed},{self.n_txns},{self.n_items},"
                f"{self.committed},{self.aborted},{self.abort_rate:.6f},"
                f"{self.mean_wait_ms:.3f},{self.p95_wait_ms:.3f},"
                f"{self.mean_messages_per_txn:.3f}")


def compute_abort_rate(aborted: int, total: int) -> float:
    """Aborted transactions over all transactions."""
    if total < 1:
        raise ConfigError(f"total must be >= 1, got {total}")
    if not 0 <= aborted <= total:
        raise ConfigError(f"aborted must be in [0, {total}], got {aborted}")
    return aborted / total


def compute_waiting_time(timing: TxnTiming) -> int:
    """Wall duration minus the time spent performing instructions."""
    if timing.terminal_ms < timing.submit_ms:
        raise ConfigError("terminal instant precedes submit instant")
    if timing.terminal_ms - timing.submit_ms < timing.service_ms:
        raise ConfigError("service time exceeds the time from submit to terminal")
    return (timing.terminal_ms - timing.submit_ms) - timing.service_ms


def _p95(values: list[int]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return float(ordered[rank - 1])


def metrics_for_run(result: RunResult) -> RunMetrics:
    waits = [compute_waiting_time(t) for t in result.timings]
    msgs = [t.messages for t in result.timings]
    n = result.config.n_txns
    return RunMetrics(
        protocol=result.config.protocol,
        seed=result.config.seed,
        n_txns=n,
        n_items=result.config.n_items,
        committed=result.committed,
        aborted=result.aborted,
        abort_rate=compute_abort_rate(result.aborted, n),
        mean_wait_ms=sum(waits) / n,
        p95_wait_ms=_p95(waits),
        mean_messages_per_txn=sum(msgs) / n,
    )


def judge(history: History) -> tuple[CoCheck, CycleCheck]:
    """The gate's findings: the commit-order check and the cycle search.

    check_commitment_ordering decides, in one replay of the commits; it also
    names an operation after its own terminal in its `late`. A pass means
    every conflict edge points to a strictly later commit, so commit order is
    a topological order and the graph is acyclic (Raz's commitment-ordering
    argument): the cycle search passes without a graph. Only a failed check
    builds the conflict skeleton and searches it for a cycle.
    """
    co = check_commitment_ordering(history)
    return co, (CycleCheck(True) if co else is_acyclic(conflict_skeleton(history)))


def verify_run(history: History, protocol: str) -> str | None:
    """Oracle-in-the-loop check; returns a violation description or None.

    Every protocol must produce a serializable, commit-ordered history: opcot
    validates commit order directly, strict 2PL holds every lock until its
    terminal, and backward-validation OCC installs its writes at commit. The
    protocol does not change which checks run.

    The description comes from judge's findings, the first that fails of: an
    operation after its own terminal, a cycle, a commit-order violation.
    """
    co, cycles = judge(history)
    if co:
        return None
    if co.late is not None:
        return f"operation after its own terminal: {co.late}"
    if not cycles:
        return f"serialization graph has a cycle: {cycles.cycle}"
    return f"commitment ordering violated: {co.violation}"


@dataclass
class MatrixConfig:
    """Cross product of protocols x txn counts x item counts x seeds.

    When arrival_window_ms is set, each cell's arrival mean becomes
    window / n_txns, so adding transactions to a fixed submission window
    raises contention, which is how the txn-count axis is meant to scale.
    A negative window, or a window with a base arrival_mean_ms, is a
    ConfigError.
    """

    protocols: list[str] = field(default_factory=lambda: list(PROTOCOLS))
    n_txns_list: list[int] = field(default_factory=lambda: [200])
    n_items_list: list[int] = field(default_factory=lambda: [100])
    seeds: list[int] = field(default_factory=lambda: [1])
    base: SimConfig = field(default_factory=SimConfig)
    arrival_window_ms: int | None = None

    def cells(self) -> list[SimConfig]:
        if self.arrival_window_ms is not None and self.arrival_window_ms < 0:
            raise ConfigError("arrival_window_ms must be >= 0")
        if self.arrival_window_ms is not None and self.base.arrival_mean_ms is not None:
            raise ConfigError("arrival_mean_ms and arrival_window_ms both set the arrival "
                              "mean; set only one")
        out = []
        for protocol, n_items, n_txns, seed in product(self.protocols, self.n_items_list,
                                                       self.n_txns_list, self.seeds):
            cfg = replace(self.base, protocol=protocol, n_items=n_items, n_txns=n_txns, seed=seed)
            if self.arrival_window_ms is not None:
                cfg = replace(cfg, arrival_mean_ms=_window_mean(self.arrival_window_ms, n_txns))
            out.append(cfg)
        return out

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "MatrixConfig":
        """Build a matrix from key=value text; non-matrix keys form the base.
        A base key that an axis sets for every cell (n_txns) is a ConfigError."""
        for key, (_, name) in _LIST_KEYS.items():
            if name in mapping:
                raise ConfigError(f"{name} is a matrix axis; set {key} = {mapping[name]}")
        window = "arrival_window_ms"
        mx = cls(base=SimConfig.from_mapping({key: raw for key, raw in mapping.items()
                                              if key not in _LIST_KEYS and key != window}))
        for key, (attr, name) in _LIST_KEYS.items():
            if key in mapping:
                setattr(mx, attr, _parse_list(mx.base, key, name, mapping[key]))
        if window in mapping:
            mx.arrival_window_ms = parse_value(window, mapping[window], int)
        return mx

    @classmethod
    def from_file(cls, path: str) -> "MatrixConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_mapping(parse_kv_text(fh.read()))


def _window_mean(window: int, n_txns: int) -> int:
    """Arrival mean that spreads n_txns submissions over window ms, >= 1."""
    try:
        return max(1, round(window / n_txns))
    except OverflowError:
        raise ConfigError(f"arrival_window_ms is too large to spread over "
                          f"{n_txns} transactions") from None


# matrix list key -> (MatrixConfig attribute, SimConfig field of each element)
_LIST_KEYS = {"protocols": ("protocols", "protocol"), "txns": ("n_txns_list", "n_txns"),
              "items": ("n_items_list", "n_items"), "seeds": ("seeds", "seed")}
# most seeds a `seeds = lo:hi` range may span; a longer one is refused before
# it is built
MAX_SEED_RANGE = 100_000


def _parse_list(base: SimConfig, key: str, name: str, raw: str) -> list:
    """Comma list of field `name` values, each parsed and checked as the field
    is; `seeds` also takes an inclusive range `lo:hi` of at most MAX_SEED_RANGE
    seeds. A value listed twice, as parsed (`occ, OCC`), is a ConfigError: it
    would run its cells again."""
    kind = FIELD_TYPES[name]
    if key == "seeds" and ":" in raw:
        lo, hi = (parse_value(key, part, kind) for part in raw.split(":", 1))
        if hi - lo >= MAX_SEED_RANGE:
            raise ConfigError(f"{key} = {raw} spans more than {MAX_SEED_RANGE} seeds")
        values = list(range(lo, hi + 1))
        # every check on an int field is an interval test, so a range passes
        # when its two ends do
        checked = values[:1] + values[-1:]
    else:
        values = checked = [parse_value(key, part.strip(), kind) for part in raw.split(",")]
    if not values:
        raise ConfigError(f"{key} = {raw} lists no values, so the matrix has no cells")
    for value in checked:
        replace(base, **{name: value})
    repeated = [value for value, n in Counter(values).items() if n > 1]
    if repeated:
        raise ConfigError(f"{key} = {raw} lists {repeated[0]} more than once")
    return values


def gate_run(result: RunResult, dump_dir: str = os.curdir) -> str | None:
    """Oracle gate for one run: the violation text, or None when clean.

    A failing history is written to `dump_dir` for `ccarena check`. The
    violation text ends with where it went, relative to the working
    directory, or, when it could not be written, why not. A failed dump
    never hides the violation.
    """
    cfg = result.config
    violation = verify_run(result.history, cfg.protocol)
    if violation is None:
        return None
    dump = os.path.join(dump_dir, f"oracle_violation_{cfg.protocol}_items{cfg.n_items}"
                                  f"_txns{cfg.n_txns}_seed{cfg.seed}.history")
    shown = os.path.relpath(dump)
    try:
        write_text(dump, result.history.to_text())
    except OSError as exc:
        return f"{violation} (history not dumped to {shown}: {exc})"
    return f"{violation} (history dumped to {shown})"


def _run_cell(cfg: SimConfig, dump_dir: str) -> tuple[RunMetrics | None, str | None]:
    """Worker body: run, verify, summarize. Returns (metrics, violation)."""
    result = run_simulation(cfg)
    violation = gate_run(result, dump_dir)
    return (metrics_for_run(result) if violation is None else None), violation


def run_matrix(matrix: MatrixConfig, workers: int = 1,
               dump_dir: str = os.curdir) -> list[RunMetrics]:
    """Run every cell, gate each run through the oracle, return sorted rows.

    Rows are sorted by (protocol, n_items, n_txns, seed) so output does not
    depend on scheduling. Any oracle violation aborts the matrix; a violating
    history is dumped to `dump_dir`. `workers` must be at least 1; the pool
    gets at most one worker per cell, since it may start all of them at once.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    cells = matrix.cells()
    workers = min(workers, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(_run_cell, dump_dir=dump_dir), cells, chunksize=1))
    else:
        outcomes = [_run_cell(cfg, dump_dir) for cfg in cells]
    rows = []
    for cfg, (metrics, violation) in zip(cells, outcomes):
        if violation is not None:
            raise OracleViolation(
                f"{cfg.protocol} seed={cfg.seed} items={cfg.n_items} txns={cfg.n_txns}: "
                f"{violation}")
        rows.append(metrics)
    rows.sort(key=RunMetrics.sort_key)
    return rows


def rows_to_csv(rows: list[RunMetrics]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in rows]) + "\n"


def rows_to_gnuplot(rows: list[RunMetrics]) -> str:
    """Plain-text blocks for direct plotting: one block per (protocol, items),
    one line per txn count with seed-averaged aborts and waiting time."""
    groups: dict[tuple[str, int], dict[int, list[RunMetrics]]] = {}
    for row in rows:
        groups.setdefault((row.protocol, row.n_items), {}).setdefault(row.n_txns, []).append(row)
    blocks = []
    for (protocol, n_items), by_txns in sorted(groups.items()):
        lines = [f"# protocol={protocol} items={n_items}",
                 "# n_txns mean_aborted mean_wait_ms"]
        for n_txns, cell_rows in sorted(by_txns.items()):
            mean_ab = sum(r.aborted for r in cell_rows) / len(cell_rows)
            mean_wait = sum(r.mean_wait_ms for r in cell_rows) / len(cell_rows)
            lines.append(f"{n_txns} {mean_ab:.3f} {mean_wait:.3f}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, with newlines left as they are."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
