"""Acceptance suite: one test per exit criterion.

Each test prints a single "[criterion N] PASS" line (visible with -s, or via
the captured output on failure). The desk-scale matrix keeps the published
experiment's contention ratios at a tenth of its size: 100/1000 items,
transaction length scaled with the table, and a fixed submission window so
that raising the transaction count raises contention.
"""

import dataclasses
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from test_opcot import total_span

from ccarena.baselines import OccBook, occ_validate
from ccarena.core import BEGIN, COMMIT, History, OpKind, Outcome, read, write
from ccarena.harness import (
    MatrixConfig,
    compute_abort_rate,
    rows_to_csv,
    run_matrix,
)
from ccarena.opcot import (
    ItemRegistry,
    LogRecord,
    OperatorLog,
    commit_transaction,
    log_from_text,
    rebase_to_server_time,
)
from ccarena.oracle import (
    brute_force_serializable,
    build_serialization_graph,
    check_commitment_ordering,
    is_acyclic,
)
from ccarena.rng import DetRng
from ccarena.simkit import SimConfig, gen_workload, run_simulation

FIXTURES = Path(__file__).parent / "fixtures"
SEEDS = list(range(1, 21))

# desk-scale knobs shared by the matrix criteria; calibrated once, pinned here
DESK = dict(mean_len=5.0, sd_len=1.0, op_service_ms=10,
            uplink_latency_ms=(20, 60), downlink_latency_ms=(20, 60),
            disconnect_prob=0.10, reconnect_delay_ms=(100, 300))
WINDOW_MS = 200_000
WAIT_RETRIES = 3
WORKERS = 2


def report(number: int, text: str) -> None:
    print(f"[criterion {number:>2}] PASS: {text}")


def _sweep_verdicts(seed: int) -> tuple[bool, bool]:
    """(acyclic, commitment-ordered) for the sweep's run of one seed: 20-50
    txns, 10-20 items, disconnect 0.2."""
    cfg = SimConfig(protocol="opcot",
                    n_items=10 + seed % 11,
                    n_txns=20 + seed % 31,
                    mean_len=float(4 + seed % 9), sd_len=2.0,
                    op_service_ms=10,
                    uplink_latency_ms=(20, 60), downlink_latency_ms=(20, 60),
                    disconnect_prob=0.2, reconnect_delay_ms=(100, 300),
                    seed=seed)
    history = run_simulation(cfg).history
    return (bool(is_acyclic(build_serialization_graph(history))),
            check_commitment_ordering(history).ok)


def sweep_failures(seeds: list[int], workers: int,
                   verdict=_sweep_verdicts) -> tuple[list[int], list[int]]:
    """The seeds whose run is cyclic, and those whose run is not
    commitment-ordered, each in seed order, over `workers` processes. The
    workers are spawned, so they start from a fresh import."""
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            verdicts = list(pool.map(verdict, seeds, chunksize=10))
    else:
        verdicts = list(map(verdict, seeds))
    return ([seed for seed, (acyclic, _) in zip(seeds, verdicts) if not acyclic],
            [seed for seed, (_, ordered) in zip(seeds, verdicts) if not ordered])


@pytest.fixture(scope="module")
def property_sweep():
    """1,000 randomized commitment-ordering runs; both global checks in one
    pass over seeds 1..1000."""
    t0 = time.time()
    acyclic_failures, co_failures = sweep_failures(list(range(1, 1001)), WORKERS)
    return acyclic_failures, co_failures, time.time() - t0


@pytest.fixture(scope="module")
def abort_rows():
    """Run set for the abort criteria: terminal aborts, both table sizes."""
    mx = MatrixConfig(protocols=["opcot", "occ", "s2pl"], n_txns_list=[2000],
                      n_items_list=[100, 1000], seeds=SEEDS,
                      base=SimConfig(**DESK), arrival_window_ms=WINDOW_MS)
    return run_matrix(mx, workers=WORKERS)


@pytest.fixture(scope="module")
def waiting_rows():
    """Run set for the waiting criterion: aborted attempts are resubmitted."""
    mx = MatrixConfig(protocols=["opcot", "occ", "s2pl"],
                      n_txns_list=[1000, 2000], n_items_list=[100], seeds=SEEDS,
                      base=SimConfig(retries=WAIT_RETRIES, **DESK),
                      arrival_window_ms=WINDOW_MS)
    return run_matrix(mx, workers=WORKERS)


def seed_means(rows, protocol, n_items, n_txns, field):
    cell = [getattr(r, field) for r in rows
            if r.protocol == protocol and r.n_items == n_items and r.n_txns == n_txns]
    assert len(cell) == len(SEEDS)
    return statistics.fmean(cell)


def test_criterion_1_serializability_property(property_sweep):
    acyclic_failures, _, elapsed = property_sweep
    assert acyclic_failures == [], \
        f"serialization-graph cycles in seeds {acyclic_failures[:10]}"
    assert elapsed < 60, f"sweep took {elapsed:.1f}s, budget is 60s"
    report(1, f"1000/1000 committed histories acyclic ({elapsed:.1f}s)")


def test_criterion_2_commitment_ordering_property(property_sweep):
    _, co_failures, elapsed = property_sweep
    assert co_failures == [], f"commit-order violations in seeds {co_failures[:10]}"
    report(2, f"1000/1000 histories commitment-ordered ({elapsed:.1f}s)")


def _failing_verdicts(seed: int) -> tuple[bool, bool]:
    """Verdicts that fail on every third and every fourth seed, so the
    failure lists are not empty."""
    return seed % 3 != 0, seed % 4 != 0


@pytest.mark.parametrize("verdict", [_sweep_verdicts, _failing_verdicts])
def test_sweep_failures_do_not_depend_on_the_worker_count(verdict):
    seeds = list(range(1, 101))
    failures = sweep_failures(seeds, 1, verdict)
    assert sweep_failures(seeds, 2, verdict) == failures
    if verdict is _failing_verdicts:
        assert failures == (list(range(3, 101, 3)), list(range(4, 101, 4)))


def _random_small_history(rng: DetRng) -> History:
    n_txns = 1 + rng.randrange(7)  # at most 7 committed
    h = History()
    for txn in range(1, n_txns + 1):
        for _ in range(1 + rng.randrange(6)):
            item = rng.randrange(4)
            op = read(item) if rng.random() < 0.5 else write(item)
            h.record_op(txn, op, rng.randrange(100))
    order = list(range(1, n_txns + 1))
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    for k, txn in enumerate(order):
        outcome = Outcome.COMMITTED if rng.random() < 0.85 else Outcome.ABORTED
        h.record_terminal(txn, outcome, 110 + k)
    return h


def test_criterion_3_oracle_self_consistency():
    rng = DetRng(0xC0FFEE)
    t0 = time.time()
    agreements = {True: 0, False: 0}
    for case in range(500):
        h = _random_small_history(rng)
        expected = bool(is_acyclic(build_serialization_graph(h)))
        got = brute_force_serializable(h)
        assert got == expected, f"oracle disagreement on case {case}"
        agreements[expected] += 1
    elapsed = time.time() - t0
    assert elapsed < 30, f"consistency sweep took {elapsed:.1f}s, budget is 30s"
    assert agreements[True] > 50 and agreements[False] > 50
    report(3, f"brute force == graph acyclicity on 500/500 histories "
              f"({agreements[True]} serializable, {agreements[False]} not, {elapsed:.1f}s)")


def _load_fixture(name: str, txn_id: int):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    receipt = None
    for line in text.splitlines():
        if line.startswith("# receipt"):
            receipt = int(line.split()[2])
    assert receipt is not None, f"{name} lacks a receipt header"
    return log_from_text(text, txn_id), receipt


def _occ_replay(schedule):
    """Validate (log, receipt) pairs backwards in receipt order; each commit
    request carries the rebased begin instant and the log's read and write
    sets."""
    book = OccBook()
    outcomes = {}
    for log, receipt in sorted(schedule, key=lambda pair: pair[1]):
        start = rebase_to_server_time(log, receipt)[0]
        sets = {kind: {rec.op.item_id for rec in log.records if rec.op.kind is kind}
                for kind in (OpKind.READ, OpKind.WRITE)}
        outcomes[log.txn_id] = occ_validate(book, start, sets[OpKind.READ],
                                            sets[OpKind.WRITE], receipt)
    return outcomes


def test_criterion_4_differential_motivating_schedules():
    writer, overlapper, first_writer = 1, 2, 3
    # schedule A: overlapping writer commits first, reader's read lands after
    log_w, rc_w = _load_fixture("schedule_a_writer.log", writer)
    log_r, rc_r = _load_fixture("schedule_a_reader.log", overlapper)
    reg = ItemRegistry(1)
    assert commit_transaction(reg, log_w, rc_w).committed
    decision_a = commit_transaction(reg, log_r, rc_r)
    assert decision_a.committed, "commitment ordering must accept schedule A"

    occ_a = _occ_replay([(log_w, rc_w), (log_r, rc_r)])
    assert occ_a[writer] is Outcome.COMMITTED
    assert occ_a[overlapper] is Outcome.ABORTED, \
        "backward validation must reject schedule A"

    # schedule B: the overlapper read then wrote the item; a write and a read
    # committed inside its lifetime, every conflict aligned with commit order
    log_fw, rc_fw = _load_fixture("schedule_b_first_writer.log", first_writer)
    log_lr, rc_lr = _load_fixture("schedule_b_late_reader.log", writer)
    log_rw, rc_rw = _load_fixture("schedule_b_read_writer.log", overlapper)
    reg_b = ItemRegistry(1)
    assert commit_transaction(reg_b, log_fw, rc_fw).committed
    assert commit_transaction(reg_b, log_lr, rc_lr).committed
    decision_b = commit_transaction(reg_b, log_rw, rc_rw)
    assert decision_b.committed, "commitment ordering must accept schedule B"

    occ_b = _occ_replay([(log_fw, rc_fw), (log_lr, rc_lr), (log_rw, rc_rw)])
    assert occ_b[first_writer] is Outcome.COMMITTED
    assert occ_b[writer] is Outcome.COMMITTED
    assert occ_b[overlapper] is Outcome.ABORTED, \
        "backward validation must reject schedule B"
    report(4, "both motivating schedules: commitment ordering commits, "
              "backward validation aborts")


def test_criterion_5_abort_count_ordering(abort_rows):
    occ = seed_means(abort_rows, "occ", 100, 2000, "aborted")
    s2pl = seed_means(abort_rows, "s2pl", 100, 2000, "aborted")
    opcot = seed_means(abort_rows, "opcot", 100, 2000, "aborted")
    assert occ > s2pl > opcot, \
        f"mean aborts must order occ > s2pl > opcot, got {occ:.1f}, {s2pl:.1f}, {opcot:.1f}"
    per_seed_occ = {r.seed: r.aborted for r in abort_rows
                    if r.protocol == "occ" and r.n_items == 100 and r.n_txns == 2000}
    per_seed_opcot = {r.seed: r.aborted for r in abort_rows
                      if r.protocol == "opcot" and r.n_items == 100 and r.n_txns == 2000}
    wins = sum(1 for s in SEEDS if per_seed_occ[s] > per_seed_opcot[s])
    assert wins >= 18, f"occ > opcot in only {wins}/20 seeds"
    report(5, f"mean aborts occ={occ:.1f} > s2pl={s2pl:.1f} > opcot={opcot:.1f}; "
              f"occ > opcot in {wins}/20 seeds")


def test_criterion_6_contention_trend(abort_rows):
    lines = []
    for protocol in ("opcot", "occ", "s2pl"):
        tight = seed_means(abort_rows, protocol, 100, 2000, "aborted")
        roomy = seed_means(abort_rows, protocol, 1000, 2000, "aborted")
        assert roomy < tight, \
            f"{protocol}: aborts must drop with a larger table ({roomy:.1f} !< {tight:.1f})"
        lines.append(f"{protocol} {tight:.1f}->{roomy:.1f}")
    report(6, "larger table lowers mean aborts for every protocol: " + "; ".join(lines))


def test_criterion_7_waiting_time_ordering_and_growth(waiting_rows):
    wait = {(p, n): seed_means(waiting_rows, p, 100, n, "mean_wait_ms")
            for p in ("opcot", "occ", "s2pl") for n in (1000, 2000)}
    assert wait[("s2pl", 2000)] > wait[("occ", 2000)], \
        "locking must have the longest waiting time (vs occ)"
    assert wait[("s2pl", 2000)] > wait[("opcot", 2000)], \
        "locking must have the longest waiting time (vs opcot)"
    slope_occ = wait[("occ", 2000)] - wait[("occ", 1000)]
    slope_opcot = wait[("opcot", 2000)] - wait[("opcot", 1000)]
    assert slope_opcot < slope_occ, \
        f"waiting-time growth must be smaller for opcot ({slope_opcot:.1f} !< {slope_occ:.1f})"
    report(7, f"wait@2000: s2pl={wait[('s2pl', 2000)]:.0f} > occ={wait[('occ', 2000)]:.0f}, "
              f"opcot={wait[('opcot', 2000)]:.0f}; slope opcot={slope_opcot:.1f} < "
              f"occ={slope_occ:.1f}")


def test_criterion_8_abort_rate_arithmetic():
    assert compute_abort_rate(10, 200) == 0.05
    report(8, "compute_abort_rate(10, 200) == 0.05 exactly")


def test_criterion_9_rebase_recurrence_property():
    rng = DetRng(90210)
    for _ in range(10_000):
        records = [LogRecord(BEGIN, 0)]
        for _ in range(rng.randrange(12)):
            op = read(rng.randrange(30)) if rng.random() < 0.5 else write(rng.randrange(30))
            records.append(LogRecord(op, rng.randrange(2000)))
        records.append(LogRecord(COMMIT, rng.randrange(2000)))
        log = OperatorLog(0, records)
        receipt = total_span(log) + rng.randrange(100_000)
        instants = rebase_to_server_time(log, receipt)
        assert instants[-1] == receipt
        for k in range(1, len(records)):
            assert instants[k] - instants[k - 1] == records[k].rel_ts
    report(9, "10,000 random logs: rebased gaps reproduce the relative "
              "timestamps, final instant equals the receipt")


def test_criterion_10_determinism():
    def one_pass():
        mx = MatrixConfig(protocols=["opcot", "occ", "s2pl"], n_txns_list=[60],
                          n_items_list=[20], seeds=[1, 2],
                          base=SimConfig(**DESK), arrival_window_ms=12_000)
        return rows_to_csv(run_matrix(mx, workers=1))

    first, second = one_pass(), one_pass()
    assert first.encode() == second.encode(), "rerun must be byte-identical"
    report(10, "identical matrix reruns produce byte-identical CSV")


def test_criterion_11_message_economy():
    opcot_cfg = SimConfig(protocol="opcot", n_txns=300, n_items=50,
                          disconnect_prob=0.3, seed=5, **{
                              k: v for k, v in DESK.items() if k != "disconnect_prob"})
    opcot_run = run_simulation(opcot_cfg)
    assert all(t.messages == 2 for t in opcot_run.timings), \
        "every commitment-ordering txn must exchange exactly 2 messages"

    s2pl_cfg = SimConfig(protocol="s2pl", n_txns=300, n_items=50, seed=5, **DESK)
    s2pl_run = run_simulation(s2pl_cfg)
    workload = gen_workload(s2pl_cfg, DetRng(s2pl_cfg.seed).spawn(1))
    completed = [t for t in s2pl_run.timings if t.outcome is Outcome.COMMITTED]
    assert completed, "the locking run must commit something"
    for t in completed:
        n_ops = len(workload[t.txn_id])
        assert t.messages >= 2 * n_ops, \
            "locking must exchange at least two messages per data operation"
        assert t.messages == 2 * n_ops + 2  # one exchange per lock, one to commit
    report(11, "opcot: exactly 2 messages per txn; s2pl: 2 per data op plus "
               "the commit exchange")


def test_criterion_12_opcot_aborts_do_not_grow_with_the_disconnection():
    """The paper's motivating problem: a client disconnected for an unknown
    duration. opcot rebases its log to the commit's receipt, so a longer
    reconnect delay does not widen the span its operations validate in;
    occ's validation window and s2pl's lock holding both stretch with it."""
    short, long = (100, 300), (5000, 15000)
    seeds = range(1, 6)
    base = SimConfig(**DESK, n_items=100, n_txns=1000, arrival_mean_ms=200)
    aborted = {(p, delay, seed): run_simulation(dataclasses.replace(
                   base, protocol=p, reconnect_delay_ms=delay, seed=seed)).aborted
               for p in ("opcot", "occ", "s2pl") for delay in (short, long) for seed in seeds}
    mean = {(p, delay): statistics.fmean(aborted[p, delay, s] for s in seeds)
            for p in ("opcot", "occ", "s2pl") for delay in (short, long)}
    assert mean["opcot", long] <= 1.5 * mean["opcot", short], \
        f"opcot aborts grew {mean['opcot', short]:.1f} -> {mean['opcot', long]:.1f}"
    for p in ("occ", "s2pl"):
        assert mean[p, long] >= 4 * mean[p, short], \
            f"{p} aborts grew only {mean[p, short]:.1f} -> {mean[p, long]:.1f}"
        losses = [s for s in seeds if aborted["opcot", long, s] >= aborted[p, long, s]]
        assert losses == [], f"opcot aborts no fewer than {p} at the long delay in seeds {losses}"
    report(12, "reconnect 100-300 -> 5000-15000 ms, mean aborts: " + "; ".join(
        f"{p} {mean[p, short]:.1f}->{mean[p, long]:.1f}" for p in ("opcot", "occ", "s2pl"))
        + "; opcot fewest in 5/5 seeds")
