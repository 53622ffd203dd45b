import re
from collections import Counter
from dataclasses import dataclass

import pytest

from ccarena.core import (
    BEGIN,
    COMMIT,
    History,
    InvalidLogError,
    Operation,
    OpKind,
    Outcome,
    TerminalEvent,
    read,
    write,
)
from ccarena.opcot import (
    CommitDecision,
    ItemRegistry,
    LogRecord,
    OperatorLog,
    RebaseUnderflowError,
    UnknownItemError,
    client_record_op,
    client_record_ops,
    commit_transaction,
    log_from_text,
    log_validate,
    rebase_to_server_time,
    validate_commit,
)
from ccarena.oracle import check_commitment_ordering
from ccarena.rng import DetRng


def log_of(text, txn_id=0):
    return log_from_text(text, txn_id)


def stamps_of(registry):
    """(t_read, t_write) per item of the registry, in item order, with (0, 0)
    for an item no commit stamped: the table as if it held every item."""
    stamps = dict.fromkeys(range(registry.n_items), (0, 0))
    stamps.update(registry.held)
    return stamps


def total_span(log):
    """Sum of all relative timestamps (client-side duration of the log)."""
    return sum(r.rel_ts for r in log.records)


class TestClientRecordOp:
    def test_begin_anchors_at_zero(self):
        log, prev = client_record_op(OperatorLog(1), BEGIN, 500, 500)
        assert [(r.op, r.rel_ts) for r in log.records] == [(BEGIN, 0)]
        assert prev == 500

    def test_read_records_elapsed_time(self):
        log, prev = client_record_op(OperatorLog(1), BEGIN, 500, 500)
        log, prev = client_record_op(log, read(7), 540, prev)
        assert log.records[-1] == LogRecord(read(7), 40)
        assert prev == 540

    def test_write_after_read(self):
        log, prev = client_record_op(OperatorLog(1), BEGIN, 500, 500)
        log, prev = client_record_op(log, read(7), 540, prev)
        log, prev = client_record_op(log, write(7), 552, prev)
        assert log.records[-1] == LogRecord(write(7), 12)

    def test_clock_regression(self):
        log, prev = client_record_op(OperatorLog(1), BEGIN, 500, 500)
        log, prev = client_record_op(log, read(7), 499, prev)
        assert log.records[-1] == LogRecord(read(7), -1) and prev == 499
        client_record_op(log, COMMIT, 510, prev)
        assert_the_server_refuses(log, "record 1 has rel_ts -1, which must be >= 0")

    def test_no_ops_after_commit(self):
        log, prev = client_record_op(OperatorLog(1), BEGIN, 500, 500)
        log, prev = client_record_op(log, COMMIT, 510, prev)
        log, prev = client_record_op(log, read(1), 520, prev)
        client_record_op(log, COMMIT, 530, prev)
        assert_the_server_refuses(log, "Commit appears before the last record")

    def test_begin_only_first(self):
        log, prev = client_record_op(OperatorLog(1), BEGIN, 500, 500)
        log, prev = client_record_op(log, BEGIN, 510, prev)
        client_record_op(log, COMMIT, 520, prev)
        assert_the_server_refuses(log, "Begin appears after the first record")

    @pytest.mark.parametrize("prefix, op, now, message", [
        ([BEGIN, COMMIT], read(1), 520, "Commit appears before the last record"),
        ([BEGIN, COMMIT], BEGIN, 520, "Commit appears before the last record"),
        ([BEGIN], BEGIN, 510, "Begin appears after the first record"),
        ([], read(1), 510, "log does not start with Begin"),
        ([], COMMIT, 510, "log does not start with Begin"),
        ([BEGIN], read(7), 499, "record 1 has rel_ts -1, which must be >= 0"),
        # a shape fault is reported before a negative rel_ts
        ([BEGIN, COMMIT], BEGIN, 499, "Commit appears before the last record"),
        ([], read(1), 499, "log does not start with Begin"),
    ])
    def test_error_precedence(self, prefix, op, now, message):
        log, prev = OperatorLog(1), 500
        for rec_op in prefix:
            log, prev = client_record_op(log, rec_op, 500, prev)
        before = list(log.records)
        assert client_record_op(log, op, now, prev) == (log, now)
        assert log.records == before + [LogRecord(op, now - prev)]  # the client only appends
        client_record_op(log, COMMIT, 530, now)
        assert_the_server_refuses(log, message)


def assert_the_server_refuses(log, message):
    """log_validate, the rebase and a commit each refuse the closed log with
    the server's message; the registry and the history keep what an earlier
    commit left."""
    for server_read in (log_validate, lambda bad: rebase_to_server_time(bad, 100)):
        with pytest.raises(InvalidLogError) as err:
            server_read(log)
        assert str(err.value) == message
    reg, hist = ItemRegistry(8), History()
    earlier = log_of("BEGIN - 0\nR 7 1\nW 1 3\nCOMMIT - 2\n", 2)
    assert commit_transaction(reg, earlier, 50, hist).committed
    stamps, text = stamps_of(reg), hist.to_text()
    with pytest.raises(InvalidLogError) as err:
        commit_transaction(reg, log, 100, hist)
    assert str(err.value) == message
    assert stamps_of(reg) == stamps and hist.to_text() == text


def _random_ops(rng, n, shape_faults):
    """n data operators; with shape_faults, each may be a Begin or a Commit."""
    ops = []
    for _ in range(n):
        roll = rng.random()
        if shape_faults and roll < 0.1:
            ops.append(BEGIN)
        elif shape_faults and roll < 0.2:
            ops.append(COMMIT)
        else:
            ops.append(read(rng.randrange(5)) if roll < 0.6 else write(rng.randrange(5)))
    return ops


def _record_one_by_one(log, ops, step, prev):
    """client_record_op per op, each step ms after the one before:
    (records, final instant)."""
    for op in ops:
        log, prev = client_record_op(log, op, prev + step, prev)
    return log.records, prev


def _verdict(log):
    """log_validate's verdict on a log, numbers left out of its message."""
    try:
        log_validate(log)
    except InvalidLogError as exc:
        return re.sub(r"-?\d+", "N", str(exc))
    return "valid"


class TestClientRecordOps:
    def test_equals_one_call_per_operator(self):
        rng = DetRng(2501)
        seen = Counter()
        for _ in range(3000):
            prefix = [LogRecord(op, 0 if op is BEGIN else 3) for op in
                      [[], [BEGIN], [BEGIN, read(1), write(2)], [BEGIN, write(3), COMMIT]][
                          rng.randrange(4)]]
            ops = _random_ops(rng, rng.randrange(7), shape_faults=rng.random() < 0.5)
            step, prev = rng.randrange(25) - 4, 1000 + rng.randrange(100)
            loop_log, batch_log = OperatorLog(1, list(prefix)), OperatorLog(1, list(prefix))
            want = _record_one_by_one(loop_log, ops, step, prev)
            got = batch_log.records, client_record_ops(batch_log, ops, step, prev)
            assert got == want, (prefix, ops, step)
            assert all(type(r) is LogRecord for r in got[0])
            for log in (loop_log, batch_log):
                client_record_op(log, COMMIT, got[1] + step, got[1])
            assert batch_log.records == loop_log.records
            seen[_verdict(batch_log)] += 1
        # valid, and each of log_validate's five refusals a client can build
        assert len(seen) == 6 and sum(n >= 50 for n in seen.values()) >= 5, seen

    def test_an_open_log_takes_the_operators_one_step_apart(self):
        log, prev = client_record_op(OperatorLog(1), BEGIN, 500, 500)
        assert client_record_ops(log, [read(7), write(7), read(2)], 10, prev) == 530
        assert log.records == [LogRecord(BEGIN, 0), LogRecord(read(7), 10),
                               LogRecord(write(7), 10), LogRecord(read(2), 10)]

    @pytest.mark.parametrize("ops, message", [
        ([read(1)], "record 1 has rel_ts -1, which must be >= 0"),
        ([BEGIN, read(1)], "Begin appears after the first record"),
    ])
    def test_a_negative_step_is_a_clock_regression(self, ops, message):
        log, prev = client_record_op(OperatorLog(1), BEGIN, 500, 500)
        assert client_record_ops(log, ops, -1, prev) == 500 - len(ops)
        assert log.records == [LogRecord(BEGIN, 0)] + [LogRecord(op, -1) for op in ops]
        client_record_op(log, COMMIT, 500, 500 - len(ops))
        assert_the_server_refuses(log, message)

    def test_no_operators_leave_the_log_and_the_instant(self):
        log = OperatorLog(1, [LogRecord(BEGIN, 0), LogRecord(COMMIT, 3)])
        assert client_record_ops(log, [], -1, 500) == 500
        assert log.records == [LogRecord(BEGIN, 0), LogRecord(COMMIT, 3)]


class TestRebase:
    def test_single_record_anchors_at_receipt(self):
        # a lone Begin is not a valid log; the smallest valid one is Begin+Commit
        assert rebase_to_server_time(log_of("BEGIN - 0\nCOMMIT - 0\n"), 42) == [42, 42]

    def test_backward_recurrence(self):
        instants = rebase_to_server_time(
            log_of("BEGIN - 0\nR 3 2\nW 3 3\nCOMMIT - 5\n"), 100)
        assert instants == [90, 92, 95, 100]

    def test_zero_gaps_collapse_to_receipt(self):
        assert rebase_to_server_time(log_of("BEGIN - 0\nR 3 0\nCOMMIT - 0\n"), 7) == [7, 7, 7]

    def test_underflow(self):
        with pytest.raises(RebaseUnderflowError):
            rebase_to_server_time(log_of("BEGIN - 0\nR 3 5\nCOMMIT - 5\n"), 9)

    def test_malformed_log_rejected(self):
        with pytest.raises(InvalidLogError):
            rebase_to_server_time(OperatorLog(0, [LogRecord(read(1), 0)]), 50)

    def test_round_trip_property(self):
        # independent oracle: consecutive differences reproduce the rel_ts
        # sequence and the last instant equals the receipt
        rng = DetRng(2024)
        for _ in range(500):
            records = [LogRecord(BEGIN, 0)]
            for _ in range(rng.randrange(10)):
                op = read(rng.randrange(20)) if rng.random() < 0.5 else write(rng.randrange(20))
                records.append(LogRecord(op, rng.randrange(500)))
            records.append(LogRecord(COMMIT, rng.randrange(500)))
            log = OperatorLog(1, records)
            receipt = total_span(log) + rng.randrange(10_000)
            instants = rebase_to_server_time(log, receipt)
            assert len(instants) == len(records)
            assert instants[-1] == receipt
            for k in range(1, len(records)):
                gap = instants[k] - instants[k - 1]
                assert gap == records[k].rel_ts
                assert gap >= 0  # absolute instants are nondecreasing


def validate(reg, text, receipt):
    log = log_of(text)
    return validate_commit(reg, log, rebase_to_server_time(log, receipt))


def registry_with(item, t_read=0, t_write=0):
    reg = ItemRegistry(item + 1)
    reg.apply_updates([(item, t_read, t_write)])
    return reg


class TestValidateCommit:
    def test_read_after_write_commits_and_keeps_read_stamp(self):
        reg = registry_with(0, t_read=60, t_write=50)
        dec = validate(reg, "BEGIN - 0\nR 0 3\nCOMMIT - 15\n", 70)  # R at 55
        assert dec.committed
        assert dec.updates == [(0, 60, 50)]  # max rule keeps 60

    def test_stale_read_aborts(self):
        reg = registry_with(0, t_write=50)
        log = log_of("BEGIN - 0\nR 0 10\nCOMMIT - 5\n")
        instants = rebase_to_server_time(log, 45)  # R at 40 < 50
        dec = validate_commit(reg, log, instants)
        assert not dec.committed
        assert dec.abort_index == 1
        assert instants[dec.abort_index] == 40
        assert "write" in dec.reason

    def test_write_behind_read_stamp_aborts(self):
        reg = registry_with(0, t_read=60, t_write=50)
        dec = validate(reg, "BEGIN - 0\nW 0 3\nCOMMIT - 15\n", 70)  # W at 55 < t_read 60
        assert not dec.committed
        assert "read" in dec.reason

    def test_fresh_write_commits(self):
        reg = registry_with(0, t_read=60, t_write=50)
        dec = validate(reg, "BEGIN - 0\nW 0 18\nCOMMIT - 5\n", 75)  # W at 70
        assert dec.committed
        assert dec.updates == [(0, 60, 70)]

    def test_empty_data_log_commits_vacuously(self):
        reg = registry_with(0, t_read=99, t_write=98)
        before = stamps_of(reg)
        dec = validate(reg, "BEGIN - 0\nCOMMIT - 1\n", 6)
        assert dec.committed and dec.updates == []
        assert stamps_of(reg) == before

    def test_ties_pass(self):
        # conditions are strict comparisons, so equal instants validate
        reg = registry_with(0, t_read=50, t_write=50)
        dec = validate(reg, "BEGIN - 0\nR 0 0\nW 0 0\nCOMMIT - 0\n", 50)
        assert dec.committed
        assert dec.updates == [(0, 50, 50)]

    def test_staged_updates_visible_within_log(self):
        # W@75 stages the write stamp, R@78 then stages the read stamp on top
        # of it; the decision carries the accumulated pair and the registry
        # itself stays untouched until commit
        reg = registry_with(0)
        dec = validate(reg, "BEGIN - 0\nW 0 0\nR 0 3\nCOMMIT - 2\n", 80)
        assert dec.committed
        assert dec.updates == [(0, 78, 75)]
        assert stamps_of(reg)[0] == (0, 0)

    def test_unknown_item_is_an_error_not_an_abort(self):
        reg = ItemRegistry(1)
        with pytest.raises(UnknownItemError):
            validate(reg, "BEGIN - 0\nR 9 1\nCOMMIT - 1\n", 10)

    def test_why_the_read_stamp_keeps_its_maximum(self):
        # the regressed stamp would admit a write at 50 behind an already
        # committed read at 60; the resulting history breaks the commit-order
        # property, which the oracle flags
        h = History()
        h.record_op(1, read(0), 60)
        h.record_terminal(1, Outcome.COMMITTED, 70)
        h.record_op(2, read(0), 43)
        h.record_terminal(2, Outcome.COMMITTED, 75)
        h.record_op(3, write(0), 50)
        h.record_terminal(3, Outcome.COMMITTED, 80)
        res = check_commitment_ordering(h)
        assert not res.ok
        assert res.violation[:3] == (3, 1, 0)  # the write/read pair on item 0

        # under the max rule the same write aborts instead of committing
        reg = registry_with(0, t_read=60)
        dec = validate(reg, "BEGIN - 0\nW 0 10\nCOMMIT - 5\n", 55)  # W at 50
        assert not dec.committed

        # and the registry itself refuses a backwards stamp outright
        with pytest.raises(ValueError, match=r"t_read of item 0 would move backwards"):
            reg.apply_updates([(0, 43, 0)])


class TestCommitTransaction:
    def test_fresh_registry_commits_anything(self):
        reg = ItemRegistry(4)
        dec = commit_transaction(reg, log_of("BEGIN - 0\nR 1 5\nW 2 4\nCOMMIT - 3\n"), 50)
        assert dec.committed

    def test_motivating_schedule_read_write(self):
        # two overlapping transactions; the conflict order matches the commit
        # order, so both commit even though they overlap in time
        reg = ItemRegistry(1)
        hist = History()
        d1 = commit_transaction(reg, log_of("BEGIN - 0\nW 0 2\nCOMMIT - 2\n", 1), 12, hist)
        d2 = commit_transaction(reg, log_of("BEGIN - 0\nR 0 2\nCOMMIT - 3\n", 2), 14, hist)
        assert d1.committed and d2.committed  # W@10 then R@11
        assert check_commitment_ordering(hist).ok

    def test_motivating_schedule_inverted_read_aborts(self):
        reg = ItemRegistry(1)
        d1 = commit_transaction(reg, log_of("BEGIN - 0\nW 0 2\nCOMMIT - 2\n", 1), 12)
        log2 = log_of("BEGIN - 0\nR 0 2\nCOMMIT - 3\n", 2)
        d2 = commit_transaction(reg, log2, 12)
        assert d1.committed
        assert not d2.committed  # R rebased to 9 < committed write at 10
        assert rebase_to_server_time(log2, 12)[d2.abort_index] == 9

    def test_abort_leaves_registry_bit_identical(self):
        reg = ItemRegistry(3)
        commit_transaction(reg, log_of("BEGIN - 0\nW 0 2\nW 1 2\nCOMMIT - 2\n", 1), 40)
        before, held = stamps_of(reg), dict(reg.held)
        dec = commit_transaction(reg, log_of("BEGIN - 0\nR 0 1\nW 2 1\nCOMMIT - 1\n", 2), 20)
        assert not dec.committed
        assert not dec.updates
        assert stamps_of(reg) == before
        # an abort that read an unheld item first holds nothing either
        dec = commit_transaction(reg, log_of("BEGIN - 0\nR 2 1\nR 0 1\nCOMMIT - 1\n", 3), 20)
        assert not dec.committed
        assert stamps_of(reg) == before and reg.held == held == {0: (0, 36), 1: (0, 38)}

    def test_history_events_use_rebased_instants(self):
        reg = ItemRegistry(1)
        hist = History()
        commit_transaction(reg, log_of("BEGIN - 0\nW 0 2\nCOMMIT - 2\n", 5), 12, hist)
        op_events = [e for e in hist.events if hasattr(e, "op")]
        assert [(e.txn_id, e.instant) for e in op_events] == [(5, 10)]
        assert list(hist.events)[-1] == TerminalEvent(5, Outcome.COMMITTED, 12)

    def test_registry_stamps_monotone_across_commits(self):
        rng = DetRng(7)
        reg = ItemRegistry(5)
        low_water = {i: (0, 0) for i in range(5)}
        receipt = 0
        for txn in range(200):
            records = [LogRecord(BEGIN, 0)]
            for _ in range(rng.randrange(6)):
                op = read(rng.randrange(5)) if rng.random() < 0.5 else write(rng.randrange(5))
                records.append(LogRecord(op, rng.randrange(20)))
            records.append(LogRecord(COMMIT, rng.randrange(20)))
            log = OperatorLog(txn, records)
            receipt = max(receipt + 1, total_span(log) + rng.randrange(50))
            commit_transaction(reg, log, receipt)
            for item, (t_r, t_w) in stamps_of(reg).items():
                old_r, old_w = low_water[item]
                assert t_r >= old_r and t_w >= old_w
                low_water[item] = (t_r, t_w)


# --- reference: the rebase + validate + commit path over a copied log ------
#
# The server used to copy each log into AbsRecord(op, abs_ts) objects and
# read the ops back out of the copy. It is kept here, unchanged in behaviour,
# as the reference the in-place path must agree with.

@dataclass(frozen=True)
class AbsRecord:
    op: Operation
    abs_ts: int


def reference_rebase(log, receipt):
    log_validate(log)
    span = total_span(log)
    if receipt < span:
        raise RebaseUnderflowError(
            f"receipt {receipt} precedes the log's relative span {span}")
    n = len(log.records)
    abs_ts = [0] * n
    abs_ts[-1] = receipt
    for k in range(n - 2, -1, -1):
        abs_ts[k] = abs_ts[k + 1] - log.records[k + 1].rel_ts
    return [AbsRecord(rec.op, t) for rec, t in zip(log.records, abs_ts)]


def reference_validate(registry, abs_records):
    staged = {}

    def stamps_for(item_id):
        if item_id not in staged:
            t_read, t_write = registry.get(item_id)
            staged[item_id] = [t_read, t_write]
        return staged[item_id]

    for index, rec in enumerate(abs_records):
        if not rec.op.is_data:
            continue
        pair = stamps_for(rec.op.item_id)
        t = rec.abs_ts
        if rec.op.kind is OpKind.READ:
            if t < pair[1]:
                return CommitDecision(
                    Outcome.ABORTED, abort_index=index,
                    reason=f"read of item {rec.op.item_id} at {t} precedes last write {pair[1]}")
            pair[0] = max(pair[0], t)
        else:
            if t < pair[1] or t < pair[0]:
                bound = "write" if t < pair[1] else "read"
                last = pair[1] if t < pair[1] else pair[0]
                return CommitDecision(
                    Outcome.ABORTED, abort_index=index,
                    reason=f"write of item {rec.op.item_id} at {t} precedes last {bound} {last}")
            pair[1] = max(pair[1], t)
    updates = [(item, pair[0], pair[1]) for item, pair in sorted(staged.items())]
    return CommitDecision(Outcome.COMMITTED, updates=updates)


def reference_commit_transaction(registry, log, receipt, history=None):
    abs_records = reference_rebase(log, receipt)
    decision = reference_validate(registry, abs_records)
    if decision.committed:
        for update in decision.updates:
            registry.apply_updates([update])
    if history is not None:
        for rec in abs_records:
            if rec.op.is_data:
                history.record_op(log.txn_id, rec.op, rec.abs_ts)
        history.record_terminal(log.txn_id, decision.outcome, receipt)
    return decision


def random_log(rng, txn_id, n_items):
    # gaps are often zero, so several operators share one instant
    records = [LogRecord(BEGIN, 0)]
    for _ in range(rng.randrange(7)):
        item = rng.randrange(n_items)
        op = read(item) if rng.random() < 0.5 else write(item)
        records.append(LogRecord(op, 0 if rng.random() < 0.4 else rng.randrange(6)))
    records.append(LogRecord(COMMIT, 0 if rng.random() < 0.4 else rng.randrange(6)))
    return OperatorLog(txn_id, records)


def test_in_place_commit_matches_the_reference():
    rng = DetRng(4242)
    commit_paths = reference_commit_transaction, commit_transaction
    seen = {"committed": 0, "aborted": 0, "tie": 0, "zero_gap": 0, "underflow": 0}
    for _ in range(2_000):
        n_items = 1 + rng.randrange(4)
        registries = ItemRegistry(n_items), ItemRegistry(n_items)
        for item in range(n_items):
            t_write = rng.randrange(30)
            t_read = t_write + rng.randrange(3)
            for reg in registries:
                reg.apply_updates([(item, t_read, t_write)])
        histories = History(), History()
        receipt = 0
        for txn in range(1, 2 + rng.randrange(4)):
            log = random_log(rng, txn, n_items)
            if rng.random() < 0.03 and total_span(log) > 0:
                for commit, reg in zip(commit_paths, registries):
                    with pytest.raises(RebaseUnderflowError):
                        commit(reg, log, total_span(log) - 1)
                seen["underflow"] += 1
                continue
            receipt = max(receipt, total_span(log)) + rng.randrange(12)
            instants = rebase_to_server_time(log, receipt)
            stamps = stamps_of(registries[1])
            seen["tie"] += any(
                rec.op.is_data and t in stamps[rec.op.item_id]
                for rec, t in zip(log.records, instants))
            seen["zero_gap"] += any(rec.rel_ts == 0 for rec in log.records[1:])
            expected = reference_commit_transaction(registries[0], log, receipt, histories[0])
            got = commit_transaction(registries[1], log, receipt, histories[1])
            assert got.outcome is expected.outcome
            assert got.reason == expected.reason
            assert got.abort_index == expected.abort_index
            assert got.updates == expected.updates
            assert stamps_of(registries[1]) == stamps_of(registries[0])
            seen[got.outcome.value.lower()] += 1
        assert histories[1].to_text() == histories[0].to_text()
    assert min(seen.values()) >= 20, seen
