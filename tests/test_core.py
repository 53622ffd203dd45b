import pickle
import tracemalloc

import pytest
from test_opcot import assert_the_server_refuses, stamps_of
from test_oracle import random_history, tangled_history

from ccarena import core
from ccarena.core import (
    BEGIN,
    COMMIT,
    ConfigError,
    History,
    InvalidLogError,
    Operation,
    OpEvent,
    OpKind,
    Outcome,
    TerminalEvent,
    read,
    write,
)
from ccarena.opcot import (
    ItemRegistry,
    LogRecord,
    OperatorLog,
    UnknownItemError,
    client_record_op,
    client_record_ops,
    commit_transaction,
    log_from_text,
    log_to_text,
    log_validate,
    rebase_to_server_time,
)
from ccarena.rng import DetRng
from ccarena.simkit import SimConfig, run_simulation


def make_log(records, txn_id=0):
    return OperatorLog(txn_id, [LogRecord(op, ts) for op, ts in records])


def appended_by(record):
    """The one record a client call appends to an empty log."""
    log = OperatorLog(0)
    record(log)
    (rec,) = log.records
    return rec


class TestOperation:
    def test_data_ops_need_an_item(self):
        with pytest.raises(ValueError):
            Operation(OpKind.READ)
        with pytest.raises(ValueError):
            Operation(OpKind.WRITE)

    def test_begin_commit_carry_no_item(self):
        with pytest.raises(ValueError):
            Operation(OpKind.BEGIN, 3)
        with pytest.raises(ValueError):
            Operation(OpKind.COMMIT, 3)

    @pytest.mark.parametrize("kind, item", [(OpKind.BEGIN, None), (OpKind.READ, 3),
                                            (OpKind.WRITE, 3), (OpKind.COMMIT, None)])
    def test_stored_is_data_is_the_kind_test(self, kind, item):
        op = Operation(kind, item)
        assert op.is_data is (kind in (OpKind.READ, OpKind.WRITE))
        fresh = Operation(kind, item)
        assert op == fresh and hash(op) == hash(fresh)
        assert repr(op) == f"Operation(kind={kind!r}, item_id={item!r})" == repr(fresh)
        assert str(op) == str(fresh) == (f"{kind.value}({item})" if op.is_data else kind.value)
        if item is not None:
            assert op != Operation(kind, item + 1)


class TestLogRecord:
    """A log record keeps the contract of a frozen dataclass."""

    def test_repr_names_the_fields(self):
        assert repr(LogRecord(read(4), 7)) == f"LogRecord(op={read(4)!r}, rel_ts=7)"
        assert repr(LogRecord(op=BEGIN, rel_ts=0)) == f"LogRecord(op={BEGIN!r}, rel_ts=0)"

    def test_fields_cannot_be_assigned(self):
        rec = LogRecord(read(4), 7)
        with pytest.raises(AttributeError):
            rec.rel_ts = 8
        with pytest.raises(AttributeError):
            rec.op = write(4)
        assert (rec.op, rec.rel_ts) == (read(4), 7)

    def test_equal_records_compare_and_hash_equal(self):
        rec, same = LogRecord(read(4), 7), LogRecord(read(4), 7)
        assert rec == same and hash(rec) == hash(same)
        assert rec != LogRecord(read(4), 8) and rec != LogRecord(write(4), 7)

    def test_pickle_round_trip(self):
        for rec in (LogRecord(BEGIN, 0), LogRecord(write(3), 12), LogRecord(COMMIT, 5)):
            again = pickle.loads(pickle.dumps(rec))
            assert type(again) is LogRecord and again == rec and repr(again) == repr(rec)


class TestLogValidate:
    def test_well_formed_log(self):
        log = make_log([(BEGIN, 0), (read(1), 5), (write(1), 3), (COMMIT, 2)])
        assert log_validate(log) is None

    @pytest.mark.parametrize("records, message", [
        ([], "log is empty"),
        ([(read(1), 0), (COMMIT, 5)], "log does not start with Begin"),
        ([(BEGIN, 4), (COMMIT, 1)], "Begin record must have rel_ts 0"),
        ([(BEGIN, 0), (read(1), 1)], "log does not end with Commit"),
        ([(BEGIN, 0), (read(1), 1), (BEGIN, 0), (COMMIT, 1)],
         "Begin appears after the first record"),
        ([(BEGIN, 0), (BEGIN, 0), (COMMIT, 1)], "Begin appears after the first record"),
        ([(BEGIN, 0), (COMMIT, 0), (write(1), 1), (COMMIT, 1)],
         "Commit appears before the last record"),
        ([(BEGIN, 0), (COMMIT, 0), (BEGIN, 0), (COMMIT, 1)],
         "Commit appears before the last record"),
        ([(BEGIN, 0), (COMMIT, 0), (read(1), 1)], "log does not end with Commit"),
    ])
    def test_raises_the_first_violation(self, records, message):
        with pytest.raises(InvalidLogError) as err:
            log_validate(make_log(records))
        assert str(err.value) == message

    @pytest.mark.parametrize("build", [
        lambda: LogRecord(write(1), -1),
        lambda: LogRecord(write(1), 3)._replace(rel_ts=-1),
        lambda: LogRecord._make((write(1), -1)),
        lambda: appended_by(lambda log: client_record_op(log, write(1), 5, 6)),
        lambda: appended_by(lambda log: client_record_ops(log, [write(1)], -1, 6)),
    ], ids=["constructor", "_replace", "_make", "client_record_op", "client_record_ops"])
    def test_negative_rel_ts_refused_however_the_record_is_built(self, build):
        # the server reads a log through log_validate, so the rule holds there
        # for a record that no constructor checked
        log = OperatorLog(2, [LogRecord(BEGIN, 0), LogRecord(read(0), 2), build(),
                              LogRecord(COMMIT, 4)])
        message = "record 2 has rel_ts -1, which must be >= 0"
        for server_read in (log_validate, lambda bad: rebase_to_server_time(bad, 100)):
            with pytest.raises(InvalidLogError) as err:
                server_read(log)
            assert str(err.value) == message
        reg, hist = ItemRegistry(3), History()
        earlier = make_log([(BEGIN, 0), (read(0), 1), (write(1), 3), (COMMIT, 2)], txn_id=1)
        assert commit_transaction(reg, earlier, 50, hist).committed
        stamps, text = stamps_of(reg), hist.to_text()
        with pytest.raises(InvalidLogError) as err:
            commit_transaction(reg, log, 100, hist)
        assert str(err.value) == message
        assert stamps_of(reg) == stamps and hist.to_text() == text


class TestLogText:
    def test_exact_format(self):
        log = make_log([(BEGIN, 0), (read(17), 40), (write(17), 12), (COMMIT, 3)])
        assert log_to_text(log) == "BEGIN - 0\nR 17 40\nW 17 12\nCOMMIT - 3\n"

    def test_round_trip_identity_random(self):
        rng = DetRng(99)
        for _ in range(200):
            records = [(BEGIN, 0)]
            for _ in range(rng.randrange(12)):
                op = read(rng.randrange(50)) if rng.random() < 0.5 else write(rng.randrange(50))
                records.append((op, rng.randrange(1000)))
            records.append((COMMIT, rng.randrange(1000)))
            log = make_log(records, txn_id=7)
            assert log_from_text(log_to_text(log), txn_id=7) == log

    def test_bad_lines_rejected(self):
        with pytest.raises(InvalidLogError):
            log_from_text("BEGIN -\n")
        with pytest.raises(InvalidLogError):
            log_from_text("HOP 1 0\n")
        with pytest.raises(InvalidLogError, match="line 1"):
            log_from_text("R x 5\n")
        with pytest.raises(InvalidLogError, match="line 1"):
            log_from_text("R 1.5 3\n")

    def test_a_negative_rel_ts_parses_and_the_server_refuses_it(self):
        # the parser checks the text's form; the log's rules are log_validate's
        log = log_from_text("BEGIN - 0\nR 1 -5\nCOMMIT - 0\n")
        assert [(r.op, r.rel_ts) for r in log.records] == [(BEGIN, 0), (read(1), -5), (COMMIT, 0)]
        assert_the_server_refuses(log, "record 1 has rel_ts -5, which must be >= 0")

    def test_comments_and_blank_lines_ignored(self):
        log = log_from_text("# fixture header\n\nBEGIN - 0\nR 2 7\n\nCOMMIT - 1\n")
        assert [(r.op, r.rel_ts) for r in log.records] == \
            [(BEGIN, 0), (read(2), 7), (COMMIT, 1)]


class TestRegistry:
    def test_initial_state(self):
        reg = ItemRegistry(3)
        assert reg.n_items == 3
        for item in range(3):
            assert reg.get(item) == (0, 0)

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_table_sizes(self, n):
        assert ItemRegistry(n).n_items == n

    def test_zero_items_invalid(self):
        with pytest.raises(ConfigError):
            ItemRegistry(0)

    def test_unknown_item(self):
        with pytest.raises(UnknownItemError):
            ItemRegistry(2).get(5)

    @pytest.mark.parametrize("item_id", [-1, 4, "0", None])
    def test_ids_outside_the_table_hold_nothing(self, item_id):
        reg = ItemRegistry(4)
        with pytest.raises(UnknownItemError) as err:
            reg.get(item_id)
        assert err.value.args == (item_id,)
        assert reg.held == {}

    @pytest.mark.parametrize("n_items", [5, 10**6, 10**9])
    def test_a_get_holds_nothing(self, n_items):
        # a read never writes: only the items an update stamped are held
        reg = ItemRegistry(n_items)
        for item in (0, 3, n_items - 1):
            assert reg.get(item) == (0, 0)
        assert reg.held == {}
        reg.apply_updates([(3, 0, 0)])
        assert reg.get(0) == (0, 0) and reg.held == {3: (0, 0)}

    def test_stamps_match_an_eagerly_built_table(self):
        # only stamped items are held, but stamps_of lists every item as a
        # table holding all of them up front would
        reg = ItemRegistry(5)
        eager = dict.fromkeys(range(5), (0, 0))
        for item, t_read, t_write in [(3, 7, 0), (0, 0, 4), (3, 9, 8)]:
            reg.apply_updates([(item, t_read, t_write)])
            eager[item] = (t_read, t_write)
        assert sorted(reg.held) == [0, 3]
        assert reg.get(4) == eager[4]
        assert stamps_of(reg) == eager
        assert list(stamps_of(reg)) == list(range(5))

    @pytest.mark.parametrize("update, message", [
        ((0, 5, 20), "t_read of item 0 would move backwards (10 -> 5)"),
        ((0, 12, 19), "t_write of item 0 would move backwards (20 -> 19)"),
        # the read check comes first, as it did when each field had its own call
        ((0, 9, 19), "t_read of item 0 would move backwards (10 -> 9)"),
    ], ids=["read", "write", "both"])
    def test_stamps_never_move_backwards(self, update, message):
        reg = ItemRegistry(3)
        reg.apply_updates([(0, 10, 20)])
        with pytest.raises(ValueError) as err:
            reg.apply_updates([(2, 1, 1), update, (1, 1, 1)])
        assert str(err.value) == message
        # the refused item keeps both stamps; the items before it took theirs,
        # and the items after it were never reached
        assert stamps_of(reg) == {0: (10, 20), 1: (0, 0), 2: (1, 1)}
        reg.apply_updates([(0, 10, 20)])  # equal is fine
        reg.apply_updates([])
        assert stamps_of(reg)[0] == (10, 20)

    def test_updates_hold_stamps_and_refuse_unknown_items(self):
        reg = ItemRegistry(2)
        reg.apply_updates([(1, 3, 4)])
        assert reg.held == {1: (3, 4)}
        with pytest.raises(UnknownItemError):
            reg.apply_updates([(2, 0, 0)])
        assert dict(reg.held) == {1: (3, 4)}

    def test_held_is_a_read_only_view(self):
        reg = ItemRegistry(3)
        reg.apply_updates([(0, 1, 2)])
        assert reg.held[0] == reg.get(0) == (1, 2) and len(reg.held) == 1
        with pytest.raises(TypeError):
            reg.held[1] = (0, 0)


class TestHistory:
    def test_terminal_must_be_last_and_unique(self):
        hist = History()
        hist.record_op(1, read(0), 5)
        hist.record_terminal(1, Outcome.COMMITTED, 9)
        with pytest.raises(ValueError):
            hist.record_op(1, write(0), 10)
        with pytest.raises(ValueError):
            hist.record_terminal(1, Outcome.ABORTED, 11)

    def test_only_data_ops_recorded(self):
        hist = History()
        with pytest.raises(ValueError):
            hist.record_op(1, BEGIN, 0)

    def test_events_are_immutable_and_hashable(self):
        hist = History()
        hist.record_op(1, read(4), 3)
        hist.record_terminal(1, Outcome.COMMITTED, 9)
        op_ev, end_ev = hist.events
        assert type(op_ev) is OpEvent and type(end_ev) is TerminalEvent
        for ev in (op_ev, end_ev):
            with pytest.raises(AttributeError):
                ev.instant = 0
        assert (op_ev.instant, end_ev.instant) == (3, 9)
        assert len({op_ev, end_ev, OpEvent(1, read(4), 3)}) == 2
        assert repr(op_ev) == f"OpEvent(txn_id=1, op={read(4)!r}, instant=3)"
        assert repr(end_ev) == "TerminalEvent(txn_id=1, outcome=<Outcome.COMMITTED: " \
                               "'COMMITTED'>, instant=9)"

    def test_parse_shares_one_operation_per_kind_and_item(self):
        hist = History.from_text("OP 1 R 4 5\nOP 2 R 4 6\nOP 2 W 4 7\nOP 3 R 04 8\n")
        ops = [ev.op for ev in hist.events]
        assert ops[0] is ops[1] is ops[3] and ops[2] is not ops[0]
        assert ops == [read(4), read(4), write(4), read(4)]

    @pytest.mark.parametrize("text", [
        "OP 1 R 4 5\nEND 1 COMMITTED 9\n  # note\n\n\tOP 2 W 4 6 \nEND 2 ABORTED 12\n",
        "OP 1 X 4 5\n", "OP 1 BEGIN 4 5\n", "OP 1 COMMIT - 5\n", "OP x R 4 5\n",
        "OP 1 R y 5\n", "OP 1 R 4 z\n", "OP x R y z\n", "OP 1 BEGIN y 5\n",
        "OP 1 R 4\n", "OP 1 R 4 5 6\n", "  END  1 LOST 9 \n", "END 1 COMMITTED\n",
        "NOPE 1 2\n", "OP 1 R 4 5\nEND 1 COMMITTED 9\nOP 1 W 4 10\n",
        "END 1 COMMITTED 9\nEND 1 ABORTED 10\n", "#OP 1 R 4 5\n", "O P 1 R 4 5\n",
    ])
    def test_parse_matches_the_reference_parser(self, text):
        try:
            expected = reference_history_from_text(text).to_text()
        except InvalidLogError as exc:
            expected = f"InvalidLogError: {exc}"
        try:
            got = History.from_text(text).to_text()
        except InvalidLogError as exc:
            got = f"InvalidLogError: {exc}"
        assert got == expected

    def test_text_round_trip(self):
        hist = History()
        hist.record_op(1, read(4), 5)
        hist.record_op(2, write(4), 6)
        hist.record_terminal(1, Outcome.COMMITTED, 9)
        hist.record_terminal(2, Outcome.ABORTED, 12)
        text = hist.to_text()
        again = History.from_text(text)
        assert again.to_text() == text
        assert again.committed() == {1: 9}


def reference_to_text(hist: History) -> str:
    """The plain dump: one string per event, joined once."""
    lines = []
    for ev in hist.events:
        if isinstance(ev, OpEvent):
            lines.append(f"OP {ev.txn_id} {ev.op.kind.value} {ev.op.item_id} {ev.instant}")
        else:
            lines.append(f"END {ev.txn_id} {ev.outcome.value} {ev.instant}")
    return "\n".join(lines) + ("\n" if lines else "")


def history_of(events) -> History:
    """A history that records events in order, through the checked calls."""
    hist = History()
    for ev in events:
        if isinstance(ev, OpEvent):
            hist.record_op(*ev)
        else:
            hist.record_terminal(*ev)
    return hist


CHUNK = core._TEXT_CHUNK


@pytest.fixture(scope="module")
def long_history():
    hist = run_simulation(SimConfig(n_items=2000, n_txns=1000, mean_len=20, sd_len=4,
                                    seed=5)).history
    assert len(hist) >= 20_000
    return hist


class TestHistoryText:
    """to_text is built one chunk of events at a time, with the bytes of the
    plain join."""

    def test_empty_history_gives_no_text(self):
        assert History().to_text() == reference_to_text(History()) == ""

    def test_terminals_only(self):
        hist = history_of([TerminalEvent(2, Outcome.ABORTED, 0),
                           TerminalEvent(1, Outcome.COMMITTED, 7)])
        assert hist.to_text() == reference_to_text(hist) == \
            "END 2 ABORTED 0\nEND 1 COMMITTED 7\n"

    @pytest.mark.parametrize("make", [random_history, tangled_history])
    def test_random_histories_match_the_reference(self, make):
        rng = DetRng(2911)
        for _ in range(200):
            hist = make(rng)
            assert hist.to_text() == reference_to_text(hist)

    @pytest.mark.parametrize("n_events", sorted({max(0, k * CHUNK + d)
                                                 for k in range(4) for d in (-1, 0, 1)}))
    def test_chunk_boundaries_match_the_reference(self, long_history, n_events):
        hist = history_of(list(long_history.events)[:n_events])
        assert len(hist) == n_events
        text = hist.to_text()
        assert text == reference_to_text(hist)
        assert text.count("\n") == n_events

    def test_a_multi_chunk_text_round_trips(self, long_history):
        text = long_history.to_text()
        assert len(long_history) > 4 * CHUNK
        assert text == reference_to_text(long_history)
        assert History.from_text(text).to_text() == text

    def test_peak_memory_stays_near_the_text(self, long_history):
        # the plain join holds one string per event until the end: 6x the
        # text on this history
        tracemalloc.start()
        try:
            text = long_history.to_text()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), (peak, len(text))


def record_op_loop(hist, txn_id, ops, instants):
    for op, t in zip(ops, instants):
        hist.record_op(txn_id, op, t)


class TestRecordOps:
    """record_ops(txn, ops, instants) is a record_op loop that either
    appends every operation or, when it raises, none."""

    @staticmethod
    def error_of(call, *args):
        try:
            call(*args)
        except ValueError as exc:
            return str(exc)
        return None

    def test_equals_a_record_op_loop(self):
        rng = DetRng(2204)
        pool = [read(0), write(0), read(1), write(7), BEGIN, COMMIT]
        seen = dict(recorded=0, empty=0, ended=0, not_data=0)
        for _ in range(1500):
            batched, looped = History(), History()
            ended = {2}
            for hist in (batched, looped):
                hist.record_op(2, read(3), 1)
                hist.record_terminal(2, Outcome.ABORTED, 4)
            for _ in range(1 + rng.randrange(4)):
                txn = 1 + rng.randrange(3)
                n = rng.randrange(4)
                ops = [pool[rng.randrange(5 if rng.random() < 0.2 else 4)] for _ in range(n)]
                instants = [rng.randrange(9) for _ in range(n)]
                before = list(batched.events)
                error = self.error_of(batched.record_ops, txn, ops, instants)
                assert error == self.error_of(record_op_loop, looped, txn, ops, instants)
                if error is None:
                    assert list(batched.events) == list(looped.events)
                    assert [type(e) for e in batched.events] == \
                        [type(e) for e in looped.events]
                    seen["recorded" if ops else "empty"] += 1
                else:
                    assert list(batched.events) == before  # nothing appended
                    seen["ended" if "terminal" in error else "not_data"] += 1
                    looped = history_of(before)  # the loop appended a prefix
                if rng.random() < 0.3 and txn not in ended:
                    ended.add(txn)  # later calls for txn hit the terminal check
                    for hist in (batched, looped):
                        hist.record_terminal(txn, Outcome.COMMITTED, 9)
        assert min(seen.values()) >= 20, seen

    def test_ops_and_instants_must_pair_up(self):
        hist = History()
        with pytest.raises(ValueError, match="2 operations but 1 instants"):
            hist.record_ops(1, [read(0), write(0)], [5])
        assert list(hist.events) == []


def reference_history_from_text(text: str) -> History:
    """The plain parser: strip, split, an OpKind and a new Operation per line."""
    hist = History()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "OP" and len(parts) == 5:
                kind = OpKind(parts[2])
                if kind not in (OpKind.READ, OpKind.WRITE):
                    raise ValueError(f"bad op kind {parts[2]!r}")
                hist.record_op(int(parts[1]), Operation(kind, int(parts[3])), int(parts[4]))
            elif parts[0] == "END" and len(parts) == 4:
                hist.record_terminal(int(parts[1]), Outcome(parts[2]), int(parts[3]))
            else:
                raise ValueError(f"unrecognized event line {line!r}")
        except ValueError as exc:
            raise InvalidLogError(f"history line {lineno}: {exc}") from None
    return hist
