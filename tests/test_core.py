import pytest

from ccarena import (
    BEGIN,
    COMMIT,
    ConfigError,
    History,
    InvalidLogError,
    ItemRegistry,
    LogRecord,
    Operation,
    OperatorLog,
    OpKind,
    Outcome,
    UnknownItemError,
    log_from_text,
    log_to_text,
    log_validate,
    read,
    write,
)
from ccarena.rng import DetRng


def make_log(records, txn_id=0):
    return OperatorLog(txn_id, [LogRecord(op, ts) for op, ts in records])


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

    def test_negative_rel_ts_rejected(self):
        with pytest.raises(ValueError):
            LogRecord(read(1), -1)


class TestLogValidate:
    def test_well_formed_log(self):
        log = make_log([(BEGIN, 0), (read(1), 5), (write(1), 3), (COMMIT, 2)])
        assert log_validate(log) is None

    def test_missing_begin(self):
        log = make_log([(read(1), 0), (COMMIT, 5)])
        assert "Begin" in log_validate(log)

    def test_commit_not_last(self):
        log = make_log([(BEGIN, 0), (COMMIT, 0), (read(1), 1)])
        assert "Commit" in log_validate(log)

    def test_interior_begin(self):
        log = make_log([(BEGIN, 0), (BEGIN, 0), (COMMIT, 1)])
        assert "Begin" in log_validate(log)

    def test_begin_rel_must_be_zero(self):
        log = make_log([(BEGIN, 4), (COMMIT, 1)])
        assert "rel_ts 0" in log_validate(log)

    def test_empty_log(self):
        assert log_validate(OperatorLog(0)) is not None


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
        with pytest.raises(InvalidLogError):
            log_from_text("R 1 -5\n")

    def test_comments_and_blank_lines_ignored(self):
        log = log_from_text("# fixture header\n\nBEGIN - 0\nR 2 7\n\nCOMMIT - 1\n")
        assert [(r.op, r.rel_ts) for r in log.records] == \
            [(BEGIN, 0), (read(2), 7), (COMMIT, 1)]


class TestRegistry:
    def test_initial_state(self):
        reg = ItemRegistry(3)
        assert len(reg) == 3
        for item in range(3):
            state = reg.get(item)
            assert (state.t_read, state.t_write) == (0, 0)

    @pytest.mark.parametrize("n", [1000, 10000])
    def test_table_sizes(self, n):
        assert len(ItemRegistry(n)) == n

    def test_zero_items_invalid(self):
        with pytest.raises(ConfigError):
            ItemRegistry(0)

    def test_unknown_item(self):
        with pytest.raises(UnknownItemError):
            ItemRegistry(2).get(5)

    def test_stamps_never_move_backwards(self):
        reg = ItemRegistry(1)
        reg.apply_update(0, t_read=10, t_write=20)
        with pytest.raises(ValueError):
            reg.apply_update(0, t_read=5)
        with pytest.raises(ValueError):
            reg.apply_update(0, t_write=19)
        reg.apply_update(0, t_read=10, t_write=20)  # equal is fine


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
