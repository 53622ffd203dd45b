"""The columnar History against the tuple-per-event History it replaced, and
the 64-bit range its columns hold."""

import tracemalloc

import pytest
import test_oracle
from test_oracle import random_history, tangled_history

from ccarena import simkit
from ccarena.core import (
    BEGIN,
    MAX_INSTANT,
    ConfigError,
    History,
    OpEvent,
    Outcome,
    TerminalEvent,
    read,
    write,
)
from ccarena.oracle import check_commitment_ordering, conflict_skeleton
from ccarena.rng import DetRng
from ccarena.simkit import MAX_MS, PROTOCOLS, SimConfig, run_simulation

MIN_INSTANT = -MAX_INSTANT - 1


class TupleHistory:
    """The reference: one named tuple per event in a list, with the checks
    of History's record_* calls."""

    def __init__(self):
        self.events = []
        self._terminals = {}

    def record_op(self, txn_id, op, instant):
        if txn_id in self._terminals:
            raise ValueError(f"txn {txn_id} already has a terminal event")
        if not op.is_data:
            raise ValueError("only Read/Write operations are history events")
        self.events.append(OpEvent(txn_id, op, instant))

    def record_ops(self, txn_id, ops, instants):
        if len(ops) != len(instants):
            raise ValueError(f"{len(ops)} operations but {len(instants)} instants")
        if not ops:
            return
        if txn_id in self._terminals:
            raise ValueError(f"txn {txn_id} already has a terminal event")
        if not all(op.is_data for op in ops):
            raise ValueError("only Read/Write operations are history events")
        self.events.extend(OpEvent(txn_id, op, t) for op, t in zip(ops, instants))

    def record_terminal(self, txn_id, outcome, instant):
        if txn_id in self._terminals:
            raise ValueError(f"txn {txn_id} already has a terminal event")
        ev = TerminalEvent(txn_id, outcome, instant)
        self.events.append(ev)
        self._terminals[txn_id] = ev

    def committed(self):
        return {t: ev.instant for t, ev in self._terminals.items()
                if ev.outcome is Outcome.COMMITTED}

    def rows(self):
        return iter(self.events)  # each event unpacks as (txn_id, op or outcome, instant)

    def __len__(self):
        return len(self.events)

    def to_text(self):
        lines = []
        for ev in self.events:
            if isinstance(ev, OpEvent):
                lines.append(f"OP {ev.txn_id} {ev.op.kind.value} {ev.op.item_id} {ev.instant}\n")
            else:
                lines.append(f"END {ev.txn_id} {ev.outcome.value} {ev.instant}\n")
        return "".join(lines)


class Recorder(History):
    """A History that also keeps each record_* call made on it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def record_op(self, *args):
        self.calls.append(("record_op", args))
        super().record_op(*args)

    def record_ops(self, txn_id, ops, instants):
        self.calls.append(("record_ops", (txn_id, list(ops), list(instants))))
        super().record_ops(txn_id, ops, instants)

    def record_terminal(self, *args):
        self.calls.append(("record_terminal", args))
        super().record_terminal(*args)


# calls refused once txn 1 has its terminal, as in every history below
REFUSED_CALLS = [
    ("record_op", (1, write(0), 9)),
    ("record_op", (10**6, BEGIN, 9)),
    ("record_ops", (1, [read(0)], [9])),
    ("record_ops", (10**6, [read(0), write(0)], [9])),
    ("record_ops", (10**6, [read(0), BEGIN], [9, 9])),
    ("record_terminal", (1, Outcome.ABORTED, 9)),
]


def error_of(call, args):
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


def assert_equivalent(calls):
    """Make the same record_* calls on a History and on the reference, then
    the same refused calls, and compare what every reader of the history
    sees."""
    hist, ref = History(), TupleHistory()
    for name, args in calls:
        assert error_of(getattr(hist, name), args) == error_of(getattr(ref, name), args)
    for name, args in REFUSED_CALLS:
        error = error_of(getattr(hist, name), args)
        assert error is not None and error == error_of(getattr(ref, name), args)
    events = list(hist.events)
    assert events == ref.events
    assert [type(ev) for ev in events] == [type(ev) for ev in ref.events]
    assert len(hist) == len(ref)
    assert hist.committed() == ref.committed()
    assert hist.to_text() == ref.to_text()
    assert check_commitment_ordering(hist) == check_commitment_ordering(ref)
    assert conflict_skeleton(hist) == conflict_skeleton(ref)


USES = {"opcot": ["record_ops"], "occ": ["record_op", "record_ops"], "s2pl": ["record_op"]}


class TestEquivalence:
    @pytest.mark.parametrize("make", [random_history, tangled_history])
    def test_random_histories(self, monkeypatch, make):
        monkeypatch.setattr(test_oracle, "History", Recorder)
        rng = DetRng(3101)
        for _ in range(300):
            assert_equivalent(make(rng).calls)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_simulated_run(self, monkeypatch, protocol):
        monkeypatch.setattr(simkit, "History", Recorder)
        result = run_simulation(SimConfig(protocol=protocol, n_items=40, n_txns=120,
                                          mean_len=8, sd_len=2, retries=1, seed=31))
        calls = result.history.calls
        # opcot records through record_ops, occ through both, s2pl through record_op
        assert {name for name, _ in calls} >= {"record_terminal", *USES[protocol]}
        assert_equivalent(calls)

    def test_events_is_a_fresh_iterator_each_time(self):
        hist = History()
        hist.record_op(1, read(0), 5)
        hist.record_terminal(1, Outcome.COMMITTED, 6)
        first = hist.events
        assert next(first) == OpEvent(1, read(0), 5)
        assert list(hist.events) == [OpEvent(1, read(0), 5),
                                     TerminalEvent(1, Outcome.COMMITTED, 6)]
        assert list(first) == [TerminalEvent(1, Outcome.COMMITTED, 6)]


def test_memory_per_event_stays_flat():
    # distinct instants above the small-int cache, as a long run records
    # them; every argument is built before tracing starts
    n, batch = 100_000, 50
    instants = list(range(2**30, 2**30 + 2 * n, 2))
    ops = [read(i) if i % 2 else write(i) for i in range(batch)]
    batched = [(txn, ops, instants[start:start + batch])
               for txn, start in enumerate(range(0, n // 2, batch))]
    single = [(n + k, ops[k % batch], instants[k]) for k in range(n // 2, n)]
    hist = History()
    tracemalloc.start()
    try:
        for args in batched:
            hist.record_ops(*args)
        for args in single:
            hist.record_op(*args)
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hist) == n
    assert grown <= 32 * n, grown / n


class TestRange:
    def columns(self, hist):
        return hist._txns.tolist(), list(hist._what), hist._instants.tolist()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_a_run_past_the_64_bit_range_is_a_config_error(self, protocol):
        # a valid config: each delay is at most MAX_MS, but 2000 of them in a
        # row pass 2**63
        cfg = SimConfig(protocol=protocol, n_txns=2, n_items=5, mean_len=2000, sd_len=0,
                        op_service_ms=MAX_MS, seed=1)
        with pytest.raises(ConfigError,
                           match=rf"instant \d+ is out of range: .* to {MAX_INSTANT}$"):
            run_simulation(cfg)

    def test_the_64_bit_extremes_round_trip(self):
        hist = History()
        hist.record_op(MAX_INSTANT, read(0), MIN_INSTANT)
        hist.record_ops(MIN_INSTANT, [write(0)], [MAX_INSTANT])
        hist.record_terminal(MAX_INSTANT, Outcome.COMMITTED, MAX_INSTANT)
        text = hist.to_text()
        assert text == (f"OP {MAX_INSTANT} R 0 {MIN_INSTANT}\n"
                        f"OP {MIN_INSTANT} W 0 {MAX_INSTANT}\n"
                        f"END {MAX_INSTANT} COMMITTED {MAX_INSTANT}\n")
        assert History.from_text(text).to_text() == text

    @pytest.mark.parametrize("call, args, named", [
        ("record_ops", (3, [read(0), write(1)], [5, MAX_INSTANT + 1]), "instant"),
        ("record_ops", (3, [read(0)], [MIN_INSTANT - 1]), "instant"),
        ("record_ops", (MAX_INSTANT + 1, [read(0)], [5]), "txn id"),
        ("record_op", (3, read(0), MAX_INSTANT + 1), "instant"),
        ("record_op", (MIN_INSTANT - 1, read(0), 5), "txn id"),
        ("record_terminal", (3, Outcome.COMMITTED, MAX_INSTANT + 1), "instant"),
        ("record_terminal", (MAX_INSTANT + 1, Outcome.ABORTED, 5), "txn id"),
    ])
    def test_a_refused_call_leaves_the_columns_unchanged(self, call, args, named):
        hist = History()
        hist.record_op(1, read(0), 1)
        hist.record_ops(2, [write(0), read(1)], [2, 3])
        before = self.columns(hist)
        with pytest.raises(ConfigError, match=f"^{named} -?\\d+ is out of range"):
            getattr(hist, call)(*args)
        assert self.columns(hist) == before
        hist.record_terminal(3, Outcome.ABORTED, 4)  # a refused terminal ended nothing
        assert len(hist) == 4

    @pytest.mark.parametrize("call, args", [
        ("record_op", (3, read(0), 1.5)),
        ("record_op", (3.0, read(0), 5)),
        ("record_ops", (3, [read(0), write(1)], [5, 1.5])),
        ("record_terminal", (3, Outcome.COMMITTED, 1.5)),
    ])
    def test_a_value_that_is_no_integer_leaves_the_columns_unchanged(self, call, args):
        hist = History()
        hist.record_op(1, read(0), 1)
        before = self.columns(hist)
        with pytest.raises(TypeError, match="integer"):
            getattr(hist, call)(*args)
        assert self.columns(hist) == before
