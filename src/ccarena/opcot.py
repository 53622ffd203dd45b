"""Commitment-ordering validation over relative operator timestamps.

Clients stamp each operator with the milliseconds elapsed since the previous
operator and ship the whole log in a single commit request. The server anchors
the log's last record at the receipt instant, reconstructs absolute instants
backwards, and commits the transaction only if every operator instant is
consistent with the read/write stamps left by already-committed transactions.
Clients therefore talk to the server exactly once per transaction, and
unsynchronized client clocks never matter.

The operator log with its text form and the server's item registry live here
too. The client only appends records and checks nothing; log_validate, which
every rebase runs, checks a log's rules, rel_ts >= 0 included, and refuses a
log that breaks one, naming the rule.
"""

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from .core import ConfigError, History, InvalidLogError, Operation, OpKind, Outcome


class UnknownItemError(KeyError):
    """An operation names an item id that the registry does not hold."""


class LogRecord(NamedTuple):
    """An operator plus the milliseconds elapsed since the previous operator;
    log_validate, not the record, refuses a negative rel_ts."""

    op: Operation
    rel_ts: int


@dataclass
class OperatorLog:
    """Per-transaction client log: Begin, data operators, Commit, all with
    relative timestamps."""

    txn_id: int
    records: list[LogRecord] = field(default_factory=list)


# enum members bound once: looking one up on OpKind costs more than the test
_BEGIN, _COMMIT, _READ = OpKind.BEGIN, OpKind.COMMIT, OpKind.READ
# a LogRecord from an (op, rel_ts) tuple, without its generated __new__
_new_record = partial(tuple.__new__, LogRecord)
_op_of = itemgetter(0)  # a LogRecord's op
_rel_ts_of = itemgetter(1)  # a LogRecord's rel_ts


def log_validate(log: OperatorLog) -> None:
    """Check the operator-log shape invariants and that no rel_ts is
    negative; raise InvalidLogError naming the first one a log violates."""
    records = log.records
    if not records:
        raise InvalidLogError("log is empty")
    if records[0].op.kind is not _BEGIN:
        raise InvalidLogError("log does not start with Begin")
    if records[0].rel_ts != 0:
        raise InvalidLogError("Begin record must have rel_ts 0")
    if records[-1].op.kind is not _COMMIT:
        raise InvalidLogError("log does not end with Commit")
    for rec in records[1:-1]:
        if not rec.op.is_data:  # only Begin and Commit are not data operators
            if rec.op.kind is _BEGIN:
                raise InvalidLogError("Begin appears after the first record")
            raise InvalidLogError("Commit appears before the last record")
    if min(map(_rel_ts_of, records)) < 0:
        index = next(i for i, rec in enumerate(records) if rec.rel_ts < 0)
        raise InvalidLogError(f"record {index} has rel_ts {records[index].rel_ts}, "
                              f"which must be >= 0")


# --- line-oriented text form, used by test fixtures ---------------------
#
# One record per line: "<OP> <item_id|-> <rel_ts_ms>", e.g.
#   BEGIN - 0
#   R 17 40
#   W 17 12
#   COMMIT - 3

def log_to_text(log: OperatorLog) -> str:
    lines = []
    for rec in log.records:
        item = str(rec.op.item_id) if rec.op.is_data else "-"
        lines.append(f"{rec.op.kind.value} {item} {rec.rel_ts}")
    return "\n".join(lines) + "\n"


def log_from_text(text: str, txn_id: int = 0) -> OperatorLog:
    """Parse the text form; a malformed line raises InvalidLogError naming
    its line. The log's rules, rel_ts >= 0 among them, are log_validate's,
    which the server runs on every log it rebases."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InvalidLogError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        kind_txt, item_txt, rel_txt = parts
        try:
            kind = OpKind(kind_txt)
        except ValueError:
            raise InvalidLogError(f"line {lineno}: unknown operator {kind_txt!r}") from None
        try:
            op = Operation(kind, None if item_txt == "-" else int(item_txt))
            rel_ts = int(rel_txt)
        except ValueError as exc:
            raise InvalidLogError(f"line {lineno}: {exc}") from None
        records.append(LogRecord(op, rel_ts))
    return OperatorLog(txn_id, records)


class ItemRegistry:
    """The server's table of items, keyed 0..n_items-1, with each item's
    stamps (t_read, t_write), the instants of its latest committed read and write.

    Only the items a commit stamped are held: get gives (0, 0) for any other
    item in range and stores nothing, and `held` is a read-only view of the
    held stamps. Stamps only ever move forward across committed
    transactions; apply_updates enforces that.
    """

    def __init__(self, n_items: int):
        if n_items < 1:
            raise ConfigError(f"n_items must be >= 1, got {n_items}")
        self.n_items = n_items
        self._items: dict[int, tuple[int, int]] = {}
        self.held: Mapping[int, tuple[int, int]] = MappingProxyType(self._items)

    def get(self, item_id: int) -> tuple[int, int]:
        pair = self._items.get(item_id)
        if pair is not None:
            return pair
        if isinstance(item_id, int) and 0 <= item_id < self.n_items:
            return (0, 0)
        raise UnknownItemError(item_id)

    def apply_updates(self, updates: Iterable[tuple[int, int, int]]) -> None:
        """Set each (item_id, t_read, t_write) in order. A stamp that would
        move backwards raises ValueError before its item changes; the items
        before it keep their new stamps."""
        items = self._items
        for item_id, t_read, t_write in updates:
            old_read, old_write = items.get(item_id) or self.get(item_id)
            if t_read < old_read:
                raise ValueError(f"t_read of item {item_id} would move backwards "
                                 f"({old_read} -> {t_read})")
            if t_write < old_write:
                raise ValueError(f"t_write of item {item_id} would move backwards "
                                 f"({old_write} -> {t_write})")
            items[item_id] = (t_read, t_write)


class RebaseUnderflowError(ValueError):
    """Receipt instant is too small to anchor the log at nonnegative instants."""


def client_record_op(log: OperatorLog, op: Operation, now: int,
                     prev_op_instant: int) -> tuple[OperatorLog, int]:
    """Append op with rel_ts = now - prev_op_instant; return the log and now.
    Nothing is checked here: the server's log_validate refuses a bad log."""
    log.records.append(_new_record((op, now - prev_op_instant)))
    return log, now


def client_record_ops(log: OperatorLog, ops: Sequence[Operation], step: int,
                      prev_op_instant: int) -> int:
    """client_record_op for each op, each `step` ms after the one before,
    starting from prev_op_instant; returns the last op's instant. An opcot
    attempt logs its offline operators with one such call at its commit."""
    log.records.extend(map(_new_record, zip(ops, repeat(step))))
    return prev_op_instant + step * len(ops)


def rebase_to_server_time(log: OperatorLog, receipt: int) -> list[int]:
    """Convert a relative-timestamp log to server-clock instants.

    Returns one instant per record of log.records, in the same order. The
    last record is anchored at the receipt instant; every earlier record sits
    rel_ts earlier than its successor:

        abs[last] = receipt
        abs[k]    = abs[k+1] - rel[k+1]

    Unrolled, abs[k] = receipt - (rel[k+1] + ... + rel[last]). With
    prefix[k] = rel[0] + ... + rel[k] and span = prefix[last], that is the
    forward prefix form

        abs[k] = receipt - span + prefix[k]

    which gives the same integers and is computed here in one forward pass.
    """
    log_validate(log)
    rels = [rec.rel_ts for rec in log.records]
    span = sum(rels)
    if receipt < span:
        raise RebaseUnderflowError(
            f"receipt {receipt} precedes the log's relative span {span}")
    rels[0] = receipt - span  # the Begin record's rel_ts is 0, so this adds the base
    return list(accumulate(rels))


@dataclass
class CommitDecision:
    """Outcome of commit validation.

    Committed decisions carry the staged registry updates, one per item the
    log touched. Aborted decisions carry no updates (rollback = no effect);
    abort_index is the first violating record, an index into both the log's
    records and its rebased instants.
    """

    outcome: Outcome
    updates: list[tuple[int, int, int]] = field(default_factory=list)  # (item, t_read, t_write)
    abort_index: int | None = None
    reason: str | None = None

    @property
    def committed(self) -> bool:
        return self.outcome is Outcome.COMMITTED


def validate_commit(registry: ItemRegistry, log: OperatorLog,
                    instants: list[int]) -> CommitDecision:
    """Scan a log at its rebased instants against the registry's stamps.

    Read(X)@t aborts when t < X.t_write; otherwise it stages
    X.t_read = max(X.t_read, t). Write(X)@t aborts when t < X.t_write or
    t < X.t_read; otherwise it stages X.t_write = max(X.t_write, t). Ties pass
    (the conditions are strict), staged values are visible to later records of
    the same log, and Begin/Commit records are no-ops.
    """
    staged: dict[int, list[int]] = {}  # item -> [t_read, t_write], visible to later records
    held = registry.held.get
    for index, (rec, t) in enumerate(zip(log.records, instants)):
        op = rec.op
        if not op.is_data:
            continue
        item = op.item_id
        pair = staged.get(item)
        if pair is None:
            # get gives an unheld item's (0, 0), or raises UnknownItemError on workload bugs
            pair = staged[item] = list(held(item) or registry.get(item))
        if op.kind is _READ:
            if t < pair[1]:
                return CommitDecision(
                    Outcome.ABORTED, abort_index=index,
                    reason=f"read of item {item} at {t} precedes last write {pair[1]}")
            if t > pair[0]:
                pair[0] = t
        else:
            if t < pair[1] or t < pair[0]:
                bound = "write" if t < pair[1] else "read"
                last = pair[1] if t < pair[1] else pair[0]
                return CommitDecision(
                    Outcome.ABORTED, abort_index=index,
                    reason=f"write of item {item} at {t} precedes last {bound} {last}")
            pair[1] = t  # t >= pair[1] here
    updates = [(item, pair[0], pair[1]) for item, pair in sorted(staged.items())]
    return CommitDecision(Outcome.COMMITTED, updates=updates)


def commit_transaction(registry: ItemRegistry, log: OperatorLog, receipt: int,
                       history: History | None = None) -> CommitDecision:
    """Rebase, validate, and on success apply the staged updates atomically.

    Writes are buffered during validation and become visible only on commit;
    an abort leaves the registry bit-identical to its pre-call state. When a
    history is given, the log's data operators are recorded at their rebased
    instants and the terminal event at the receipt instant.
    """
    instants = rebase_to_server_time(log, receipt)
    decision = validate_commit(registry, log, instants)
    if decision.committed:
        registry.apply_updates(decision.updates)
    if history is not None:
        # a rebased log is Begin, its data operators, Commit
        ops = list(map(_op_of, log.records[1:-1]))
        history.record_ops(log.txn_id, ops, instants[1:-1])
        history.record_terminal(log.txn_id, decision.outcome, receipt)
    return decision
