"""Domain types shared by every protocol in the arena.

Time is integer milliseconds on a logical clock; no wall clocks anywhere.
Items carry no payload: only their read/write stamps matter to the protocols.
"""

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import repeat
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple


class ConfigError(ValueError):
    """A configuration value is out of range or malformed."""


class InvalidLogError(ValueError):
    """An operator log violates its shape invariants."""


class UnknownItemError(KeyError):
    """An operation names an item id that the registry does not hold."""


class OpKind(Enum):
    BEGIN = "BEGIN"
    READ = "R"
    WRITE = "W"
    COMMIT = "COMMIT"


@dataclass(frozen=True)
class Operation:
    """One transaction operator. READ/WRITE carry exactly one item id."""

    kind: OpKind
    item_id: int | None = None
    # READ or WRITE; derived from kind once, so it takes no part in ==, hash or repr
    is_data: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        is_data = self.kind in (OpKind.READ, OpKind.WRITE)
        if is_data:
            if self.item_id is None:
                raise ValueError(f"{self.kind.name} requires an item id")
        elif self.item_id is not None:
            raise ValueError(f"{self.kind.name} carries no item id")
        object.__setattr__(self, "is_data", is_data)

    def __str__(self) -> str:
        if self.is_data:
            return f"{self.kind.value}({self.item_id})"
        return self.kind.value


BEGIN = Operation(OpKind.BEGIN)
COMMIT = Operation(OpKind.COMMIT)


def read(item_id: int) -> Operation:
    return Operation(OpKind.READ, item_id)


def write(item_id: int) -> Operation:
    return Operation(OpKind.WRITE, item_id)


_new_tuple = tuple.__new__  # builds a named tuple without its generated __new__


class _LogRecordFields(NamedTuple):
    op: Operation
    rel_ts: int


class LogRecord(_LogRecordFields):
    """An operator plus the milliseconds elapsed since the previous operator.

    A named tuple, built once per opcot operator: immutable, hashable, equal
    by value, repr `LogRecord(op=..., rel_ts=...)`. Construction rejects a
    negative rel_ts. `_make` and `_replace` skip that check, and nothing in
    the package calls them; `opcot.client_record_op` skips it too, after its
    own clock check has ruled a negative rel_ts out.
    """

    __slots__ = ()

    def __new__(cls, op: Operation, rel_ts: int):
        if rel_ts < 0:
            raise ValueError(f"rel_ts must be >= 0, got {rel_ts}")
        return _new_tuple(cls, (op, rel_ts))


@dataclass
class OperatorLog:
    """Per-transaction client log: Begin, data operators, Commit, all with
    relative timestamps."""

    txn_id: int
    records: list[LogRecord] = field(default_factory=list)


def log_validate(log: OperatorLog) -> None:
    """Check the operator-log shape invariants; raise InvalidLogError naming
    the first one a log violates."""
    if not log.records:
        raise InvalidLogError("log is empty")
    if log.records[0].op.kind is not OpKind.BEGIN:
        raise InvalidLogError("log does not start with Begin")
    if log.records[0].rel_ts != 0:
        raise InvalidLogError("Begin record must have rel_ts 0")
    if log.records[-1].op.kind is not OpKind.COMMIT:
        raise InvalidLogError("log does not end with Commit")
    for rec in log.records[1:-1]:
        if not rec.op.is_data:  # only Begin and Commit are not data operators
            if rec.op.kind is OpKind.BEGIN:
                raise InvalidLogError("Begin appears after the first record")
            raise InvalidLogError("Commit appears before the last record")


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
            item = None if item_txt == "-" else int(item_txt)
            records.append(LogRecord(Operation(kind, item), int(rel_txt)))
        except ValueError as exc:
            raise InvalidLogError(f"line {lineno}: {exc}") from None
    return OperatorLog(txn_id, records)


class ItemRegistry:
    """The server's table of items, keyed 0..n_items-1, with each item's
    stamps (t_read, t_write), the instants of its latest committed read and write.

    Only the items a commit stamped are held: get gives (0, 0) for any other
    item in range and stores nothing, stamps() lists every item, and `held`
    is a read-only view of the held stamps. Stamps only ever move forward
    across committed transactions; apply_updates enforces that.
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

    def __len__(self) -> int:
        return self.n_items

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

    def stamps(self) -> dict[int, tuple[int, int]]:
        """Snapshot of (t_read, t_write) per item, for audits and tests;
        (0, 0) for an item no commit has touched."""
        stamps = dict.fromkeys(range(self.n_items), (0, 0))
        stamps.update(self._items)
        return stamps


class Outcome(Enum):
    COMMITTED = "COMMITTED"
    ABORTED = "ABORTED"


# History events are named tuples: as immutable and hashable as a frozen
# dataclass, with the same repr, but cheaper to build and to keep.

class OpEvent(NamedTuple):
    txn_id: int
    op: Operation
    instant: int


class TerminalEvent(NamedTuple):
    txn_id: int
    outcome: Outcome
    instant: int


_TEXT_CHUNK = 4096  # events per chunk of History.to_text
_DATA_KINDS = {OpKind.READ.value: OpKind.READ, OpKind.WRITE.value: OpKind.WRITE}
_is_data = attrgetter("is_data")
_new_op_event = partial(_new_tuple, OpEvent)  # OpEvent from a (txn_id, op, instant) tuple


def _events_text(events: Iterable[OpEvent | TerminalEvent]) -> str:
    """The lines of History.to_text for these events, each ending in a newline."""
    lines = []
    for ev in events:
        if isinstance(ev, OpEvent):
            op = ev.op
            lines.append(f"OP {ev.txn_id} {op.kind.value} {op.item_id} {ev.instant}\n")
        else:
            lines.append(f"END {ev.txn_id} {ev.outcome.value} {ev.instant}\n")
    return "".join(lines)


class History:
    """Global ordered record of operation and commit/abort events.

    Each transaction gets exactly one terminal event, after all of its
    operation events; record_* enforce that.
    """

    def __init__(self):
        self.events: list[OpEvent | TerminalEvent] = []
        self._terminals: dict[int, TerminalEvent] = {}

    def record_op(self, txn_id: int, op: Operation, instant: int) -> None:
        if txn_id in self._terminals:
            raise ValueError(f"txn {txn_id} already has a terminal event")
        if not op.is_data:
            raise ValueError("only Read/Write operations are history events")
        self.events.append(_new_tuple(OpEvent, (txn_id, op, instant)))

    def record_ops(self, txn_id: int, ops: Sequence[Operation],
                   instants: Sequence[int]) -> None:
        """record_op for each op at its instant, in order, with the same
        checks; a refused call appends nothing."""
        if len(ops) != len(instants):
            raise ValueError(f"{len(ops)} operations but {len(instants)} instants")
        if not ops:
            return
        if txn_id in self._terminals:
            raise ValueError(f"txn {txn_id} already has a terminal event")
        if not all(map(_is_data, ops)):
            raise ValueError("only Read/Write operations are history events")
        self.events.extend(map(_new_op_event, zip(repeat(txn_id), ops, instants)))

    def record_terminal(self, txn_id: int, outcome: Outcome, instant: int) -> None:
        if txn_id in self._terminals:
            raise ValueError(f"txn {txn_id} already has a terminal event")
        ev = TerminalEvent(txn_id, outcome, instant)
        self.events.append(ev)
        self._terminals[txn_id] = ev

    def committed(self) -> dict[int, int]:
        """txn_id -> commit instant, for committed transactions only."""
        return {t: ev.instant for t, ev in self._terminals.items()
                if ev.outcome is Outcome.COMMITTED}

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # --- line-oriented dump, one event per line -------------------------
    #
    #   OP <txn_id> <R|W> <item_id> <instant>
    #   END <txn_id> <COMMITTED|ABORTED> <instant>

    def to_text(self) -> str:
        # Joined one chunk of events at a time: only one chunk's line strings
        # are alive at once, so the peak is about twice the text.
        events = self.events
        return "".join([_events_text(events[start:start + _TEXT_CHUNK])
                        for start in range(0, len(events), _TEXT_CHUNK)])

    @classmethod
    def from_text(cls, text: str) -> "History":
        hist = cls()
        shared: dict[tuple[OpKind, int], Operation] = {}  # one Operation per (kind, item)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if parts[0] == "OP" and len(parts) == 5:
                    _, txn_txt, kind_txt, item_txt, instant_txt = parts
                    kind = _DATA_KINDS.get(kind_txt)
                    if kind is None:
                        OpKind(kind_txt)  # names an unknown kind, if that is the fault
                        raise ValueError(f"bad op kind {kind_txt!r}")
                    txn_id, item = int(txn_txt), int(item_txt)
                    op = shared.get((kind, item))
                    if op is None:
                        op = shared[kind, item] = Operation(kind, item)
                    hist.record_op(txn_id, op, int(instant_txt))
                elif parts[0] == "END" and len(parts) == 4:
                    hist.record_terminal(int(parts[1]), Outcome(parts[2]), int(parts[3]))
                else:
                    raise ValueError(f"unrecognized event line {raw.strip()!r}")
            except ValueError as exc:
                raise InvalidLogError(f"history line {lineno}: {exc}") from None
        return hist
