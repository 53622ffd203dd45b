"""Domain types shared by every protocol in the arena: operations, outcomes
and the history with its text form.

Time is integer milliseconds on a logical clock; no wall clocks anywhere.
Items carry no payload: only their read/write stamps matter to the protocols.
The OPCOT operator log and the server's item registry live in `opcot`.
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple


class ConfigError(ValueError):
    """A configuration value is out of range or malformed."""


class InvalidLogError(ValueError):
    """An operator log or a history dump violates its shape invariants."""


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


class SharedOps(dict):
    """item -> the one Operation of a kind on that item, built on first use."""

    def __init__(self, kind: OpKind):
        super().__init__()
        self.kind = kind

    def __missing__(self, item: int) -> Operation:
        op = self[item] = Operation(self.kind, item)
        return op


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
_new_tuple = tuple.__new__  # builds a named tuple without its generated __new__
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
        shared = {kind.value: SharedOps(kind) for kind in (OpKind.READ, OpKind.WRITE)}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            try:
                if parts[0] == "OP" and len(parts) == 5:
                    _, txn_txt, kind_txt, item_txt, instant_txt = parts
                    ops = shared.get(kind_txt)
                    if ops is None:
                        OpKind(kind_txt)  # names an unknown kind, if that is the fault
                        raise ValueError(f"bad op kind {kind_txt!r}")
                    txn_id, item = int(txn_txt), int(item_txt)
                    hist.record_op(txn_id, ops[item], int(instant_txt))
                elif parts[0] == "END" and len(parts) == 4:
                    hist.record_terminal(int(parts[1]), Outcome(parts[2]), int(parts[3]))
                else:
                    raise ValueError(f"unrecognized event line {raw.strip()!r}")
            except ValueError as exc:
                raise InvalidLogError(f"history line {lineno}: {exc}") from None
        return hist
