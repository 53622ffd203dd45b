"""Domain types shared by every protocol in the arena: operations, outcomes
and the history with its text form.

Time is integer milliseconds on a logical clock; no wall clocks anywhere.
Items carry no payload: only their read/write stamps matter to the protocols.
The OPCOT operator log and the server's item registry live in `opcot`.
"""

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
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
# dataclass, with the same repr. A History keeps none of them; it builds each
# one as it is read.

class OpEvent(NamedTuple):
    txn_id: int
    op: Operation
    instant: int


class TerminalEvent(NamedTuple):
    txn_id: int
    outcome: Outcome
    instant: int


# The largest transaction id or instant a History holds: its columns are
# signed 64-bit. Each configured delay is at most simkit.MAX_MS, 2**53, but a
# run sums many of them, so a long enough run passes this bound; recording
# such a value raises ConfigError.
MAX_INSTANT = 2**63 - 1

_TEXT_CHUNK = 4096  # events per chunk of History.to_text
_LINE_CHUNK = 1 << 16  # characters per chunk of History.from_text's split
_new_tuple = tuple.__new__  # builds a named tuple without its generated __new__
_is_data = attrgetter("is_data")


def _event(txn_id: int, what: Operation | Outcome, instant: int) -> OpEvent | TerminalEvent:
    """The event of one row of a History's columns."""
    return _new_tuple(OpEvent if type(what) is Operation else TerminalEvent,
                      (txn_id, what, instant))


def _refused(exc: OverflowError | TypeError, txn_id: int,
             instants: Iterable[int]) -> ValueError | TypeError:
    """What a record_* call raises once putting txn_id or instants into a
    column failed with exc: for an overflow, the ConfigError naming the first
    value out of the 64-bit range; for a value that is no integer, exc."""
    if isinstance(exc, OverflowError):
        for name, value in [("txn id", txn_id), *zip(repeat("instant"), instants)]:
            if not -MAX_INSTANT - 1 <= value <= MAX_INSTANT:
                return ConfigError(f"{name} {value} is out of range: a history holds "
                                   f"integers from {-MAX_INSTANT - 1} to {MAX_INSTANT}")
    return exc


def _rows_text(rows: Iterable[tuple[int, Operation | Outcome, int]]) -> str:
    """The lines of History.to_text for these rows, each ending in a newline."""
    lines = []
    for txn_id, what, instant in rows:
        if type(what) is Operation:
            lines.append(f"OP {txn_id} {what.kind.value} {what.item_id} {instant}\n")
        else:
            lines.append(f"END {txn_id} {what.value} {instant}\n")
    return "".join(lines)


def _lines(text: str, size: int = _LINE_CHUNK) -> Iterator[str]:
    """text.splitlines(), split one chunk of about size characters at a time.

    Each chunk ends just after a "\n", or at the end of the text. "\n" ends a
    line whatever comes before it, and a cut after it never splits "\r\n",
    so the chunks' lines are exactly the text's."""
    start, end_of_text = 0, len(text)
    while start < end_of_text:
        end = text.find("\n", start + size - 1) + 1 or end_of_text
        yield from text[start:end].splitlines()
        start = end


class History:
    """Global ordered record of operation and commit/abort events.

    Each transaction gets exactly one terminal event, after all of its
    operation events; record_* enforce that, and a refused call records
    nothing.

    The events are kept as three columns of one row each: `_txns` and
    `_instants`, arrays of signed 64-bit integers, and `_what`, a list of
    shared references, the Operation of an operation event or the Outcome
    of a terminal. A transaction id or instant outside the 64-bit range is a
    ConfigError, one that is no integer a TypeError. `rows()` reads the columns as plain (txn_id, what, instant)
    tuples; `events` builds OpEvent and TerminalEvent tuples from them as it
    is iterated, a fresh one-shot iterator each time it is read.
    """

    def __init__(self):
        self._txns = array("q")
        self._what: list[Operation | Outcome] = []
        self._instants = array("q")
        self._terminals: dict[int, TerminalEvent] = {}

    def record_op(self, txn_id: int, op: Operation, instant: int) -> None:
        if txn_id in self._terminals:
            raise ValueError(f"txn {txn_id} already has a terminal event")
        if not op.is_data:
            raise ValueError("only Read/Write operations are history events")
        # appended here, not through a helper shared with record_terminal:
        # record_op is the hottest call of an s2pl run
        try:
            self._txns.append(txn_id)
            self._instants.append(instant)
        except (OverflowError, TypeError) as exc:
            del self._txns[len(self._what):]  # the txn id went in if the instant failed
            raise _refused(exc, txn_id, [instant]) from None
        self._what.append(op)

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
        try:  # both converted before any column grows
            txns = array("q", (txn_id,)) * len(ops)
            instants = array("q", instants)
        except (OverflowError, TypeError) as exc:
            raise _refused(exc, txn_id, instants) from None
        self._txns += txns
        self._instants += instants
        self._what += ops

    def record_terminal(self, txn_id: int, outcome: Outcome, instant: int) -> None:
        if txn_id in self._terminals:
            raise ValueError(f"txn {txn_id} already has a terminal event")
        try:
            self._txns.append(txn_id)
            self._instants.append(instant)
        except (OverflowError, TypeError) as exc:
            del self._txns[len(self._what):]
            raise _refused(exc, txn_id, [instant]) from None
        self._what.append(outcome)
        self._terminals[txn_id] = TerminalEvent(txn_id, outcome, instant)

    def committed(self) -> dict[int, int]:
        """txn_id -> commit instant, for committed transactions only."""
        return {t: ev.instant for t, ev in self._terminals.items()
                if ev.outcome is Outcome.COMMITTED}

    def rows(self) -> Iterator[tuple[int, Operation | Outcome, int]]:
        """(txn_id, Operation or Outcome, instant) per event, in order."""
        return zip(self._txns, self._what, self._instants)

    @property
    def events(self) -> Iterator[OpEvent | TerminalEvent]:
        """The events in order, each built as it is read."""
        return map(_event, self._txns, self._what, self._instants)

    def __len__(self) -> int:
        return len(self._what)

    # --- line-oriented dump, one event per line -------------------------
    #
    #   OP <txn_id> <R|W> <item_id> <instant>
    #   END <txn_id> <COMMITTED|ABORTED> <instant>

    def to_text(self) -> str:
        # Joined one chunk of events at a time: only one chunk's line strings
        # are alive at once, so the peak is about twice the text.
        rows = self.rows()
        return "".join([_rows_text(islice(rows, _TEXT_CHUNK))
                        for _ in range(0, len(self), _TEXT_CHUNK)])

    @classmethod
    def from_text(cls, text: str) -> "History":
        hist = cls()
        shared = {kind.value: SharedOps(kind) for kind in (OpKind.READ, OpKind.WRITE)}
        for lineno, raw in enumerate(_lines(text), start=1):
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
