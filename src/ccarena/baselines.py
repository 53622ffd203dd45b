"""Comparison protocols: strict two-phase locking and classic optimistic CC.

Each keeps only server state, sized to what a client sends. The lock table
grants shared/exclusive locks with FIFO wait queues, in which a transaction
has at most one waiting request; it finds waits-for cycles and names the
youngest member of one, and the caller ends that victim. The optimistic book
holds the write sets of committed transactions only. A commit request
carries the validator's start instant, read set and write set, and backward
validation aborts it if any transaction that committed during its lifetime
wrote an item it read.
"""

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice

from .core import Outcome


class LockMode(Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


# members bound once: looking one up on LockMode costs more than the test
_S, _X = LockMode.SHARED, LockMode.EXCLUSIVE


@dataclass(frozen=True)
class Granted:
    pass


@dataclass(frozen=True)
class Queued:
    pass


@dataclass
class _Request:
    txn_id: int
    mode: LockMode


@dataclass
class _ItemLocks:
    granted: dict[int, LockMode] = field(default_factory=dict)
    queue: list[_Request] = field(default_factory=list)
    successors: dict[int, list[int]] = field(default_factory=dict)   # waiter -> sorted waits_on


class LockTable:
    """Per-item granted sets and FIFO wait queues for strict 2PL.

    Transactions never release before their terminal event; release_all drops
    everything at commit/abort and re-grants compatible queue heads. The
    table only grants or queues: after an enqueue, find_cycle searches for a
    deadlock through the requester only, youngest_of names its victim, and
    the caller ends it. A transaction waits on at most one request, as a
    client does while its lock round-trip is open, so waits_on derives one
    waiter's out-edges from the one queue it sits in. A waiter points at
    every conflicting granted holder and at every conflicting request queued
    ahead of it. The search keeps each waiter's sorted out-edges on its item
    until a grant or release on that item, or an in-place upgrade there,
    changes them; an enqueue only adds a request behind every waiter, so it
    changes none.
    """

    def __init__(self):
        self._items: defaultdict[int, _ItemLocks] = defaultdict(_ItemLocks)
        self._begin: dict[int, int] = {}
        self._presence: defaultdict[int, set[int]] = defaultdict(set)  # txn -> items held/queued
        self._waiting: dict[int, int] = {}   # txn -> item of its one queued request

    def register_txn(self, txn_id: int, begin_instant: int) -> None:
        self._begin[txn_id] = begin_instant

    def holds(self, txn_id: int, item_id: int, mode: LockMode) -> bool:
        held = self._items[item_id].granted.get(txn_id)
        if held is None:
            return False
        return held is _X or mode is _S

    def acquire(self, txn_id: int, item_id: int, mode: LockMode):
        """Grant or enqueue; never searches for a deadlock.

        A transaction that already waits may not request again (ValueError).
        Re-acquiring an already-held stronger-or-equal lock is granted
        idempotently. A shared holder asking for exclusive upgrades in place
        when it is the sole holder, otherwise it queues. An enqueue may close
        waits-for cycles through txn_id; the caller finds them with
        find_cycle(txn_id) and ends a victim named by youngest_of.
        """
        if txn_id in self._waiting:
            raise ValueError(f"txn {txn_id} requests item {item_id} while it waits "
                             f"on item {self._waiting[txn_id]}")
        locks = self._items[item_id]
        granted = locks.granted
        held = granted.get(txn_id)
        if held is _X or held is mode:
            return Granted()
        if held is _S:   # and mode is _X
            if len(granted) == 1:
                granted[txn_id] = _X
                locks.successors.clear()   # shared waiters now wait on txn_id
                return Granted()
        elif not locks.queue and (not granted or (mode is _S and _X not in granted.values())):
            granted[txn_id] = mode
            self._presence[txn_id].add(item_id)
            return Granted()
        locks.queue.append(_Request(txn_id, mode))
        self._presence[txn_id].add(item_id)
        self._waiting[txn_id] = item_id
        return Queued()

    def youngest_of(self, txns) -> int:
        """Victim rule: the transaction with the latest begin instant."""
        return max(txns, key=lambda t: (self._begin[t], t))

    def release_all(self, txn_id: int) -> list[int]:
        """Forget txn_id: drop its begin instant and every granted and queued
        entry; re-grant FIFO heads.

        Returns the ids of the newly granted transactions, in grant order.
        """
        granted: list[int] = []
        self._begin.pop(txn_id, None)
        waiting = self._waiting.pop(txn_id, None)
        for item_id in sorted(self._presence.pop(txn_id, ())):
            locks = self._items[item_id]
            locks.granted.pop(txn_id, None)
            if item_id == waiting:
                locks.queue = [r for r in locks.queue if r.txn_id != txn_id]
            granted.extend(self._grant_heads(item_id))
            locks.successors.clear()
        return granted

    def _grant_heads(self, item_id: int) -> list[int]:
        """Grant the queue's heads in FIFO order while each is compatible
        with every other holder. An X head may hold S (a queued upgrade), so
        it is blocked by any holder but itself. An S head holds nothing here,
        since a holder's S request is granted at once, so it is blocked by
        any X holder."""
        locks = self._items[item_id]
        granted, queue = locks.granted, locks.queue
        newly: list[int] = []
        while queue:
            head = queue[0]
            txn_id, mode = head.txn_id, head.mode
            blocked = (len(granted) > (txn_id in granted) if mode is _X
                       else _X in granted.values())
            if blocked:
                break
            granted[txn_id] = mode
            queue.pop(0)
            del self._waiting[txn_id]
            newly.append(txn_id)
        return newly

    def waits_on(self, txn_id: int) -> set[int]:
        """The transactions txn_id waits on: for its one queued request, the
        other holders and the requests ahead of it in that queue whose mode
        conflicts with its own."""
        blockers: set[int] = set()
        item_id = self._waiting.get(txn_id)
        if item_id is None:
            return blockers
        locks = self._items[item_id]
        queue = locks.queue
        for pos, req in enumerate(queue):
            if req.txn_id == txn_id:
                break
        x = req.mode is _X
        for t, h in locks.granted.items():
            if t != txn_id and (x or h is _X):
                blockers.add(t)
        for ahead in islice(queue, pos):
            if x or ahead.mode is _X:
                blockers.add(ahead.txn_id)
        return blockers

    def _successors(self, txn_id: int) -> list[int]:
        """sorted(waits_on(txn_id)), or [] when txn_id does not wait; kept on
        the waited-on item until a grant or release there clears it."""
        item_id = self._waiting.get(txn_id)
        if item_id is None:
            return []
        cache = self._items[item_id].successors
        succ = cache.get(txn_id)
        if succ is None:
            succ = cache[txn_id] = sorted(self.waits_on(txn_id))
        return succ

    def _has_waiters(self, txn_id: int) -> bool:
        """Whether any other transaction waits on txn_id: some other queued
        request conflicts with a lock txn_id holds on that item, or sits
        behind a conflicting request of txn_id in the same queue."""
        for item_id in self._presence.get(txn_id, ()):
            locks = self._items[item_id]
            if not locks.queue:
                continue
            held = locks.granted.get(txn_id)
            held_x = held is _X
            ahead = ahead_x = False   # txn_id's request is ahead, and exclusive
            for req in locks.queue:
                x = req.mode is _X
                if req.txn_id == txn_id:
                    ahead, ahead_x = True, x
                elif (held is not None and (held_x or x)) or ahead_x or (ahead and x):
                    return True
        return False

    def find_cycle(self, root: int) -> list[int] | None:
        """Return one waits-for cycle through root, as a transaction list
        starting at root, or None.

        An acquire by root can only close cycles through root when the graph
        was acyclic before it. A cycle needs an edge into root, so a root
        nobody waits on is answered without a search. The search reads each
        node's sorted out-edges from the list its item keeps until a grant or
        release there, so its cost scales with the waiters reachable from root.
        """
        if not self._has_waiters(root):
            return None
        stack = [iter(self._successors(root))]
        on_path = [root]
        seen = {root}
        while stack:
            for nxt in stack[-1]:
                if nxt == root:
                    return on_path
                if nxt in seen:
                    continue
                seen.add(nxt)
                on_path.append(nxt)
                stack.append(iter(self._successors(nxt)))
                break
            else:
                stack.pop()
                on_path.pop()
        return None


@dataclass
class OccBook:
    """Backward-validation bookkeeping: the write set of each committed
    transaction at its server-assigned commit instant. Those instants
    strictly increase in commit order. Active transactions keep their own
    start and sets and send them with the commit request.
    """

    commit_instants: list[int] = field(default_factory=list)
    commit_writes: list[frozenset[int]] = field(default_factory=list)


def occ_validate(book: OccBook, start: int, read_set: set[int], write_set: set[int],
                 now: int) -> Outcome:
    """Backward validation at commit instant now of a transaction that
    started at start.

    Aborts iff some transaction that committed in (start, now] wrote an item
    in read_set. On commit write_set is recorded at instant now, which must
    exceed every earlier commit instant.
    """
    if book.commit_instants and now <= book.commit_instants[-1]:
        raise ValueError(f"commit instant {now} does not advance past "
                         f"{book.commit_instants[-1]}")
    lo = bisect_right(book.commit_instants, start)
    for k in range(lo, len(book.commit_instants)):
        if book.commit_writes[k] & read_set:
            return Outcome.ABORTED
    book.commit_instants.append(now)
    book.commit_writes.append(frozenset(write_set))
    return Outcome.COMMITTED
