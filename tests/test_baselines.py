import pytest

from ccarena.baselines import (
    Granted,
    LockMode,
    LockTable,
    OccBook,
    Queued,
    _Request,
    occ_validate,
)
from ccarena.core import Outcome
from ccarena.rng import DetRng

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


def compatible(held, wanted):
    return held is S and wanted is S


class ReferenceGrantTable(LockTable):
    """LockTable granting by the per-holder compatible() rule it used before
    its mode tests, kept as the reference those are compared against."""

    def acquire(self, txn_id, item_id, mode):
        if txn_id in self._waiting:
            raise ValueError(f"txn {txn_id} requests item {item_id} while it waits "
                             f"on item {self._waiting[txn_id]}")
        locks = self._items[item_id]
        held = locks.granted.get(txn_id)
        if held is X or held is mode:
            return Granted()
        if held is S and mode is X:
            if len(locks.granted) == 1:
                locks.granted[txn_id] = X
                locks.successors.clear()
                return Granted()
        elif not locks.queue and all(compatible(h, mode) for h in locks.granted.values()):
            locks.granted[txn_id] = mode
            self._presence[txn_id].add(item_id)
            return Granted()
        locks.queue.append(_Request(txn_id, mode))
        self._presence[txn_id].add(item_id)
        self._waiting[txn_id] = item_id
        return Queued()

    def _grant_heads(self, item_id):
        locks = self._items[item_id]
        newly = []
        while locks.queue:
            head = locks.queue[0]
            others = [h for t, h in locks.granted.items() if t != head.txn_id]
            if head.mode is X:
                if others:
                    break
                locks.granted[head.txn_id] = X
            else:
                if any(h is X for h in others):
                    break
                locks.granted.setdefault(head.txn_id, S)
            locks.queue.pop(0)
            del self._waiting[head.txn_id]
            newly.append(head.txn_id)
        return newly


def reference_waits_for_edges(table):
    """waiter -> the transactions it waits on, rebuilt over every queue.

    The global graph build the lazy search in LockTable replaced, kept as the
    reference it is compared against.
    """
    edges: dict[int, set[int]] = {}
    for locks in table._items.values():
        for pos, req in enumerate(locks.queue):
            blockers = {t for t, h in locks.granted.items()
                        if t != req.txn_id and not compatible(h, req.mode)}
            for ahead in locks.queue[:pos]:
                if ahead.txn_id != req.txn_id and not compatible(ahead.mode, req.mode):
                    blockers.add(ahead.txn_id)
            if blockers:
                edges.setdefault(req.txn_id, set()).update(blockers)
    return edges


def rebuilt_waiting(table):
    """txn -> the item of its one queued request, rebuilt from the queues:
    what LockTable._waiting must equal after every step."""
    waiting: dict[int, int] = {}
    for item_id, locks in table._items.items():
        for req in locks.queue:
            assert req.txn_id not in waiting, f"txn {req.txn_id} has two queued requests"
            waiting[req.txn_id] = item_id
    return waiting


def assert_lock_safety(table):
    """No two conflicting grants may coexist on one item."""
    for item_id, locks in table._items.items():
        modes = list(locks.granted.values())
        if any(m is X for m in modes) and len(modes) > 1:
            raise AssertionError(f"conflicting grants on item {item_id}: {locks.granted}")


def reference_find_cycle(edges, start=None):
    """The DFS find_cycle ran over a prebuilt edge map."""
    roots = [start] if start is not None else sorted(edges)
    for root in roots:
        stack = [(root, iter(sorted(edges.get(root, ()))))]
        on_path = [root]
        seen = {root}
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt == root:
                    return list(on_path)
                if nxt in seen:
                    continue
                seen.add(nxt)
                on_path.append(nxt)
                stack.append((nxt, iter(sorted(edges.get(nxt, ())))))
                break
            else:
                stack.pop()
                on_path.pop()
    return None


def assert_successors_coherent(table, edges):
    """Every kept successor list belongs to a transaction that still waits
    on that item, and equals its sorted out-edges in the reference graph."""
    for item_id, locks in table._items.items():
        for w, succ in locks.successors.items():
            assert table._waiting.get(w) == item_id, f"txn {w} no longer waits on {item_id}"
            assert succ == sorted(edges.get(w, ())), f"stale successors of txn {w}"


def drive(seed, *tables):
    """Random traffic of 400 steps, applied to every table alike. Only
    transactions that do not wait issue requests, and victims are released
    only half of the time, so cycles stay in the tables; when every
    transaction waits, one is released. Yields after each step its number,
    the cycle the first table found on it (None on a release step) and, per
    table, what it answered: release_all's grant list, or the acquire answer,
    the search's answer and, when a victim was released, its grant list."""
    rng = DetRng(seed)
    first = tables[0]
    active: list[int] = []
    for step in range(400):
        idle = [t for t in active if t not in first._waiting]
        if active and (not idle or rng.random() < 0.2):
            txn = active.pop(rng.randrange(len(active)))
            yield step, None, [(table.release_all(txn),) for table in tables]
            continue
        if not idle or rng.random() < 0.3:
            begin = rng.randrange(50)
            for table in tables:
                table.register_txn(step, begin)
            active.append(step)
            idle.append(step)
        txn = idle[rng.randrange(len(idle))]
        item, mode = rng.randrange(6), S if rng.random() < 0.5 else X
        answers = []
        for table in tables:
            res = table.acquire(txn, item, mode)
            answers.append((res, res == Queued() and table.find_cycle(txn)))
        cycle = answers[0][1]
        if cycle and rng.random() < 0.5:
            victim = first.youngest_of(cycle)
            answers = [a + (table.release_all(victim),) for a, table in zip(answers, tables)]
            active.remove(victim)
        yield step, cycle, answers


def table_with(*txns):
    table = LockTable()
    for txn_id, begin in txns:
        table.register_txn(txn_id, begin)
    return table


class TestAcquire:
    def test_free_item_grants_shared(self):
        table = table_with((1, 0))
        assert table.acquire(1, 0, S) == Granted()

    def test_conflicting_request_queues(self):
        table = table_with((1, 0), (2, 1))
        assert table.acquire(1, 0, X) == Granted()
        assert table.acquire(2, 0, S) == Queued()

    def test_two_party_deadlock_aborts_the_youngest(self):
        # T1 holds X, waits on Y; T2 holds Y, requests X -> cycle {T1, T2},
        # T2 is younger
        table = table_with((1, 0), (2, 5))
        assert table.acquire(1, 0, X) == Granted()
        assert table.acquire(2, 1, X) == Granted()
        assert table.acquire(1, 1, X) == Queued()
        assert table.acquire(2, 0, X) == Queued()
        assert table.youngest_of(table.find_cycle(2)) == 2

    def test_shared_locks_coexist(self):
        table = table_with((1, 0), (2, 0), (3, 0))
        for txn in (1, 2, 3):
            assert table.acquire(txn, 0, S) == Granted()
        assert_lock_safety(table)

    def test_reacquire_is_idempotent(self):
        table = table_with((1, 0))
        assert table.acquire(1, 0, X) == Granted()
        assert table.acquire(1, 0, S) == Granted()
        assert table.acquire(1, 0, X) == Granted()

    def test_sole_holder_upgrades_in_place(self):
        table = table_with((1, 0))
        assert table.acquire(1, 0, S) == Granted()
        assert table.acquire(1, 0, X) == Granted()
        assert table.holds(1, 0, X)

    def test_upgrade_with_other_holders_queues(self):
        table = table_with((1, 0), (2, 1))
        assert table.acquire(1, 0, S) == Granted()
        assert table.acquire(2, 0, S) == Granted()
        assert table.acquire(1, 0, X) == Queued()

    def test_upgrade_deadlock(self):
        # both shared holders want exclusive: classic upgrade cycle
        table = table_with((1, 0), (2, 3))
        table.acquire(1, 0, S)
        table.acquire(2, 0, S)
        assert table.acquire(1, 0, X) == Queued()
        assert table.acquire(2, 0, X) == Queued()
        assert table.youngest_of(table.find_cycle(2)) == 2

    def test_a_waiting_transaction_cannot_request_again(self):
        table = table_with((1, 0), (2, 1))
        table.acquire(1, 0, X)
        assert table.acquire(2, 0, S) == Queued()
        for item_id, mode in ((0, S), (0, X), (1, S)):
            with pytest.raises(ValueError, match=f"txn 2 requests item {item_id} "
                                                 "while it waits on item 0"):
                table.acquire(2, item_id, mode)
        assert table.release_all(1) == [2]
        assert table.holds(2, 0, S) and not table.holds(2, 0, X)
        assert table.acquire(2, 1, X) == Granted()  # granted, so no longer waiting

    def test_no_barging_past_a_queue(self):
        table = table_with((1, 0), (2, 1), (3, 2))
        table.acquire(1, 0, X)
        table.acquire(2, 0, X)          # queued
        assert table.acquire(3, 0, S) == Queued()  # S waits behind X


class TestReleaseAll:
    def test_shared_waiters_granted_together(self):
        table = table_with((1, 0), (2, 1), (3, 2))
        table.acquire(1, 0, X)
        table.acquire(2, 0, S)
        table.acquire(3, 0, S)
        granted = table.release_all(1)
        assert granted == [2, 3]
        assert table.holds(2, 0, S) and table.holds(3, 0, S)
        assert not table.holds(2, 0, X) and not table.holds(3, 0, X)
        assert_lock_safety(table)

    def test_empty_queue_grants_nothing(self):
        table = table_with((1, 0))
        table.acquire(1, 0, X)
        assert table.release_all(1) == []

    def test_fifo_blocks_shared_behind_exclusive(self):
        table = table_with((1, 0), (2, 1), (3, 2))
        table.acquire(1, 0, X)
        table.acquire(2, 0, X)
        table.acquire(3, 0, S)
        granted = table.release_all(1)
        assert granted == [2]
        assert table.holds(2, 0, X)
        assert not table.holds(3, 0, S)

    def test_release_unblocks_waiting_upgrade(self):
        table = table_with((1, 0), (2, 1))
        table.acquire(1, 0, S)
        table.acquire(2, 0, S)
        table.acquire(2, 0, X)  # queued upgrade
        granted = table.release_all(1)
        assert granted == [2]
        assert table.holds(2, 0, X)

    def test_strictness_until_release(self):
        table = table_with((1, 0), (2, 1))
        table.acquire(1, 0, X)
        table.acquire(2, 0, S)
        assert not table.holds(2, 0, S)
        table.release_all(1)
        assert table.holds(2, 0, S)


class TestLockInvariants:
    def test_randomized_safety_and_acyclicity(self):
        # random acquire/release traffic; after every resolved acquire no
        # conflicting grants coexist and the waits-for graph is cycle free
        # (one enqueue can create several cycles, so victims are resolved in
        # a loop exactly the way the simulator drives the table); like a
        # client, only a transaction that does not wait issues a request
        rng = DetRng(31337)
        table = LockTable()
        active: dict[int, bool] = {}
        waiting: dict[int, tuple[int, LockMode]] = {}   # txn -> its queued (item, mode)
        next_txn = cycles = 0

        def release(txn):
            for t in table.release_all(txn):
                assert table.holds(t, *waiting.pop(t))
            waiting.pop(txn, None)
            del active[txn]

        for step in range(600):
            if active and rng.random() < 0.25:
                release(sorted(active)[rng.randrange(len(active))])
                assert_lock_safety(table)
                continue
            idle = sorted(t for t in active if t not in waiting)
            if not idle or rng.random() < 0.3:
                table.register_txn(next_txn, step)
                active[next_txn] = True
                idle.append(next_txn)
                next_txn += 1
            txn = idle[rng.randrange(len(idle))]
            mode = S if rng.random() < 0.5 else X
            item = rng.randrange(8)
            if table.acquire(txn, item, mode) == Queued():
                waiting[txn] = (item, mode)
            while cycle := table.find_cycle(txn):
                cycles += 1
                victim = table.youngest_of(cycle)
                release(victim)
                if victim == txn:
                    break
            assert_lock_safety(table)
            assert reference_find_cycle(reference_waits_for_edges(table)) is None
            assert {t: item for t, (item, _) in waiting.items()} == table._waiting
        assert cycles > 0

    # seeds 11 and 14 upgrade a sole shared holder in place while a shared
    # waiter behind an exclusive request has its successors kept
    @pytest.mark.parametrize("seed", [7, 8, 9, 11, 14])
    def test_lazy_search_matches_the_global_graph(self, seed):
        # after every step of drive's traffic the per-waiter edges, the kept
        # successor lists and every search agree with the reference
        table = LockTable()
        cycles = 0
        for step, cycle, _ in drive(seed, table):
            cycles += bool(cycle)
            edges = reference_waits_for_edges(table)
            assert table._waiting == rebuilt_waiting(table)
            assert_successors_coherent(table, edges)
            for t in range(step + 1):
                assert table._has_waiters(t) == any(t in e for e in edges.values())
                assert table.waits_on(t) == edges.get(t, set())
                assert table.find_cycle(t) == reference_find_cycle(edges, t)
            assert_successors_coherent(table, edges)
        assert cycles > 0

    def test_mode_tests_grant_as_the_compatible_rule(self):
        # LockTable and the reference take drive's traffic side by side; after
        # every step they gave the same answers and hold the same grants and
        # queues. The traffic reaches each case the mode tests decide
        seen = set()

        class Watched(ReferenceGrantTable):
            def acquire(self, txn_id, item_id, mode):
                locks = self._items[item_id]
                held = locks.granted.get(txn_id)
                if held is S and mode is X and len(locks.granted) == 1:
                    seen.add("upgrade in place")
                elif held is None and mode is S and not locks.queue \
                        and X in locks.granted.values():
                    seen.add("S request facing an X holder")
                return super().acquire(txn_id, item_id, mode)

            def _grant_heads(self, item_id):
                locks = self._items[item_id]
                if locks.queue and locks.queue[0].mode is S and X in locks.granted.values():
                    seen.add("S head behind an X holder")
                return super()._grant_heads(item_id)

        def locks_of(table):
            return {i: (locks.granted, locks.queue) for i, locks in table._items.items()}

        for seed in (7, 8, 9, 11, 14):
            table, ref = LockTable(), Watched()
            for step, _, (got, want) in drive(seed, table, ref):
                assert got == want, (seed, step)
                assert locks_of(table) == locks_of(ref), (seed, step)
                assert table._waiting == ref._waiting
        assert seen == {"upgrade in place", "S request facing an X holder",
                        "S head behind an X holder"}

    def test_upgrade_in_place_drops_kept_successors(self):
        # T1 holds S alone; T2 queues X behind it and T3 queues S behind T2,
        # so T3 waits on T2 only. T4 waits on T3's X on item 1, so a search
        # from T3 keeps T3's successors [2]. T1 then upgrades in place, and
        # T3 waits on T1 as well
        table = table_with((1, 0), (2, 1), (3, 2), (4, 3))
        assert table.acquire(1, 0, S) == Granted()
        assert table.acquire(3, 1, X) == Granted()
        assert table.acquire(2, 0, X) == Queued()
        assert table.acquire(3, 0, S) == Queued()
        assert table.acquire(4, 1, S) == Queued()
        assert table.find_cycle(3) is None
        assert table._items[0].successors[3] == [2]
        assert table.acquire(1, 0, X) == Granted()
        assert_successors_coherent(table, reference_waits_for_edges(table))
        assert table._successors(3) == [1, 2]
        # T1 now waits on T3 and closes the shorter of two cycles first
        assert table.acquire(1, 1, S) == Queued()
        assert table.find_cycle(1) == [1, 3]

    def test_search_skips_a_requester_nobody_waits_on(self, monkeypatch):
        # T2 waits on T1 but nobody waits on T2, so no cycle can run through
        # T2 and the search derives no edges at all
        table = table_with((1, 0), (2, 1))
        table.acquire(1, 0, X)
        assert table.acquire(2, 0, X) == Queued()
        derived = []
        monkeypatch.setattr(table, "waits_on", lambda t: derived.append(t) or set())
        assert table.find_cycle(2) is None
        assert derived == []


class TestOccValidate:
    # occ_validate(book, start, read_set, write_set, now): the commit request
    # carries the validator's start instant and both of its sets

    def test_write_read_overlap_aborts(self):
        # a committer during the reader's lifetime wrote what the reader read
        book = OccBook()
        assert occ_validate(book, 8, set(), {0}, 12) is Outcome.COMMITTED
        assert occ_validate(book, 9, {0}, set(), 14) is Outcome.ABORTED

    def test_no_overlapping_committers(self):
        book = OccBook()
        assert occ_validate(book, 0, set(), {3}, 10) is Outcome.COMMITTED
        # starts after T1 committed
        assert occ_validate(book, 11, {3}, set(), 20) is Outcome.COMMITTED

    def test_disjoint_sets_commit(self):
        book = OccBook()
        # T1 writes only item 5, T2 reads only item 3
        assert occ_validate(book, 0, set(), {5}, 10) is Outcome.COMMITTED
        assert occ_validate(book, 1, {3}, set(), 12) is Outcome.COMMITTED

    def test_pure_writers_never_abort(self):
        book = OccBook()
        assert occ_validate(book, 0, set(), {0}, 10) is Outcome.COMMITTED
        assert occ_validate(book, 1, set(), {0}, 11) is Outcome.COMMITTED

    def test_commit_instants_strictly_increase(self):
        book = OccBook()
        occ_validate(book, 0, set(), set(), 10)
        with pytest.raises(ValueError):
            occ_validate(book, 0, set(), set(), 10)
