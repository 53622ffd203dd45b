import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarena.core import History, OpEvent, OpKind, Outcome, read, write
from ccarena.oracle import (
    BRUTE_FORCE_LIMIT,
    CoCheck,
    EdgeLabel,
    OracleScaleError,
    SerializationGraph,
    brute_force_serializable,
    build_serialization_graph,
    check_commitment_ordering,
    conflict_skeleton,
    is_acyclic,
)
from ccarena.rng import DetRng


def hist(*events):
    """events: ('r'|'w', txn, item, instant) or ('c'|'a', txn, instant)."""
    h = History()
    for ev in events:
        tag = ev[0]
        if tag == "r":
            h.record_op(ev[1], read(ev[2]), ev[3])
        elif tag == "w":
            h.record_op(ev[1], write(ev[2]), ev[3])
        elif tag == "c":
            h.record_terminal(ev[1], Outcome.COMMITTED, ev[2])
        else:
            h.record_terminal(ev[1], Outcome.ABORTED, ev[2])
    return h


LOST_UPDATE = hist(("r", 1, 0, 5), ("r", 2, 0, 6), ("w", 1, 0, 20), ("w", 2, 0, 21),
                   ("c", 1, 30), ("c", 2, 31))


class TestBuildGraph:
    def test_single_txn_graph(self):
        g = build_serialization_graph(hist(("r", 1, 0, 5), ("c", 1, 9)))
        assert g.nodes == {1}
        assert g.edges == {}

    def test_write_read_edge(self):
        g = build_serialization_graph(hist(("w", 1, 0, 10), ("c", 1, 12),
                                           ("r", 2, 0, 15), ("c", 2, 20)))
        assert set(g.edges) == {(1, 2)}
        label = g.edges[(1, 2)][0]
        assert label.item_id == 0 and label.instants == (10, 15)

    def test_lost_update_cycle(self):
        g = build_serialization_graph(LOST_UPDATE)
        assert (1, 2) in g.edges and (2, 1) in g.edges

    def test_aborted_txns_contribute_nothing(self):
        g = build_serialization_graph(hist(("w", 1, 0, 10), ("a", 1, 12),
                                           ("r", 2, 0, 15), ("c", 2, 20)))
        assert g.nodes == {2}
        assert g.edges == {}

    def test_reads_do_not_conflict(self):
        g = build_serialization_graph(hist(("r", 1, 0, 5), ("r", 2, 0, 6),
                                           ("c", 1, 9), ("c", 2, 10)))
        assert g.edges == {}

    def test_tie_directed_by_commit_order(self):
        g = build_serialization_graph(hist(("w", 1, 0, 10), ("w", 2, 0, 10),
                                           ("c", 2, 12), ("c", 1, 14)))
        assert set(g.edges) == {(2, 1)}  # T2 committed first
        assert g.ties == [(0, 2, 1, 10)]


class TestIsAcyclic:
    def test_empty_graph(self):
        assert is_acyclic(build_serialization_graph(History()))

    def test_lost_update_graph_is_cyclic(self):
        check = is_acyclic(build_serialization_graph(LOST_UPDATE))
        assert not check
        assert sorted(check.cycle) == [1, 2]

    def test_chain_is_acyclic(self):
        h = hist(("w", 1, 0, 1), ("c", 1, 2), ("w", 2, 0, 3), ("c", 2, 4),
                 ("w", 3, 0, 5), ("c", 3, 6))
        check = is_acyclic(build_serialization_graph(h))
        assert check and check.cycle is None

    def test_witness_does_not_depend_on_insertion_order(self):
        # random digraphs with more than one cycle (one is left after the
        # witness's first edge is dropped), rebuilt with their nodes and edges
        # inserted in shuffled orders, give the same verdict and witness
        rng = random.Random(16)
        multi = 0
        for _ in range(800):
            ids = rng.sample(range(1000), rng.randint(3, 8))
            edges = [(a, b) for a in ids for b in ids if a != b and rng.random() < 0.3]
            witness = is_acyclic(SerializationGraph(set(ids), dict.fromkeys(edges, ()))).cycle
            if witness is None or is_acyclic(SerializationGraph(
                    set(ids), dict.fromkeys(e for e in edges if e != tuple(witness[:2])))):
                continue
            multi += 1
            for _ in range(3):
                rng.shuffle(ids)
                rng.shuffle(edges)
                check = is_acyclic(SerializationGraph(set(ids), dict.fromkeys(edges, ())))
                assert (check.acyclic, check.cycle) == (False, witness)
        assert multi >= 300, multi


class TestCommitmentOrdering:
    def test_conflict_free_history_is_ok(self):
        h = hist(("r", 1, 0, 5), ("r", 2, 1, 6), ("c", 1, 9), ("c", 2, 10))
        assert check_commitment_ordering(h).ok

    def test_conflict_order_matching_commit_order(self):
        h = hist(("w", 1, 0, 10), ("c", 1, 12), ("r", 2, 0, 15), ("c", 2, 20))
        assert check_commitment_ordering(h).ok

    def test_commit_before_conflicting_predecessor_is_a_violation(self):
        # T1's write precedes T2's read, but T2 commits first
        h = hist(("w", 1, 0, 10), ("r", 2, 0, 15), ("c", 2, 18), ("c", 1, 25))
        res = check_commitment_ordering(h)
        assert not res.ok
        assert res.violation[0] == 1 and res.violation[1] == 2
        assert res.violation[2] == 0

    def test_read_write_violation(self):
        # T1 read at 5, T2 wrote at 9 but committed before T1
        h = hist(("r", 1, 0, 5), ("w", 2, 0, 9), ("c", 2, 11), ("c", 1, 20))
        res = check_commitment_ordering(h)
        assert not res.ok

    def test_tie_is_consistent_and_logged(self):
        h = hist(("w", 1, 0, 10), ("w", 2, 0, 10), ("c", 2, 12), ("c", 1, 14))
        res = check_commitment_ordering(h)
        assert res.ok
        assert res.ties == 1

    def test_co_implies_acyclic_on_random_histories(self):
        rng = DetRng(555)
        implied = 0
        for _ in range(300):
            h = random_history(rng, max_txns=6)
            co = check_commitment_ordering(h)
            if co.ok:
                implied += 1
                assert is_acyclic(build_serialization_graph(h))
        assert implied > 20  # the generator must produce CO histories too


class TestBruteForce:
    def test_lost_update_not_serializable(self):
        assert not brute_force_serializable(LOST_UPDATE)

    def test_single_txn_serializable(self):
        assert brute_force_serializable(hist(("w", 1, 0, 3), ("c", 1, 5)))

    def test_empty_history_serializable(self):
        assert brute_force_serializable(History())

    def test_scale_guard(self):
        h = History()
        for txn in range(9):
            h.record_op(txn, write(0), txn + 1)
            h.record_terminal(txn, Outcome.COMMITTED, 100 + txn)
        with pytest.raises(OracleScaleError):
            brute_force_serializable(h)

    def test_serializable_despite_nonchronological_commits(self):
        # conflict-equivalent to T2;T1 although T1 commits first
        h = hist(("w", 2, 0, 5), ("r", 1, 0, 9), ("c", 1, 12), ("c", 2, 30))
        assert brute_force_serializable(h)
        assert not check_commitment_ordering(h).ok  # CO is strictly stronger


def random_history(rng: DetRng, max_txns=7, max_ops=6, n_items=4) -> History:
    """Random small history: random instants, random terminal order; commit
    instants distinct per txn (the simulated server stamps uniquely)."""
    n_txns = 1 + rng.randrange(max_txns)
    h = History()
    horizon = 100
    terminal_base = horizon + 10
    order = list(range(1, n_txns + 1))
    # shuffle terminal order
    for i in range(len(order) - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    for txn in range(1, n_txns + 1):
        for _ in range(1 + rng.randrange(max_ops)):
            op = read(rng.randrange(n_items)) if rng.random() < 0.5 \
                else write(rng.randrange(n_items))
            h.record_op(txn, op, rng.randrange(horizon))
    for k, txn in enumerate(order):
        outcome = Outcome.COMMITTED if rng.random() < 0.8 else Outcome.ABORTED
        h.record_terminal(txn, outcome, terminal_base + k)
    return h


class TestOracleAgreement:
    def test_brute_force_agrees_with_graph_acyclicity(self):
        rng = DetRng(1234)
        serializable = cyclic = 0
        for _ in range(300):
            h = random_history(rng)
            expected = bool(is_acyclic(build_serialization_graph(h)))
            assert brute_force_serializable(h) == expected
            serializable += expected
            cyclic += not expected
        assert serializable > 30 and cyclic > 30  # both branches exercised

    def test_skeleton_matches_full_graph_acyclicity(self):
        rng = DetRng(4321)
        for _ in range(400):
            h = random_history(rng, max_txns=8, max_ops=8, n_items=5)
            full = bool(is_acyclic(build_serialization_graph(h)))
            reduced = bool(is_acyclic(conflict_skeleton(h)))
            assert full == reduced

    def test_cycle_witness_follows_real_edges(self):
        rng = DetRng(777)
        witnessed = 0
        for _ in range(300):
            h = random_history(rng, max_txns=6, max_ops=6, n_items=3)
            g = build_serialization_graph(h)
            check = is_acyclic(g)
            if check:
                continue
            witnessed += 1
            cycle = check.cycle
            assert len(cycle) >= 2
            assert len(set(cycle)) == len(cycle), f"witness {cycle} repeats a node"
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert (a, b) in g.edges, f"witness step {a}->{b} is not an edge"
        assert witnessed > 50


# --- reference oracle -------------------------------------------------------
#
# Plain versions of the per-item scan, full graph, skeleton and commit-order
# check: OpKind in every tuple, a label on every skeleton edge, a sort key
# built per operation. They define the results the optimized oracle must
# reproduce exactly: skeleton edge keys, cycle witness, full-graph labels in
# order, and the commit-order verdict, with its tie count on a passing
# history. The reference scan walks items in sorted order, so on a failing
# history it may name another violating pair than the replay does.

def reference_ops_by_item(history, commits):
    per_item = {}
    for ev in history.events:
        if isinstance(ev, OpEvent) and ev.txn_id in commits:
            per_item.setdefault(ev.op.item_id, []).append(
                (ev.instant, commits[ev.txn_id], ev.txn_id, ev.op.kind))
    for ops in per_item.values():
        ops.sort(key=lambda o: (o[0], o[1], o[2]))
    return per_item


def reference_conflicts(kind_a, kind_b):
    return kind_a is OpKind.WRITE or kind_b is OpKind.WRITE


def reference_serialization_graph(history):
    commits = history.committed()
    graph = SerializationGraph(nodes=set(commits))
    for item_id, ops in sorted(reference_ops_by_item(history, commits).items()):
        for a in range(len(ops)):
            t_a, c_a, txn_a, kind_a = ops[a]
            for b in range(a + 1, len(ops)):
                t_b, c_b, txn_b, kind_b = ops[b]
                if txn_a == txn_b or not reference_conflicts(kind_a, kind_b):
                    continue
                if t_a == t_b:
                    graph.ties.append((item_id, txn_a, txn_b, t_a))
                graph.add_edge(txn_a, txn_b,
                               EdgeLabel(item_id, (kind_a, kind_b), (t_a, t_b)))
    return graph


def reference_conflict_skeleton(history):
    commits = history.committed()
    graph = SerializationGraph(nodes=set(commits))
    for item_id, ops in sorted(reference_ops_by_item(history, commits).items()):
        last_write = None
        pending_reads = []
        for op in ops:
            t, c, txn, kind = op
            if kind is OpKind.WRITE:
                if last_write is not None and last_write[2] != txn:
                    graph.add_edge(last_write[2], txn,
                                   EdgeLabel(item_id, (OpKind.WRITE, OpKind.WRITE),
                                             (last_write[0], t)))
                for r in pending_reads:
                    if r[2] != txn:
                        graph.add_edge(r[2], txn,
                                       EdgeLabel(item_id, (OpKind.READ, OpKind.WRITE),
                                                 (r[0], t)))
                last_write = op
                pending_reads = []
            else:
                if last_write is not None and last_write[2] != txn:
                    graph.add_edge(last_write[2], txn,
                                   EdgeLabel(item_id, (OpKind.WRITE, OpKind.READ),
                                             (last_write[0], t)))
                pending_reads.append(op)
    return graph


def reference_push_max(best, second, entry):
    if best is None:
        return entry, None
    if entry[2] == best[2]:
        return (entry, second) if entry > best else (best, second)
    if entry > best:
        return entry, best
    if second is None or entry > second:
        return best, entry
    return best, second


def reference_commitment_ordering(history):
    commits = history.committed()
    ties = []
    for item_id, ops in sorted(reference_ops_by_item(history, commits).items()):
        w1 = w2 = None
        a1 = a2 = None
        i = 0
        n = len(ops)
        while i < n:
            j = i
            while j < n and ops[j][0] == ops[i][0]:
                j += 1
            group = ops[i:j]
            if len(group) > 1:
                for x in range(len(group)):
                    for y in range(x + 1, len(group)):
                        gx, gy = group[x], group[y]
                        if gx[2] != gy[2] and reference_conflicts(gx[3], gy[3]):
                            if gx[1] == gy[1]:
                                return CoCheck(False,
                                               violation=(gx[2], gy[2], item_id, (gx[0], gy[0])),
                                               ties=len(ties))
                            ties.append((item_id, gx[2], gy[2], gx[0]))
            for t, c, txn, kind in group:
                if kind is OpKind.READ:
                    bound = w1 if (w1 is not None and w1[2] != txn) else w2
                else:
                    bound = a1 if (a1 is not None and a1[2] != txn) else a2
                if bound is not None and bound[0] >= c:
                    return CoCheck(False,
                                   violation=(bound[2], txn, item_id, (bound[1], t)),
                                   ties=len(ties))
            for t, c, txn, kind in group:
                entry = (c, t, txn)
                a1, a2 = reference_push_max(a1, a2, entry)
                if kind is OpKind.WRITE:
                    w1, w2 = reference_push_max(w1, w2, entry)
            i = j
    return CoCheck(True, ties=len(ties))


def assert_real_violation(h: History, violation) -> None:
    """The named pair breaks commit order: the two transactions have
    conflicting operations on the item at the two instants, the first
    instant is not after the second, and the first transaction commits at
    or after the second."""
    a, b, item, (t_a, t_b) = violation
    commits = h.committed()
    assert a != b and t_a <= t_b and commits[a] >= commits[b], (violation, h.to_text())

    def kinds(txn, instant):
        return {e.op.kind for e in h.events if isinstance(e, OpEvent) and e.txn_id == txn
                and e.op.item_id == item and e.instant == instant}

    a_kinds, b_kinds = kinds(a, t_a), kinds(b, t_b)
    assert a_kinds and b_kinds and OpKind.WRITE in a_kinds | b_kinds, (violation, h.to_text())


def assert_same_verdict(h: History, co: CoCheck) -> None:
    """co reaches the reference scan's verdict, names a real violation when
    it fails and counts the scan's ties when it passes."""
    ref = reference_commitment_ordering(h)
    assert co.ok == ref.ok, h.to_text()
    if co.ok:
        assert co.ties == ref.ties, h.to_text()
    else:
        assert_real_violation(h, co.violation)


def tangled_history(rng: DetRng, max_txns=7, max_ops=6, n_items=3) -> History:
    """Random history crowded onto few instants: operations of different
    transactions share instants, commit instants repeat across transactions,
    and a transaction sometimes touches one item twice at one instant."""
    n_txns = 1 + rng.randrange(max_txns)
    h = History()
    for txn in range(1, n_txns + 1):
        prev = None
        for _ in range(1 + rng.randrange(max_ops)):
            if prev is not None and rng.random() < 0.25:
                item, instant = prev
            else:
                item, instant = rng.randrange(n_items), rng.randrange(6)
            h.record_op(txn, read(item) if rng.random() < 0.5 else write(item), instant)
            prev = item, instant
    for txn in range(1, n_txns + 1):
        outcome = Outcome.COMMITTED if rng.random() < 0.85 else Outcome.ABORTED
        h.record_terminal(txn, outcome, 10 + rng.randrange(n_txns))
    return h


def _repeats_at_one_instant(h: History) -> bool:
    commits = h.committed()
    keys = [(e.txn_id, e.op.item_id, e.instant) for e in h.events
            if isinstance(e, OpEvent) and e.txn_id in commits]
    return len(keys) != len(set(keys))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_lean_oracle_reproduces_the_reference(self, seed):
        rng = DetRng(seed)
        seen = dict(cyclic=0, co_tie_violation=0, co_order_violation=0, ties=0, repeats=0)
        for _ in range(600):
            h = tangled_history(rng)
            skeleton, ref_skeleton = conflict_skeleton(h), reference_conflict_skeleton(h)
            assert skeleton.nodes == ref_skeleton.nodes
            assert set(skeleton.edges) == set(ref_skeleton.edges)
            cycle, ref_cycle = is_acyclic(skeleton), is_acyclic(ref_skeleton)
            assert (cycle.acyclic, cycle.cycle) == (ref_cycle.acyclic, ref_cycle.cycle)

            full, ref_full = build_serialization_graph(h), reference_serialization_graph(h)
            assert full.nodes == ref_full.nodes
            assert full.edges == ref_full.edges  # labels, in order
            assert full.ties == ref_full.ties

            co = check_commitment_ordering(h)
            assert_same_verdict(h, co)

            seen["cyclic"] += not cycle.acyclic
            if not co.ok:
                a, b, _, (t_a, t_b) = co.violation
                tied = t_a == t_b and h.committed()[a] == h.committed()[b]
                seen["co_tie_violation" if tied else "co_order_violation"] += 1
            seen["ties"] += bool(co.ties)
            seen["repeats"] += _repeats_at_one_instant(h)
        # every shape the lean code special-cases must actually occur
        assert min(seen.values()) >= 20, seen


class TestCommitOrderDecides:
    """The run gate decides on the commit-order check alone. That is sound only
    if a passing check implies an acyclic skeleton, which in turn implies a
    serializable history."""

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), max_txns=st.integers(2, BRUTE_FORCE_LIMIT),
           max_ops=st.integers(1, 6), n_items=st.integers(1, 3))
    def test_commit_order_implies_acyclic_implies_serializable(self, seed, max_txns,
                                                               max_ops, n_items):
        h = tangled_history(DetRng(seed), max_txns=max_txns, max_ops=max_ops, n_items=n_items)
        acyclic = bool(is_acyclic(conflict_skeleton(h)))
        if check_commitment_ordering(h):
            assert acyclic
        if acyclic:
            assert brute_force_serializable(h)


def ordered_commit_history(rng: DetRng, max_txns=6, max_ops=5, n_items=3) -> History:
    """Random interleaving whose committed terminals strictly increase along
    the history, as every simulated one does. Operations crowd onto few
    instants, in no order within a transaction, and a transaction sometimes
    touches one item twice at one instant. Most terminals, committed or
    aborted, come at or after their transaction's last operation; the rest
    take any instant. Some transactions never end."""
    n_txns = 1 + rng.randrange(max_txns)
    queues = []
    for txn in range(1, n_txns + 1):
        events, prev = [], None
        for _ in range(1 + rng.randrange(max_ops)):
            if prev is not None and rng.random() < 0.25:
                item, instant = prev
            else:
                item, instant = rng.randrange(n_items), rng.randrange(6)
            events.append(("r" if rng.random() < 0.5 else "w", txn, item, instant))
            prev = item, instant
        last = max(ev[3] for ev in events) if rng.random() < 0.8 else 0
        end = rng.random()
        if end < 0.75:
            events.append(("c", txn, last))
        elif end < 0.9:
            events.append(("a", txn, last + rng.randrange(12 - last)))
        queues.append(events)
    h = History()
    commit = rng.randrange(6)
    while queues:
        events = queues[rng.randrange(len(queues))]
        ev = events.pop(0)
        if ev[0] == "c":
            commit = max(commit, ev[2])
            h.record_terminal(ev[1], Outcome.COMMITTED, commit)
            commit += 1 + rng.randrange(2)
        elif ev[0] == "a":
            h.record_terminal(ev[1], Outcome.ABORTED, ev[2])
        else:
            h.record_op(ev[1], read(ev[2]) if ev[0] == "r" else write(ev[2]), ev[3])
        if not events:
            queues.remove(events)
    return h


def _goes_back_in_time(h: History) -> bool:
    """Some committed transaction has an operation on an item at an instant
    below one of its earlier operations on that item."""
    commits, first = h.committed(), {}
    for e in h.events:
        if isinstance(e, OpEvent) and e.txn_id in commits:
            key = e.txn_id, e.op.item_id
            if e.instant < first.setdefault(key, e.instant):
                return True
    return False


def commits_increase(h: History) -> bool:
    """Each committed terminal's instant is above the one before it."""
    commits = [e.instant for e in h.events
               if not isinstance(e, OpEvent) and e.outcome is Outcome.COMMITTED]
    return all(a < b for a, b in zip(commits, commits[1:]))


def first_operation_after_terminal(h: History) -> str | None:
    """The message naming the first operation, in terminal order, whose
    instant is after its own transaction's terminal, or None."""
    pending: dict[int, list[OpEvent]] = {}
    for e in h.events:
        if isinstance(e, OpEvent):
            pending.setdefault(e.txn_id, []).append(e)
            continue
        for op_ev in pending.pop(e.txn_id, []):
            if op_ev.instant > e.instant:
                return (f"txn {e.txn_id} has {op_ev.op.kind.value} on item {op_ev.op.item_id} "
                        f"at {op_ev.instant}, after its terminal at {e.instant}")
    return None


class TestCommitOrderReplay:
    """check_commitment_ordering replays the commits in commit order; it must
    reach the reference scan's verdict on every history, whatever its commit
    order, and stop at the first operation after its own terminal, named in
    its `late`, unless a violation comes first. It never raises."""

    def test_replay_agrees_with_the_scan_when_commits_increase(self):
        # the scan does not look for an operation after its own terminal
        rng = DetRng(2101)
        seen = dict(holds=0, fails=0, ties=0, repeats=0, back_in_time=0, late=0,
                    fails_before_late=0)
        for _ in range(4000):
            h = ordered_commit_history(rng)
            late = first_operation_after_terminal(h)
            co = check_commitment_ordering(h)
            if co.late is not None:
                assert co == CoCheck(False, late=late), h.to_text()
                seen["late"] += 1
                continue
            assert_same_verdict(h, co)
            # a violation found first is named ahead of a late operation
            assert late is None or co.violation is not None, h.to_text()
            seen["fails_before_late"] += late is not None
            seen["holds" if co.ok else "fails"] += 1
            seen["ties"] += bool(co.ties)
            seen["repeats"] += _repeats_at_one_instant(h)
            seen["back_in_time"] += _goes_back_in_time(h)
        assert min(seen.values()) >= 20, seen
        assert 4000 - seen["late"] >= 3000, seen  # most histories compare a verdict

    @pytest.mark.parametrize("make", [tangled_history, random_history])
    def test_replay_agrees_with_the_scan_on_any_commit_order(self, make):
        rng = DetRng(2102)
        seen = dict(holds=0, fails=0, ties=0, out_of_order=0, out_of_order_holds=0)
        for _ in range(1000):
            h = make(rng)
            co = check_commitment_ordering(h)
            assert co.late is None and first_operation_after_terminal(h) is None
            assert_same_verdict(h, co)
            seen["holds" if co.ok else "fails"] += 1
            seen["ties"] += bool(co.ties)
            seen["out_of_order"] += not commits_increase(h)
            seen["out_of_order_holds"] += co.ok and not commits_increase(h)
        if make is random_history:  # its commit instants always increase
            assert seen["out_of_order"] == 0
            del seen["out_of_order"], seen["out_of_order_holds"], seen["ties"]
        assert min(seen.values()) >= 20, seen

    def test_own_operations_never_bound_each_other(self):
        # one transaction writes, then reads and writes below its own write
        h = hist(("w", 1, 0, 9), ("r", 1, 0, 3), ("w", 1, 0, 2), ("c", 1, 10),
                 ("r", 2, 0, 9), ("c", 2, 11))
        assert check_commitment_ordering(h) == CoCheck(True, ties=1)

    @pytest.mark.parametrize("kinds, instant, holds", [
        ("wr", 4, False), ("rw", 4, False), ("ww", 4, False), ("rr", 4, True),
        # a tie is directed by commit order, so it is no violation
        ("wr", 5, True), ("rw", 5, True), ("ww", 5, True)])
    def test_a_later_commit_may_not_conflict_below_an_earlier_one(self, kinds, instant, holds):
        h = hist((kinds[0], 1, 0, 5), ("c", 1, 6), (kinds[1], 2, 0, instant), ("c", 2, 7))
        co = check_commitment_ordering(h)
        assert co.ok == holds == reference_commitment_ordering(h).ok
        assert co.violation == (None if holds else (2, 1, 0, (4, 5)))
        assert co.ties == (holds and instant == 5)

    def test_each_conflicting_pair_at_one_instant_is_one_tie(self):
        # two writes and a read of txn 1 and a read of txn 2 share instant 5;
        # txn 3's write there ties with all four, txn 4's read with three
        h = hist(("w", 1, 0, 5), ("w", 1, 0, 5), ("r", 1, 0, 5), ("r", 2, 0, 5),
                 ("c", 1, 6), ("c", 2, 7), ("w", 3, 0, 5), ("c", 3, 8),
                 ("r", 4, 0, 5), ("c", 4, 9))
        co = check_commitment_ordering(h)
        assert co.ok and co.ties == 2 + 4 + 3 == len(build_serialization_graph(h).ties)

    def test_aborted_and_unfinished_transactions_are_dropped(self):
        h = hist(("w", 1, 0, 9), ("a", 1, 9), ("w", 3, 0, 9), ("r", 2, 0, 4), ("c", 2, 7))
        assert check_commitment_ordering(h)

    @pytest.mark.parametrize("tag", ["c", "a"], ids=["committed", "aborted"])
    def test_an_operation_after_its_own_terminal_fails(self, tag):
        # the reference scan passes it: it reads only the committed
        # operations' order
        h = hist(("r", 1, 5, 10), (tag, 1, 5))
        assert reference_commitment_ordering(h)
        late = "txn 1 has R on item 5 at 10, after its terminal at 5"
        assert check_commitment_ordering(h) == CoCheck(False, late=late)
        assert first_operation_after_terminal(h) == late

    def test_an_operation_at_its_terminal_is_fine(self):
        h = hist(("w", 1, 5, 10), ("c", 1, 10), ("r", 2, 5, 11), ("a", 2, 11))
        assert check_commitment_ordering(h) == CoCheck(True)

    def test_a_violation_ahead_of_a_late_operation_is_named(self):
        h = hist(("w", 1, 0, 5), ("c", 1, 6), ("r", 2, 0, 4), ("c", 2, 7),
                 ("r", 3, 1, 9), ("a", 3, 8))
        assert check_commitment_ordering(h) == CoCheck(False, (2, 1, 0, (4, 5)))

    @pytest.mark.parametrize("instant, late", [(6, False), (7, True)])
    def test_terminals_are_checked_after_commits_stop_increasing(self, instant, late):
        # txn 2 commits at txn 1's instant, on another item, so no violation;
        # txn 3 is still checked against its terminal
        h = hist(("w", 1, 0, 1), ("c", 1, 5), ("w", 2, 1, 1), ("c", 2, 5),
                 ("w", 3, 2, instant), ("c", 3, 6))
        co = check_commitment_ordering(h)
        if late:
            assert co == CoCheck(False, late="txn 3 has W on item 2 at 7, after its "
                                             "terminal at 6")
        else:
            assert co and co.late is None

    @pytest.mark.parametrize("instants, violation", [
        ((3, 3), (1, 2, 0, (3, 3))), ((2, 3), (1, 2, 0, (2, 3))), ((3, 2), (2, 1, 0, (2, 3)))],
        ids=["tied", "write-first", "read-first"])
    def test_conflicting_commits_at_one_instant_are_a_violation(self, instants, violation):
        # they admit no order, whichever operation came first
        h = hist(("w", 1, 0, instants[0]), ("c", 1, 5), ("r", 2, 0, instants[1]), ("c", 2, 5))
        assert check_commitment_ordering(h) == CoCheck(False, violation)
        assert not reference_commitment_ordering(h)

    def test_a_commit_below_the_one_before_replays_in_commit_order(self):
        # txn 2 commits first; txn 1's later write lands below txn 2's read
        h = hist(("w", 1, 0, 3), ("c", 1, 9), ("r", 2, 0, 4), ("c", 2, 8),
                 ("r", 3, 0, 3), ("c", 3, 10))
        assert check_commitment_ordering(h) == CoCheck(False, (1, 2, 0, (3, 4)))
        # without txn 2's read nothing conflicts out of order; txn 3's read
        # ties with txn 1's write
        h = hist(("w", 1, 0, 3), ("c", 1, 9), ("r", 2, 1, 4), ("c", 2, 8),
                 ("r", 3, 0, 3), ("c", 3, 10))
        assert check_commitment_ordering(h) == CoCheck(True, ties=1)
