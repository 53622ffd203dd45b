"""Ground-truth checkers for recorded histories.

Everything here works over committed transactions only. Two operations
conflict when they touch the same item from different transactions and at
least one is a write; the conflict is directed by operation instants, and by
commit order when the instants tie (ties are reported for audit).

build_serialization_graph materializes every conflicting pair with labels; it
is quadratic per item and is the reference the tests and demo 04 use.
conflict_skeleton keeps a subset of those edges that is cycle-equivalent
(omitted edges are implied through the per-item write chain), so its witness
cycles are real; it carries no labels, scales to large runs, and is what
`ccarena check` decides acyclicity on. check_commitment_ordering streams over
per-item scans and is exact at any scale. A history that passes it is
acyclic: every conflict edge points to a strictly later commit, so commit
order is a topological order. commit_order_holds reaches the scan's verdict
in one pass over the history, replaying commits in commit order, without
sorting, whenever commits increase along the history, and in the same pass
finds an operation that comes after its own transaction's terminal; the run
gate decides on it, and runs the scan, which names the violation, and the
skeleton, which names a cycle, only for a run it fails or cannot decide.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from itertools import permutations
from operator import itemgetter

from .core import History, OpEvent, OpKind, Operation, Outcome


class OracleScaleError(ValueError):
    """The brute-force oracle refuses histories beyond its factorial budget."""


BRUTE_FORCE_LIMIT = 8


@dataclass(frozen=True)
class EdgeLabel:
    item_id: int
    kinds: tuple[OpKind, OpKind]
    instants: tuple[int, int]


@dataclass
class SerializationGraph:
    """Directed graph over committed transactions.

    edges maps each (src, dst) pair to the labels of the operation pairs
    inducing it. Only build_serialization_graph fills the labels; the edges
    of a conflict_skeleton map to an empty tuple.
    """

    nodes: set[int] = field(default_factory=set)
    edges: dict[tuple[int, int], list[EdgeLabel]] = field(default_factory=dict)
    ties: list[tuple[int, int, int, int]] = field(default_factory=list)  # (item, a, b, instant)

    def add_edge(self, src: int, dst: int, label: EdgeLabel) -> None:
        self.edges.setdefault((src, dst), []).append(label)


_KIND = (OpKind.READ, OpKind.WRITE)  # indexed by an op's is_write flag


def _committed_ops_by_item(history: History,
                           commits: dict[int, int]) -> dict[int, list[tuple[int, int, int, bool]]]:
    """item -> [(instant, commit_instant, txn, is_write)] sorted by (instant,
    commit, txn); the sort is stable, so a transaction's repeated operations
    on one item at one instant keep their history order."""
    per_item: defaultdict[int, list[tuple[int, int, int, bool]]] = defaultdict(list)
    commit_of = commits.get
    write_kind = OpKind.WRITE
    for ev in history.events:
        c = commit_of(ev.txn_id)
        if c is not None and type(ev) is OpEvent:
            op = ev.op
            per_item[op.item_id].append((ev.instant, c, ev.txn_id, op.kind is write_kind))
    by_order = itemgetter(0, 1, 2)
    for ops in per_item.values():
        ops.sort(key=by_order)
    return per_item


def build_serialization_graph(history: History) -> SerializationGraph:
    """Materialize every conflict edge of the committed part of a history.

    Edges point from the transaction whose conflicting operation came first
    to the one whose operation came later, one edge per ordered transaction
    pair, labeled with each inducing operation pair. Quadratic in per-item
    operation count; use conflict_skeleton for large histories.
    """
    commits = history.committed()
    graph = SerializationGraph(nodes=set(commits))
    per_item = _committed_ops_by_item(history, commits)
    for item_id, ops in sorted(per_item.items()):
        for a in range(len(ops)):
            t_a, c_a, txn_a, w_a = ops[a]
            for b in range(a + 1, len(ops)):
                t_b, c_b, txn_b, w_b = ops[b]
                if txn_a == txn_b or not (w_a or w_b):
                    continue
                if t_a == t_b:
                    # tie: direction follows commit order (the sort already
                    # placed the earlier committer first)
                    graph.ties.append((item_id, txn_a, txn_b, t_a))
                graph.add_edge(txn_a, txn_b,
                               EdgeLabel(item_id, (_KIND[w_a], _KIND[w_b]), (t_a, t_b)))
    return graph


def conflict_skeleton(history: History) -> SerializationGraph:
    """Reduced conflict graph, cycle-equivalent to the full one.

    Per item, in conflict order: consecutive writes of different transactions
    are linked, and each read is linked from the write just before it and to
    the write just after it. Every omitted conflict edge is implied by a path
    through the write chain, so a cycle exists here iff one exists in the full
    graph. Each (src, dst) pair is recorded once, without labels.
    """
    commits = history.committed()
    graph = SerializationGraph(nodes=set(commits))
    edges = graph.edges
    for ops in _committed_ops_by_item(history, commits).values():
        last_writer = None
        pending_readers: list[int] = []
        for _, _, txn, is_write in ops:
            if is_write:
                if last_writer is not None and last_writer != txn:
                    edges[last_writer, txn] = ()
                for reader in pending_readers:
                    if reader != txn:
                        edges[reader, txn] = ()
                last_writer = txn
                pending_readers = []
            else:
                if last_writer is not None and last_writer != txn:
                    edges[last_writer, txn] = ()
                pending_readers.append(txn)
    return graph


@dataclass
class CycleCheck:
    acyclic: bool
    cycle: list[int] | None = None

    def __bool__(self) -> bool:
        return self.acyclic


def is_acyclic(graph: SerializationGraph) -> CycleCheck:
    """Cycle search; when cyclic, the witness is the cycle closed by the first
    back edge of a depth-first search that takes roots and successors in
    ascending order."""
    sorter = TopologicalSorter()
    for node in sorted(graph.nodes):
        sorter.add(node)
    for src, dst in sorted(graph.edges):
        sorter.add(dst, src)
    try:
        sorter.prepare()
    except CycleError as exc:
        return CycleCheck(False, exc.args[1][:-1])
    return CycleCheck(True)


@dataclass
class CoCheck:
    ok: bool
    violation: tuple[int, int, int, tuple[int, int]] | None = None  # (txn_i, txn_j, item, instants)
    ties: list[tuple[int, int, int, int]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _push_max(best, second, entry):
    """Track the max (commit, instant, txn) entry plus the max from a
    different transaction, so every op can be bounded against other txns."""
    if best is None:
        return entry, None
    if entry[2] == best[2]:
        return (entry, second) if entry > best else (best, second)
    if entry > best:
        return entry, best
    if second is None or entry > second:
        return best, entry
    return best, second


def check_commitment_ordering(history: History) -> CoCheck:
    """Verify commit order matches conflict order for every conflicting pair.

    For each item the committed operations are scanned in instant order; a
    read must commit strictly after every strictly-earlier write on the item,
    a write strictly after every strictly-earlier read or write. Ties in
    operation instants are directed by commit order, hence consistent by
    construction; they are collected for audit. Conflicting operations with
    equal instants and equal commit instants admit no strict order and are
    violations.
    """
    commits = history.committed()
    per_item = _committed_ops_by_item(history, commits)
    ties: list[tuple[int, int, int, int]] = []
    for item_id, ops in sorted(per_item.items()):
        w1 = w2 = None   # (commit, instant, txn) maxima over writes
        a1 = a2 = None   # maxima over reads and writes
        i = 0
        n = len(ops)
        while i < n:
            t = ops[i][0]
            j = i + 1
            while j < n and ops[j][0] == t:
                j += 1
            group = ops[i:j]
            if j - i > 1:
                for x, (_, c_x, txn_x, w_x) in enumerate(group):
                    for _, c_y, txn_y, w_y in group[x + 1:]:
                        if txn_x != txn_y and (w_x or w_y):
                            if c_x == c_y:
                                return CoCheck(False, violation=(txn_x, txn_y, item_id, (t, t)),
                                               ties=ties)
                            ties.append((item_id, txn_x, txn_y, t))
            for _, c, txn, is_write in group:
                if is_write:
                    bound = a1 if (a1 is not None and a1[2] != txn) else a2
                else:
                    bound = w1 if (w1 is not None and w1[2] != txn) else w2
                if bound is not None and bound[0] >= c:
                    return CoCheck(False,
                                   violation=(bound[2], txn, item_id, (bound[1], t)),
                                   ties=ties)
            for _, c, txn, is_write in group:
                entry = (c, t, txn)
                a1, a2 = _push_max(a1, a2, entry)
                if is_write:
                    w1, w2 = _push_max(w1, w2, entry)
            i = j
    return CoCheck(True, ties=ties)


class OperationAfterTerminal(Exception):
    """A transaction has an operation at an instant after its own terminal."""

    def __init__(self, txn_id: int, op: Operation, instant: int, terminal: int):
        super().__init__(f"txn {txn_id} has {op.kind.value} on item {op.item_id} at {instant}, "
                         f"after its terminal at {terminal}")


def commit_order_holds(history: History) -> bool | None:
    """The verdict of check_commitment_ordering, in one pass over the events,
    or None when a commit is not above the one before it. Raises
    OperationAfterTerminal at the first terminal, committed or aborted, that
    an operation of its own transaction comes after, unless a failing commit
    came first.

    Each transaction's operations wait in a buffer until its terminal. At a
    commit whose instant is above every earlier commit's, each buffered
    operation is checked against per-item maxima over the operations of
    earlier commits: a read fails below the last write, a write below the
    last read or write. Only then are its instants folded into the maxima,
    so a transaction's own operations never bound each other. The operations
    of aborted and unfinished transactions are dropped.

    Exact: with distinct commit instants, the scan fails exactly when two
    conflicting operations of different transactions have t_a < t_b and
    c_a > c_b, and the replay fails on exactly those pairs, at the commit of
    a. A commit at or below an earlier one occurs only in hand-made
    histories and dumps (the simulated server stamps every commit above the
    last); from there on the replay only checks terminals, and returns None
    to leave the verdict to the scan.
    """
    pending: defaultdict[int, list[OpEvent]] = defaultdict(list)
    max_write: dict[int, int] = {}
    max_access: dict[int, int] = {}   # over reads and writes
    committed, write_kind = Outcome.COMMITTED, OpKind.WRITE
    prev_commit = None
    undecided = False
    # events are indexed: OpEvent is (txn_id, op, instant), TerminalEvent
    # (txn_id, outcome, instant)
    for ev in history.events:
        if type(ev) is OpEvent:
            pending[ev[0]].append(ev)
            continue
        ops = pending.pop(ev[0], ())
        end = ev[2]
        if ev[1] is not committed or undecided or (prev_commit is not None
                                                    and end <= prev_commit):
            # an abort, or any terminal once commits stop increasing: only
            # the terminal check is left
            undecided = undecided or ev[1] is committed
            for _, op, t in ops:
                if t > end:
                    raise OperationAfterTerminal(ev[0], op, t, end)
            continue
        prev_commit = end
        for _, op, t in ops:
            if t > end:
                raise OperationAfterTerminal(ev[0], op, t, end)
            bound = (max_access if op.kind is write_kind else max_write).get(op.item_id)
            if bound is not None and t < bound:
                return False
        for _, op, t in ops:
            item = op.item_id
            if t > max_access.get(item, t - 1):
                max_access[item] = t
            if op.kind is write_kind and t > max_write.get(item, t - 1):
                max_write[item] = t
    return None if undecided else True


def brute_force_serializable(history: History) -> bool:
    """Exhaustive conflict-equivalence search over committed transactions.

    True iff some total order of the committed transactions orders every
    conflicting pair consistently with the history. Derives its conflict
    pairs directly from the events, independently of the graph builder.
    Refuses more than BRUTE_FORCE_LIMIT committed transactions.
    """
    commits = history.committed()
    txns = sorted(commits)
    if len(txns) > BRUTE_FORCE_LIMIT:
        raise OracleScaleError(
            f"{len(txns)} committed transactions exceed the brute-force limit "
            f"of {BRUTE_FORCE_LIMIT}")
    per_item: dict[int, list[tuple[int, int, int, OpKind]]] = {}
    for ev in history.events:
        if isinstance(ev, OpEvent) and ev.txn_id in commits:
            per_item.setdefault(ev.op.item_id, []).append(
                (ev.instant, commits[ev.txn_id], ev.txn_id, ev.op.kind))
    ordered_pairs: set[tuple[int, int]] = set()
    for ops in per_item.values():
        for x in range(len(ops)):
            for y in range(len(ops)):
                if x == y:
                    continue
                t_x, c_x, txn_x, kind_x = ops[x]
                t_y, c_y, txn_y, kind_y = ops[y]
                if txn_x == txn_y or not (kind_x is OpKind.WRITE or kind_y is OpKind.WRITE):
                    continue
                if (t_x, c_x, txn_x) < (t_y, c_y, txn_y):
                    ordered_pairs.add((txn_x, txn_y))
    for perm in permutations(txns):
        position = {txn: k for k, txn in enumerate(perm)}
        if all(position[i] < position[j] for i, j in ordered_pairs):
            return True
    return False
