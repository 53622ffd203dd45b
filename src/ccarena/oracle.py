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
`ccarena check` decides acyclicity on. check_commitment_ordering, the one
commit-order decider, replays the commits in commit order in one pass over
the history; it names a violating pair, counts ties, and in the same pass
names an operation after its own transaction's terminal, all in its CoCheck.
A history that passes it is acyclic: every conflict edge points to a strictly
later commit, so commit order is a topological order. The run gate decides
on it and builds the skeleton, which names a cycle, only for a run it fails.

A History keeps its events as three columns (see core.History). The graph
builders and the commit-order replay read them through History.rows, as
(txn, Operation or Outcome, instant) tuples, and tell an operation from a
terminal by `type(x) is Operation`, so they build no event tuple.
brute_force_serializable reads History.events, a fresh one-shot iterator
that builds the OpEvent and TerminalEvent tuples.
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
    for txn, op, t in history.rows():
        c = commit_of(txn)
        if c is not None and type(op) is Operation:
            per_item[op.item_id].append((t, c, txn, op.kind is write_kind))
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
    ties: int = 0  # conflicting pairs at one instant, directed by commit order
    late: str | None = None  # names an operation after its own transaction's terminal

    def __bool__(self) -> bool:
        return self.ok


def _late(txn: int, op: Operation, instant: int, terminal: int) -> CoCheck:
    """The failed check naming txn's op at instant, after its terminal."""
    return CoCheck(False, late=f"txn {txn} has {op.kind.value} on item {op.item_id} at "
                               f"{instant}, after its terminal at {terminal}")


def _first_conflict(history: History, op: Operation, accept) -> tuple[int, int] | None:
    """(instant, txn) of the first committed operation that conflicts with op
    (same item, one of the two a write) and that accept(txn, instant, its
    commit instant) takes."""
    commits, write_kind = history.committed(), OpKind.WRITE
    return next(((t, txn) for txn, other, t in history.rows()
                 if type(other) is Operation and txn in commits
                 and other.item_id == op.item_id and write_kind in (op.kind, other.kind)
                 and accept(txn, t, commits[txn])),
                None)


def _replay(history: History, rows) -> CoCheck | None:
    """check_commitment_ordering over rows (txn, Operation or Outcome,
    instant), as History.rows gives them, whose commits do not decrease, or
    None, once every terminal is checked, when one does."""
    pending: defaultdict[int, list[tuple[int, Operation, int]]] = defaultdict(list)
    max_write: dict[int, int] = {}
    max_access: dict[int, int] = {}   # over reads and writes
    # (item, instant) -> operations on that maximum, kept only once a second
    # lands on it; maxima only rise, so an entry never goes stale
    on_write, on_access = {}, {}
    committed, write_kind = Outcome.COMMITTED, OpKind.WRITE
    ties, prev, out_of_order = 0, None, False
    for row in rows:
        txn, what, end = row
        if type(what) is Operation:
            pending[txn].append(row)
            continue
        ops = pending.pop(txn, ())
        if what is not committed or out_of_order or (prev is not None and end < prev):
            # an abort, or any terminal once a commit went below the one
            # before it: only the terminal check is left
            out_of_order = out_of_order or what is committed
            for _, op, t in ops:
                if t > end:
                    return _late(txn, op, t, end)
            continue
        if end == prev:  # equal commits admit no order: any conflict between them fails
            for _, op, t in ops:
                other = _first_conflict(history, op, lambda o, _, c: c == end and o != txn)
                if other is not None:
                    (t_a, a), (t_b, b) = sorted([other, (t, txn)])
                    return CoCheck(False, (a, b, op.item_id, (t_a, t_b)), ties)
        prev = end
        for _, op, t in ops:
            if t > end:
                return _late(txn, op, t, end)
            item, is_write = op.item_id, op.kind is write_kind
            bound = (max_access if is_write else max_write).get(item, t - 1)
            if t <= bound:
                if t < bound:
                    _, other = _first_conflict(history, op,
                                               lambda _, o_t, c: o_t == bound and c < end)
                    return CoCheck(False, (txn, other, item, (t, bound)), ties)
                ties += (on_access if is_write else on_write).get((item, t), 1)
        for _, op, t in ops:
            item = op.item_id
            top = max_access.get(item, t - 1)
            if t > top:
                max_access[item] = t
            elif t == top:
                on_access[item, t] = on_access.get((item, t), 1) + 1
            if op.kind is write_kind:
                top = max_write.get(item, t - 1)
                if t > top:
                    max_write[item] = t
                elif t == top:
                    on_write[item, t] = on_write.get((item, t), 1) + 1
    return None if out_of_order else CoCheck(True, ties=ties)


def check_commitment_ordering(history: History) -> CoCheck:
    """Verify that commit order matches conflict order for every conflicting
    pair of committed operations; name a violating pair, count ties.

    The committed transactions are replayed in commit order, each one's
    operations checked against per-item maxima over earlier commits' (a read
    fails below the last write, a write below the last read or write) and
    only then folded in, so a transaction's own operations never bound each
    other. An operation exactly on such a maximum is a tie, directed by
    commit order; each conflicting pair at one instant counts once. Any
    conflict between two commits at one instant is a violation. A violation
    (txn_i, txn_j, item, (t_i, t_j)) has t_i <= t_j, and txn_i commits at or
    after txn_j.

    One pass over the history decides when commits do not decrease along
    it, as simulated ones never do. After a commit below the one before it,
    that pass only checks terminals, and the committed transactions are
    replayed again, stably sorted by commit instant. The check fails with
    `late` naming the operation at the first terminal, committed or aborted,
    that an operation of its own transaction comes after, unless the pass
    found a violation first.
    """
    co = _replay(history, history.rows())
    if co is None:
        commits = history.committed()
        by_txn: defaultdict[int, list] = defaultdict(list)
        for row in history.rows():
            by_txn[row[0]].append(row)
        in_commit_order = sorted(commits, key=commits.get)  # stable: terminal order on ties
        co = _replay(history, [row for txn in in_commit_order for row in by_txn[txn]])
    return co


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
