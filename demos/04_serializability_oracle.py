"""The ground-truth checkers: conflict graph, cycle detection, commit-order
verification, and a factorial-search second opinion.

The classic lost-update anomaly: two transactions read the same item, then
both write it. Whatever order you pick, one of them overwrote state it never
saw; the conflict graph shows that as a two-node cycle.
"""

from ccarena.core import History, Outcome, read, write
from ccarena.oracle import (
    brute_force_serializable,
    build_serialization_graph,
    check_commitment_ordering,
    is_acyclic,
)

hist = History()
hist.record_op(1, read(0), 5)
hist.record_op(2, read(0), 6)
hist.record_op(1, write(0), 20)
hist.record_op(2, write(0), 21)
hist.record_terminal(1, Outcome.COMMITTED, 30)
hist.record_terminal(2, Outcome.COMMITTED, 31)

print("history (item 0):")
print("  T1 reads @5, T2 reads @6, T1 writes @20, T2 writes @21, both commit")

graph = build_serialization_graph(hist)
print("\nconflict edges:")
for (src, dst), labels in sorted(graph.edges.items()):
    for lab in labels:
        print(f"  T{src} -> T{dst}: {lab.kinds[0].value} then {lab.kinds[1].value} "
              f"on item {lab.item_id} at instants {lab.instants}")

check = is_acyclic(graph)
print(f"\nacyclic: {bool(check)}  witness cycle: {check.cycle}")
print(f"brute-force search over commit orders agrees: "
      f"serializable = {brute_force_serializable(hist)}")

print("\na history can be serializable yet fail the commit-order property:")
ok = History()
ok.record_op(2, write(0), 5)
ok.record_op(1, read(0), 9)
ok.record_terminal(1, Outcome.COMMITTED, 12)   # reader commits first
ok.record_terminal(2, Outcome.COMMITTED, 30)
co = check_commitment_ordering(ok)
print(f"  T2 writes @5, T1 reads @9, but T1 commits first")
print(f"  serializable: {bool(is_acyclic(build_serialization_graph(ok)))}")
print(f"  commit ordered: {co.ok}  violation: {co.violation}")
print("\ncommit ordering is the stricter property; every history that has it")
print("is serializable, which is exactly what the validator banks on.")
