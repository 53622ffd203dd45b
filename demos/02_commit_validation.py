"""Commit validation against per-item read/write stamps.

The server keeps, per item, the instants of the latest committed read and
write. A commit request is accepted only if every operator instant in its
rebased log is consistent with those stamps: a read must not predate the
last write, a write must predate neither the last write nor the last read.
Accepted logs move the stamps forward; aborted logs leave no trace.
"""

from ccarena.opcot import ItemRegistry, commit_transaction, log_from_text


def show(reg, items=(0,)):
    for i in items:
        t_read, t_write = reg.get(i)
        print(f"    item {i}: last_read={t_read} last_write={t_write}")


reg = ItemRegistry(4)
print("fresh registry:")
show(reg)

print("\nT1 writes item 0, receipt 50 (write lands at instant 48):")
d1 = commit_transaction(reg, log_from_text("BEGIN - 0\nW 0 3\nCOMMIT - 2\n", 1), 50)
print(f"  -> {d1.outcome.value}, updates {d1.updates}")
show(reg)

print("\nT2 read item 0 at instant 40 (before T1's committed write at 48):")
d2 = commit_transaction(reg, log_from_text("BEGIN - 0\nR 0 5\nCOMMIT - 15\n", 2), 55)
print(f"  -> {d2.outcome.value}: {d2.reason}")
print("     registry untouched by the abort:")
show(reg)

print("\nT3 read item 0 at instant 58 (after the committed write):")
d3 = commit_transaction(reg, log_from_text("BEGIN - 0\nR 0 5\nCOMMIT - 2\n", 3), 60)
print(f"  -> {d3.outcome.value}, updates {d3.updates}")
show(reg)

print("\nwhy accepted reads raise the read stamp with max() rather than")
print("assigning unconditionally: an old-but-valid read must not drag the")
print("stamp backwards and let a conflicting write slip under a newer read.")
reg2 = ItemRegistry(1)
reg2.apply_updates([(0, 60, 0)])
print("  registry read stamp 60, left by a read committed at instant 60")
d4 = commit_transaction(reg2, log_from_text("BEGIN - 0\nR 0 3\nCOMMIT - 15\n", 4), 58)
print(f"  T4 reads item 0 at instant 43 -> {d4.outcome.value}, "
      f"read stamp stays {reg2.get(0)[0]}")
d5 = commit_transaction(reg2, log_from_text("BEGIN - 0\nW 0 10\nCOMMIT - 5\n", 5), 55)
print(f"  T5 writes item 0 at instant 50 -> {d5.outcome.value}: {d5.reason}")
print("  (a stamp dragged down to 43 would have let that write commit behind")
print("   the read at 60, against the commit order)")
