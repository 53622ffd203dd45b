"""Two overlapping schedules that commit ordering accepts and classic
optimistic validation rejects.

Backward validation aborts any committer whose read set intersects the write
set of a transaction that committed during its lifetime, with no regard for
*when inside the lifetime* the operations actually happened. Commit-order
validation looks at the operator instants instead, so overlap alone is not a
death sentence: only conflicts that contradict the commit order abort.
"""

from ccarena.baselines import OccBook, occ_validate
from ccarena.core import Outcome
from ccarena.opcot import ItemRegistry, commit_transaction, log_from_text, rebase_to_server_time

WRITER, OVERLAPPER, FIRST_WRITER = 1, 2, 3

print("schedule A: a writer and a reader overlap; the writer commits first,")
print("and the reader's read happens after the writer's write\n")

log_writer = log_from_text("BEGIN - 0\nW 0 2\nCOMMIT - 2\n", WRITER)
log_reader = log_from_text("BEGIN - 0\nR 0 2\nCOMMIT - 3\n", OVERLAPPER)
for name, log, receipt in (("writer", log_writer, 12), ("reader", log_reader, 14)):
    instants = [(str(r.op), t)
                for r, t in zip(log.records, rebase_to_server_time(log, receipt))]
    print(f"  {name} rebased: {instants}")

reg = ItemRegistry(1)
d_writer = commit_transaction(reg, log_writer, 12)
d_reader = commit_transaction(reg, log_reader, 14)
print(f"\n  commit ordering: writer {d_writer.outcome.value}, "
      f"reader {d_reader.outcome.value}")

# a commit request carries the start instant, the read set and the write set
book = OccBook()
occ_writer = occ_validate(book, 8, set(), {0}, 12)
occ_reader = occ_validate(book, 9, {0}, set(), 14)  # its lifetime spans the writer's commit
print(f"  backward validation: writer {occ_writer.value}, reader {occ_reader.value}")
assert d_reader.committed and occ_reader is Outcome.ABORTED

print("\nschedule B: one transaction reads then writes item 0 while a write")
print("and a read commit inside its lifetime, every conflict in commit order\n")

log_first_writer = log_from_text("BEGIN - 0\nW 0 1\nCOMMIT - 2\n", FIRST_WRITER)
log_late_reader = log_from_text("BEGIN - 0\nR 0 1\nCOMMIT - 2\n", WRITER)
log_read_writer = log_from_text("BEGIN - 0\nR 0 4\nW 0 4\nCOMMIT - 2\n", OVERLAPPER)
reg_b = ItemRegistry(1)
d_fw = commit_transaction(reg_b, log_first_writer, 12)
d_lr = commit_transaction(reg_b, log_late_reader, 16)
d_rw = commit_transaction(reg_b, log_read_writer, 19)
print(f"  commit ordering: first writer {d_fw.outcome.value}, "
      f"late reader {d_lr.outcome.value}, read-writer {d_rw.outcome.value}")

book_b = OccBook()
occ_fw = occ_validate(book_b, 9, set(), {0}, 12)   # first writer: instants 9, 10, commit 12
occ_lr = occ_validate(book_b, 13, {0}, set(), 16)  # late reader: instants 13, 14, commit 16
occ_rw = occ_validate(book_b, 9, {0}, {0}, 19)     # read-writer: instants 9, 13, 17, commit 19
print(f"  backward validation: first writer {occ_fw.value}, "
      f"late reader {occ_lr.value}, read-writer {occ_rw.value}")
assert d_rw.committed

print("\nsame histories, opposite verdicts: the relative-timestamp validator")
print("recovers the commits that coarse lifetime-overlap validation wastes.")
