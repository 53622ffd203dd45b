"""Client-side operator logging and server-side rebasing.

A mobile client stamps every operator with the time elapsed since the
previous operator, so only durations cross the wire. The server anchors the
log's last record at its own receipt instant and reconstructs absolute
instants backwards. Two clients whose clocks disagree by hours produce the
same server-side timeline.
"""

from ccarena.core import BEGIN, COMMIT, read, write
from ccarena.opcot import OperatorLog, client_record_op, log_to_text, rebase_to_server_time


def record_transaction(clock_offset: int) -> OperatorLog:
    """The same activity pattern on a client whose clock is offset."""
    log = OperatorLog(txn_id=1)
    now = 10_000 + clock_offset   # whatever the local clock says at begin
    _, prev = client_record_op(log, BEGIN, now, now)
    for op, gap in ((read(17), 40), (write(17), 12), (read(3), 25)):
        now += gap
        _, prev = client_record_op(log, op, now, prev)
    now += 8
    client_record_op(log, COMMIT, now, prev)
    return log


print("operator log from a client whose clock reads ~10:00:")
log_a = record_transaction(clock_offset=0)
print(log_to_text(log_a))

print("operator log from a client whose clock is 3 hours ahead:")
log_b = record_transaction(clock_offset=3 * 3600 * 1000)
print(log_to_text(log_b))

assert log_a.records == log_b.records
print("-> identical logs: relative timestamps erase clock skew\n")

receipt = 5_000  # the server clock when the commit request arrives
instants = rebase_to_server_time(log_a, receipt)
print(f"rebased against server receipt instant {receipt}:")
for rec, instant in zip(log_a.records, instants):
    print(f"  {str(rec.op):<8} at server time {instant}")
print("\nthe last record sits at the receipt instant and every gap equals")
print("the relative timestamp the client recorded.")
