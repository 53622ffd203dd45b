"""Head-to-head run of the three protocols on one workload family.

A scaled-down version of the benchmark matrix: one item table, rising
transaction counts inside a fixed submission window, five seeds per cell.
Every run's history goes through the serializability oracle before its
numbers are used. Expect the optimistic baseline to abort the most, locking
to wait the most, and the commit-order validator to do neither.
"""

from ccarena.harness import MatrixConfig, rows_to_gnuplot, run_matrix
from ccarena.simkit import SimConfig

matrix = MatrixConfig(
    protocols=["opcot", "occ", "s2pl"],
    n_txns_list=[200, 400],
    n_items_list=[50],
    seeds=[1, 2, 3, 4, 5],
    base=SimConfig(mean_len=5, sd_len=1, op_service_ms=10,
                   uplink_latency_ms=(20, 60), downlink_latency_ms=(20, 60),
                   disconnect_prob=0.10, reconnect_delay_ms=(100, 300)),
    arrival_window_ms=20_000,
)

print(f"running {len(matrix.cells())} simulations (oracle-checked)...\n")
rows = run_matrix(matrix)

print("\ngnuplot-ready blocks:\n")
print(rows_to_gnuplot(rows))
