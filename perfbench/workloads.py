"""The benchmark's workloads: each maps a seed to the cells one pass runs.

A cell is one `SimConfig`. Cell seeds are derived from the workload seed in
disjoint blocks (seed 1 -> cell seeds 1..k, seed 2 -> k+1..2k), so different
workload seeds never share a cell. Every workload has a full size, which is
what the benchmark measures, and a smoke size for the canary check and the
benchmark's own tests.
"""

from dataclasses import replace
from pathlib import Path

from ccarena.harness import MatrixConfig
from ccarena.simkit import SimConfig

ROOT = Path(__file__).resolve().parents[1]
DESK_MATRIX = ROOT / "configs" / "desk_matrix.cfg"

DEFAULT_SEED = 1
S2PL_CELLS = 10  # hotspot cells per pass: their run times vary with the seed
DESK_SEEDS = 5   # consecutive matrix seeds per pass: 5 x 24 = 120 cells


def _seed_block(seed: int, k: int) -> list[int]:
    return list(range(k * (seed - 1) + 1, k * seed + 1))


def _desk_matrix() -> MatrixConfig:
    return MatrixConfig.from_file(str(DESK_MATRIX))


def opcot_stress(seed: int, smoke: bool) -> list[SimConfig]:
    """One long opcot history: 5,000 txns of ~50 ops over 10,000 items."""
    n_txns, n_items = (200, 400) if smoke else (5000, 10000)
    return [SimConfig(protocol="opcot", n_txns=n_txns, n_items=n_items,
                      mean_len=50, sd_len=10, seed=seed)]


def s2pl_hotspot(seed: int, smoke: bool) -> list[SimConfig]:
    """s2pl on 100 hot items with the desk latency and disconnect knobs;
    lock waits form deadlocks often, so the deadlock search dominates."""
    base = replace(_desk_matrix().base, protocol="s2pl", n_items=100,
                   n_txns=100 if smoke else 1000, mean_len=6, sd_len=1,
                   retries=1, arrival_mean_ms=100)
    return [replace(base, seed=s) for s in _seed_block(seed, S2PL_CELLS)]


def desk_matrix(seed: int, smoke: bool) -> list[SimConfig]:
    """The shipped desk matrix (3 protocols x 2 table sizes x 4 txn counts)
    over five consecutive seeds; smoke keeps only 200 txns and one seed."""
    matrix = _desk_matrix()
    matrix.seeds = _seed_block(seed, DESK_SEEDS)
    if smoke:
        matrix.n_txns_list = [200]
        matrix.seeds = matrix.seeds[:1]
    return matrix.cells()


WORKLOADS = {
    "opcot-stress": opcot_stress,
    "s2pl-hotspot": s2pl_hotspot,
    "desk-matrix": desk_matrix,
}


def build_cells(workload: str, seed: int, smoke: bool = False) -> list[SimConfig]:
    return WORKLOADS[workload](seed, smoke)
