"""ccarena: a deterministic arena for mobile-database concurrency control.

Three protocols behind one simulator: commitment-ordering validation over
relative operator timestamps (clients talk to the server only at begin and
commit), strict two-phase locking, and classic backward-validation optimistic
CC. Every run's history is machine-checked for conflict-serializability and
for the commit-order property, whichever protocol produced it.
"""

from .baselines import (
    Granted,
    LockMode,
    LockTable,
    OccBook,
    occ_validate,
)
from .core import (
    BEGIN,
    COMMIT,
    ConfigError,
    History,
    InvalidLogError,
    ItemRegistry,
    LogRecord,
    Operation,
    OperatorLog,
    OpEvent,
    OpKind,
    Outcome,
    TerminalEvent,
    UnknownItemError,
    log_from_text,
    log_to_text,
    log_validate,
    read,
    write,
)
from .harness import (
    MatrixConfig,
    OracleViolation,
    RunMetrics,
    compute_abort_rate,
    compute_waiting_time,
    metrics_for_run,
    run_matrix,
    verify_run,
    write_csv,
)
from .opcot import (
    ClockRegressionError,
    CommitDecision,
    RebaseUnderflowError,
    client_record_op,
    commit_transaction,
    rebase_to_server_time,
    validate_commit,
)
from .oracle import (
    OracleScaleError,
    SerializationGraph,
    brute_force_serializable,
    build_serialization_graph,
    check_commitment_ordering,
    conflict_skeleton,
    is_acyclic,
)
from .simkit import (
    RunResult,
    SimConfig,
    TxnTiming,
    gen_workload,
    run_simulation,
)

__version__ = "0.1.0"
