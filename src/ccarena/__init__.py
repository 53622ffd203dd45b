"""ccarena: a deterministic arena for mobile-database concurrency control.

Three protocols behind one simulator: commitment-ordering validation over
relative operator timestamps (clients talk to the server only at begin and
commit), strict two-phase locking, and classic backward-validation optimistic
CC. Every run's history is machine-checked for conflict-serializability and
for the commit-order property, whichever protocol produced it.

The root exports what a CLI or harness user calls: run one simulation, run a
matrix of them, and gate a history. Everything else is imported from the
module that defines it.
"""

from .core import ConfigError
from .harness import MatrixConfig, OracleViolation, RunMetrics, run_matrix, verify_run
from .simkit import RunResult, SimConfig, run_simulation

__version__ = "0.1.0"
