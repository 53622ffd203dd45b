"""Command-line front end.

    ccarena run --protocol opcot --items 100 --txns 200 --seed 1
    ccarena matrix --config matrix.cfg --out results.csv [--gnuplot]
    ccarena check --history dump.history

Exit codes: 0 all runs clean, 1 configuration or usage error (including an
input or output path that cannot be read or written as text), 2 oracle
violation.
Output paths are checked before the first simulation runs. A violating
history is dumped next to `--out`, or to the working directory without it.
"""

import argparse
import os
import sys
from dataclasses import replace

from .core import ConfigError, History, InvalidLogError
from .harness import (
    MatrixConfig,
    OracleViolation,
    gate_run,
    judge,
    metrics_for_run,
    rows_to_csv,
    rows_to_gnuplot,
    run_matrix,
    write_text,
)
from .oracle import BRUTE_FORCE_LIMIT, brute_force_serializable
from .simkit import FIELD_TYPES, PROTOCOLS, SimConfig, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ORACLE = 2


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, so it exits 1 like any other
    bad input; argparse's own exit code 2 is the oracle-violation code."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ccarena", description="concurrency-control arena")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one simulation and emit its CSV row")
    run_p.add_argument("--protocol", dest="protocol", choices=PROTOCOLS)
    run_p.add_argument("--items", dest="n_items", type=int)
    run_p.add_argument("--txns", dest="n_txns", type=int)
    run_p.add_argument("--seed", dest="seed", type=int)
    run_p.add_argument("--config", help="flat key=value config file")
    run_p.add_argument("--retries", dest="retries", type=int)
    run_p.add_argument("--out", help="write the CSV here instead of stdout")
    run_p.add_argument("--dump-history", metavar="FILE",
                       help="also write the run's history dump (for `ccarena check`)")

    mx_p = sub.add_parser("matrix", help="run a whole experiment matrix")
    mx_p.add_argument("--config", required=True, help="matrix config file")
    mx_p.add_argument("--out", required=True, help="output CSV path")
    mx_p.add_argument("--workers", type=int, default=1)
    mx_p.add_argument("--gnuplot", action="store_true",
                      help="also emit <out>.dat arranged for plotting")

    ck_p = sub.add_parser("check", help="run the oracle over a dumped history")
    ck_p.add_argument("--history", required=True)
    return parser


def _check_writable(*paths: str) -> None:
    """Raise OSError now, before any cell runs, for an output that cannot be
    opened for writing. An existing file keeps its contents; a probe file
    made here is removed again."""
    for path in paths:
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


def _dump_dir(out: str | None) -> str:
    """Where a violating history is dumped: next to the output, or in the
    working directory when there is no output file."""
    return os.path.dirname(out or "") or os.curdir


def _cmd_run(args) -> int:
    cfg = SimConfig.from_file(args.config) if args.config else SimConfig()
    cfg = replace(cfg, **{name: value for name, value in vars(args).items()
                          if name in FIELD_TYPES and value is not None})
    _check_writable(*filter(None, (args.out, args.dump_history)))
    result = run_simulation(cfg)
    if args.dump_history:
        write_text(args.dump_history, result.history.to_text())
    violation = gate_run(result, _dump_dir(args.out))
    if violation is not None:
        raise OracleViolation(violation)
    rows = [metrics_for_run(result)]
    if args.out:
        write_text(args.out, rows_to_csv(rows))
    else:
        sys.stdout.write(rows_to_csv(rows))
    return EXIT_OK


def _cmd_matrix(args) -> int:
    matrix = MatrixConfig.from_file(args.config)
    _check_writable(args.out, *([args.out + ".dat"] if args.gnuplot else []))
    rows = run_matrix(matrix, workers=args.workers, dump_dir=_dump_dir(args.out))
    write_text(args.out, rows_to_csv(rows))
    if args.gnuplot:
        write_text(args.out + ".dat", rows_to_gnuplot(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _cmd_check(args) -> int:
    with open(args.history, encoding="utf-8") as fh:
        history = History.from_text(fh.read())
    co, acyclic = judge(history)  # the run gate's findings
    n_committed = len(history.committed())
    print(f"committed transactions: {n_committed}")
    print(f"serializable (acyclic graph): {'yes' if acyclic else f'NO, cycle {acyclic.cycle}'}")
    if co.late is not None:
        print(f"operation after its own terminal: {co.late}")
    else:
        print(f"commitment ordered: {'yes' if co else f'NO, violation {co.violation}'}")
        if co.ties:
            print(f"instant ties (directed by commit order): {co.ties}")
    if n_committed <= BRUTE_FORCE_LIMIT:
        brute = brute_force_serializable(history)
        print(f"brute-force serializable: {'yes' if brute else 'NO'}")
        if brute != bool(acyclic):
            print("oracle disagreement between graph and brute force!", file=sys.stderr)
            return EXIT_ORACLE
    return EXIT_OK if co and acyclic else EXIT_ORACLE


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "matrix":
            return _cmd_matrix(args)
        return _cmd_check(args)
    except (ConfigError, InvalidLogError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleViolation as exc:
        print(f"oracle violation: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
