import ast
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from test_oracle import random_history, tangled_history

import ccarena
from ccarena.cli import main
from ccarena.harness import CSV_HEADER, verify_run
from ccarena.oracle import build_serialization_graph
from ccarena.rng import DetRng
from ccarena.simkit import PROTOCOLS, SimConfig, run_simulation


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_run_writes_a_csv_row(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = run_cli("run", "--protocol", "opcot", "--items", "8", "--txns", "10",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("opcot,3,10,8,")

    def test_run_to_stdout(self, capsys):
        code = run_cli("run", "--protocol", "occ", "--items", "5", "--txns", "5", "--seed", "1")
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER

    def test_run_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run_cli("run", "--protocol", "s2pl", "--items", "6", "--txns", "8",
                           "--seed", "5", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_dump_then_check_round_trip(self, tmp_path):
        dump = tmp_path / "run.history"
        code = run_cli("run", "--protocol", "opcot", "--items", "6", "--txns", "15", "--seed", "11",
                       "--out", str(tmp_path / "row.csv"),
                       "--dump-history", str(dump))
        assert code == 0
        assert run_cli("check", "--history", str(dump)) == 0

    def test_config_file_plus_overrides(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("protocol = occ\nn_items = 6\n"
                       "n_txns = 5\nmean_len = 4\nsd_len = 1\nseed = 2\n",
                       encoding="utf-8")
        out = tmp_path / "row.csv"
        code = run_cli("run", "--config", str(cfg), "--seed", "9",
                       "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("occ,9,5,6,")

    def test_bad_config_exits_1(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_items = 0\n", encoding="utf-8")
        assert run_cli("run", "--config", str(cfg)) == 1

    def test_unknown_key_exits_1(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus = 1\n", encoding="utf-8")
        assert run_cli("run", "--config", str(cfg)) == 1

    def test_run_oracle_violation_exits_2_and_dumps(self, tmp_path, capsys, monkeypatch):
        import ccarena.harness as harness
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "verify_run", lambda h, p: "injected failure")
        out = tmp_path / "row.csv"
        assert run_cli("run", "--protocol", "occ", "--items", "5",
                       "--txns", "6", "--seed", "4", "--out", str(out)) == 2
        assert not out.exists()  # no CSV row for a failed run
        dump = tmp_path / "oracle_violation_occ_items5_txns6_seed4.history"
        assert dump.read_text(encoding="utf-8") != ""
        assert capsys.readouterr() == ("", f"oracle violation: injected failure "
                                           f"(history dumped to {dump.name})\n")


class TestMatrixCommand:
    def test_matrix_end_to_end(self, tmp_path):
        cfg = tmp_path / "matrix.cfg"
        cfg.write_text(
            "protocols = opcot, occ\ntxns = 8\nitems = 6\nseeds = 1,2\n"
            "mean_len = 4\nsd_len = 1\nop_service_ms = 5\n",
            encoding="utf-8")
        out = tmp_path / "results.csv"
        code = run_cli("matrix", "--config", str(cfg), "--out", str(out),
                       "--gnuplot")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2
        assert (tmp_path / "results.csv.dat").exists()

    def test_output_does_not_depend_on_the_worker_count(self, tmp_path):
        cfg = tmp_path / "matrix.cfg"
        cfg.write_text("protocols = opcot, occ, s2pl\ntxns = 6, 12\nitems = 5\nseeds = 1:2\n"
                       "mean_len = 4\nsd_len = 1\ndisconnect_prob = 0.2\n"
                       "retries = 1\n", encoding="utf-8")
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            assert run_cli("matrix", "--config", str(cfg), "--out", str(out),
                           "--workers", workers, "--gnuplot") == 0
            outputs.append((out.read_bytes(), (tmp_path / f"w{workers}.csv.dat").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") == 1 + 3 * 2 * 2

    def test_matrix_missing_file_exits_1(self, tmp_path):
        assert run_cli("matrix", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "o.csv")) == 1

    def test_matrix_oracle_violation_exits_2(self, tmp_path, monkeypatch):
        import ccarena.harness as harness
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "verify_run", lambda h, p: "injected failure")
        cfg = tmp_path / "matrix.cfg"
        cfg.write_text("protocols = opcot\ntxns = 5\nitems = 5\nseeds = 1\n"
                       "mean_len = 3\nsd_len = 1\n", encoding="utf-8")
        out = tmp_path / "results.csv"
        assert run_cli("matrix", "--config", str(cfg), "--out", str(out)) == 2
        assert not out.exists()  # no CSV row for a failed run


CYCLE_HISTORY = ("OP 1 R 0 5\nOP 2 R 0 6\nOP 1 W 0 20\nOP 2 W 0 21\n"
                 "END 1 COMMITTED 30\nEND 2 COMMITTED 31\n")


class TestCheckCommand:
    def test_clean_history_exits_0(self, tmp_path, capsys):
        path = tmp_path / "ok.history"
        path.write_text("OP 1 W 0 10\nEND 1 COMMITTED 12\n"
                        "OP 2 R 0 15\nEND 2 COMMITTED 20\n", encoding="utf-8")
        assert run_cli("check", "--history", str(path)) == 0
        out = capsys.readouterr().out
        assert "serializable (acyclic graph): yes" in out
        assert "commitment ordered: yes" in out
        assert "brute-force serializable: yes" in out

    def test_co_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "co.history"
        path.write_text("OP 1 W 0 10\nOP 2 R 0 15\n"
                        "END 2 COMMITTED 18\nEND 1 COMMITTED 25\n", encoding="utf-8")
        assert run_cli("check", "--history", str(path)) == 2
        assert "commitment ordered: NO" in capsys.readouterr().out

    @pytest.mark.parametrize("outcome", ["COMMITTED", "ABORTED"])
    def test_an_operation_after_its_own_terminal_exits_2(self, tmp_path, capsys, outcome):
        path = tmp_path / "late.history"
        path.write_text(f"OP 1 R 5 10\nEND 1 {outcome} 5\n", encoding="utf-8")
        assert run_cli("check", "--history", str(path)) == 2
        out = capsys.readouterr().out
        assert ("operation after its own terminal: txn 1 has R on item 5 at 10, "
                "after its terminal at 5\n") in out

    def test_cycle_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cyc.history"
        path.write_text(CYCLE_HISTORY, encoding="utf-8")
        assert run_cli("check", "--history", str(path)) == 2
        out = capsys.readouterr().out
        assert "NO" in out
        assert "brute-force serializable: NO" in out

    @pytest.mark.parametrize("text, code", [("OP 1 W 0 10\nEND 1 COMMITTED 12\n", 0),
                                            (CYCLE_HISTORY, 2)], ids=["clean", "cycle"])
    def test_check_runs_the_commit_order_check_once(self, tmp_path, capsys, monkeypatch,
                                                    text, code):
        import ccarena.harness as harness  # where the gate's findings look it up
        check, checks = harness.check_commitment_ordering, []

        def counted_check(history):
            checks.append(history)
            return check(history)

        monkeypatch.setattr(harness, "check_commitment_ordering", counted_check)
        path = tmp_path / "h.history"
        path.write_text(text, encoding="utf-8")
        assert run_cli("check", "--history", str(path)) == code
        assert len(checks) == 1
        assert capsys.readouterr().err == ""

    def test_tie_count_is_the_full_graphs(self, tmp_path, capsys):
        # on clean small dumps of crowded runs, every protocol; only opcot
        # makes ties, when short operations land on one instant
        path = tmp_path / "run.history"
        tied = 0
        for protocol in PROTOCOLS:
            for seed in range(1, 16):
                cfg = SimConfig(protocol=protocol, n_items=3, n_txns=12, mean_len=3, sd_len=1,
                                op_service_ms=1, arrival_mean_ms=2, retries=1, seed=seed)
                h = run_simulation(cfg).history
                path.write_text(h.to_text(), encoding="utf-8")
                assert run_cli("check", "--history", str(path)) == 0
                ties = len(build_serialization_graph(h).ties)
                line = f"instant ties (directed by commit order): {ties}\n"
                assert (line in capsys.readouterr().out) == (ties > 0)
                tied += ties > 0
        assert tied >= 5, tied

    @pytest.mark.parametrize("line", ["OP nope", "OP 1 R x 3"])
    def test_malformed_history_exits_1(self, tmp_path, line):
        path = tmp_path / "bad.history"
        path.write_text(line + "\n", encoding="utf-8")
        assert run_cli("check", "--history", str(path)) == 1

    @pytest.mark.parametrize("make", [random_history, tangled_history])
    def test_verdict_matches_the_gate_and_witnesses_are_real(self, tmp_path, capsys, make):
        # check decides on the skeleton; its edges are full-graph edges, so a
        # printed witness must be a cycle of the full graph
        rng = DetRng(2024)
        path = tmp_path / "h.history"
        witnessed = clean = 0
        for _ in range(150):
            h = make(rng)
            path.write_text(h.to_text(), encoding="utf-8")
            code = run_cli("check", "--history", str(path))
            out = capsys.readouterr().out
            assert code == (0 if verify_run(h, "opcot") is None else 2)
            full = build_serialization_graph(h)
            line = next(ln for ln in out.splitlines() if ln.startswith("serializable"))
            if line.endswith("yes"):
                clean += code == 0
                continue
            cycle = ast.literal_eval(line.split("NO, cycle ", 1)[1])
            assert len(cycle) >= 2
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert (a, b) in full.edges, f"witness step {a}->{b} is not an edge"
            witnessed += 1
        assert witnessed >= 20 and clean >= 20


@pytest.mark.parametrize("argv", [
    ("check", "--history", "{dir}"),
    ("check", "--history", "{latin1}"),
    ("run", "--protocol", "occ", "--items", "5", "--txns", "5", "--seed", "1", "--out", "{dir}"),
], ids=["check-directory", "check-non-utf8", "run-out-directory"])
def test_unreadable_path_exits_1(tmp_path, capsys, argv):
    latin1 = tmp_path / "latin1.history"
    latin1.write_bytes("OP 1 W 0 10 \u00e9\n".encode("latin-1"))
    paths = {"dir": str(tmp_path), "latin1": str(latin1)}
    assert run_cli(*(a.format(**paths) for a in argv)) == 1
    assert capsys.readouterr().err.startswith("config error: ")


MATRIX_CFG = ("protocols = occ\ntxns = 5\nitems = 5\nseeds = 1\n"
              "mean_len = 3\nsd_len = 1\n")
RUN_ARGS = ("run", "--protocol", "occ", "--items", "5", "--txns", "5", "--seed", "1")


def _no_simulation(*args, **kwargs):
    raise AssertionError("a simulation ran before its command line was checked")


class TestOutputCheckedFirst:
    @pytest.mark.parametrize("gnuplot", [False, True], ids=["csv", "dat"])
    def test_matrix_unwritable_output_fails_before_any_cell(self, tmp_path, capsys,
                                                            monkeypatch, gnuplot):
        import ccarena.cli as cli
        monkeypatch.setattr(cli, "run_matrix", _no_simulation)
        cfg = tmp_path / "matrix.cfg"
        cfg.write_text(MATRIX_CFG, encoding="utf-8")
        if gnuplot:   # the CSV is writable, its .dat companion is not
            out = tmp_path / "results.csv"
            (tmp_path / "results.csv.dat").mkdir()
            argv = ("matrix", "--config", str(cfg), "--out", str(out), "--gnuplot")
        else:
            out = tmp_path
            argv = ("matrix", "--config", str(cfg), "--out", str(out))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        if gnuplot:
            assert not out.exists()  # the probe leaves no file behind

    @pytest.mark.parametrize("flag", ["--out", "--dump-history"])
    def test_run_unwritable_output_fails_before_simulating(self, tmp_path, capsys,
                                                           monkeypatch, flag):
        import ccarena.cli as cli
        monkeypatch.setattr(cli, "run_simulation", _no_simulation)
        assert run_cli(*RUN_ARGS, flag, str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    def test_existing_output_survives_an_oracle_violation(self, tmp_path, monkeypatch):
        import ccarena.harness as harness
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "verify_run", lambda h, p: "injected failure")
        cfg = tmp_path / "matrix.cfg"
        cfg.write_text(MATRIX_CFG, encoding="utf-8")
        out = tmp_path / "results.csv"
        out.write_text("earlier results\n", encoding="utf-8")
        assert run_cli("matrix", "--config", str(cfg), "--out", str(out)) == 2
        assert out.read_text(encoding="utf-8") == "earlier results\n"

    @pytest.mark.parametrize("command", ["run", "matrix"])
    def test_violation_with_an_unwritable_dump_still_exits_2(self, tmp_path, capsys,
                                                             monkeypatch, command):
        # the dump path is taken by a directory: the violation is still the
        # verdict, and the message says the history was not written and why
        import ccarena.harness as harness
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(harness, "verify_run", lambda h, p: "forced violation")
        (tmp_path / "oracle_violation_occ_items5_txns5_seed1.history").mkdir()
        cfg = tmp_path / "matrix.cfg"
        cfg.write_text(MATRIX_CFG, encoding="utf-8")
        argv = RUN_ARGS if command == "run" else ("matrix", "--config", str(cfg),
                                                  "--out", str(tmp_path / "results.csv"))
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("oracle violation: ")
        assert "forced violation (history not dumped to oracle_violation_occ_items5" in err
        assert "Traceback" not in err


DUMP_NAME = "oracle_violation_occ_items5_txns5_seed1.history"


class TestDumpNextToOutput:
    """A violating history goes to the directory of --out, wherever the
    working directory is."""

    @staticmethod
    def violating_cli(tmp_path, monkeypatch, command, verdict):
        import ccarena.harness as harness
        work, results = tmp_path / "work", tmp_path / "results"
        work.mkdir()
        results.mkdir(exist_ok=True)
        monkeypatch.chdir(work)
        monkeypatch.setattr(harness, "verify_run", lambda h, p: verdict)
        cfg = tmp_path / "matrix.cfg"
        cfg.write_text(MATRIX_CFG, encoding="utf-8")
        out = str(results / "results.csv")
        argv = (*RUN_ARGS, "--out", out) if command == "run" else \
            ("matrix", "--config", str(cfg), "--out", out)
        return run_cli(*argv), work, results

    @pytest.mark.parametrize("command", ["run", "matrix"])
    def test_dump_lands_in_the_output_directory(self, tmp_path, capsys, monkeypatch,
                                                command):
        code, work, results = self.violating_cli(tmp_path, monkeypatch, command,
                                                 "injected failure")
        assert code == 2
        assert (results / DUMP_NAME).read_text(encoding="utf-8") != ""
        assert list(work.iterdir()) == []
        assert not (results / "results.csv").exists()
        err = capsys.readouterr().err
        assert f"injected failure (history dumped to ../results/{DUMP_NAME})" in err

    @pytest.mark.parametrize("command", ["run", "matrix"])
    def test_unwritable_dump_in_the_output_directory_still_exits_2(
            self, tmp_path, capsys, monkeypatch, command):
        # the dump path next to --out is taken by a directory; the working
        # directory is writable but is not used instead
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / DUMP_NAME).mkdir()
        code, work, _ = self.violating_cli(tmp_path, monkeypatch, command, "forced violation")
        assert code == 2
        assert list(work.iterdir()) == []
        err = capsys.readouterr().err
        assert err.startswith("oracle violation: ")
        assert f"forced violation (history not dumped to ../results/{DUMP_NAME}: " in err
        assert "Traceback" not in err


# millisecond values no float draw can take; each used to crash with an
# OverflowError traceback
_HUGE = "9" * 400
HUGE_MS_FILES = {
    "arrival-mean-huge": f"arrival_mean_ms = {_HUGE}\n",
    "service-huge": f"op_service_ms = {_HUGE}\n",
    "uplink-hi-huge": f"uplink_latency_ms = 1, {_HUGE}\n",
    "reconnect-hi-huge": f"reconnect_delay_ms = 1, {_HUGE}\ndisconnect_prob = 1\n",
}

# malformed matrix values: each must exit 1 as a config error, never a traceback
BAD_MATRIX_FILES = {
    "zero-txns-in-window": "txns = 0\narrival_window_ms = 100\n",
    "txns-not-a-number": "txns = 10, x\n",
    "items-empty": "items = \n",
    "seed-range-not-a-number": "seeds = 1:x\n",
    "window-not-a-number": "arrival_window_ms = soon\n",
    "mean-len-nan": "mean_len = nan\n",
    "sd-len-inf": "sd_len = inf\n",
    "sd-len-huge": "sd_len = 1e308\n",
    "window-too-large": "arrival_window_ms = " + "9" * 311 + "\n",
    "window-negative": "arrival_window_ms = -100\n",
    "seed-range-empty": "seeds = 5:1\n",
    "key-given-twice": "txns = 5\ntxns = 7\n",
    "value-repeated": "txns = 5, 05\n",
    "protocols-repeated": "protocols = occ, OCC\n",
    # divides, but the 1e308 ms mean times an exponential draw overflows
    "window-mean-huge": "txns = 5\narrival_window_ms = 5" + "0" * 308 + "\n",
    **HUGE_MS_FILES,
    # each axis sets its field in every cell, so a base value would be dropped
    "base-protocol": "protocol = s2pl\n",
    "base-n-txns": "n_txns = 7\n",
    "base-n-items": "n_items = 3\n",
    "base-seed": "seed = 9\n",
    # the window sets every cell's arrival mean, so a base mean would be dropped
    "arrival-mean-and-window": "arrival_mean_ms = 7\narrival_window_ms = 2000\n",
    "n-clients": "n_clients = 50\n",
}


def matrix_cfg_with(text):
    """MATRIX_CFG with each key that text sets taken from text, so a bad
    value is not hidden behind a key given twice."""
    keys = {line.partition("=")[0].strip() for line in text.splitlines()}
    kept = [line for line in MATRIX_CFG.splitlines(keepends=True)
            if line.partition("=")[0].strip() not in keys]
    return "".join(kept) + text


@pytest.mark.parametrize("text", BAD_MATRIX_FILES.values(), ids=BAD_MATRIX_FILES.keys())
def test_bad_matrix_value_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "matrix.cfg"
    cfg.write_text(matrix_cfg_with(text), encoding="utf-8")
    assert run_cli("matrix", "--config", str(cfg), "--out", str(tmp_path / "o.csv")) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_matrix_worker_count_below_one_exits_1(tmp_path, capsys, monkeypatch, workers):
    import ccarena.harness as harness
    monkeypatch.setattr(harness, "_run_cell", _no_simulation)
    cfg = tmp_path / "matrix.cfg"
    cfg.write_text(MATRIX_CFG, encoding="utf-8")
    out = tmp_path / "o.csv"
    assert run_cli("matrix", "--config", str(cfg), "--out", str(out), "--workers", workers) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


# argparse's own exit code is 2, the oracle-violation code
USAGE_ERRORS = {
    "unknown-command": ["bogus"],
    "txns-not-a-number": ["run", "--txns", "abc"],
    "unknown-protocol": ["run", "--protocol", "foo"],
    "matrix-without-config": ["matrix", "--out", "x.csv"],
    "clients-flag": ["run", "--clients", "4"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ccarena")


@pytest.mark.parametrize("text", ["mean_len = nan\n", "sd_len = inf\n", "mean_len = 1e308\n",
                                  "n_clients = 50\n"] + [
    pytest.param(text, id=name) for name, text in HUGE_MS_FILES.items()])
def test_bad_run_config_value_exits_1(tmp_path, capsys, text):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli(*RUN_ARGS, "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


# the directory holding the imported package, so a fresh interpreter runs
# this same code
PACKAGE_ROOT = str(Path(ccarena.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def fresh_python(*args, cwd, preexec_fn=None):
    """Run args in a new interpreter; 60 s bounds even a huge count."""
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PACKAGE_ROOT}, timeout=60,
                          preexec_fn=preexec_fn)


GATE_ARGS = ("--items", "8", "--txns", "40", "--seed", "1", "--retries", "1")
HUGE = "1000000000"
HORIZON_CFG = f"mean_len = 2000\nsd_len = 0\nop_service_ms = {2**53}\n"
# each row: commands run one after another through python -m ccarena, each
# with its exit code
ENTRY_POINT_ROWS = {
    **{f"gate-{p}": [(("run", "--protocol", p, *GATE_ARGS, "--dump-history", "run.history"), 0),
                     (("check", "--history", "run.history"), 0)] for p in PROTOCOLS},
    "clients-flag": [(("run", "--protocol", "opcot", "--clients", HUGE,
                       "--txns", "5", "--seed", "1"), 1)],
    **{f"huge-item-count-{p}": [(("run", "--protocol", p, "--items", HUGE,
                                  "--txns", "5", "--seed", "1"), 0)] for p in PROTOCOLS},
    "bad-matrix-value": [(("matrix", "--config", "bad.cfg", "--out", "o.csv"), 1)],
    "unknown-command": [(("bogus",), 1)],
    "violating-history": [(("check", "--history", "cycle.history"), 2)],
    # every delay is in range, but the instants pass 2**63 - 1
    **{f"past-64-bit-instants-{p}": [(("run", "--protocol", p, "--items", "5", "--txns", "2",
                                        "--config", "horizon.cfg"), 1)] for p in PROTOCOLS},
    "past-64-bit-instants-matrix": [(("matrix", "--config", "horizon-matrix.cfg",
                                      "--out", "o.csv"), 1)],
    "instant-past-64-bits": [(("check", "--history", "big-instant.history"), 1)],
    "txn-id-past-64-bits": [(("check", "--history", "big-txn.history"), 1)],
    "help": [(("--help",), 0)],
}


@pytest.mark.parametrize("steps", ENTRY_POINT_ROWS.values(), ids=ENTRY_POINT_ROWS.keys())
def test_entry_point_exit_code(tmp_path, steps):
    (tmp_path / "bad.cfg").write_text(matrix_cfg_with(BAD_MATRIX_FILES["mean-len-nan"]),
                                      encoding="utf-8")
    (tmp_path / "cycle.history").write_text(CYCLE_HISTORY, encoding="utf-8")
    (tmp_path / "horizon.cfg").write_text(HORIZON_CFG, encoding="utf-8")
    (tmp_path / "horizon-matrix.cfg").write_text(
        "protocols = opcot, occ, s2pl\ntxns = 2\nitems = 5\nseeds = 1\n" + HORIZON_CFG,
        encoding="utf-8")
    (tmp_path / "big-instant.history").write_text(f"OP 1 R 0 {2**63}\n", encoding="utf-8")
    (tmp_path / "big-txn.history").write_text(f"OP {2**63} R 0 1\n", encoding="utf-8")
    for argv, code in steps:
        proc = fresh_python("-m", "ccarena", *argv, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 1:
            assert proc.stderr.splitlines()[0].startswith("config error:")


POOL_MODULES = {"multiprocessing", "concurrent.futures.process"}


def imported_modules(stderr):
    """The module names a -X importtime run reports loading."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args", [
    ("-c", "import ccarena"),
    ("-c", "import ccarena.cli"),
    ("-m", "ccarena", "run", "--protocol", "opcot", "--items", "8", "--txns", "10",
     "--seed", "1"),
], ids=["import", "import-cli", "run"])
def test_only_a_parallel_matrix_loads_the_process_pool(tmp_path, args):
    proc = fresh_python("-X", "importtime", *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = imported_modules(proc.stderr)
    assert "ccarena.harness" in loaded
    assert not loaded & POOL_MODULES


def _cap_address_space():
    """Runs in the child only: 600 MB of address space, so building a huge
    list fails fast instead of taking the host's memory."""
    resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20, 600 * 2**20))


def test_huge_seed_range_exits_1_before_it_is_built(tmp_path):
    (tmp_path / "m.cfg").write_text(matrix_cfg_with("seeds = 1:100000000\n"), encoding="utf-8")
    proc = fresh_python("-m", "ccarena", "matrix", "--config", "m.cfg", "--out", "o.csv",
                        cwd=tmp_path, preexec_fn=_cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines()[0] == ("config error: seeds = 1:100000000 spans more "
                                           "than 100000 seeds")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    proc = fresh_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
