import ast
import re
from dataclasses import replace
from types import ModuleType

import pytest
from test_cli import _no_simulation
from test_oracle import (assert_real_violation, commits_increase, random_history,
                         reference_commitment_ordering, tangled_history)

from ccarena.core import ConfigError, History, Outcome, read, write
from ccarena.harness import (
    CSV_HEADER,
    MatrixConfig,
    OracleViolation,
    compute_abort_rate,
    compute_waiting_time,
    rows_to_csv,
    rows_to_gnuplot,
    run_matrix,
    verify_run,
)
from ccarena.oracle import check_commitment_ordering, conflict_skeleton, is_acyclic
from ccarena.rng import DetRng
from ccarena.simkit import MAX_MS, SimConfig, TxnTiming, run_simulation


def reference_verify_run(history, protocol):
    """The two-check gate: cycle search on the skeleton, then the reference
    commit-order scan."""
    check = is_acyclic(conflict_skeleton(history))
    if not check:
        return f"serialization graph has a cycle: {check.cycle}"
    co = reference_commitment_ordering(history)
    if not co:
        return f"commitment ordering violated: {co.violation}"
    return None


def assert_same_report(history, got):
    """verify_run's report is the two-check gate's, up to which violating
    pair it names, and a named pair is a real violation."""
    expected = reference_verify_run(history, "opcot")
    prefix = "commitment ordering violated: "
    if got is not None and got.startswith(prefix):
        assert expected is not None and expected.startswith(prefix), (got, expected)
        assert_real_violation(history, ast.literal_eval(got[len(prefix):]))
    else:
        assert got == expected


class TestPackageRoot:
    def test_root_exports_only_the_run_and_harness_surface(self):
        import ccarena

        exported = {name for name, value in vars(ccarena).items()
                    if not name.startswith("_") and not isinstance(value, ModuleType)}
        assert exported == {"SimConfig", "run_simulation", "RunResult",
                            "MatrixConfig", "run_matrix", "RunMetrics",
                            "verify_run", "OracleViolation", "ConfigError"}


class TestAbortRate:
    def test_zero(self):
        assert compute_abort_rate(0, 100) == 0.0

    def test_ten_aborts_of_two_hundred(self):
        assert compute_abort_rate(10, 200) == 0.05

    def test_all_aborted(self):
        assert compute_abort_rate(200, 200) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            compute_abort_rate(0, 0)
        with pytest.raises(ConfigError):
            compute_abort_rate(5, 3)


class TestWaitingTime:
    def test_no_waiting(self):
        t = TxnTiming(0, submit_ms=0, terminal_ms=500, service_ms=500)
        assert compute_waiting_time(t) == 0

    def test_simple_subtraction(self):
        t = TxnTiming(0, submit_ms=0, terminal_ms=620, service_ms=500)
        assert compute_waiting_time(t) == 120

    def test_lock_queue_plus_latency(self):
        # 300 ms blocked in lock queues plus 40 ms of message latency
        t = TxnTiming(0, submit_ms=100, terminal_ms=100 + 500 + 300 + 40,
                      service_ms=500)
        assert compute_waiting_time(t) == 340

    def test_service_beyond_the_elapsed_time_is_an_error(self):
        # a run's service time lies inside its submit-to-terminal span, so
        # a longer one is a bookkeeping fault, not a wait of zero
        t = TxnTiming(0, submit_ms=0, terminal_ms=400, service_ms=500)
        with pytest.raises(ConfigError, match="service time exceeds"):
            compute_waiting_time(t)

    def test_terminal_before_submit_is_an_error(self):
        t = TxnTiming(0, submit_ms=10, terminal_ms=5, service_ms=0)
        with pytest.raises(ConfigError):
            compute_waiting_time(t)


def tiny_matrix(**kw):
    base = SimConfig(n_items=8, mean_len=4, sd_len=1,
                     op_service_ms=5, uplink_latency_ms=(1, 3),
                     downlink_latency_ms=(1, 3), disconnect_prob=0.1,
                     reconnect_delay_ms=(5, 15))
    args = dict(protocols=["opcot", "occ", "s2pl"], n_txns_list=[12],
                n_items_list=[8], seeds=[1, 2], base=base)
    args.update(kw)
    return MatrixConfig(**args)


class TestRunMatrix:
    def test_row_count_and_order(self):
        rows = run_matrix(tiny_matrix())
        assert len(rows) == 3 * 1 * 1 * 2
        keys = [r.sort_key() for r in rows]
        assert keys == sorted(keys)
        for row in rows:
            assert row.committed + row.aborted == row.n_txns
            assert 0.0 <= row.abort_rate <= 1.0

    def test_rerun_is_byte_identical(self):
        a = rows_to_csv(run_matrix(tiny_matrix()))
        b = rows_to_csv(run_matrix(tiny_matrix()))
        assert a == b

    def test_csv_header_is_pinned(self):
        assert CSV_HEADER == ("protocol,seed,n_txns,n_items,committed,aborted,"
                              "abort_rate,mean_wait_ms,p95_wait_ms,"
                              "mean_messages_per_txn")
        csv = rows_to_csv(run_matrix(tiny_matrix(protocols=["opcot"], seeds=[1])))
        assert csv.splitlines()[0] == CSV_HEADER

    def test_parallel_workers_match_serial(self):
        mx = tiny_matrix()
        assert rows_to_csv(run_matrix(mx, workers=2)) == rows_to_csv(run_matrix(mx, workers=1))

    def test_pool_never_exceeds_the_cell_count(self, monkeypatch):
        import concurrent.futures
        sizes = []

        class InProcessPool:   # records the size asked for; starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        # run_matrix imports the pool where it needs one, so it finds the fake
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        mx = tiny_matrix(protocols=["opcot", "occ"], seeds=[1])
        assert rows_to_csv(run_matrix(mx, workers=5000)) == rows_to_csv(run_matrix(mx))
        assert sizes == [2]
        run_matrix(tiny_matrix(protocols=["occ"], seeds=[1]), workers=5000)
        assert sizes == [2]   # one cell runs in-process, with no pool

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_rejected_before_any_cell(self, monkeypatch, workers):
        import ccarena.harness as harness
        monkeypatch.setattr(harness, "_run_cell", _no_simulation)
        with pytest.raises(ConfigError, match=f"workers must be >= 1, got {workers}"):
            run_matrix(tiny_matrix(), workers=workers)

    def test_cells_validate_before_the_window_divides(self):
        with pytest.raises(ConfigError):
            tiny_matrix(n_txns_list=[0], arrival_window_ms=1000).cells()

    def test_a_window_too_large_to_divide_is_a_config_error(self):
        with pytest.raises(ConfigError, match="arrival_window_ms is too large"):
            tiny_matrix(arrival_window_ms=10 ** 310).cells()
        # one that divides into a mean past MAX_MS is rejected with the cell
        with pytest.raises(ConfigError, match=f"arrival_mean_ms must be at most {MAX_MS}"):
            tiny_matrix(arrival_window_ms=10 ** 300).cells()
        assert tiny_matrix(arrival_window_ms=MAX_MS).cells()

    def test_a_negative_window_is_a_config_error(self):
        with pytest.raises(ConfigError, match="arrival_window_ms must be >= 0"):
            tiny_matrix(arrival_window_ms=-100).cells()
        # a zero window submits every transaction at the smallest mean
        assert {c.arrival_mean for c in tiny_matrix(arrival_window_ms=0).cells()} == {1}

    def test_a_window_with_a_base_arrival_mean_is_a_config_error(self):
        # the window would silently override the base mean in every cell
        mx = tiny_matrix(arrival_window_ms=2000)
        mx.base = replace(mx.base, arrival_mean_ms=7)
        with pytest.raises(ConfigError, match="arrival_mean_ms and arrival_window_ms"):
            mx.cells()

    def test_arrival_window_scales_contention(self):
        mx = tiny_matrix(protocols=["opcot"], n_txns_list=[10, 20], seeds=[1],
                         arrival_window_ms=2000)
        cells = {(c.n_txns): c for c in mx.cells()}
        assert cells[10].arrival_mean == 200
        assert cells[20].arrival_mean == 100

    def test_gnuplot_blocks(self):
        # one block per (protocol, items), one line per txn count holding the
        # means over the two seeds of aborted and mean_wait_ms
        rows = run_matrix(tiny_matrix(n_txns_list=[12, 20]))
        blocks = rows_to_gnuplot(rows).split("\n\n")
        assert len(blocks) == 3
        for block, protocol in zip(blocks, sorted(["opcot", "occ", "s2pl"])):
            lines = block.rstrip("\n").split("\n")
            assert lines[:2] == [f"# protocol={protocol} items=8",
                                 "# n_txns mean_aborted mean_wait_ms"]
            for line, n_txns in zip(lines[2:], [12, 20], strict=True):
                a, b = (r for r in rows if r.protocol == protocol and r.n_txns == n_txns)
                assert a.seed != b.seed
                aborted = (a.aborted + b.aborted) / 2
                wait = (a.mean_wait_ms + b.mean_wait_ms) / 2
                assert line == f"{n_txns} {aborted:.3f} {wait:.3f}"


# disconnects, retries and real contention: every protocol aborts here, and
# s2pl picks deadlock victims
CONTENDED = SimConfig(n_items=6, n_txns=40, mean_len=4, sd_len=1, disconnect_prob=0.3,
                      reconnect_delay_ms=(20, 60), uplink_latency_ms=(2, 10),
                      downlink_latency_ms=(2, 10), arrival_mean_ms=15, retries=2)


class TestOracleGate:
    def test_violating_history_fails_loudly(self, tmp_path, monkeypatch):
        # verify_run itself: a hand-built commit-order violation, acyclic
        # but rejected under every protocol
        h = History()
        h.record_op(1, write(0), 10)
        h.record_op(2, read(0), 15)
        h.record_terminal(2, Outcome.COMMITTED, 18)
        h.record_terminal(1, Outcome.COMMITTED, 25)
        assert "commitment ordering" in verify_run(h, "occ")
        assert "commitment ordering" in verify_run(h, "opcot")

        # a cyclic history fails every protocol
        cyc = History()
        cyc.record_op(1, read(0), 5)
        cyc.record_op(2, read(0), 6)
        cyc.record_op(1, write(0), 20)
        cyc.record_op(2, write(0), 21)
        cyc.record_terminal(1, Outcome.COMMITTED, 30)
        cyc.record_terminal(2, Outcome.COMMITTED, 31)
        assert "cycle" in verify_run(cyc, "s2pl")

    @pytest.mark.parametrize("outcome", list(Outcome))
    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    def test_an_operation_after_its_own_terminal_fails(self, protocol, outcome):
        # serializable and commit-ordered, which the replay alone catches
        h = History()
        h.record_op(1, read(5), 10)
        h.record_terminal(1, outcome, 5)
        assert verify_run(h, protocol) == ("operation after its own terminal: txn 1 has R on "
                                           "item 5 at 10, after its terminal at 5")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("protocol", ["occ", "s2pl"])
    def test_baseline_runs_pass_the_whole_gate(self, protocol, seed):
        # the gate includes the commit-order check for these protocols too
        cfg = replace(CONTENDED, protocol=protocol, seed=seed)
        result = run_simulation(cfg)
        assert result.aborted > 0
        assert sum(t.attempts for t in result.timings) > cfg.n_txns  # retried
        assert verify_run(result.history, protocol) is None

    @pytest.mark.parametrize("make, seed", [(tangled_history, 21), (tangled_history, 22),
                                            (random_history, 23), (random_history, 24)])
    def test_gate_reports_what_the_two_check_gate_reports(self, make, seed):
        rng = DetRng(seed)
        seen = dict(clean=0, cycle=0, commit_order=0)
        for _ in range(500):
            h = make(rng)
            got = verify_run(h, "opcot")
            assert_same_report(h, got)
            seen["clean" if got is None else "cycle" if "cycle" in got else "commit_order"] += 1
        assert min(seen.values()) >= 20, seen  # every branch of the gate is exercised

    def test_clean_runs_build_no_skeleton(self, monkeypatch):
        import ccarena.harness as harness

        def no_skeleton(history):
            raise AssertionError("a passing commit-order scan needs no skeleton")

        monkeypatch.setattr(harness, "conflict_skeleton", no_skeleton)
        result = run_simulation(SimConfig(n_txns=60, n_items=20, mean_len=5, sd_len=2))
        assert verify_run(result.history, "opcot") is None

    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    def test_the_gate_checks_commit_order_once(self, monkeypatch, protocol):
        # on a clean run and on a failing history alike
        import ccarena.harness as harness
        checks = []

        def counted_check(history):
            checks.append(history)
            return check_commitment_ordering(history)

        monkeypatch.setattr(harness, "check_commitment_ordering", counted_check)
        result = run_simulation(replace(CONTENDED, protocol=protocol))
        assert result.aborted > 0
        assert verify_run(result.history, protocol) is None
        assert checks == [result.history]
        failing = History()
        failing.record_op(1, write(0), 10)
        failing.record_op(2, read(0), 15)
        failing.record_terminal(2, Outcome.COMMITTED, 18)
        failing.record_terminal(1, Outcome.COMMITTED, 25)
        checks.clear()
        assert verify_run(failing, protocol) == "commitment ordering violated: (1, 2, 0, (10, 15))"
        assert checks == [failing]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    def test_committed_terminals_strictly_increase(self, protocol, seed):
        # the gate's replay decides in one pass only on such histories; s2pl's
        # deadlock victims are recorded at the current instant, which may lie
        # below an earlier commit, so only committed terminals are in order
        result = run_simulation(replace(CONTENDED, protocol=protocol, seed=seed))
        assert sum(t.attempts for t in result.timings) > result.config.n_txns  # retried
        commits = [ev.instant for ev in result.history.events
                   if getattr(ev, "outcome", None) is Outcome.COMMITTED]
        assert len(commits) == result.committed
        assert all(a < b for a, b in zip(commits, commits[1:]))

    def test_the_gate_matches_the_two_check_gate_when_commits_do_not_increase(self):
        # commits out of order are replayed in commit order
        rng = DetRng(2201)
        seen = dict(clean=0, cycle=0, commit_order=0)
        for _ in range(400):
            h = tangled_history(rng)
            if commits_increase(h):
                continue
            got = verify_run(h, "opcot")
            assert_same_report(h, got)
            seen["clean" if got is None else "cycle" if "cycle" in got else "commit_order"] += 1
        assert min(seen.values()) >= 20, seen

    def test_matrix_aborts_and_dumps_on_violation(self, tmp_path, monkeypatch):
        import ccarena.harness as harness
        monkeypatch.chdir(tmp_path)

        def broken_verify(history, protocol):
            return "injected failure"

        monkeypatch.setattr(harness, "verify_run", broken_verify)
        with pytest.raises(OracleViolation) as exc:
            run_matrix(tiny_matrix(protocols=["opcot"], seeds=[1]))
        dumped = re.fullmatch(r".*\(history dumped to (\S+)\)", str(exc.value)).group(1)
        assert (tmp_path / dumped).exists()


class TestMatrixConfigFile:
    def test_parse_matrix_file(self, tmp_path):
        path = tmp_path / "matrix.cfg"
        path.write_text(
            "protocols = opcot, s2pl\n"
            "txns = 10, 20\n"
            "items = 8\n"
            "seeds = 1:3\n"
            "arrival_window_ms = 4000\n"
            "mean_len = 4\n"
            "sd_len = 1\n",
            encoding="utf-8")
        mx = MatrixConfig.from_file(str(path))
        assert mx.protocols == ["opcot", "s2pl"]
        assert mx.n_txns_list == [10, 20]
        assert mx.seeds == [1, 2, 3]
        assert mx.arrival_window_ms == 4000
        assert mx.base.mean_len == 4
        assert len(mx.cells()) == 2 * 2 * 1 * 3

    def test_list_elements_use_their_field_syntax(self):
        mx = MatrixConfig.from_mapping({"protocols": "OCC, S2pl", "txns": " 7 ,9",
                                        "items": "3", "seeds": "4, 2"})
        assert mx.protocols == ["occ", "s2pl"]
        assert (mx.n_txns_list, mx.n_items_list, mx.seeds) == ([7, 9], [3], [4, 2])

    @pytest.mark.parametrize("key, raw, message", [
        ("txns", "10, x", "bad value for txns"),
        ("items", "", "bad value for items"),
        ("seeds", "1:x", "bad value for seeds"),
        ("arrival_window_ms", "soon", "bad value for arrival_window_ms"),
        ("txns", "5, 0", "n_txns must be >= 1"),
        ("items", "-3", "n_items must be >= 1"),
        ("seeds", "5:1", "seeds = 5:1 lists no values"),
        ("seeds", "0:100000", "seeds = 0:100000 spans more than 100000 seeds"),
        # a repeated value would run its cells again; values compare as parsed
        ("protocols", "occ, OCC", "protocols = occ, OCC lists occ more than once"),
        ("seeds", "1, 1", "seeds = 1, 1 lists 1 more than once"),
        ("txns", "5, 7, 05", "txns = 5, 7, 05 lists 5 more than once"),
        # an axis sets its field in every cell; the error names the list key
        ("protocol", "occ", "protocol is a matrix axis; set protocols = occ"),
        ("n_txns", "7", "n_txns is a matrix axis; set txns = 7"),
        ("n_items", "3", "n_items is a matrix axis; set items = 3"),
        ("seed", "9", "seed is a matrix axis; set seeds = 9"),
    ])
    def test_bad_list_values_name_their_key(self, key, raw, message):
        with pytest.raises(ConfigError, match=message):
            MatrixConfig.from_mapping({key: raw})

    def test_a_seed_range_may_span_max_seed_range_seeds(self, monkeypatch):
        import ccarena.harness as harness
        monkeypatch.setattr(harness, "MAX_SEED_RANGE", 3)
        assert MatrixConfig.from_mapping({"seeds": "-1:1"}).seeds == [-1, 0, 1]
        with pytest.raises(ConfigError, match="seeds = -1:2 spans more than 3 seeds"):
            MatrixConfig.from_mapping({"seeds": "-1:2"})

    def test_a_seed_range_checks_only_its_ends(self, monkeypatch):
        built = []
        post_init = SimConfig.__post_init__

        def counting(cfg):
            built.append(cfg.seed)
            post_init(cfg)

        monkeypatch.setattr(SimConfig, "__post_init__", counting)
        mx = MatrixConfig.from_mapping({"seeds": "1:1000"})
        assert mx.seeds == list(range(1, 1001))
        assert sorted(set(built)) == [1, 1000]
        assert len(built) <= 3   # the base, then the two ends

    def test_unknown_protocol_rejected(self, tmp_path):
        path = tmp_path / "matrix.cfg"
        path.write_text("protocols = opcot, mvto\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            MatrixConfig.from_file(str(path))
