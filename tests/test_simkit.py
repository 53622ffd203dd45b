import hashlib
import inspect
import math
import statistics
import sys
from dataclasses import FrozenInstanceError, fields, replace
from heapq import heappop, heappush
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_opcot import stamps_of

import ccarena.simkit as simkit
from ccarena import core
from ccarena.baselines import Granted, LockMode, LockTable, Queued
from ccarena.core import ConfigError, OpEvent, OpKind, Outcome
from ccarena.harness import compute_waiting_time, verify_run
from ccarena.opcot import OperatorLog, client_record_op, commit_transaction
from ccarena.oracle import (brute_force_serializable, check_commitment_ordering,
                            conflict_skeleton, is_acyclic)
from ccarena.rng import _LCG_A, _LCG_C, DetRng
from ccarena.simkit import (
    MAX_MS,
    MAX_TXN_LEN,
    PROTOCOLS,
    SimConfig,
    _Sim,
    gen_workload,
    parse_kv_text,
    run_simulation,
)


def quiet_cfg(**kw):
    """Small, zero-noise baseline the tests perturb."""
    base = dict(protocol="opcot", n_items=10, n_txns=20,
                mean_len=5, sd_len=1, op_service_ms=10,
                uplink_latency_ms=(0, 0), downlink_latency_ms=(0, 0),
                disconnect_prob=0.0, reconnect_delay_ms=(0, 0), seed=7)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            SimConfig(n_items=0)
        with pytest.raises(ConfigError):
            SimConfig(mean_len=1)
        with pytest.raises(ConfigError):
            SimConfig(read_fraction=1.5)
        with pytest.raises(ConfigError):
            SimConfig(protocol="mvcc")
        with pytest.raises(ConfigError):
            SimConfig(uplink_latency_ms=(5, 2))

    def test_replace_is_checked_too(self):
        with pytest.raises(ConfigError, match="n_items must be >= 1"):
            replace(SimConfig(), n_items=0)

    def test_a_config_cannot_be_changed_after_its_checks(self):
        cfg = SimConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.n_items = 0
        assert cfg.n_items == 100

    @pytest.mark.parametrize("key", ["mean_len", "sd_len"])
    @pytest.mark.parametrize("raw, message", [
        pytest.param(raw, "must be >= .* and finite", id=raw) for raw in ("nan", "inf", "-inf")
    ] + [
        # finite but so large that generating the workload would never end
        pytest.param("1e308", f"must be at most {MAX_TXN_LEN}", id="1e308"),
    ])
    def test_non_finite_lengths_rejected(self, key, raw, message):
        with pytest.raises(ConfigError, match=f"{key} {message}"):
            SimConfig.from_mapping({key: raw})

    @pytest.mark.parametrize("key, raw", [
        ("op_service_ms", "{}"), ("arrival_mean_ms", "{}"), ("uplink_latency_ms", "0, {}"),
        ("downlink_latency_ms", "0, {}"), ("reconnect_delay_ms", "0, {}"),
    ])
    def test_millisecond_values_are_bounded(self, key, raw):
        # past 2**53 a float draw no longer reproduces the integer, and far
        # past it the conversion overflows
        SimConfig.from_mapping({key: raw.format(MAX_MS)})
        with pytest.raises(ConfigError, match=f"{key} must be at most {MAX_MS}"):
            SimConfig.from_mapping({key: raw.format(MAX_MS + 1)})

    def test_every_field_parses_its_own_default(self):
        # the parser comes from the field's annotation, so every field has one
        for f in fields(SimConfig):
            if f.default is None:
                continue
            raw = ", ".join(map(str, f.default)) if isinstance(f.default, tuple) \
                else str(f.default)
            assert SimConfig.from_mapping({f.name: raw}) == SimConfig()

    def test_arrival_default_tracks_service_time(self):
        assert SimConfig(op_service_ms=10).arrival_mean == 100
        assert SimConfig(op_service_ms=10, arrival_mean_ms=7).arrival_mean == 7

    def test_from_mapping_round_trip(self):
        cfg = SimConfig.from_mapping({
            "protocol": "S2PL", "n_items": "1000", "mean_len": "5.0",
            "uplink_latency_ms": "5, 15", "seed": "99",
        })
        assert cfg.protocol == "s2pl"
        assert cfg.n_items == 1000
        assert cfg.uplink_latency_ms == (5, 15)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig.from_mapping({"n_item": "10"})

    def test_kv_parser(self):
        mapping = parse_kv_text("a = 1\n# comment\nb=2  # trailing\n\n")
        assert mapping == {"a": "1", "b": "2"}
        with pytest.raises(ConfigError):
            parse_kv_text("not a pair\n")
        with pytest.raises(ConfigError, match="line 3: n_txns is already set on line 1"):
            parse_kv_text("n_txns = 5\nseed = 2\n n_txns=7  # again\n")


def reference_gen_workload(cfg, rng):
    """The workload generator with one DetRng call per draw and one
    (kind, item) key per operator, kept as the reference the inline one must
    equal."""
    workload = []
    shared = {}
    reads = []
    for _ in range(cfg.n_txns):
        n_ops = max(2, math.floor(rng.normal(cfg.mean_len, cfg.sd_len)))
        for k in range(len(reads), n_ops):
            reads.append(math.floor((k + 1) * cfg.read_fraction) > math.floor(k * cfg.read_fraction))
        ops = []
        for is_read in reads[:n_ops]:
            item = rng.randrange(cfg.n_items)
            op = shared.get((is_read, item))
            if op is None:
                op = shared[is_read, item] = core.read(item) if is_read else core.write(item)
            ops.append(op)
        workload.append(ops)
    return workload


def sharing(workload):
    """Each operator's position in first-seen order of the distinct objects:
    equal lists mean the same objects are shared in the same places."""
    first = {}
    return [[first.setdefault(id(op), len(first)) for op in ops] for ops in workload]


class TestWorkload:
    @pytest.mark.parametrize("n_items", [1, 3, 10, 10**12])
    @pytest.mark.parametrize("read_fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mean_len, sd_len", [(2, 0), (2, 3), (9, 6)])
    def test_equals_the_reference(self, n_items, read_fraction, mean_len, sd_len):
        cfg = quiet_cfg(n_txns=300, n_items=n_items, read_fraction=read_fraction,
                        mean_len=mean_len, sd_len=sd_len)
        rng, ref_rng = DetRng(2203).spawn(1), DetRng(2203).spawn(1)
        got, want = gen_workload(cfg, rng), reference_gen_workload(cfg, ref_rng)
        assert got == want
        assert [[type(op) for op in ops] for ops in got] == \
            [[type(op) for op in ops] for ops in want]
        assert sharing(got) == sharing(want)
        assert rng._state == ref_rng._state  # the same draws, no more

    def test_a_zero_first_uniform_is_clamped(self):
        # the state one step before an all-zero draw: the length's first
        # uniform is 0, which Box-Muller clamps to 2**-53 before its log
        state = (-_LCG_C) * pow(_LCG_A, -1, 2**64) % 2**64
        cfg = quiet_cfg(n_txns=5, mean_len=9, sd_len=3)
        rng, ref_rng = DetRng(0), DetRng(0)
        rng._state = ref_rng._state = state
        assert gen_workload(cfg, rng) == reference_gen_workload(cfg, ref_rng)
        assert rng._state == ref_rng._state
        probe = DetRng(0)
        probe._state = state
        assert probe.random() == 0.0

    def test_deterministic_for_a_seed(self):
        cfg = quiet_cfg(seed=7)
        a = gen_workload(cfg, DetRng(cfg.seed).spawn(1))
        b = gen_workload(cfg, DetRng(cfg.seed).spawn(1))
        assert a == b

    def test_length_distribution_mean(self):
        cfg = quiet_cfg(n_txns=10_000, mean_len=50, sd_len=10, n_items=1000)
        workload = gen_workload(cfg, DetRng(123).spawn(1))
        mean = statistics.fmean(len(ops) for ops in workload)
        assert 49 <= mean <= 51

    def test_degenerate_key_space(self):
        cfg = quiet_cfg(n_items=1)
        for ops in gen_workload(cfg, DetRng(5).spawn(1)):
            assert all(op.item_id == 0 for op in ops)

    def test_equal_mix_at_default_fraction(self):
        cfg = quiet_cfg(n_txns=200, mean_len=9, sd_len=3)
        for ops in gen_workload(cfg, DetRng(11).spawn(1)):
            reads = sum(1 for op in ops if op.kind is OpKind.READ)
            writes = len(ops) - reads
            assert abs(reads - writes) <= 1

    def test_equal_operators_are_one_object_per_call(self):
        cfg = quiet_cfg(n_txns=300, mean_len=8, sd_len=4, n_items=5)
        first, again = (gen_workload(cfg, DetRng(3).spawn(1)) for _ in range(2))
        seen = {}
        for ops in first:
            for op in ops:
                assert seen.setdefault((op.kind, op.item_id), op) is op
        assert len(seen) == 10  # every (kind, item) pair occurs
        assert all(op is not seen[op.kind, op.item_id]  # not a module-level cache
                   for ops in again for op in ops)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 2 / 3, 1.0])
    def test_read_positions_follow_the_fraction(self, fraction):
        cfg = quiet_cfg(n_txns=200, mean_len=9, sd_len=6, read_fraction=fraction)
        for ops in gen_workload(cfg, DetRng(4).spawn(1)):
            for k, op in enumerate(ops):
                is_read = math.floor((k + 1) * fraction) > math.floor(k * fraction)
                assert (op.kind is OpKind.READ) is is_read

    def test_shape_and_min_length(self):
        cfg = quiet_cfg(n_txns=500, mean_len=2, sd_len=3)
        for ops in gen_workload(cfg, DetRng(2).spawn(1)):
            assert len(ops) >= 2


class TestDeterminism:
    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    def test_bit_identical_history(self, protocol):
        cfg = quiet_cfg(protocol=protocol, disconnect_prob=0.2,
                        uplink_latency_ms=(5, 20), downlink_latency_ms=(5, 20),
                        reconnect_delay_ms=(50, 100), n_txns=40, seed=99)
        r1 = run_simulation(cfg)
        r2 = run_simulation(cfg)
        assert r1.history.to_text() == r2.history.to_text()
        assert r1.timings == r2.timings

    def test_different_seeds_differ(self):
        a = run_simulation(quiet_cfg(seed=1)).history.to_text()
        b = run_simulation(quiet_cfg(seed=2)).history.to_text()
        assert a != b


class TestTimings:
    def test_opcot_zero_noise_has_zero_waiting(self):
        cfg = quiet_cfg(n_txns=1, arrival_mean_ms=0)
        result = run_simulation(cfg)
        assert result.committed == 1
        assert compute_waiting_time(result.timings[0]) == 0

    def test_second_writer_blocks_behind_first_under_s2pl(self):
        # two single-write transactions on one item, submitted together with
        # zero latencies: the second writer waits out the first's lock hold
        cfg = quiet_cfg(protocol="s2pl", n_items=1, n_txns=2,
                        mean_len=2, sd_len=0, read_fraction=0.0,
                        arrival_mean_ms=0)
        result = run_simulation(cfg)
        assert result.committed == 2
        waits = sorted(compute_waiting_time(t) for t in result.timings)
        first_hold = result.timings[0].service_ms  # locks held for the service span
        assert waits[0] == 0
        assert waits[1] >= first_hold

    def test_conservation(self):
        for protocol in ("opcot", "occ", "s2pl"):
            cfg = quiet_cfg(protocol=protocol, n_txns=30, disconnect_prob=0.3,
                            reconnect_delay_ms=(10, 50))
            result = run_simulation(cfg)
            assert result.committed + result.aborted == cfg.n_txns
            assert all(t.outcome is not None for t in result.timings)


class TestMessageEconomy:
    @pytest.mark.parametrize("retries", [0, 2])
    @pytest.mark.parametrize("protocol", ["opcot", "occ"])
    def test_exactly_two_messages_per_attempt(self, protocol, retries):
        # disconnects only delay the commit exchange; they never add messages
        cfg = quiet_cfg(protocol=protocol, retries=retries, disconnect_prob=0.4,
                        reconnect_delay_ms=(10, 30), uplink_latency_ms=(1, 5),
                        downlink_latency_ms=(1, 5), n_txns=50)
        result = run_simulation(cfg)
        assert any(t.attempts > 1 for t in result.timings) == (retries > 0)
        assert all(t.messages == 2 * t.attempts for t in result.timings)

    def test_s2pl_two_messages_per_op_plus_commit(self):
        cfg = quiet_cfg(protocol="s2pl", n_txns=30, n_items=40)
        result = run_simulation(cfg)
        workload = gen_workload(cfg, DetRng(cfg.seed).spawn(1))
        committed = [t for t in result.timings if t.outcome is Outcome.COMMITTED]
        assert committed
        for t in committed:
            n_ops = len(workload[t.txn_id])
            assert t.messages >= 2 * n_ops
            if t.attempts == 1:
                assert t.messages == 2 * n_ops + 2



class TestLockSafetyDuringSimulation:
    def test_no_conflicting_grants_at_any_event(self, monkeypatch):
        # a lock table that audits itself after every mutation, injected into
        # a contended locking run
        from test_baselines import assert_lock_safety, rebuilt_waiting

        class AuditedTable(LockTable):
            def acquire(self, txn_id, item_id, mode):
                res = super().acquire(txn_id, item_id, mode)
                assert_lock_safety(self)
                assert self._waiting == rebuilt_waiting(self)
                return res

            def release_all(self, txn_id):
                granted = super().release_all(txn_id)
                assert_lock_safety(self)
                assert self._waiting == rebuilt_waiting(self)
                return granted

        monkeypatch.setattr(simkit, "LockTable", AuditedTable)
        cfg = quiet_cfg(protocol="s2pl", n_items=5, n_txns=80, mean_len=4,
                        uplink_latency_ms=(2, 10), downlink_latency_ms=(2, 10),
                        arrival_mean_ms=20, seed=9)
        result = run_simulation(cfg)
        assert result.aborted > 0  # deadlocks actually happened under audit


class TestHistoriesPassOracles:
    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    def test_serializable_at_moderate_contention(self, protocol):
        cfg = quiet_cfg(protocol=protocol, n_items=5, n_txns=60, mean_len=4,
                        sd_len=1, disconnect_prob=0.2,
                        reconnect_delay_ms=(20, 60), uplink_latency_ms=(2, 10),
                        downlink_latency_ms=(2, 10), arrival_mean_ms=15, seed=3)
        result = run_simulation(cfg)
        assert result.aborted > 0  # contention is real
        assert is_acyclic(conflict_skeleton(result.history))
        assert check_commitment_ordering(result.history).ok

    @pytest.mark.parametrize("protocol", ["occ", "s2pl", "opcot"])
    def test_retries_produce_unique_attempt_ids(self, protocol):
        cfg = quiet_cfg(protocol=protocol, n_items=3, n_txns=30, retries=3,
                        arrival_mean_ms=10, seed=17)
        result = run_simulation(cfg)
        attempts = sum(t.attempts for t in result.timings)
        assert attempts > cfg.n_txns  # retries actually happened
        terminals = [e for e in result.history.events if not hasattr(e, "op")]
        assert len(terminals) == attempts
        assert len({e.txn_id for e in terminals}) == attempts
        assert result.committed + result.aborted == cfg.n_txns
        assert is_acyclic(conflict_skeleton(result.history))
        assert check_commitment_ordering(result.history).ok


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_NOISY = dict(n_items=4, n_txns=40, mean_len=4, retries=2, disconnect_prob=0.3,
              reconnect_delay_ms=(10, 40), uplink_latency_ms=(1, 8),
              downlink_latency_ms=(1, 8), arrival_mean_ms=10, seed=2)
_GOLDEN_SHAPES = {
    "disconnects": _NOISY,
    # zero latencies put many events on the same instant, so tie order counts
    "zero_latency": dict(n_items=3, n_txns=40, mean_len=3, retries=2,
                         disconnect_prob=0.1, arrival_mean_ms=5, seed=2),
}

# sha256 prefixes of (history.to_text(), repr(timings)) per (shape, protocol).
# Every s2pl shape breaks deadlocks with both self- and parked victims
# (test_s2pl_shapes_break_deadlocks_both_ways checks it). Any change to event
# order, tie breaking, message or service accounting shows.
_GOLDEN = {
    ("disconnects", "opcot"): ("79898b733e5375f9", "78a0e51a8a1ac96c"),
    ("disconnects", "occ"): ("3eebbb9d2bef7820", "eaf566c84d365717"),
    ("disconnects", "s2pl"): ("54c9cfb76b42f087", "8612aed546984d9f"),
    ("zero_latency", "opcot"): ("334472d5af73fe01", "12c01eb9dc99c49e"),
    ("zero_latency", "occ"): ("39d6ffe18c7c8575", "e4f44a7eac77a36f"),
    ("zero_latency", "s2pl"): ("617526f6de517266", "76cbfce7b7aa1148"),
}


class TestGoldenRuns:
    @pytest.mark.parametrize("shape,protocol", sorted(_GOLDEN))
    def test_history_and_timings_digests(self, shape, protocol):
        result = run_simulation(quiet_cfg(protocol=protocol, **_GOLDEN_SHAPES[shape]))
        got = (_digest(result.history.to_text()), _digest(repr(result.timings)))
        assert got == _GOLDEN[shape, protocol]

    @pytest.mark.parametrize("shape", sorted({s for s, p in _GOLDEN if p == "s2pl"}))
    def test_s2pl_shapes_break_deadlocks_both_ways(self, shape, monkeypatch):
        # an aborted attempt that is parked when it is ended is a victim, and
        # its own end wakes it; one that is not parked was the requester itself
        victims = {"parked": 0, "self": 0}
        s2pl_end = simkit._Sim.s2pl_end

        def counting_end(sim, aid, outcome, instant):
            if outcome is Outcome.ABORTED:
                victims["parked" if aid in sim.parked else "self"] += 1
            s2pl_end(sim, aid, outcome, instant)
            assert aid not in sim.parked

        monkeypatch.setattr(simkit._Sim, "s2pl_end", counting_end)
        run_simulation(quiet_cfg(protocol="s2pl", **_GOLDEN_SHAPES[shape]))
        assert victims["parked"] > 0 and victims["self"] > 0


def _run_keeping_sim(cfg, monkeypatch, sim_class=_Sim):
    """Run cfg on a sim_class and return the result with the sim it ran on,
    as the event loop left it."""
    sims = []

    class Kept(sim_class):
        def __init__(self, cfg):
            super().__init__(cfg)
            sims.append(self)

    with monkeypatch.context() as m:
        m.setattr(simkit, "_Sim", Kept)
        result = run_simulation(cfg)
    (sim,) = sims
    return result, sim


class TestEventCountBoundary:
    @pytest.mark.parametrize("shape,protocol", sorted(_GOLDEN))
    def test_every_pushed_event_is_popped_through_pop(self, shape, protocol, monkeypatch):
        # the benchmark counts queued events by wrapping EventQueue.pop on the
        # class, so the event loop must pop each queued event through it,
        # once; a direct resume takes no seq and no pop
        pops = 0
        pop = simkit.EventQueue.pop

        def counted(queue):
            nonlocal pops
            pops += 1
            return pop(queue)

        states = []  # of each process pushed onto the heap, when pushed
        heappush = simkit.heappush

        def watched_push(heap, entry):
            states.append(inspect.getgeneratorstate(entry[2]))
            heappush(heap, entry)

        monkeypatch.setattr(simkit.EventQueue, "pop", counted)
        monkeypatch.setattr(simkit, "heappush", watched_push)
        _, sim = _run_keeping_sim(quiet_cfg(protocol=protocol, **_GOLDEN_SHAPES[shape]),
                                  monkeypatch)
        assert pops == next(sim._seq) > 0
        assert sim._heap == [] and not sim._arrivals
        # arrivals wait in their own list, so the heap holds only processes
        # already started and is bounded by those in flight, not by n_txns
        assert states and inspect.GEN_CREATED not in states


class _ReferenceSim(_Sim):
    """The event loop that queues every arrival up front and every resume:
    one heap over all events, each popped in (instant, seq) order."""

    def arrive(self, instant, gen):
        self.push(instant, gen)

    def run_loop(self):
        heap = self._heap
        while heap:
            instant, _, gen = heappop(heap)
            assert instant >= self.now
            self.now = instant
            try:
                cmd = next(gen)
            except StopIteration:
                continue
            if isinstance(cmd, tuple):
                self.parked[cmd[1]] = gen
                continue
            self.push(self.now + cmd, gen)


def _run_on(sim_class, cfg, monkeypatch):
    """Run cfg on sim_class: (history text, repr of timings, events queued)."""
    result, sim = _run_keeping_sim(cfg, monkeypatch, sim_class)
    return result.history.to_text(), repr(result.timings), next(sim._seq)


_LOOP_SHAPES = {
    **_GOLDEN_SHAPES,
    # zero service time and zero latencies: nearly every event shares its
    # instant with others, so only the tie order decides
    "tie_storm": dict(n_txns=30, mean_len=3, op_service_ms=0, arrival_mean_ms=2, seed=5),
    # one-value latency ranges: each draw still steps the stream
    "fixed_latency": dict(n_txns=30, mean_len=4, uplink_latency_ms=(7, 7),
                          downlink_latency_ms=(3, 3), reconnect_delay_ms=(50, 50),
                          arrival_mean_ms=15, seed=6),
    # hi - lo + 1 = MAX_MS + 1 has no exact float, so a draw that multiplies
    # in another order than DetRng.uniform_ms rounds differently here
    "widest_reconnect": dict(n_txns=20, mean_len=4, uplink_latency_ms=(1, 8),
                             downlink_latency_ms=(1, 8), reconnect_delay_ms=(0, MAX_MS),
                             arrival_mean_ms=10, seed=8),
}


class TestLoopMatchesTheOneHeapLoop:
    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    @pytest.mark.parametrize("shape", sorted(_LOOP_SHAPES))
    def test_same_history_and_timings(self, shape, protocol, monkeypatch):
        fewer = []
        for disconnect_prob, retries, n_items in product((0.0, 1.0), range(4), range(1, 4)):
            cfg = quiet_cfg(**{**_LOOP_SHAPES[shape], "protocol": protocol, "retries": retries,
                               "disconnect_prob": disconnect_prob, "n_items": n_items})
            *want, ref_events = _run_on(_ReferenceSim, cfg, monkeypatch)
            *got, events = _run_on(_Sim, cfg, monkeypatch)
            assert got == want, cfg
            assert events <= ref_events
            fewer.append(events < ref_events)
        assert any(fewer)  # direct resumes fired


class _ReferenceOpcot:
    """The opcot policy that logs each operator as it runs, one
    client_record_op call per operator."""

    lock = None

    def __init__(self, sim, aid, offset):
        self.sim, self.offset = sim, offset
        self.log = OperatorLog(aid)
        self.prev = sim.now + offset
        self.record(core.BEGIN)

    def record(self, op):
        _, self.prev = client_record_op(self.log, op, self.sim.now + self.offset, self.prev)

    def commit(self, instant):
        sim = self.sim
        return commit_transaction(sim.registry, self.log, instant, sim.history).outcome


class _ReferenceOcc(simkit._Occ):
    """The occ policy that buffers its writes as each operator runs."""

    def __init__(self, sim, aid, offset):
        super().__init__(sim, aid, offset)
        self.writes = []

    def record(self, op):
        if op.kind is OpKind.READ:
            self.reads.add(op.item_id)
            self.sim.history.record_op(self.aid, op, self.sim.now)
        elif op.kind is OpKind.WRITE:
            self.writes.append(op)


class _ReferenceS2pl(simkit._S2pl):
    """The s2pl policy whose lock(op) is a generator that parks inside
    itself, with the per-operator record the reference loop calls."""

    def lock(self, op):
        """Acquire op's lock, parking while blocked, record op at the grant
        and return True. The one place deadlocks are broken: while a cycle
        runs through this request, abort its youngest member; return False
        when that is this attempt, now or while parked. A parked attempt is
        woken by a grant or by its own end as a victim; the victim's release
        dropped its request, so it does not hold the lock."""
        sim, table, aid = self.sim, self.sim.table, self.aid
        mode = LockMode.SHARED if op.kind is OpKind.READ else LockMode.EXCLUSIVE
        granted = isinstance(table.acquire(aid, op.item_id, mode), Granted)
        while not granted and (cycle := table.find_cycle(aid)):
            victim = table.youngest_of(cycle)
            sim.s2pl_end(victim, Outcome.ABORTED, sim.now)
            if victim == aid:
                return False
            granted = table.holds(aid, op.item_id, mode)  # the victim's release may grant it
        if not granted:
            yield ("park", aid)
            if not table.holds(aid, op.item_id, mode):
                return False
        sim.history.record_op(aid, op, sim.now)
        return True

    def record(self, op):
        pass  # lock() records each operator at its grant


_REFERENCE_POLICIES = {"opcot": _ReferenceOpcot, "occ": _ReferenceOcc, "s2pl": _ReferenceS2pl}


def reference_txn_process(sim, ops, run, state, offset):
    """The client loop drawing through DetRng methods, rolling for a
    disconnect before each operator and counting into `run` as it goes, with
    policies that take each operator's local effect as it runs; kept as the
    reference the inline one must equal."""
    rng = DetRng.__new__(DetRng)
    rng._state = state
    cfg = sim.cfg
    new_policy = _REFERENCE_POLICIES[cfg.protocol]
    random, uniform_ms = rng.random, rng.uniform_ms
    disconnect_prob, service_ms = cfg.disconnect_prob, cfg.op_service_ms
    uplink, downlink, reconnect = (cfg.uplink_latency_ms, cfg.downlink_latency_ms,
                                   cfg.reconnect_delay_ms)
    outcome = Outcome.ABORTED
    served = 0  # service time over every attempt
    for attempt in range(cfg.retries + 1):
        aid = run.txn_id if attempt == 0 else next(sim.attempt_ids)
        run.attempts += 1
        policy = new_policy(sim, aid, offset)
        record, lock = policy.record, policy.lock
        connected = True
        for op in ops:
            if random() < disconnect_prob:  # rolled even when offline
                connected = False
            if lock:
                if not connected:
                    yield uniform_ms(reconnect)
                    connected = True
                run.messages += 1
                yield uniform_ms(uplink)
                if not (yield from lock(op)):
                    outcome = Outcome.ABORTED  # the server recorded it and released the locks
                    break
                run.messages += 1
                yield uniform_ms(downlink)
            yield service_ms
            served += service_ms
            record(op)
        else:
            record(core.COMMIT)
            if not connected:
                yield uniform_ms(reconnect)
            run.messages += 1
            yield uniform_ms(uplink)
            outcome = policy.commit(sim.stamp(sim.now))
        run.messages += 1
        yield uniform_ms(downlink)
        if outcome is Outcome.COMMITTED:
            break
    run.outcome = outcome
    run.service_ms = served
    run.terminal_ms = sim.now


class TestClientLoopMatchesTheReference:
    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    @pytest.mark.parametrize("shape", sorted(_LOOP_SHAPES))
    def test_same_history_and_timings(self, shape, protocol, monkeypatch):
        # at 0 and 1 every roll compares the same way, so only 0.5 shows a
        # roll drawn out of place
        for disconnect_prob, retries in product((0.0, 0.5, 1.0), range(4)):
            cfg = quiet_cfg(**{**_LOOP_SHAPES[shape], "protocol": protocol, "retries": retries,
                               "disconnect_prob": disconnect_prob})
            got = run_simulation(cfg)
            with monkeypatch.context() as m:
                m.setattr(simkit, "_txn_process", reference_txn_process)
                want = run_simulation(cfg)
            assert got.history.to_text() == want.history.to_text(), cfg
            assert repr(got.timings) == repr(want.timings), cfg


def _stub_process(*delays):
    yield from delays


class TestClockGuard:
    @pytest.mark.parametrize("pending", [False, True], ids=["queue-empty", "queue-busy"])
    def test_a_negative_delay_is_caught(self, pending):
        # the delay of 5 resumes at once whether or not another arrival is
        # pending at 100; the delay of -1 would move the clock from 5 to 4
        sim = _Sim(quiet_cfg())
        sim.arrive(0, _stub_process(5, -1))
        if pending:
            sim.arrive(100, _stub_process(1))
        with pytest.raises(AssertionError, match="event clock moved backwards: 4 < 5"):
            sim.run_loop()

    def test_arrivals_come_in_instant_order(self):
        sim = _Sim(quiet_cfg())
        sim.arrive(5, _stub_process())
        sim.arrive(5, _stub_process())
        with pytest.raises(ValueError, match="arrival at 4 after one at 5"):
            sim.arrive(4, _stub_process())


def assert_no_attempt_left(sim):
    """Nothing is parked, and the lock table keeps nothing of any attempt."""
    table = sim.table
    assert sim.parked == {}
    assert table._begin == {}
    assert table._presence == {}
    assert table._waiting == {}
    assert all(not locks.granted and not locks.queue and not locks.successors
               for locks in table._items.values())


class TestServerStateAfterRun:
    @pytest.mark.parametrize("shape", sorted({s for s, p in _GOLDEN if p == "s2pl"}))
    def test_s2pl_forgets_every_ended_attempt(self, shape, monkeypatch):
        # every attempt has ended once the queue drains, committed, victim or
        # retried, so the lock table keeps nothing of any of them
        result, sim = _run_keeping_sim(
            quiet_cfg(protocol="s2pl", **_GOLDEN_SHAPES[shape]), monkeypatch)
        assert sum(t.attempts for t in result.timings) > result.config.n_txns
        assert_no_attempt_left(sim)

    @pytest.mark.parametrize("shape", sorted({s for s, p in _GOLDEN if p == "occ"}))
    def test_occ_book_holds_the_committed_commit_instants(self, shape, monkeypatch):
        result, sim = _run_keeping_sim(
            quiet_cfg(protocol="occ", **_GOLDEN_SHAPES[shape]), monkeypatch)
        commits = [e.instant for e in result.history.events
                   if getattr(e, "outcome", None) is Outcome.COMMITTED]
        assert sim.book.commit_instants == commits
        assert len(sim.book.commit_writes) == result.committed

    @pytest.mark.parametrize("shape", sorted({s for s, p in _GOLDEN if p == "opcot"}))
    def test_opcot_stamps_are_the_committed_maxima(self, shape, monkeypatch):
        # each item's stamps are the latest committed read and write instants
        # in the history, and 0 where no committed transaction did either
        result, sim = _run_keeping_sim(
            quiet_cfg(protocol="opcot", **_GOLDEN_SHAPES[shape]), monkeypatch)
        committed = result.history.committed()
        assert 0 < len(committed) < result.config.n_txns
        expected = {i: [0, 0] for i in range(result.config.n_items)}
        for ev in result.history.events:
            if isinstance(ev, OpEvent) and ev.txn_id in committed:
                slot = 0 if ev.op.kind is OpKind.READ else 1
                stamps = expected[ev.op.item_id]
                stamps[slot] = max(stamps[slot], ev.instant)
        assert stamps_of(sim.registry) == {i: tuple(s) for i, s in expected.items()}

    @pytest.mark.parametrize("n_items, aborts_alone", [
        (100, True), (10**6, False), (10**9, False)])
    def test_opcot_registry_holds_only_stamped_items(self, n_items, aborts_alone,
                                                     monkeypatch):
        # the registry holds only the items a commit stamped, so a huge item
        # count costs nothing beyond them, and an aborted attempt's validation
        # holds nothing
        cfg = quiet_cfg(n_items=n_items, n_txns=40, mean_len=8, arrival_mean_ms=2)
        result, sim = _run_keeping_sim(cfg, monkeypatch)
        committed = result.history.committed()
        stamped = {ev.op.item_id for ev in result.history.events
                   if isinstance(ev, OpEvent) and ev.txn_id in committed}
        touched = {ev.op.item_id for ev in result.history.events if isinstance(ev, OpEvent)}
        assert stamped and set(sim.registry.held) == stamped
        assert (touched > stamped) is aborts_alone  # items only aborted attempts named


class _TieOrderSim(_Sim):
    """Pops a seeded choice among the events at the smallest instant, not
    the one scheduled first. run_loop resumes a process at once only when
    its instant is strictly earlier than every pending one, so every tie
    comes here."""

    tie_seed = 0

    def __init__(self, cfg):
        super().__init__(cfg)
        self.tie_rng = DetRng(self.tie_seed)
        self.choices = 0  # pops that chose among two or more events
        self.parked_victims = 0

    def pop(self):
        heap, arrivals = self._heap, self._arrivals
        instant = min(queue[0][0] for queue in (heap, arrivals) if queue)
        tied = []
        while heap and heap[0][0] == instant:
            tied.append(heappop(heap))
        while arrivals and arrivals[0][0] == instant:
            tied.append(arrivals.popleft())
        self.choices += len(tied) > 1
        _, _, gen = tied.pop(self.tie_rng.randrange(len(tied)))
        for entry in tied:  # a tied arrival waits on the heap from now on
            heappush(heap, entry)
        assert instant >= self.now
        self.now = instant
        return gen

    def s2pl_end(self, aid, outcome, instant):
        self.parked_victims += aid in self.parked
        super().s2pl_end(aid, outcome, instant)


class TestAnyTieOrderRunsClean:
    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    def test_every_tie_order_passes_the_gate(self, protocol, monkeypatch):
        # zero latencies put most events on shared instants; whichever tied
        # event runs first, a woken s2pl attempt reads from the lock table
        # whether it was granted or picked as a victim
        choices = parked_victims = aborted = 0
        for n_items, retries, disconnect_prob, tie_seed in product(
                range(1, 4), range(3), (0.0, 0.5, 1.0), range(4)):
            cfg = quiet_cfg(protocol=protocol, n_items=n_items, n_txns=8, mean_len=3,
                            retries=retries, disconnect_prob=disconnect_prob,
                            arrival_mean_ms=5, seed=23)
            sim_class = type("TieOrderSim", (_TieOrderSim,), {"tie_seed": tie_seed})
            result, sim = _run_keeping_sim(cfg, monkeypatch, sim_class)
            assert verify_run(result.history, protocol) is None, (cfg, tie_seed)
            assert result.committed + result.aborted == cfg.n_txns
            assert_no_attempt_left(sim)
            choices += sim.choices
            parked_victims += sim.parked_victims
            aborted += result.aborted
        assert choices > 0 and aborted > 0
        assert (parked_victims > 0) is (protocol == "s2pl")


SMALL_DELAYS = st.sampled_from([(0, 0), (0, 3), (2, 5)])
THIRDS = st.sampled_from([0.0, 0.5, 1.0])


SMALL_CONFIGS = st.builds(
    SimConfig, protocol=st.sampled_from(PROTOCOLS), n_txns=st.integers(1, 6),
    n_items=st.integers(1, 3), mean_len=st.integers(2, 4), sd_len=st.integers(0, 2),
    read_fraction=THIRDS, op_service_ms=st.integers(0, 5), uplink_latency_ms=SMALL_DELAYS,
    downlink_latency_ms=SMALL_DELAYS, disconnect_prob=THIRDS, reconnect_delay_ms=SMALL_DELAYS,
    arrival_mean_ms=st.integers(0, 10), retries=st.integers(0, 3), seed=st.integers(1, 2**32))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cfg=SMALL_CONFIGS, tie_seed=st.integers(0, 2**16))
def test_any_small_config_runs_clean(cfg, tie_seed):
    # tie seed 0 runs the event loop as it is; any other seed pops a seeded
    # choice among the events at the smallest instant
    sim_class = (_Sim if tie_seed == 0 else
                 type("TieOrderSim", (_TieOrderSim,), {"tie_seed": tie_seed}))
    with pytest.MonkeyPatch.context() as mp:
        result, sim = _run_keeping_sim(cfg, mp, sim_class)
        again, _ = _run_keeping_sim(cfg, mp, sim_class)
    assert result.committed + result.aborted == cfg.n_txns
    assert verify_run(result.history, cfg.protocol) is None
    assert brute_force_serializable(result.history)
    if cfg.protocol != "s2pl":
        assert all(t.messages == 2 * t.attempts for t in result.timings)
    assert_no_attempt_left(sim)
    assert again.history.to_text() == result.history.to_text()
    assert repr(again.timings) == repr(result.timings)


class TestClientOffsets:
    @pytest.mark.parametrize("n_txns", [1, 5, 40, 60])
    def test_each_transaction_draws_one_offset(self, n_txns, monkeypatch):
        # every transaction runs on its own client clock, so the offsets
        # stream is drawn exactly once per transaction
        spawned = []
        spawn = DetRng.spawn

        def spy(self, salt):
            child = spawn(self, salt)
            if salt == 3:  # the offsets stream
                spawned.append((child, child._state))
            return child

        monkeypatch.setattr(DetRng, "spawn", spy)
        run_simulation(quiet_cfg(n_txns=n_txns))
        (stream, start), = spawned
        replay, draws = DetRng.__new__(DetRng), 0
        replay._state = start
        while replay._state != stream._state and draws <= n_txns:
            replay.next_u64()
            draws += 1
        assert draws == n_txns


class TestClockSkewInvariance:
    @pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
    def test_skew_never_changes_a_run(self, protocol, monkeypatch):
        # client clocks only ever yield relative timestamps, so how far they
        # sit from the server clock cannot matter
        cfg = quiet_cfg(protocol=protocol, **_NOISY)
        runs = []
        for skew in (0, 10**6, 10**9):
            monkeypatch.setattr(simkit, "_CLIENT_CLOCK_SKEW_MS", skew)
            result = run_simulation(cfg)
            runs.append((result.history.to_text(), result.timings))
        assert runs[0] == runs[1] == runs[2]


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the limit is measured on CPython 3.11, whose generator "
                           "objects hold their frame inline; other versions size it "
                           "differently")
@pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
def test_a_client_process_fits_the_small_object_allocator(protocol, monkeypatch):
    # every transaction's process exists from the start of a run; one past
    # the allocator's 512-byte limit gets a malloc block of its own, which
    # raised a 5,000-txn opcot run's peak RSS by 2.3 MB at 520 bytes
    sizes = []
    txn_process = simkit._txn_process

    def sized(*args):
        gen = txn_process(*args)  # unstarted, as run_simulation queues it
        sizes.append(sys.getsizeof(gen))
        return gen

    monkeypatch.setattr(simkit, "_txn_process", sized)
    run_simulation(quiet_cfg(protocol=protocol))
    assert len(sizes) == 20 and max(sizes) <= 512, sizes


@pytest.mark.parametrize("protocol", ["opcot", "occ", "s2pl"])
def test_a_client_process_holds_no_stream_object(protocol, monkeypatch):
    # the process steps its stream's state inline, so it is handed the bare
    # state: a DetRng per transaction would stay alive for the whole run
    frames = []
    txn_process = simkit._txn_process

    def kept(*args):
        gen = txn_process(*args)  # unstarted, as run_simulation queues it
        frames.append(dict(gen.gi_frame.f_locals))
        return gen

    monkeypatch.setattr(simkit, "_txn_process", kept)
    run_simulation(quiet_cfg(protocol=protocol))
    assert len(frames) == 20
    assert not any(isinstance(value, DetRng) for f in frames for value in f.values())
