"""Deterministic discrete-event simulation of mobile clients.

One logical millisecond clock drives everything. Transactions are generator
processes that sleep for service times and message latencies, park while
blocked on locks, and talk to the single simulated server at their commit
point.

Every protocol runs the same client loop: per operator a disconnect roll and
the service time, then one commit request and its reply, with retries as
fresh attempts. Protocols differ only on the server, in a small policy object
per attempt: opcot logs operators with relative timestamps, built at the
commit request, and validates the log at commit, occ buffers writes and
validates backwards, and s2pl adds a lock round-trip before each operator.
The server answers a lock request at once, with a grant, a deadlock abort
of the requester, or a wait; on a wait the client parks until a grant or its
own end as a victim wakes it. Without that round-trip an attempt runs its
operators offline, back to back.

Client mobility is abstracted into per-operation disconnect rolls plus a
reconnect delay that is paid only when a server exchange is actually needed.
Each transaction's client clock carries a large fixed offset from the server
clock; only relative operator timestamps ever cross the wire, so those offsets
are harmless by construction and the simulation exercises exactly that.

Events run in (instant, scheduling order) order. Each transaction's arrival
is scheduled up front, in txn order, and waits in a list; the heap holds only
the events of started processes. The clock moves when the queue pops an
event, or when a process's delay ends strictly before every pending event:
that process would be popped next anyway, so it resumes at once.

Everything is a pure function of SimConfig: workload, arrivals, latencies and
disconnects are drawn from named sub-streams of one seeded generator, and
per-transaction streams are pre-split so runtime interleaving cannot perturb
the draws.
"""

import math
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from itertools import count

from . import core
from .baselines import Granted, LockMode, LockTable, OccBook, occ_validate
from .core import ConfigError, History, Operation, OpKind, Outcome, SharedOps
from .opcot import (ItemRegistry, OperatorLog, client_record_op, client_record_ops,
                    commit_transaction)
from .rng import _LCG_A, _LCG_C, _MASK64, DetRng

PROTOCOLS = ("opcot", "occ", "s2pl")
# enum members bound once: looking one up on its class costs more than the test
_READ, _WRITE = OpKind.READ, OpKind.WRITE
_SHARED, _EXCLUSIVE = LockMode.SHARED, LockMode.EXCLUSIVE

_CLIENT_CLOCK_SKEW_MS = 1_000_000  # client clocks sit anywhere within +/- this
# upper bound on mean_len and sd_len; a larger one draws lengths no run can finish
MAX_TXN_LEN = 10_000
# upper bound on every millisecond value: the largest integer a float draw
# reproduces exactly. A run's instants sum many such values; the history
# holds them up to core.MAX_INSTANT and refuses a run that passes it.
MAX_MS = 2**53


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run, checked whenever one is built; see README."""

    protocol: str = "opcot"
    n_items: int = 100
    n_txns: int = 200
    mean_len: float = 50.0
    sd_len: float = 10.0
    read_fraction: float = 0.5
    op_service_ms: int = 10
    uplink_latency_ms: tuple[int, int] = (10, 30)
    downlink_latency_ms: tuple[int, int] = (10, 30)
    disconnect_prob: float = 0.05
    reconnect_delay_ms: tuple[int, int] = (100, 300)
    arrival_mean_ms: int | None = None  # None -> op_service_ms * 10
    retries: int = 0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        for name, low in (("n_items", 1), ("n_txns", 1), ("mean_len", 2), ("sd_len", 0),
                          ("op_service_ms", 0), ("retries", 0)):
            value = getattr(self, name)
            if not low <= value < math.inf:  # also false for nan
                raise ConfigError(f"{name} must be >= {low} and finite, got {value}")
        for name in ("mean_len", "sd_len"):
            value = getattr(self, name)
            if value > MAX_TXN_LEN:
                raise ConfigError(f"{name} must be at most {MAX_TXN_LEN}, got {value}")
        for name in ("read_fraction", "disconnect_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        for name in ("uplink_latency_ms", "downlink_latency_ms", "reconnect_delay_ms"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ConfigError(f"{name} must be 0 <= lo <= hi, got ({lo}, {hi})")
        if self.arrival_mean_ms is not None and self.arrival_mean_ms < 0:
            raise ConfigError("arrival_mean_ms must be >= 0")
        for name in ("op_service_ms", "uplink_latency_ms", "downlink_latency_ms",
                     "reconnect_delay_ms", "arrival_mean_ms"):
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = value[1]
            if value is not None and value > MAX_MS:
                raise ConfigError(f"{name} must be at most {MAX_MS}")

    @property
    def arrival_mean(self) -> int:
        return self.arrival_mean_ms if self.arrival_mean_ms is not None \
            else self.op_service_ms * 10

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "SimConfig":
        """Build a config from flat key=value text values; keys match fields."""
        kwargs = {}
        for key, raw in mapping.items():
            if key not in FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = parse_value(key, raw, FIELD_TYPES[key])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "SimConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_mapping(parse_kv_text(fh.read()))


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse flat `key = value` lines; '#' starts a comment. A key given
    twice is a ConfigError."""
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} is already set on line {first_line[key]}")
        first_line[key] = lineno
        mapping[key] = value
    return mapping


def _parse_range(raw: str) -> tuple[int, int]:
    lo, hi = (part.strip() for part in raw.split(","))
    return (int(lo), int(hi))


# One parser per SimConfig field annotation, so a new field of a known type
# needs no second edit. Text (the protocol name) is case-insensitive.
_PARSERS = {str: str.lower, int: int, int | None: int, float: float,
            tuple[int, int]: _parse_range}
FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def parse_value(key: str, raw: str, kind):
    """Parse config text as a value of `kind`, a SimConfig field annotation;
    a malformed value raises ConfigError naming `key`."""
    try:
        return _PARSERS[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


def gen_workload(cfg: SimConfig, rng: DetRng) -> list[list[Operation]]:
    """Draw n_txns operator lists, indexed by txn id, without Begin and Commit:
    lengths are floor(Normal(mean_len, sd_len)) clamped to >= 2, items
    uniform over the table, and read ops spread evenly through the list so
    the read/write counts match read_fraction as closely as the length
    allows. Each transaction draws its length, then one item per operator in
    operator order. Equal (kind, item) operators share one Operation.

    The stream is stepped inline, each draw the float expression of the
    matching DetRng method (rng.normal, then rng.randrange per operator), and
    left where those calls would leave it."""
    workload = []
    reads, writes = SharedOps(_READ), SharedOps(_WRITE)
    kinds: list[SharedOps] = []  # the kind at position k; a function of k alone
    a, c, mask = _LCG_A, _LCG_C, _MASK64
    mean, sd, n_items, fraction = cfg.mean_len, cfg.sd_len, cfg.n_items, cfg.read_fraction
    floor, log, sqrt, cos = math.floor, math.log, math.sqrt, math.cos
    state = rng._state
    for _ in range(cfg.n_txns):
        state = (state * a + c) & mask
        u1 = (state >> 11) * 2.0 ** -53
        state = (state * a + c) & mask
        u2 = (state >> 11) * 2.0 ** -53
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        n_ops = max(2, floor(mean + sd * sqrt(-2.0 * log(u1)) * cos(2.0 * math.pi * u2)))
        for k in range(len(kinds), n_ops):
            is_read = floor((k + 1) * fraction) > floor(k * fraction)
            kinds.append(reads if is_read else writes)
        ops = []
        for shared in kinds[:n_ops]:
            state = (state * a + c) & mask
            ops.append(shared[int((state >> 11) * 2.0 ** -53 * n_items)])
        workload.append(ops)
    rng._state = state
    return workload


class EventQueue:
    """Priority queue of (instant, seq, process); seq breaks instant ties by
    scheduling order, so dequeue order is deterministic. Every event draws
    its seq from the one counter `_seq`.

    Arrivals wait in their own list, in instant order, so the heap holds
    only the events of processes already started. pop() takes the smaller
    (instant, seq) of the two heads, the order one heap over both would
    give, and moves the clock `now` to it. It is the one place a queued
    event leaves and the one check that the clock never moves backwards."""

    def __init__(self):
        self._heap: list[tuple[int, int, Generator]] = []
        self._arrivals: deque[tuple[int, int, Generator]] = deque()
        self._seq = count()
        self.now = 0

    def arrive(self, instant: int, gen: Generator) -> None:
        """Queue a process's first event; arrivals come in instant order."""
        if self._arrivals and instant < self._arrivals[-1][0]:
            raise ValueError(f"arrival at {instant} after one at {self._arrivals[-1][0]}")
        self._arrivals.append((instant, next(self._seq), gen))

    def push(self, instant: int, gen: Generator) -> None:
        heappush(self._heap, (instant, next(self._seq), gen))

    def pop(self) -> Generator:
        heap, arrivals = self._heap, self._arrivals
        if arrivals and (not heap or arrivals[0] < heap[0]):
            instant, _, gen = arrivals.popleft()
        else:
            instant, _, gen = heappop(heap)
        if instant < self.now:
            raise AssertionError(f"event clock moved backwards: {instant} < {self.now}")
        self.now = instant
        return gen


@dataclass
class TxnTiming:
    """Per-transaction accounting over all of its attempts."""

    txn_id: int
    submit_ms: int
    terminal_ms: int = 0
    service_ms: int = 0
    messages: int = 0
    attempts: int = 0
    outcome: Outcome | None = None


@dataclass
class RunResult:
    config: SimConfig
    history: History
    timings: list[TxnTiming]
    committed: int
    aborted: int


class _Sim(EventQueue):
    """One run: its event queue and clock, server structures and parked
    processes."""

    def __init__(self, cfg: SimConfig):
        super().__init__()
        self.cfg = cfg
        self.history = History()
        self.registry = ItemRegistry(cfg.n_items)
        self.table = LockTable()
        self.book = OccBook()
        self.parked: dict[int, Generator] = {}
        self._last_stamp = -1
        self.attempt_ids = count(cfg.n_txns)  # ids for retries, past every first attempt
        self.new_policy = _POLICIES[cfg.protocol]
        # (lo, count) of the uplink, downlink and reconnect delays, for the client loop
        self.delays = tuple((lo, hi - lo + 1) for lo, hi in (
            cfg.uplink_latency_ms, cfg.downlink_latency_ms, cfg.reconnect_delay_ms))

    def stamp(self, arrival: int) -> int:
        """Server-assigned instant: arrival time, bumped to stay strictly
        increasing across commit processing."""
        s = arrival if arrival > self._last_stamp else self._last_stamp + 1
        self._last_stamp = s
        return s

    def s2pl_end(self, aid: int, outcome: Outcome, instant: int) -> None:
        """Record aid's terminal, drop its locks, wake the new grantees, then
        aid itself if it is parked: a deadlock victim, woken by its own end."""
        self.history.record_terminal(aid, outcome, instant)
        for txn_id in self.table.release_all(aid) + [aid]:
            gen = self.parked.pop(txn_id, None)
            if gen is not None:
                self.push(self.now, gen)

    def run_loop(self) -> None:
        """Resume each process at its event: after a delay, a grant or a
        deadlock abort alike, since a woken process reads its fate from the
        lock table. A delay that ends strictly before every pending event
        resumes its process at once, with no seq and no pop, since pop()
        would return it next anyway. Every other event, a negative delay
        included, goes through pop(), which moves the clock and checks that
        it never moves back."""
        heap, arrivals, parked, seq = self._heap, self._arrivals, self.parked, self._seq
        pop = self.pop
        while heap or arrivals:
            gen = pop()
            now = self.now
            while True:
                try:
                    cmd = next(gen)
                except StopIteration:
                    break
                if isinstance(cmd, tuple):  # ("park", aid): wait for an external wake
                    parked[cmd[1]] = gen
                    break
                at = now + cmd
                if now <= at and (not heap or at < heap[0][0]) \
                        and (not arrivals or at < arrivals[0][0]):
                    self.now = now = at
                    continue
                heappush(heap, (at, next(seq), gen))
                break


def _txn_process(sim: _Sim, ops: list[Operation], run: TxnTiming, state: int, offset: int):
    """The one client loop; a fresh policy per attempt plays the server.

    `state` is the state of the transaction's own DetRng stream, stepped
    inline, each draw the float expression of DetRng.random or
    DetRng.uniform_ms; nothing else reads that stream, so the process holds
    the bare state and never writes it back. A lock-less attempt draws its
    disconnect rolls together before its first operator: it draws nothing
    else until its commit request, so the stream's order is that of a roll
    before each operator. Every transaction's process exists from the start,
    and on CPython 3.11 its frame lives inside the generator object, so the
    locals are kept few and per-run constants are read off `sim`: with 28
    locals and a stack of 7 an unstarted process is 448 bytes, and one past
    the small-object allocator's 512-byte limit raised a 5,000-txn run's peak
    RSS by 2.3 MB."""
    a, c, mask = _LCG_A, _LCG_C, _MASK64
    disconnect_prob, service_ms = sim.cfg.disconnect_prob, sim.cfg.op_service_ms
    (up_lo, up_n), (down_lo, down_n), (re_lo, re_n) = sim.delays
    served = messages = 0  # over every attempt
    for attempt in range(sim.cfg.retries + 1):
        aid = run.txn_id if attempt == 0 else next(sim.attempt_ids)
        run.attempts = attempt + 1
        policy = sim.new_policy(sim, aid, offset)
        lock = policy.lock
        connected = True
        outcome = None
        if lock is None:  # offline: the operators cost only their service time
            for _ in ops:
                state = (state * a + c) & mask
                if (state >> 11) * 2.0 ** -53 < disconnect_prob:
                    connected = False
            record = policy.record
            if record is None:
                for _ in ops:
                    yield service_ms
            else:
                for op in ops:
                    yield service_ms
                    record(op)
            served += service_ms * len(ops)
            policy.request(ops)
        else:
            for op in ops:
                state = (state * a + c) & mask
                if (state >> 11) * 2.0 ** -53 < disconnect_prob:  # rolled even when offline
                    connected = False
                if not connected:
                    state = (state * a + c) & mask
                    yield re_lo + int((state >> 11) * 2.0 ** -53 * re_n)
                    connected = True
                messages += 1
                state = (state * a + c) & mask
                yield up_lo + int((state >> 11) * 2.0 ** -53 * up_n)
                granted = lock(op)
                if granted is None:
                    yield ("park", aid)
                    granted = policy.woken(op)
                if not granted:
                    outcome = Outcome.ABORTED  # the server recorded it and released the locks
                    break
                messages += 1
                state = (state * a + c) & mask
                yield down_lo + int((state >> 11) * 2.0 ** -53 * down_n)
                yield service_ms
                served += service_ms
        if outcome is None:
            if not connected:
                state = (state * a + c) & mask
                yield re_lo + int((state >> 11) * 2.0 ** -53 * re_n)
            messages += 1
            state = (state * a + c) & mask
            yield up_lo + int((state >> 11) * 2.0 ** -53 * up_n)
            outcome = policy.commit(sim.stamp(sim.now))
        messages += 1
        state = (state * a + c) & mask
        yield down_lo + int((state >> 11) * 2.0 ** -53 * down_n)
        if outcome is Outcome.COMMITTED:
            break
    run.outcome = outcome
    run.service_ms = served
    run.messages = messages
    run.terminal_ms = sim.now


# Server policies, one per protocol and attempt; commit(instant) decides at
# the server's receipt instant. An attempt whose policy has a lock(op) method
# pays a round-trip per operator. lock(op) returns True on a grant, False when
# the server ends the attempt there, and None when the request waits: the
# client then yields ("park", aid) and, once woken, asks woken(op) for True
# or False. The others run their operators offline: record(op), where a
# policy has one, takes each operator's local effect at its instant, and
# request(ops) takes the attempt's at its commit request, before the commit
# exchange.

class _Opcot:
    """Log operators with relative timestamps off the skewed client clock;
    the server rebases and validates the whole log at commit."""

    lock = record = None

    def __init__(self, sim: _Sim, aid: int, offset: int):
        self.sim, self.offset = sim, offset
        self.log = OperatorLog(aid)
        self.begin = sim.now + offset
        client_record_op(self.log, core.BEGIN, self.begin, self.begin)

    def request(self, ops: list[Operation]) -> None:
        """Log each operator at its client instant, one service time after
        the one before it, then Commit at the client's clock."""
        sim = self.sim
        prev = client_record_ops(self.log, ops, sim.cfg.op_service_ms, self.begin)
        client_record_op(self.log, core.COMMIT, sim.now + self.offset, prev)

    def commit(self, instant: int) -> Outcome:
        sim = self.sim
        return commit_transaction(sim.registry, self.log, instant, sim.history).outcome


class _Occ:
    """Reads run now; writes are buffered and installed at the commit
    instant if backward validation passes. The commit request carries the
    start instant, the read set and the write set."""

    lock = None

    def __init__(self, sim: _Sim, aid: int, offset: int):
        self.sim, self.aid = sim, aid
        self.start = sim.now
        self.reads: set[int] = set()

    def record(self, op: Operation) -> None:
        if op.kind is _READ:
            self.reads.add(op.item_id)
            self.sim.history.record_op(self.aid, op, self.sim.now)

    def request(self, ops: list[Operation]) -> None:
        self.writes = [op for op in ops if op.kind is _WRITE]

    def commit(self, instant: int) -> Outcome:
        history = self.sim.history
        outcome = occ_validate(self.sim.book, self.start, self.reads,
                               {op.item_id for op in self.writes}, instant)
        if outcome is Outcome.COMMITTED:
            history.record_ops(self.aid, self.writes, [instant] * len(self.writes))
        history.record_terminal(self.aid, outcome, instant)
        return outcome


class _S2pl:
    """Strict 2PL: each operator runs at its lock grant instant; every lock
    is held until the terminal. lock(op) answers at the request instant:
    True when op's lock is granted and op is recorded, False when this
    attempt was ended as a deadlock victim, None when the request waits; the
    client then parks, and woken(op) reads its fate when it is resumed."""

    def __init__(self, sim: _Sim, aid: int, offset: int):
        self.sim, self.aid = sim, aid
        sim.table.register_txn(aid, sim.now)

    def lock(self, op: Operation) -> bool | None:
        """Acquire op's lock; on a grant record op now and return True. The
        one place deadlocks are broken: while a cycle runs through this
        request, abort its youngest member, and return False when that is
        this attempt. Return None when the request stays queued."""
        sim, table, aid = self.sim, self.sim.table, self.aid
        mode = _SHARED if op.kind is _READ else _EXCLUSIVE
        granted = isinstance(table.acquire(aid, op.item_id, mode), Granted)
        while not granted and (cycle := table.find_cycle(aid)):
            victim = table.youngest_of(cycle)
            sim.s2pl_end(victim, Outcome.ABORTED, sim.now)
            if victim == aid:
                return False
            granted = table.holds(aid, op.item_id, mode)  # the victim's release may grant it
        if not granted:
            return None
        sim.history.record_op(aid, op, sim.now)
        return True

    def woken(self, op: Operation) -> bool:
        """After the park on op's queued request: a grant woke the attempt,
        so record op now and return True, or its own end as a victim did,
        and that release dropped the request, so return False."""
        sim, aid = self.sim, self.aid
        mode = _SHARED if op.kind is _READ else _EXCLUSIVE
        if not sim.table.holds(aid, op.item_id, mode):
            return False
        sim.history.record_op(aid, op, sim.now)
        return True

    def commit(self, instant: int) -> Outcome:
        self.sim.s2pl_end(self.aid, Outcome.COMMITTED, instant)
        return Outcome.COMMITTED


_POLICIES = {"opcot": _Opcot, "occ": _Occ, "s2pl": _S2pl}


def run_simulation(cfg: SimConfig) -> RunResult:
    """Execute every transaction of the workload under cfg.protocol.

    Returns the complete history plus one timing record per transaction.
    Deterministic: identical configs (seed included) yield identical results.
    """
    master = DetRng(cfg.seed)
    workload = gen_workload(cfg, master.spawn(1))
    arrivals = master.spawn(2)
    offsets_rng = master.spawn(3)

    sim = _Sim(cfg)
    timings = []
    submit = 0
    for txn_id, ops in enumerate(workload):
        submit += round(arrivals.exponential(cfg.arrival_mean))
        run = TxnTiming(txn_id, submit_ms=submit)
        timings.append(run)
        offset = offsets_rng.uniform_ms((-_CLIENT_CLOCK_SKEW_MS, _CLIENT_CLOCK_SKEW_MS))
        gen = _txn_process(sim, ops, run, master.spawn(1000 + txn_id)._state, offset)
        sim.arrive(submit, gen)
    sim.run_loop()

    committed = sum(1 for t in timings if t.outcome is Outcome.COMMITTED)
    aborted = sum(1 for t in timings if t.outcome is Outcome.ABORTED)
    if committed + aborted != cfg.n_txns:
        raise AssertionError("conservation violated: every txn must reach a terminal")
    return RunResult(cfg, sim.history, timings, committed, aborted)
