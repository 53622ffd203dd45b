"""The benchmark's tracer wraps ccarena names where their callers look them
up; a refactor that drops or moves one breaks the traced run, and one that
stops calling through them zeroes that layer's readings. This guards both
from the ordinary test suite."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest
from test_simkit import _GOLDEN_SHAPES, quiet_cfg

from ccarena.baselines import Granted, LockTable, Queued
from ccarena.simkit import run_simulation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("owner, attr, span", tracer.SPANS, ids=[s for _, _, s in tracer.SPANS])
def test_every_wrapped_name_is_where_the_tracer_looks(owner, attr, span):
    # installed() reads vars(owner)[attr]: the name must be the owner's own,
    # not inherited, and callable
    assert attr in vars(owner), f"{span}: {owner.__name__}.{attr} is gone"
    assert callable(vars(owner)[attr])


def test_the_event_count_hook_exists():
    assert callable(vars(tracer.simkit.EventQueue)["pop"])


# per s2pl golden shape: calls of each wrapped LockTable method, and the
# queued acquires and found cycles the tracer counts from their answers
_S2PL_READINGS = {
    "disconnects": {"acquire": 191, "find_cycle": 172, "release_all": 88,
                    "queued": 142, "cycles_found": 69},
    "zero_latency": {"acquire": 131, "find_cycle": 108, "release_all": 63,
                     "queued": 92, "cycles_found": 34},
}


@pytest.mark.parametrize("shape", sorted(_S2PL_READINGS))
def test_s2pl_runs_every_lock_table_call_through_the_class(shape, monkeypatch):
    # wrapped on the class as the tracer wraps them: a call that bypasses the
    # class attribute, or an acquire answer the tracer cannot classify,
    # changes these readings
    readings = Counter()

    def wrap(attr, original):
        def counted(*args):
            readings[attr] += 1
            result = original(*args)
            if attr == "acquire":
                assert isinstance(result, (Granted, Queued)), result
                readings["queued"] += not isinstance(result, Granted)
            elif attr == "find_cycle":
                readings["cycles_found"] += bool(result)
            return result
        return counted

    for attr in ("acquire", "find_cycle", "release_all"):
        monkeypatch.setattr(LockTable, attr, wrap(attr, vars(LockTable)[attr]))
    run_simulation(quiet_cfg(protocol="s2pl", **_GOLDEN_SHAPES[shape]))
    assert readings == _S2PL_READINGS[shape]


# the opcot and occ spans, wrapped where the tracer looks them up
_OPCOT_OCC_SPANS = [(owner, attr, span) for owner, attr, span in tracer.SPANS
                 if span.split(".")[0] in ("opcot", "occ")]


@pytest.mark.parametrize("shape", sorted(_GOLDEN_SHAPES))
@pytest.mark.parametrize("protocol", ["opcot", "occ"])
def test_opcot_and_occ_run_every_attempt_through_the_tracer_names(protocol, shape,
                                                                  monkeypatch):
    # a call that bypasses one of these names, as a Begin record built
    # inline would, changes its count and zeroes its layer's readings
    readings = Counter()

    def wrap(span, original):
        def counted(*args):
            readings[span] += 1
            return original(*args)
        return counted

    for owner, attr, span in _OPCOT_OCC_SPANS:
        monkeypatch.setattr(owner, attr, wrap(span, vars(owner)[attr]))
    result = run_simulation(quiet_cfg(protocol=protocol, **_GOLDEN_SHAPES[shape]))
    attempts = sum(t.attempts for t in result.timings)
    if protocol == "opcot":  # Begin and Commit, then one commit request
        want = {"opcot.client_record_op": 2 * attempts, "opcot.commit_transaction": attempts,
                "opcot.rebase_to_server_time": attempts, "opcot.validate_commit": attempts}
    else:
        want = {"occ.occ_validate": attempts}
    assert attempts > len(result.timings) and readings == want, readings
