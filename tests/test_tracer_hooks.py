"""The benchmark's tracer wraps ccarena names where their callers look them
up; a refactor that drops or moves one breaks the traced run. This guards
those names from the ordinary test suite."""

import importlib.util
from pathlib import Path

import pytest

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
