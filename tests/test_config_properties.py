"""Property test of the config parsers: any value text for any key either
parses or raises ConfigError, never another exception."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccarena.core import ConfigError
from ccarena.harness import MatrixConfig
from ccarena.simkit import SimConfig

# Short atoms keep every integer small: the matrix builds one cell per seed
# of a `seeds = lo:hi` range, and a range may span MAX_SEED_RANGE seeds.
ATOMS = st.one_of(
    st.integers(-20, 300).map(str),
    st.text(alphabet="0123456789-.,:aexyz", max_size=3),
    st.sampled_from(["", "nan", "inf", "-inf", "1e3", "true", "off", "occ", "S2PL", "x"]),
)
VALUES = st.lists(st.tuples(ATOMS, st.sampled_from([",", ", ", ":", " ", "."])),
                  max_size=3).map(lambda parts: "".join(a + sep for a, sep in parts)[:-1])

SIM_KEYS = [f.name for f in fields(SimConfig)]
MATRIX_KEYS = ["protocols", "txns", "items", "seeds", "arrival_window_ms"]


@pytest.mark.parametrize("key", SIM_KEYS)
@settings(max_examples=150, deadline=None)
@given(raw=VALUES)
def test_sim_config_value_parses_or_is_a_config_error(key, raw):
    try:
        SimConfig.from_mapping({key: raw})
    except ConfigError:
        pass


@pytest.mark.parametrize("key", MATRIX_KEYS)
@settings(max_examples=150, deadline=None)
@given(raw=VALUES)
def test_matrix_value_parses_or_is_a_config_error(key, raw):
    try:
        cells = MatrixConfig.from_mapping({key: raw}).cells()
    except ConfigError:
        return
    assert cells        # an empty range such as `seeds = 2:1` is a config error
