"""Property tests of the text readers: arbitrary input either parses or is
rejected with the documented error, never another exception."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ccarena import core
from ccarena.cli import main
from ccarena.core import InvalidLogError
from ccarena.opcot import OperatorLog, log_from_text


def texts_of(*words):
    """Short text of the given words and small ints, space separated, with
    newlines among the words."""
    atoms = st.one_of(st.sampled_from([*words, "\n"]), st.integers(-3, 6).map(str))
    return st.lists(atoms, max_size=60).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(text=texts_of("BEGIN", "COMMIT", "R", "W", "HOP", "-", "#", "x", "1.5"))
def test_log_text_parses_or_is_an_invalid_log_error(text):
    try:
        log = log_from_text(text)
    except InvalidLogError:
        return
    assert isinstance(log, OperatorLog)


# Small ints make transaction ids and items collide, so parsed histories
# have conflicts, repeated terminals and ops after a terminal.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=texts_of("OP", "END", "R", "W", "COMMITTED", "ABORTED", "-", "#", "x"))
def test_check_on_any_history_text_exits_0_1_or_2(text, tmp_path, capsys):
    path = tmp_path / "arbitrary.history"
    path.write_text(text, encoding="utf-8")
    assert main(["check", "--history", str(path)]) in (0, 1, 2)
    capsys.readouterr()  # drop this example's report


# every line boundary str.splitlines knows
LINE_BREAKS = ["\r\n", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@settings(max_examples=500, deadline=None)
@given(text=st.lists(st.sampled_from([*LINE_BREAKS, "OP 1", "x", " "]), max_size=40)
       .map("".join),
       size=st.integers(1, 8))
def test_the_chunked_line_split_is_splitlines(text, size):
    assert list(core._lines(text, size)) == text.splitlines()
