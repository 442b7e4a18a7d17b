"""CheckReport.to_json gives exactly the text of
json.dumps(to_dict(), indent=2)."""

import json

from hypothesis import example, given, settings, strategies as st

from hopfkit.cli import main, run_suite
from hopfkit.report import CheckReport

# quotes, backslashes, control characters, non-ASCII and astral-plane text
TRICKY = st.text(st.sampled_from(
    ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
     "\u00a0", "\u2028", "\ufeff", "\U0001d11e", "\U0001f600", "a", "Z",
     "0", " ", "[", "|", ":"]),
    max_size=12)
TEXT = st.one_of(TRICKY, st.text(max_size=12))

# (id, ok, law, witness): a few laws, so that entries share them as a
# suite's checks do; a witness is kept only when the check fails
ENTRIES = st.lists(st.tuples(TEXT, st.booleans(),
                             st.sampled_from(["", "<S X, a> = <X, S a>"])
                             | TEXT,
                             st.none() | TEXT), max_size=6)

# ints, strings, and lists such as the essential-invariance certificate
PARAM_VALUES = st.one_of(st.integers(-10**20, 10**20), TEXT,
                         st.lists(st.one_of(st.integers(), TEXT), max_size=4))


@st.composite
def reports(draw):
    """A CheckReport filled through record, as the suites fill theirs."""
    rep = CheckReport(draw(TEXT), preset=draw(TEXT),
                      params=draw(st.dictionaries(TEXT, PARAM_VALUES,
                                                  max_size=4)))
    for check_id, ok, law, witness in draw(ENTRIES):
        rep.record(check_id, ok, law=law, witness=witness)
    return rep


@settings(max_examples=200, deadline=None)
@given(reports())
@example(CheckReport("s"))
def test_writer_matches_json_dumps(rep):
    assert rep.to_json() == json.dumps(rep.to_dict(), indent=2)


def test_real_reports_match_json_dumps(capsys):
    rep = run_suite("essential-invariance", {"window": 2})
    assert rep.to_json() == json.dumps(rep.to_dict(), indent=2)
    assert main(["matrix", "--op", "B", "--window", "2"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cli_text_is_the_report_written_by_dumps(capsys):
    assert main(["verify", "jform", "--window", "2"]) == 0
    out = capsys.readouterr().out
    rep = run_suite("jform", {"window": 2})
    assert out == json.dumps(rep.to_dict(), indent=2) + "\n"
