"""The report writer gives exactly the text of json.dumps(payload, indent=2)."""

import json

from hypothesis import example, given, settings, strategies as st

from hopfkit.cli import main, run_suite
from hopfkit.report import TOOL_VERSION, dumps

# quotes, backslashes, control characters, non-ASCII and astral-plane text
TRICKY = st.text(st.sampled_from(
    ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
     "\u00a0", "\u2028", "\ufeff", "\U0001d11e", "\U0001f600", "a", "Z",
     "0", " ", "[", "|", ":"]),
    max_size=12)
TEXT = st.one_of(TRICKY, st.text(max_size=12))

CHECKS = st.lists(st.fixed_dictionaries(
    {"id": TEXT, "status": st.sampled_from(["pass", "fail", "skipped"]),
     "law": TEXT},
    optional={"witness": TEXT}), max_size=6)

PARAM_VALUES = st.one_of(st.integers(-10**20, 10**20), TEXT,
                         st.lists(st.one_of(st.integers(), TEXT), max_size=4))


@st.composite
def reports(draw):
    """A payload shaped like CheckReport.to_dict(), maybe with one more key
    after the checks list."""
    payload = {
        "tool_version": TOOL_VERSION,
        "suite": draw(TEXT),
        "preset": draw(TEXT),
        "params": draw(st.dictionaries(TEXT, PARAM_VALUES, max_size=4)),
        "status": draw(st.sampled_from(["pass", "fail"])),
        "counts": {"pass": draw(st.integers(0, 9)), "fail": 0, "skipped": 1},
        "checks": draw(CHECKS),
    }
    if draw(st.booleans()):
        payload["note"] = draw(TEXT)
    return payload


@st.composite
def matrices(draw):
    """A payload shaped like the one of `hopfkit matrix`."""
    n = draw(st.integers(0, 3))
    return {
        "operator": draw(TEXT),
        "window": n,
        "basis": draw(st.lists(TEXT, min_size=n, max_size=n)),
        "matrix": draw(st.lists(st.lists(TEXT, min_size=n, max_size=n),
                                min_size=n, max_size=n)),
    }


@settings(max_examples=200, deadline=None)
@given(st.one_of(reports(), matrices()))
@example({"suite": "s", "params": {}, "checks": []})
def test_writer_matches_json_dumps(payload):
    assert dumps(payload) == json.dumps(payload, indent=2)


def test_real_reports_match_json_dumps(capsys):
    rep = run_suite("essential-invariance", {"window": 2})
    assert dumps(rep.to_dict()) == json.dumps(rep.to_dict(), indent=2)
    assert main(["matrix", "--op", "B", "--window", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert dumps(payload) == json.dumps(payload, indent=2)


def test_cli_text_is_the_report_written_by_dumps(capsys):
    assert main(["verify", "jform", "--window", "2"]) == 0
    out = capsys.readouterr().out
    assert out == dumps(run_suite("jform", {"window": 2}).to_dict()) + "\n"
