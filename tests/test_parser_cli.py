import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hopfkit import cli, scalars
from hopfkit.cli import (SUITES, _merge, build_arg_parser, load_config, main,
                         run_suite)
from hopfkit.errors import (
    ConfigError,
    DivisionByZero,
    ExprSyntaxError,
    ScalarDivisionOnly,
    UnknownGenerator,
    UnknownSuite,
)
from hopfkit.hopf import algebra_presentation
from hopfkit.ncalg import AlgebraElement
from hopfkit.parser import _tokenize, parse, print_element
from hopfkit.report import CheckReport
from hopfkit.scalars import I, M, ONE, U, W, ZERO, scalar


def test_parse_commutator_identity():
    got = parse("B*T - T*B", "uq-g1")
    expected = parse("i*(K - K^-1)/(2*w)", "uq-g1")
    assert got == expected


def test_parse_unit():
    for algebra in ("uq-g1", "fq-g1", "fq-j", "h0-irr"):
        assert parse("1", algebra) == algebra_presentation(algebra).one()


def test_parse_defining_relation_is_zero():
    assert parse("mu*x - x*mu - 2*i*w*mu", "fq-g1").is_zero()


def test_juxtaposition_multiplies_in_order():
    assert parse("B K", "uq-g1") == parse("B*K", "uq-g1")
    assert parse("2 i w mu", "fq-g1") == parse("2*i*w*mu", "fq-g1")


def test_negative_powers():
    p = algebra_presentation("uq-g1")
    assert parse("K^-2", "uq-g1") == p.gen("K", -2)
    assert parse("K^(-2)", "uq-g1") == p.gen("K", -2)


def test_scalar_division_only():
    with pytest.raises(ScalarDivisionOnly):
        parse("1/v", "fq-g1")
    v = algebra_presentation("fq-g1").gen("v")
    assert parse("v/2", "fq-g1") == v * (ONE / scalar(2))
    assert parse("v/(2*w)", "fq-g1") == v * (ONE / (2 * W))


def test_parse_errors_carry_position():
    with pytest.raises(ExprSyntaxError):
        parse("1 + ", "fq-g1")
    with pytest.raises(UnknownGenerator):
        parse("Q", "fq-g1")
    with pytest.raises(ExprSyntaxError):
        parse("v^w", "fq-g1")


# An independent reference: one match per token, its leading whitespace
# first.  \s, \d and \w are str.isspace, str.isdecimal and
# str.isalnum-or-underscore, so a name is a letter followed by word
# characters; a character in no class of its own is a syntax error.
_TOKEN = re.compile(r"(\s*)(?:([-+*/^()])|(\d+)|([^\W\d_]\w*)|(\S))")


def _tokenize_by_regex(text):
    tokens, pos = [], 0
    for space, op, num, name, _ in _TOKEN.findall(text):
        pos += len(space)
        if op:
            tokens.append((op, op, pos))
        elif num:
            tokens.append(("num", int(num), pos))
        elif name[:1].isalpha():
            tokens.append(("name", name, pos))
        else:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        pos += len(op or num or name)
    return tokens


def _scan(tokenize, text):
    try:
        return tokenize(text)
    except ExprSyntaxError as exc:
        return str(exc), exc.position


# spaces (one of them non-breaking), ASCII and Arabic-Indic digits, a
# superscript digit, a vulgar fraction, a Roman numeral, Latin, Greek and
# accented letters, the underscore, operators and two stray characters
TRICKY = " \t\u00a00179\u0663\u00b2\u00bd\u2167xKw\u03b1\u00e9_+-*/^().$"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=TRICKY, max_size=12))
def test_tokenize_matches_a_regex_scan(text):
    assert _scan(_tokenize, text) == _scan(_tokenize_by_regex, text)


@pytest.mark.parametrize("text, tokens", [
    ("  2*w  ", [("num", 2, 2), ("*", "*", 3), ("name", "w", 4)]),
    ("\u0663 x_1\tK^-12", [("num", 3, 0), ("name", "x_1", 2),
                           ("name", "K", 6), ("^", "^", 7), ("-", "-", 8),
                           ("num", 12, 9)]),
    ("\u03b1\u03b22 \u00e9",
     [("name", "\u03b1\u03b22", 0), ("name", "\u00e9", 4)]),
    ("x\u00b2", [("name", "x\u00b2", 0)]),
])
def test_tokenize_non_ascii_digits_and_letters(text, tokens):
    assert _tokenize(text) == tokens


@pytest.mark.parametrize("text, pos", [
    ("a $", 2), ("\u00bdx", 0), ("_a", 0), ("w .5", 2), ("\u2167", 0),
    # a superscript digit is no decimal digit: a syntax error, not int()'s
    # ValueError
    ("3\u00b2", 1), ("\u00b2", 0),
])
def test_tokenize_bad_character(text, pos):
    with pytest.raises(ExprSyntaxError) as exc:
        _tokenize(text)
    assert exc.value.position == pos
    assert str(exc.value) == (f"unexpected character {text[pos]!r} "
                              f"(at position {pos})")


def test_power_errors_outside_hopfkit_are_not_swallowed(monkeypatch):
    # a hopfkit error from base ** exp becomes a positioned syntax error
    with pytest.raises(ExprSyntaxError):
        parse("x^-1", "fq-g1")

    def broken_pow(self, n):
        raise RuntimeError("bug in __pow__")

    monkeypatch.setattr(AlgebraElement, "__pow__", broken_pow)
    with pytest.raises(RuntimeError, match="bug in __pow__"):
        parse("v^2", "fq-g1")


def _random_element(pres, rng):
    window = pres.monomials_up_to(3, zrange=2)
    out = pres.zero()
    for _ in range(rng.randint(1, 4)):
        mon = rng.choice(window)
        coeff = scalar(rng.randint(-5, 5))
        if rng.random() < 0.4:
            coeff = coeff * I
        if rng.random() < 0.3:
            coeff = coeff * W
        out = out + pres.monomial(mon) * coeff
    return out


@pytest.mark.parametrize("algebra", ["uq-g1", "fq-g1", "fq-j", "h0-irr"])
def test_print_parse_round_trip(algebra):
    pres = algebra_presentation(algebra)
    rng = random.Random(hash(algebra) & 0xFFFF)
    for _ in range(50):
        e = _random_element(pres, rng)
        assert parse(print_element(e), algebra) == e


ALGEBRAS = ("uq-g1", "fq-g1", "fq-j", "h0-irr")
# monomial and multi-term denominators, as in the benchmark's words
COEFF_DECK = (ONE, scalar(-3), I, W, I / (2 * W), ONE / (W * M),
              ONE / (W + M), (U - I * W) / (M + 1))
ROUND_TRIP_WINDOWS = {
    alg: algebra_presentation(alg).monomials_up_to(3, zrange=2)
    for alg in ALGEBRAS}


@st.composite
def printable_elements(draw):
    """An algebra name and an element with 0-4 terms whose coefficients
    are products of two cards of COEFF_DECK (one of which may be 1)."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    card = st.sampled_from(COEFF_DECK)
    coeff = st.builds(lambda a, b: a * b, card, card)
    terms = draw(st.dictionaries(st.sampled_from(ROUND_TRIP_WINDOWS[algebra]),
                                 coeff, max_size=4))
    return algebra, AlgebraElement(algebra_presentation(algebra), terms)


@settings(max_examples=120, deadline=None)
@given(printable_elements())
def test_print_parse_round_trip_with_fraction_coefficients(case):
    algebra, e = case
    assert parse(print_element(e), algebra) == e


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("text, value", [
    ("0", ZERO),
    ("2^-1", ONE / 2),
    ("(w+m)^3/(w+m)^2", (W + M) ** 3 / (W + M) ** 2),
    ("i*w - w*i", I * W - W * I),
])
def test_scalar_text_parses_to_a_multiple_of_one(algebra, text, value):
    got = parse(text, algebra)
    assert isinstance(got, AlgebraElement)
    assert got == algebra_presentation(algebra).one().scale(value)


def test_division_by_a_scalar_valued_element():
    p = algebra_presentation("uq-g1")
    assert parse("2/(K K^-1)", "uq-g1") == p.one().scale(2)
    assert parse("B/(w K K^-1)", "uq-g1") == p.gen("B").scale(ONE / W)


@pytest.mark.parametrize("text, error", [
    ("1/0", DivisionByZero),
    ("v/(w-w)", DivisionByZero),
    ("v/(x-x)", DivisionByZero),
    ("(w-w)^-1", ExprSyntaxError),
    ("1/v", ScalarDivisionOnly),
])
def test_scalar_parse_errors(text, error):
    with pytest.raises(error):
        parse(text, "fq-g1")


def test_run_suite_unknown():
    with pytest.raises(UnknownSuite):
        run_suite("no-such-suite")


def test_run_suite_hopf_axioms_degree_one():
    # with no preset, all three Hopf built-ins are checked
    rep = run_suite("hopf-axioms", {"degree": 1})
    assert rep.passed
    assert {c.id.split("::")[0] for c in rep.checks} == {"uq-g1", "fq-g1",
                                                         "fq-j"}


@pytest.mark.parametrize("preset", ["uq-g2", "h0-irr", "galilei"])
def test_hopf_axioms_rejects_an_unknown_preset(preset, capsys):
    # a preset that names no Hopf built-in is an error, not "run them all"
    assert main(["verify", "hopf-axioms", "--preset", preset,
                 "--degree", "1"]) == 2
    captured = capsys.readouterr()
    assert "unknown hopf-axioms preset" in captured.err
    assert captured.out == ""
    with pytest.raises(ConfigError):
        run_suite("hopf-axioms", {"degree": 1, "preset": preset})


def test_hopf_axioms_preset_runs_one_structure():
    rep = run_suite("hopf-axioms", {"degree": 1, "preset": "fq-j"})
    assert rep.passed
    assert rep.params == {"degree": 1, "fq-j.degree": 1}
    assert {c.id.split("::")[0] for c in rep.checks} == {"fq-j"}


@pytest.mark.parametrize("argv, message", [
    (["verify", "jform", "--preset", "nonsense", "--window", "1"],
     "unknown hopf-axioms preset"),
    (["verify", "all", "--preset", "galilei"], "unknown hopf-axioms preset"),
    (["verify", "jform", "--preset", "uq-g1", "--window", "1"],
     "hopf-axioms, which is not among the suites"),
])
def test_verify_rejects_a_bad_preset_before_any_suite_runs(argv, message,
                                                           capsys):
    # a preset is checked once for the whole command: no report is printed
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("suites, status", [
    ("jform,coisotropic", 2),
    ("jform,hopf-axioms", 0),
])
def test_config_preset_needs_hopf_axioms_among_its_suites(tmp_path, capsys,
                                                          suites, status):
    cfg = tmp_path / "hopfkit.conf"
    cfg.write_text(f"preset = fq-j\nsuites = {suites}\n"
                   "degree = 1\nwindow = 1\n")
    assert main(["verify", "config", "--config", str(cfg)]) == status
    out = capsys.readouterr().out
    if status:
        assert out == ""
    else:
        assert '"id": "fq-j::' in out and '"id": "uq-g1::' not in out


def test_verify_rejects_an_unknown_suite_before_any_suite_runs(tmp_path,
                                                               capsys):
    cfg = tmp_path / "hopfkit.conf"
    cfg.write_text("suites = jform, no-such-suite\nwindow = 1\n")
    assert main(["verify", "config", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text, argv, message", [
    ("window = 1\n", ["verify", "config"], "needs a 'suites' key"),
    (None, ["verify", "config"], "needs a 'suites' key"),
    ("suites = jform\nwindow = 1\n", ["verify", "all"],
     "read by verify config only"),
    ("suites = jform\nwindow = 1\n", ["verify", "intertwiner"],
     "read by verify config only"),
    ("suites = , ,\nwindow = 1\n", ["verify", "config"], "names no suite"),
])
def test_suites_key_is_read_by_verify_config_only(tmp_path, capsys, text,
                                                  argv, message):
    # verify config without the key used to fail as an unknown suite
    # 'config', and verify all with it used to run all 14 suites
    if text is not None:
        cfg = tmp_path / "hopfkit.conf"
        cfg.write_text(text)
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, text, message", [
    (["verify", "jform", "--degree", "7", "--side", "right"], None,
     "no suite to run reads degree"),
    (["verify", "pairing", "--window", "99", "--side", "right"], None,
     "no suite to run reads window"),
    (["verify", "mirror-right", "--side", "left"], None,
     "no suite to run reads side"),
    (["verify", "config"], "suites = jform, unitarity\ndegree = 2\n",
     "no suite to run reads degree"),
    (["verify", "essential-invariance"], "degree = 1\n",
     "no suite to run reads degree"),
])
def test_verify_rejects_a_size_or_side_no_suite_reads(tmp_path, capsys, argv,
                                                       text, message):
    # these ran at the default sizes and exited 0, as an unread preset did
    if text is not None:
        cfg = tmp_path / "hopfkit.conf"
        cfg.write_text(text)
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name, config, message", [
    ("jform", {"degree": 7}, "no suite to run reads degree"),
    ("pairing", {"side": "right"}, "no suite to run reads side"),
    ("essential-invariance", {"preset": "fq-j"},
     "hopf-axioms, which is not among the suites"),
])
def test_run_suite_refuses_a_setting_its_suite_does_not_read(name, config,
                                                             message):
    # run_suite("jform", {"degree": 7}) returned a passing window-5 report;
    # run_suite and verify share one check of the settings
    with pytest.raises(ConfigError, match=message):
        run_suite(name, config)


@pytest.mark.parametrize("config, key", [
    ({"windw": 3}, "windw"),
    ({"output": "x.json"}, "output"),
    ({"suites": "jform"}, "suites"),
    ({"window": 2, 7: 1}, "7"),
])
def test_run_suite_refuses_a_key_that_is_no_setting(config, key):
    # run_suite("jform", {"windw": 3}) returned a passing window-5 report;
    # only verify's config file refused an unknown key
    with pytest.raises(ConfigError, match=f"unknown setting '?{key}'?; "
                                          "choose from preset, degree"):
        run_suite("jform", config)


def test_config_side_key_is_read_like_the_side_flag(tmp_path, capsys):
    # a side line was an unknown key
    cfg = tmp_path / "side.conf"
    cfg.write_text("suites = homogeneous-space\ndegree = 2\nside = right\n")
    assert load_config(str(cfg))["side"] == "right"
    assert main(["verify", "config", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert '"side": "right"' in from_config
    assert main(["verify", "homogeneous-space", "--degree", "2",
                 "--side", "right"]) == 0
    assert capsys.readouterr().out == from_config
    cfg.write_text("suites = homogeneous-space\nside = up\n")
    assert main(["verify", "config", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "side must be one of" in captured.err
    assert captured.out == ""


def test_verify_all_takes_every_size_and_side(capsys):
    assert main(["verify", "all", "--degree", "1", "--window", "1",
                 "--side", "right"]) == 0
    assert capsys.readouterr().out.count('"suite": ') == len(SUITES)


def test_run_suite_coisotropic_degree_zero():
    # degree 0 is a real window (the unit only), not "use the default"
    rep = run_suite("coisotropic", {"degree": 0})
    assert rep.params["degree"] == 0
    assert rep.passed
    assert len(rep.checks) == 6


def test_run_suite_essential_invariance():
    rep = run_suite("essential-invariance", {"window": 3})
    assert rep.passed
    assert rep.params.get("certificate")


def test_report_determinism():
    r1 = run_suite("jform", {"window": 2}).to_json()
    r2 = run_suite("jform", {"window": 2}).to_json()
    assert r1 == r2


def test_config_parsing(tmp_path):
    cfg = tmp_path / "hopfkit.conf"
    cfg.write_text("# comment\nwindow = 3\ndegree=2\npreset=galilei\n")
    loaded = load_config(str(cfg))
    assert loaded == {"window": 3, "degree": 2, "preset": "galilei"}
    bad = tmp_path / "bad.conf"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_cli_eval(capsys):
    assert main(["eval", "--algebra", "uq-g1", "B*K"]) == 0
    out = capsys.readouterr().out.strip()
    assert parse(out, "uq-g1") == parse("K*B + i*w*M*K", "uq-g1")


def test_cli_pair(capsys):
    assert main(["pair", "B", "v"]) == 0
    assert capsys.readouterr().out.strip() == "i"


def test_cli_matrix(capsys, tmp_path):
    out_file = tmp_path / "b.json"
    assert main(["matrix", "--op", "B", "--window", "2",
                 "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["operator"] == "B"
    assert len(payload["matrix"]) == 5
    # B is diagonal with entries iwm(l + 1/2)
    basis = payload["basis"]
    assert basis[2] == "phi*chi^0"
    diag = payload["matrix"][2][2]
    assert diag == str(scalar(1) / 2 * I * W * parse("m", "uq-g1").terms[(0, 0, 0, 0)])


def test_cli_homogeneous_space(capsys):
    assert main(["homogeneous-space", "--degree", "3", "--side", "left"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["1", "v", "v^2", "v^3"]


def test_cli_verify_exit_codes(capsys, tmp_path):
    out_file = tmp_path / "rep.json"
    code = main(["verify", "jform", "--window", "2", "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["status"] == "pass"
    # no timestamp: the same run prints the same bytes
    assert "generated_at" not in payload
    assert main(["verify", "no-such-suite"]) == 2
    capsys.readouterr()


def test_cached_parser_keeps_no_state(capsys):
    # main reuses one parser for the process: a refused command and a
    # command with other options leave nothing behind for the next call
    assert build_arg_parser() is build_arg_parser()
    assert main(["verify", "no-such-suite"]) == 2
    assert main(["matrix", "--op", "B", "--window", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "jform", "--window", "2"]) == 0
    want = run_suite("jform", {"window": 2}).to_json() + "\n"
    assert capsys.readouterr().out == want


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("suite", ["mirror-right", "functional-lemma"])
def test_suite_order_does_not_change_report_bytes(suite, capsys):
    # after cocycle has warmed the shared Galilei weight, a suite prints
    # the bytes it prints in a fresh process that runs it alone
    assert main(["verify", "cocycle"]) == 0
    capsys.readouterr()
    assert main(["verify", suite]) == 0
    warm = capsys.readouterr().out
    code = ("import sys; from hopfkit.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    cold = subprocess.run([sys.executable, "-c", code, "verify", suite],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert cold.stdout == warm


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The concrete hopfkit lines of the README "Command line" block, with
    continuation lines joined; template lines (holding "<") are left out."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines
            if line.startswith("hopfkit ") and "<" not in line]


def test_readme_commands_parse():
    # a deleted command or flag cannot stay documented
    commands = readme_commands()
    assert len(commands) >= 5
    ap = build_arg_parser()
    for line in commands:
        try:
            ap.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_record_calls_witness_only_on_failure():
    def never():
        raise AssertionError("witness built for a passing check")

    rep = CheckReport("s")
    rep.record("ok", True, witness=never)
    rep.record("bad", False, witness=lambda: "a | b")
    rep.record("plain", False, witness="c")
    rep.record("none", False)
    assert [c.witness for c in rep.checks] == [None, "a | b", "c",
                                               "(no witness supplied)"]


def test_empty_report_does_not_pass():
    rep = CheckReport("empty")
    assert not rep.passed
    assert rep.to_dict()["status"] == "fail"
    rep.record("one", True)
    assert rep.passed


@pytest.mark.parametrize("argv", [
    ["verify", "unitarity", "--window", "-3"],
    ["verify", "hopf-axioms", "--degree", "-1"],
    ["matrix", "--op", "B", "--window", "-1"],
    ["homogeneous-space", "--degree", "-2"],
])
def test_negative_sizes_are_config_errors(argv, capsys):
    assert main(argv) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_negative_size_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "neg.conf"
    cfg.write_text("suites = unitarity\nwindow = -3\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg))
    with pytest.raises(ConfigError):
        run_suite("unitarity", {"window": -3})
    assert main(["verify", "config", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_out_file_holds_every_report(tmp_path, capsys):
    out_file = tmp_path / "all.json"
    cfg = tmp_path / "two.conf"
    cfg.write_text("suites = jform, intertwiner\nwindow = 1\n")
    assert main(["verify", "config", "--config", str(cfg),
                 "--out", str(out_file)]) == 0
    stdout = capsys.readouterr().out
    assert out_file.read_text() == stdout
    suites = [json.loads(chunk)["suite"]
              for chunk in stdout.replace("}\n{", "}\0{").split("\0")]
    assert suites == ["jform", "intertwiner"]


def test_merge_leaves_its_inputs_alone():
    rep = CheckReport("s", preset="p")
    rep.record("a", True)
    first = _merge([rep], "m", {})
    second = _merge([rep], "m", {})
    assert [c.id for c in rep.checks] == ["a"]
    assert [c.id for c in first.checks] == [c.id for c in second.checks] == ["p::a"]


# -- every suite runs inside the scalar tables' scope --------------------------


def scalar_tables():
    return scalars._values, scalars._products, scalars._sums


def probe_suite(monkeypatch, fail):
    """Register a suite that does scalar work, notes whether the tables
    are live and filled, and then returns a report or raises."""
    seen = []

    def run():
        x = (W * M + U) * (W * M + U)
        seen.append((scalars._live, all(scalar_tables()), x))
        if fail:
            raise ConfigError("the probe suite fails on purpose")
        rep = CheckReport("probe")
        rep.record("squared", x == W * W * M * M + 2 * W * M * U + U * U)
        return rep.finalize()

    monkeypatch.setitem(SUITES, "probe", cli._suite(run))
    return seen


def test_the_scalar_tables_are_empty_after_run_suite(monkeypatch):
    seen = probe_suite(monkeypatch, fail=False)
    assert run_suite("probe").passed
    assert seen[0][:2] == (True, True)
    assert not any(scalar_tables())
    rep = run_suite("hopf-axioms", {"degree": 1})
    assert rep.passed
    assert not any(scalar_tables())


def test_the_scalar_tables_are_empty_after_a_suite_raises(monkeypatch):
    seen = probe_suite(monkeypatch, fail=True)
    with pytest.raises(ConfigError):
        run_suite("probe")
    assert seen[0][:2] == (True, True)
    assert not any(scalar_tables())
    assert not scalars._live


@pytest.mark.parametrize("name, config, direct", [
    ("cocycle", None, lambda: cli._cocycle(2, "left")),
    ("hopf-axioms", {"degree": 2}, lambda: cli._hopf_axioms(2, None)),
], ids=["cocycle", "hopf-axioms-2"])
def test_a_suite_in_the_scope_prints_the_unscoped_bytes(name, config, direct):
    unscoped = direct().to_json()
    assert not any(scalar_tables())
    assert run_suite(name, config).to_json() == unscoped
