"""hopfkit command line: suite runner, evaluator, pairing, matrix dumps.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .coiso import galilei_subgroup, homogeneous_space, homogeneous_space_report, subgroup_report
from .errors import (ConfigError, HopfkitError, UnknownSuite, check_choice,
                     check_sizes)
from .hopf import BUILTIN_NAMES, HOPF_NAMES, builtin, verify_hopf
from .induce import (
    galilei_basis,
    galilei_rep,
    ind_generic_report,
    intertwiner_report,
    jform_report,
    mirror_right_report,
    relations_report,
    unitarity_report,
)
from .parser import parse, print_element
from .pairing import engine, pairing_report
from .quasiinv import (
    cocycle_check,
    coboundary_vanishing_report,
    essential_invariance_report,
    galilei_weight,
    nu_w_functional,
    quasi_invariance_check,
    recurrence_report,
)
from .report import CheckEntry, CheckReport
from .scalars import _shared_values

# the settings a suite may read, in the order an unread one is reported:
# verify's flags, and with suites and output the keys of a config file
SETTINGS = ("preset", "degree", "window", "side")


def _merge(reports, suite_name, params):
    out = CheckReport(suite_name, params=params)
    for rep in reports:
        prefix = rep.preset or rep.suite
        out.checks.extend(CheckEntry(f"{prefix}::{c.id}", c.status, c.law,
                                     c.witness) for c in rep.checks)
        out.params.update({f"{prefix}.{k}": v for k, v in rep.params.items()})
    return out.finalize()


def _suite(run, **defaults):
    """A suite of the table: run takes the config keys named in defaults,
    each read from the config or else given its default.  These are the
    keys the suite reads, kept on it as reads.  The suite runs inside the
    scalar tables' scope, which ends with it."""
    def suite(cfg):
        with _shared_values():
            return run(**{k: cfg.get(k, d) for k, d in defaults.items()})
    suite.reads = frozenset(defaults)
    return suite


def _hopf_axioms(degree, preset):
    names = HOPF_NAMES if preset is None else [preset]
    return _merge([verify_hopf(builtin(n), degree) for n in names],
                  "hopf-axioms", {"degree": degree})


def _functional(form, degree, window, side):
    """Quasi-invariance of nu_w under the Galilei weight in one form."""
    return quasi_invariance_check(nu_w_functional(), galilei_weight(),
                                  degree, window, form, side)


def _cocycle(degree, side):
    rep = cocycle_check(galilei_weight(), degree, side=side)
    recurrence_report(8, rep)
    return _merge([rep, coboundary_vanishing_report()],
                  "cocycle", dict(rep.params))


def _mirror_right(degree, window):
    """The right generic checks at degree, 3 when unset, and the right
    cocycle and quasi-invariance checks at degree, 2 when unset."""
    law_degree = 2 if degree is None else degree
    degree = 3 if degree is None else degree
    reports = [
        mirror_right_report(galilei_subgroup(), degree),
        cocycle_check(galilei_weight(), law_degree, side="right"),
        _functional("def", law_degree, window, "right"),
        _functional("lemma", law_degree, window, "right"),
    ]
    return _merge(reports, "mirror-right", {"degree": degree})


# suite name -> callable(cfg); each row names the config keys its suite
# reads, with their defaults
SUITES = {
    "hopf-axioms": _suite(_hopf_axioms, degree=4, preset=None),
    "pairing": _suite(lambda degree: pairing_report(law_degree=degree),
                      degree=1),
    "homogeneous-space": _suite(
        lambda degree, side: homogeneous_space_report(galilei_subgroup(),
                                                      degree, side),
        degree=4, side="left"),
    "coisotropic": _suite(
        lambda degree: subgroup_report(galilei_subgroup(), degree), degree=3),
    "functional-def": _suite(functools.partial(_functional, "def"),
                             degree=2, window=5, side="left"),
    "functional-lemma": _suite(functools.partial(_functional, "lemma"),
                               degree=2, window=5, side="left"),
    "cocycle": _suite(_cocycle, degree=2, side="left"),
    "essential-invariance": _suite(
        lambda window: essential_invariance_report(galilei_weight(), window),
        window=8),
    "relations": _suite(relations_report, window=5),
    "unitarity": _suite(unitarity_report, window=5),
    "jform": _suite(jform_report, window=5),
    "intertwiner": _suite(intertwiner_report, window=4),
    "ind-generic": _suite(
        lambda degree: ind_generic_report(galilei_subgroup(), degree),
        degree=3),
    "mirror-right": _suite(_mirror_right, degree=None, window=4),
}


def _check_run(names, cfg):
    """Refuse, before any suite runs, a run of the suites in names with
    the settings of cfg: an unknown suite, a negative size, an unknown
    preset or side, or a setting that none of the suites reads."""
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(f"unknown suite {name!r}; choose from "
                               + ", ".join(sorted(SUITES)))
    check_sizes(window=cfg.get("window"), degree=cfg.get("degree"))
    preset = cfg.get("preset")
    if preset is not None and preset not in HOPF_NAMES:
        raise ConfigError(f"unknown hopf-axioms preset {preset!r}; choose "
                          f"from {', '.join(HOPF_NAMES)}")
    check_choice("side", cfg.get("side", "left"))
    for key in SETTINGS:
        if key in cfg and not any(key in SUITES[n].reads for n in names):
            raise ConfigError(
                "a preset selects the structure of hopf-axioms, which is "
                "not among the suites to run" if key == "preset" else
                f"no suite to run reads {key}: {', '.join(names)}")


def run_suite(name: str, config: dict | None = None) -> CheckReport:
    """Run one registered verification suite with the given configuration,
    a dict whose keys are among SETTINGS."""
    cfg = dict(config or {})
    for key in cfg:
        if key not in SETTINGS:
            raise ConfigError(f"unknown setting {key!r}; choose from "
                              + ", ".join(SETTINGS))
    _check_run([name], cfg)
    return SUITES[name](cfg)


def load_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in SETTINGS + ("suites", "output"):
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                cfg[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for key in ("window", "degree"):
        if key in cfg:
            try:
                cfg[key] = int(cfg[key])
            except ValueError as exc:
                raise ConfigError(f"{key} must be an integer") from exc
    check_sizes(window=cfg.get("window"), degree=cfg.get("degree"))
    return cfg


def _open_out(path: str | None):
    """The --out file opened for writing, or a context yielding None."""
    if not path:
        return contextlib.nullcontext()
    return open(path, "w", encoding="utf-8")


def _emit(text: str, out):
    """Print text, and write the same text to out if given."""
    print(text)
    if out is not None:
        out.write(text + "\n")


def _cmd_verify(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in SETTINGS}
    cfg.update({key: v for key, v in flags.items() if v is not None})
    # reject the whole command before any report is printed
    if args.suite == "config":
        if "suites" not in cfg:
            raise ConfigError("verify config needs a 'suites' key in "
                              "its --config file")
        names = [s.strip() for s in cfg["suites"].split(",") if s.strip()]
        if not names:
            raise ConfigError("the config's 'suites' key names no suite")
    elif "suites" in cfg:
        raise ConfigError(f"the config's 'suites' key is read by verify "
                          f"config only, not by verify {args.suite}")
    else:
        names = sorted(SUITES) if args.suite == "all" else [args.suite]
    _check_run(names, cfg)
    status = 0
    with _open_out(args.out or cfg.get("output")) as out:
        for name in names:
            rep = SUITES[name](cfg)
            _emit(rep.to_json(), out)
            if not rep.passed:
                status = 1
    return status


def _cmd_eval(args) -> int:
    e = parse(args.expr, args.algebra)
    print(print_element(e))
    return 0


def _cmd_pair(args) -> int:
    X = parse(args.xexpr, "uq-g1")
    a = parse(args.aexpr, "fq-g1")
    print(engine().pair(X, a))
    return 0


def _cmd_matrix(args) -> int:
    window = args.window
    basis = galilei_basis(window)
    cols = [{out: str(c) for (out,), c in galilei_rep(args.op, A).terms.items()}
            for A, _ in basis]
    matrix = [[col.get(out, "0") for col in cols]
              for out in range(-window, window + 1)]
    with _open_out(args.out) as out:
        _emit(json.dumps({
            "operator": args.op,
            "window": window,
            "basis": [label for _, label in basis],
            "matrix": matrix,
        }, indent=2), out)
    return 0


def _cmd_homogeneous_space(args) -> int:
    basis = homogeneous_space(galilei_subgroup(), args.degree, args.side)
    for b in basis:
        print(print_element(b))
    return 0


@functools.cache
def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="hopfkit",
        description="Exact verification engine for the built-in quantum "
                    "Galilei structures")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="suite name, 'all', or 'config' for the "
                                 "suites key of --config")
    p.add_argument("--degree", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--preset")
    p.add_argument("--side", choices=("left", "right"))
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("eval", help="normal-order an expression")
    p.add_argument("--algebra", required=True, choices=BUILTIN_NAMES)
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("pair", help="evaluate the duality pairing")
    p.add_argument("xexpr", help="expression in uq-g1")
    p.add_argument("aexpr", help="expression in fq-g1")
    p.set_defaults(fn=_cmd_pair)

    p = sub.add_parser("matrix", help="dump a Galilei operator on a window")
    p.add_argument("--op", required=True,
                   choices=("K", "Kinv", "B", "T", "M"))
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("homogeneous-space",
                       help="print a basis of the homogeneous-space window")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.set_defaults(fn=_cmd_homogeneous_space)

    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except HopfkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
