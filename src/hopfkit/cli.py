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
from .errors import ConfigError, HopfkitError, UnknownSuite, check_sizes
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

CONFIG_KEYS = ("window", "degree", "preset", "suites", "output")


def _merge(reports, suite_name, params):
    out = CheckReport(suite_name, params=params)
    for rep in reports:
        prefix = rep.preset or rep.suite
        out.checks.extend(CheckEntry(f"{prefix}::{c.id}", c.status, c.law,
                                     c.witness) for c in rep.checks)
        out.params.update({f"{prefix}.{k}": v for k, v in rep.params.items()})
    return out.finalize()


def _check_preset(preset):
    """A preset names one Hopf built-in; with none, hopf-axioms runs all."""
    if preset is not None and preset not in HOPF_NAMES:
        raise ConfigError(f"unknown hopf-axioms preset {preset!r}; choose "
                          f"from {', '.join(HOPF_NAMES)}")


def _suite_hopf_axioms(cfg):
    degree = cfg.get("degree", 4)
    preset = cfg.get("preset")
    _check_preset(preset)
    names = HOPF_NAMES if preset is None else [preset]
    return _merge([verify_hopf(builtin(n), degree) for n in names],
                  "hopf-axioms", {"degree": degree})


def _functional(cfg, form, window, side):
    """Quasi-invariance of nu_w under the Galilei weight in one form."""
    return quasi_invariance_check(nu_w_functional(), galilei_weight(),
                                  degree=cfg.get("degree", 2),
                                  window=cfg.get("window", window),
                                  form=form, side=side)


def _suite_cocycle(cfg):
    rep = cocycle_check(galilei_weight(), cfg.get("degree", 2),
                        side=cfg.get("side", "left"))
    recurrence_report(8, rep)
    return _merge([rep, coboundary_vanishing_report()],
                  "cocycle", dict(rep.params))


def _suite_mirror_right(cfg):
    reports = [
        mirror_right_report(galilei_subgroup(), cfg.get("degree", 3)),
        cocycle_check(galilei_weight(), cfg.get("degree", 2), side="right"),
        _functional(cfg, "def", 4, "right"),
        _functional(cfg, "lemma", 4, "right"),
    ]
    return _merge(reports, "mirror-right", {"degree": cfg.get("degree", 3)})


# suite name -> callable(cfg); each row holds that suite's default sizes
SUITES = {
    "hopf-axioms": _suite_hopf_axioms,
    "pairing": lambda cfg: pairing_report(law_degree=cfg.get("degree", 1)),
    "homogeneous-space": lambda cfg: homogeneous_space_report(
        galilei_subgroup(), cfg.get("degree", 4), cfg.get("side", "left")),
    "coisotropic": lambda cfg: subgroup_report(galilei_subgroup(),
                                               cfg.get("degree", 3)),
    "functional-def": lambda cfg: _functional(cfg, "def", 5,
                                              cfg.get("side", "left")),
    "functional-lemma": lambda cfg: _functional(cfg, "lemma", 5,
                                                cfg.get("side", "left")),
    "cocycle": _suite_cocycle,
    "essential-invariance": lambda cfg: essential_invariance_report(
        galilei_weight(), cfg.get("window", 8)),
    "relations": lambda cfg: relations_report(cfg.get("window", 5)),
    "unitarity": lambda cfg: unitarity_report(cfg.get("window", 5)),
    "jform": lambda cfg: jform_report(cfg.get("window", 5)),
    "intertwiner": lambda cfg: intertwiner_report(cfg.get("window", 4)),
    "ind-generic": lambda cfg: ind_generic_report(galilei_subgroup(),
                                                  cfg.get("degree", 3)),
    "mirror-right": _suite_mirror_right,
}


def _check_suite(name):
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from "
                           + ", ".join(sorted(SUITES)))


def run_suite(name: str, config: dict | None = None) -> CheckReport:
    """Run one registered verification suite with the given configuration."""
    _check_suite(name)
    cfg = dict(config or {})
    check_sizes(window=cfg.get("window"), degree=cfg.get("degree"))
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
                if key not in CONFIG_KEYS:
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
    for key in ("degree", "window", "preset", "side"):
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    # reject the whole command before any report is printed
    if args.suite == "config":
        if "suites" not in cfg:
            raise ConfigError("verify config needs a 'suites' key in "
                              "its --config file")
        names = [s.strip() for s in cfg["suites"].split(",") if s.strip()]
    elif "suites" in cfg:
        raise ConfigError(f"the config's 'suites' key is read by verify "
                          f"config only, not by verify {args.suite}")
    else:
        names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        _check_suite(name)
    _check_preset(cfg.get("preset"))
    if "preset" in cfg and "hopf-axioms" not in names:
        raise ConfigError("a preset selects the structure of hopf-axioms, "
                          "which is not among the suites to run")
    status = 0
    with _open_out(args.out or cfg.get("output")) as out:
        for name in names:
            rep = run_suite(name, cfg)
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
