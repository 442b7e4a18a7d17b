"""Workload inputs, the program calls they make, and exact-output gates.

A workload spec is a small JSON-able dict; ``child.py`` turns it into a
list of items, calls the program once per item (the timed part) and
then judges the outputs (untimed).  Every item is a closed-loop call:
the next one starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

# Every suite of `hopfkit verify`, each a call of its own, in the order
# `verify all` runs them and in one process, so later suites reuse the
# caches earlier ones filled, as they do under `verify all`.  Parameters
# are the defaults except hopf-axioms, which runs at --degree 3: at its
# default degree 4 it is one 10-15 s call, longer than the stretches at
# constant speed that a shared host gives, so its time could not be
# measured steadily.
SUITE_ARGS = {"hopf-axioms": ["--degree", "3"]}

# Check counts of each suite with those parameters, pinned at the commit
# that defined this benchmark (13,202 in total).  A run that records
# fewer checks has not done the same work, so each missing or extra check
# counts as a failed verdict, never as a speed-up.
SUITE_CHECKS = {
    "cocycle": 2941,
    "coisotropic": 100,
    "essential-invariance": 8,
    "functional-def": 561,
    "functional-lemma": 561,
    "homogeneous-space": 36,
    "hopf-axioms": 1550,
    "ind-generic": 62,
    "intertwiner": 117,
    "jform": 143,
    "mirror-right": 3477,
    "pairing": 2821,
    "relations": 99,
    "unitarity": 726,
}

# At least 100 triples, so that p90 has ten samples beyond it, and few
# enough that a cold repetition stays near 5 s and a run holds ten.
WORDS_TRIPLES = 100

WORKLOADS = {
    "verify": {"kind": "verify", "args": SUITE_ARGS, "checks": SUITE_CHECKS},
    "words": {"kind": "words", "triples": WORDS_TRIPLES},
}

# -- words: seeded random expressions -------------------------------------

LETTERS = {
    "uq-g1": ("M", "K", "K^-1", "T", "B"),
    "fq-g1": ("mu", "x", "t", "v"),
    "fq-j": ("muh", "xh", "th"),
    "h0-irr": ("v0", "v1"),
}
# Monomial denominators take the fast reduction in poly_gcd; multi-term
# ones take the general primitive-PRS path.
MONOMIAL_COEFFS = ("1", "2", "-3", "i", "1/w", "i/(2*w)", "1/(w*m)",
                   "-i/(w*m)")
MULTITERM_COEFFS = ("1/(w+m)", "(u-i*w)/(m+1)")


class _Deck:
    """Draws that use every card of the pool once per shuffled round.

    Across seeds the multiset of draws then stays nearly the same and
    only their order changes, so a run's cost depends little on the seed.
    """

    def __init__(self, rng, pool):
        self.rng, self.pool, self.cards = rng, tuple(pool), []

    def draw(self):
        if not self.cards:
            self.cards = list(self.pool)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


def words_inputs(seed, triples):
    """Triples (algebra, a, b, c) of expression strings, fixed by seed.

    The shape of triple k is fixed by k, not drawn: its algebra cycles
    through all four, exactly one of its six terms carries a multi-term
    coefficient (slot and coefficient cycle too), and every expression
    has one term of one letter and one of two.  Free shapes give an
    unbounded cost tail (one h0-irr triple with three multi-term
    coefficients takes seconds), which made a run's time depend on the
    seed more than on the program.

    The monomial coefficients are dealt from a deck shuffled by the seed,
    and the seed shuffles the order of the triples.  The letters are dealt
    from decks with a fixed shuffle: dealt by the seed, the arrangement
    of letters moved the cost of 100 triples by up to 13% between seeds,
    and with fixed letters by 3%.
    """
    rng = random.Random(seed)
    fixed = random.Random(0)
    letters = {alg: _Deck(fixed, pool) for alg, pool in LETTERS.items()}
    coeffs = {(alg, length): _Deck(rng, MONOMIAL_COEFFS)
              for alg in LETTERS for length in (1, 2)}
    algebras = tuple(LETTERS)
    out = []
    for k in range(triples):
        algebra = algebras[k % len(algebras)]
        shape = k // len(algebras)
        multi_slot = shape % 6
        multi_coeff = MULTITERM_COEFFS[(shape // 6) % len(MULTITERM_COEFFS)]
        exprs = []
        for e in range(3):
            terms = []
            for t in range(2):
                slot = 2 * e + t
                length = 1 + (shape + slot) % 2
                coeff = (multi_coeff if slot == multi_slot
                         else coeffs[algebra, length].draw())
                word = " ".join(letters[algebra].draw() for _ in range(length))
                terms.append(f"{coeff}*{word}")
            exprs.append(" + ".join(terms))
        out.append((algebra, *exprs))
    rng.shuffle(out)
    return out


# -- items, calls and verdicts ----------------------------------------------


def items(spec, seed):
    """The inputs of one repetition, in call order."""
    if spec["kind"] == "words":
        return words_inputs(seed, spec["triples"])
    return sorted(spec["checks"])


def call(hk, spec, item):
    """Run the program on one item; this is the timed part."""
    kind = spec["kind"]
    if kind == "verify":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = hk.cli.main(["verify", item, *spec["args"].get(item, ())])
        return rc, buf.getvalue()
    if kind == "words":
        algebra, a, b, c = item
        parse, show = hk.parser.parse, hk.parser.print_element
        A, B, C = (parse(s, algebra) for s in (a, b, c))
        abc = (A * B) * C
        associative = abc == A * (B * C)
        round_trip = all(parse(show(e), algebra) == e for e in (A, B, C, abc))
        concatenated = parse(f"({a})({b})({c})", algebra) == abc
        return associative, round_trip, concatenated
    raise ValueError(f"unknown workload kind {kind!r}")


def verdict(spec, item, output):
    """(attempted, failed, problems) for one item's output; untimed.

    An output that is a string is the traceback of a call that raised:
    every verdict the call should have given fails.
    """
    kind = spec["kind"]
    if kind == "verify":
        pinned = {item: spec["checks"][item]}
        if isinstance(output, str):
            return pinned[item], pinned[item], [output]
        rc, text = output
        return _verify_verdict(pinned, rc, text)
    if kind == "words":
        ok = not isinstance(output, str) and all(output)
        return 1, 0 if ok else 1, [] if ok else [f"{item}: {output}"]
    raise ValueError(f"unknown workload kind {kind!r}")


def _verify_verdict(pinned, rc, text):
    seen = {}
    decoder = json.JSONDecoder()
    pos, end = 0, len(text)
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        if pos == end:
            break
        doc, pos = decoder.raw_decode(text, pos)
        seen[doc["suite"]] = (doc["counts"], doc["status"] == "pass")
    attempted, failed, problems = _count_verdict(pinned, seen)
    if rc != 0:
        problems.append(f"exit code {rc}")
        failed = max(failed, 1)
    return attempted, failed, problems


def _count_verdict(pinned, seen):
    """Compare (counts, passed) per suite with the pinned check counts.

    Failed checks, missing checks and extra checks all count as failed
    verdicts; a suite that did not report fails all its pinned checks.
    """
    attempted = failed = 0
    problems = []
    for suite in sorted(set(pinned) | set(seen)):
        want = pinned.get(suite, 0)
        if suite not in seen:
            attempted += want
            failed += want
            problems.append(f"{suite}: no report")
            continue
        counts, passed = seen[suite]
        total = sum(counts.values())
        bad = counts.get("fail", 0) + counts.get("skipped", 0) + abs(total - want)
        if not passed:
            bad = max(bad, 1)
        attempted += max(total, want)
        failed += bad
        if bad:
            problems.append(f"{suite}: {counts} against {want} pinned checks")
    return attempted, failed, problems
