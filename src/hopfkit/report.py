"""Machine-readable outcome of one verification suite.

A CheckReport gains its checks through record, one CheckEntry each: a
slot-only record of id, status, law and witness.  Its
printed form is to_json, exactly the text of json.dumps(to_dict(),
indent=2): the check list, nearly all of that text, is written in one
pass over the entries, with no dict built per check.  to_dict gives the
same report as a dict.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

TOOL_VERSION = "0.1.0"

# the fragments of one check entry in json.dumps(..., indent=2) text
_ID = '{\n      "id": '
_STATUS = ',\n      "status": '
_LAW = ',\n      "law": '
_WITNESS = ',\n      "witness": '
_NEXT = "\n    },\n    "


class CheckEntry:
    """One check: its id, status (pass | fail), the identity checked
    (law) and, for a failure, a witness string."""

    __slots__ = ("id", "status", "law", "witness")

    def __init__(self, id, status, law="", witness=None):
        self.id = id
        self.status = status
        self.law = law
        self.witness = witness


class CheckReport:
    """The checks of one suite run, with its preset and parameters."""

    def __init__(self, suite, preset="", params=None, checks=None):
        self.suite = suite
        self.preset = preset
        self.params = {} if params is None else params
        self.checks = [] if checks is None else checks

    def record(self, check_id, ok, law="", witness=None):
        """Append a pass/fail entry; a failing entry must carry a witness.

        witness is a string, or a zero-argument callable returning one.
        A passing entry keeps no witness, so the callable is called only
        when the check fails, and then at once, inside this call: a
        closure over loop variables sees their current values.
        """
        if ok:
            self.checks.append(CheckEntry(check_id, "pass", law))
            return
        if callable(witness):
            witness = witness()
        if witness is None:
            witness = "(no witness supplied)"
        self.checks.append(CheckEntry(check_id, "fail", law, witness))

    @property
    def passed(self):
        """True when no check failed; a report with no checks proves nothing."""
        return bool(self.checks) and all(c.status != "fail" for c in self.checks)

    @property
    def counts(self):
        # "skipped" stays in the report format, always 0
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def finalize(self):
        self.checks.sort(key=lambda c: c.id)
        return self

    def _head(self):
        """The report's fields before its check list, in output order."""
        self.finalize()
        return {
            "tool_version": TOOL_VERSION,
            "suite": self.suite,
            "preset": self.preset,
            "params": dict(sorted(self.params.items())),
            "status": "pass" if self.passed else "fail",
            "counts": self.counts,
        }

    def to_dict(self):
        out = self._head()
        out["checks"] = [
            {"id": c.id, "status": c.status, "law": c.law}
            if c.witness is None else {"id": c.id, "status": c.status,
                                       "law": c.law, "witness": c.witness}
            for c in self.checks
        ]
        return out

    def to_json(self):
        """Exactly the text of json.dumps(self.to_dict(), indent=2).

        The head fields go through json.dumps; the check list, nearly all
        of a report's text, is written here in one pass over the entries,
        with constant key fragments, the C string encoder, and each
        distinct law quoted once, so no dict is built per check.
        """
        head = json.dumps(self._head(), indent=2)  # ends in "\n}"
        if not self.checks:
            return head[:-2] + ',\n  "checks": []\n}'
        laws = {}
        rows = []
        for c in self.checks:
            law = laws.get(c.law)
            if law is None:
                law = laws[c.law] = _quote(c.law)
            row = (_ID + _quote(c.id) + _STATUS + _quote(c.status)
                   + _LAW + law)
            if c.witness is not None:
                row += _WITNESS + _quote(c.witness)
            rows.append(row)
        return (head[:-2] + ',\n  "checks": [\n    '
                + _NEXT.join(rows) + "\n    }\n  ]\n}")
