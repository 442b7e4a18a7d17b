"""Machine-readable outcome of one verification suite."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

TOOL_VERSION = "0.1.0"


def dumps(payload: dict) -> str:
    """Exactly the text of json.dumps(payload, indent=2), for str keys.

    json.dumps uses its pure-Python encoder whenever an indent is given.
    A report's text is nearly all its "checks" list, dicts of str as
    CheckReport.to_dict makes them, so that list is written here with the
    C string encoder.  Every other value goes through json.dumps and is
    indented by hand: encoded JSON holds no raw newline (one inside a
    string is escaped), so indenting is a replace.
    """
    rows = []
    for key, value in payload.items():
        if key == "checks" and value:
            text = "[\n    " + ",\n    ".join([
                "{\n      " + ",\n      ".join([
                    _quote(k) + ": " + _quote(v) for k, v in check.items()])
                + "\n    }" for check in value]) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        rows.append(f"  {_quote(key)}: {text}")
    return "{\n" + ",\n".join(rows) + "\n}"


@dataclass
class CheckEntry:
    id: str
    status: str  # pass | fail
    law: str = ""  # which identity was checked
    witness: str | None = None


@dataclass
class CheckReport:
    suite: str
    preset: str = ""
    params: dict = field(default_factory=dict)
    checks: list[CheckEntry] = field(default_factory=list)

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

    def to_dict(self):
        self.finalize()
        return {
            "tool_version": TOOL_VERSION,
            "suite": self.suite,
            "preset": self.preset,
            "params": dict(sorted(self.params.items())),
            "status": "pass" if self.passed else "fail",
            "counts": self.counts,
            "checks": [
                {"id": c.id, "status": c.status, "law": c.law}
                if c.witness is None else {"id": c.id, "status": c.status,
                                           "law": c.law, "witness": c.witness}
                for c in self.checks
            ],
        }
