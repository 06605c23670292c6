"""Check reports shared by validators, identity suites and the CLI.

Reports hold only JSON-ready values (strings, ints, bools, lists, dicts)
so that serialization is canonical and byte-stable for fixed inputs.

Every seeded check runs through one of two loops.  `first_failure`
stops at the first case with a witness and keeps that witness as the
check's details; it draws its cases lazily, so nothing is drawn after a
failure.  `Report.first_failure` records its verdict as a check, and the
L-infinity checkers of `linf` return it.  `Report.tally` runs every case
and records the number of instances, the failure count and the first
witness.  Both fail a check that ran zero cases, so no check passes
vacuously.  `witness_unless` builds the witness of one case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)
    # informational entries report on something without gating the run
    gating: bool = True

    def to_json(self):
        out = {"name": self.name, "ok": self.ok}
        if not self.gating:
            out["informational"] = True
        if self.details:
            out["details"] = self.details
        return out


def first_failure(cases, witness_of) -> tuple[bool, dict]:
    """Check that witness_of(*case) is None on every case, stopping at the
    first case where it is not; (ok, details), the details being that
    case's witness, {"instances": 0} when no case ran and {} on a pass."""
    instances = 0
    for case in cases:
        instances += 1
        witness = witness_of(*case)
        if witness is not None:
            return False, witness
    return (True, {}) if instances else (False, {"instances": 0})


@dataclass
class Report:
    title: str
    meta: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, ok: bool, gating: bool = True, **details) -> CheckResult:
        result = CheckResult(name, bool(ok), details, gating)
        self.checks.append(result)
        return result

    def first_failure(self, name: str, cases, witness_of) -> CheckResult:
        """Record the verdict of `first_failure` as the check `name`."""
        ok, details = first_failure(cases, witness_of)
        return self.add(name, ok, **details)

    def tally(self, name: str, cases, witness_of, gating: bool = True,
              count_key: str = "failures") -> CheckResult:
        """Run witness_of(*case) on every case; record the instances, the
        number of witnesses under count_key and the first witness."""
        instances = failures = 0
        first = None
        for case in cases:
            instances += 1
            witness = witness_of(*case)
            if witness is not None:
                failures += 1
                if first is None:
                    first = witness
        details = {"instances": instances, count_key: failures}
        if first is not None:
            details["witness"] = first
        return self.add(name, instances > 0 and not failures, gating=gating, **details)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks if c.gating)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.gating and not c.ok]

    def to_json(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "meta": self.meta,
            "checks": [c.to_json() for c in self.checks],
        }


def witness_unless(holds: bool, **elems) -> dict | None:
    """None when a law holds on a case, else its witness: the repr of each
    named element, element by element for a list."""
    if holds:
        return None
    return {k: [repr(x) for x in v] if isinstance(v, list) else repr(v)
            for k, v in elems.items()}


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, one newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
