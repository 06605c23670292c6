"""Check reports shared by validators, identity suites and the CLI.

Reports hold only JSON-ready values (strings, ints, bools, lists, dicts)
so that serialization is canonical and byte-stable for fixed inputs.

Every seeded check runs through one of two loops.  `Report.first_failure`
stops at the first case with a witness and keeps that witness as the
check's details; it draws its cases lazily, so nothing is drawn after a
failure.  `Report.tally` runs every case and records the number of
instances, the failure count and the first witness.  Both fail a check
that ran zero cases, so no check passes vacuously.  `witness_unless`
builds the witness of one case.
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
        """Check that witness_of(*case) is None on every case, stopping at
        the first case where it is not; its witness becomes the details."""
        instances = 0
        for case in cases:
            instances += 1
            witness = witness_of(*case)
            if witness is not None:
                return self.add(name, False, **witness)
        if not instances:
            return self.add(name, False, instances=0)
        return self.add(name, True)

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
