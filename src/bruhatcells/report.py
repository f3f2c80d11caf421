"""Structured pass/fail records shared by the verification suites."""

from __future__ import annotations

from ._record import Record

__all__ = ["CheckResult", "Report"]


class CheckResult(Record):
    __slots__ = ("subject", "check", "kind", "passed", "witness")
    subject: str        # what was checked, e.g. a Cartan type or class label
    check: str          # short machine-friendly check name
    kind: str           # "EXACT", "SOUND" or "COMPLETE"
    passed: bool
    witness: str | None          # offending element / pair on failure

    def __init__(self, subject, check, kind, passed, witness=None):
        super().__init__(subject, check, kind, passed, witness)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tail = f"  witness={self.witness}" if self.witness else ""
        return f"[{self.kind}] {self.subject} {self.check}: {status}{tail}"

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "check": self.check,
            "kind": self.kind,
            "passed": self.passed,
            "witness": self.witness,
        }


class Report(Record):
    """The results of one suite, in the order they were recorded.

    Most checks state what must be empty and go through ``require``: a check
    passes when it has no offenders, and otherwise its witness is the
    smallest offender as ``fmt`` prints it, so the witness does not depend
    on hash seed or set order.  Checks that compare two values use ``add``
    and give their own witness.
    """

    __slots__ = ("name", "results", "notes")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    name: str
    results: list[CheckResult]
    notes: list[str]

    def __init__(self, name, results=None, notes=None):
        super().__init__(
            name, [] if results is None else results, [] if notes is None else notes
        )

    def add(self, subject, check, kind, passed, witness=None):
        self.results.append(CheckResult(subject, check, kind, bool(passed), witness))

    def require(self, subject, check, kind, offenders, fmt=str):
        witness = min(map(fmt, offenders), default=None)
        self.add(subject, check, kind, witness is None, witness)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failed(self, kinds=None) -> list[CheckResult]:
        return [
            r
            for r in self.results
            if not r.passed and (kinds is None or r.kind in kinds)
        ]

    def to_text(self) -> str:
        lines = [f"# {self.name}"]
        lines += [r.line() for r in self.results]
        lines += [f"note: {n}" for n in self.notes]
        lines.append(f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
            "notes": list(self.notes),
        }
