"""PASS/FAIL case records, machine-readable verification reports, and the
runner of exhaustive laws."""

from dataclasses import dataclass, field


class Report:
    """One named check: status PASS, FAIL, SKIPPED, or INFO.  The status is
    the one source of truth; a case passed unless it FAILed."""

    def __init__(self, name, passed, details="", witness=None, status=None):
        self.name = name
        self.status = status or ("PASS" if passed else "FAIL")
        self.details = details
        self.witness = witness

    @property
    def passed(self):
        return self.status != "FAIL"

    def as_case(self):
        case = {"name": self.name, "status": self.status, "details": self.details}
        if self.witness is not None:
            case["witness"] = str(self.witness)
        return case

    def __repr__(self):
        return "[%s] %s%s" % (
            self.status,
            self.name,
            (" - " + self.details) if self.details else "",
        )


def first_failure(cases):
    """Read a law's stream of (key, lhs, rhs) cases up to the first case
    whose two sides differ; return the number of cases read and that case,
    or None when every case holds."""
    count = 0
    for case in cases:
        count += 1
        if case[1] != case[2]:
            return count, case
    return count, None


@dataclass
class VerificationReport:
    suite: str
    seed: int
    cases: list = field(default_factory=list)
    runtime_ms: int = 0

    def add(self, report):
        self.cases.append(report)

    @property
    def failed(self):
        return [c for c in self.cases if c.status == "FAIL"]

    @property
    def ok(self):
        return not self.failed

    def to_json(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
            "cases": sorted(
                (c.as_case() for c in self.cases), key=lambda c: c["name"]
            ),
        }
