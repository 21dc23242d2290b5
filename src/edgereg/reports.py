"""Machine-readable reports for verification runs.

A violation is a small dict {graph6, s, lhs, rhs, context} that is enough
to replay the failing check; only the first MAX_STORED_VIOLATIONS are kept
verbatim, the rest are counted.  A report passes exactly when its total
violation count is zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

MAX_STORED_VIOLATIONS = 50


@dataclass
class SuiteReport:
    suite: str
    graphs_tested: int = 0
    violations: list[dict] = field(default_factory=list)
    violations_total: int = 0
    wall_time: float = 0.0
    conjecture: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations_total == 0

    def add_violation(self, graph6: str, s: int | None, lhs, rhs, context: str) -> None:
        self.violations_total += 1
        if len(self.violations) < MAX_STORED_VIOLATIONS:
            self.violations.append(
                {"graph6": graph6, "s": s, "lhs": lhs, "rhs": rhs, "context": context})

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "graphs_tested": self.graphs_tested,
            "violations": self.violations,
            "violations_total": self.violations_total,
            "wall_time": self.wall_time,
            "pass": self.passed,
            "conjecture": self.conjecture,
            "notes": self.notes,
        }
