"""Structured pass/fail records for cross-verification runs."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check: it passes iff ``detail``, the check's
    counterexample, is ``None``."""

    check: str
    params: dict[str, object] = field(default_factory=dict)
    detail: str | None = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.detail is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "status": self.status,
            "detail": self.detail,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
