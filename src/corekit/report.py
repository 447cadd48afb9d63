"""Structured pass/fail records for cross-verification runs."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; failures always carry a concrete witness."""

    check: str
    params: dict[str, object] = field(default_factory=dict)
    status: str = "pass"
    detail: str | None = None
    elapsed_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be 'pass' or 'fail', got {self.status!r}")
        if self.status == "fail" and not self.detail:
            raise ValueError("fail reports must carry a counterexample detail")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "status": self.status,
            "detail": self.detail,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
