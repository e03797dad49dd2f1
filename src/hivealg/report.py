"""Small shared result types for verification routines."""

from __future__ import annotations

from typing import NamedTuple


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (pinned data and computation disagree)."""


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"{status}  {self.name}" + (f": {self.detail}" if self.detail else "")


def failures(results: list[CheckResult]) -> list[CheckResult]:
    return [r for r in results if not r.ok]
