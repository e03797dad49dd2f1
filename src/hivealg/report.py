"""Small shared result types for verification routines."""

from __future__ import annotations

from collections import namedtuple


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (pinned data and computation disagree)."""


class CheckResult(namedtuple("CheckResult", "name ok detail", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return f"{status}  {self.name}" + (f": {self.detail}" if self.detail else "")
