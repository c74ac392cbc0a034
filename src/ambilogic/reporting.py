"""Structured pass/fail reports used by validators and verifiers."""

from __future__ import annotations

from . import formula as fm


class Violation(fm.Frozen):
    __slots__ = _fields = ("kind", "message", "context")

    def __init__(self, kind: str, message: str, context: dict = None):
        self._init(kind, message, {} if context is None else context)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "context": self.context}


class Report(fm.Frozen):
    """A list of violations; empty means the checked property holds."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: list = None):
        self._init([] if entries is None else entries)

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, kind: str, message: str, **context) -> None:
        self.entries.append(Violation(kind, message, context))

    def kinds(self):
        return {v.kind for v in self.entries}

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.entries]}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join("%s: %s" % (v.kind, v.message) for v in self.entries)
