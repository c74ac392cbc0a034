"""Structured pass/fail reports used by validators and verifiers."""

from __future__ import annotations


class Violation:
    __slots__ = ("kind", "message", "context")

    def __init__(self, kind: str, message: str, context: dict = None):
        self.kind = kind
        self.message = message
        self.context = {} if context is None else context

    def __repr__(self) -> str:
        return "Violation(kind=%r, message=%r, context=%r)" % (
            self.kind, self.message, self.context)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "context": self.context}


class Report:
    """A list of violations; empty means the checked property holds."""

    __slots__ = ("entries",)

    def __init__(self, entries: list = None):
        self.entries = [] if entries is None else entries

    def __repr__(self) -> str:
        return "Report(entries=%r)" % (self.entries,)

    @property
    def ok(self) -> bool:
        return not self.entries

    def add(self, kind: str, message: str, **context) -> None:
        self.entries.append(Violation(kind, message, context))

    def kinds(self):
        return {v.kind for v in self.entries}

    def extend(self, other: "Report") -> None:
        self.entries.extend(other.entries)

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.entries]}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join("%s: %s" % (v.kind, v.message) for v in self.entries)
