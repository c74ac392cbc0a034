"""Evaluation modes: which truth relation a query uses."""

from __future__ import annotations

from enum import Enum

from .errors import shown


class EvalMode(Enum):
    """The five truth relations.

    COMMON        single shared interpretation; truth is agent-independent.
    OUTERMOST     probability arguments are read with the interpretation of
                  the agent on the left of the judgment (agents unaware that
                  others may interpret differently).
    INNERMOST     probability arguments are read with the believing agent's
                  own interpretation (agents aware of possible differences).
    OUTERMOST_AI  information cells are described by signal formulas; the
                  outer agent conditions every agent's prior on her own
                  reading of the signal.
    INNERMOST_AI  as above, but each agent's prior is conditioned on that
                  agent's own reading of his signal.
    """

    COMMON = "common"
    OUTERMOST = "ou"
    INNERMOST = "in"
    OUTERMOST_AI = "ou-ai"
    INNERMOST_AI = "in-ai"

    @classmethod
    def parse(cls, text: str) -> "EvalMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError("unknown mode %s (use one of %s)"
                         % (shown(text), ", ".join(m.value for m in cls)))

    def __init__(self, value):
        # Plain attributes, not properties: the evaluator reads them on
        # every cache key.  ``innermost_scope``: probability formulas are
        # agent-independent in these modes.
        self.is_ai = value.endswith("-ai")
        self.innermost_scope = value in ("in", "in-ai")

    __hash__ = object.__hash__  # by identity: each mode is one object

    def __str__(self) -> str:
        return self.value
