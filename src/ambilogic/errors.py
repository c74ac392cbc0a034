"""Exception types shared across the package, and ``shown``, which every
message that echoes an input value uses."""

# Characters of an echoed value shown in a message.
ECHOED = 40


def shown(value, quoted=True) -> str:
    """``repr(value)`` for a message, bounded: a string over ``ECHOED``
    characters is cut there, and any other value whose repr is over
    ``ECHOED`` characters has its repr cut there; either way the full
    length follows.  Unless ``quoted``, an uncut string is shown bare."""
    if isinstance(value, str):
        if len(value) <= ECHOED:
            return repr(value) if quoted else value
        return "%r (%d characters)" % (value[:ECHOED] + "...", len(value))
    text = repr(value)
    if len(text) <= ECHOED:
        return text
    return "%s... (%d characters)" % (text[:ECHOED], len(text))


class AmbilogicError(Exception):
    """Base class for all errors raised by this package."""


class FormulaSyntaxError(AmbilogicError):
    """Raised when formula text does not conform to the grammar.

    Carries the character offset of the failure, the set of token kinds
    that would have been accepted there, and the token actually found.
    """

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = frozenset(expected)
        self.found = found
        super().__init__(
            "syntax error at offset %d: expected %s, found %s"
            % (offset, " or ".join(sorted(self.expected)), shown(found))
        )


class FormulaTooDeep(AmbilogicError):
    """A formula nests deeper than the recursive parts of the package
    (parser, printer, abbreviation expansion) support."""


class UnknownAgent(AmbilogicError):
    """An agent index is non-positive or outside the structure's 1..n range."""


class UnknownProp(AmbilogicError):
    """A formula mentions a proposition the structure does not declare."""


class UnknownState(AmbilogicError):
    """A query names a state the structure does not declare."""


class MissingSignals(AmbilogicError):
    """An operation needs per-state signal formulas but none are present."""


class CoreInvalid(AmbilogicError):
    """A structure fails the core validity checks required by an operation.

    ``report`` is the failing ``validate_core`` report, so that a caller
    that shows it need not check the structure again.
    """

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class UndefinedConditional(AmbilogicError):
    """Conditioning on an event of prior probability zero.

    The event may be empty or may simply carry no prior mass; either way
    the conditional belief is undefined and evaluation stops rather than
    defaulting to true or false.
    """

    def __init__(self, agent, state, signal_text, event):
        self.agent = agent
        self.state = state
        self.signal_text = signal_text
        self.event = frozenset(event)
        super().__init__(
            "conditioning event for agent %d at state %s has prior mass 0 "
            "(signal %s denotes {%s})"
            % (agent, state, signal_text, ", ".join(sorted(self.event)))
        )


class ModePrereqMissing(AmbilogicError):
    """The structure does not meet the preconditions of the requested mode."""


class NotMeasurable(AmbilogicError):
    """An event is not a union of algebra atoms of the relevant cell."""


class AlreadyIndexed(AmbilogicError):
    """Translation input already contains indexed propositions."""


class NotCommonInterpretation(AmbilogicError):
    """An operation requires all agents to share one interpretation."""


class ClaimSpecMismatch(AmbilogicError):
    """Equivalence-claim description does not fit the supplied structures."""


class ModelFormatError(AmbilogicError):
    """A structure file or structure value is malformed."""
