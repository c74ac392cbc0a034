"""Syntax of the multi-agent epistemic probability language.

The core language is built from primitive propositions, negation,
conjunction, linear probability comparisons

    a1*Pr_j(f1) + ... + ak*Pr_j(fk) >= b

with exact rational coefficients (one agent j per comparison), and a
common-belief operator over a nonempty group of agents.  Indexed
propositions ``p@i`` ("agent i's reading of p") extend the core for the
unambiguous target language of the translation module.

On top of the core there are surface abbreviations: ``true``/``false``,
disjunction, implication, biconditional, individual belief ``Bj f``
(probability one), and iterated group belief ``E{..}^k f``.  ``expand``
removes all abbreviations; ``parse`` and ``print_formula`` convert between
text and ASTs and are mutually inverse on ASTs.

The nodes are plain slotted classes on the ``Frozen`` base, which the
package's other value classes share: immutable, and with no code
generated when a class is defined.  Nodes are interned: ``__new__``
returns the live node with the same fields if there is one, so equal
formulas are one object, ``==`` is ``is``, and a node hashes by
identity.  The intern key holds a coefficient or bound as its numerator
and denominator, so no ``Fraction`` is hashed.  Formulas are compiled
once, on the nodes: a node computes its plan, ``facts``, from its
children's when it is built, by the rule of its class, and keeps its
expansion once asked.  Every ``Evaluator`` shares them, and a DAG costs
one step per distinct node.  The parser, printer and ``expand`` recurse
and refuse formulas nested over ``MAX_DEPTH`` (``FormulaTooDeep``).
"""

from __future__ import annotations

import re
import sys
import weakref
from fractions import Fraction
from functools import partial, reduce
from typing import NamedTuple, Union

from .errors import FormulaSyntaxError, FormulaTooDeep, UnknownAgent, shown

__all__ = [
    "Prop", "IndexedProp", "Not", "And", "ProbTerm", "ProbGe", "CB",
    "Or", "Implies", "Iff", "TrueF", "FalseF", "B", "EB",
    "Formula", "SurfaceFormula",
    "parse", "print_formula", "expand", "is_propositional", "subformulas",
    "propositions", "agents_in", "facts", "Facts", "MAX_DEPTH", "check_depth",
]


# --- AST ---

_set = object.__setattr__  # sets a field of a Frozen as it is built


class Frozen:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields`` and in its ``__slots__``
    (a class that must keep a ``__dict__`` declares no slots).  Its
    ``__init__`` sets each field once, with ``_init`` or
    ``object.__setattr__``; a formula node is built by ``__new__``
    instead, and interned (``_Node``).  Later assignment or deletion
    raises ``AttributeError``.  Instances of one class compare and hash by
    their fields (one holding a list or dict does not hash), and ``repr``
    shows them.
    """

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot set or delete field %r of an immutable "
                             "%s" % (name, type(self).__name__))

    __delattr__ = __setattr__

    def _init(self, *values) -> None:
        """Set the fields, in ``_fields`` order, as the object is built."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class _Node(Frozen):
    """Base of the formula nodes.  A node class's ``__new__`` checks and
    normalises its fields and gets the interned node from ``_node``.
    Non-core nodes keep their expansions in ``_expansions``.  Children are
    built first, so nothing recurses however deep a formula nests.  Equal
    nodes are one object, so a node compares and hashes by identity."""

    __slots__ = ("_facts", "_expansions", "__weakref__")

    __eq__ = object.__eq__
    __hash__ = object.__hash__


# The live nodes by intern key (``_node``), each held by a weak reference,
# so that a node nothing else holds is freed: a campaign builds fresh
# formulas on every trial.  A reference's callback, ``_nodes.pop`` of its
# key, runs in C when the node is freed and removes the entry.
_nodes = {}


def _node(key, *values):
    """The node with intern key ``key`` and these field values: the live
    one, or a new one, planned (``_node_facts``) unless it is a
    ``ProbTerm``.  The key is the class followed by values that fix the
    fields, nodes among them: the fields themselves, but a coefficient or
    bound as its numerator and denominator, which hash in C."""
    ref = _nodes.get(key)
    node = None if ref is None else ref()
    if node is None:
        cls = key[0]
        node = object.__new__(cls)
        node._init(*values)
        if cls is not ProbTerm:
            _set(node, "_facts", _node_facts(node))
        _nodes[key] = weakref.ref(node, partial(_nodes.pop, key))
    return node


def _positive(agent: int, token=None) -> int:
    """``agent`` if it is at least 1, else raise ``UnknownAgent``; the
    parser passes the token it read the index from, to name its offset."""
    if agent < 1:
        raise UnknownAgent("agent index must be positive%s" % (
            ": %s" % shown(agent) if token is None else " at offset %d: %s"
            % (token[2], shown(token[1], quoted=False))))
    return agent


def _number(digits: str, offset: int) -> int:
    """The run of ``digits`` at ``offset`` as an int.  Python's ``int``
    reads no run of more digits than its limit
    (``sys.set_int_max_str_digits``); such a run is a syntax error that
    names its length, not echoed."""
    try:
        return int(digits)
    except ValueError:
        raise FormulaSyntaxError(
            offset, {"a number of at most %d digits"
                     % sys.get_int_max_str_digits()},
            "%d digits" % len(digits))


def _rational(value) -> Fraction:
    """``value`` if it is a ``Fraction``, else ``Fraction(value)``."""
    return value if isinstance(value, Fraction) else Fraction(value)


def _group(group, what: str) -> frozenset:
    group = frozenset(int(i) for i in group)
    if not group:
        raise ValueError("%s group must be nonempty" % what)
    _positive(min(group))
    return group


class Prop(_Node):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        return _node((cls, name), name)


class IndexedProp(_Node):
    __slots__ = _fields = ("name", "agent")

    def __new__(cls, name: str, agent: int):
        agent = _positive(agent)
        return _node((cls, name, agent), name, agent)


class Not(_Node):
    __slots__ = _fields = ("arg",)

    def __new__(cls, arg: "SurfaceFormula"):
        return _node((cls, arg), arg)


class _Binary(_Node):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: "SurfaceFormula", right: "SurfaceFormula"):
        return _node((cls, left, right), left, right)


class And(_Binary):
    __slots__ = ()


class ProbTerm(_Node):
    """One summand ``coeff * Pr_agent(arg)`` of a probability comparison."""

    __slots__ = _fields = ("coeff", "agent", "arg")

    def __new__(cls, coeff: Fraction, agent: int, arg: "SurfaceFormula"):
        coeff = _rational(coeff)
        agent = _positive(agent)
        return _node((cls, coeff.numerator, coeff.denominator, agent, arg),
                     coeff, agent, arg)


class ProbGe(_Node):
    """``a1*Pr_j(f1) + ... + ak*Pr_j(fk) >= bound`` with one shared agent j."""

    __slots__ = _fields = ("terms", "bound")

    def __new__(cls, terms: tuple, bound: Fraction):
        terms = tuple(
            t if isinstance(t, ProbTerm) else ProbTerm(*t) for t in terms)
        if not terms:
            raise ValueError("probability comparison needs at least one term")
        if len({t.agent for t in terms}) != 1:
            raise ValueError("all terms of one probability comparison must "
                             "name the same agent")
        bound = _rational(bound)
        return _node((cls, terms, bound.numerator, bound.denominator),
                     terms, bound)

    @property
    def agent(self) -> int:
        return self.terms[0].agent


class CB(_Node):
    """Common belief among a nonempty group of agents."""

    __slots__ = _fields = ("group", "arg")

    def __new__(cls, group: frozenset, arg: "SurfaceFormula"):
        group = _group(group, "common-belief")
        return _node((cls, group, arg), group, arg)


# Surface abbreviations.

class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class TrueF(_Node):
    __slots__ = ()

    def __new__(cls):
        return _node((cls,))


class FalseF(_Node):
    __slots__ = ()

    def __new__(cls):
        return _node((cls,))


class B(_Node):
    """Individual belief: ``B(j, f)`` abbreviates ``Pr_j(f) >= 1``."""

    __slots__ = _fields = ("agent", "arg")

    def __new__(cls, agent: int, arg: "SurfaceFormula"):
        agent = _positive(agent)
        return _node((cls, agent, arg), agent, arg)


class EB(_Node):
    """Iterated group belief: everybody in ``group`` believes, ``power`` deep."""

    __slots__ = _fields = ("group", "power", "arg")

    def __new__(cls, group: frozenset, power: int, arg: "SurfaceFormula"):
        group = _group(group, "group-belief")
        if power < 1:
            raise ValueError("group-belief power must be >= 1")
        return _node((cls, group, power, arg), group, power, arg)


Formula = Union[Prop, IndexedProp, Not, And, ProbGe, CB]
SurfaceFormula = Union[Formula, Or, Implies, Iff, TrueF, FalseF, B, EB]

# The binary operators, for the parser and the printer: symbol, binding
# strength (higher binds tighter) and whether the operator associates right.
_BINARY = {Iff: ("<->", 1, False), Implies: ("->", 2, True),
           Or: ("|", 3, False), And: ("&", 4, False)}


def _children(f) -> list:
    """The subformulas of node ``f``, in evaluation order: each field that
    is a node, and the argument of each term of a comparison's ``terms``."""
    kids = []
    for value in f._values():
        if isinstance(value, _Node):
            kids.append(value)
        elif isinstance(value, tuple):
            kids.extend(t.arg for t in value)
    return kids


# --- Parser ---

_TOKEN_RE = re.compile(
    r"\s+|(?P<nat>[0-9]+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><->|->|>=|<=|[-&|!(){},^@*+/=<>])"
)

_B_RE = re.compile(r"^B([0-9]+)$")
_PR_RE = re.compile(r"^Pr([0-9]+)$")


class _Parser:
    """Recursive-descent parser for the grammar below (whitespace free-form).

    formula := iff
    iff     := imp ("<->" imp)*                  (left associative)
    imp     := or ("->" or)*                     (right associative)
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "B" NAT unary
             | "E" "{" natlist "}" ("^" NAT)? unary
             | "CB" "{" natlist "}" unary | atom
    atom    := IDENT | IDENT "@" NAT | "true" | "false"
             | "(" formula ")" | probcmp
    probcmp := linterm (">="|"<="|"="|">"|"<") rational
    linterm := signedterm ("+" signedterm)*
    signedterm := (rational "*")? "Pr" NAT "(" formula ")"
    rational   := ("-")? NAT ("/" NAT)?
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise FormulaSyntaxError(pos, {"token"}, text[pos])
            if m.lastgroup is not None:
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.pos = self.depth = 0

    def _peek(self, ahead=0):
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def _next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def _fail(self, expected):
        kind, text, offset = self._peek()
        found = text if kind != "end" else "end of input"
        raise FormulaSyntaxError(offset, expected, found)

    def _expect_op(self, op):
        kind, text, _ = self._peek()
        if kind != "op" or text != op:
            self._fail({repr(op)})
        return self._next()

    def _nat(self, what="number"):
        kind, text, offset = self._peek()
        if kind != "nat":
            self._fail({what})
        self._next()
        return _number(text, offset)

    def _agent(self):
        token = self._peek()
        return _positive(self._nat("agent index"), token)

    def parse(self):
        f = self._formula()
        if self._peek()[0] != "end":
            self._fail({"end of input", "operator"})
        return f

    # Binary operators by symbol: binding strength, class, right associative.
    _INFIX = {symbol: (level, cls, right)
              for cls, (symbol, level, right) in _BINARY.items()}

    def _formula(self):
        """Operands and binary operators, folded on a stack in one frame;
        each parenthesis or ``Pr`` argument nests one level deeper."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise FormulaTooDeep("cannot parse a formula nested more than "
                                 "%d deep" % MAX_DEPTH)
        operands, ops = [self._unary()], []
        while True:
            op = self._INFIX.get(self._peek()[1], (0, None, False))
            # Fold what binds tighter, or as tight and associates left.
            while ops and ops[-1][0] >= op[0] + op[2]:
                operands[-2:] = [ops.pop()[1](*operands[-2:])]
            if op[1] is None:
                self.depth -= 1
                return operands[0]
            self._next()
            ops.append(op)
            operands.append(self._unary())

    def _unary(self):
        # Prefix operators are read in a loop, not by recursion, and
        # applied innermost first.
        prefixes = list(iter(self._prefix, None))
        f = self._atom()
        for wrap in reversed(prefixes):
            f = wrap(f)
        return f

    def _prefix(self):
        """Consume one prefix operator; return its constructor, or None."""
        token = kind, text, offset = self._peek()
        if kind == "op" and text == "!":
            self._next()
            return Not
        if kind == "ident":
            m = _B_RE.match(text)
            if m:
                self._next()
                return partial(B, _positive(
                    _number(m.group(1), offset + 1), token))
            if text in ("E", "CB") and self._peek(1)[:2] == ("op", "{"):
                self._next()
                group = self._natlist()
                if text == "CB":
                    return partial(CB, group)
                power = 1
                if self._peek()[:2] == ("op", "^"):
                    self._next()
                    at = self._peek()[2]
                    power = self._nat("power")
                    if power < 1:
                        raise FormulaSyntaxError(at, {"power >= 1"},
                                                 str(power))
                return partial(EB, group, power)
        return None

    def _atom(self):
        kind, text, offset = self._peek()
        if kind == "op" and text == "(":
            self._next()
            f = self._formula()
            self._expect_op(")")
            return f
        if kind == "nat" or (kind == "op" and text == "-"):
            return self._probcmp()
        if kind == "ident":
            if text == "true":
                self._next()
                return TrueF()
            if text == "false":
                self._next()
                return FalseF()
            if _PR_RE.match(text):
                return self._probcmp()
            self._next()
            if self._peek()[:2] == ("op", "@"):
                self._next()
                return IndexedProp(text, self._agent())
            return Prop(text)
        self._fail({"formula"})

    def _natlist(self):
        self._expect_op("{")
        agents = {self._agent()}
        while self._peek()[:2] == ("op", ","):
            self._next()
            agents.add(self._agent())
        self._expect_op("}")
        return frozenset(agents)

    def _rational(self):
        sign = 1
        if self._peek()[:2] == ("op", "-"):
            self._next()
            sign = -1
        _, _, offset = self._peek()
        num = self._nat("rational")
        den = 1
        if self._peek()[:2] == ("op", "/"):
            self._next()
            den = self._nat("denominator")
            if den == 0:
                raise FormulaSyntaxError(offset, {"nonzero denominator"}, "0")
        return Fraction(sign * num, den)

    def _signedterm(self):
        kind, text, _ = self._peek()
        coeff = Fraction(1)
        if kind == "nat" or (kind == "op" and text == "-"):
            coeff = self._rational()
            self._expect_op("*")
        token = kind, text, offset = self._peek()
        m = _PR_RE.match(text) if kind == "ident" else None
        if m is None:
            self._fail({"'Pr<agent>('"})
        self._next()
        agent = _positive(_number(m.group(1), offset + 2), token)
        self._expect_op("(")
        arg = self._formula()
        self._expect_op(")")
        return ProbTerm(coeff, agent, arg), offset

    def _probcmp(self):
        first, _ = self._signedterm()
        terms = [first]
        while self._peek()[:2] == ("op", "+"):
            self._next()
            term, offset = self._signedterm()
            if term.agent != first.agent:
                raise FormulaSyntaxError(
                    offset, {"Pr%d term (one agent per comparison)" % first.agent},
                    "Pr%d" % term.agent)
            terms.append(term)
        kind, op, _ = self._peek()
        if kind != "op" or op not in (">=", "<=", "=", ">", "<"):
            self._fail({"comparison operator"})
        self._next()
        bound = self._rational()
        terms = tuple(terms)
        negated = tuple(ProbTerm(-t.coeff, t.agent, t.arg) for t in terms)
        if op == ">=":
            return ProbGe(terms, bound)
        if op == "<=":
            return ProbGe(negated, -bound)
        if op == "=":
            return And(ProbGe(terms, bound), ProbGe(negated, -bound))
        if op == ">":
            return Not(ProbGe(negated, -bound))
        return Not(ProbGe(terms, bound))  # "<"


def parse(text: str) -> SurfaceFormula:
    """Parse formula text into its AST.

    Comparisons other than ``>=`` are sugar and desugar immediately:
    ``t = b`` to ``t >= b & -t >= -b``, ``t > b`` to ``!(-t >= -b)``,
    ``t <= b`` to ``-t >= -b`` and ``t < b`` to ``!(t >= b)``.  Chains of
    prefix operators may be of any length; a formula whose parentheses and
    probability arguments nest over ``MAX_DEPTH`` levels, itself included,
    raises ``FormulaTooDeep``, so all that ``print_formula`` writes parses.
    """
    return _Parser(text).parse()


# --- Printer ---

# Grammar levels used to decide parenthesisation; higher binds tighter.  A
# comparison is parenthesised inside anything else; ``_BINARY`` holds 1-4.
_PROBCMP, _UNARY, _ATOM = 0, 5, 7


def _group_text(group) -> str:
    return "{%s}" % ",".join(str(i) for i in sorted(group))


def _render(f, sugar: bool):
    if sugar and isinstance(f, ProbGe) and len(f.terms) == 1 \
            and f.terms[0].coeff == 1 and f.bound == 1:
        f = B(f.agent, f.terms[0].arg)
    if isinstance(f, Prop):
        return f.name, _ATOM
    if isinstance(f, IndexedProp):
        return "%s@%d" % (f.name, f.agent), _ATOM
    if isinstance(f, TrueF):
        return "true", _ATOM
    if isinstance(f, FalseF):
        return "false", _ATOM
    if isinstance(f, Not):
        return "!" + _wrap(f.arg, _UNARY, sugar), _UNARY
    if isinstance(f, B):
        return "B%d%s" % (f.agent, _modal_arg(f.arg, sugar)), _UNARY
    if isinstance(f, EB):
        power = "^%d" % f.power if f.power != 1 else ""
        return "E%s%s%s" % (_group_text(f.group), power,
                            _modal_arg(f.arg, sugar)), _UNARY
    if isinstance(f, CB):
        return "CB%s%s" % (_group_text(f.group), _modal_arg(f.arg, sugar)), _UNARY
    if type(f) in _BINARY:
        # The operand on the side the operator does not associate to needs
        # parentheses when it binds as loosely as the operator.
        symbol, level, right = _BINARY[type(f)]
        return "%s %s %s" % (_wrap(f.left, level + right, sugar), symbol,
                             _wrap(f.right, level + (not right), sugar)), level
    if isinstance(f, ProbGe):
        parts = []
        for t in f.terms:
            factor = "" if t.coeff == 1 else "%s*" % t.coeff
            parts.append("%sPr%d(%s)" % (factor, t.agent, _wrap(t.arg, 0, sugar)))
        return "%s >= %s" % (" + ".join(parts), f.bound), _PROBCMP
    raise TypeError("not a formula: %r" % (f,))


def _wrap(f, need, sugar):
    text, level = _render(f, sugar)
    return "(" + text + ")" if level < need else text


def _modal_arg(f, sugar):
    text, level = _render(f, sugar)
    if level < _UNARY:
        return "(" + text + ")"
    return " " + text


def print_formula(f: SurfaceFormula, sugar_beliefs: bool = False) -> str:
    """Render a formula as canonical text; ``parse`` inverts it exactly.

    With ``sugar_beliefs`` set, single-term probability-one comparisons are
    rendered in the ``Bj f`` form; the text then parses back to the sugared
    AST, which expands to the original.  A formula nested more than
    ``MAX_DEPTH`` deep raises ``FormulaTooDeep``.
    """
    check_depth(f, "print")
    return _wrap(f, 0, sugar_beliefs)


# --- Per-node facts, abbreviation expansion and syntactic utilities ---

# Deepest nesting the recursive parser, printer and expansion accept: at
# most five interpreter frames a level keep them all inside Python's
# default limit of 1,000.  Comparing two formulas takes any depth.
MAX_DEPTH = 100


class Facts(NamedTuple):
    """What a query check and ``expand`` need to know of a formula: the
    plan of one node, computed once, when the node is built, from its
    children's (``facts``)."""

    agents: frozenset  # every agent index mentioned
    props: frozenset  # proposition names as written, indexed ones as p@i
    indexed: bool  # an indexed proposition occurs
    depth: int  # nesting depth; 1 for an atom
    core: bool  # no abbreviation occurs, so the node is its own expansion


def _union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, sharing an operand that already holds the other."""
    return a if a >= b else b if b >= a else a | b


def _joined(agents: frozenset, kids, core: bool) -> Facts:
    """Facts of a node that names ``agents`` itself, has children ``kids``,
    and is core if ``core`` and every child is core."""
    props, indexed, depth = _NONE, False, 0
    for kid in kids:
        k_agents, k_props, k_indexed, k_depth, k_core = kid._facts
        agents = _union(agents, k_agents)
        props = _union(props, k_props)
        indexed = indexed or k_indexed
        depth = max(depth, k_depth)
        core = core and k_core
    return Facts(agents, props, indexed, depth + 1, core)


_NONE = frozenset()
_CONSTANT = Facts(_NONE, _NONE, False, 1, False)

# Each node class's rule for its facts, from its children's.
_FACTS = {
    Prop: lambda g: Facts(_NONE, frozenset((g.name,)), False, 1, True),
    IndexedProp: lambda g: Facts(frozenset((g.agent,)), frozenset(
        ("%s@%d" % (g.name, g.agent),)), True, 1, True),
    TrueF: lambda g: _CONSTANT,
    FalseF: lambda g: _CONSTANT,
    Not: lambda g: _joined(_NONE, (g.arg,), True),
    And: lambda g: _joined(_NONE, (g.left, g.right), True),
    Or: lambda g: _joined(_NONE, (g.left, g.right), False),
    Implies: lambda g: _joined(_NONE, (g.left, g.right), False),
    Iff: lambda g: _joined(_NONE, (g.left, g.right), False),
    ProbGe: lambda g: _joined(frozenset((g.agent,)),
                              [t.arg for t in g.terms], True),
    CB: lambda g: _joined(g.group, (g.arg,), True),
    B: lambda g: _joined(frozenset((g.agent,)), (g.arg,), False),
    EB: lambda g: _joined(g.group, (g.arg,), False),
}


def _node_facts(g) -> Facts:
    """Facts of node ``g`` from the facts of its children, by the rule of
    its class."""
    return _FACTS[type(g)](g)


def facts(f: SurfaceFormula) -> Facts:
    """The facts of ``f``, computed from its children's when it was built."""
    return f._facts


def check_depth(f, what: str) -> None:
    """Raise ``FormulaTooDeep`` when f nests more than ``MAX_DEPTH`` deep;
    ``what`` names the refused operation."""
    depth = facts(f).depth
    if depth > MAX_DEPTH:
        raise FormulaTooDeep("cannot %s a formula nested %d deep (at most %d)"
                             % (what, depth, MAX_DEPTH))


def expand(f: SurfaceFormula, tautology_prop: str = None) -> Formula:
    """Remove all surface abbreviations, yielding a core formula.

    ``Bj f`` becomes ``Pr_j(f) >= 1``; ``E{G}^k f`` unfolds to the k-fold
    conjunction of individual beliefs; or/implies/iff desugar classically.
    ``true`` becomes "t or not t" for a designated proposition t: the one
    supplied, else the first proposition occurring in the formula, else
    ``p``.  Evaluation always supplies the structure's first declared
    proposition.  Expansion is idempotent: a core formula is returned as
    it is, at any depth; any other nested over ``MAX_DEPTH`` deep raises
    ``FormulaTooDeep``.  Each node keeps its expansion per tautology
    proposition, so shared and repeated work is done once.
    """
    got = facts(f)
    if got.core:
        return f
    check_depth(f, "expand")
    if tautology_prop is None:
        tautology_prop = next((g.name for g in subformulas(f)
                               if isinstance(g, Prop)), "p")
    return _expand(f, tautology_prop)


def belief(agent: int, f) -> ProbGe:
    """``Pr_agent(f) >= 1``, the core form of ``B_agent f``."""
    return ProbGe((ProbTerm(Fraction(1), agent, f),), Fraction(1))


def members_believe(group, reading) -> Formula:
    """The conjunction, in agent order, of each member j's belief in
    ``reading(j)``."""
    return reduce(And, [belief(j, reading(j)) for j in sorted(group)])


def _expand(g, taut: str):
    # A core node is its own expansion and keeps no memo, which would
    # refer to the node itself.
    if g._facts.core:
        return g
    memo = getattr(g, "_expansions", None)
    if memo is None:
        memo = {}
        _set(g, "_expansions", memo)
    out = memo.get(taut)
    if out is not None:
        return out
    if isinstance(g, Not):
        out = Not(_expand(g.arg, taut))
    elif isinstance(g, And):
        out = And(_expand(g.left, taut), _expand(g.right, taut))
    elif isinstance(g, ProbGe):
        out = ProbGe(tuple(ProbTerm(t.coeff, t.agent, _expand(t.arg, taut))
                           for t in g.terms), g.bound)
    elif isinstance(g, CB):
        out = CB(g.group, _expand(g.arg, taut))
    elif isinstance(g, Or):
        out = Not(And(Not(_expand(g.left, taut)),
                      Not(_expand(g.right, taut))))
    elif isinstance(g, Implies):
        out = Not(And(_expand(g.left, taut), Not(_expand(g.right, taut))))
    elif isinstance(g, Iff):
        left, right = _expand(g.left, taut), _expand(g.right, taut)
        out = And(Not(And(left, Not(right))), Not(And(right, Not(left))))
    elif isinstance(g, (TrueF, FalseF)):
        t = Prop(taut)
        out = Not(And(Not(t), Not(Not(t))))
        if isinstance(g, FalseF):
            out = Not(out)
    elif isinstance(g, B):
        out = belief(g.agent, _expand(g.arg, taut))
    elif isinstance(g, EB):
        out = _expand(g.arg, taut)
        for _ in range(g.power):
            out = members_believe(g.group, lambda j: out)
    else:
        raise TypeError("not a formula: %r" % (g,))
    memo[taut] = out
    return out


def is_propositional(f: SurfaceFormula) -> bool:
    """True iff the formula is built from propositions by boolean connectives
    only (no probability comparisons, no common belief, no indexed
    propositions): every one of those names an agent."""
    return not facts(f).agents


def subformulas(f: SurfaceFormula) -> list:
    """Post-order list of the distinct subformulas, the formula itself last.
    Each distinct node is visited once, without recursion."""
    out = []
    seen = set()
    stack = [(f, False)]
    while stack:
        g, done = stack.pop()
        if done:
            out.append(g)
        elif g not in seen:
            seen.add(g)
            stack.append((g, True))
            stack.extend((k, False) for k in reversed(_children(g)))
    return out


def propositions(f: SurfaceFormula) -> frozenset:
    """Proposition names as written, indexed ones in their ``p@i`` form."""
    return facts(f).props


def agents_in(f: SurfaceFormula) -> frozenset:
    """Every agent index the formula mentions."""
    return facts(f).agents
