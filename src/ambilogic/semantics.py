"""Truth evaluation under the five modes; ``Evaluator`` is the only code
that evaluates formulas, and its methods are the evaluation API.  It is
also the only reader of propositional formulas: a query's arguments, the
signals that condition the "-ai" modes, and ``structure.validate_signals``'s
readings all go through ``_ext_core``.  It answers, in every mode, only on
a structure that passes ``structure.validate_core``.

The judgment is "formula f holds at state w according to agent i".  All
modes share the clauses for propositions (the interpreting agent's
reading), negation and conjunction; they differ in how a probability
comparison about agent j is read:

* outermost: j's cell measure is applied to the arguments as read by the
  outer agent i;
* innermost: j's cell measure is applied to the arguments as read by j
  himself (truth is then agent-independent for such formulas);
* the two signal ("-ai") variants condition j's explicit prior on a
  reader's interpretation of j's current signal formula (the conditioning
  event) instead of the cell measure;
* common: one shared interpretation, the classical case; this is also the
  only mode in which indexed propositions ``p@i`` may appear.

Either way j's belief at a state is a ``CellBeliefs`` with a normaliser: a
cell's, with 1, or one over the event holding j's unnormalised prior
masses, with the event's prior mass.  ``_spaces`` tabulates them per
(agent, reader) and is the only code that builds conditioning events;
the comparison clause, ``eb_k``, ``belief_edges`` and common belief all
read that table.  A comparison is decided per space in integers, over the
one denominator of the space's weights; ``Pr_j(f) >= 1``, which is what
``B_j f`` and ``E_G f`` expand to, is decided by ``CellBeliefs.believes``,
the one probability-one test that ``eb_k`` and common belief use too.

Common belief is the conjunction of all finite iterations of "everybody in
the group believes".  It is decided by one backward pass that computes the
states where it fails as a least fixpoint over the spaces of the group's
agents: a space that does not believe the argument fails its states, and a
failing state fails every space whose support contains it.  The work is
linear in the size of the supports; common belief is the complement, a
greatest fixpoint.  In the signal modes a state whose conditional is
undefined for a group agent has no space for that agent; the pass raises
``UndefinedConditional`` for the first such state (in ``states`` order)
unless common belief fails there anyway.  ``eb_k`` provides the finite
iterations independently as an oracle.

A query is checked against the formula's plan (``formula.facts``), which
every ``Evaluator`` shares, and evaluated on an explicit stack; a query
asked again is answered from one dict lookup.
"""

from __future__ import annotations

from fractions import Fraction

from . import formula as fm
from .errors import (
    CoreInvalid,
    MissingSignals,
    ModePrereqMissing,
    UndefinedConditional,
    UnknownAgent,
    UnknownProp,
    UnknownState,
    shown,
)
from .modes import EvalMode
from .reporting import Report
from .structure import (CellBeliefs, Structure, is_common_interpretation,
                        over_one_denominator, validate_core, validate_signals)

__all__ = ["EvalMode", "Evaluator", "disagreements", "valid_in_model"]

# Signal violations that block the innermost signal mode; the outermost one
# needs every signal check to pass.
_A5_KINDS = {"signal-missing", "signal-not-propositional", "signal-cell"}

# Formulas whose extension does not depend on the outer agent in the
# innermost modes.
_AGENT_FREE = (fm.ProbGe, fm.CB)


class Evaluator:
    """Memoizing evaluator bound to one structure.

    Extensions are cached per (formula, mode, interpreting agent); in the
    innermost modes probability and common-belief formulas are cached
    agent-independently since their truth does not depend on the outer
    agent.  An instance validates its structure once, when built, raising
    ``CoreInvalid`` if ``validate_core`` rejects it; reuse one per structure.
    """

    def __init__(self, m: Structure):
        if not (report := validate_core(m)).ok:
            raise CoreInvalid("structure fails core checks: %s" % report,
                              report)
        self.m = m
        self._universe = m.universe
        self._agents = frozenset(m.agents)
        self._props = frozenset(m.props)
        self._answers = {}
        self._prepared = {}
        self._ext = {}
        self._tables = {}
        self._atoms = None
        self._levels = {}
        self._signal_report = None
        self._mode_checked = {}

    # -- preconditions --

    def _require_mode(self, mode: EvalMode) -> None:
        if mode in self._mode_checked:
            problem = self._mode_checked[mode]
            if problem:
                raise ModePrereqMissing(problem)
            return
        problem = None
        if mode is EvalMode.COMMON and not is_common_interpretation(self.m):
            problem = ("common mode needs a common interpretation; "
                       "agents disagree on some proposition")
        elif mode.is_ai:
            if self.m.signals is None:
                raise MissingSignals("mode %s needs per-state signals" % mode)
            if self.m.priors is None:
                problem = "mode %s needs explicit priors" % mode
            else:
                if self._signal_report is None:
                    self._signal_report = validate_signals(self.m, self)
                report = self._signal_report
                relevant = (report.entries
                            if mode is EvalMode.OUTERMOST_AI
                            else [v for v in report.entries
                                  if v.kind in _A5_KINDS])
                if relevant:
                    problem = ("mode %s needs valid signals: %s"
                               % (mode, "; ".join(v.message
                                                  for v in relevant)))
        self._mode_checked[mode] = problem
        if problem:
            raise ModePrereqMissing(problem)

    def _check_query(self, f, mode: EvalMode) -> None:
        """Subset tests on f's facts; an unknown agent or proposition is
        reported by the first in sorted order."""
        facts = fm.facts(f)
        if not facts.agents <= self._agents:
            raise UnknownAgent("formula mentions agent %d, structure has "
                               "1..%d" % (min(facts.agents - self._agents),
                                          self.m.n_agents))
        if not facts.props <= self._props:
            raise UnknownProp("proposition %s not declared"
                              % shown(min(facts.props - self._props)))
        if facts.indexed and mode is not EvalMode.COMMON:
            raise ModePrereqMissing(
                "indexed propositions only evaluate in common mode")

    # -- public API --

    def evaluate(self, state: str, agent: int, f, mode: EvalMode) -> bool:
        if state not in self._universe:
            raise UnknownState("state %s not declared" % shown(state))
        return state in self.extension(agent, f, mode)

    def extension(self, agent: int, f, mode: EvalMode) -> frozenset:
        """The states where f holds as ``agent`` reads it.  A query asked
        before is answered from one dict lookup: the structure, formula,
        mode and agent are the same, so every check would pass again."""
        key = (f, mode, agent)
        got = self._answers.get(key)
        if got is None:
            got = self._answers[key] = self._ext_core(
                agent, self._prepare(f, mode, agent), mode)
        return got

    def prob_value(self, state: str, agent: int, f,
                   mode: EvalMode) -> Fraction:
        """Exact left-hand side of the probability comparison ``f`` at
        ``state`` according to ``agent``: the value that ``extension``
        compares with the bound.  ``f`` must expand to a ``ProbGe``."""
        if state not in self._universe:
            raise UnknownState("state %s not declared" % shown(state))
        core = self._prepare(f, mode, agent)
        if not isinstance(core, fm.ProbGe):
            raise ValueError("not a probability comparison: %s"
                             % fm.print_formula(f))
        j = core.agent
        reader = j if mode.innermost_scope else agent
        coeffs, q = over_one_denominator(t.coeff for t in core.terms)
        exts = [self._ext_core(reader, t.arg, mode) for t in core.terms]
        spaces, _, undefined = self._spaces(j, mode, reader)
        if state in undefined:
            raise self._undefined(j, state, undefined[state])
        for sources, space, mass in spaces:
            if state in sources:
                return Fraction(*self._lhs(coeffs, q, exts, space, mass))

    def common_belief_set(self, group, f, mode: EvalMode,
                          outer: int) -> frozenset:
        group = frozenset(group)
        core = self._prepare(f, mode, *group, outer)
        return self._cb_set(group, core, mode, outer)

    def eb_k(self, group, f, k: int, mode: EvalMode, outer: int) -> frozenset:
        """Extension of the k-fold "everybody in the group believes".

        Level 1 is where every group agent's space believes f as that
        agent's reader reads it, each later level where they all believe
        the previous one.  Levels are kept per (group, formula, mode,
        outer), so a chain k = 1, 2, ... computes each once.  Iterating the
        probability-one clause, never the backward common-belief pass, makes
        this an independent oracle for ``common_belief_set``.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        group = frozenset(group)
        if not group:
            raise ValueError("group must be nonempty")
        core = self._prepare(f, mode, *group, outer)
        levels = self._levels.setdefault((group, core, mode, outer), [])
        while len(levels) < k:
            sets = []
            for j in group:
                reader = j if mode.innermost_scope else outer
                target = (levels[-1] if levels
                          else self._ext_core(reader, core, mode))
                sets.append(frozenset().union(*[
                    sources for sources, space, _
                    in self._defined_spaces(j, mode, reader)
                    if space.believes(target)]))
            levels.append(frozenset.intersection(*sets))
        return levels[k - 1]

    def belief_edges(self, j: int, mode: EvalMode, outer: int) -> frozenset:
        """The pairs (state, state') where agent ``j`` considers state'
        possible (the edges the common-belief pass walks): from each state
        of each of j's spaces to the space's support.  Raises for the first
        state whose conditional is undefined."""
        self.m.check_agents(j, outer)
        self._require_mode(mode)
        reader = j if mode.innermost_scope else outer
        spaces = self._defined_spaces(j, mode, reader)
        return frozenset((s, t) for sources, space, _ in spaces
                         for s in sources for t in space.support())

    # -- internals --

    def _prepare(self, f, mode: EvalMode, *agents):
        """Check a query about ``agents`` once; return f's core formula."""
        key = (f, mode, agents)
        core = self._prepared.get(key)
        if core is None:
            self.m.check_agents(*agents)
            self._require_mode(mode)
            self._check_query(f, mode)
            core = self._prepared[key] = fm.expand(f, self.m.props[0])
        return core

    def _ext_core(self, agent: int, f, mode: EvalMode) -> frozenset:
        """Extension of core formula f as ``agent`` reads it, cached per
        (formula, mode, reading agent); the reader is left out of the key
        where it does not matter.  A miss walks the (reader, subformula)
        pairs in post-order on an explicit stack, not by recursion,
        children left to right as a recursive walk would; a nested common
        belief reads its argument for every group agent before its pass.
        """
        ext = self._ext
        shared = mode is EvalMode.COMMON
        inner = mode.innermost_scope
        key = (f, mode, None if shared or (inner and type(f) in _AGENT_FREE)
               else agent)
        got = ext.get(key)
        if got is not None:
            return got
        # A pair stays on the stack until the extensions its clause reads
        # are cached.
        todo = [(agent, f, key)]
        while todo:
            a, g, k = todo[-1]
            kind = type(g)
            if kind is fm.Not:
                pairs = ((a, g.arg),)
            elif kind is fm.And:
                pairs = ((a, g.left), (a, g.right))
            elif kind is fm.ProbGe:
                reader = g.agent if inner else a
                pairs = [(reader, t.arg) for t in g.terms]
            elif kind is fm.CB:
                pairs = [(j if inner else a, g.arg)
                         for j in sorted(g.group)]
            elif kind is fm.Prop or kind is fm.IndexedProp:
                name = (g.name if kind is fm.Prop
                        else "%s@%d" % (g.name, g.agent))
                ext[k] = self.m.interpretations[a][name]
                todo.pop()
                continue
            else:
                raise TypeError("expand() the formula before evaluation: %r"
                                % (g,))
            read = []
            for b, h in pairs:
                kk = (h, mode, None if shared or (
                    inner and type(h) in _AGENT_FREE) else b)
                got = ext.get(kk)
                if got is None:
                    todo.append((b, h, kk))
                    break
                read.append(got)
            else:
                todo.pop()
                if kind is fm.Not:
                    ext[k] = self._universe - read[0]
                elif kind is fm.And:
                    ext[k] = read[0] & read[1]
                elif kind is fm.ProbGe:
                    spaces = self._defined_spaces(g.agent, mode, reader)
                    if (len(read) == 1 and g.bound == 1
                            and g.terms[0].coeff == 1):  # B_j's expansion
                        held = [sources for sources, space, _ in spaces
                                if space.believes(read[0])]
                    else:
                        (*coeffs, bound), q = over_one_denominator(
                            [*(t.coeff for t in g.terms), g.bound])
                        held = [sources for sources, space, mass in spaces
                                if self._lhs(coeffs, q, read, space, mass,
                                             bound)[0] >= 0]
                    ext[k] = frozenset().union(*held)
                else:
                    ext[k] = self._cb_set(g.group, g.arg, mode, a)
        return ext[key]

    @staticmethod
    def _lhs(coeffs, q, exts, space, mass, bound=0) -> tuple:
        """(numerator, positive denominator) of a comparison's left-hand
        side over ``space`` less its bound, with the coefficients and the
        bound given as numerators over q: coefficients times the weights of
        ``exts``, over q times the space's denominator and normaliser."""
        num = 0
        for c, ext in zip(coeffs, exts):
            num += c * space.weights(ext)
        mn, md = mass.as_integer_ratio()
        den = space.denominator() * mn
        return num * md - bound * den, den * q

    def _spaces(self, j: int, mode: EvalMode, reader: int) -> tuple:
        """Agent j's probability spaces, with j's signals read by
        ``reader`` in the signal modes.

        Returns ``(spaces, containing, undefined)``.  ``spaces`` lists each
        space as (the states it serves, its ``CellBeliefs``, its
        normaliser): in the cell modes each cell with its own space and 1;
        in the signal modes each distinct conditioning event E with a
        space over E that holds j's prior masses, one singleton atom per
        state, and E's prior mass.  ``containing`` maps each state of a
        space to its index (the structure's cell index in the cell modes);
        spaces are cells, or blocks of a partition of the states, once a
        mode's prerequisites pass.  ``undefined`` maps each state whose
        event has prior mass 0 to that event; its first key is the first
        such state in ``states`` order.  Cached per (agent, reader); the
        reader matters only in the signal modes.
        """
        key = (j, reader if mode.is_ai else None)
        got = self._tables.get(key)
        if got is not None:
            return got
        m = self.m
        undefined = {}
        if mode.is_ai:
            served = {}
            for s in m.states:
                event = self.extension(reader, m.signals[j][s],
                                       EvalMode.OUTERMOST)
                served.setdefault(event, []).append(s)
            prior, zero = m.priors[j], Fraction(0)
            atoms = self._atoms
            if atoms is None:  # one per state, shared by every space
                atoms = self._atoms = {s: frozenset([s]) for s in m.states}
            spaces, containing = [], {}
            for event, states in served.items():
                masses = tuple(prior.get(s, zero) for s in event)
                mass = sum(masses, zero)
                if mass == 0:
                    undefined.update(dict.fromkeys(states, event))
                else:
                    containing.update(dict.fromkeys(event, len(spaces)))
                    spaces.append((frozenset(states), CellBeliefs(
                        event, tuple(atoms[s] for s in event), masses), mass))
        else:
            spaces = [(cell, cb, 1)
                      for cell, cb in zip(m.partitions[j], m.beliefs[j])]
            containing = m.cell_indices(j)
        got = self._tables[key] = (spaces, containing, undefined)
        return got

    def _defined_spaces(self, j: int, mode: EvalMode, reader: int) -> list:
        """``_spaces``' list; raises for the first undefined conditional."""
        spaces, _, undefined = self._spaces(j, mode, reader)
        if undefined:
            raise self._undefined(j, *next(iter(undefined.items())))
        return spaces

    def _undefined(self, j: int, state: str,
                   event: frozenset) -> UndefinedConditional:
        sig = self.m.signals[j][state]
        return UndefinedConditional(j, state, fm.print_formula(sig), event)

    def _cb_set(self, group, f, mode: EvalMode, outer: int) -> frozenset:
        """States where the group's common belief in f holds.

        Common belief fails at w iff some (state t, last edge label j) pair
        reachable from w by one or more edges fails the end check: t lies
        outside f as read by the outer agent in the outermost-style modes
        and by j in the innermost-style modes.  The failing states are a
        least fixpoint, found by one backward pass over the ``_spaces``
        tables of the group's agents: first the states of every j-space
        that does not believe f's reading for j (``believes`` is the end
        check, so a coarse cell that cannot measure that reading raises
        ``NotMeasurable`` as ``B_j`` does); then, each time a state fails,
        every space whose support contains it fails, and with it the
        space's states.  Each space is marked at most once, so the work is
        linear in the total size of the supports.

        A state whose conditional is undefined for a group agent has no
        space for that agent.  After the pass, the first such state in
        ``states`` order where common belief has not already failed raises
        its ``UndefinedConditional``.
        """
        if not group:
            raise ValueError("common-belief group must be nonempty")
        bad = set()
        stack = []

        def fail(states):
            new = states - bad
            bad.update(new)
            stack.extend(new)

        graphs = []
        undefined = {}
        for j in sorted(group):
            reader = j if mode.innermost_scope else outer
            spaces, containing, undef = self._spaces(j, mode, reader)
            holds = self._ext_core(reader, f, mode)
            failed = [not space.believes(holds) for _, space, _ in spaces]
            for (sources, _, _), dead in zip(spaces, failed):
                if dead:
                    fail(sources)
            graphs.append((spaces, containing, failed))
            for s, event in undef.items():
                undefined.setdefault(s, (j, event))
        while stack:
            t = stack.pop()
            for spaces, containing, failed in graphs:
                b = containing.get(t)
                if (b is not None and not failed[b]
                        and t in spaces[b][1].support()):
                    failed[b] = True
                    fail(spaces[b][0])
        if undefined:
            for s in self.m.states:
                if s in undefined and s not in bad:
                    j, event = undefined[s]
                    raise self._undefined(j, s, event)
        return self._universe - bad


def disagreements(left: Evaluator, right: Evaluator, pairs):
    """Yield ``(pair, left's answer, right's answer)`` for each pair, in
    order, that ``left`` and ``right`` answer differently.  A pair is a
    query to each, ``(state, agent, formula, mode)``, answered through the
    evaluator's cached ``extension``."""
    for pair in pairs:
        (s, i, f, mode), (t, j, g, other) = pair
        on_left = s in left.extension(i, f, mode)
        on_right = t in right.extension(j, g, other)
        if on_left != on_right:
            yield pair, on_left, on_right


def valid_in_model(m: Structure, f, mode: EvalMode) -> Report:
    """Check whether f holds at every state according to every agent; the
    report carries the first failing (state, agent) pair otherwise."""
    report = Report()
    ev = Evaluator(m)
    for state in m.states:
        for agent in m.agents:
            if not ev.evaluate(state, agent, f, mode):
                report.add(
                    "not-valid",
                    "fails at state %s according to agent %d" % (state, agent),
                    state=state, agent=agent,
                    formula=fm.print_formula(f), mode=mode.value)
                return report
    return report
