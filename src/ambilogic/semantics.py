"""Truth evaluation under the five modes; ``Evaluator`` is the only code
that evaluates formulas, and its methods are the evaluation API.  It is
also the only reader of propositional formulas: a query's arguments, the
signals that condition the "-ai" modes, and ``structure.validate_signals``'s
readings all go through ``_ext_core``.

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
  event, built only by ``_signal_event``) instead of the cell measure;
* common: one shared interpretation, the classical case; this is also the
  only mode in which indexed propositions ``p@i`` may appear.

Every probability value, ``prob_value``'s included, is summed by ``_lhs``.

Common belief is the conjunction of all finite iterations of "everybody in
the group believes".  It is decided by one backward pass that computes the
states where it fails as a least fixpoint over each agent's successor
blocks (a cell support, or a conditioning event in the signal modes), so
the work is linear in the size of the blocks; common belief is the
complement, a greatest fixpoint.  In the signal modes a state whose
conditional is undefined for a group agent has no edges for that agent; the
pass raises ``UndefinedConditional`` for the first such state (in
``states`` order) unless common belief fails there anyway.  ``eb_k``
provides the finite iterations independently as an oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import formula as fm
from .errors import (
    MissingSignals,
    ModePrereqMissing,
    UndefinedConditional,
    UnknownAgent,
    UnknownProp,
    UnknownState,
)
from .modes import EvalMode
from .reporting import Report
from .structure import Structure, is_common_interpretation, validate_signals

__all__ = ["EvalMode", "Evaluator", "valid_in_model"]

# Signal violations that block the innermost signal mode; the outermost one
# needs every signal check to pass.
_A5_KINDS = {"signal-missing", "signal-not-propositional", "signal-cell"}


class Evaluator:
    """Memoizing evaluator bound to one structure.

    Extensions are cached per (formula, mode, interpreting agent); in the
    innermost modes probability and common-belief formulas are cached
    agent-independently since their truth does not depend on the outer
    agent.  Instances are cheap; reuse one per structure in hot loops.
    """

    def __init__(self, m: Structure):
        self.m = m
        self._universe = m.universe
        self._ext = {}
        self._blocks_cache = {}
        self._sig_event = {}
        self._signal_report = None
        self._mode_checked = {}
        self._expanded = {}
        self._query_checked = set()

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
            missing = [i for i in self.m.agents
                       if i not in (self.m.priors or {})]
            if self.m.priors is None:
                problem = "mode %s needs explicit priors" % mode
            elif missing:
                problem = ("mode %s needs a prior for every agent: "
                           "prior-missing for agent %d" % (mode, missing[0]))
            else:
                if self._signal_report is None:
                    self._signal_report = validate_signals(self.m)
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
        key = (f, mode is EvalMode.COMMON)
        if key in self._query_checked:
            return
        for agent in fm.agents_in(f):
            if agent not in self.m.agents:
                raise UnknownAgent("formula mentions agent %d, structure has "
                                   "1..%d" % (agent, self.m.n_agents))
        declared = set(self.m.props)
        for name in fm.propositions(f):
            if name not in declared:
                raise UnknownProp("proposition %r not declared" % name)
        if mode is not EvalMode.COMMON:
            for g in fm.subformulas(f):
                if isinstance(g, fm.IndexedProp):
                    raise ModePrereqMissing(
                        "indexed propositions only evaluate in common mode")
        self._query_checked.add(key)

    # -- public API --

    def evaluate(self, state: str, agent: int, f, mode: EvalMode) -> bool:
        if state not in self._universe:
            raise UnknownState("state %r not declared" % state)
        return state in self.extension(agent, f, mode)

    def extension(self, agent: int, f, mode: EvalMode) -> frozenset:
        return self._ext_core(agent, self._prepare(f, mode, agent), mode)

    def prob_value(self, state: str, agent: int, f,
                   mode: EvalMode) -> Fraction:
        """Exact left-hand side of the probability comparison ``f`` at
        ``state`` according to ``agent``: the value that ``extension``
        compares with the bound.  ``f`` must expand to a ``ProbGe``."""
        if state not in self._universe:
            raise UnknownState("state %r not declared" % state)
        core = self._prepare(f, mode, agent)
        if not isinstance(core, fm.ProbGe):
            raise ValueError("not a probability comparison: %s"
                             % fm.print_formula(f))
        m = self.m
        j = core.agent
        reader, args = self._prob_args(agent, core, mode)
        if mode.is_ai:
            event, mass, _ = self._signal_event(j, state, reader)
            if mass == 0:
                raise self._undefined(j, state, event)
            return self._lhs(args, event, partial(m.prior_mass, j), mass)
        ci = m.cell_index(j, state)
        return self._lhs(args, m.partitions[j][ci], m.beliefs[j][ci].measure)

    def common_belief_set(self, group, f, mode: EvalMode,
                          outer: int) -> frozenset:
        group = frozenset(group)
        core = self._prepare(f, mode, *group, outer)
        return self._cb_set(group, core, mode, outer)

    def eb_k(self, group, f, k: int, mode: EvalMode, outer: int) -> frozenset:
        """Extension of the k-fold "everybody in the group believes".

        Computed by iterating the probability-one clause on sets, never by
        the backward common-belief pass, so it can serve as an independent
        oracle for ``common_belief_set``.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        group = frozenset(group)
        if not group:
            raise ValueError("group must be nonempty")
        core = self._prepare(f, mode, *group, outer)
        if mode.innermost_scope:
            cur = None
            for level in range(k):
                if level == 0:
                    sets = [
                        self._prob_one_states(
                            j, self._ext_core(j, core, mode), mode, outer)
                        for j in group
                    ]
                else:
                    sets = [self._prob_one_states(j, cur, mode, outer)
                            for j in group]
                cur = frozenset.intersection(*sets)
        else:
            cur = self._ext_core(outer, core, mode)
            for _ in range(k):
                cur = frozenset.intersection(
                    *[self._prob_one_states(j, cur, mode, outer)
                      for j in group])
        return cur

    def belief_edges(self, j: int, mode: EvalMode, outer: int) -> frozenset:
        """The pairs (state, state') where agent ``j`` considers state'
        possible (the edges the common-belief pass walks), read off
        ``_blocks``; raises for the first state whose conditional is
        undefined."""
        self.m.check_agents(j)
        self._require_mode(mode)
        reader = j if mode.innermost_scope else outer
        blocks, _, undefined = self._blocks(j, reader if mode.is_ai else None)
        if undefined:
            s = next(iter(undefined))
            raise self._undefined(j, s, undefined[s])
        return frozenset((s, t) for succ, sources in blocks
                         for s in sources for t in succ)

    # -- internals --

    def _prepare(self, f, mode: EvalMode, *agents):
        """Check a query about ``agents`` and return f's core formula."""
        self.m.check_agents(*agents)
        self._require_mode(mode)
        self._check_query(f, mode)
        return self._expand(f)

    def _expand(self, f):
        core = self._expanded.get(f)
        if core is None:
            core = fm.expand(f, self.m.props[0])
            self._expanded[f] = core
        return core

    def _ext_core(self, agent: int, f, mode: EvalMode) -> frozenset:
        if mode is EvalMode.COMMON:
            agent_key = None
        elif mode.innermost_scope and isinstance(f, (fm.ProbGe, fm.CB)):
            agent_key = None
        else:
            agent_key = agent
        key = (f, mode, agent_key)
        cached = self._ext.get(key)
        if cached is not None:
            return cached
        if isinstance(f, fm.Prop):
            try:
                out = self.m.interpretations[agent][f.name]
            except KeyError:
                raise UnknownProp("agent %d does not interpret %r"
                                  % (agent, f.name))
        elif isinstance(f, fm.IndexedProp):
            name = "%s@%d" % (f.name, f.agent)
            try:
                out = self.m.interpretations[agent][name]
            except KeyError:
                raise UnknownProp("agent %d does not interpret %r"
                                  % (agent, name))
        elif isinstance(f, fm.Not):
            out = self._universe - self._ext_core(agent, f.arg, mode)
        elif isinstance(f, fm.And):
            out = (self._ext_core(agent, f.left, mode)
                   & self._ext_core(agent, f.right, mode))
        elif isinstance(f, fm.ProbGe):
            out = self._prob_extension(agent, f, mode)
        elif isinstance(f, fm.CB):
            out = self._cb_set(f.group, f.arg, mode, agent)
        else:
            raise TypeError("expand() the formula before evaluation: %r"
                            % (f,))
        self._ext[key] = out
        return out

    def _prob_extension(self, agent: int, f, mode: EvalMode) -> frozenset:
        m = self.m
        j = f.agent
        reader, args = self._prob_args(agent, f, mode)
        if mode.is_ai:
            measure = partial(m.prior_mass, j)
            return frozenset(self._event_states(
                j, reader, lambda event, mass:
                self._lhs(args, event, measure, mass) >= f.bound))
        out = set()
        for cell, cb in zip(m.partitions[j], m.beliefs[j]):
            if self._lhs(args, cell, cb.measure) >= f.bound:
                out |= cell
        return frozenset(out)

    def _prob_args(self, agent: int, f, mode: EvalMode) -> tuple:
        """The mode's reader of a comparison's arguments, and each term's
        coefficient with its argument's extension as that reader has it."""
        reader = f.agent if mode.innermost_scope else agent
        return reader, [(t.coeff, self._ext_core(reader, t.arg, mode))
                        for t in f.terms]

    @staticmethod
    def _lhs(args, event: frozenset, measure, mass=1) -> Fraction:
        """Left-hand side of a probability comparison: the sum of each
        coefficient times the ``measure`` of its argument's extension
        within ``event``, over ``mass``.  The event is a cell with its
        measure, or a conditioning event with the prior and its mass."""
        total = sum((coeff * measure(ext & event) for coeff, ext in args),
                    Fraction(0))
        return total if mass == 1 else total / mass

    def _event_states(self, j: int, reader: int, holds) -> set:
        """States whose conditioning event for agent j, as read by
        ``reader``, satisfies ``holds(event, mass)``.  Each distinct event
        is tested once; the first state whose event has prior mass 0
        raises ``UndefinedConditional``."""
        out = set()
        verdicts = {}
        for state in self.m.states:
            event, mass, _ = self._signal_event(j, state, reader)
            if mass == 0:
                raise self._undefined(j, state, event)
            ok = verdicts.get(event)
            if ok is None:
                ok = verdicts[event] = holds(event, mass)
            if ok:
                out.add(state)
        return out

    def _signal_event(self, j: int, state: str, reader: int) -> tuple:
        """Agent j's conditioning event at a state as read by ``reader``,
        with its prior mass and the event's states of positive prior mass.

        Computed once per distinct (agent, signal formula, reader), so
        states sharing a signal share one event."""
        m = self.m
        sig = m.signals.get(j, {}).get(state)
        if sig is None:
            raise MissingSignals("agent %d has no signal at state %s"
                                 % (j, state))
        key = (j, sig, reader)
        got = self._sig_event.get(key)
        if got is None:
            event = self._ext_core(reader, self._expand(sig),
                                   EvalMode.OUTERMOST)
            nu = m.priors[j]
            support = frozenset(s for s in event
                                if nu.get(s, Fraction(0)) > 0)
            got = self._sig_event[key] = (event, m.prior_mass(j, event),
                                          support)
        return got

    def _undefined(self, j: int, state: str,
                   event: frozenset) -> UndefinedConditional:
        sig = self.m.signals[j][state]
        return UndefinedConditional(j, state, fm.print_formula(sig), event)

    def _prob_one_states(self, j: int, target: frozenset, mode: EvalMode,
                         outer: int) -> frozenset:
        """States where agent j assigns probability one to ``target``,
        found by comparing masses (the prior mass of ``target`` inside each
        conditioning event in the signal modes)."""
        m = self.m
        if mode.is_ai:
            reader = j if mode.innermost_scope else outer
            return frozenset(self._event_states(
                j, reader, lambda event, mass:
                m.prior_mass(j, target & event) == mass))
        out = set()
        for cell, cb in zip(m.partitions[j], m.beliefs[j]):
            if cb.believes(target & cell):
                out |= cell
        return frozenset(out)

    def _blocks(self, j: int, reader) -> tuple:
        """Agent j's belief edges grouped by successor set.

        With ``reader`` None the successor set is the cell support (cell
        modes); otherwise it is the positive-prior part of j's conditioning
        event as read by ``reader`` (signal modes).  Returns ``(blocks,
        containing, undefined)``: ``blocks`` lists each distinct successor
        set with the states it comes from; ``containing`` maps a state to
        the indices of the blocks that contain it; ``undefined`` maps each
        state whose conditional is undefined to its event.
        """
        key = (j, reader)
        got = self._blocks_cache.get(key)
        if got is not None:
            return got
        m = self.m
        sources = {}
        undefined = {}
        for s in m.states:
            if reader is not None:
                event, mass, succ = self._signal_event(j, s, reader)
                if mass == 0:
                    undefined[s] = event
                    continue
            else:
                succ = m.cell_beliefs(j, s).support()
            sources.setdefault(succ, []).append(s)
        blocks = list(sources.items())
        containing = {}
        for b, (succ, _) in enumerate(blocks):
            for t in succ:
                containing.setdefault(t, []).append(b)
        got = self._blocks_cache[key] = (blocks, containing, undefined)
        return got

    def _cb_set(self, group, f, mode: EvalMode, outer: int) -> frozenset:
        """States where the group's common belief in f holds.

        Common belief fails at w iff some (state t, last edge label j) pair
        reachable from w by one or more edges fails the end check: t lies
        outside f as read by the outer agent in the outermost-style modes
        and by j in the innermost-style modes.  The failing states are a
        least fixpoint, found by one backward pass: first the sources of
        every j-block not inside f's reading for j; then, each time a state
        fails, every block containing it fails, and with it the block's
        sources.  Each block is marked at most once, so the work is linear
        in the total size of the blocks.

        A state whose conditional is undefined for a group agent has no
        edges for that agent.  After the pass, the first such state in
        ``states`` order where common belief has not already failed raises
        its ``UndefinedConditional``.
        """
        if not group:
            raise ValueError("common-belief group must be nonempty")
        bad = set()
        stack = []

        def fail(states):
            for s in states:
                if s not in bad:
                    bad.add(s)
                    stack.append(s)

        graphs = []
        undefined = {}
        for j in sorted(group):
            reader = j if mode.innermost_scope else outer
            blocks, containing, undef = self._blocks(
                j, reader if mode.is_ai else None)
            holds = self._ext_core(reader, f, mode)
            failed = [not succ <= holds for succ, _ in blocks]
            for (_, sources), dead in zip(blocks, failed):
                if dead:
                    fail(sources)
            graphs.append((blocks, containing, failed))
            for s, event in undef.items():
                undefined.setdefault(s, (j, event))
        while stack:
            t = stack.pop()
            for blocks, containing, failed in graphs:
                for b in containing.get(t, ()):
                    if not failed[b]:
                        failed[b] = True
                        fail(blocks[b][1])
        if undefined:
            for s in self.m.states:
                if s in undefined and s not in bad:
                    j, event = undefined[s]
                    raise self._undefined(j, s, event)
        return self._universe - bad


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
