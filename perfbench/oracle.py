"""Independent evaluator used to check the program's verdicts.

It follows the clauses of the semantics directly and shares no evaluation
code with ``ambilogic.semantics``: probabilities are summed from the raw
cell masses or priors, signal events are read from the interpretations, and
common belief is the intersection of the iterated "everybody believes"
levels, run until a level repeats, never a reachability search.  Extensions
are memoized per (reader, subformula) so the checks stay polynomial at
hundreds of states; only ``fm.expand`` is shared, to remove abbreviations.
"""

from __future__ import annotations

from fractions import Fraction

from ambilogic import formula as fm

_INNERMOST = ("in", "in-ai")
_SIGNAL = ("ou-ai", "in-ai")


class Oracle:
    def __init__(self, m, mode):
        self.m = m
        self.mode = mode
        self.universe = frozenset(m.states)
        self._ext = {}
        self._event = {}
        self._pr = {}

    def extension(self, agent, f):
        return self._e(agent, fm.expand(f, self.m.props[0]))

    def cb_set(self, group, f, outer):
        return self._cb(frozenset(group), fm.expand(f, self.m.props[0]), outer)

    # -- clauses --

    def _e(self, reader, f):
        key = (reader, f)
        out = self._ext.get(key)
        if out is not None:
            return out
        if isinstance(f, fm.Prop):
            out = self.m.interpretations[reader][f.name]
        elif isinstance(f, fm.IndexedProp):
            out = self.m.interpretations[reader]["%s@%d" % (f.name, f.agent)]
        elif isinstance(f, fm.Not):
            out = self.universe - self._e(reader, f.arg)
        elif isinstance(f, fm.And):
            out = self._e(reader, f.left) & self._e(reader, f.right)
        elif isinstance(f, fm.ProbGe):
            j = f.agent
            arg_reader = j if self.mode in _INNERMOST else reader
            args = [(t.coeff, self._e(arg_reader, t.arg)) for t in f.terms]
            out = frozenset(
                w for w in self.m.states
                if sum((c * self._prob(j, reader, w, ext) for c, ext in args),
                       Fraction(0)) >= f.bound)
        elif isinstance(f, fm.CB):
            out = self._cb(f.group, f.arg, reader)
        else:
            raise TypeError("not a core formula: %r" % (f,))
        self._ext[key] = out
        return out

    def _prob(self, j, outer, w, event):
        """Agent j's probability of ``event`` at state w, as the mode reads
        it with ``outer`` as the outermost agent."""
        if self.mode in _SIGNAL:
            reader = j if self.mode == "in-ai" else outer
            where = self._signal_event(j, reader, w)
        else:
            where = self.m.cell_index(j, w)
        key = (j, where, event)
        out = self._pr.get(key)
        if out is None:
            if self.mode in _SIGNAL:
                nu = self.m.priors[j]
                num = sum((nu.get(s, 0) for s in where if s in event),
                          Fraction(0))
                den = sum((nu.get(s, 0) for s in where), Fraction(0))
                out = num / den
            else:
                cb = self.m.beliefs[j][where]
                out = sum((mass for atom, mass in zip(cb.atoms, cb.masses)
                           if atom <= event), Fraction(0))
            self._pr[key] = out
        return out

    def _signal_event(self, j, reader, w):
        key = (j, reader, w)
        out = self._event.get(key)
        if out is None:
            out = self._e(reader, fm.expand(self.m.signals[j][w],
                                            self.m.props[0]))
            self._event[key] = out
        return out

    def _believes(self, j, outer, target):
        return frozenset(w for w in self.m.states
                         if self._prob(j, outer, w, target) == 1)

    def _cb(self, group, arg, outer):
        if self.mode in _INNERMOST:
            level = frozenset.intersection(
                *[self._believes(j, outer, self._e(j, arg)) for j in group])
        else:
            base = self._e(outer, arg)
            level = frozenset.intersection(
                *[self._believes(j, outer, base) for j in group])
        seen = set()
        out = self.universe
        while level not in seen:
            seen.add(level)
            out &= level
            level = frozenset.intersection(
                *[self._believes(j, outer, level) for j in group])
        return out
