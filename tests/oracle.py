"""Independent brute-force evaluator used to re-derive expected values.

Direct clause-by-clause recursion: no reachability pass, and no
evaluation code from the package (signals are read by ``_ev`` too).
Probabilities are plain ``Fraction`` sums over a cell's atoms and masses
or over an agent's prior (``cell_mass``, ``prior_mass``).  The only memo
is the level sets of one belief query (``_level``).
The surface abbreviations have clauses of their own, by their meaning,
so ``formula.expand`` is not used: ``true``/``false`` are the constants,
``|``, ``->`` and ``<->`` the boolean connectives, ``Bj f`` is "j gives f
probability one" and ``E{G}^k f`` the k-fold "everybody in G believes".
Common belief is checked as the conjunction of the iterated "everybody
believes" up to the saturation bound |states| * |group| + 1, each level
computed by literally unfolding the belief operator, once per reader for
one top-level query.  Exponential in the nesting, so only for very small
structures.

An undefined conditional (a conditioning event of prior mass 0) raises
``UndefinedConditional`` where a probability is asked of it, except in the
levels of common belief, where a group agent whose conditional is undefined
at a state believes everything there.  A common-belief query then raises
for the first state, in ``states`` order, where some group agent's
conditional is undefined and common belief so read holds, naming the
first such agent: the evaluator answers only where common belief fails
anyway (the ``semantics`` docstring).
"""

from fractions import Fraction

from ambilogic import formula as fm
from ambilogic.errors import NotMeasurable, UndefinedConditional


def eval_brute(m, state, agent, f, mode):
    return _ev(m, state, agent, f, mode)


def _reader(mode, agent, j):
    return j if mode.innermost_scope else agent


def _conditioning_event(m, mode, agent, j, state):
    sig = m.signals[j][state]
    reader = _reader(mode, agent, j)
    return frozenset(s for s in m.states if _ev(m, s, reader, sig, mode))


def prior_mass(m, j, event):
    """Agent j's prior mass of ``event``, as a plain ``Fraction`` sum."""
    prior = m.priors[j]
    return sum((prior.get(s, Fraction(0)) for s in event), Fraction(0))


def cell_mass(m, j, state, ext):
    """j's cell measure at ``state`` of the part of ``ext`` in the cell: a
    plain ``Fraction`` sum of the atoms inside it.  An atom that the part
    cuts is refused with ``NotMeasurable``."""
    [(cell, cb)] = [(cell, cb) for cell, cb
                    in zip(m.partitions[j], m.beliefs[j]) if state in cell]
    event = ext & cell
    total = Fraction(0)
    for atom, mass in zip(cb.atoms, cb.masses):
        if atom <= event:
            total += mass
        elif atom & event:
            raise NotMeasurable("event {%s} cuts across atom {%s}" % (
                ", ".join(sorted(event)), ", ".join(sorted(atom))))
    return total


def _undefined(m, mode, agent, j, state):
    """Whether j's conditional at ``state`` is undefined in ``mode``."""
    return mode.is_ai and prior_mass(
        m, j, _conditioning_event(m, mode, agent, j, state)) == 0


def _prob_of(m, mode, agent, j, state, ext):
    if mode.is_ai:
        event = _conditioning_event(m, mode, agent, j, state)
        denom = prior_mass(m, j, event)
        if denom == 0:
            raise UndefinedConditional(
                j, state, fm.print_formula(m.signals[j][state]), event)
        return prior_mass(m, j, ext & event) / denom
    return cell_mass(m, j, state, ext)


def _ev(m, state, agent, f, mode):
    if isinstance(f, fm.Prop):
        return state in m.interpretations[agent][f.name]
    if isinstance(f, fm.IndexedProp):
        return state in m.interpretations[agent]["%s@%d" % (f.name, f.agent)]
    if isinstance(f, fm.Not):
        return not _ev(m, state, agent, f.arg, mode)
    if isinstance(f, fm.And):
        return (_ev(m, state, agent, f.left, mode)
                and _ev(m, state, agent, f.right, mode))
    if isinstance(f, (fm.TrueF, fm.FalseF)):
        return isinstance(f, fm.TrueF)
    if isinstance(f, fm.Or):
        return (_ev(m, state, agent, f.left, mode)
                or _ev(m, state, agent, f.right, mode))
    if isinstance(f, fm.Implies):
        return (not _ev(m, state, agent, f.left, mode)
                or _ev(m, state, agent, f.right, mode))
    if isinstance(f, fm.Iff):
        return (_ev(m, state, agent, f.left, mode)
                == _ev(m, state, agent, f.right, mode))
    if isinstance(f, fm.B):
        return _eb(m, state, agent, {f.agent}, f.arg, 1, mode, {})
    if isinstance(f, fm.EB):
        return _eb(m, state, agent, f.group, f.arg, f.power, mode, {})
    if isinstance(f, fm.ProbGe):
        return prob_value_brute(m, state, agent, f, mode) >= f.bound
    if isinstance(f, fm.CB):
        return _cb(m, state, agent, f, mode)
    raise TypeError("not a formula: %r" % (f,))


def _cb(m, state, agent, f, mode):
    """Common belief at ``state``: every level up to the saturation bound,
    read with undefined conditionals believing everything; raises for the
    first state where one is undefined and common belief so read holds."""
    bound = len(m.states) * len(f.group) + 1
    levels = {}

    def holds(s):
        return all(_eb(m, s, agent, f.group, f.arg, k, mode, levels, True)
                   for k in range(1, bound + 1))

    for s in m.states:
        undefined = [j for j in sorted(f.group)
                     if _undefined(m, mode, agent, j, s)]
        if undefined and holds(s):
            _prob_of(m, mode, agent, undefined[0], s, frozenset())  # raises
    return holds(state)


def prob_value_brute(m, state, agent, f, mode):
    """Left-hand side of the core comparison f at (state, agent)."""
    j = f.agent
    value = Fraction(0)
    for t in f.terms:
        reader = _reader(mode, agent, j)
        ext = frozenset(s for s in m.states
                        if _ev(m, s, reader, t.arg, mode))
        value += t.coeff * _prob_of(m, mode, agent, j, state, ext)
    return value


def _eb(m, state, agent, group, arg, k, mode, levels, vacuous=False):
    """Whether the k-fold "everybody in ``group`` believes ``arg``" holds at
    ``state`` as ``agent`` reads it; ``levels`` is the query's memo.  With
    ``vacuous`` (common belief's levels), a group agent whose conditional
    is undefined at ``state`` is not asked."""
    for j in sorted(group):
        if vacuous and _undefined(m, mode, agent, j, state):
            continue
        ext = _level(m, _reader(mode, agent, j), group, arg, k - 1, mode,
                     levels, vacuous)
        if _prob_of(m, mode, agent, j, state, ext) != 1:
            return False
    return True


def _level(m, reader, group, arg, k, mode, levels, vacuous):
    """The states where level k holds as ``reader`` reads it (level 0 is
    ``arg``), kept in ``levels`` per (reader, k) for one top-level query,
    so that each level is computed once."""
    key = (reader, k)
    if key not in levels:
        levels[key] = frozenset(
            s for s in m.states
            if (_ev(m, s, reader, arg, mode) if k == 0
                else _eb(m, s, reader, group, arg, k, mode, levels,
                         vacuous)))
    return levels[key]
