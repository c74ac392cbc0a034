"""Constructive model transformations that trade ambiguity for structure.

Three constructions, each paired with the exact per-formula equivalence it
guarantees (checked by ``verify_transform_equivalence``):

* ``fix_interpretation(m, i)`` stamps agent i's interpretation onto
  everyone; outermost evaluation by i in the original agrees with common
  evaluation in the result, state by state.
* ``disjoint_copies(m)`` takes one tagged copy of the state space per
  agent, gives agent i positive mass only on tag-i states, and interprets
  propositions on a tag-j state as agent j did; common evaluation at a
  tagged state equals innermost evaluation by the tag agent at the
  original state.
* ``label_partitions(m, w)`` restricts a common-interpretation structure to
  the states reachable from w, adds one fresh proposition per (agent,
  cell) naming that cell, and uses those labels as signals; evaluation of
  formulas over the original propositions is unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from . import formula as fm
from .errors import ClaimSpecMismatch, NotCommonInterpretation
from .modes import EvalMode
from .reporting import Report
from .semantics import Evaluator, disagreements
from .structure import (
    CellBeliefs,
    Structure,
    is_common_interpretation,
    reachable,
)

__all__ = [
    "TransformClaim",
    "fix_interpretation", "disjoint_copies", "label_partitions",
    "attach_cell_signals", "verify_transform_equivalence",
]


class TransformClaim(fm.Frozen):
    """Which per-formula equivalence a transformed structure should satisfy:
    ``kind`` is "fix-interpretation", "disjoint-copies" or
    "label-partitions"."""

    __slots__ = _fields = ("kind", "agent")

    def __init__(self, kind: str, agent: int = None):
        self._init(kind, agent)


def fix_interpretation(m: Structure, agent: int) -> Structure:
    """Copy of ``m`` in which every agent uses ``agent``'s interpretation."""
    m.check_agents(agent)
    shared = dict(m.interpretations[agent])
    return m.replace(interpretations={i: dict(shared) for i in m.agents})


def _copy_name(state: str, tag: int) -> str:
    return "%s#%d" % (state, tag)


def disjoint_copies(m: Structure):
    """One tagged copy of the state space per agent; returns the structure
    and the state map, ``{copied state: (source state, tag agent)}``.

    A cell becomes the union of all tagged copies of its states; agent i's
    measure keeps its value on the tag-i copy of each atom and is zero on
    every other tag, so distinct agents' measures have disjoint supports.
    On a tag-j state every proposition is read the way agent j read it, and
    all agents share that reading.
    """
    tags = list(m.agents)
    new_states = tuple(_copy_name(s, t) for s in m.states for t in tags)

    def copy_set(states, tag):
        return frozenset(_copy_name(s, tag) for s in states)

    def all_copies(states):
        return frozenset().union(*(copy_set(states, t) for t in tags))

    partitions = {}
    beliefs = {}
    for i in m.agents:
        cells = []
        cell_beliefs = []
        for cell, cb in zip(m.partitions[i], m.beliefs[i]):
            new_cell = all_copies(cell)
            atoms = []
            masses = []
            for t in tags:
                for atom, mass in zip(cb.atoms, cb.masses):
                    atoms.append(copy_set(atom, t))
                    masses.append(mass if t == i else Fraction(0))
            cells.append(new_cell)
            cell_beliefs.append(CellBeliefs(new_cell, tuple(atoms),
                                            tuple(masses)))
        partitions[i] = tuple(cells)
        beliefs[i] = tuple(cell_beliefs)

    shared = {
        p: frozenset(
            _copy_name(s, t)
            for t in tags for s in m.interpretations[t][p]
        )
        for p in m.props
    }
    interpretations = {i: dict(shared) for i in m.agents}

    lifted = Structure(
        n_agents=m.n_agents, states=new_states, props=m.props,
        partitions=partitions, beliefs=beliefs,
        interpretations=interpretations,
    )
    return lifted, {_copy_name(s, t): (s, t) for s in m.states for t in tags}


def fresh_names(base_names, taken):
    """Each name, or the first free ``name_k`` for k >= 2, added to taken."""
    out = []
    for name in base_names:
        candidate = name
        k = 1
        while candidate in taken:
            k += 1
            candidate = "%s_%d" % (name, k)
        taken.add(candidate)
        out.append(candidate)
    return out


def attach_cell_signals(m: Structure):
    """Add one fresh proposition per (agent, cell), read by everyone as that
    cell, and use it as the agent's signal throughout the cell.

    Returns the new structure and the fresh-proposition table
    ``name -> (agent, cell states)``.  The result always passes the signal
    checks since all agents agree on the labels.
    """
    taken = set(m.props)
    table = {}
    interpretations = {i: dict(m.interpretations[i]) for i in m.agents}
    signals = {}
    new_props = list(m.props)
    for i in m.agents:
        names = fresh_names(
            ["p_%d_c%d" % (i, ci) for ci in range(len(m.partitions[i]))],
            taken)
        per_state = {}
        for ci, (cell, name) in enumerate(zip(m.partitions[i], names)):
            table[name] = (i, cell)
            new_props.append(name)
            for j in m.agents:
                interpretations[j][name] = cell
            for s in cell:
                per_state[s] = fm.Prop(name)
        signals[i] = per_state
    out = m.replace(props=tuple(new_props), interpretations=interpretations,
                    signals=signals)
    return out, table


def label_partitions(m: Structure, state: str):
    """Restrict a common-interpretation structure to the states reachable
    from ``state`` and label every agent's cells with fresh signal
    propositions.  Returns the structure and the fresh-proposition table.

    Reachability is closed under every agent's cells, so each surviving
    cell is kept whole and the cell measures transfer unchanged.  Priors
    are not carried over; regenerate them if a signal mode is needed.
    """
    if not is_common_interpretation(m):
        raise NotCommonInterpretation(
            "cell labelling needs a common interpretation")
    kept = reachable(m, m.agents, state)
    states = tuple(s for s in m.states if s in kept)
    partitions = {}
    beliefs = {}
    for i in m.agents:
        cells = []
        cell_beliefs = []
        for cell, cb in zip(m.partitions[i], m.beliefs[i]):
            if cell <= kept:
                cells.append(cell)
                cell_beliefs.append(cb)
            elif cell & kept:
                raise ClaimSpecMismatch(
                    "reachable set splits a cell; structure is inconsistent")
        partitions[i] = tuple(cells)
        beliefs[i] = tuple(cell_beliefs)
    interpretations = {
        i: {p: ext & kept for p, ext in m.interpretations[i].items()}
        for i in m.agents
    }
    restricted = Structure(
        n_agents=m.n_agents, states=states, props=m.props,
        partitions=partitions, beliefs=beliefs,
        interpretations=interpretations,
    )
    return attach_cell_signals(restricted)


def verify_transform_equivalence(m: Structure, transformed: Structure,
                                 state_map: dict, formulas,
                                 claim: TransformClaim) -> Report:
    """Replay a transform's per-formula equivalence on concrete inputs.

    Every mismatch becomes a report entry holding the full query context;
    an empty report means the claimed equivalence held for every formula at
    every relevant (state, agent) pair.  ``state_map`` is read only by the
    ``disjoint-copies`` claim; pass None for the others.
    """
    report = Report()
    ev_orig = Evaluator(m)
    ev_new = Evaluator(transformed)
    # Each claim pairs queries (state, agent, mode) of the original and of
    # the result; a mismatch names the result's state, the original's agent.
    if claim.kind == "fix-interpretation":
        if claim.agent is None or claim.agent not in m.agents:
            raise ClaimSpecMismatch("fix-interpretation claim needs the agent")
        if transformed.states != m.states:
            raise ClaimSpecMismatch("fix-interpretation must keep the states")
        i = claim.agent
        pairs = [((s, i, EvalMode.OUTERMOST), (s, i, EvalMode.COMMON))
                 for s in m.states]
    elif claim.kind == "disjoint-copies":
        if state_map is None or set(state_map) != set(transformed.states):
            raise ClaimSpecMismatch(
                "disjoint-copies claim needs a total state map")
        for new_state, (old_state, tag) in state_map.items():
            if old_state not in m.universe or tag not in m.agents:
                raise ClaimSpecMismatch("state map points outside the source")
        pairs = [((old_state, tag, EvalMode.INNERMOST),
                  (new_state, 1, EvalMode.COMMON))
                 for new_state, (old_state, tag) in sorted(state_map.items())]
    elif claim.kind == "label-partitions":
        if not is_common_interpretation(m):
            raise ClaimSpecMismatch(
                "label-partitions equivalence starts from a "
                "common-interpretation structure")
        if not set(transformed.states) <= set(m.states):
            raise ClaimSpecMismatch(
                "label-partitions must restrict the states")
        pairs = [((s, i, EvalMode.COMMON), (s, i, EvalMode.COMMON))
                 for s in transformed.states for i in m.agents]
    else:
        raise ClaimSpecMismatch("unknown claim kind %r" % claim.kind)
    queries = (((s, i, f, mode), (new_state, j, f, new_mode))
               for f in formulas
               for (s, i, mode), (new_state, j, new_mode) in pairs)
    for ((_, i, f, _), (new_state, _, _, _)), left, right in disagreements(
            ev_orig, ev_new, queries):
        report.add(
            "transform-mismatch",
            "%s: %s evaluates %s originally but %s after the "
            "transform" % (claim.kind, fm.print_formula(f), left, right),
            formula=fm.print_formula(f), state=new_state, agent=i,
            original=left, transformed=right)
    return report
