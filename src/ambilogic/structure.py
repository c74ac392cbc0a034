"""Finite epistemic probability structures and their validation.

A structure holds a finite state space, one information partition per
agent, one probability space per partition cell (an algebra given by atoms
plus an exact rational mass per atom), one interpretation of the primitive
propositions per agent, and optionally per-agent priors over the whole
state space and per-state propositional signal formulas describing the
cells.

All arithmetic is exact; floating point is rejected in structure files.
Structures are immutable after construction and safe to share.  This
module evaluates no formulas: formulas, conditioning events and belief
edges are evaluated by ``semantics.Evaluator``, and ``validate_signals``
asks it for each signal's reading.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from itertools import filterfalse

from . import formula as fm
from .errors import (
    CoreInvalid,
    FormulaSyntaxError,
    FormulaTooDeep,
    MissingSignals,
    ModelFormatError,
    NotMeasurable,
    UnknownAgent,
    UnknownState,
    shown,
)
from .modes import EvalMode
from .reporting import Report

__all__ = [
    "CellBeliefs", "Structure",
    "validate_core", "validate_signals", "generate_priors",
    "reachable", "is_common_interpretation",
    "load_structure", "loads_structure", "structure_from_dict",
    "structure_to_dict", "dump_structure", "dumps_structure",
]

# Names the formula grammar cannot express as plain propositions.
_RESERVED_NAME = re.compile(r"^(B|Pr)[0-9]+$|^(E|CB|true|false)$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(@[0-9]+)?$")


class CellBeliefs(fm.Frozen):
    """Probability space of one partition cell; also, unnormalised, an
    agent's prior restricted to a conditioning event.

    ``atoms`` partition the cell and generate the measurable sets; the mass
    of a measurable event is the sum of its atoms' masses.  With singleton
    atoms (the powerset algebra) every event is measurable and point masses
    are cached for speed, as (numerator, denominator) pairs.  One pass over
    the atoms finds both the support and the point masses.
    """

    _fields = ("states", "atoms", "masses")
    __slots__ = _fields + ("_support", "_point")

    def __init__(self, states: frozenset, atoms: tuple, masses: tuple):
        set_field = object.__setattr__
        set_field(self, "states", states)
        set_field(self, "atoms", atoms)
        set_field(self, "masses", masses)
        positive = []
        point = {}
        for atom, mass in zip(atoms, masses):
            ratio = mass.as_integer_ratio()
            if ratio[0] > 0:
                positive.append(atom)
            if point is None:
                continue
            if len(atom) == 1:
                [s] = atom
                point[s] = ratio
            else:
                point = None
        set_field(self, "_support", frozenset().union(*positive))
        set_field(self, "_point", point)

    def support(self) -> frozenset:
        """Union of the atoms that carry positive mass."""
        return self._support

    def believes(self, event: frozenset) -> bool:
        """Mass-one test of the part of an event inside the cell: by the
        support when point masses are cached, by its measure otherwise."""
        return (self._support <= event if self._point is not None
                else self.measure(event) == 1)

    def weights(self, event: frozenset) -> dict:
        """Numerators, per denominator, of the masses inside ``event``: its
        states' point masses, or the atoms it holds, if it cuts none."""
        event = event & self.states
        per_den = {}
        point = self._point
        if point is not None:
            for s in event:
                n, d = point[s]
                per_den[d] = per_den.get(d, 0) + n
            return per_den
        for atom, mass in zip(self.atoms, self.masses):
            if atom <= event:
                n, d = mass.as_integer_ratio()
                per_den[d] = per_den.get(d, 0) + n
            elif atom & event:
                raise NotMeasurable(
                    "event {%s} cuts across atom {%s}"
                    % (", ".join(sorted(event)), ", ".join(sorted(atom))))
        return per_den

    def measure(self, event: frozenset) -> Fraction:
        """Mass of the part of ``event`` in the space (``weights``)."""
        return Fraction(*over_lcm(self.weights(event)))


def singleton_cell(states, masses) -> CellBeliefs:
    """Cell with the powerset algebra: one atom per state."""
    names = sorted(masses)
    return CellBeliefs(
        states=frozenset(states),
        atoms=tuple(frozenset([s]) for s in names),
        masses=tuple(v if type(v) is Fraction else Fraction(v)
                     for v in map(masses.__getitem__, names)),
    )


class Structure(fm.Frozen):
    """Immutable multi-agent epistemic probability structure.

    ``partitions[i]`` and ``beliefs[i]`` are aligned cell-by-cell, which
    hard-wires that all states of a cell share one probability space.
    Structures compare and hash by identity.
    """

    _fields = ("n_agents", "states", "props", "partitions", "beliefs",
               "interpretations", "priors", "signals")
    __slots__ = _fields + ("agents", "universe", "_cells")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n_agents: int, states: tuple, props: tuple,
                 partitions: dict, beliefs: dict, interpretations: dict,
                 priors: dict = None, signals: dict = None):
        self._init(n_agents, states, props, partitions, beliefs,
                   interpretations, priors, signals)
        if self.n_agents < 1:
            raise ModelFormatError("need at least one agent")
        if not self.states or len(set(self.states)) != len(self.states):
            raise ModelFormatError("states must be nonempty and unique")
        if not self.props or len(set(self.props)) != len(self.props):
            raise ModelFormatError("propositions must be nonempty and unique")
        for name in self.props:
            if not _NAME.match(name) or _RESERVED_NAME.match(name):
                raise ModelFormatError("unusable proposition name: %s"
                                       % shown(name))
        # Plain attributes rather than properties: they are read per query.
        object.__setattr__(self, "agents", range(1, self.n_agents + 1))
        object.__setattr__(self, "universe", frozenset(self.states))
        for label, mapping in (("partitions", self.partitions),
                               ("beliefs", self.beliefs),
                               ("interpretations", self.interpretations)):
            # Sizes first: no set of all n agents is built for a large n.
            if (len(mapping) != self.n_agents
                    or not all(i in mapping for i in self.agents)):
                raise ModelFormatError("%s must cover agents 1..%d exactly"
                                       % (label, self.n_agents))
        for i in self.agents:
            if len(self.partitions[i]) != len(self.beliefs[i]):
                raise ModelFormatError(
                    "agent %d: %d cells but %d belief entries"
                    % (i, len(self.partitions[i]), len(self.beliefs[i])))
        cells = {}
        for i in self.agents:
            index = cells[i] = {}
            for ci, cell in enumerate(self.partitions[i]):
                for s in cell:
                    index.setdefault(s, ci)
        object.__setattr__(self, "_cells", cells)

    def check_agents(self, *agents) -> None:
        """Raise ``UnknownAgent`` for the first agent outside 1..n_agents."""
        for i in agents:
            if i not in self.agents:
                raise UnknownAgent("agent %d not in 1..%d"
                                   % (i, self.n_agents))

    def cell_indices(self, agent: int) -> dict:
        """Agent's index of its partition: each state to the position of
        its cell (the first, if cells overlap).  The dict is the
        structure's own, built once with it; callers only read it."""
        self.check_agents(agent)
        return self._cells[agent]

    def cell_index(self, agent: int, state: str) -> int:
        try:
            return self._cells[agent][state]
        except KeyError:
            raise UnknownState("state %s not in any cell of agent %d"
                               % (shown(state), agent))

    def cell_of(self, agent: int, state: str) -> frozenset:
        ci = self.cell_index(agent, state)  # first: it names a bad agent
        return self.partitions[agent][ci]

    def cell_beliefs(self, agent: int, state: str) -> CellBeliefs:
        ci = self.cell_index(agent, state)
        return self.beliefs[agent][ci]

    def replace(self, **kw) -> "Structure":
        """A new structure with the fields in ``kw`` changed, checked as
        the constructor checks any."""
        return Structure(**{**dict(zip(self._fields, self._values())), **kw})


# --- Validation ---

def over_lcm(per_den: dict) -> tuple:
    """Unreduced (numerator, denominator) of a sum given as numerators per
    denominator, each scaled once to the LCM; an empty sum is (0, 1)."""
    lcm = math.lcm(*per_den)
    return sum(n * (lcm // d) for d, n in per_den.items()), lcm


def _exact_sum(qs) -> tuple:
    """(whether any of the rationals is negative, their exact sum)."""
    per_den = {}
    negative = False
    for q in qs:
        n, d = q.as_integer_ratio()
        per_den[d] = per_den.get(d, 0) + n
        negative = negative or n < 0
    return negative, Fraction(*over_lcm(per_den))


def _show_sum(q: Fraction) -> str:
    """``q`` exactly when its numerator and denominator have at most about
    60 digits, else its order of magnitude, as ``about 1.500e+4300``: a
    sum of long masses may be too long for ``str`` to convert at all."""
    if max(abs(q.numerator), q.denominator).bit_length() <= 200:
        return str(q)
    digits = math.log10(abs(q.numerator)) - math.log10(q.denominator)
    exponent = math.floor(digits)
    return "about %s%.3fe%+d" % ("-" if q < 0 else "",
                                 10 ** (digits - exponent), exponent)


def _is_partition(blocks, whole) -> bool:
    """Whether ``blocks`` are nonempty, disjoint and cover ``whole``: they
    are disjoint when their sizes add up to the size of their union."""
    covered = frozenset().union(*blocks)
    return (all(blocks) and covered == whole
            and sum(map(len, blocks)) == len(covered))


def validate_core(m: Structure) -> Report:
    """Check the base soundness assumptions; violations become report entries.

    Checked: every partition covers the state space with disjoint nonempty
    cells; every cell's atoms partition exactly that cell; masses are
    nonnegative and sum to one per cell; every agent can measure every
    agent's cells within his own cells; every agent's propositions are
    measurable within his own cells; interpretations cover all declared
    propositions; priors, when present, are probability measures.
    """
    report = Report()
    universe = m.universe
    for i in m.agents:
        seen = set()
        for ci, cell in enumerate(m.partitions[i]):
            if not cell:
                report.add("partition-empty-cell",
                           "agent %d has an empty cell" % i, agent=i, cell=ci)
            overlap = seen & cell
            if overlap:
                report.add("partition-overlap",
                           "agent %d: state(s) %s in two cells"
                           % (i, sorted(overlap)), agent=i,
                           states=sorted(overlap))
            seen |= cell
            if not cell <= universe:
                report.add("partition-cover",
                           "agent %d: cell mentions unknown states %s"
                           % (i, sorted(cell - universe)), agent=i, cell=ci)
        missing = sorted(universe - seen)
        if missing:  # a cell's unknown states are reported above
            report.add("partition-cover",
                       "agent %d: partition misses states %s"
                       % (i, missing), agent=i, states=missing)

    for i in m.agents:
        for ci, (cell, cb) in enumerate(zip(m.partitions[i], m.beliefs[i])):
            if not _is_partition(cb.atoms, cell) or cb.states != cell:
                report.add("cell-sample-space",
                           "agent %d cell %d: atoms do not partition the "
                           "cell" % (i, ci), agent=i, cell=ci)
                continue
            negative, total = _exact_sum(cb.masses)
            if negative:
                report.add("measure-negative",
                           "agent %d cell %d has a negative mass" % (i, ci),
                           agent=i, cell=ci)
            if total != 1:
                shown = _show_sum(total)
                report.add("measure-sum",
                           "agent %d cell %d masses sum to %s, not 1"
                           % (i, ci, shown), agent=i, cell=ci, total=shown)

    # Cross-agent cells and own propositions must be measurable in each
    # cell.  With point masses (the powerset algebra) every event is.
    for i in m.agents:
        for ci, (cell, cb) in enumerate(zip(m.partitions[i], m.beliefs[i])):
            if cb.states != cell or cb._point is not None:
                continue
            for j in m.agents:
                if j == i:
                    continue
                for cj, other in enumerate(m.partitions[j]):
                    try:
                        cb.measure(other & cell)
                    except NotMeasurable:
                        report.add(
                            "cell-measurability",
                            "agent %d cell %d cannot measure agent %d's "
                            "cell %d" % (i, ci, j, cj),
                            agent=i, cell=ci, other_agent=j, other_cell=cj)
            for p in m.props:
                ext = m.interpretations[i].get(p)
                if ext is None:
                    continue
                try:
                    cb.measure(ext & cell)
                except NotMeasurable:
                    report.add(
                        "prop-measurability",
                        "agent %d cannot measure proposition %s in the cell "
                        "of %s" % (i, p, min(cell)),
                        agent=i, state=min(cell), prop=p)

    for i in m.agents:
        for p in m.props:
            ext = m.interpretations[i].get(p)
            if ext is None:
                report.add("interpretation-missing",
                           "agent %d does not interpret %s" % (i, p),
                           agent=i, prop=p)
            elif not ext <= universe:
                report.add("interpretation-range",
                           "agent %d maps %s to unknown states %s"
                           % (i, p, sorted(ext - universe)), agent=i, prop=p)

    if m.priors is not None:
        for i in m.agents:
            nu = m.priors.get(i)
            if nu is None:
                report.add("prior-missing", "agent %d has no prior" % i,
                           agent=i)
                continue
            negative, total = _exact_sum(nu.values())
            if negative:
                report.add("prior-negative",
                           "agent %d prior has a negative mass" % i, agent=i)
            if total != 1:
                shown = _show_sum(total)
                report.add("prior-sum",
                           "agent %d prior sums to %s, not 1" % (i, shown),
                           agent=i, total=shown)
            if not set(nu) <= universe:
                report.add("prior-range",
                           "agent %d prior mentions unknown states" % i,
                           agent=i)
    return report


_CORE_KINDS = {
    "partition-empty-cell", "partition-overlap", "partition-cover",
    "cell-sample-space", "measure-negative", "measure-sum",
    "cell-measurability",
}


def validate_signals(m: Structure, ev=None) -> Report:
    """Check the signal assumptions; violations become report entries.

    For every agent and state there must be a propositional signal formula
    whose extension under the owner's interpretation is exactly the owner's
    cell.  Additionally, for every ordered pair of agents, the signal
    extensions under the other agent's interpretation must form a partition
    of the state space containing each state in its own signal's extension
    (this stronger condition is what outermost signal semantics relies on).
    Each signal is read through ``ev.extension``, as a query's
    propositional arguments are; ``ev`` is an ``Evaluator`` of m, a fresh
    one by default.  An evaluator checking its own signal modes passes
    itself, so each reading is computed once and its probability spaces
    reuse it.  It needs a valid core: ``Evaluator`` raises ``CoreInvalid``.
    """
    if m.signals is None:
        raise MissingSignals("structure declares no signals")
    if ev is None:
        from .semantics import Evaluator  # semantics imports this module
        ev = Evaluator(m)
    report = Report()
    readings = {}  # signal -> {reader: frozenset}, None if not propositional
    owned = {}  # owner -> {signal: (its readings, the states it is sent at)}
    for i in m.agents:
        per_agent = m.signals.get(i, {})
        groups = owned[i] = {}
        for s in m.states:
            sig = per_agent.get(s)
            if sig is None:
                report.add("signal-missing",
                           "agent %d has no signal at state %s" % (i, s),
                           agent=i, state=s)
                continue
            group = groups.get(sig)
            if group is not None:
                group[1].append(s)
                continue
            reading = readings.get(sig, False)
            if reading is False:
                reading = readings[sig] = (
                    {j: ev.extension(j, sig, EvalMode.OUTERMOST)
                     for j in m.agents}
                    if fm.is_propositional(sig) else None)
            if reading is None:
                report.add("signal-not-propositional",
                           "agent %d's signal at %s is not propositional"
                           % (i, s), agent=i, state=s,
                           signal=fm.print_formula(sig))
                continue
            groups[sig] = (reading, [s])

    # Each check runs once per distinct signal of an owner; where one
    # fails, the states are walked one by one to report each.  The core is
    # valid, so cells are disjoint: a reading that is the cell of a group's
    # first state and holds the whole group is the cell of each state in it.
    for i, groups in owned.items():
        if all(reading[i] == m.cell_of(i, states[0])
               and reading[i].issuperset(states)
               for reading, states in groups.values()):
            continue
        for s, reading in _state_readings(m, groups):
            ext = reading[i]
            cell = m.cell_of(i, s)
            if ext != cell:
                report.add(
                    "signal-cell",
                    "agent %d's signal at %s denotes {%s}, not his cell {%s}"
                    % (i, s, ", ".join(sorted(ext)), ", ".join(sorted(cell))),
                    agent=i, state=s, extension=sorted(ext))

    universe = m.universe
    for i, groups in owned.items():
        if sum(len(states) for _, states in groups.values()) != len(universe):
            continue
        for j in m.agents:
            if not all(reading[j].issuperset(states)
                       for reading, states in groups.values()):
                for s, reading in _state_readings(m, groups):
                    if s not in reading[j]:
                        report.add(
                            "signal-membership",
                            "state %s lies outside agent %d's reading of "
                            "agent %d's signal there" % (s, j, i),
                            owner=i, reader=j, state=s)
            blocks = {reading[j] for reading, _ in groups.values()}
            if not _is_partition(blocks, universe):
                report.add(
                    "signal-partition",
                    "agent %d's readings of agent %d's signals do not "
                    "partition the state space" % (j, i),
                    owner=i, reader=j,
                    blocks=sorted(sorted(b) for b in blocks))
    return report


def _state_readings(m: Structure, groups: dict) -> list:
    """(state, its signal's readings) in state order, from an owner's
    signal groups."""
    at = {s: reading for reading, states in groups.values() for s in states}
    return [(s, at[s]) for s in m.states if s in at]


def generate_priors(m: Structure) -> dict:
    """Derive per-agent priors whose cell conditionals reproduce the beliefs.

    With N cells in an agent's partition, each cell receives prior mass 1/N
    distributed over its atoms in proportion to the cell's own measure (and
    uniformly over the states inside an atom).  Every cell then has positive
    prior mass and conditioning the prior on a cell returns that cell's
    measure exactly.
    """
    core = validate_core(m)
    blocking = [v for v in core.entries if v.kind in _CORE_KINDS]
    if blocking:
        raise CoreInvalid("structure fails core checks: %s"
                          % "; ".join(v.message for v in blocking), core)
    priors = {}
    for i in m.agents:
        cells = m.partitions[i]
        share = Fraction(1, len(cells))
        nu = {s: Fraction(0) for s in m.states}
        for cb in m.beliefs[i]:
            for atom, mass in zip(cb.atoms, cb.masses):
                per_state = share * mass / len(atom)
                for s in atom:
                    nu[s] += per_state
        priors[i] = nu
    return priors


# --- Queries ---

def reachable(m: Structure, group, state: str) -> frozenset:
    """States linked to ``state`` by chains through the cells of agents in
    ``group``."""
    group = frozenset(group)
    if not group:
        raise ValueError("group must be nonempty")
    m.check_agents(*group)
    if state not in m.universe:
        raise UnknownState("state %s not declared" % shown(state))
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for i in group:
            for t in m.cell_of(i, s):
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return frozenset(seen)


def is_common_interpretation(m: Structure) -> bool:
    """True iff all agents interpret every proposition identically."""
    first = m.interpretations[1]
    return all(
        m.interpretations[i].get(p) == first.get(p)
        for i in m.agents for p in m.props
    )


# --- Serialization (JSON, exact rationals as strings) ---

# The forms ``structure_to_dict`` writes, read with ``int``; ``Fraction``
# parses any other string, with the same value and the same errors.
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_DIGITS = re.compile(r"\d+")  # as Fraction's parser reads them


def _rational(value, where: str) -> Fraction:
    if isinstance(value, str):
        plain = _PLAIN_RATIONAL.fullmatch(value)
        try:
            if plain is None:
                return Fraction(value)
            num, den = plain.groups()
            return Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            raise ModelFormatError("%s: %s" % (where, _refusal(value)))
    if isinstance(value, bool) or isinstance(value, float):
        raise ModelFormatError("%s: floating point or boolean rejected, "
                               "use \"num/den\" strings" % where)
    if isinstance(value, int):
        return Fraction(value)
    raise ModelFormatError("%s: bad rational %s" % (where, shown(value)))


def _refusal(text: str) -> str:
    """Why the rational string ``text`` is refused.  Python's ``int`` reads
    no run of more digits than its limit (``sys.set_int_max_str_digits``);
    such a run is named by its length, not echoed.  Any other string is
    echoed by ``shown``."""
    digits = max(map(len, _DIGITS.findall(text)), default=0)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < digits:
        return "rational of %d digits exceeds the %d-digit limit" % (
            digits, limit)
    return "bad rational %s" % shown(text)


def _expect(value, kind, where: str):
    """``value``, if it has the JSON type ``kind`` (no bool is an int)."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    raise ModelFormatError("%s: expected a JSON %s" % (where, {
        list: "array", dict: "object", str: "string", int: "integer"}[kind]))


def _reject_float(text):
    raise ModelFormatError("floating point rejected: %s" % text)


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict; a name given twice is an error."""
    out = dict(pairs)
    if len(out) < len(pairs):
        for k, _ in pairs:  # a name already taken out is a repeat
            if k not in out:
                raise ModelFormatError("duplicate key %s" % shown(k))
            del out[k]
    return out


def structure_from_dict(data: dict) -> Structure:
    if not isinstance(data, dict):
        raise ModelFormatError("structure file must be a JSON object")

    def block(key, required=True):
        value = data.get(key)
        if value is None and required:
            raise ModelFormatError("missing %r block" % key)
        return value

    n = _expect(data.get("agents"), int, "agents")
    states = tuple(_expect(s, str, "states")
                   for s in _expect(block("states"), list, "states"))
    props = tuple(_expect(block("props"), list, "props"))
    state_set = frozenset(states)
    # One singleton atom per state, shared by every agent's cells.
    singletons = {s: frozenset([s]) for s in state_set}

    def states_in(names, where):
        try:
            out = frozenset(_expect(names, list, where))
        except TypeError:  # an array or object cannot name a state
            raise ModelFormatError("%s: expected a JSON string" % where)
        # In file order, the same error in every process; the walk runs in
        # C, and its body only for an unknown state.
        for s in filterfalse(state_set.__contains__, names):
            raise ModelFormatError("%s: unknown state %s" % (where, shown(s)))
        return out

    def per_agent(key, kind, read, required=True):
        """{agent: read(agent, value, where)}; all keys are checked first."""
        raw = block(key, required)
        if raw is None:
            return None
        named = []
        for k, v in _expect(raw, dict, key).items():
            try:
                i = int(k)
            except (TypeError, ValueError):
                i = 0
            if str(i) != k or not 0 < i <= n:
                raise ModelFormatError("%s: bad agent key %s"
                                       % (key, shown(k)))
            named.append((i, "%s[%s]" % (key, k), v))
        return {i: read(i, _expect(v, kind, where), where)
                for i, where, v in named}

    # Each distinct string value is read once per file, by one reader:
    # later sightings are a lookup in that reader's memo, and a value's
    # location is spelled out only when it is read.
    rationals = {}

    def miss(memo, read, value, where):
        got = read(value, where)
        if isinstance(value, str):  # the only values looked up
            memo[value] = got
        return got

    def signal(text, where):
        if not isinstance(text, str):
            raise ModelFormatError("%s: expected formula text, got %s"
                                   % (where, shown(text)))
        try:
            return fm.parse(text)
        except (FormulaSyntaxError, FormulaTooDeep) as exc:
            raise ModelFormatError("%s: %s" % (where, exc))

    def by_name(read, of_states=False, memo=None):
        """Reader of an object keyed by names (states if ``of_states``),
        in file order."""
        memo = {} if memo is None else memo

        def read_names(i, values, where):
            out = {}
            for k, v in values.items():
                if of_states and k not in state_set:
                    raise ModelFormatError("%s: unknown state %s"
                                           % (where, shown(k)))
                got = memo.get(v) if isinstance(v, str) else None
                if got is None:
                    got = miss(memo, read, v, "%s[%s]" % (where, k))
                out[k] = got
            return out
        return read_names

    def cell_beliefs(i, specs, where):
        if i not in partitions or len(specs) != len(partitions[i]):
            raise ModelFormatError(
                "%s must list one entry per partition cell" % where)
        built = []
        for ci, (cell, spec) in enumerate(zip(partitions[i], specs)):
            at = "%s[%d]" % (where, ci)
            if not isinstance(spec, dict) or "measure" not in spec:
                raise ModelFormatError("%s: need a measure map" % at)
            measure = _expect(spec["measure"], dict, at + "[measure]")
            coarse = spec.get("atoms") is not None
            if coarse:
                atoms = tuple(states_in(a, at) for a in
                              _expect(spec["atoms"], list, at + "[atoms]"))
                keys = [str(idx) for idx in range(len(atoms))]
            else:
                keys = sorted(cell)  # a fixed order, as in states_in
                atoms = tuple([singletons[s] for s in keys])
            masses = []
            for key in keys:
                raw = measure.get(key, None if coarse else 0)
                if raw is None and coarse:
                    raise ModelFormatError(
                        "%s: measure missing atom index %s" % (at, key))
                mass = rationals.get(raw) if isinstance(raw, str) else None
                if mass is None:
                    mass = miss(rationals, _rational, raw, at)
                masses.append(mass)
            extra = set(measure).difference(keys)
            if extra:
                raise ModelFormatError(
                    "%s: measure names %s outside the cell: %s"
                    % (at, "atoms" if coarse else "states", sorted(extra)))
            built.append(CellBeliefs(cell, atoms, tuple(masses)))
        return tuple(built)

    partitions = per_agent("partitions", list, lambda i, cells, where: tuple(
        states_in(cell, where) for cell in cells))
    beliefs = per_agent("beliefs", list, cell_beliefs)
    interpretations = per_agent("interpretations", dict, by_name(states_in))
    priors = per_agent("priors", dict, by_name(_rational, True, rationals),
                       False)
    signals = per_agent("signals", dict, by_name(signal, True), False)
    declared = {_expect(p, str, "props") for p in props}
    for i, named in interpretations.items():
        for p in named:  # in file order, after the props block is checked
            if p not in declared:
                raise ModelFormatError(
                    "interpretations[%d]: unknown proposition %s"
                    % (i, shown(p)))
    return Structure(n, states, props, partitions, beliefs, interpretations,
                     priors, signals)


def loads_structure(text: str) -> Structure:
    try:
        data = json.loads(text, parse_float=_reject_float,
                          object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("bad JSON: %s" % exc)
    except RecursionError:
        raise ModelFormatError("bad JSON: nested too deeply")
    except ValueError:  # from int(), for an integer of too many digits
        raise ModelFormatError("bad JSON: an integer has too many digits")
    return structure_from_dict(data)


def load_structure(path) -> Structure:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_structure(fh.read())


def structure_to_dict(m: Structure) -> dict:
    data = {
        "agents": m.n_agents,
        "states": list(m.states),
        "props": list(m.props),
        "partitions": {
            str(i): [sorted(cell) for cell in m.partitions[i]]
            for i in m.agents
        },
        "interpretations": {
            str(i): {p: sorted(m.interpretations[i][p]) for p in m.props
                     if p in m.interpretations[i]}
            for i in m.agents
        },
    }
    beliefs = {}
    for i in m.agents:
        cells = []
        for cb in m.beliefs[i]:
            if cb._point is not None:
                cells.append({"measure": {
                    min(atom): str(mass)
                    for atom, mass in zip(cb.atoms, cb.masses)
                }})
            else:
                cells.append({
                    "atoms": [sorted(a) for a in cb.atoms],
                    "measure": {str(idx): str(mass)
                                for idx, mass in enumerate(cb.masses)},
                })
        beliefs[str(i)] = cells
    data["beliefs"] = beliefs
    # An agent missing from priors or signals stays missing, for
    # validation to report.
    if m.priors is not None:
        data["priors"] = {
            str(i): {s: str(v) for s, v in sorted(m.priors[i].items())}
            for i in m.agents if i in m.priors
        }
    if m.signals is not None:
        data["signals"] = {
            str(i): {s: fm.print_formula(sig)
                     for s, sig in sorted(m.signals[i].items())}
            for i in m.agents if i in m.signals
        }
    return data


def dumps_structure(m: Structure) -> str:
    return json.dumps(structure_to_dict(m), indent=2, sort_keys=True)


def dump_structure(m: Structure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_structure(m))
        fh.write("\n")
