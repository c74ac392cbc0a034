"""Seeded inputs for the benchmark.

Structures here go past the package generators' 8-state ceiling: state and
proposition names are generated, every agent's partition is cut into cells
of a given size, priors come from ``generate_priors`` and signals are either
the plain cell labels of ``attach_cell_signals`` or cross-read labels.  What
leaves this module is text: ``dumps_structure`` JSON for structures and
``print_formula`` text for formulas, so the program sees only serialized
inputs.  The same ``random.Random`` state always yields the same bytes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from ambilogic import formula as fm
from ambilogic.structure import (
    Structure,
    dumps_structure,
    generate_priors,
    singleton_cell,
)
from ambilogic.transforms import attach_cell_signals


def state_names(n):
    return tuple("s%d" % k for k in range(n))


def prop_names(n):
    """``p`` first (the worst-case CB argument), then ``q1``, ``q2``, ..."""
    return ("p",) + tuple("q%d" % k for k in range(1, n))


def _cells(rng, states, cell_size):
    shuffled = list(states)
    rng.shuffle(shuffled)
    return tuple(frozenset(shuffled[k:k + cell_size])
                 for k in range(0, len(shuffled), cell_size))


def _cell_measure(rng, cell, weights):
    lo, hi = weights
    while True:
        raw = {s: rng.randint(lo, hi) for s in sorted(cell)}
        total = sum(raw.values())
        if total > 0:
            return singleton_cell(cell, {s: Fraction(w, total)
                                         for s, w in raw.items()})


def _cross_signals(rng, m, cell_size):
    """Owner i reads each label as his cell; every other agent reads the
    same label as a block of one random partition B_i, so they take i's
    information to be cut along different lines than it is.  One label per
    nonempty (cell, block) pair keeps the vocabulary near cells x blocks."""
    props = list(m.props)
    interpretations = {i: dict(m.interpretations[i]) for i in m.agents}
    signals = {}
    for i in m.agents:
        blocks = _cells(rng, m.states, cell_size)
        block_of = {s: b for b in blocks for s in b}
        labels = {}
        per_state = {}
        for s in m.states:
            key = (m.cell_index(i, s), block_of[s])
            if key not in labels:
                name = "x%d_%d" % (i, len(labels))
                labels[key] = name
                props.append(name)
                for j in m.agents:
                    interpretations[j][name] = (m.cell_of(i, s) if j == i
                                                else block_of[s])
            per_state[s] = fm.Prop(labels[key])
        signals[i] = per_state
    return m.replace(props=tuple(props), interpretations=interpretations,
                     signals=signals)


def large_structure(rng, n_states, cell_size, n_props=3, n_agents=3,
                    weights=(0, 8), full_p=False, signals=None):
    """A structure passing the core checks by construction.

    Each agent's partition is a random cut into cells of ``cell_size``
    states with integer weights drawn from ``weights`` (an all-zero cell is
    redrawn).  Interpretations are drawn independently per agent, so
    propositions are ambiguous; with ``full_p`` proposition ``p`` is true
    everywhere for everyone.  ``signals`` is None, "plain" or "cross"; with
    signals the structure also gets derived priors.
    """
    states = state_names(n_states)
    props = prop_names(n_props)
    partitions, beliefs, interpretations = {}, {}, {}
    for i in range(1, n_agents + 1):
        partitions[i] = _cells(rng, states, cell_size)
        beliefs[i] = tuple(_cell_measure(rng, c, weights)
                           for c in partitions[i])
    for i in range(1, n_agents + 1):
        interpretations[i] = {
            p: frozenset(states) if full_p and p == "p" else
            frozenset(s for s in states if rng.random() < 0.5)
            for p in props}
    m = Structure(n_agents=n_agents, states=states, props=props,
                  partitions=partitions, beliefs=beliefs,
                  interpretations=interpretations)
    if signals is not None:
        m = m.replace(priors=generate_priors(m))
        if signals == "plain":
            m, _ = attach_cell_signals(m)
        else:
            m = _cross_signals(rng, m, cell_size)
    return m


def structure_json(rng, *args, **kw):
    return dumps_structure(large_structure(rng, *args, **kw))


# --- formulas ---

def _rational(rng, lo, hi, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_formula(rng, props, n_agents, depth, cb=False):
    """Surface formula over Pr/B/E (and CB when ``cb``) of depth <= depth.

    Probability nodes come with probability about one half at each level
    so that nesting, which is what makes the kernels work, is common.
    """
    if depth <= 0:
        return fm.Prop(rng.choice(props))
    sub = lambda: random_formula(rng, props, n_agents, depth - 1, cb)
    agents = range(1, n_agents + 1)
    roll = rng.random()
    if roll < 0.10:
        return fm.Prop(rng.choice(props))
    if roll < 0.20:
        return fm.Not(sub())
    if roll < 0.35:
        return fm.And(sub(), sub())
    if roll < 0.45:
        return fm.Or(sub(), sub())
    if roll < 0.60:
        return fm.B(rng.choice(agents), sub())
    if roll < 0.70:
        group = frozenset(rng.sample(agents, rng.randint(1, n_agents)))
        return fm.EB(group, 1, sub())
    if cb and roll < 0.78:
        group = frozenset(rng.sample(agents, rng.randint(1, n_agents)))
        return fm.CB(group, sub())
    j = rng.choice(agents)
    terms = tuple((_rational(rng, 1, 3) * rng.choice((1, -1)), j, sub())
                  for _ in range(rng.randint(1, 2)))
    return fm.ProbGe(terms, _rational(rng, -1, 2))


def prob_nodes(f):
    """Distinct probability comparisons once abbreviations are expanded:
    the evaluator's work per op is close to proportional to this count."""
    return sum(1 for g in fm.subformulas(fm.expand(f, "p"))
               if isinstance(g, fm.ProbGe))


def formula_text(rng, props, n_agents, depth, cb=False, nodes=None):
    """Text of a random formula of depth 1..depth; with ``nodes``, drawn
    until it has exactly that many probability comparisons, so that ops of
    one workload cost alike and a run's total does not hang on a few
    formulas that happen to nest deeply."""
    while True:
        f = random_formula(rng, props, n_agents, rng.randint(1, depth), cb)
        if nodes is None or prob_nodes(f) == nodes:
            return fm.print_formula(f)


# --- the criterion-7 space: 2 agents, <= 3 states, denominators <= 3 ---

SWEEP_CORPUS = [
    # (group, formula text, mode, outer agent): the acceptance suite's
    # fixed 20-query corpus for the exhaustive common-belief sweep.
    ((1, 2), "p", "in", 1), ((1, 2), "p", "ou", 1), ((1, 2), "!p", "in", 1),
    ((1,), "p", "ou", 2), ((2,), "!p", "in", 1),
    ((1, 2), "B1 p", "in", 1), ((1, 2), "B2 !p", "ou", 2),
    ((1,), "B1 p", "in", 1), ((2,), "B2 p", "ou", 1),
    ((1, 2), "Pr1(p) >= 1/2", "in", 1), ((1, 2), "Pr2(p) >= 1/2", "ou", 2),
    ((1,), "Pr2(p) = 1/2", "in", 1), ((2,), "Pr1(p) < 1/2", "ou", 1),
    ((1, 2), "p & B2 p", "in", 1), ((1, 2), "p | !p", "ou", 2),
    ((1,), "!B2 !p", "in", 1), ((2,), "p -> B1 p", "ou", 2),
    ((1, 2), "E{1,2} p", "in", 1), ((1, 2), "CB{1} p", "ou", 1),
    ((1, 2), "1/2*Pr1(p) + 1/2*Pr1(!p) >= 1/2", "in", 1),
]


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for idx in range(len(part)):
            yield part[:idx] + [[first] + part[idx]] + part[idx + 1:]
        yield [[first]] + part


def _distributions(size):
    seen = set()
    for den in (1, 2, 3):
        for combo in itertools.product(range(den + 1), repeat=size):
            if sum(combo) == den:
                seen.add(tuple(Fraction(c, den) for c in combo))
    return sorted(seen)


def _agent_configs(states):
    """Every (partition, per-cell measure) pair with denominators <= 3, as
    JSON-ready (cells, beliefs) lists in the acceptance suite's order."""
    out = []
    for part in _set_partitions(list(states)):
        cells = [sorted(cell) for cell in part]
        options = [_distributions(len(cell)) for cell in cells]
        for choice in itertools.product(*options):
            beliefs = [{"measure": {s: str(x) for s, x in zip(cell, dist)}}
                       for cell, dist in zip(cells, choice)]
            out.append((cells, beliefs))
    return out


class SweepSpace:
    """Index arithmetic over the 54,404 criterion-7 models, so a uniform
    sample needs no enumeration of the whole space."""

    def __init__(self):
        self.blocks = []
        for n in (1, 2, 3):
            states = ["s%d" % (k + 1) for k in range(n)]
            subsets = [sorted(c) for r in range(n + 1)
                       for c in itertools.combinations(states, r)]
            configs = _agent_configs(states)
            size = len(configs) ** 2 * len(subsets) ** 2
            self.blocks.append((states, configs, subsets, size))
        self.size = sum(block[3] for block in self.blocks)

    def model(self, index):
        for states, configs, subsets, size in self.blocks:
            if index < size:
                break
            index -= size
        index, e2 = divmod(index, len(subsets))
        index, e1 = divmod(index, len(subsets))
        c1, c2 = divmod(index, len(configs))
        (part1, bel1), (part2, bel2) = configs[c1], configs[c2]
        return {
            "agents": 2, "states": states, "props": ["p"],
            "partitions": {"1": part1, "2": part2},
            "beliefs": {"1": bel1, "2": bel2},
            "interpretations": {"1": {"p": subsets[e1]},
                                "2": {"p": subsets[e2]}},
        }


def sweep_sample(rng, space, count):
    return [space.model(k) for k in sorted(rng.sample(range(space.size),
                                                      count))]


def seeded(seed, tag):
    return random.Random("%d/%s" % (seed, tag))
