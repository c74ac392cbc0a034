"""Seeded random structures and formulas for property campaigns and tests.

Everything is driven by an explicit ``random.Random`` so that campaigns are
reproducible; no global randomness.  Generated structures use singleton
atoms and integer weights in [0, 8] per state (all-zero cells redrawn,
weights normalised exactly), so they always pass the core checks by
construction.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import formula as fm
from .structure import Structure, generate_priors, singleton_cell
from .transforms import attach_cell_signals, fresh_names

__all__ = [
    "GenBounds", "random_structure", "random_signal_structure",
    "random_core_formula", "random_surface_formula", "formula_corpus",
]

_PROP_NAMES = ("p", "q", "r", "u", "v")


class GenBounds(fm.Frozen):
    """Size bounds of generated structures and formulas.  It keeps a
    ``__dict__``, so ``GenBounds(**vars(bounds))`` rebuilds ``bounds``."""

    _fields = ("max_states", "max_agents", "max_props", "max_depth")

    def __init__(self, max_states: int = 5, max_agents: int = 3,
                 max_props: int = 3, max_depth: int = 4):
        self._init(max_states, max_agents, max_props, max_depth)
        for name in self._fields:
            if getattr(self, name) < 1:
                raise ValueError("%s must be >= 1" % name)


def _random_partition(rng: random.Random, states):
    shuffled = list(states)
    rng.shuffle(shuffled)
    cells = []
    start = 0
    while start < len(shuffled):
        size = rng.randint(1, len(shuffled) - start)
        cells.append(frozenset(shuffled[start:start + size]))
        start += size
    rng.shuffle(cells)
    return tuple(cells)


def _random_cell_measure(rng: random.Random, cell):
    while True:
        weights = {s: rng.randint(0, 8) for s in sorted(cell)}
        total = sum(weights.values())
        if total > 0:
            break
    return singleton_cell(cell, {s: Fraction(w, total)
                                 for s, w in weights.items()})


def random_structure(rng: random.Random, bounds: GenBounds,
                     common: bool = False) -> Structure:
    """A random structure passing the core checks; with ``common`` all
    agents share one interpretation."""
    n_states = rng.randint(1, bounds.max_states)
    n_agents = rng.randint(1, bounds.max_agents)
    n_props = rng.randint(1, bounds.max_props)
    states = tuple("w%d" % k for k in range(1, n_states + 1))
    props = _PROP_NAMES[:n_props] + tuple(
        "p%d" % k for k in range(len(_PROP_NAMES) + 1, n_props + 1))

    partitions = {}
    beliefs = {}
    for i in range(1, n_agents + 1):
        partitions[i] = _random_partition(rng, states)
        beliefs[i] = tuple(_random_cell_measure(rng, cell)
                           for cell in partitions[i])

    def one_interpretation():
        return {p: frozenset(s for s in states if rng.random() < 0.5)
                for p in props}

    if common:
        shared = one_interpretation()
        interpretations = {i: dict(shared) for i in range(1, n_agents + 1)}
    else:
        interpretations = {i: one_interpretation()
                           for i in range(1, n_agents + 1)}

    return Structure(
        n_agents=n_agents, states=states, props=props,
        partitions=partitions, beliefs=beliefs,
        interpretations=interpretations,
    )


def random_signal_structure(rng: random.Random, bounds: GenBounds,
                            cross: bool = False):
    """A random structure with derived priors and valid signals.

    Plain variant: one fresh label per (agent, cell), read identically by
    everyone.  ``cross`` variant: one fresh label per (agent, state); the
    owner reads each of his labels as his cell, while every other agent
    reads agent i's labels as the blocks of a random partition, so other
    agents may think the owner's information is finer or coarser than it
    is.  Both variants satisfy the signal checks by construction.
    """
    base = random_structure(rng, bounds)
    base = base.replace(priors=generate_priors(base))
    if not cross:
        out, _ = attach_cell_signals(base)
        return out

    taken = set(base.props)
    props = list(base.props)
    interpretations = {i: dict(base.interpretations[i]) for i in base.agents}
    signals = {}
    for i in base.agents:
        per_state = {}
        readings = {}
        for j in base.agents:
            if j == i:
                continue
            readings[j] = _random_partition(rng, base.states)
        names = fresh_names(
            ["u_%d_s%d" % (i, idx) for idx in range(len(base.states))], taken)
        for s, name in zip(base.states, names):
            props.append(name)
            interpretations[i][name] = base.cell_of(i, s)
            for j in base.agents:
                if j == i:
                    continue
                block = next(c for c in readings[j] if s in c)
                interpretations[j][name] = block
            per_state[s] = fm.Prop(name)
        signals[i] = per_state
    return base.replace(props=tuple(props), interpretations=interpretations,
                        signals=signals)


def _random_rational(rng: random.Random, lo=-2, hi=2, max_den=3,
                     nonzero=False) -> Fraction:
    while True:
        value = Fraction(rng.randint(lo, hi), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def random_group(rng: random.Random, n_agents: int) -> frozenset:
    """A nonempty group of agents from 1..n_agents, of uniform size."""
    return frozenset(rng.sample(range(1, n_agents + 1),
                                rng.randint(1, n_agents)))


def random_core_formula(rng: random.Random, props, n_agents: int,
                        depth: int):
    """Grammar-directed core formula, biased toward probability and
    common-belief nodes since those distinguish the modes."""
    if depth <= 0:
        return fm.Prop(rng.choice(props))
    roll = rng.random()
    if roll < 0.20:
        return fm.Prop(rng.choice(props))
    if roll < 0.32:
        return fm.Not(random_core_formula(rng, props, n_agents, depth - 1))
    if roll < 0.50:
        return fm.And(random_core_formula(rng, props, n_agents, depth - 1),
                      random_core_formula(rng, props, n_agents, depth - 1))
    if roll < 0.78:
        j = rng.randint(1, n_agents)
        if rng.random() < 0.4:
            terms = ((Fraction(1), j,
                      random_core_formula(rng, props, n_agents, depth - 1)),)
            return fm.ProbGe(terms, Fraction(1))
        n_terms = rng.randint(1, 2)
        terms = tuple(
            (_random_rational(rng, nonzero=True), j,
             random_core_formula(rng, props, n_agents, depth - 1))
            for _ in range(n_terms))
        return fm.ProbGe(terms, _random_rational(rng, lo=-1, hi=2))
    return fm.CB(random_group(rng, n_agents),
                 random_core_formula(rng, props, n_agents, depth - 1))


def random_surface_formula(rng: random.Random, props, n_agents: int,
                           depth: int):
    """Formula over the full surface syntax, for parser round-trips."""
    atoms = ["prop", "prop", "indexed", "true", "false"]
    if depth <= 0:
        kind = rng.choice(atoms)
        if kind == "prop":
            return fm.Prop(rng.choice(props))
        if kind == "indexed":
            return fm.IndexedProp(rng.choice(props),
                                  rng.randint(1, n_agents))
        return fm.TrueF() if kind == "true" else fm.FalseF()
    kind = rng.choice([
        "atom", "not", "and", "or", "implies", "iff",
        "b", "eb", "cb", "prob", "prob",
    ])
    sub = lambda: random_surface_formula(rng, props, n_agents, depth - 1)
    if kind == "atom":
        return random_surface_formula(rng, props, n_agents, 0)
    if kind == "not":
        return fm.Not(sub())
    if kind == "and":
        return fm.And(sub(), sub())
    if kind == "or":
        return fm.Or(sub(), sub())
    if kind == "implies":
        return fm.Implies(sub(), sub())
    if kind == "iff":
        return fm.Iff(sub(), sub())
    if kind == "b":
        return fm.B(rng.randint(1, n_agents), sub())
    if kind == "eb":
        return fm.EB(random_group(rng, n_agents), rng.randint(1, 3), sub())
    if kind == "cb":
        return fm.CB(random_group(rng, n_agents), sub())
    j = rng.randint(1, n_agents)
    terms = tuple(
        (_random_rational(rng, nonzero=True), j, sub())
        for _ in range(rng.randint(1, 2)))
    return fm.ProbGe(terms, _random_rational(rng))


def formula_corpus(rng: random.Random, m: Structure, size: int,
                   depth: int, props=None):
    """A list of random core formulas speaking ``m``'s vocabulary (or the
    given proposition subset)."""
    pool = list(props) if props is not None else list(m.props)
    return [random_core_formula(rng, pool, m.n_agents,
                                rng.randint(1, depth))
            for _ in range(size)]
