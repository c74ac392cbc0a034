"""Property tests: ``Evaluator`` against the brute-force ``tests/oracle.py``
on small structures that Hypothesis draws, in the cell modes and in the
plain-signal ``ou-ai``/``in-ai`` modes, with states of prior mass zero."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ambilogic import formula as fm
from ambilogic.errors import UndefinedConditional
from ambilogic.generators import random_core_formula
from ambilogic.modes import EvalMode
from ambilogic.semantics import Evaluator
from ambilogic.structure import Structure, generate_priors, singleton_cell
from ambilogic.transforms import attach_cell_signals, fix_interpretation

from oracle import eval_brute

PROPS = ("p", "q")


@st.composite
def structures(draw):
    """At most 4 states and 3 agents; weights 0..3 per state, so cells may
    hold states of mass zero."""
    n = draw(st.integers(1, 4))
    states = tuple("w%d" % k for k in range(1, n + 1))
    n_agents = draw(st.integers(1, 3))
    partitions, beliefs, interpretations = {}, {}, {}
    for i in range(1, n_agents + 1):
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        cells = {}
        for s, label in zip(states, labels):
            cells.setdefault(label, []).append(s)
        partitions[i] = tuple(frozenset(c) for c in cells.values())
        cell_beliefs = []
        for cell in cells.values():
            weights = draw(st.lists(st.integers(0, 3), min_size=len(cell),
                                    max_size=len(cell)))
            if not any(weights):
                weights[0] = 1
            total = sum(weights)
            cell_beliefs.append(singleton_cell(cell, {
                s: Fraction(w, total) for s, w in zip(cell, weights)}))
        beliefs[i] = tuple(cell_beliefs)
        interpretations[i] = {
            p: frozenset(draw(st.sets(st.sampled_from(states))))
            for p in PROPS}
    return Structure(n_agents=n_agents, states=states, props=PROPS,
                     partitions=partitions, beliefs=beliefs,
                     interpretations=interpretations)


def _formulas(seed, m, common_belief):
    """Random core formulas; common belief only where the oracle's
    unfolding of it stays small (|states| * |group| <= 4, one per
    formula)."""
    rng = random.Random(seed)
    out = []
    while len(out) < 4:
        f = random_core_formula(rng, list(PROPS), m.n_agents,
                                rng.randint(1, 3))
        groups = [g.group for g in fm.subformulas(f) if isinstance(g, fm.CB)]
        if not groups or (common_belief and len(groups) == 1
                          and len(m.states) * len(groups[0]) <= 4):
            out.append(f)
    return out


def _agree(m, formulas, modes):
    ev = Evaluator(m)
    for f in formulas:
        for mode in modes:
            for i in m.agents:
                for s in m.states:
                    try:
                        got = ev.evaluate(s, i, f, mode)
                    except UndefinedConditional as exc:
                        assert m.prior_mass(exc.agent, exc.event) == 0
                        continue
                    assert got == eval_brute(m, s, i, f, mode), (
                        s, i, fm.print_formula(f), mode.value)


@settings(max_examples=60, deadline=None)
@given(structures(), st.integers(0, 2 ** 32 - 1))
def test_cell_modes_match_oracle(m, seed):
    formulas = _formulas(seed, m, common_belief=True)
    _agree(m, formulas, (EvalMode.OUTERMOST, EvalMode.INNERMOST))
    _agree(fix_interpretation(m, 1), formulas, (EvalMode.COMMON,))


@settings(max_examples=60, deadline=None)
@given(structures(), st.integers(0, 2 ** 32 - 1), st.data())
def test_plain_signal_modes_match_oracle(m, seed, data):
    m, _ = attach_cell_signals(m.replace(priors=generate_priors(m)))
    if data.draw(st.booleans(), label="zero a prior state"):
        agent = data.draw(st.sampled_from(m.agents), label="agent")
        state = data.draw(st.sampled_from(m.states), label="state")
        priors = {i: dict(nu) for i, nu in m.priors.items()}
        priors[agent][state] = Fraction(0)
        m = m.replace(priors=priors)
    _agree(m, _formulas(seed, m, common_belief=False),
           (EvalMode.OUTERMOST_AI, EvalMode.INNERMOST_AI))
