"""Property tests: ``Evaluator`` against the brute-force ``tests/oracle.py``
on small structures and surface formulas that Hypothesis draws, in the
cell modes, in common mode with indexed propositions, and in the
``ou-ai``/``in-ai`` modes with plain and with cross-read signals, with
states of prior mass zero; common belief in every mode, also where a
group agent's conditional is undefined."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ambilogic import formula as fm
from ambilogic.errors import CoreInvalid, UndefinedConditional
from ambilogic.modes import EvalMode
from ambilogic.semantics import Evaluator
from ambilogic.structure import Structure, generate_priors, singleton_cell
from ambilogic.transforms import attach_cell_signals, fix_interpretation
from ambilogic.translation import lift_to_indexed

from oracle import eval_brute, prior_mass, prob_value_brute

PROPS = ("p", "q")
BOUNDS = sorted({Fraction(k, d) for k in range(-2, 3) for d in (1, 2, 3)})
COEFFS = [r for r in BOUNDS if r]


def partition(draw, states):
    """A partition of ``states`` drawn as one block label per state."""
    n = len(states)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells = {}
    for s, label in zip(states, labels):
        cells.setdefault(label, []).append(s)
    return tuple(frozenset(c) for c in cells.values())


@st.composite
def structures(draw):
    """At most 4 states and 3 agents; weights 0..3 per state, so cells may
    hold states of mass zero."""
    n = draw(st.integers(1, 4))
    states = tuple("w%d" % k for k in range(1, n + 1))
    n_agents = draw(st.integers(1, 3))
    partitions, beliefs, interpretations = {}, {}, {}
    for i in range(1, n_agents + 1):
        partitions[i] = partition(draw, states)
        cell_beliefs = []
        for cell in map(sorted, partitions[i]):
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


def _comparison(agent, terms, bound):
    return fm.ProbGe(tuple((c, agent, f) for c, f in terms), bound)


def surface_formulas(m, atoms, common_belief):
    """Formulas over ``atoms`` with every abbreviation.  Common belief only
    where the oracle's unfolding of it stays small (|states| * |group| <= 4,
    one per formula)."""
    agents = st.integers(1, m.n_agents)
    cb_size = 4 // len(m.states) if common_belief else 0

    def extend(sub):
        nodes = [
            st.builds(fm.Not, sub),
            st.builds(fm.And, sub, sub),
            st.builds(fm.Or, sub, sub),
            st.builds(fm.Implies, sub, sub),
            st.builds(fm.Iff, sub, sub),
            st.builds(fm.B, agents, sub),
            st.builds(fm.EB, st.frozensets(agents, min_size=1),
                      st.integers(1, 3), sub),
            st.builds(_comparison, agents,
                      st.lists(st.tuples(st.sampled_from(COEFFS), sub),
                               min_size=1, max_size=2),
                      st.sampled_from(BOUNDS)),
        ]
        if cb_size:
            nodes.append(st.builds(fm.CB, st.frozensets(
                agents, min_size=1, max_size=cb_size), sub))
        return st.one_of(nodes)

    leaves = st.sampled_from([*atoms, fm.TrueF(), fm.FalseF()])
    return st.lists(
        st.recursive(leaves, extend, max_leaves=4).filter(
            lambda f: sum(isinstance(g, fm.CB)
                          for g in fm.subformulas(f)) <= 1),
        min_size=1, max_size=3)


def _agree(m, formulas, modes):
    ev = Evaluator(m)
    for f in formulas:
        for mode in modes:
            for i in m.agents:
                for s in m.states:
                    try:
                        got = ev.evaluate(s, i, f, mode)
                    except UndefinedConditional as exc:
                        assert prior_mass(m, exc.agent, exc.event) == 0
                        continue
                    assert got == eval_brute(m, s, i, f, mode), (
                        s, i, fm.print_formula(f), mode.value)


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_cell_modes_match_oracle(m, data):
    plain = [fm.Prop(p) for p in PROPS]
    formulas = data.draw(surface_formulas(m, plain, True), label="formulas")
    # E^2 and E^1 differ on few drawn structures; these make it likelier.
    formulas += [fm.EB(frozenset(m.agents), 2, fm.parse(text))
                 for text in ("p", "!q", "p | q", "p -> q")]
    _agree(m, formulas, (EvalMode.OUTERMOST, EvalMode.INNERMOST))
    _agree(fix_interpretation(m, 1), formulas, (EvalMode.COMMON,))
    indexed = [fm.IndexedProp(p, i) for p in PROPS for i in m.agents]
    _agree(lift_to_indexed(m),
           data.draw(surface_formulas(m, indexed, True), label="indexed"),
           (EvalMode.COMMON,))


def zero_a_prior_state(m, data):
    """m, or m with one drawn state's prior mass set to zero: refused while
    unnormalised, then renormalised when mass remains."""
    if not data.draw(st.booleans(), label="zero a prior state"):
        return m
    agent = data.draw(st.sampled_from(m.agents), label="agent")
    state = data.draw(st.sampled_from(m.states), label="state")
    nu = dict(m.priors[agent], **{state: Fraction(0)})
    total = sum(nu.values())
    if total != 1:  # an unnormalized prior is refused
        with pytest.raises(CoreInvalid, match="prior-sum: agent %d "
                           % agent):
            Evaluator(m.replace(priors={**m.priors, agent: nu}))
    if total:  # renormalized, so the state keeps prior mass zero
        m = m.replace(priors={**m.priors, agent: {
            s: v / total for s, v in nu.items()}})
    return m


def cross_read(m, data):
    """m with one fresh signal label per (agent, state): its owner reads
    it as their cell there, every other agent as the block holding the
    state in a partition drawn per (owner, reader)."""
    props = list(m.props)
    interpretations = {i: dict(m.interpretations[i]) for i in m.agents}
    signals = {}
    for i in m.agents:
        blocks = {j: partition(data.draw, m.states)
                  for j in m.agents if j != i}
        signals[i] = {}
        for s in m.states:
            name = "u%d_%s" % (i, s)
            props.append(name)
            for j in m.agents:
                interpretations[j][name] = (
                    m.cell_of(i, s) if j == i
                    else next(b for b in blocks[j] if s in b))
            signals[i][s] = fm.Prop(name)
    return m.replace(props=tuple(props), interpretations=interpretations,
                     signals=signals)


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_plain_signal_modes_match_oracle(m, data):
    m, _ = attach_cell_signals(m.replace(priors=generate_priors(m)))
    m = zero_a_prior_state(m, data)
    plain = [fm.Prop(p) for p in PROPS]
    _agree(m, data.draw(surface_formulas(m, plain, True), label="formulas"),
           (EvalMode.OUTERMOST_AI, EvalMode.INNERMOST_AI))


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_cross_read_signal_modes_match_oracle(m, data):
    # Readers other than the owner condition on blocks of another
    # partition, so ou-ai and in-ai differ, and a block of prior mass zero
    # makes a conditional undefined.  Each comparison's exact value is
    # checked too, as it is divided by its event's prior mass.
    m = zero_a_prior_state(
        cross_read(m.replace(priors=generate_priors(m)), data), data)
    plain = [fm.Prop(p) for p in PROPS]
    formulas = data.draw(surface_formulas(m, plain, True), label="formulas")
    modes = (EvalMode.OUTERMOST_AI, EvalMode.INNERMOST_AI)
    _agree(m, formulas, modes)
    ev = Evaluator(m)
    for g in dict.fromkeys(g for f in formulas for g in fm.subformulas(f)
                           if isinstance(g, fm.ProbGe)):
        for mode in modes:
            for i in m.agents:
                for s in m.states:
                    try:
                        got = ev.prob_value(s, i, g, mode)
                    except UndefinedConditional:
                        continue
                    assert got == prob_value_brute(m, s, i, g, mode), (
                        s, i, fm.print_formula(g), mode.value)


@settings(max_examples=60, deadline=None)
@given(structures(), st.data())
def test_common_belief_past_an_undefined_conditional_matches_oracle(m, data):
    # Agent j's prior is zero on the cell of a drawn state t, so j's
    # conditional is undefined there; another group agent k gives false
    # probability below one at t, so common belief in false fails at t
    # anyway and the evaluator answers, as the oracle must.
    assume(m.n_agents >= 2)
    m, _ = attach_cell_signals(m.replace(priors=generate_priors(m)))
    j, k = data.draw(st.permutations(m.agents), label="j, k")[:2]
    t = data.draw(st.sampled_from(m.states), label="t")
    cell = m.cell_of(j, t)
    nu = {s: (Fraction(0) if s in cell else v)
          for s, v in m.priors[j].items()}
    total = sum(nu.values())
    assume(total)
    m = m.replace(priors={**m.priors, j: {s: v / total
                                          for s, v in nu.items()}})
    assert prior_mass(m, j, cell) == 0
    group = frozenset({j, k})
    modes = (EvalMode.OUTERMOST_AI, EvalMode.INNERMOST_AI)
    ev = Evaluator(m)
    for mode in modes:
        for outer in m.agents:
            assert t not in ev.common_belief_set(group, fm.FalseF(), mode,
                                                 outer)
    plain = [fm.Prop(p) for p in PROPS]
    args = data.draw(st.lists(
        st.recursive(st.sampled_from(plain), lambda sub: st.one_of(
            st.builds(fm.Not, sub), st.builds(fm.And, sub, sub),
            st.builds(fm.B, st.sampled_from(m.agents), sub)),
            max_leaves=3), min_size=1, max_size=2), label="arguments")
    _agree(m, [fm.CB(group, f) for f in [fm.FalseF(), *args]], modes)
