import gc
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambilogic import formula as fm
from ambilogic.errors import (
    AmbilogicError,
    CoreInvalid,
    ModePrereqMissing,
    MissingSignals,
    NotMeasurable,
    UndefinedConditional,
    UnknownAgent,
    UnknownProp,
    UnknownState,
)
from ambilogic.generators import (
    GenBounds,
    formula_corpus,
    random_core_formula,
    random_signal_structure,
    random_structure,
    random_surface_formula,
)
from ambilogic.modes import EvalMode
from ambilogic.campaign import CHECK_NAMES, Campaign, run_campaign
from ambilogic.semantics import Evaluator, disagreements, valid_in_model
from ambilogic.structure import (
    CellBeliefs,
    Structure,
    singleton_cell,
    structure_from_dict,
    validate_core,
)
from ambilogic.transforms import attach_cell_signals, fix_interpretation
from ambilogic.translation import translate_in

from demo_models import m_ai, m_ck, m_red, m_sig

OU, IN = EvalMode.OUTERMOST, EvalMode.INNERMOST
OU_AI, IN_AI = EvalMode.OUTERMOST_AI, EvalMode.INNERMOST_AI
COMMON = EvalMode.COMMON
HALF = Fraction(1, 2)
ONE = Fraction(1)
ZERO = Fraction(0)


def test_outermost_probability_clause():
    m = m_red()
    ev = Evaluator(m)
    assert not ev.evaluate("w1", 1, fm.parse("Pr2(p) >= 1"), OU)
    assert ev.evaluate("w1", 1, fm.parse("Pr2(p) = 1/2"), OU)
    assert ev.evaluate("w1", 2, fm.parse("Pr2(p) >= 1"), OU)


def test_innermost_probability_clause():
    assert Evaluator(m_red()).evaluate("w1", 1, fm.parse("Pr2(p) >= 1"), IN)


def test_common_belief_examples():
    m = m_red()
    ev = Evaluator(m)
    assert ev.evaluate("w1", 2, fm.parse("CB{1,2} p"), OU)
    assert not ev.evaluate("w1", 1, fm.parse("CB{1,2} p"), OU)


def test_signal_mode_divergence():
    m = m_ai()
    f = fm.parse("Pr1(p) >= 1")
    ev = Evaluator(m)
    assert ev.evaluate("a", 2, f, OU_AI)
    assert not ev.evaluate("a", 2, f, IN_AI)
    assert ev.evaluate("a", 2, fm.parse("Pr1(p) = 1/2"), IN_AI)


def test_extension_examples():
    m = m_red()
    ev = Evaluator(m)
    assert ev.extension(1, fm.parse("p"), OU) == frozenset({"w1"})
    assert ev.extension(1, fm.parse("Pr2(p) = 1/2"), OU) == m.universe
    assert ev.extension(1, fm.parse("true"), OU) == m.universe
    assert ev.extension(2, fm.parse("true"), IN) == m.universe


def test_common_belief_set_examples():
    m = m_red()
    p = fm.parse("p")
    ev = Evaluator(m)
    assert ev.common_belief_set({1, 2}, p, OU, 2) == m.universe
    assert ev.common_belief_set({1, 2}, p, IN, 1) == frozenset()
    assert ev.common_belief_set({1, 2}, fm.parse("true"), IN, 1) == m.universe


def test_eb_k_examples():
    m = m_red()
    p = fm.parse("p")
    ev = Evaluator(m)
    assert ev.eb_k({2}, p, 1, IN, 1) == m.universe
    assert ev.eb_k({1}, p, 1, OU, 1) == frozenset({"w1"})


@pytest.mark.parametrize("query, message", [
    (lambda ev, p: ev.common_belief_set(set(), p, OU, 1),
     "common-belief group must be nonempty"),
    (lambda ev, p: ev.eb_k({1}, p, 0, OU, 1), "k must be >= 1"),
    (lambda ev, p: ev.eb_k(set(), p, 1, OU, 1), "group must be nonempty"),
])
def test_group_queries_refuse_an_empty_group_or_level_0(query, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        query(Evaluator(m_red()), fm.parse("p"))


@pytest.mark.parametrize("j, outer", [(99, 1), (1, 99), (1, 0)])
def test_belief_edges_refuses_an_unknown_agent_or_outer_agent(j, outer):
    with pytest.raises(UnknownAgent, match=r"^agent %d not in 1\.\.2$"
                       % (99 if j == 99 else outer)):
        Evaluator(m_red()).belief_edges(j, OU, outer)


def test_eb_k_matches_literal_expansion():
    # the set iteration agrees with evaluating the expanded abbreviation
    m = m_red()
    ev = Evaluator(m)
    for mode, outer in ((OU, 1), (OU, 2), (IN, 1)):
        for k in (1, 2, 3):
            surface = fm.EB(frozenset({1, 2}), k, fm.Prop("p"))
            via_formula = ev.extension(outer, surface, mode)
            via_sets = ev.eb_k({1, 2}, fm.Prop("p"), k, mode, outer)
            assert via_formula == via_sets


def test_valid_in_model():
    m = m_red()
    assert valid_in_model(m, fm.parse("Pr2(p) >= 1/2"), OU).ok
    report = valid_in_model(m, fm.parse("p"), OU)
    assert not report.ok
    witness = report.entries[0].context
    assert (witness["state"], witness["agent"]) == ("w2", 1)
    assert valid_in_model(m, fm.parse("true"), IN).ok


def test_prob_value_matches_brute_force_oracle():
    from oracle import prob_value_brute
    rng = random.Random(31)
    bounds = GenBounds(max_states=4, max_agents=2, max_props=2)
    compared = 0
    for trial in range(40):
        if trial % 2:
            m = random_signal_structure(rng, bounds, cross=trial % 4 == 3)
            modes = (OU_AI, IN_AI)
        else:
            m = random_structure(rng, bounds)
            modes = (OU, IN)
        ev = Evaluator(m)
        for f in formula_corpus(rng, m, 4, 3, props=m.props[:2]):
            if not isinstance(f, fm.ProbGe) or any(
                    isinstance(g, fm.CB) for g in fm.subformulas(f)):
                continue
            for s in m.states:
                for i in m.agents:
                    for mode in modes:
                        try:
                            value = ev.prob_value(s, i, f, mode)
                        except UndefinedConditional:
                            continue
                        assert value == prob_value_brute(m, s, i, f, mode)
                        assert (value >= f.bound) == ev.evaluate(s, i, f, mode)
                        compared += 1
    assert compared >= 200, compared


def test_prob_value_rejects_other_formulas():
    with pytest.raises(ValueError):
        Evaluator(m_red()).prob_value("w1", 1, fm.parse("p"), OU)
    assert Evaluator(m_red()).prob_value(
        "w1", 1, fm.parse("B2 p"), OU) == HALF


def test_innermost_truth_is_agent_independent():
    rng = random.Random(3)
    for _ in range(25):
        m = random_structure(rng, GenBounds(max_states=4, max_agents=3))
        ev = Evaluator(m)
        for f in formula_corpus(rng, m, 3, 3):
            if not isinstance(f, (fm.ProbGe, fm.CB)):
                f = fm.ProbGe(((ONE, 1, f),), HALF)
            for s in m.states:
                values = {ev.evaluate(s, i, f, IN) for i in m.agents}
                assert len(values) == 1


def test_probability_extensions_are_cell_unions():
    rng = random.Random(4)
    for _ in range(25):
        m = random_structure(rng, GenBounds(max_states=5, max_agents=3))
        ev = Evaluator(m)
        for f in formula_corpus(rng, m, 4, 3):
            if not isinstance(f, fm.ProbGe):
                continue
            j = f.agent
            for mode, outer in ((OU, 1), (IN, 1)):
                ext = ev.extension(outer, f, mode)
                for cell in m.partitions[j]:
                    assert cell <= ext or not (cell & ext)


def test_modes_agree_on_common_interpretation():
    m = m_ck()
    ev = Evaluator(m)
    rng = random.Random(5)
    for f in formula_corpus(rng, m, 12, 4):
        for s in m.states:
            for i in m.agents:
                vals = {ev.evaluate(s, i, f, mode)
                        for mode in (COMMON, OU, IN)}
                assert len(vals) == 1


def test_innermost_ai_equals_innermost_on_prior_generated():
    m = m_sig()
    ev = Evaluator(m)
    rng = random.Random(6)
    for f in formula_corpus(rng, m, 12, 4):
        for s in m.states:
            for i in m.agents:
                assert ev.evaluate(s, i, f, IN) == ev.evaluate(s, i, f, IN_AI)


def test_truth_does_not_entail_belief():
    # an agent whose cell contains a state falsifying f can satisfy f
    # without believing it
    cell = frozenset({"w1", "w2"})
    m = Structure(
        n_agents=1, states=("w1", "w2"), props=("p",),
        partitions={1: (cell,)},
        beliefs={1: (singleton_cell(cell, {"w1": HALF, "w2": HALF}),)},
        interpretations={1: {"p": frozenset({"w1"})}},
    )
    ev = Evaluator(m)
    assert ev.evaluate("w1", 1, fm.parse("p"), IN)
    assert not ev.evaluate("w1", 1, fm.parse("B1 p"), IN)


def test_unnormalized_masses_never_leak():
    # with all arguments "true" the comparison reduces to plain arithmetic
    # on the coefficient sum
    m = m_red()
    ev = Evaluator(m)
    assert ev.evaluate("w1", 1,
                       fm.parse("1/2*Pr2(true) + 1/3*Pr2(true) >= 5/6"), OU)
    assert not ev.evaluate("w1", 1,
                           fm.parse("1/2*Pr2(true) + 1/3*Pr2(true) >= 6/7"),
                           OU)


def test_common_mode_requires_common_interpretation():
    with pytest.raises(ModePrereqMissing):
        Evaluator(m_red()).evaluate("w1", 1, fm.parse("p"), COMMON)
    assert Evaluator(m_ck()).evaluate("w1", 1, fm.parse("!p | p"), COMMON)


def test_a_failing_mode_raises_on_every_ask():
    """The mode's check runs once per ``Evaluator``; its verdict is kept,
    and every later ask in that mode raises the same error."""
    ev = Evaluator(m_red())
    asks = [lambda: ev.evaluate("w1", 1, fm.parse("p"), COMMON),
            lambda: ev.evaluate("w1", 1, fm.parse("p"), COMMON),
            lambda: ev.extension(2, fm.parse("B1 p"), COMMON),
            lambda: ev.common_belief_set({1, 2}, fm.parse("p"), COMMON, 1),
            lambda: ev.eb_k({1}, fm.parse("p"), 2, COMMON, 2)]
    messages = set()
    for ask in asks:
        with pytest.raises(ModePrereqMissing) as exc:
            ask()
        messages.add(str(exc.value))
    assert messages == {"common mode needs a common interpretation; "
                        "agents disagree on some proposition"}
    assert ev.evaluate("w1", 1, fm.parse("p"), OU)  # other modes answer


def test_disagreements_yields_each_pair_answered_differently_in_order():
    m = m_red()
    left, right = Evaluator(m), Evaluator(m_ck())
    corpus = [fm.parse("p"), fm.parse("B2 p"), fm.parse("Pr2(p) >= 1/2")]
    pairs = [((s, i, f, IN), (s, i, f, mode)) for f in corpus
             for s in m.states for i in m.agents for mode in (OU, COMMON)]
    want = []
    for pair in pairs:
        (s, i, f, mode), (t, j, g, other) = pair
        on_left = left.evaluate(s, i, f, mode)
        on_right = right.evaluate(t, j, g, other)
        if on_left != on_right:
            want.append((pair, on_left, on_right))
    got = list(disagreements(left, right, iter(pairs)))
    assert got == want and len(got) >= 2
    assert list(disagreements(left, left, [(q, q) for q, _ in pairs])) == []


def test_indexed_props_only_in_common_mode():
    from ambilogic.translation import lift_to_indexed
    ev = Evaluator(lift_to_indexed(m_red()))
    assert ev.evaluate("w1", 1, fm.parse("p@1"), COMMON)
    assert ev.evaluate("w2", 2, fm.parse("p@2"), COMMON)
    with pytest.raises(ModePrereqMissing):
        ev.evaluate("w1", 1, fm.parse("p@1"), OU)


def test_ai_modes_require_priors_and_signals():
    with pytest.raises(MissingSignals):
        Evaluator(m_red()).evaluate("w1", 1, fm.parse("Pr1(p) >= 1"), IN_AI)
    no_priors = m_sig().replace(priors=None)
    with pytest.raises(ModePrereqMissing):
        Evaluator(no_priors).evaluate("w1", 1, fm.parse("Pr1(p) >= 1"),
                                      IN_AI)


def _perturbed(rng, m):
    """m with at most one fault planted: a cell mass raised by 1/3 or
    negated, a prior mass lowered by 1/7 or a prior dropped, a cell dropped
    or widened over a state of another cell, an interpretation dropped.
    Some plants change nothing (negating a zero mass), so some come back
    valid."""
    i = rng.choice(m.agents)
    cells, spaces = list(m.partitions[i]), list(m.beliefs[i])
    ci = rng.randrange(len(cells))
    kind = rng.randrange(8)
    if kind < 2:
        masses = list(spaces[ci].masses)
        k = rng.randrange(len(masses))
        masses[k] = masses[k] + Fraction(1, 3) if kind else -masses[k]
        spaces[ci] = CellBeliefs(spaces[ci].states, spaces[ci].atoms,
                                 tuple(masses))
    elif kind < 4 and m.priors is not None:
        priors = dict(m.priors)
        if kind == 2:
            s = rng.choice(m.states)
            priors[i] = dict(priors[i], **{s: priors[i][s] - Fraction(1, 7)})
        else:
            del priors[i]
        return m.replace(priors=priors)
    elif kind == 4:
        del cells[ci], spaces[ci]
    elif kind == 5:
        cells[ci] |= {rng.choice(m.states)}
    elif kind == 6:
        interpretation = dict(m.interpretations[i])
        del interpretation[rng.choice(m.props)]
        return m.replace(interpretations={**m.interpretations,
                                          i: interpretation})
    else:
        return m
    return m.replace(partitions={**m.partitions, i: tuple(cells)},
                     beliefs={**m.beliefs, i: tuple(spaces)})


def test_every_evaluator_refuses_a_structure_failing_core_checks():
    rng = random.Random(41)
    bounds = GenBounds(max_states=5, max_agents=3, max_props=2)
    refused = accepted = 0
    for trial in range(1600):
        m = (random_signal_structure(rng, bounds) if trial % 2
             else random_structure(rng, bounds, common=trial % 4 == 2))
        m = _perturbed(rng, m)
        report = validate_core(m)
        for entry in report.entries:
            if entry.kind in ("measure-sum", "prior-sum"):
                agent, cell = entry.context["agent"], entry.context.get("cell")
                masses = (m.beliefs[agent][cell].masses if cell is not None
                          else m.priors[agent].values())
                assert entry.context["total"] == str(sum(masses, Fraction(0)))
        if report.ok:
            ev = Evaluator(m)
            assert ev.extension(1, fm.Prop(m.props[0]), OU) \
                == m.interpretations[1][m.props[0]]
            accepted += 1
            continue
        with pytest.raises(CoreInvalid) as info:
            Evaluator(m)
        assert str(info.value) == "structure fails core checks: %s" % report
        refused += 1
    assert refused >= 1000 and accepted >= 100, (refused, accepted)


def test_outermost_ai_rejects_broken_cross_reading():
    m = m_sig()
    broken = m.replace(interpretations={
        1: m.interpretations[1],
        2: {"p": m.interpretations[2]["p"], "s": frozenset({"w1", "w2"})},
    })
    f = fm.parse("Pr1(p) >= 1")
    ev = Evaluator(broken)
    with pytest.raises(ModePrereqMissing):
        ev.evaluate("w1", 2, f, OU_AI)
    # innermost signal mode only needs the owner-side checks, which still hold
    assert isinstance(ev.evaluate("w1", 2, f, IN_AI), bool)


def test_zero_prior_cell_rejected_on_touch():
    m = m_sig()
    skewed = m.replace(priors={
        1: {"w1": ONE, "w2": Fraction(0)},
        2: {"w1": HALF, "w2": HALF},
    })
    ev = Evaluator(skewed)
    # agent 1's signal at w2 denotes {w2}, prior mass 0
    with pytest.raises(UndefinedConditional):
        ev.evaluate("w2", 1, fm.parse("Pr1(p) >= 1"), IN_AI)
    # but queries about agent 2 alone stay fine
    assert ev.evaluate("w1", 1, fm.parse("Pr2(p) >= 1"), IN_AI)


def test_query_validation_errors():
    ev = Evaluator(m_red())
    with pytest.raises(UnknownProp):
        ev.evaluate("w1", 1, fm.parse("zzz"), OU)
    with pytest.raises(UnknownAgent):
        ev.evaluate("w1", 1, fm.parse("Pr3(p) >= 1"), OU)
    with pytest.raises(UnknownAgent):
        ev.evaluate("w1", 9, fm.parse("p"), OU)
    with pytest.raises(UnknownState):
        ev.evaluate("zz", 1, fm.parse("p"), OU)


def test_expand_preserves_evaluation():
    rng = random.Random(14)
    from ambilogic.generators import random_surface_formula
    for _ in range(20):
        m = random_structure(rng, GenBounds(max_states=4, max_agents=2))
        ev = Evaluator(m)
        for _ in range(5):
            f = random_surface_formula(rng, list(m.props), m.n_agents, 3)
            if any(isinstance(g, fm.IndexedProp) for g in fm.subformulas(f)):
                continue
            expanded = fm.expand(f, m.props[0])
            for s in m.states:
                for i in m.agents:
                    for mode in (OU, IN):
                        assert ev.evaluate(s, i, f, mode) \
                            == ev.evaluate(s, i, expanded, mode)


def test_propositional_truth_ignores_the_mode():
    m = m_sig()  # has priors and signals, so all five modes are available
    ev = Evaluator(m)
    common = m_ck()
    ev_common = Evaluator(common)
    for text in ("p", "!p", "p & s", "p | !s", "true", "false"):
        f = fm.parse(text)
        for s in m.states:
            for i in m.agents:
                values = {ev.evaluate(s, i, f, mode)
                          for mode in (OU, IN, OU_AI, IN_AI)}
                assert len(values) == 1
    for s in common.states:
        for i in common.agents:
            values = {ev_common.evaluate(s, i, fm.parse("p"), mode)
                      for mode in (COMMON, OU, IN)}
            assert len(values) == 1


def test_inai_successors_constant_on_cells():
    # after the signal checks pass, an agent's conditioning event under his
    # own reading is his cell, so successor sets agree within a cell
    from ambilogic.structure import validate_signals
    for m in (m_sig(), m_ai()):
        assert validate_signals(m).ok
        for j in m.agents:
            edges = Evaluator(m).belief_edges(j, IN_AI, 1)
            succ = {}
            for a, b in edges:
                succ.setdefault(a, set()).add(b)
            for cell in m.partitions[j]:
                assert len({frozenset(succ.get(s, set())) for s in cell}) == 1


def test_cb_saturation_against_eb_chain():
    rng = random.Random(9)
    for _ in range(40):
        m = random_structure(rng, GenBounds(max_states=4, max_agents=2))
        ev = Evaluator(m)
        group = frozenset(range(1, m.n_agents + 1))
        f = formula_corpus(rng, m, 1, 2)[0]
        for mode, outer in ((IN, 1), (OU, 1)):
            bound = len(m.states) * len(group) + 1
            chain = m.universe
            for k in range(1, bound + 1):
                chain &= ev.eb_k(group, f, k, mode, outer)
            assert ev.common_belief_set(group, f, mode, outer) == chain


def _chain_fixpoint(ev, group, f, mode, outer):
    """Intersection of eb_k for k = 1, 2, ... until a level repeats."""
    out = ev.m.universe
    seen = set()
    k = 1
    while True:
        level = ev.eb_k(group, f, k, mode, outer)
        if level in seen:
            return out
        seen.add(level)
        out &= level
        k += 1


def test_cb_matches_eb_chain_in_all_modes():
    rng = random.Random(21)
    bounds = GenBounds(max_states=5, max_agents=3, max_props=2)
    compared = {mode: 0 for mode in EvalMode}
    undefined = 0
    for trial in range(300):
        kind = trial % 5
        if kind == 0:
            m = random_structure(rng, bounds)
            modes = (OU, IN)
        elif kind == 1:
            m = fix_interpretation(random_structure(rng, bounds), 1)
            modes = (COMMON,)
        else:
            m = random_signal_structure(rng, bounds, cross=kind == 3)
            modes = (OU_AI, IN_AI)
        props = list(m.props[:bounds.max_props])
        agents = list(m.agents)
        group = frozenset(rng.sample(agents, rng.randint(1, len(agents))))
        inner = random_core_formula(rng, props, m.n_agents, 2)
        j = rng.choice(agents)
        args = (
            inner,
            fm.ProbGe(((HALF, j, inner), (ONE, j, fm.Prop(props[0]))),
                      HALF),
            fm.And(fm.Prop(props[-1]),
                   fm.CB(frozenset(rng.sample(agents, 1)), inner)),
        )
        ev = Evaluator(m)
        for mode in modes:
            for f in args:
                outer = rng.choice(agents)
                try:
                    chain = _chain_fixpoint(ev, group, f, mode, outer)
                except UndefinedConditional:
                    undefined += 1
                    continue
                assert ev.common_belief_set(group, f, mode, outer) == chain, (
                    trial, mode, fm.print_formula(f), outer)
                compared[mode] += 1
    assert min(compared.values()) >= 120, (compared, undefined)


def _zero_mass_at_w2():
    """Agent 1's cell {w1, w2} gives w2 mass 0, and so does agent 1's
    prior; agent 2's cell {w2, w3} gives p = {w1, w3} probability 1/2.
    Everyone reads p, and the signals a = {w1, w2} and b = {w1}, alike."""
    whole = {"p": ["w1", "w3"], "a": ["w1", "w2"], "b": ["w1"]}
    return structure_from_dict({
        "agents": 2, "states": ["w1", "w2", "w3"], "props": ["p", "a", "b"],
        "partitions": {"1": [["w1", "w2"], ["w3"]],
                       "2": [["w1"], ["w2", "w3"]]},
        "beliefs": {"1": [{"measure": {"w1": "1", "w2": "0"}},
                          {"measure": {"w3": "1"}}],
                    "2": [{"measure": {"w1": "1"}},
                          {"measure": {"w2": "1/2", "w3": "1/2"}}]},
        "interpretations": {"1": whole, "2": whole},
        "priors": {"1": {"w1": "1/2", "w2": "0", "w3": "1/2"},
                   "2": {"w1": "1/3", "w2": "1/3", "w3": "1/3"}},
        "signals": {"1": {"w1": "a", "w2": "a", "w3": "!a"},
                    "2": {"w1": "b", "w2": "!b", "w3": "!b"}},
    })


@pytest.mark.parametrize("mode", list(EvalMode))
def test_cb_failure_outside_a_support_fails_no_space(mode):
    # Common belief in p fails at w2 and w3, where agent 2 does not
    # believe p.  w2 lies in agent 1's cell (and conditioning event) of
    # w1 but outside its support, so w1 reaches only itself and keeps it.
    from oracle import eval_brute
    m = _zero_mass_at_w2()
    ev = Evaluator(m)
    p = fm.Prop("p")
    for outer in m.agents:
        got = ev.common_belief_set({1, 2}, p, mode, outer)
        assert got == frozenset({"w1"})
        assert got == _chain_fixpoint(ev, {1, 2}, p, mode, outer)
        assert got == {s for s in m.states
                       if eval_brute(m, s, outer, fm.CB({1, 2}, p), mode)}


def _undefined_for_agent_2():
    """Agent 1 cannot tell w1 from w2 and reads p as {w1}; agent 2 knows
    the state, but her prior gives her cell {w2} no mass, so her
    conditional at w2 is undefined in the innermost signal mode."""
    uniform = {"w1": HALF, "w2": HALF}
    whole = frozenset({"w1", "w2"})
    return Structure(
        n_agents=2,
        states=("w1", "w2"),
        props=("p", "s"),
        partitions={
            1: (whole,),
            2: (frozenset({"w1"}), frozenset({"w2"})),
        },
        beliefs={
            1: (singleton_cell(whole, dict(uniform)),),
            2: (singleton_cell({"w1"}, {"w1": ONE}),
                singleton_cell({"w2"}, {"w2": ONE})),
        },
        interpretations={
            1: {"p": frozenset({"w1"}), "s": frozenset({"w1"})},
            2: {"p": whole, "s": frozenset({"w1"})},
        },
        priors={1: dict(uniform), 2: {"w1": ONE, "w2": Fraction(0)}},
        signals={
            1: {"w1": fm.parse("s | !s"), "w2": fm.parse("s | !s")},
            2: {"w1": fm.parse("s"), "w2": fm.parse("!s")},
        },
    )


def test_undefined_conditional_raised_by_every_reader():
    # each reader of agent 2's conditioning events names the same first
    # undefined (agent, state) pair; a state whose conditional is defined
    # still gets its value
    m = _undefined_for_agent_2()
    p = fm.parse("p")
    comparison = fm.parse("Pr2(p) >= 1")
    readers = (
        lambda ev: ev.extension(1, fm.parse("B2 p"), IN_AI),
        lambda ev: ev.eb_k({1, 2}, p, 1, IN_AI, 1),
        lambda ev: ev.belief_edges(2, IN_AI, 1),
        lambda ev: ev.prob_value("w2", 1, comparison, IN_AI),
    )
    for read in readers:
        with pytest.raises(UndefinedConditional) as info:
            read(Evaluator(m))
        assert (info.value.agent, info.value.state) == (2, "w2")
    assert Evaluator(m).prob_value("w1", 1, comparison, IN_AI) == 1


def test_cb_undefined_conditional_at_refuted_state_is_ignored():
    # Agent 1 considers w1 and w2 possible everywhere and reads p as {w1},
    # so common belief in p fails at both states through agent 1; agent 2's
    # undefined conditional at w2 cannot change that.
    m = _undefined_for_agent_2()
    ev = Evaluator(m)
    assert ev.common_belief_set({1, 2}, fm.parse("p"), IN_AI, 1) \
        == frozenset()


def test_cb_undefined_conditional_at_unrefuted_state_raises():
    m = _undefined_for_agent_2()
    ev = Evaluator(m)
    with pytest.raises(UndefinedConditional) as info:
        ev.common_belief_set({1, 2}, fm.parse("p | !s"), IN_AI, 1)
    assert (info.value.agent, info.value.state) == (2, "w2")


def test_repeated_query_answers_without_prepare(monkeypatch):
    ev = Evaluator(m_red())
    f = fm.parse("Pr2(p) = 1/2")
    assert ev.evaluate("w1", 1, f, OU)
    calls = []
    monkeypatch.setattr(Evaluator, "_prepare",
                        lambda *args: calls.append(args))
    assert ev.evaluate("w2", 1, f, OU) == ("w2" in ev.extension(1, f, OU))
    assert ev.extension(1, fm.parse("Pr2(p) = 1/2"), OU)  # an equal copy
    assert calls == []


def test_unknown_names_are_reported_first_in_sorted_order():
    ev = Evaluator(m_red())
    with pytest.raises(UnknownAgent, match="agent 5"):
        ev.extension(1, fm.parse("B7 p & B5 p & B6 p"), OU)
    with pytest.raises(UnknownProp, match="'r'"):
        ev.extension(1, fm.parse("u & t & r & s"), OU)


def test_signal_modes_read_signals_in_the_query_evaluator(monkeypatch):
    built = []
    init = Evaluator.__init__
    monkeypatch.setattr(Evaluator, "__init__",
                        lambda self, m: built.append(m) or init(self, m))
    ev = Evaluator(m_ai())
    for mode in (OU_AI, IN_AI):
        ev.extension(2, fm.parse("Pr1(p) >= 1"), mode)
    assert len(built) == 1


def test_deep_chains_evaluate_without_recursion():
    even = fm.parse("!" * 3000 + "p")
    for m, mode in ((m_ck(), COMMON), (m_red(), OU), (m_red(), IN)):
        ev = Evaluator(m)
        assert ev.extension(1, even, mode) == m.interpretations[1]["p"]
    m = m_red()
    cb = fm.parse("CB{1,2} " * 1000 + "p")
    assert Evaluator(m).extension(1, cb, IN) == \
        Evaluator(m).extension(1, fm.parse("CB{1,2} p"), IN)


def test_repeated_deep_query_parsed_twice_is_answered():
    ev = Evaluator(m_red())
    first, second = (fm.parse("!" * 3000 + "p") for _ in range(2))
    assert ev.extension(1, first, IN) == frozenset({"w1"})
    assert ev.extension(1, second, IN) == frozenset({"w1"})
    assert ev.evaluate("w1", 1, second, IN)


def test_expanded_group_belief_is_planned_once_per_node(monkeypatch):
    calls = []
    node_facts = fm._node_facts
    monkeypatch.setattr(fm, "_node_facts",
                        lambda g: calls.append(g) or node_facts(g))
    f = fm.parse("E{1,2}^16 p")
    calls.clear()
    core = fm.expand(f, "p")
    # 16 levels of one And over two beliefs; the p under them is f's own.
    # Nodes still live from earlier tests are not built again, so no node
    # is planned twice and at most the 48 new ones are planned.
    assert len(fm.subformulas(core)) == 49
    assert len(calls) == len({id(g) for g in calls}) <= 48
    best = float("inf")
    for _ in range(3):
        ev = Evaluator(m_red())
        started = time.perf_counter()
        ev.evaluate("w1", 1, core, OU)
        best = min(best, time.perf_counter() - started)
    assert best < 0.010, best
    assert len(calls) == len({id(g) for g in calls}) <= 48


def test_eb_k_chain_checks_its_query_once(monkeypatch):
    ev = Evaluator(m_red())
    checked = []
    check = ev._check_query
    monkeypatch.setattr(ev, "_check_query",
                        lambda f, mode: checked.append(f) or check(f, mode))
    f = fm.parse("Pr1(p) >= 1/2")
    for k in range(1, 11):
        ev.eb_k({1, 2}, f, k, OU, 1)
    assert checked == [f]


def test_campaign_formulas_leave_no_cyclic_garbage():
    # The campaign's formulas are core ones; the surface formulas after it
    # exercise the expansions that nodes keep.
    rng = random.Random(3)
    gc.collect()
    gc.disable()
    try:
        run_campaign(Campaign(seed=3, trials=2, checks=CHECK_NAMES))
        ev = Evaluator(m_red())
        for _ in range(30):
            f = random_surface_formula(rng, ["p"], 2, 3)
            if not fm.facts(f).indexed:
                ev.extension(1, f, IN)
                translate_in(f, 1, "p")
        del ev, f
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    nodes = tuple(getattr(fm, name) for name in (
        "Prop", "IndexedProp", "Not", "And", "ProbTerm", "ProbGe", "CB",
        "Or", "Implies", "Iff", "TrueF", "FalseF", "B", "EB"))
    assert not [g for g in garbage
                if isinstance(g, nodes + (Evaluator, CellBeliefs))]


# --- The comparison kernel's edge cases, against tests/oracle.py ---

def _kernel_structure(masses_1, masses_2):
    """Two agents over w1..w4 with point masses; agent 1's cells are
    {w1, w2, w3} and {w4}, agent 2's {w1, w2} and {w3, w4}.  The agents
    read p and q differently."""
    cells_1 = (frozenset({"w1", "w2", "w3"}), frozenset({"w4"}))
    cells_2 = (frozenset({"w1", "w2"}), frozenset({"w3", "w4"}))
    return Structure(
        n_agents=2, states=("w1", "w2", "w3", "w4"), props=("p", "q"),
        partitions={1: cells_1, 2: cells_2},
        beliefs={i: tuple(singleton_cell(cell, {s: masses[s] for s in cell})
                          for cell in cells)
                 for i, cells, masses in ((1, cells_1, masses_1),
                                          (2, cells_2, masses_2))},
        interpretations={
            1: {"p": frozenset({"w1", "w3"}), "q": frozenset({"w2"})},
            2: {"p": frozenset({"w1", "w4"}), "q": frozenset({"w2", "w3"})},
        },
    )


# Mixed denominators in every cell, and a zero-mass state (w3 for agent 2).
_MIXED_1 = {"w1": Fraction(1, 3), "w2": HALF, "w3": Fraction(1, 6),
            "w4": ONE}
_MIXED_2 = {"w1": Fraction(1, 5), "w2": Fraction(4, 5), "w3": Fraction(0),
            "w4": ONE}


def _matches_oracle(m, texts, modes):
    """``extension`` of each formula, and ``prob_value`` of each of its
    comparisons, at every state for every agent, equal the oracle's."""
    from oracle import eval_brute, prob_value_brute
    ev = Evaluator(m)
    compared = 0
    for text in texts:
        f = fm.parse(text)
        comparisons = [g for g in fm.subformulas(f)
                       if isinstance(g, fm.ProbGe)]
        for mode in modes:
            for i in m.agents:
                assert ev.extension(i, f, mode) == frozenset(
                    s for s in m.states if eval_brute(m, s, i, f, mode)), (
                        text, mode.value, i)
                for g in comparisons:
                    for s in m.states:
                        assert ev.prob_value(s, i, g, mode) \
                            == prob_value_brute(m, s, i, g, mode), (
                                text, mode.value, i, s)
                        compared += 1
    return compared


def test_kernel_negative_coefficients_match_oracle():
    # "<=" and ">" desugar to negated coefficients and bounds; "=" to both
    m = _kernel_structure(_MIXED_1, _MIXED_2)
    texts = ["Pr1(p) <= 1/3", "Pr2(q) > 1/5", "Pr1(p) = 1/2",
             "Pr2(p) + -1/2*Pr2(q) >= -1/10", "-2*Pr1(q) < -1/2",
             "B2 (Pr1(p) <= 1/2)"]
    assert _matches_oracle(m, texts, (OU, IN)) > 0
    assert _matches_oracle(fix_interpretation(m, 2), texts, (COMMON,)) > 0
    f = fm.parse("Pr1(p) <= 1/3")
    assert fm.expand(f).terms[0].coeff == -1
    assert Evaluator(m).prob_value("w1", 1, f, OU) == -HALF


def test_kernel_mixed_coefficient_denominators_match_oracle():
    m = _kernel_structure(_MIXED_1, _MIXED_2)
    texts = ["1/3*Pr1(p) + 2/7*Pr1(q) >= 1/5",
             "1/3*Pr2(p) + 2/7*Pr2(q) + -5/11*Pr2(p & q) >= 1/13",
             "3/4*Pr2(!p) >= 2/9"]
    assert _matches_oracle(m, texts, (OU, IN)) > 0
    ev = Evaluator(m)
    f = fm.parse(texts[0])
    # 1/3 * (1/3 + 1/6) + 2/7 * 1/2 on agent 1's first cell as 1 reads it
    assert ev.prob_value("w2", 1, f, OU) == Fraction(13, 42)


def test_kernel_left_hand_side_equal_to_the_bound():
    m = _kernel_structure(_MIXED_1, _MIXED_2)
    ev = Evaluator(m)
    cell = frozenset({"w1", "w2", "w3"})
    for text, holds in (("Pr1(p) >= 1/2", True), ("Pr1(p) > 1/2", False),
                        ("Pr1(p) <= 1/2", True), ("Pr1(p) < 1/2", False),
                        ("Pr1(p) = 1/2", True),
                        ("1/3*Pr1(p) + 2/7*Pr1(q) >= 13/42", True),
                        ("1/3*Pr1(p) + 2/7*Pr1(q) > 13/42", False)):
        assert (cell <= ev.extension(1, fm.parse(text), OU)) is holds, text
    assert _matches_oracle(m, ["Pr1(p) >= 1/2", "Pr1(p) > 1/2",
                               "1/3*Pr1(p) + 2/7*Pr1(q) >= 13/42"],
                           (OU, IN)) > 0


def test_kernel_sixty_digit_denominators():
    big = 3 ** 126  # 61 digits
    other = 7 ** 71  # 61 digits
    x = Fraction(10 ** 59 + 3, big)
    y = Fraction(2 * 10 ** 58 + 9, other)
    assert len(str(x.denominator)) >= 60 and len(str(y.denominator)) >= 60
    masses_1 = {"w1": x, "w2": 1 - x - y, "w3": y, "w4": ONE}
    masses_2 = {"w1": y, "w2": 1 - y, "w3": x, "w4": 1 - x}
    m = _kernel_structure(masses_1, masses_2)
    ev = Evaluator(m)
    # agent 1 reads p as {w1, w3}: its mass x + y is the bound exactly
    exact = "Pr1(p) >= %s" % (x + y)
    above = "Pr1(p) >= %s" % (x + y + Fraction(1, 10 ** 130))
    assert ev.prob_value("w1", 1, fm.parse(exact), OU) == x + y
    assert "w1" in ev.extension(1, fm.parse(exact), OU)
    assert "w1" not in ev.extension(1, fm.parse(above), OU)
    assert _matches_oracle(m, [exact, above, "1/3*Pr2(q) + -2/7*Pr2(p) "
                               ">= %s" % (x - y)], (OU, IN)) > 0


def test_kernel_zero_mass_events():
    # agent 2 gives w3 mass 0: an event holding only w3 has value 0 in
    # {w3, w4}, which a bound of 0 accepts and any positive bound refuses
    m = _kernel_structure(_MIXED_1, _MIXED_2)
    ev = Evaluator(m)
    f = fm.parse("Pr2(q & !p) >= 0")  # 1 reads q & !p as {w2}, 2 as {w2, w3}
    assert ev.prob_value("w3", 2, f, OU) == 0
    assert ev.extension(2, f, OU) == m.universe
    assert ev.extension(2, fm.parse("Pr2(q & !p) > 0"), OU) \
        == frozenset({"w1", "w2"})
    assert _matches_oracle(m, ["Pr2(q & !p) >= 0", "Pr2(q & !p) > 0",
                               "-1*Pr2(q) >= 0", "Pr1(p & q) <= 0"],
                           (OU, IN)) > 0


def _signals_with_zero_priors():
    """Cell signals over _kernel_structure; agent 1's prior is 0 at w1, so
    its event {w1, w2, w3} holds a zero-prior state, and agent 2's prior is
    0 on its whole cell {w3, w4}, whose conditional is undefined."""
    from ambilogic.transforms import attach_cell_signals
    m, _ = attach_cell_signals(_kernel_structure(_MIXED_1, _MIXED_2))
    return m.replace(priors={
        1: {"w1": Fraction(0), "w2": Fraction(1, 3), "w3": Fraction(1, 6),
            "w4": HALF},
        2: {"w1": Fraction(2, 7), "w2": Fraction(5, 7), "w3": Fraction(0),
            "w4": Fraction(0)},
    })


def test_kernel_zero_prior_state_in_the_conditioning_event():
    m = _signals_with_zero_priors()
    ev = Evaluator(m)
    # conditioned on {w1, w2, w3}: p as 1 reads it is {w1, w3}, mass 1/6
    # of 1/2
    f = fm.parse("Pr1(p) >= 1/3")
    assert ev.prob_value("w1", 1, f, OU_AI) == Fraction(1, 3)
    assert _matches_oracle(m, ["Pr1(p) >= 1/3", "Pr1(p) > 1/3",
                               "1/3*Pr1(p) + -2/7*Pr1(q) >= -1/21",
                               "Pr1(q) <= 2/3"], (OU_AI, IN_AI)) > 0


def test_kernel_undefined_conditional():
    from oracle import prior_mass
    m = _signals_with_zero_priors()
    f = fm.parse("1/3*Pr2(p) + 2/7*Pr2(q) >= 1/5")
    for mode in (OU_AI, IN_AI):
        ev = Evaluator(m)
        with pytest.raises(UndefinedConditional) as info:
            ev.extension(1, f, mode)
        assert (info.value.agent, info.value.state) == (2, "w3")
        assert prior_mass(m, 2, info.value.event) == 0
        with pytest.raises(UndefinedConditional):
            ev.prob_value("w4", 1, f, mode)
        # 1/3 * 2/7 + 2/7 * 5/7 as agent 1 reads p and q in ou-ai; agent 2
        # reads p as {w1, w4} and q as {w2, w3} in in-ai
        assert ev.prob_value("w1", 1, f, mode) == (
            Fraction(2, 21) + Fraction(10, 49))


def test_kernel_coarse_cell_cut_by_a_later_term():
    # agent 1's one cell has the atoms {w1, w2} and {w3}; agent 2 reads p
    # as the atom {w1, w2} and q as {w1}, which cuts it.  The first term is
    # measurable and the second is not.
    cell = frozenset({"w1", "w2", "w3"})
    m = Structure(
        n_agents=2, states=("w1", "w2", "w3"), props=("p", "q"),
        partitions={1: (cell,),
                    2: (frozenset({"w1", "w2"}), frozenset({"w3"}))},
        beliefs={
            1: (CellBeliefs(cell, (frozenset({"w1", "w2"}),
                                   frozenset({"w3"})),
                            (Fraction(2, 3), Fraction(1, 3))),),
            2: (singleton_cell({"w1", "w2"}, {"w1": Fraction(1, 4),
                                              "w2": Fraction(3, 4)}),
                singleton_cell({"w3"}, {"w3": ONE})),
        },
        interpretations={
            1: {"p": frozenset({"w1", "w2"}), "q": frozenset({"w3"})},
            2: {"p": frozenset({"w1", "w2"}), "q": frozenset({"w1"})},
        },
    )
    assert validate_core(m).ok
    from oracle import prob_value_brute
    f = fm.parse("Pr1(p) + 2/3*Pr1(q) >= 1/2")
    message = "event {w1} cuts across atom {w1, w2}"
    for call in (lambda ev: ev.extension(2, f, OU),
                 lambda ev: ev.prob_value("w3", 2, f, OU),
                 lambda ev: prob_value_brute(m, "w3", 2, fm.expand(f), OU)):
        with pytest.raises(NotMeasurable) as info:
            call(Evaluator(m))
        assert str(info.value) == message
    assert Evaluator(m).prob_value("w1", 1, f, OU) == Fraction(2, 3) + \
        Fraction(2, 9)
    assert _matches_oracle(m, ["Pr1(p) + 2/3*Pr1(q) >= 1/2"], (IN,)) > 0


# Cell masses and priors are drawn as k/p for distinct primes p (the last
# state takes what is left of one); coefficients and bounds have other
# denominators, so every comparison mixes coprime denominators.
_PRIMES = (3, 7, 11, 13, 17)
_OTHER_DENOMINATORS = (1, 2, 4, 5, 9)


def _coprime_masses(draw, states):
    primes = draw(st.permutations(_PRIMES))
    masses, left = {}, ONE
    for s, p in zip(states[:-1], primes):
        masses[s] = Fraction(draw(st.integers(0, int(left * p))), p)
        left -= masses[s]
    masses[states[-1]] = left
    return masses


@st.composite
def _coprime_structures(draw):
    """_kernel_structure's partitions with drawn masses, readings and cell
    signals with a drawn prior.  Both agents' cells hold w1 and w2
    together, so either may have the coarse atom {w1, w2}; every agent
    then reads w2 as w1, so each can measure its own propositions."""
    coarse = draw(st.sampled_from([(), (1,), (2,), (1, 2)]))
    cells = {1: (("w1", "w2", "w3"), ("w4",)), 2: (("w1", "w2"), ("w3", "w4"))}
    beliefs = {}
    for i in (1, 2):
        beliefs[i] = []
        for cell in cells[i]:
            masses = _coprime_masses(draw, cell)
            if i in coarse and "w1" in cell:
                atoms = ((frozenset({"w1", "w2"}),)
                         + tuple(frozenset([s]) for s in cell[2:]))
                beliefs[i].append(CellBeliefs(frozenset(cell), atoms, (
                    masses["w1"] + masses["w2"],
                    *(masses[s] for s in cell[2:]))))
            else:
                beliefs[i].append(singleton_cell(cell, masses))
    interpretations = {}
    for i in (1, 2):
        interpretations[i] = {}
        for p in ("p", "q"):
            ext = set(draw(st.sets(st.sampled_from(("w1", "w2", "w3", "w4")))))
            if coarse:
                ext = ext | {"w2"} if "w1" in ext else ext - {"w2"}
            interpretations[i][p] = frozenset(ext)
    m = Structure(n_agents=2, states=("w1", "w2", "w3", "w4"),
                  props=("p", "q"),
                  partitions={i: tuple(map(frozenset, cells[i]))
                              for i in (1, 2)},
                  beliefs={i: tuple(b) for i, b in beliefs.items()},
                  interpretations=interpretations)
    m, _ = attach_cell_signals(m)
    return m.replace(priors={
        i: _coprime_masses(draw, m.states) for i in (1, 2)})


def _coprime_rationals(numerators):
    return st.builds(Fraction, st.sampled_from(numerators),
                     st.sampled_from(_OTHER_DENOMINATORS))


_COMPARISON_FORMULAS = st.recursive(
    st.sampled_from([fm.Prop("p"), fm.Prop("q")]),
    lambda sub: st.one_of(
        st.builds(fm.Not, sub),
        st.builds(fm.And, sub, sub),
        st.builds(fm.B, st.sampled_from((1, 2)), sub),
        st.builds(lambda j, terms, bound: fm.ProbGe(
            tuple((c, j, f) for c, f in terms), bound),
            st.sampled_from((1, 2)),
            st.lists(st.tuples(_coprime_rationals((-3, -1, 1, 2, 7)), sub),
                     min_size=1, max_size=3),
            _coprime_rationals((-2, -1, 0, 1, 2, 3)))),
    max_leaves=4)


@settings(max_examples=80, deadline=None)
@given(_coprime_structures(), st.lists(_COMPARISON_FORMULAS, min_size=1,
                                       max_size=3))
def test_kernel_coprime_denominators_match_oracle(m, formulas):
    # extension and prob_value, in all five modes, equal tests/oracle.py's
    # plain Fraction sums exactly, wherever the evaluator answers: an event
    # that cuts a coarse atom, or an undefined conditional, raises instead
    from oracle import eval_brute, prob_value_brute
    for mode in EvalMode:
        model = fix_interpretation(m, 1) if mode is COMMON else m
        ev = Evaluator(model)
        for f in formulas:
            for i in model.agents:
                try:
                    got = ev.extension(i, f, mode)
                except (NotMeasurable, UndefinedConditional):
                    continue
                assert got == frozenset(
                    s for s in model.states
                    if eval_brute(model, s, i, f, mode)), (
                        fm.print_formula(f), mode.value, i)
                for g in fm.subformulas(f):
                    if isinstance(g, fm.ProbGe):
                        for s in model.states:
                            assert ev.prob_value(s, i, g, mode) \
                                == prob_value_brute(model, s, i, g, mode)


# --- One probability-one test for B_j, E_G, eb_k and common belief ---

def _outcome(call):
    """What a query gives: its answer, or its error's type and message."""
    try:
        return call()
    except AmbilogicError as exc:
        return type(exc), str(exc)


def _coarsened_pair(m, rng):
    """m with a coarse atom {s, t} in agent i's cell, for two states that
    share a cell for every agent; i and agent 1 (whose readings common mode
    takes) read every proposition alike at s and t, and the others' readings
    may cut the atom.  m itself where no two states share every cell."""
    pairs = [(s, t) for s, t in itertools.combinations(m.states, 2)
             if all(m.cell_index(i, s) == m.cell_index(i, t)
                    for i in m.agents)]
    if not pairs:
        return m
    s, t = rng.choice(pairs)
    i = rng.choice(list(m.agents))
    ci = m.cell_index(i, s)
    cb = m.beliefs[i][ci]
    mass = {min(atom): w for atom, w in zip(cb.atoms, cb.masses)}
    rest = sorted(cb.states - {s, t})
    coarse = CellBeliefs(cb.states, (frozenset({s, t}), *(
        frozenset([u]) for u in rest)), (mass[s] + mass[t], *map(
            mass.__getitem__, rest)))
    return m.replace(
        beliefs={**m.beliefs, i: (*m.beliefs[i][:ci], coarse,
                                   *m.beliefs[i][ci + 1:])},
        interpretations={**m.interpretations, **{
            j: {p: ext | {t} if s in ext else ext - {t}
                for p, ext in m.interpretations[j].items()}
            for j in {1, i}}})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans(),
       st.sampled_from(["none", "state", "cell"]))
def test_belief_comparison_and_eb_k_share_one_test(seed, cross, coarse,
                                                   zero):
    # B_j f, 2*Pr_j(f) >= 2 (the general comparison path) and
    # eb_k({j}, f, 1) give one answer or raise one message, in all five
    # modes, with coarse cells, states of mass zero, and a prior of zero
    # at a state or on a whole cell (an undefined conditional)
    rng = random.Random(seed)
    m = random_signal_structure(rng, GenBounds(max_states=5, max_agents=3,
                                               max_props=2), cross=cross)
    if coarse:
        m = _coarsened_pair(m, rng)
    if zero != "none":
        j, s = rng.choice(list(m.agents)), rng.choice(m.states)
        dropped = m.cell_of(j, s) if zero == "cell" else {s}
        nu = {u: ZERO if u in dropped else v for u, v in m.priors[j].items()}
        if sum(nu.values()):
            total = sum(nu.values())
            m = m.replace(priors={**m.priors, j: {
                u: v / total for u, v in nu.items()}})
    base = [p for p in m.props if not p.startswith("u")]
    f = random_core_formula(rng, base, m.n_agents, rng.randint(0, 2))
    for mode in EvalMode:
        model = fix_interpretation(m, 1) if mode is COMMON else m
        for j in model.agents:
            twice = fm.ProbGe(((2, j, f),), 2)
            for i in model.agents:
                belief = _outcome(
                    lambda: Evaluator(model).extension(i, fm.B(j, f), mode))
                assert _outcome(lambda: Evaluator(model).extension(
                    i, twice, mode)) == belief
                assert _outcome(lambda: Evaluator(model).eb_k(
                    {j}, f, 1, mode, i)) == belief
