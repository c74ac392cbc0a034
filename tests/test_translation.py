import random
from fractions import Fraction

import pytest

from ambilogic import formula as fm
from ambilogic.errors import AlreadyIndexed
from ambilogic.generators import GenBounds, formula_corpus, random_structure
from ambilogic.modes import EvalMode
from ambilogic.semantics import Evaluator
from ambilogic.translation import (
    lift_to_indexed,
    translate_in,
    translate_in_naive,
    translate_ou,
    verify_theorem2,
)

from demo_models import m_ck, m_red


def test_lift_shape():
    m = m_red()
    lifted = lift_to_indexed(m)
    assert lifted.props == ("p@1", "p@2")
    assert lifted.interpretations[1]["p@1"] == frozenset({"w1"})
    assert lifted.interpretations[2]["p@1"] == frozenset({"w1"})
    assert lifted.interpretations[1]["p@2"] == frozenset({"w1", "w2"})
    assert lifted.partitions == m.partitions
    assert lifted.beliefs == m.beliefs


def test_lift_of_common_structure_has_equal_indexed_extensions():
    lifted = lift_to_indexed(m_ck())
    assert lifted.interpretations[1]["p@1"] == lifted.interpretations[1]["p@2"]


def test_translate_in_examples():
    got = translate_in(fm.parse("CB{1,2} p"), 1)
    assert fm.print_formula(got, sugar_beliefs=True) \
        == "CB{1,2}(B1 p@1 & B2 p@2)"
    got = translate_in(fm.parse("Pr2(p) >= 1/2"), 1)
    assert fm.print_formula(got) == "Pr2(p@2) >= 1/2"
    got = translate_in(fm.parse("p & !q"), 3)
    assert fm.print_formula(got) == "p@3 & !q@3"


def test_translate_ou_examples():
    assert fm.print_formula(translate_ou(fm.parse("CB{1,2} p"), 1)) \
        == "CB{1,2} p@1"
    assert fm.print_formula(translate_ou(fm.parse("Pr2(p) >= 1/2"), 1)) \
        == "Pr2(p@1) >= 1/2"
    assert fm.print_formula(translate_ou(fm.parse("p"), 2)) == "p@2"


def test_translate_rejects_indexed_input():
    with pytest.raises(AlreadyIndexed):
        translate_in(fm.parse("p@1"), 1)
    with pytest.raises(AlreadyIndexed):
        translate_ou(fm.parse("CB{1,2} p@2"), 1)


def test_translate_in_is_index_independent_on_belief_subtrees():
    for text in ("Pr2(p) >= 1/2", "CB{1,2} p", "CB{1,2}(Pr1(p) >= 1/3)"):
        f = fm.parse(text)
        outs = {translate_in(f, i) for i in (1, 2, 3)}
        assert len(outs) == 1


def test_translate_group_belief_compatibility():
    # translating "everybody believes" equals the conjunction of each
    # member's belief in his own translation
    f = fm.parse("E{1,2} p")
    got = translate_in(f, 1)
    expected = fm.expand(fm.parse("B1 p@1 & B2 p@2"))
    assert got == expected


def test_translation_size_stays_linear():
    deep = fm.parse("CB{1,2} CB{1,2} CB{1,2} (p & q)")
    out = translate_in(deep, 1)
    assert len(fm.subformulas(out)) <= 12 * len(fm.subformulas(deep))


def test_theorem2_on_m_red():
    corpus = [fm.parse(t) for t in
              ("p", "B2 p", "Pr2(p) >= 1/2", "CB{1,2} p")]
    assert verify_theorem2(m_red(), corpus).ok


def test_theorem2_propositional_corpus_reduces_to_interpretation():
    m = m_red()
    ev = Evaluator(lift_to_indexed(m))
    ev_orig = Evaluator(m)
    for text in ("p", "!p", "p & p"):
        f = fm.parse(text)
        for i in m.agents:
            t_in = translate_in(f, i, "p")
            pointwise = ev_orig.extension(i, f, EvalMode.OUTERMOST)
            for s in m.states:
                assert ev.evaluate(s, 1, t_in, EvalMode.COMMON) \
                    == (s in pointwise)


def test_theorem2_random_structures():
    rng = random.Random(77)
    for _ in range(40):
        m = random_structure(rng, GenBounds(max_states=4, max_agents=3,
                                            max_props=2))
        corpus = formula_corpus(rng, m, 4, 4)
        report = verify_theorem2(m, corpus)
        assert report.ok, str(report)


def test_naive_translation_fails_somewhere():
    rng = random.Random(101)
    found = False
    for _ in range(200):
        m = random_structure(rng, GenBounds(max_states=3, max_agents=2,
                                            max_props=1))
        if m.n_agents < 2:
            continue
        corpus = [fm.CB(frozenset({1, 2}), fm.Prop("p"))]
        report = verify_theorem2(m, corpus, directions=("in",), naive_cb=True)
        if not report.ok:
            found = True
            ctx = report.entries[0].context
            assert ctx["translated"] == "CB{1,2} p@1" \
                or "@" in ctx["translated"]
            break
    assert found, "naive common-belief clause never failed"


def test_naive_translation_differs_on_handmade_model():
    # agent 1 reads p everywhere, agent 2 only at w1; agent 1 cannot tell
    # the states apart, agent 2 can
    from ambilogic.structure import Structure, singleton_cell
    half = Fraction(1, 2)
    one = Fraction(1)
    cell = frozenset({"w1", "w2"})
    m = Structure(
        n_agents=2, states=("w1", "w2"), props=("p",),
        partitions={1: (cell,),
                    2: (frozenset({"w1"}), frozenset({"w2"}))},
        beliefs={
            1: (singleton_cell(cell, {"w1": half, "w2": half}),),
            2: (singleton_cell({"w1"}, {"w1": one}),
                singleton_cell({"w2"}, {"w2": one})),
        },
        interpretations={
            1: {"p": cell},
            2: {"p": frozenset({"w1"})},
        },
    )
    f = fm.CB(frozenset({1, 2}), fm.Prop("p"))
    ev = Evaluator(lift_to_indexed(m))
    good = translate_in(f, 1)
    naive = translate_in_naive(f, 1)
    left = Evaluator(m).evaluate("w1", 1, f, EvalMode.INNERMOST)
    assert ev.evaluate("w1", 1, good, EvalMode.COMMON) == left
    assert ev.evaluate("w1", 1, naive, EvalMode.COMMON) != left


def _theorem2_per_state(m, corpus, naive_cb):
    """Reference replay: both directions, one query per state."""
    lifted = lift_to_indexed(m)
    ev, ev_lifted = Evaluator(m), Evaluator(lifted)
    taut = m.props[0]
    entries = []
    for f in corpus:
        for i in m.agents:
            pairs = [("in", EvalMode.INNERMOST,
                      (translate_in_naive if naive_cb else translate_in)(
                          f, i, taut)),
                     ("ou", EvalMode.OUTERMOST, translate_ou(f, i, taut))]
            for label, mode, translated in pairs:
                for s in m.states:
                    left = ev.evaluate(s, i, f, mode)
                    right = ev_lifted.evaluate(s, i, translated,
                                               EvalMode.COMMON)
                    if left != right:
                        entries.append({
                            "kind": "translation-mismatch",
                            "message": "%s-translation of %s diverges at "
                                       "(%s, %d): %s vs %s" % (
                                           label, fm.print_formula(f), s, i,
                                           left, right),
                            "context": dict(
                                direction=label, state=s, agent=i,
                                formula=fm.print_formula(f),
                                translated=fm.print_formula(translated),
                                original=left, lifted=right)})
    return entries


@pytest.mark.parametrize("naive_cb", [True, False])
def test_theorem2_reports_what_a_per_state_replay_reports(naive_cb):
    rng = random.Random(2016)
    failing = 0
    for _ in range(60):
        m = random_structure(rng, GenBounds(max_states=4, max_agents=3,
                                            max_depth=3))
        m = m.replace(states=m.states[::-1])  # entries follow this order
        corpus = formula_corpus(rng, m, 4, 3)
        got = [v.to_dict() for v in verify_theorem2(
            m, corpus, naive_cb=naive_cb).entries]
        assert got == _theorem2_per_state(m, corpus, naive_cb)
        failing += bool(got)
    assert failing >= 3 if naive_cb else failing == 0
