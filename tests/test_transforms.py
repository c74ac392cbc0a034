import random
from fractions import Fraction

import pytest

from ambilogic import formula as fm
from ambilogic.errors import (
    ClaimSpecMismatch,
    CoreInvalid,
    NotCommonInterpretation,
)
from ambilogic.generators import GenBounds, formula_corpus, random_structure
from ambilogic.modes import EvalMode
from ambilogic.semantics import Evaluator
from ambilogic.structure import (
    is_common_interpretation,
    singleton_cell,
    validate_core,
    validate_signals,
)
from ambilogic.transforms import (
    TransformClaim,
    attach_cell_signals,
    disjoint_copies,
    fix_interpretation,
    fresh_names,
    label_partitions,
    verify_transform_equivalence,
)

from demo_models import m_ck, m_red

OU, IN, COMMON = EvalMode.OUTERMOST, EvalMode.INNERMOST, EvalMode.COMMON

CORPUS = [fm.parse("p"), fm.parse("B2 p"), fm.parse("CB{1,2} p"),
          fm.parse("Pr2(p) >= 1/2"), fm.parse("!p & B1 p")]


def test_fix_interpretation_copies_the_chosen_reading():
    m = m_red()
    assert fix_interpretation(m, 1).interpretations[2]["p"] == frozenset({"w1"})
    assert fix_interpretation(m, 2).interpretations[1]["p"] == \
        frozenset({"w1", "w2"})


def test_fix_interpretation_idempotent_after_commoning():
    m = m_red()
    once = fix_interpretation(m, 1)
    for j in m.agents:
        again = fix_interpretation(once, j)
        assert again.interpretations == once.interpretations
    assert is_common_interpretation(once)
    assert validate_core(once).ok


def test_fix_interpretation_equivalence_on_m_red():
    m = m_red()
    for agent in m.agents:
        fixed = fix_interpretation(m, agent)
        report = verify_transform_equivalence(
            m, fixed, None, CORPUS,
            TransformClaim("fix-interpretation", agent=agent))
        assert report.ok, str(report)


def test_disjoint_copies_shape():
    m = m_red()
    copies, state_map = disjoint_copies(m)
    assert copies.states == ("w1#1", "w1#2", "w2#1", "w2#2")
    assert state_map["w1#2"] == ("w1", 2)
    assert is_common_interpretation(copies)
    assert validate_core(copies).ok
    # interpretation on a tagged state is the tag agent's original reading
    ext = copies.interpretations[1]["p"]
    assert "w1#2" in ext and "w2#1" not in ext and "w2#2" in ext


def test_disjoint_copies_measures():
    m = m_red()
    copies, _ = disjoint_copies(m)
    cb = copies.cell_beliefs(2, "w1#1")
    masses = {min(atom): mass for atom, mass in zip(cb.atoms, cb.masses)}
    assert masses["w1#2"] == Fraction(1, 2)
    assert masses["w2#2"] == Fraction(1, 2)
    assert masses["w1#1"] == 0 and masses["w2#1"] == 0


def test_disjoint_copies_supports_are_disjoint():
    rng = random.Random(21)
    for _ in range(20):
        m = random_structure(rng, GenBounds(max_states=4, max_agents=3))
        copies, state_map = disjoint_copies(m)
        assert len(copies.states) == len(m.states) * m.n_agents
        assert validate_core(copies).ok
        supports = []
        for i in copies.agents:
            support = set()
            for cb in copies.beliefs[i]:
                support |= cb.support()
            supports.append(support)
        for a in range(len(supports)):
            for b in range(a + 1, len(supports)):
                assert not (supports[a] & supports[b])


def test_disjoint_copies_single_agent_is_relabeling():
    m = m_red()
    solo = m.replace(
        n_agents=1,
        partitions={1: m.partitions[1]},
        beliefs={1: m.beliefs[1]},
        interpretations={1: dict(m.interpretations[1])},
    )
    copies, state_map = disjoint_copies(solo)
    assert len(copies.states) == len(solo.states)
    report = verify_transform_equivalence(
        solo, copies, state_map, [fm.parse("p"), fm.parse("B1 p")],
        TransformClaim("disjoint-copies"))
    assert report.ok


def test_disjoint_copies_equivalence_on_m_red():
    m = m_red()
    copies, state_map = disjoint_copies(m)
    report = verify_transform_equivalence(
        m, copies, state_map, CORPUS, TransformClaim("disjoint-copies"))
    assert report.ok, str(report)


def test_label_partitions_on_common_variant():
    m = m_ck()
    labelled, table = label_partitions(m, "w1")
    assert set(labelled.states) == {"w1", "w2"}  # everything reachable
    assert table["p_1_c0"] == (1, frozenset({"w1"}))
    assert table["p_1_c1"] == (1, frozenset({"w2"}))
    assert table["p_2_c0"] == (2, frozenset({"w1", "w2"}))
    assert validate_core(labelled).ok
    assert validate_signals(labelled).ok
    assert set(table) & set(m.props) == set()


def test_label_partitions_restricts_to_reachable():
    m = m_ck()
    island = m.replace(
        states=("w1", "w2", "w3"),
        partitions={
            1: (frozenset({"w1"}), frozenset({"w2"}), frozenset({"w3"})),
            2: (frozenset({"w1", "w2"}), frozenset({"w3"})),
        },
        beliefs={
            1: m.beliefs[1] + (m.beliefs[1][0].__class__(
                frozenset({"w3"}), (frozenset({"w3"}),), (Fraction(1),)),),
            2: m.beliefs[2] + (m.beliefs[2][0].__class__(
                frozenset({"w3"}), (frozenset({"w3"}),), (Fraction(1),)),),
        },
        interpretations={
            1: {"p": frozenset({"w1"})},
            2: {"p": frozenset({"w1"})},
        },
    )
    labelled, _ = label_partitions(island, "w1")
    assert set(labelled.states) == {"w1", "w2"}


def test_label_partitions_requires_common_interpretation():
    with pytest.raises(NotCommonInterpretation):
        label_partitions(m_red(), "w1")


def test_label_partitions_equivalence():
    m = m_ck()
    labelled, _ = label_partitions(m, "w1")
    report = verify_transform_equivalence(
        m, labelled, None, CORPUS,
        TransformClaim("label-partitions"))
    assert report.ok, str(report)


def test_verifier_catches_corruption():
    m = m_red()
    fixed = fix_interpretation(m, 1)
    corrupted = fixed.replace(interpretations={
        1: {"p": frozenset({"w2"})},
        2: {"p": frozenset({"w2"})},
    })
    report = verify_transform_equivalence(
        m, corrupted, None, CORPUS,
        TransformClaim("fix-interpretation", agent=1))
    assert not report.ok
    entry = report.entries[0]
    assert entry.kind == "transform-mismatch"
    assert "state" in entry.context and "formula" in entry.context


def test_verifier_rejects_inconsistent_claims():
    m = m_red()
    fixed = fix_interpretation(m, 1)
    with pytest.raises(ClaimSpecMismatch):
        verify_transform_equivalence(m, fixed, None, CORPUS,
                                     TransformClaim("fix-interpretation"))
    with pytest.raises(ClaimSpecMismatch):
        verify_transform_equivalence(
            m, fixed, None, CORPUS, TransformClaim("disjoint-copies"))
    with pytest.raises(ClaimSpecMismatch):
        verify_transform_equivalence(
            m, fixed, None, CORPUS, TransformClaim("nonsense"))


def _claim_cases():
    m = m_red()
    fixed = fix_interpretation(m, 1)
    copies, state_map = disjoint_copies(m)
    labelled, _ = label_partitions(m_ck(), "w1")
    return {
        "fix-agent": (m, fixed, None,
                      TransformClaim("fix-interpretation", agent=3),
                      "fix-interpretation claim needs the agent"),
        "fix-states": (m, copies, None,
                       TransformClaim("fix-interpretation", agent=1),
                       "fix-interpretation must keep the states"),
        "copies-partial-map": (
            m, copies, dict(list(state_map.items())[1:]),
            TransformClaim("disjoint-copies"),
            "disjoint-copies claim needs a total state map"),
        "copies-outside": (
            m, copies, {**state_map, "w1#1": ("w9", 1)},
            TransformClaim("disjoint-copies"),
            "state map points outside the source"),
        "copies-bad-tag": (
            m, copies, {**state_map, "w1#1": ("w1", 3)},
            TransformClaim("disjoint-copies"),
            "state map points outside the source"),
        "labels-not-common": (
            m, labelled, None, TransformClaim("label-partitions"),
            "label-partitions equivalence starts from a "
            "common-interpretation structure"),
        "labels-new-states": (
            m_ck(), copies, None, TransformClaim("label-partitions"),
            "label-partitions must restrict the states"),
    }


@pytest.mark.parametrize("case", sorted(_claim_cases()))
def test_verifier_refuses_each_claim_that_does_not_fit(case):
    m, transformed, state_map, claim, message = _claim_cases()[case]
    with pytest.raises(ClaimSpecMismatch) as exc:
        verify_transform_equivalence(m, transformed, state_map, CORPUS,
                                     claim)
    assert str(exc.value) == message


def test_verifier_refuses_an_invalid_structure_before_the_claim():
    m = m_red()
    broken = m.replace(beliefs={1: m.beliefs[1], 2: (singleton_cell(
        m.partitions[2][0], {"w1": Fraction(1), "w2": Fraction(1)}),)})
    with pytest.raises(CoreInvalid):
        verify_transform_equivalence(m, broken, None, CORPUS,
                                     TransformClaim("nonsense"))


def test_cell_labels_skip_declared_names():
    m = m_red()
    taken = m.replace(props=("p", "p_1_c0"), interpretations={
        i: {**m.interpretations[i], "p_1_c0": frozenset()}
        for i in m.agents})
    labelled, table = attach_cell_signals(taken)
    assert table == {"p_1_c0_2": (1, frozenset({"w1"})),
                     "p_1_c1": (1, frozenset({"w2"})),
                     "p_2_c0": (2, frozenset({"w1", "w2"}))}
    assert labelled.props == ("p", "p_1_c0", "p_1_c0_2", "p_1_c1", "p_2_c0")
    assert labelled.interpretations[1]["p_1_c0"] == frozenset()
    assert fresh_names(["a", "a", "b"], {"a", "a_2"}) == ["a_3", "a_4", "b"]


def test_transform_equivalences_on_random_structures():
    rng = random.Random(33)
    for _ in range(30):
        m = random_structure(rng, GenBounds(max_states=4, max_agents=3,
                                            max_props=2, max_depth=3))
        corpus = formula_corpus(rng, m, 3, 3)
        agent = rng.randint(1, m.n_agents)
        fixed = fix_interpretation(m, agent)
        assert verify_transform_equivalence(
            m, fixed, None, corpus,
            TransformClaim("fix-interpretation", agent=agent)).ok
        copies, state_map = disjoint_copies(m)
        assert verify_transform_equivalence(
            m, copies, state_map, corpus,
            TransformClaim("disjoint-copies")).ok
        common = random_structure(rng, GenBounds(max_states=4, max_agents=2,
                                                 max_props=2), common=True)
        corpus2 = formula_corpus(rng, common, 3, 3)
        state = rng.choice(common.states)
        labelled, _ = label_partitions(common, state)
        assert verify_transform_equivalence(
            common, labelled, None, corpus2,
            TransformClaim("label-partitions")).ok


def test_thm1_da_records_an_invalid_labelled_structure(monkeypatch):
    """An invalid transform output is a counterexample, caught before the
    replay, whose evaluators would refuse it."""
    from ambilogic import campaign

    def drop_agent_1_cells(m, state):
        labelled, table = label_partitions(m, state)
        return labelled.replace(partitions={**labelled.partitions, 1: ()},
                                beliefs={**labelled.beliefs, 1: ()}), table

    monkeypatch.setattr(campaign, "label_partitions", drop_agent_1_cells)
    report = campaign.run_campaign(
        campaign.Campaign(seed=3, trials=2, checks=("thm1-da",)))
    result = report.results["thm1-da"]
    assert result.failures == 2
    assert result.first_counterexample["reason"] \
        == "labelled structure invalid"


def _replay_per_state(m, transformed, pairs, formulas, kind):
    """Reference replay: each (original query, result query) pair, one
    state at a time."""
    ev_orig, ev_new = Evaluator(m), Evaluator(transformed)
    entries = []
    for f in formulas:
        for (s, i, mode), (new_state, j, new_mode) in pairs:
            left = ev_orig.evaluate(s, i, f, mode)
            right = ev_new.evaluate(new_state, j, f, new_mode)
            if left != right:
                entries.append({
                    "kind": "transform-mismatch",
                    "message": "%s: %s evaluates %s originally but %s after "
                               "the transform" % (kind, fm.print_formula(f),
                                                  left, right),
                    "context": dict(formula=fm.print_formula(f),
                                    state=new_state, agent=i,
                                    original=left, transformed=right)})
    return entries


def _wrong_fix(rng, m):
    agent = m.n_agents  # stamps agent 1's reading, claims agent n's
    return (fix_interpretation(m, 1), None,
            TransformClaim("fix-interpretation", agent=agent),
            [((s, agent, OU), (s, agent, COMMON)) for s in m.states])


def _shifted_copies(rng, m):
    # Each copy claimed for the next agent's tag.
    copies, state_map = disjoint_copies(m)
    shifted = {new: (old, tag % m.n_agents + 1)
               for new, (old, tag) in state_map.items()}
    return (copies, shifted, TransformClaim("disjoint-copies"),
            [((old, tag, IN), (new, 1, COMMON))
             for new, (old, tag) in sorted(shifted.items())])


def _relabelled_p(rng, m):
    # Labels the cells, then reads p as its complement.
    labelled, _ = label_partitions(m, rng.choice(m.states))
    flipped = labelled.universe - labelled.interpretations[1]["p"]
    broken = labelled.replace(interpretations={
        i: {**labelled.interpretations[i], "p": flipped}
        for i in labelled.agents})
    return (broken, None, TransformClaim("label-partitions"),
            [((s, i, COMMON), (s, i, COMMON))
             for s in broken.states for i in m.agents])


@pytest.mark.parametrize("breaks, common", [
    (_wrong_fix, False), (_shifted_copies, False), (_relabelled_p, True)])
def test_replay_reports_what_a_per_state_replay_reports(breaks, common):
    rng = random.Random(1606)
    failing = 0
    for _ in range(25):
        m = random_structure(rng, GenBounds(max_states=4, max_agents=3,
                                            max_depth=3), common=common)
        if m.n_agents < 2 or "p" not in m.props:
            continue
        transformed, state_map, claim, pairs = breaks(rng, m)
        corpus = formula_corpus(rng, m, 4, 3)
        got = [v.to_dict() for v in verify_transform_equivalence(
            m, transformed, state_map, corpus, claim).entries]
        assert got == _replay_per_state(m, transformed, pairs, corpus,
                                        claim.kind)
        failing += bool(got)
    assert failing >= 3
