import random

import pytest

from ambilogic import formula as fm
from ambilogic.generators import (
    GenBounds,
    formula_corpus,
    random_core_formula,
    random_signal_structure,
    random_structure,
    random_surface_formula,
)
from ambilogic.modes import EvalMode
from ambilogic.semantics import Evaluator
from ambilogic.structure import validate_core, validate_signals


def test_bounds_validate():
    with pytest.raises(ValueError):
        GenBounds(max_states=0)


def test_random_structures_pass_core_checks():
    rng = random.Random(1)
    for _ in range(50):
        m = random_structure(rng, GenBounds())
        assert validate_core(m).ok
        assert len(m.states) <= 5 and m.n_agents <= 3 and len(m.props) <= 3


def test_random_structures_reach_the_bounds_past_eight_states():
    rng = random.Random(5)
    bounds = GenBounds(max_states=20, max_props=8)
    sizes = [random_structure(rng, bounds) for _ in range(40)]
    assert max(len(m.states) for m in sizes) > 8
    assert max(len(m.props) for m in sizes) > 5
    for m in sizes:
        assert validate_core(m).ok
        assert len(m.states) <= 20 and len(m.props) <= 8


def test_random_common_structures_share_interpretation():
    from ambilogic.structure import is_common_interpretation
    rng = random.Random(2)
    for _ in range(20):
        m = random_structure(rng, GenBounds(), common=True)
        assert is_common_interpretation(m)


def test_signal_structures_pass_signal_checks():
    rng = random.Random(3)
    for cross in (False, True):
        for _ in range(25):
            m = random_signal_structure(rng, GenBounds(), cross=cross)
            assert validate_core(m).ok
            assert validate_signals(m).ok
            assert m.priors is not None


def test_cross_signal_structures_can_disagree_on_signals():
    rng = random.Random(4)
    seen_disagreement = False
    for _ in range(40):
        m = random_signal_structure(rng, GenBounds(max_agents=3), cross=True)
        if m.n_agents < 2:
            continue
        ev = Evaluator(m)
        for i in m.agents:
            for s in m.states:
                sig = m.signals[i][s]
                exts = {ev.extension(j, sig, EvalMode.OUTERMOST)
                        for j in m.agents}
                if len(exts) > 1:
                    seen_disagreement = True
    assert seen_disagreement


def test_formula_generators_deterministic_and_in_vocabulary():
    a = [random_core_formula(random.Random(9), ["p", "q"], 2, 4)
         for _ in range(1)]
    b = [random_core_formula(random.Random(9), ["p", "q"], 2, 4)
         for _ in range(1)]
    assert a == b
    rng = random.Random(10)
    for _ in range(200):
        f = random_core_formula(rng, ["p", "q"], 2, 4)
        assert fm.propositions(f) <= {"p", "q"}
        assert fm.agents_in(f) <= {1, 2}


def test_structure_generation_deterministic():
    from ambilogic.structure import structure_to_dict
    m1 = random_structure(random.Random(42), GenBounds())
    m2 = random_structure(random.Random(42), GenBounds())
    assert structure_to_dict(m1) == structure_to_dict(m2)


def test_corpus_speaks_the_structures_language():
    rng = random.Random(11)
    m = random_structure(rng, GenBounds())
    for f in formula_corpus(rng, m, 10, 4):
        assert fm.propositions(f) <= set(m.props)
        assert fm.agents_in(f) <= set(m.agents)


def test_surface_generator_covers_the_grammar():
    rng = random.Random(12)
    kinds = set()
    for _ in range(400):
        f = random_surface_formula(rng, ["p"], 2, 3)
        kinds.add(type(f).__name__)
    assert {"Or", "Implies", "Iff", "B", "EB", "CB", "ProbGe",
            "Not", "And"} <= kinds
