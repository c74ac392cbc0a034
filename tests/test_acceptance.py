"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in captured output).  All comparisons are exact; the
arithmetic is rational throughout, so every tolerance is zero.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from ambilogic import formula as fm
from ambilogic.errors import FormulaSyntaxError
from ambilogic.generators import (
    GenBounds,
    formula_corpus,
    random_signal_structure,
    random_structure,
    random_surface_formula,
)
from ambilogic.modes import EvalMode
from ambilogic.semantics import Evaluator
from ambilogic.structure import (
    Structure,
    generate_priors,
    singleton_cell,
    validate_core,
    validate_signals,
)
from ambilogic.transforms import (
    TransformClaim,
    disjoint_copies,
    fix_interpretation,
    label_partitions,
    verify_transform_equivalence,
)
from ambilogic.translation import verify_theorem2

from demo_models import m_ai, m_red, m_sig
from oracle import eval_brute, prior_mass

IN, OU = EvalMode.INNERMOST, EvalMode.OUTERMOST
IN_AI, OU_AI = EvalMode.INNERMOST_AI, EvalMode.OUTERMOST_AI
COMMON = EvalMode.COMMON
BOUNDS = GenBounds(max_states=5, max_agents=3, max_props=3, max_depth=4)


def _line(number, description, failed=False):
    status = "FAIL" if failed else "PASS"
    print("[acceptance] criterion %d (%s): %s" % (number, description, status))


def _criterion(number, description):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                _line(number, description, failed=True)
                raise
            _line(number, description)
        run.__name__ = fn.__name__
        return run
    return wrap


@_criterion(1, "indexed-translation round-trip on >=1000 tuples, <60s")
def test_criterion_1_translation_roundtrip():
    started = time.perf_counter()
    tuples = 0
    trial = 0
    while tuples < 1000:
        rng = random.Random("acc1/%d" % trial)
        trial += 1
        m = random_structure(rng, BOUNDS)
        corpus = formula_corpus(rng, m, 4, BOUNDS.max_depth)
        report = verify_theorem2(m, corpus, directions=("in", "ou"))
        assert report.ok, str(report)
        tuples += len(corpus) * len(m.states) * m.n_agents
    elapsed = time.perf_counter() - started
    assert tuples >= 1000
    assert elapsed < 60, "took %.1f s" % elapsed


@_criterion(2, "naive common-belief translation falsified within 1000 trials")
def test_criterion_2_naive_translation_fails():
    found = False
    for trial in range(1000):
        rng = random.Random("acc2/%d" % trial)
        m = random_structure(rng, GenBounds(max_states=4, max_agents=3,
                                            max_props=2))
        if m.n_agents < 2:
            continue
        group = frozenset({1, 2})
        corpus = [fm.CB(group, arg)
                  for arg in formula_corpus(rng, m, 2, 2)]
        report = verify_theorem2(m, corpus, directions=("in",), naive_cb=True)
        if not report.ok:
            found = True
            break
    assert found, "no counterexample to the naive clause in 1000 trials"


@_criterion(3, "constructive transform equivalences on >=500 models")
def test_criterion_3_transform_claims():
    for trial in range(500):
        rng = random.Random("acc3/%d" % trial)
        m = random_structure(rng, BOUNDS)
        corpus = formula_corpus(rng, m, 3, BOUNDS.max_depth)
        agent = rng.randint(1, m.n_agents)
        fixed = fix_interpretation(m, agent)
        report = verify_transform_equivalence(
            m, fixed, None, corpus,
            TransformClaim("fix-interpretation", agent=agent))
        assert report.ok, "fix-interpretation trial %d: %s" % (trial, report)

        copies, state_map = disjoint_copies(m)
        report = verify_transform_equivalence(
            m, copies, state_map, corpus, TransformClaim("disjoint-copies"))
        assert report.ok, "disjoint-copies trial %d: %s" % (trial, report)

        common = random_structure(rng, BOUNDS, common=True)
        corpus2 = formula_corpus(rng, common, 3, BOUNDS.max_depth)
        state = rng.choice(common.states)
        labelled, _ = label_partitions(common, state)
        report = verify_transform_equivalence(
            common, labelled, None, corpus2,
            TransformClaim("label-partitions"))
        assert report.ok, "label-partitions trial %d: %s" % (trial, report)


@_criterion(4, "derived priors are positive on cells and regenerate "
               "the cell measures exactly, >=500 models")
def test_criterion_4_prior_generation():
    for trial in range(500):
        rng = random.Random("acc4/%d" % trial)
        m = random_structure(rng, BOUNDS)
        priors = generate_priors(m)
        for i in m.agents:
            nu = priors[i]
            assert sum(nu.values(), Fraction(0)) == 1
            for cell, cb in zip(m.partitions[i], m.beliefs[i]):
                cell_mass = sum((nu[s] for s in cell), Fraction(0))
                assert cell_mass > 0
                for atom, mass in zip(cb.atoms, cb.masses):
                    atom_mass = sum((nu[s] for s in atom), Fraction(0))
                    assert atom_mass / cell_mass == mass


@_criterion(5, "the three plain modes agree on common-interpretation "
               "models, >=500 models")
def test_criterion_5_mode_agreement():
    for trial in range(500):
        rng = random.Random("acc5/%d" % trial)
        m = random_structure(rng, BOUNDS, common=True)
        ev = Evaluator(m)
        for f in formula_corpus(rng, m, 4, BOUNDS.max_depth):
            for s in m.states:
                for i in m.agents:
                    a = ev.evaluate(s, i, f, COMMON)
                    b = ev.evaluate(s, i, f, OU)
                    c = ev.evaluate(s, i, f, IN)
                    assert a == b == c, (trial, s, i, fm.print_formula(f))


@_criterion(6, "innermost signal mode equals innermost mode on "
               "prior-generated signal models, >=300 models")
def test_criterion_6_inai_equals_in():
    for trial in range(300):
        rng = random.Random("acc6/%d" % trial)
        m = random_signal_structure(rng, BOUNDS)
        assert validate_signals(m).ok
        for i in m.agents:
            for cell in m.partitions[i]:
                assert prior_mass(m, i, cell) > 0
        ev = Evaluator(m)
        for f in formula_corpus(rng, m, 4, BOUNDS.max_depth):
            for s in m.states:
                for i in m.agents:
                    assert ev.evaluate(s, i, f, IN) \
                        == ev.evaluate(s, i, f, IN_AI), \
                        (trial, s, i, fm.print_formula(f))


# --- criterion 7: exhaustive small-model sweep ---

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
    """Every (partition, per-cell measure) pair with denominators <= 3."""
    out = []
    for part in _set_partitions(list(states)):
        cells = [tuple(sorted(cell)) for cell in part]
        options = [_distributions(len(cell)) for cell in cells]
        for choice in itertools.product(*options):
            beliefs = tuple(
                singleton_cell(cell, dict(zip(cell, dist)))
                for cell, dist in zip(cells, choice))
            out.append((tuple(frozenset(c) for c in cells), beliefs))
    return out


def _corpus_20():
    both, g1, g2 = frozenset({1, 2}), frozenset({1}), frozenset({2})
    entries = [
        (both, "p", IN, 1), (both, "p", OU, 1), (both, "!p", IN, 1),
        (g1, "p", OU, 2), (g2, "!p", IN, 1),
        (both, "B1 p", IN, 1), (both, "B2 !p", OU, 2),
        (g1, "B1 p", IN, 1), (g2, "B2 p", OU, 1),
        (both, "Pr1(p) >= 1/2", IN, 1), (both, "Pr2(p) >= 1/2", OU, 2),
        (g1, "Pr2(p) = 1/2", IN, 1), (g2, "Pr1(p) < 1/2", OU, 1),
        (both, "p & B2 p", IN, 1), (both, "p | !p", OU, 2),
        (g1, "!B2 !p", IN, 1), (g2, "p -> B1 p", OU, 2),
        (both, "E{1,2} p", IN, 1), (both, "CB{1} p", OU, 1),
        (both, "1/2*Pr1(p) + 1/2*Pr1(!p) >= 1/2", IN, 1),
    ]
    return [(group, fm.parse(text), mode, outer)
            for group, text, mode, outer in entries]


@_criterion(7, "common belief equals the iterated-belief chain on all "
               "models with <=3 states, 2 agents, 1 proposition, "
               "denominators <=3")
def test_criterion_7_cb_oracle_exhaustive():
    corpus = _corpus_20()
    assert len(corpus) == 20
    checked = 0
    for n in (1, 2, 3):
        states = tuple("s%d" % (i + 1) for i in range(n))
        configs = _agent_configs(states)
        subsets = [frozenset(c)
                   for r in range(n + 1)
                   for c in itertools.combinations(states, r)]
        for part1, bel1 in configs:
            for part2, bel2 in configs:
                for ext1 in subsets:
                    for ext2 in subsets:
                        m = Structure(
                            n_agents=2, states=states, props=("p",),
                            partitions={1: part1, 2: part2},
                            beliefs={1: bel1, 2: bel2},
                            interpretations={1: {"p": ext1},
                                             2: {"p": ext2}},
                        )
                        ev = Evaluator(m)
                        for group, f, mode, outer in corpus:
                            bound = len(states) * len(group) + 1
                            via_graph = ev.common_belief_set(
                                group, f, mode, outer)
                            chain = m.universe
                            for k in range(1, bound + 1):
                                chain &= ev.eb_k(group, f, k, mode, outer)
                            assert via_graph == chain, (
                                states, part1, part2, ext1, ext2,
                                fm.print_formula(f), mode.value, outer)
                        checked += 1
    assert checked == 54404, checked


# --- criterion 8: fixture regression against the brute-force oracle ---

FIXTURE_QUERIES = [
    # (structure factory, state, agent, formula text, mode, expected)
    (m_red, "w1", 1, "Pr2(p) >= 1", OU, False),
    (m_red, "w1", 1, "Pr2(p) = 1/2", OU, True),
    (m_red, "w1", 1, "Pr2(p) >= 1", IN, True),
    (m_red, "w1", 2, "CB{1,2} p", OU, True),
    (m_red, "w1", 1, "CB{1,2} p", OU, False),
    (m_red, "w1", 1, "Pr2(p) >= 1/2", OU, True),
    (m_red, "w1", 2, "Pr2(p) >= 1/2", OU, True),
    (m_red, "w2", 1, "p", OU, False),
    (m_red, "w2", 1, "p", IN, False),
    (m_red, "w1", 1, "B1 p", OU, True),
    (m_ai, "a", 2, "Pr1(p) >= 1", OU_AI, True),
    (m_ai, "a", 2, "Pr1(p) >= 1", IN_AI, False),
    (m_ai, "a", 2, "Pr1(p) = 1/2", IN_AI, True),
    (m_ai, "a", 1, "Pr1(p) = 1/2", IN_AI, True),
    (m_sig, "w1", 1, "Pr1(p) >= 1", IN_AI, True),
    (m_sig, "w1", 2, "Pr2(p) >= 1/2", OU_AI, True),
]


@_criterion(8, "hand-derived fixture values re-derived by the brute-force "
               "evaluator and reproduced by the checker")
def test_criterion_8_fixture_regression():
    for factory, state, agent, text, mode, expected in FIXTURE_QUERIES:
        m = factory()
        f = fm.parse(text)
        rederived = eval_brute(m, state, agent, f, mode)
        assert rederived == expected, \
            "oracle disagrees with the stated value for %s at (%s,%d,%s)" \
            % (text, state, agent, mode.value)
        got = Evaluator(m).evaluate(state, agent, f, mode)
        assert got == expected, \
            "checker disagrees for %s at (%s,%d,%s)" \
            % (text, state, agent, mode.value)
    # set-level spot checks, re-derived pointwise by the oracle
    m = m_red()
    for text, mode, outer, expected in [
        ("Pr2(p) = 1/2", OU, 1, {"w1", "w2"}),
        ("p", OU, 1, {"w1"}),
        ("CB{1,2} p", IN, 1, set()),
    ]:
        f = fm.parse(text)
        brute_set = {s for s in m.states if eval_brute(m, s, outer, f, mode)}
        assert brute_set == expected
        fast_set = Evaluator(m).extension(outer, f, mode)
        assert fast_set == frozenset(expected)
    # fixture files validate cleanly
    assert validate_core(m_red()).ok
    assert validate_signals(m_sig()).ok
    assert validate_signals(m_ai()).ok


@_criterion(9, "parse/print identity on >=10000 formulas and stable "
               "error positions")
def test_criterion_9_parser_roundtrip():
    rng = random.Random("acc9")
    for n in range(10000):
        f = random_surface_formula(rng, ["p", "q", "r"], 3,
                                   rng.randint(0, 4))
        text = fm.print_formula(f)
        assert fm.parse(text) == f, text
    goldens = [
        ("p &", 3, "end of input"),
        ("(p | q", 6, "end of input"),
        ("B1", 2, "end of input"),
        ("p @ x", 4, "x"),
        ("Pr1(p) >= ", 10, "end of input"),
        ("Pr1(p) + Pr2(q) >= 1", 9, "Pr2"),
        ("CB{} p", 3, "}"),
        ("1/2 * Pr1(p)", 12, "end of input"),
    ]
    for text, offset, found in goldens:
        with pytest.raises(FormulaSyntaxError) as err:
            fm.parse(text)
        assert err.value.offset == offset, (text, err.value.offset)
        assert err.value.found == found, (text, err.value.found)
