import random
from fractions import Fraction

import pytest

from ambilogic import formula as fm
from ambilogic.errors import FormulaSyntaxError, FormulaTooDeep, UnknownAgent
from ambilogic.generators import random_surface_formula


def roundtrip(text):
    f = fm.parse(text)
    assert fm.parse(fm.print_formula(f)) == f
    return f


def test_parse_atomic():
    assert fm.parse("p") == fm.Prop("p")
    assert fm.parse("p@2") == fm.IndexedProp("p", 2)
    assert fm.parse("true") == fm.TrueF()
    assert fm.parse("false") == fm.FalseF()


def test_parse_probability_formula():
    f = fm.parse("2/3*Pr1(p) + 1/3*Pr1(q) >= 1/2")
    assert f == fm.ProbGe(
        ((Fraction(2, 3), 1, fm.Prop("p")),
         (Fraction(1, 3), 1, fm.Prop("q"))),
        Fraction(1, 2))
    assert f.agent == 1


def test_parse_modal_composition():
    f = fm.parse("CB{1,2}(B1 p & B2 !p)")
    assert f == fm.CB(frozenset({1, 2}),
                      fm.And(fm.B(1, fm.Prop("p")),
                             fm.B(2, fm.Not(fm.Prop("p")))))


def test_parse_group_belief():
    assert fm.parse("E{1,2} p") == fm.EB(frozenset({1, 2}), 1, fm.Prop("p"))
    assert fm.parse("E{1}^3 p") == fm.EB(frozenset({1}), 3, fm.Prop("p"))


def test_parse_comparison_sugar():
    terms = ((Fraction(1), 2, fm.Prop("p")),)
    neg = ((Fraction(-1), 2, fm.Prop("p")),)
    half = Fraction(1, 2)
    assert fm.parse("Pr2(p) = 1/2") == fm.And(fm.ProbGe(terms, half),
                                              fm.ProbGe(neg, -half))
    assert fm.parse("Pr2(p) <= 1/2") == fm.ProbGe(neg, -half)
    assert fm.parse("Pr2(p) > 1/2") == fm.Not(fm.ProbGe(neg, -half))
    assert fm.parse("Pr2(p) < 1/2") == fm.Not(fm.ProbGe(terms, half))


def test_parse_propositional_connectives():
    f = fm.parse("p -> q -> r")
    assert f == fm.Implies(fm.Prop("p"),
                           fm.Implies(fm.Prop("q"), fm.Prop("r")))
    g = fm.parse("p | q & r <-> s")
    assert isinstance(g, fm.Iff)
    assert g.left == fm.Or(fm.Prop("p"), fm.And(fm.Prop("q"), fm.Prop("r")))


def test_parse_errors_carry_offset_and_expectations():
    with pytest.raises(FormulaSyntaxError) as err:
        fm.parse("p &")
    assert err.value.offset == 3
    assert err.value.found == "end of input"
    with pytest.raises(FormulaSyntaxError) as err:
        fm.parse("Pr1(p) >= 1/0")
    assert "denominator" in str(err.value)
    with pytest.raises(FormulaSyntaxError):
        fm.parse("(p")
    with pytest.raises(FormulaSyntaxError):
        fm.parse("")


@pytest.mark.parametrize("text, offset, expected, found", [
    ("Pr1 p >= 1", 4, "'('", "p"),
    ("E{1}^0 p", 5, "power >= 1", "0"),
    ("p $ q", 2, "token", "$"),
    ("2*q >= 1", 2, "'Pr<agent>('", "q"),
])
def test_parse_error_points_at_the_offending_token(text, offset, expected,
                                                    found):
    with pytest.raises(FormulaSyntaxError) as err:
        fm.parse(text)
    assert (err.value.offset, err.value.found) == (offset, found)
    assert str(err.value) == ("syntax error at offset %d: expected %s, "
                              "found %r" % (offset, expected, found))


def test_group_belief_refuses_power_0():
    with pytest.raises(ValueError,
                       match=r"^group-belief power must be >= 1$"):
        fm.EB({1}, 0, fm.Prop("p"))


def test_parse_rejects_mixed_agents_in_one_comparison():
    with pytest.raises(FormulaSyntaxError) as err:
        fm.parse("Pr1(p) + Pr2(q) >= 1")
    assert "one agent" in str(err.value)


def test_parse_rejects_nonpositive_agents():
    for bad, where in (("B0 p", "offset 0: B0"),
                       ("Pr0(p) >= 1", "offset 0: Pr0"),
                       ("CB{0} p", "offset 3: 0"),
                       ("p@0", "offset 2: 0"),
                       ("E{0} p", "offset 2: 0")):
        with pytest.raises(UnknownAgent) as err:
            fm.parse(bad)
        assert str(err.value) == "agent index must be positive at " + where
    with pytest.raises(UnknownAgent) as err:
        fm.B(0, fm.Prop("p"))
    assert str(err.value) == "agent index must be positive: 0"


@pytest.mark.parametrize("text, offset", [
    ("Pr2(p) >= " + "5" * 5000, 10), ("Pr1(p) >= 1/" + "5" * 5000, 12),
    ("B" + "1" * 5000 + " p", 1), ("Pr" + "1" * 5000 + "(p) >= 1", 2),
    ("p@" + "2" * 5000, 2), ("E{1}^" + "3" * 5000 + " p", 5),
])
def test_parse_names_a_number_longer_than_int_reads(text, offset):
    # Python's int reads at most 4,300 digits by default.
    with pytest.raises(FormulaSyntaxError) as err:
        fm.parse(text)
    assert str(err.value) == (
        "syntax error at offset %d: expected a number of at most 4300 "
        "digits, found '5000 digits'" % offset)


def test_print_examples():
    assert fm.print_formula(fm.Prop("p")) == "p"
    assert fm.print_formula(fm.B(1, fm.Prop("p"))) == "B1 p"
    assert fm.print_formula(
        fm.ProbGe(((Fraction(1), 2, fm.Prop("p")),), Fraction(1, 2))
    ) == "Pr2(p) >= 1/2"
    assert fm.print_formula(fm.parse("CB{1,2}(B1 p & B2 !p)")) \
        == "CB{1,2}(B1 p & B2 !p)"


# Each binary operator over each other one, a comparison and a belief, as
# (outer operator, operand, printed as left operand, as right operand).
_NESTED = [
    (fm.And, "&", "p & q & p", "p & (p & q)"),
    (fm.And, "|", "(p | q) & p", "p & (p | q)"),
    (fm.And, "->", "(p -> q) & p", "p & (p -> q)"),
    (fm.And, "<->", "(p <-> q) & p", "p & (p <-> q)"),
    (fm.And, "cmp", "(Pr1(p) >= 1/2) & p", "p & (Pr1(p) >= 1/2)"),
    (fm.And, "B1", "B1 q & p", "p & B1 q"),
    (fm.Or, "&", "p & q | p", "p | p & q"),
    (fm.Or, "|", "p | q | p", "p | (p | q)"),
    (fm.Or, "->", "(p -> q) | p", "p | (p -> q)"),
    (fm.Or, "<->", "(p <-> q) | p", "p | (p <-> q)"),
    (fm.Or, "cmp", "(Pr1(p) >= 1/2) | p", "p | (Pr1(p) >= 1/2)"),
    (fm.Or, "B1", "B1 q | p", "p | B1 q"),
    (fm.Implies, "&", "p & q -> p", "p -> p & q"),
    (fm.Implies, "|", "p | q -> p", "p -> p | q"),
    (fm.Implies, "->", "(p -> q) -> p", "p -> p -> q"),
    (fm.Implies, "<->", "(p <-> q) -> p", "p -> (p <-> q)"),
    (fm.Implies, "cmp", "(Pr1(p) >= 1/2) -> p", "p -> (Pr1(p) >= 1/2)"),
    (fm.Implies, "B1", "B1 q -> p", "p -> B1 q"),
    (fm.Iff, "&", "p & q <-> p", "p <-> p & q"),
    (fm.Iff, "|", "p | q <-> p", "p <-> p | q"),
    (fm.Iff, "->", "p -> q <-> p", "p <-> p -> q"),
    (fm.Iff, "<->", "p <-> q <-> p", "p <-> (p <-> q)"),
    (fm.Iff, "cmp", "(Pr1(p) >= 1/2) <-> p", "p <-> (Pr1(p) >= 1/2)"),
    (fm.Iff, "B1", "B1 q <-> p", "p <-> B1 q"),
]


@pytest.mark.parametrize("outer, operand, as_left, as_right", _NESTED)
def test_print_parenthesises_operands_by_binding(outer, operand, as_left,
                                                 as_right):
    p, q = fm.Prop("p"), fm.Prop("q")
    inner = {"&": fm.And(p, q), "|": fm.Or(p, q), "->": fm.Implies(p, q),
             "<->": fm.Iff(p, q), "B1": fm.B(1, q),
             "cmp": fm.ProbGe(((Fraction(1), 1, p),), Fraction(1, 2))}[operand]
    for f, text in ((outer(inner, p), as_left), (outer(p, inner), as_right)):
        assert fm.print_formula(f) == text
        assert fm.parse(text) == f


def test_print_negative_coefficients_reparse():
    f = fm.ProbGe(((Fraction(-1), 1, fm.Prop("p")),
                   (Fraction(1, 2), 1, fm.Prop("q"))), Fraction(-1, 3))
    text = fm.print_formula(f)
    assert fm.parse(text) == f


def test_sugar_belief_printing_expands_back():
    f = fm.ProbGe(((Fraction(1), 1, fm.IndexedProp("p", 1)),), Fraction(1))
    assert fm.print_formula(f, sugar_beliefs=True) == "B1 p@1"
    assert fm.expand(fm.parse("B1 p@1")) == f


def test_expand_belief():
    assert fm.expand(fm.parse("B2 p")) == fm.ProbGe(
        ((Fraction(1), 2, fm.Prop("p")),), Fraction(1))


def test_expand_group_belief_once():
    got = fm.expand(fm.parse("E{1,2} p"))
    b1 = fm.ProbGe(((Fraction(1), 1, fm.Prop("p")),), Fraction(1))
    b2 = fm.ProbGe(((Fraction(1), 2, fm.Prop("p")),), Fraction(1))
    assert got == fm.And(b1, b2)


def test_expand_group_belief_iterated():
    got = fm.expand(fm.parse("E{1}^2 p"))
    inner = fm.ProbGe(((Fraction(1), 1, fm.Prop("p")),), Fraction(1))
    assert got == fm.ProbGe(((Fraction(1), 1, inner),), Fraction(1))


def test_expand_true_uses_designated_proposition():
    got = fm.expand(fm.TrueF(), "q")
    q = fm.Prop("q")
    assert got == fm.Not(fm.And(fm.Not(q), fm.Not(fm.Not(q))))
    # without an explicit choice, the first proposition in the formula wins
    got2 = fm.expand(fm.And(fm.Prop("r"), fm.TrueF()))
    assert "r" in fm.propositions(got2)


def test_expand_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        f = random_surface_formula(rng, ["p", "q"], 2, 3)
        once = fm.expand(f, "p")
        assert fm.expand(once, "p") == once


def test_is_propositional():
    assert fm.is_propositional(fm.parse("!(p & q)"))
    assert fm.is_propositional(fm.parse("p | q -> r <-> true"))
    assert not fm.is_propositional(fm.parse("Pr1(p) >= 1"))
    assert not fm.is_propositional(fm.parse("CB{1} p"))
    assert not fm.is_propositional(fm.parse("B1 p"))
    assert not fm.is_propositional(fm.parse("p@1"))


def test_subformulas_postorder_distinct():
    p, q = fm.Prop("p"), fm.Prop("q")
    assert fm.subformulas(fm.And(p, q)) == [p, q, fm.And(p, q)]
    assert fm.subformulas(fm.Not(p)) == [p, fm.Not(p)]
    assert fm.subformulas(p) == [p]
    twice = fm.And(p, p)
    assert fm.subformulas(twice) == [p, twice]


def test_propositions_and_agents():
    f = fm.parse("CB{1,3}(Pr2(p@2) >= 1/2 & q)")
    assert fm.propositions(f) == frozenset({"p@2", "q"})
    assert fm.agents_in(f) == frozenset({1, 2, 3})


def test_roundtrip_samples():
    for text in [
        "p", "!p", "p & q & r", "p | (q & !r)", "(p -> q) -> r",
        "B1 !p", "CB{2} Pr1(p) >= 1",
        "E{1,2}^2 (p | q)", "Pr1(Pr2(p) >= 1/2) >= 1/3",
        "-1/2*Pr1(p) + 2*Pr1(q) >= -2/3",
        "CB{1,2}(B1 p@1 & B2 p@2)",
    ]:
        roundtrip(text)


def test_roundtrip_generated():
    rng = random.Random(5)
    for _ in range(500):
        f = random_surface_formula(rng, ["p", "q", "r"], 3, 4)
        text = fm.print_formula(f)
        assert fm.parse(text) == f, text


def test_probge_constructor_validates():
    with pytest.raises(ValueError):
        fm.ProbGe((), Fraction(1))
    with pytest.raises(ValueError):
        fm.ProbGe(((Fraction(1), 1, fm.Prop("p")),
                   (Fraction(1), 2, fm.Prop("q"))), Fraction(1))
    with pytest.raises(ValueError):
        fm.CB(frozenset(), fm.Prop("p"))


def _negations(n, inner="p"):
    return fm.parse("!" * n + inner)


def test_long_prefix_chains_parse_without_recursion():
    f = _negations(3000)
    assert fm.facts(f).depth == 3001 and fm.facts(f).core
    assert fm.expand(f) is f  # a core formula is its own expansion
    g = fm.parse("B1 " * 1000 + "E{1,2}^2 CB{2} p")
    assert fm.agents_in(g) == {1, 2} and fm.facts(g).depth == 1003


def test_equal_deep_formulas_compare_without_recursion():
    first, second = _negations(3000), _negations(3000)
    assert first is second  # nodes are interned
    assert first == second and hash(first) == hash(second)
    assert first != _negations(3000, "q") and first != _negations(2999)
    # Deep probability terms, with conjunctions inside them.
    def chain(leaf):
        g = fm.Prop(leaf)
        for k in range(3000):
            g = _pr_half(g) if k % 2 else fm.And(fm.parse("q & !p"), g)
        return g
    assert chain("p") == chain("p") and chain("p") != chain("q")
    assert chain("p").terms == chain("p").terms
    assert fm.Prop("p") != "p" and fm.TrueF() == fm.TrueF() != fm.FalseF()


def test_printer_and_expand_refuse_past_max_depth():
    at_limit = _negations(fm.MAX_DEPTH - 1)
    assert fm.parse(fm.print_formula(at_limit)) == at_limit
    assert fm.expand(fm.parse("!" * (fm.MAX_DEPTH - 1) + "true"), "p")
    too_deep = _negations(fm.MAX_DEPTH)
    with pytest.raises(FormulaTooDeep, match="print a formula nested %d"
                       % (fm.MAX_DEPTH + 1)):
        fm.print_formula(too_deep)
    with pytest.raises(FormulaTooDeep, match="expand"):
        fm.expand(fm.parse("B1 " * fm.MAX_DEPTH + "p"))


def test_deep_parentheses_are_a_named_error():
    with pytest.raises(FormulaTooDeep, match="parse"):
        fm.parse("(" * 3000 + "p" + ")" * 3000)


def _pr_half(f):
    return fm.ProbGe(((Fraction(1), 1, f),), Fraction(1, 2))


@pytest.mark.parametrize("wrap", [
    _pr_half,  # Pr1(Pr1(...) >= 1/2) >= 1/2
    lambda f: fm.Implies(f, fm.Prop("q")),  # ((p -> q) -> q) -> q
    lambda f: fm.And(fm.Prop("q"), f),  # q & (q & (q & p))
    lambda f: fm.And(f, fm.Prop("q")),  # p & q & q & q
], ids=["pr", "parentheses", "and-right", "and-left"])
def test_parse_inverts_print_up_to_max_depth(wrap):
    g = fm.Prop("p")
    for _ in range(fm.MAX_DEPTH - 1):
        g = wrap(g)
    assert fm.facts(g).depth == fm.MAX_DEPTH
    assert fm.parse(fm.print_formula(g)) == g
    with pytest.raises(FormulaTooDeep, match="print"):
        fm.print_formula(wrap(g))


def _called_below(frames, fn):
    return fn() if frames == 0 else _called_below(frames - 1, fn)


def test_parse_counts_its_own_nesting():
    def text(n):
        return "Pr1(" * n + "p" + ") >= 1/2" * n
    # The formula and its MAX_DEPTH - 1 arguments: MAX_DEPTH levels.
    at_limit = text(fm.MAX_DEPTH - 1)
    expected = fm.parse(at_limit)
    assert fm.facts(expected).depth == fm.MAX_DEPTH
    # The verdict does not depend on the caller's stack.
    assert _called_below(200, lambda: fm.parse(at_limit)) == expected
    for too_deep in (text(fm.MAX_DEPTH), "(" * fm.MAX_DEPTH + "p"
                     + ")" * fm.MAX_DEPTH):
        with pytest.raises(FormulaTooDeep, match="cannot parse a formula "
                           "nested more than %d deep" % fm.MAX_DEPTH):
            _called_below(200, lambda: fm.parse(too_deep))
    assert fm.parse("(" * (fm.MAX_DEPTH - 1) + "p"
                    + ")" * (fm.MAX_DEPTH - 1)) == fm.Prop("p")


def test_facts_are_kept_per_node():
    f = fm.parse("Pr2(p@1 & q) >= 1/2 | !CB{3,1} true")
    got = fm.facts(f)
    assert (got.agents, got.props, got.indexed, got.depth, got.core) \
        == ({1, 2, 3}, {"p@1", "q"}, True, 4, False)
    assert fm.facts(f) is got
    assert not fm.is_propositional(f) and fm.is_propositional(fm.parse("!q"))


@pytest.mark.parametrize("text", [
    "p", "p@2", "!(p & q) | Pr1(q) >= 1/2", "E{2,1}^2 (p -> q)",
    "CB{1,3} 2/4*Pr3(p) + -1*Pr3(!p) >= 1/3", "true <-> B2 false",
])
def test_formulas_parsed_twice_are_one_object_and_one_key(text):
    first, second = fm.parse(text), fm.parse(text)
    assert first is second
    assert {first: 1, second: 2} == {first: 2}
    assert fm.expand(first) is fm.expand(second)


def test_intern_keys_read_coefficients_and_bounds_by_value():
    p = fm.Prop("p")
    half = fm.ProbTerm(Fraction(1, 2), 1, p)
    assert fm.ProbTerm(Fraction(2, 4), 1, p) is half
    assert fm.ProbTerm(1, 1, p) is fm.ProbTerm(Fraction(1), 1, p)
    assert fm.ProbTerm(-3, 2, p) is fm.ProbTerm(Fraction(-6, 2), 2, p)
    assert fm.ProbTerm(1, 1, p) is not half
    assert type(fm.ProbTerm(1, 1, p).coeff) is Fraction
    # A Fraction is kept as it is: a new node holds the argument itself.
    coeff = Fraction(12345, 67891)
    assert fm.ProbTerm(coeff, 1, fm.Prop("fresh_coeff")).coeff is coeff
    terms = (half,)
    assert fm.ProbGe(terms, Fraction(2, 4)) is fm.ProbGe(terms, Fraction(1, 2))
    assert fm.ProbGe(terms, 1) is fm.ProbGe(terms, Fraction(1))
    assert fm.ProbGe(terms, 0) is not fm.ProbGe(terms, 1)
    assert type(fm.ProbGe(terms, 1).bound) is Fraction
    assert fm.parse("1/2*Pr1(p) >= 2/4") is fm.ProbGe(terms, Fraction(1, 2))


def _facts_by_recursion(f):
    """(agents, props, indexed, depth, core) of f, by the meaning of each
    field, recomputed from the children."""
    if isinstance(f, fm.Prop):
        return frozenset(), frozenset({f.name}), False, 1, True
    if isinstance(f, fm.IndexedProp):
        return (frozenset({f.agent}), frozenset({"%s@%d" % (f.name, f.agent)}),
                True, 1, True)
    if isinstance(f, (fm.TrueF, fm.FalseF)):
        return frozenset(), frozenset(), False, 1, False
    if isinstance(f, fm.ProbGe):
        kids, own, core = [t.arg for t in f.terms], {f.agent}, True
    elif isinstance(f, (fm.And, fm.Or, fm.Implies, fm.Iff)):
        kids, own, core = [f.left, f.right], set(), isinstance(f, fm.And)
    elif isinstance(f, fm.Not):
        kids, own, core = [f.arg], set(), True
    elif isinstance(f, fm.B):
        kids, own, core = [f.arg], {f.agent}, False
    else:  # CB and EB
        kids, own, core = [f.arg], set(f.group), isinstance(f, fm.CB)
    below = [_facts_by_recursion(k) for k in kids]
    return (frozenset(own).union(*(b[0] for b in below)),
            frozenset().union(*(b[1] for b in below)),
            any(b[2] for b in below), 1 + max(b[3] for b in below),
            core and all(b[4] for b in below))


def test_facts_of_every_node_match_a_recursive_recomputation():
    rng = random.Random(16)
    seen = 0
    for _ in range(300):
        f = random_surface_formula(rng, ["p", "q", "r"], 3,
                                   rng.randint(0, 5))
        for g in fm.subformulas(f):
            assert tuple(fm.facts(g)) == _facts_by_recursion(g), \
                fm.print_formula(g)
            seen += 1
    assert seen > 1000
