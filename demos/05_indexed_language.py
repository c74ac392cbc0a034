"""Compiling ambiguity away: the indexed proposition language.

Instead of transforming the structure, extend the vocabulary: ``p@i``
means "p as agent i reads it".  Lifting a structure reinterprets the
product vocabulary with one shared interpretation, and the two
translations make common-mode truth in the lift coincide with the
ambiguous modes in the original.

Run with:  python3 demos/05_indexed_language.py
"""

from pathlib import Path

from ambilogic import (
    EvalMode,
    Evaluator,
    lift_to_indexed,
    load_structure,
    parse,
    print_formula,
    translate_in,
    translate_in_naive,
    translate_ou,
    verify_theorem2,
)

m = load_structure(Path(__file__).resolve().parent / "models" / "m_red.json")
lifted = lift_to_indexed(m)
print("lifted propositions:", lifted.props)
for name in lifted.props:
    print("  [[%s]] = %s" % (name, sorted(lifted.interpretations[1][name])))
print()

print("== the two translations ==")
for text in ("p", "Pr2(p) >= 1/2", "CB{1,2} p"):
    f = parse(text)
    print("%-16s innermost for 1: %s" % (
        text, print_formula(translate_in(f, 1), sugar_beliefs=True)))
    print("%-16s outermost for 1: %s" % (
        "", print_formula(translate_ou(f, 1), sugar_beliefs=True)))
print()

corpus = [parse(t) for t in ("p", "B2 p", "Pr2(p) >= 1/2", "CB{1,2} p")]
print("translations agree with the ambiguous modes on every query:",
      verify_theorem2(m, corpus).ok)
print()

print("== why the common-belief clause needs the per-member beliefs ==")
f = parse("CB{1,2} p")
naive = translate_in_naive(f, 1)
print("correct clause:", print_formula(translate_in(f, 1), sugar_beliefs=True))
print("naive clause:  ", print_formula(naive, sugar_beliefs=True))
# agent 1 reads p everywhere but cannot tell the states apart; agent 2
# reads p only at w1 but knows the state
from ambilogic.structure import Structure, singleton_cell
from fractions import Fraction

half, one = Fraction(1, 2), Fraction(1)
cell = frozenset({"w1", "w2"})
m2 = Structure(
    n_agents=2, states=("w1", "w2"), props=("p",),
    partitions={1: (cell,), 2: (frozenset({"w1"}), frozenset({"w2"}))},
    beliefs={
        1: (singleton_cell(cell, {"w1": half, "w2": half}),),
        2: (singleton_cell({"w1"}, {"w1": one}),
            singleton_cell({"w2"}, {"w2": one})),
    },
    interpretations={1: {"p": cell}, 2: {"p": frozenset({"w1"})}},
)
lifted2 = lift_to_indexed(m2)
ev2 = Evaluator(lifted2)
left = Evaluator(m2).evaluate("w1", 1, f, EvalMode.INNERMOST)
good = ev2.evaluate("w1", 1, translate_in(f, 1), EvalMode.COMMON)
bad = ev2.evaluate("w1", 1, translate_in_naive(f, 1), EvalMode.COMMON)
print("innermost truth at (w1, agent 1): %s" % left)
print("correct translation in the lift:  %s" % good)
print("naive translation in the lift:    %s   <- wrong" % bad)
