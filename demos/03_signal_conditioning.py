"""Ambiguity about information: signals read differently by different agents.

Neither agent can distinguish the states a and b.  Agent 1's signals s (at
a) and t (at b) both denote his whole cell to him, so he learns nothing.
Agent 2 however reads s as {a} and t as {b}; under the outermost signal
mode she concludes that agent 1 learned the state, under the innermost
signal mode she correctly models his ignorance.

Run with:  python3 demos/03_signal_conditioning.py
"""

from pathlib import Path

from ambilogic import (
    EvalMode,
    Evaluator,
    load_structure,
    parse,
    print_formula,
    validate_core,
    validate_signals,
)

m = load_structure(Path(__file__).resolve().parent / "models" / "m_ai.json")
OU_AI, IN_AI = EvalMode.OUTERMOST_AI, EvalMode.INNERMOST_AI

print("core checks:", validate_core(m))
print("signal checks:", validate_signals(m))
print()
for i in (1, 2):
    for s in m.states:
        print("agent %d's signal at %s: %s"
              % (i, s, print_formula(m.signals[i][s])))
print()
print("how each agent reads agent 1's signals:")
print("  agent 1 reads s as", sorted(m.interpretations[1]["s"]),
      "and t as", sorted(m.interpretations[1]["t"]))
print("  agent 2 reads s as", sorted(m.interpretations[2]["s"]),
      "and t as", sorted(m.interpretations[2]["t"]))
print()

ev = Evaluator(m)
print("agent 1's possibility edges as agent 2 sees them (outermost-ai):")
print("  ", sorted(ev.belief_edges(1, OU_AI, 2)))
print("agent 1's actual possibility edges (innermost-ai):")
print("  ", sorted(ev.belief_edges(1, IN_AI, 2)))
print()

f = parse("Pr1(p) >= 1")
print("Is agent 1 certain of p, judged by agent 2 at state a?")
print("  outermost-ai:", ev.evaluate("a", 2, f, OU_AI))
print("  innermost-ai:", ev.evaluate("a", 2, f, IN_AI))
print("  (innermost-ai value is 1/2: ", ev.evaluate("a", 2, parse("Pr1(p) = 1/2"), IN_AI), ")", sep="")
