"""Outermost versus innermost scope on a two-state structure.

Agent 1 knows the state and reads p as true only at w1; agent 2 cannot
tell the states apart and reads p as true everywhere.  Whether agent 1
thinks agent 2 is certain of p depends entirely on whose reading of p is
used for agent 2's belief.

Run with:  python3 demos/02_ambiguity_modes.py
"""

from pathlib import Path

from ambilogic import (
    EvalMode,
    Evaluator,
    load_structure,
    parse,
    valid_in_model,
)

m = load_structure(Path(__file__).resolve().parent / "models" / "m_red.json")
ev = Evaluator(m)
OU, IN = EvalMode.OUTERMOST, EvalMode.INNERMOST

print("states:", m.states)
print("agent 1 reads p as:", sorted(m.interpretations[1]["p"]))
print("agent 2 reads p as:", sorted(m.interpretations[2]["p"]))
print()

queries = [
    ("Pr2(p) >= 1", "w1", 1),
    ("Pr2(p) = 1/2", "w1", 1),
    ("Pr2(p) >= 1/2", "w1", 2),
    ("B1 p", "w1", 1),
]
print("%-18s %-4s %-6s %-10s %-10s" % ("formula", "at", "agent", "outermost",
                                       "innermost"))
for text, state, agent in queries:
    f = parse(text)
    print("%-18s %-4s %-6d %-10s %-10s"
          % (text, state, agent, ev.evaluate(state, agent, f, OU),
             ev.evaluate(state, agent, f, IN)))

print()
print("Common belief splits the same way: according to agent 2 the group")
print("commonly believes p, according to agent 1 it cannot, because the")
print("chain reaches w2 where agent 1 reads p as false.")
cb = parse("CB{1,2} p")
for agent in (1, 2):
    print("  (w1, agent %d) outermost CB{1,2} p: %s"
          % (agent, ev.evaluate("w1", agent, cb, OU)))

print()
print("Model validity sweeps every state and agent:")
for text in ("Pr2(p) >= 1/2", "p"):
    report = valid_in_model(m, parse(text), OU)
    verdict = "valid" if report.ok else "invalid (%s)" % report.entries[0].message
    print("  %-16s %s" % (text, verdict))
