"""The three constructive transformations that eliminate ambiguity.

Each transformation produces a common-interpretation structure together
with a per-formula equivalence to the original, and the verifier replays
that equivalence on a concrete formula corpus.

Run with:  python3 demos/04_removing_ambiguity.py
"""

from pathlib import Path

from ambilogic import (
    TransformClaim,
    disjoint_copies,
    fix_interpretation,
    generate_priors,
    label_partitions,
    load_structure,
    parse,
    verify_transform_equivalence,
)
from ambilogic.structure import is_common_interpretation

m = load_structure(Path(__file__).resolve().parent / "models" / "m_red.json")
corpus = [parse(t) for t in
          ("p", "B2 p", "CB{1,2} p", "Pr2(p) >= 1/2", "!p & B1 p")]

print("== 1. stamp one agent's interpretation onto everyone ==")
fixed = fix_interpretation(m, 1)
print("common interpretation now:", is_common_interpretation(fixed))
report = verify_transform_equivalence(
    m, fixed, None, corpus,
    TransformClaim("fix-interpretation", agent=1))
print("outermost-by-1 matches common evaluation everywhere:", report.ok)
print()

print("== 2. one tagged copy of the state space per agent ==")
copies, state_map = disjoint_copies(m)
print("states:", copies.states)
print("tag map:", {new: {"state": old, "tag": tag}
                   for new, (old, tag) in sorted(state_map.items())})
report = verify_transform_equivalence(
    m, copies, state_map, corpus, TransformClaim("disjoint-copies"))
print("common evaluation at a tagged copy matches innermost evaluation")
print("by the tag agent at the source state:", report.ok)
print()

print("== 3. label the cells with fresh signal propositions ==")
labelled, fresh = label_partitions(fixed, "w1")
print("fresh propositions:",
      {name: (agent, sorted(cell)) for name, (agent, cell) in fresh.items()})
report = verify_transform_equivalence(
    fixed, labelled, None, corpus, TransformClaim("label-partitions"))
print("evaluation of the original vocabulary is unchanged:", report.ok)
print()

print("== derived priors ==")
priors = generate_priors(m)
for i in m.agents:
    print("agent %d prior:" % i,
          {s: str(v) for s, v in sorted(priors[i].items())})
