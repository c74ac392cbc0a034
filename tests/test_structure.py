import copy
import json
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from ambilogic import formula as fm
from ambilogic.errors import (
    CoreInvalid,
    MissingSignals,
    ModelFormatError,
    NotMeasurable,
    UndefinedConditional,
    UnknownAgent,
    UnknownProp,
    UnknownState,
)
from ambilogic.generators import GenBounds, random_signal_structure
from ambilogic.modes import EvalMode
from ambilogic.semantics import Evaluator
from ambilogic.structure import (
    CellBeliefs,
    Structure,
    dumps_structure,
    generate_priors,
    is_common_interpretation,
    loads_structure,
    reachable,
    singleton_cell,
    structure_from_dict,
    structure_to_dict,
    validate_core,
    validate_signals,
)

from demo_models import MODELS, m_ai, m_red, m_sig

HALF = Fraction(1, 2)
ONE = Fraction(1)


def coarse_atom_structure(p_ext_1=frozenset({"w1"})):
    """Agent 1's single cell has the trivial algebra {cell}; agent 2 has
    the powerset one."""
    cell = frozenset({"w1", "w2"})
    return Structure(
        n_agents=2,
        states=("w1", "w2"),
        props=("p",),
        partitions={1: (cell,), 2: (cell,)},
        beliefs={
            1: (CellBeliefs(cell, (cell,), (ONE,)),),
            2: (singleton_cell(cell, {"w1": HALF, "w2": HALF}),),
        },
        interpretations={
            1: {"p": p_ext_1},
            2: {"p": frozenset({"w1"})},
        },
    )


def test_validate_core_fixtures_clean():
    for m in (m_red(), m_sig(), m_ai()):
        report = validate_core(m)
        assert report.ok, str(report)


def test_validate_core_flags_unmeasurable_proposition():
    m = coarse_atom_structure()
    report = validate_core(m)
    kinds = report.kinds()
    assert "prop-measurability" in kinds
    witness = [v for v in report.entries if v.kind == "prop-measurability"][0]
    assert witness.context["agent"] == 1
    assert witness.context["prop"] == "p"
    assert witness.context["state"] == "w1"
    # with p read as the whole cell the violation disappears
    ok = coarse_atom_structure(p_ext_1=frozenset({"w1", "w2"}))
    assert "prop-measurability" not in validate_core(ok).kinds()


def test_coarse_algebra_blocks_cross_agent_events_only_at_eval():
    # agent 1's trivial algebra satisfies every core check when he reads p
    # as his whole cell, yet agent 2's finer reading of p is not measurable
    # for him, which only surfaces when an outermost query needs it
    m = coarse_atom_structure(p_ext_1=frozenset({"w1", "w2"}))
    assert validate_core(m).ok
    ev = Evaluator(m)
    assert ev.evaluate("w1", 1, fm.parse("Pr1(p) >= 1"), EvalMode.OUTERMOST)
    with pytest.raises(NotMeasurable):
        ev.evaluate("w1", 2, fm.parse("Pr1(p) >= 1/2"), EvalMode.OUTERMOST)


def test_coarse_algebra_common_belief_raises_like_belief():
    # agent 2's reading {w1} of p cuts across agent 1's only atom, so
    # neither B1 p nor any iteration of it, common belief included, has a
    # value for agent 2
    m = coarse_atom_structure(p_ext_1=frozenset({"w1", "w2"}))
    assert validate_core(m).ok
    p = fm.parse("p")
    queries = (
        lambda ev: ev.extension(2, fm.parse("B1 p"), EvalMode.OUTERMOST),
        lambda ev: ev.eb_k({1}, p, 1, EvalMode.OUTERMOST, 2),
        lambda ev: ev.common_belief_set({1}, p, EvalMode.OUTERMOST, 2),
        lambda ev: ev.extension(2, fm.parse("CB{1} p"), EvalMode.OUTERMOST),
    )
    for query in queries:
        with pytest.raises(NotMeasurable):
            query(Evaluator(m))


def test_validate_core_probes_only_coarse_cells(monkeypatch):
    probed = []
    measure = CellBeliefs.measure
    monkeypatch.setattr(CellBeliefs, "measure",
                        lambda cb, event: probed.append(cb)
                        or measure(cb, event))
    assert validate_core(m_sig()).ok and probed == []
    m = coarse_atom_structure()
    assert "prop-measurability" in validate_core(m).kinds()
    assert probed and not any(cb._points for cb in probed)


def test_validate_core_flags_unmeasurable_other_cell():
    cell = frozenset({"w1", "w2"})
    m = Structure(
        n_agents=2,
        states=("w1", "w2"),
        props=("p",),
        partitions={1: (cell,), 2: (frozenset({"w1"}), frozenset({"w2"}))},
        beliefs={
            1: (CellBeliefs(cell, (cell,), (ONE,)),),
            2: (singleton_cell({"w1"}, {"w1": ONE}),
                singleton_cell({"w2"}, {"w2": ONE})),
        },
        interpretations={1: {"p": cell}, 2: {"p": cell}},
    )
    assert "cell-measurability" in validate_core(m).kinds()


def test_validate_core_flags_bad_measure_sum():
    bad = m_red().replace(beliefs={
        1: m_red().beliefs[1],
        2: (singleton_cell({"w1", "w2"},
                           {"w1": Fraction(49, 100), "w2": HALF}),),
    })
    report = validate_core(bad)
    assert "measure-sum" in report.kinds()


def test_validate_core_flags_partition_problems():
    m = m_red()
    bad = m.replace(partitions={
        1: (frozenset({"w1"}),),  # misses w2
        2: m.partitions[2],
    }, beliefs={
        1: (m.beliefs[1][0],),
        2: m.beliefs[2],
    })
    assert "partition-cover" in validate_core(bad).kinds()


def _with_empty_cell():
    blob = structure_to_dict(m_red())
    blob["partitions"]["1"].append([])
    blob["beliefs"]["1"].append({"measure": {}})
    return loads_structure(json.dumps(blob))


def _with_cell(*cell):
    # Agent 1's second cell is ``cell``, point masses on its states.
    m = m_red()
    cell = frozenset(cell)
    masses = {s: Fraction(s == max(cell)) for s in cell}
    return m.replace(
        partitions={1: (m.partitions[1][0], cell), 2: m.partitions[2]},
        beliefs={1: (m.beliefs[1][0], singleton_cell(cell, masses)),
                 2: m.beliefs[2]})


def _with_p_of_1(*states):
    m = m_red()
    return m.replace(interpretations={
        1: {"p": frozenset(states)}, 2: m.interpretations[2]})


def _with_prior_of_2(prior):
    return m_red().replace(priors={1: {"w1": HALF, "w2": HALF}, 2: prior})


@pytest.mark.parametrize("build, entries", [
    (_with_empty_cell, [
        ("partition-empty-cell", "agent 1 has an empty cell",
         {"agent": 1, "cell": 2}),
        ("measure-sum", "agent 1 cell 2 masses sum to 0, not 1",
         {"agent": 1, "cell": 2, "total": "0"})]),
    # A cell naming an undeclared state is reported once: no state is
    # missed, so there is no "misses states []" entry.
    (lambda: _with_cell("w2", "x"), [
        ("partition-cover", "agent 1: cell mentions unknown states ['x']",
         {"agent": 1, "cell": 1})]),
    (lambda: _with_cell("x"), [
        ("partition-cover", "agent 1: cell mentions unknown states ['x']",
         {"agent": 1, "cell": 1}),
        ("partition-cover", "agent 1: partition misses states ['w2']",
         {"agent": 1, "states": ["w2"]})]),
    # The loader refuses unknown states first, so these go through
    # ``Structure``.
    (lambda: _with_p_of_1("w1", "x"), [
        ("interpretation-range", "agent 1 maps p to unknown states ['x']",
         {"agent": 1, "prop": "p"})]),
    (lambda: _with_prior_of_2({"w1": HALF, "x": HALF}), [
        ("prior-range", "agent 2 prior mentions unknown states",
         {"agent": 2})]),
], ids=["empty-cell", "unknown-state", "unknown-and-missed-states",
        "interpretation-range", "prior-range"])
def test_validate_core_reports_each_violation_with_its_context(build,
                                                                entries):
    got = [(v.kind, v.message, v.context)
           for v in validate_core(build()).entries]
    assert got == entries


def test_loader_refuses_a_structure_that_is_not_an_object():
    with pytest.raises(ModelFormatError) as exc:
        loads_structure("[]")
    assert str(exc.value) == "structure file must be a JSON object"


def test_validate_signals_fixtures():
    assert validate_signals(m_sig()).ok
    assert validate_signals(m_ai()).ok


def test_validate_signals_flags_broken_cross_reading():
    m = m_sig()
    broken = m.replace(interpretations={
        1: m.interpretations[1],
        2: {"p": m.interpretations[2]["p"], "s": frozenset({"w1", "w2"})},
    })
    report = validate_signals(broken)
    assert not report.ok
    assert "signal-partition" in report.kinds()


def test_validate_signals_flags_wrong_cell():
    m = m_sig()
    swapped = m.replace(signals={
        1: {"w1": fm.parse("!s"), "w2": fm.parse("s")},
        2: m.signals[2],
    })
    assert "signal-cell" in validate_signals(swapped).kinds()


def test_validate_signals_requires_signals():
    with pytest.raises(MissingSignals):
        validate_signals(m_red())


def test_validate_signals_rejects_probability_signal():
    m = m_sig()
    bad = m.replace(signals={
        1: {"w1": fm.parse("Pr1(s) >= 1"), "w2": fm.parse("!s")},
        2: m.signals[2],
    })
    assert "signal-not-propositional" in validate_signals(bad).kinds()


def test_validate_signals_rejects_undeclared_signal_prop():
    m = m_sig()
    with pytest.raises(UnknownProp, match="'s' not declared"):
        validate_signals(m.replace(props=("p",)))


def test_generate_priors_m_red():
    priors = generate_priors(m_red())
    uniform = {"w1": HALF, "w2": HALF}
    assert priors[1] == uniform  # two singleton cells, point masses
    assert priors[2] == uniform  # one cell, already uniform


def test_generate_priors_uniform_point_masses():
    cells = (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    m = Structure(
        n_agents=1, states=("a", "b", "c"), props=("p",),
        partitions={1: cells},
        beliefs={1: tuple(singleton_cell(c, {min(c): ONE}) for c in cells)},
        interpretations={1: {"p": frozenset({"a"})}},
    )
    priors = generate_priors(m)
    assert priors[1] == {s: Fraction(1, 3) for s in "abc"}


def test_generate_priors_reproduces_cell_measures():
    m = m_red()
    priors = generate_priors(m)
    for i in m.agents:
        for cell, cb in zip(m.partitions[i], m.beliefs[i]):
            cell_mass = sum(priors[i][s] for s in cell)
            assert cell_mass == Fraction(1, len(m.partitions[i]))
            for atom, mass in zip(cb.atoms, cb.masses):
                atom_mass = sum(priors[i][s] for s in atom)
                assert atom_mass / cell_mass == mass


def test_generate_priors_requires_core_validity():
    bad = m_red().replace(beliefs={
        1: m_red().beliefs[1],
        2: (singleton_cell({"w1", "w2"}, {"w1": HALF, "w2": HALF * HALF}),),
    })
    with pytest.raises(CoreInvalid):
        generate_priors(bad)


def test_propositional_extension():
    m = m_red()
    ev = Evaluator(m)
    ou = EvalMode.OUTERMOST
    assert ev.extension(1, fm.parse("p"), ou) == frozenset({"w1"})
    assert ev.extension(2, fm.parse("p"), ou) == frozenset({"w1", "w2"})
    assert ev.extension(1, fm.parse("p & !p"), ou) == frozenset()
    assert ev.extension(1, fm.parse("true"), ou) == m.universe


def test_reachable():
    m = m_red()
    assert reachable(m, {1, 2}, "w1") == frozenset({"w1", "w2"})
    assert reachable(m, {1}, "w1") == frozenset({"w1"})
    assert reachable(m, {2}, "w2") == frozenset({"w1", "w2"})
    with pytest.raises(UnknownAgent):
        reachable(m, {3}, "w1")
    with pytest.raises(ValueError, match="^group must be nonempty$"):
        reachable(m, set(), "w1")


@pytest.mark.parametrize("edit, message", [
    ({"n_agents": 0}, "need at least one agent"),
    ({"states": ("w1", "w2", "w1")}, "states must be nonempty and unique"),
    ({"props": ("p", "p")}, "propositions must be nonempty and unique"),
])
def test_structure_refuses_no_agents_or_repeated_names(edit, message):
    with pytest.raises(ModelFormatError, match="^%s$" % message):
        m_red().replace(**edit)


def test_reachable_monotone_and_idempotent():
    m = m_sig()
    small = reachable(m, {1}, "w1")
    big = reachable(m, {1, 2}, "w1")
    assert small <= big
    for s in big:
        assert reachable(m, {1, 2}, s) == big


def test_belief_edges_plain_modes():
    m = m_red()
    complete = {(a, b) for a in ("w1", "w2") for b in ("w1", "w2")}
    assert Evaluator(m).belief_edges(2, EvalMode.INNERMOST, 1) == complete
    assert Evaluator(m).belief_edges(1, EvalMode.OUTERMOST, 1) == {
        ("w1", "w1"), ("w2", "w2")}


def test_belief_edges_signal_modes():
    m = m_ai()
    assert Evaluator(m).belief_edges(1, EvalMode.OUTERMOST_AI, 2) == {
        ("a", "a"), ("b", "b")}
    complete = {(a, b) for a in ("a", "b") for b in ("a", "b")}
    assert Evaluator(m).belief_edges(1, EvalMode.INNERMOST_AI, 1) == complete


def test_belief_edges_undefined_conditional():
    m = m_ai()
    skewed = m.replace(priors={
        1: {"a": ONE, "b": Fraction(0)},
        2: {"a": ONE, "b": Fraction(0)},
    })
    # agent 2 reads agent 1's signal at b as {b}, which has prior mass 0
    with pytest.raises(UndefinedConditional):
        Evaluator(skewed).belief_edges(1, EvalMode.OUTERMOST_AI, 2)


def test_cell_constancy_of_edges():
    # within one cell all states share the same successor set
    for m in (m_red(), m_sig(), m_ai()):
        for mode in (EvalMode.INNERMOST, EvalMode.OUTERMOST):
            for j in m.agents:
                edges = Evaluator(m).belief_edges(j, mode, 1)
                succ = {}
                for a, b in edges:
                    succ.setdefault(a, set()).add(b)
                for cell in m.partitions[j]:
                    per_cell = {frozenset(succ.get(s, set())) for s in cell}
                    assert len(per_cell) == 1


def test_is_common_interpretation():
    m = m_red()
    assert not is_common_interpretation(m)
    shared = m.replace(interpretations={
        1: dict(m.interpretations[1]),
        2: dict(m.interpretations[1]),
    })
    assert is_common_interpretation(shared)


# --- serialization ---

def test_json_roundtrip_fixtures():
    for m in (m_red(), m_sig(), m_ai()):
        text = dumps_structure(m)
        again = loads_structure(text)
        assert structure_to_dict(again) == structure_to_dict(m)


def test_json_roundtrip_coarse_atoms():
    m = coarse_atom_structure(p_ext_1=frozenset({"w1", "w2"}))
    again = loads_structure(dumps_structure(m))
    assert structure_to_dict(again) == structure_to_dict(m)
    assert again.beliefs[1][0].atoms == (frozenset({"w1", "w2"}),)


def test_loader_rejects_floats():
    blob = structure_to_dict(m_red())
    text = dumps_structure(m_red()).replace('"1/2"', "0.5")
    assert "0.5" in text
    with pytest.raises(ModelFormatError):
        loads_structure(text)
    # also as a prior value
    blob["priors"] = {"1": {"w1": 0.5, "w2": "1/2"},
                      "2": {"w1": "1/2", "w2": "1/2"}}
    with pytest.raises(ModelFormatError):
        loads_structure(json.dumps(blob))


@pytest.mark.parametrize("signal", [
    3, ["s"], {"s": 1}, None, pytest.param("p &", id="syntax"),
    pytest.param("(" * 101 + "s" + ")" * 101, id="too-deep")])
def test_loader_rejects_non_string_signals(signal):
    # Formula text the parser refuses is a format error at its place too.
    blob = structure_to_dict(m_sig())
    blob["signals"]["1"]["w1"] = signal
    with pytest.raises(ModelFormatError, match=r"signals\[1\]\[w1\]"):
        loads_structure(json.dumps(blob))


def test_loader_names_a_signal_number_longer_than_int_reads():
    blob = structure_to_dict(m_ai())
    blob["signals"]["1"]["a"] = "7" * 5000
    with pytest.raises(ModelFormatError) as exc:
        loads_structure(json.dumps(blob))
    assert str(exc.value) == (
        "signals[1][a]: syntax error at offset 0: expected a number of at "
        "most 4300 digits, found '5000 digits'")


def test_loader_rejects_bad_json_and_unknown_names():
    with pytest.raises(ModelFormatError):
        loads_structure("{not json")
    blob = structure_to_dict(m_red())
    blob["partitions"]["1"] = [["w1"], ["nope"]]
    with pytest.raises(ModelFormatError):
        loads_structure(json.dumps(blob))


def test_loader_rejects_reserved_prop_names():
    blob = structure_to_dict(m_red())
    blob["props"] = ["B1"]
    blob["interpretations"] = {"1": {"B1": ["w1"]}, "2": {"B1": ["w1"]}}
    with pytest.raises(ModelFormatError):
        loads_structure(json.dumps(blob))


def test_structure_requires_aligned_cells():
    m = m_red()
    with pytest.raises(ModelFormatError):
        m.replace(beliefs={1: m.beliefs[1], 2: ()})


@pytest.mark.parametrize("method", ["cell_index", "cell_of", "cell_beliefs"])
@pytest.mark.parametrize("agent, state", [(1, "w9"), (3, "w1"), (0, "w1")])
def test_cell_lookups_refuse_an_unknown_state_or_agent(method, agent, state):
    with pytest.raises(UnknownState) as exc:
        getattr(m_red(), method)(agent, state)
    assert str(exc.value) == ("state %r not in any cell of agent %d"
                              % (state, agent))


def test_cell_indices_map_each_state_to_its_cell():
    m = m_ai()
    for i in m.agents:
        index = m.cell_indices(i)
        assert index == {s: m.cell_index(i, s) for s in m.states}
        assert all(s in m.partitions[i][ci] for s, ci in index.items())
    with pytest.raises(UnknownAgent):
        m.cell_indices(3)


# --- Rationals: the forms the writer uses are read with int, any other
# string through Fraction; values and messages are those of Fraction alone,
# but for a run of more digits than int reads, which is named by length.

def _with_w1_mass(raw):
    """m_red's JSON with agent 2's mass at w1 set to ``raw``."""
    blob = structure_to_dict(m_red())
    blob["beliefs"]["2"][0]["measure"]["w1"] = raw
    return json.dumps(blob)


@pytest.mark.parametrize("raw, value", [
    ("1/2", "1/2"), ("-3/6", "-1/2"), ("007/010", "7/10"), ("-0", "0"),
    ("+1/2", "1/2"), (" 1/2 ", "1/2"), ("0.5", "1/2"), ("1e3", "1000"),
    ("٣/4", "3/4"), (2, "2"),
])
def test_loader_reads_rationals(raw, value):
    m = loads_structure(_with_w1_mass(raw))
    mass = m.cell_beliefs(2, "w1").measure(frozenset({"w1"}))
    assert type(mass) is Fraction and mass == Fraction(value)


@pytest.mark.parametrize("raw, message", [
    ("1/0", "bad rational '1/0'"),
    ("1/-2", "bad rational '1/-2'"),
    ("", "bad rational ''"),
    ("1//2", "bad rational '1//2'"),
    ("7" * 5000, "rational of 5000 digits exceeds the 4300-digit limit"),
    # Up to 40 characters of any other refused string are echoed.
    ("x" * 40, "bad rational '%s'" % ("x" * 40)),
    ("x" * 100000, "bad rational '%s...' (100000 characters)" % ("x" * 40)),
    (True, 'floating point or boolean rejected, use "num/den" strings'),
    (False, 'floating point or boolean rejected, use "num/den" strings'),
    (None, "bad rational None"),
])
def test_loader_rejects_bad_rationals(raw, message):
    with pytest.raises(ModelFormatError) as exc:
        loads_structure(_with_w1_mass(raw))
    assert str(exc.value) == "beliefs[2][0]: " + message


def _cell_with_two_bad_masses(blob):
    blob["beliefs"]["2"][0]["measure"] = {"w1": "1/2/3", "w2": True}


def _cell_with_two_unknown_states(blob):
    blob["partitions"]["2"] = [["w1", "w2", "x", "y"]]


@pytest.mark.parametrize("edit, message", [
    (_cell_with_two_bad_masses, "beliefs[2][0]: bad rational '1/2/3'"),
    (_cell_with_two_unknown_states, "partitions[2]: unknown state 'x'"),
])
def test_loader_error_does_not_depend_on_the_hash_seed(edit, message):
    """The loader reads a cell in a fixed order, so the first fault it
    names is the same in every process, whatever its string hashes."""
    blob = structure_to_dict(m_red())
    edit(blob)
    script = ("import sys\n"
              "from ambilogic.structure import loads_structure\n"
              "try:\n"
              "    loads_structure(sys.stdin.read())\n"
              "except Exception as exc:\n"
              "    print(exc)\n")
    src = str(pathlib.Path(fm.__file__).resolve().parent.parent)
    seen = set()
    for seed in ("0", "2"):  # read in frozenset order, these two differed
        proc = subprocess.run(
            [sys.executable, "-c", script], input=json.dumps(blob),
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src})
        seen.add(proc.stdout.strip())
    assert seen == {message}


# --- Each block is read in one pass, in file order: of two faults in a
# block, the loader names the one that comes first.

@pytest.mark.parametrize("block, faults", [
    ("priors", [(("w1", "1/2/3"), "priors[1][w1]: bad rational '1/2/3'"),
                (("zz", "1/2"), "priors[1]: unknown state 'zz'")]),
    ("signals", [(("w1", 3), "signals[1][w1]: expected formula text, got 3"),
                 (("zz", "s"), "signals[1]: unknown state 'zz'")]),
    ("interpretations", [
        (("p", "w1"), "interpretations[1][p]: expected a JSON array"),
        (("s", ["w1", "zz"]), "interpretations[1][s]: unknown state 'zz'")]),
], ids=["priors", "signals", "interpretations"])
@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["as-is", "swapped"])
def test_loader_names_the_first_fault_of_a_block(block, faults, order):
    blob = structure_to_dict(m_sig())
    named = {}
    for k in order:
        key, value = faults[k][0]
        named[key] = value
    blob[block]["1"] = {**named, **{k: v for k, v in blob[block]["1"].items()
                                    if k not in named}}
    with pytest.raises(ModelFormatError) as exc:
        loads_structure(json.dumps(blob))
    assert str(exc.value) == faults[order[0]][1]


_BAD_MASS = "beliefs[1][%d]: bad rational '1/2/3'"
_OUTSIDE = "beliefs[1][%d]: measure names states outside the cell: ['zz']"


@pytest.mark.parametrize("cells, message", [
    ([{"w1": "1/2/3"}, {"w2": "1", "zz": "0"}], _BAD_MASS % 0),
    ([{"w1": "1", "zz": "0"}, {"w2": "1/2/3"}], _OUTSIDE % 0),
    # Within a cell the masses are read in the order of its states, and
    # then its keys are checked: a bad mass is named either way round.
    ([{"w1": "1"}, {"w2": "1/2/3", "zz": "0"}], _BAD_MASS % 1),
    ([{"w1": "1"}, {"zz": "0", "w2": "1/2/3"}], _BAD_MASS % 1),
], ids=["bad-mass-first", "outside-first", "in-cell", "in-cell-swapped"])
def test_loader_names_the_first_fault_of_point_mass_cells(cells, message):
    blob = structure_to_dict(m_sig())  # agent 1's cells are {w1} and {w2}
    blob["beliefs"]["1"] = [{"measure": measure} for measure in cells]
    with pytest.raises(ModelFormatError) as exc:
        loads_structure(json.dumps(blob))
    assert str(exc.value) == message


def _coarsened(m, rng):
    """``m`` with one random agent's first cell given the trivial algebra."""
    i = rng.choice(list(m.agents))
    cell = m.partitions[i][0]
    beliefs = dict(m.beliefs)
    beliefs[i] = (CellBeliefs(cell, (cell,), (ONE,)),) + m.beliefs[i][1:]
    return m.replace(beliefs=beliefs)


def test_json_roundtrip_of_generated_structures():
    """Priors, signals (plain and cross-read) and coarse atoms read back
    to equal cells, priors and signals, with the same point masses."""
    rng = random.Random(14)
    bounds = GenBounds(max_states=6, max_agents=3, max_props=3)
    for k in range(60):
        m = random_signal_structure(rng, bounds, cross=k % 2 == 1)
        if k % 3 == 0:
            m = _coarsened(m, rng)
        again = loads_structure(dumps_structure(m))
        assert structure_to_dict(again) == structure_to_dict(m)
        assert again.states == m.states and again.props == m.props
        assert again.partitions == m.partitions
        assert again.interpretations == m.interpretations
        assert again.priors == m.priors
        assert again.signals == m.signals
        for i in m.agents:
            assert again.beliefs[i] == m.beliefs[i]
            for cb, want in zip(again.beliefs[i], m.beliefs[i]):
                assert cb.support() == want.support()
                assert cb._points == want._points


def test_loader_rejects_json_floats_by_name():
    with pytest.raises(ModelFormatError) as exc:
        loads_structure(_with_w1_mass("1/2").replace('"1/2"', "0.5", 1))
    assert str(exc.value) == "floating point rejected: 0.5"


# --- Agent keys are "1".."n", no object names a member twice, and a
# measure names only what its cell has.

def _moved(block, old, new, text=True):
    def make(blob):
        blob[block][new] = blob[block].pop(old)
        return json.dumps(blob) if text else blob
    return make


def _added(block, key, value):
    def make(blob):
        blob[block][key] = value
        return json.dumps(blob)
    return make


def _repeated(path, key, value):
    """The object at ``path`` given ``key`` a second time, with ``value``."""
    def make(blob):
        obj = blob
        for k in path:
            obj = obj[k]
        obj["__again__"] = value
        return json.dumps(blob).replace('"__again__"', json.dumps(key))
    return make


def _atoms_with_extra_keys(blob):
    blob["beliefs"]["2"][0] = {"atoms": [["w1", "w2"]],
                               "measure": {"0": "1", "1": "1/2", "w1": "7"}}
    return json.dumps(blob)


@pytest.mark.parametrize("make, message", [
    (_moved("partitions", "1", "01"), "partitions: bad agent key '01'"),
    (_moved("partitions", "1", " 1"), "partitions: bad agent key ' 1'"),
    (_moved("partitions", "1", "0"), "partitions: bad agent key '0'"),
    (_added("partitions", "3", [["w1", "w2"]]),
     "partitions: bad agent key '3'"),
    (_moved("priors", "1", "01"), "priors: bad agent key '01'"),
    (_moved("signals", "2", " 1"), "signals: bad agent key ' 1'"),
    (_moved("priors", "2", "0"), "priors: bad agent key '0'"),
    (_added("signals", "3", {"w1": "s", "w2": "!s"}),
     "signals: bad agent key '3'"),
    (_added("partitions", "01", [["w1", "w2"]]),
     "partitions: bad agent key '01'"),
    (_repeated(["partitions"], "1", [["w1", "w2"]]), "duplicate key '1'"),
    (_repeated(["beliefs", "2", 0, "measure"], "w1", "1/2"),
     "duplicate key 'w1'"),
    (_repeated([], "agents", 3), "duplicate key 'agents'"),
    (_atoms_with_extra_keys,
     "beliefs[2][0]: measure names atoms outside the cell: ['1', 'w1']"),
    (_moved("partitions", "1", 1, text=False), "partitions: bad agent key 1"),
], ids=["01", "space-1", "0", "3-of-2", "prior-01", "signal-space-1",
        "prior-0", "signal-3-of-2", "1-and-01", "repeated-partition",
        "repeated-mass", "repeated-agents", "atoms-extra-keys", "int-key"])
def test_loader_refuses_bad_keys(make, message):
    source = make(structure_to_dict(m_sig()))
    with pytest.raises(ModelFormatError) as exc:
        if isinstance(source, str):
            loads_structure(source)
        else:
            structure_from_dict(source)
    assert str(exc.value) == message


_JUNK = [5, 0, -1, 3, "2", "x", "w1", "a", "01", " 1", "1/2", "!s", True,
         None, [], {}, ["w1"], [["w1"]], [2], {"w1": "1"}, {"0": "1"}]
_NAMES = ["0", "1", "3", "01", " 1", "w1", "w9", "p", "atoms", "measure"]


def _mutate(rng, blob):
    """Replace or delete a random member of ``blob``, or add, rename or
    repeat (as ``__again__``) a member of a random object in it."""
    nodes = [((), blob)]
    for path, node in nodes:
        members = (node.items() if isinstance(node, dict)
                   else enumerate(node) if isinstance(node, list) else ())
        nodes.extend((path + (k,), v) for k, v in members)
    path, node = rng.choice(nodes)
    parent = blob
    for k in path[:-1]:
        parent = parent[k]
    op = rng.randrange(5)
    if isinstance(node, dict) and node and op >= 2:
        key = rng.choice(sorted(node))
        if op == 2:
            node[rng.choice(_NAMES)] = copy.deepcopy(rng.choice(_JUNK))
        elif op == 3:
            node[rng.choice(_NAMES)] = node.pop(key)
        else:
            node["__again__" + key] = copy.deepcopy(node[key])
    elif path and op == 0:
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = copy.deepcopy(rng.choice(_JUNK))


def test_loader_refuses_mutated_models_only_with_format_errors():
    """Never an internal error: each of 360 seeded edits of the demo
    models loads, or raises ModelFormatError, a signal text that does not
    parse included."""
    rng = random.Random(12)
    bases = [json.loads((MODELS / name).read_text(encoding="utf-8"))
             for name in ("m_red.json", "m_sig.json", "m_ai.json")]
    refused = 0
    for _ in range(360):
        blob = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            _mutate(rng, blob)
        try:
            loads_structure(json.dumps(blob).replace('"__again__', '"'))
        except ModelFormatError:
            refused += 1
    assert refused > 180


@pytest.mark.parametrize("text, message", [
    ("[" * 100_000, "bad JSON: nested too deeply"),
    ('{"agents": %s}' % ("1" * 4301),
     "bad JSON: an integer has too many digits"),
], ids=["nested", "long-integer"])
def test_loader_refuses_json_python_cannot_read(text, message):
    with pytest.raises(ModelFormatError) as exc:
        loads_structure(text)
    assert str(exc.value) == message


def test_loader_refuses_interpretation_of_undeclared_prop():
    blob = structure_to_dict(m_red())
    blob["interpretations"]["1"]["q"] = ["w1"]
    with pytest.raises(ModelFormatError) as exc:
        structure_from_dict(blob)
    assert str(exc.value) == "interpretations[1]: unknown proposition 'q'"
    blob["props"] = ["p", 5]  # a malformed props block is named first
    with pytest.raises(ModelFormatError) as exc:
        structure_from_dict(blob)
    assert str(exc.value) == "props: expected a JSON string"


def test_agent_coverage_check_does_not_grow_with_agents():
    blob = structure_to_dict(m_red())
    blob["agents"] = 10 ** 6
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError) as exc:
            structure_from_dict(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == ("partitions must cover agents 1..1000000 "
                              "exactly")
    assert peak < 1_000_000, peak


# --- Reports keep their entries, contexts and order ---

def _entries(report):
    return [(v.kind, v.message, v.context) for v in report.entries]


def _red_with_atoms(agent, atoms, measure):
    blob = structure_to_dict(m_red())
    blob["beliefs"][agent][0] = {"atoms": atoms, "measure": measure}
    return loads_structure(json.dumps(blob))


# A coarse atom of agent 2's cell cuts each of agent 1's cells.
_CUTS = [("cell-measurability",
          "agent 2 cell 0 cannot measure agent 1's cell %d" % c,
          {"agent": 2, "cell": 0, "other_agent": 1, "other_cell": c})
         for c in (0, 1)]


@pytest.mark.parametrize("agent, atoms, measure, also", [
    ("2", [["w1"], ["w1"], ["w2"]], {"0": "1/2", "1": "0", "2": "1/2"}, []),
    ("1", [["w1"], ["w2"]], {"0": "1", "1": "0"}, []),  # w2 is outside
    ("2", [["w1"]], {"0": "1"}, []),  # w2 is missing
    ("2", [[], ["w1"], ["w2"]], {"0": "0", "1": "1/2", "2": "1/2"}, []),
    ("2", [["w1", "w2"], ["w2"]], {"0": "1/2", "1": "1/2"}, _CUTS),
], ids=["duplicate", "outside", "missing", "empty", "overlapping"])
def test_point_mass_cell_that_is_no_partition(agent, atoms, measure, also):
    m = _red_with_atoms(agent, atoms, measure)
    i = int(agent)
    point = all(len(atom) == 1 for atom in atoms)  # all but empty, overlapping
    assert m.beliefs[i][0]._points == point
    assert _entries(validate_core(m)) == [
        ("cell-sample-space",
         "agent %d cell 0: atoms do not partition the cell" % i,
         {"agent": i, "cell": 0})] + also


SIX = ["w1", "w2", "w3", "w4", "w5", "w6"]


def _six(reading_1, reading_2, sends_a=SIX[:3], other="!a"):
    """Agent 1 tells w1-w3 from w4-w6 and sends a at ``sends_a``, ``other``
    elsewhere; agent 2 tells nothing.  Agent i reads a as ``reading_i``;
    agent 1 reads b as w4-w6, agent 2 as w3-w6."""
    return loads_structure(json.dumps({
        "agents": 2, "states": SIX, "props": ["a", "b"],
        "partitions": {"1": [SIX[:3], SIX[3:]], "2": [SIX]},
        "beliefs": {"1": [{"measure": {s: "1/3" for s in SIX[:3]}},
                          {"measure": {s: "1/3" for s in SIX[3:]}}],
                    "2": [{"measure": {s: "1/6" for s in SIX}}]},
        "interpretations": {"1": {"a": reading_1, "b": SIX[3:]},
                            "2": {"a": reading_2, "b": SIX[2:]}},
        "priors": {i: {s: "1/6" for s in SIX} for i in ("1", "2")},
        "signals": {"1": {s: "a" if s in sends_a else other for s in SIX},
                    "2": {s: "a | !a" for s in SIX}},
    }))


def test_signal_reports_of_six_state_groups():
    assert validate_signals(_six(SIX[:3], SIX[:3])).ok
    # The middle state of a's group lies outside agent 2's reading of a.
    assert _entries(validate_signals(_six(SIX[:3], ["w1", "w3"]))) == [
        ("signal-membership",
         "state w2 lies outside agent 2's reading of agent 1's signal there",
         {"owner": 1, "reader": 2, "state": "w2"})]
    # Agent 1 reads its own a as {w1, w2}, which is not its cell.
    assert _entries(validate_signals(_six(["w1", "w2"], SIX[:3]))) == [
        ("signal-cell", "agent 1's signal at %s denotes {w1, w2}, not his "
         "cell {w1, w2, w3}" % s, {"agent": 1, "state": s,
                                   "extension": ["w1", "w2"]})
        for s in SIX[:3]
    ] + [
        ("signal-cell", "agent 1's signal at %s denotes {w3, w4, w5, w6}, "
         "not his cell {w4, w5, w6}" % s,
         {"agent": 1, "state": s, "extension": ["w3", "w4", "w5", "w6"]})
        for s in SIX[3:]
    ] + [
        ("signal-membership",
         "state w3 lies outside agent 1's reading of agent 1's signal there",
         {"owner": 1, "reader": 1, "state": "w3"})]
    # Agent 1 sends a at w4 too, where a is not his cell.
    assert _entries(validate_signals(_six(SIX[:3], SIX[:3], SIX[:4]))) == [
        ("signal-cell", "agent 1's signal at w4 denotes {w1, w2, w3}, not "
         "his cell {w4, w5, w6}",
         {"agent": 1, "state": "w4", "extension": ["w1", "w2", "w3"]})
    ] + [
        ("signal-membership",
         "state w4 lies outside agent %d's reading of agent 1's signal "
         "there" % j, {"owner": 1, "reader": j, "state": "w4"})
        for j in (1, 2)]
    # Agent 2 reads a as empty: a's states lie outside it, and the empty
    # block fails the partition.
    assert _entries(validate_signals(_six(SIX[:3], []))) == [
        ("signal-membership",
         "state %s lies outside agent 2's reading of agent 1's signal there"
         % s, {"owner": 1, "reader": 2, "state": s}) for s in SIX[:3]
    ] + [
        ("signal-partition", "agent 2's readings of agent 1's signals do not "
         "partition the state space",
         {"owner": 1, "reader": 2, "blocks": [[], SIX]})]
    # Agent 1 sends b at w4-w6, which agent 2 reads as overlapping a at w3.
    assert _entries(validate_signals(_six(SIX[:3], SIX[:3], other="b"))) == [
        ("signal-partition", "agent 2's readings of agent 1's signals do not "
         "partition the state space",
         {"owner": 1, "reader": 2, "blocks": [SIX[:3], SIX[2:]]})]
