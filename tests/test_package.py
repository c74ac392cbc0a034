import ast
import doctest
import gc
import importlib
import json
import os
import pathlib
import pkgutil
import random
import re
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest

import ambilogic
from ambilogic import campaign, transforms, translation
from ambilogic import formula as fm
from ambilogic.campaign import (Campaign, CampaignReport, CheckResult,
                                run_campaign)
from ambilogic.generators import GenBounds, formula_corpus, random_structure
from ambilogic.modes import EvalMode
from ambilogic.reporting import Report, Violation
from ambilogic.semantics import Evaluator
from ambilogic.structure import (CellBeliefs, generate_priors,
                                 structure_from_dict)
from ambilogic.transforms import TransformClaim, label_partitions

from demo_models import m_red

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    modules = [ambilogic] + [
        importlib.import_module("ambilogic." + info.name)
        for info in pkgutil.iter_modules(ambilogic.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_readme_library_use_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_import_loads_no_dataclasses_or_inspect():
    """A fresh ``import ambilogic.cli`` leaves out ``dataclasses`` and
    ``inspect``, and ``import ambilogic`` loads its modules as it did when
    the value classes were dataclasses."""
    script = ("import json, sys\n"
              "import ambilogic\n"
              "own = sorted(m for m in sys.modules\n"
              "             if m.split('.')[0] == 'ambilogic')\n"
              "import ambilogic.cli\n"
              "print(json.dumps([own, sorted({'dataclasses', 'inspect'}\n"
              "                               & set(sys.modules))]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    own, stdlib = json.loads(proc.stdout)
    assert own == ["ambilogic"] + ["ambilogic." + name for name in (
        "errors", "formula", "modes", "reporting", "semantics", "structure",
        "transforms", "translation")]
    assert stdlib == []


@pytest.mark.parametrize("value, field", [
    (fm.parse("CB{1,2} (p -> Pr1(q) >= 1/2)"), "arg"),
    (fm.ProbTerm(Fraction(1, 2), 1, fm.Prop("p")), "coeff"),
    (fm.TrueF(), "name"),
    (CellBeliefs(frozenset({"w"}), (frozenset({"w"}),), (Fraction(1),)),
     "masses"),
    (m_red(), "priors"),
    (GenBounds(), "max_states"),
    (TransformClaim("fix-interpretation", 1), "agent"),
    (Violation("measure-sum", "cell sums to 2"), "context"),
    (Report(), "entries"),
    (CheckResult("prop1"), "failures"),
    (CampaignReport(Campaign()), "results"),
])
def test_value_classes_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_report_and_campaign_records_print_their_fields():
    violation = Violation("measure-sum", "cell sums to 2", {"agent": 1})
    result = CheckResult("prop1", 2, 1, {"trial": 0}, 0.25)
    shown = ("Violation(kind='measure-sum', message='cell sums to 2', "
             "context={'agent': 1})")
    assert repr(violation) == shown
    assert repr(Report([violation])) == "Report(entries=[%s])" % shown
    shown = ("CheckResult(name='prop1', trials=2, failures=1, "
             "first_counterexample={'trial': 0}, elapsed_s=0.25)")
    assert repr(result) == shown
    assert repr(CampaignReport(Campaign(seed=1, trials=2, checks=("prop1",)),
                               {"prop1": result})) == (
        "CampaignReport(campaign=Campaign(seed=1, trials=2, bounds="
        "GenBounds(max_states=5, max_agents=3, max_props=3, max_depth=4), "
        "checks=('prop1',), naive_cb=False), results={'prop1': %s})" % shown)


def test_equal_formulas_built_apart_are_equal_and_hash_equal():
    text = "E{1,2}^2 (p & !q@2) | 2*Pr1(r) + Pr1(true) >= 1/3 <-> B2 false"
    first, second = fm.parse(text), fm.parse(text)
    assert first is second  # nodes are interned
    assert first == second and hash(first) == hash(second)
    assert fm.expand(first) == fm.expand(second)
    assert hash(fm.expand(first)) == hash(fm.expand(second))
    assert fm.parse(text) is fm.parse(text)
    assert fm.expand(fm.parse(text)) is fm.expand(fm.parse(text))
    # The constructors normalise their fields before interning.
    p = fm.Prop("p")
    assert fm.ProbTerm(1, 1, p) is fm.ProbTerm(Fraction(1), 1, p)
    assert fm.CB([2, 1], p) is fm.CB(frozenset({1, 2}), p)
    assert fm.Prop("p") != fm.IndexedProp("p", 1)
    assert fm.parse("p & q") != fm.parse("p | q")
    assert repr(fm.parse("Pr1(p) >= 1/2")) == (
        "ProbGe(terms=(ProbTerm(coeff=Fraction(1, 1), agent=1, "
        "arg=Prop(name='p')),), bound=Fraction(1, 2))")


def test_interned_formula_is_freed_when_unused():
    f = fm.parse("Pr1(freed_when_unused & q) >= 1/2")
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_dropped_formula_is_interned_again_when_rebuilt():
    text = "Pr1(rebuilt_after_drop & q) >= 1/3"
    before = len(fm._nodes)
    f = fm.parse(text)
    assert len(fm._nodes) > before
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None and len(fm._nodes) == before  # entries removed
    again = fm.parse(text)
    assert again is fm.parse(text)
    assert fm.expand(again) is fm.expand(fm.parse(text))


def test_node_table_does_not_grow_across_campaign_trials():
    run_campaign(Campaign(seed=3, trials=2))
    gc.collect()
    before = len(fm._nodes)
    run_campaign(Campaign(seed=4, trials=20))
    gc.collect()
    assert len(fm._nodes) <= before


def _check_output(hash_seed, *extra):
    proc = subprocess.run(
        [sys.executable, "-m", "ambilogic.cli", "check", "--seed", "42",
         "--trials", "60", *extra], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONHASHSEED": hash_seed})
    return proc.returncode, re.sub(r'"elapsed_s": [^,}\n]*', '"elapsed_s"',
                                   proc.stdout)


@pytest.mark.parametrize("extra, status, golden", [
    ((), 0, "check-seed42-trials60.txt"),
    (("--naive-cb",), 1, "check-seed42-trials60-naive-cb.txt"),
])
def test_check_output_is_unchanged(extra, status, golden):
    """``check`` prints the committed report byte for byte, timings aside,
    a failing campaign's counterexamples included."""
    expected = (ROOT / "tests" / "golden" / golden).read_text(encoding="utf-8")
    assert _check_output("0", *extra) == (status, expected)


def test_check_output_does_not_depend_on_the_hash_seed():
    """Modes and formula nodes hash by identity and strings by the hash
    seed; none of them may reach the output, a failing campaign's
    counterexamples included."""
    for extra, status in (((), 0), (("--naive-cb",), 1)):
        first = _check_output("0", *extra)
        assert first[0] == status
        assert _check_output("1", *extra) == first


def _modes_agree_per_state(m, corpus, modes):
    """Reference: the first (formula, state, agent) whose modes split."""
    ev = Evaluator(m)
    for f in corpus:
        for s in m.states:
            for i in m.agents:
                values = {mode.value: ev.evaluate(s, i, f, mode)
                          for mode in modes}
                if len(set(values.values())) != 1:
                    text = fm.print_formula(f)
                    return Report([Violation(
                        "mode-disagreement",
                        "modes split on %s at (%s, %d)" % (text, s, i),
                        {"state": s, "agent": i, "formula": text,
                         "values": values})])
    return Report()


@pytest.mark.parametrize("common, modes", [
    (False, (EvalMode.OUTERMOST, EvalMode.INNERMOST)),
    (False, (EvalMode.INNERMOST, EvalMode.OUTERMOST)),
    (True, (EvalMode.COMMON, EvalMode.OUTERMOST, EvalMode.INNERMOST)),
])
def test_modes_agree_finds_what_a_per_state_check_finds(common, modes):
    rng = random.Random(1616)
    split = 0
    for _ in range(60):
        m = random_structure(rng, GenBounds(max_depth=3), common=common)
        corpus = formula_corpus(rng, m, 4, 3)
        got = campaign._modes_agree(m, corpus, modes)
        assert got == _modes_agree_per_state(m, corpus, modes)
        split += not got.ok
    assert split >= 10 if not common else split == 0


def _complementing(method, mode=None):
    """An ``Evaluator`` whose ``method`` answers the complement of the
    right set of states: in ``mode`` only, if one is given."""
    def wrong(self, *args):
        right = getattr(Evaluator, method)(self, *args)
        if mode not in (None, args[-1]):
            return right
        return self.m.universe - right

    return type("Complementing", (Evaluator,), {method: wrong})


def _drop_agent_1_cells(m, state):
    labelled, table = label_partitions(m, state)
    return labelled.replace(partitions={**labelled.partitions, 1: ()},
                            beliefs={**labelled.beliefs, 1: ()}), table


def _doubled_priors(m):
    return {i: {s: 2 * mass for s, mass in nu.items()}
            for i, nu in generate_priors(m).items()}


def _point_priors(m):
    return {i: {s: Fraction(s == m.states[0]) for s in m.states}
            for i in m.agents}


def _skewed_priors(m):
    return {i: {"w1": Fraction(1, 3), "w2": Fraction(2, 3)}
            for i in m.agents}


# Per check: what breaks it, and the kind of violation it then reports.
_BROKEN = {
    "thm1-ab": (transforms, "Evaluator",
                _complementing("extension", EvalMode.COMMON),
                "transform-mismatch"),
    "thm1-ac": (transforms, "Evaluator",
                _complementing("extension", EvalMode.COMMON),
                "transform-mismatch"),
    "thm1-da": (campaign, "label_partitions", _drop_agent_1_cells,
                "partition-cover"),
    "thm2-in": (translation, "Evaluator",
                _complementing("extension", EvalMode.COMMON),
                "translation-mismatch"),
    "thm2-ou": (translation, "Evaluator",
                _complementing("extension", EvalMode.COMMON),
                "translation-mismatch"),
    "prop1": (campaign, "generate_priors", _doubled_priors, "prior-sum"),
    "mode-agreement": (campaign, "Evaluator",
                       _complementing("extension", EvalMode.INNERMOST),
                       "mode-disagreement"),
    "inai-eq-in": (campaign, "Evaluator",
                   _complementing("extension", EvalMode.INNERMOST_AI),
                   "mode-disagreement"),
    "cb-oracle": (campaign, "Evaluator",
                  _complementing("common_belief_set"), "cb-mismatch"),
}


@pytest.mark.parametrize("name", campaign.CHECK_NAMES)
def test_every_check_records_a_failure_in_one_format(name, monkeypatch):
    """Each check, broken, fails every trial, and its first counterexample
    is the drawn structure, the first violation and the trial index."""
    module, attribute, broken, kind = _BROKEN[name]
    monkeypatch.setattr(module, attribute, broken)
    result = run_campaign(Campaign(seed=5, trials=3,
                                   checks=(name,))).results[name]
    assert result.failures == 3
    counterexample = result.first_counterexample
    assert sorted(counterexample) == ["mismatch", "structure", "trial"]
    assert counterexample["trial"] == 0
    assert sorted(counterexample["mismatch"]) == ["context", "kind",
                                                  "message"]
    assert counterexample["mismatch"]["kind"] == kind
    structure_from_dict(counterexample["structure"])
    assert json.loads(json.dumps(counterexample)) == counterexample


@pytest.mark.parametrize("priors, kind, context", [
    (_doubled_priors, "prior-sum", {"agent": 1, "total": "2"}),
    (_point_priors, "prior-cell-mass", {"agent": 1, "cell": ["w2"]}),
    (_skewed_priors, "prior-conditional", {"agent": 2, "atom": ["w1"]}),
])
def test_prop1_names_each_way_a_prior_can_fail(priors, kind, context,
                                               monkeypatch):
    """On m_red, the first violation names the agent and the total, cell
    or atom at fault."""
    monkeypatch.setattr(campaign, "random_structure", lambda *_: m_red())
    monkeypatch.setattr(campaign, "generate_priors", priors)
    result = run_campaign(Campaign(trials=1, checks=("prop1",)))
    mismatch = result.results["prop1"].first_counterexample["mismatch"]
    assert (mismatch["kind"], mismatch["context"]) == (kind, context)


def test_gen_bounds_round_trip_through_vars():
    bounds = GenBounds(max_states=9, max_depth=2)
    assert vars(bounds) == {"max_states": 9, "max_agents": 3,
                            "max_props": 3, "max_depth": 2}
    assert GenBounds(**vars(bounds)) == bounds
    assert GenBounds(**vars(GenBounds())) == GenBounds()


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    """No module of the package imports a ``_``-prefixed name, or reads
    one through a module it imported; dunder names are not private."""
    found = []
    for path in sorted((ROOT / "src" / "ambilogic").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()  # the names this module binds to modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((alias.asname or alias.name).split(".")[0]
                               for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found += [(path.name, node.lineno, alias.name)
                          for alias in node.names if _private(alias.name)]
                if node.module is None:  # ``from . import formula as fm``
                    modules.update(alias.asname or alias.name
                                   for alias in node.names)
        found += [(path.name, node.lineno, node.value.id + "." + node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert found == []
