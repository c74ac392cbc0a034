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
from ambilogic import campaign
from ambilogic import formula as fm
from ambilogic.campaign import (Campaign, CampaignReport, CheckResult,
                                run_campaign)
from ambilogic.generators import GenBounds, formula_corpus, random_structure
from ambilogic.modes import EvalMode
from ambilogic.reporting import Report, Violation
from ambilogic.semantics import Evaluator
from ambilogic.structure import CellBeliefs
from ambilogic.transforms import TransformClaim

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
                    return False, campaign._counterexample(m, None, {
                        "query": {"state": s, "agent": i,
                                  "formula": fm.print_formula(f)},
                        "values": values})
    return True, None


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
        split += not got[0]
    assert split >= 10 if not common else split == 0


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
