import json

import pytest

from ambilogic import cli, semantics
from ambilogic import formula as fm
from ambilogic.campaign import Campaign
from ambilogic.cli import main
from ambilogic.modes import EvalMode
from ambilogic.structure import (dump_structure, load_structure,
                                 loads_structure, reachable, validate_core)

from demo_models import MODELS, m_sig

AI_MODEL = str(MODELS / "m_ai.json")


@pytest.fixture
def red_path():
    return str(MODELS / "m_red.json")


@pytest.fixture
def ai_path():
    return AI_MODEL


def _ai_model_without(tmp_path, block, agent):
    with open(AI_MODEL, encoding="utf-8") as fh:
        data = json.load(fh)
    del data[block][agent]
    path = tmp_path / ("no_%s_%s.json" % (block, agent))
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_validate_ok(red_path, capsys):
    assert main(["validate", "--model", red_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_validate_reports_signal_violation(tmp_path, capsys):
    m = m_sig()
    broken = m.replace(interpretations={
        1: m.interpretations[1],
        2: {"p": m.interpretations[2]["p"], "s": frozenset({"w1", "w2"})},
    })
    path = tmp_path / "broken.json"
    dump_structure(broken, path)
    assert main(["validate", "--model", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    kinds = {v["kind"] for v in out["violations"]}
    assert "signal-partition" in kinds


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert main(["validate", "--model", str(tmp_path / "none.json")]) == 2


def test_eval_with_value(red_path, capsys):
    code = main(["eval", "--model", red_path, "--formula", "Pr2(p) >= 1/2",
                 "--state", "w1", "--agent", "1", "--mode", "ou",
                 "--show-value"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "true"
    assert out[1] == "value = 1/2"


def test_eval_equality_value(red_path, capsys):
    main(["eval", "--model", red_path, "--formula", "Pr2(p) = 1/2",
          "--state", "w1", "--agent", "1", "--mode", "ou", "--show-value"])
    out = capsys.readouterr().out.splitlines()
    assert out == ["true", "value = 1/2"]


@pytest.mark.parametrize("extra, line", [
    ((), '{"result": true, "value": null}'),
    (("--show-value",), '{"result": true, "value": "1/2"}'),
])
def test_eval_json(extra, line, red_path, capsys):
    code = main(["eval", "--model", red_path, "--formula", "Pr2(p) >= 1/2",
                 "--state", "w1", "--agent", "1", "--mode", "ou", "--json",
                 *extra])
    assert code == 0
    assert capsys.readouterr().out == line + "\n"


def test_eval_signal_mode(ai_path, capsys):
    code = main(["eval", "--model", ai_path, "--formula", "Pr1(p) >= 1",
                 "--state", "a", "--agent", "2", "--mode", "ou-ai"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "true"
    main(["eval", "--model", ai_path, "--formula", "Pr1(p) >= 1",
          "--state", "a", "--agent", "2", "--mode", "in-ai"])
    assert capsys.readouterr().out.strip() == "false"


@pytest.mark.parametrize("formula, mode, expected", [
    ("Pr1(p) = 1/2", "in-ai", ["true", "value = 1/2"]),
    ("Pr1(p) >= 1", "ou-ai", ["true", "value = 1"]),
    ("Pr1(p) < 1/2", "ou-ai", ["false", "value = 1"]),
])
def test_eval_signal_mode_value(formula, mode, expected, capsys):
    code = main(["eval", "--model", AI_MODEL, "--formula", formula,
                 "--state", "a", "--agent", "2", "--mode", mode,
                 "--show-value"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_eval_trivial_true(red_path, capsys):
    assert main(["eval", "--model", red_path, "--formula", "true",
                 "--state", "w2", "--agent", "2", "--mode", "in"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_undefined_conditional_exits_2(tmp_path, capsys):
    from fractions import Fraction
    skewed = m_sig().replace(priors={
        1: {"w1": Fraction(1), "w2": Fraction(0)},
        2: {"w1": Fraction(1), "w2": Fraction(0)},
    })
    path = tmp_path / "skewed.json"
    dump_structure(skewed, path)
    code = main(["eval", "--model", str(path), "--formula", "Pr1(p) >= 1",
                 "--state", "w2", "--agent", "1", "--mode", "in-ai"])
    assert code == 2
    assert "prior mass 0" in capsys.readouterr().err


@pytest.mark.parametrize("formula", ["B1 p", "CB{1} p"])
def test_eval_not_measurable_exits_2(formula, tmp_path, capsys):
    from test_structure import coarse_atom_structure
    path = tmp_path / "coarse.json"
    dump_structure(coarse_atom_structure(frozenset({"w1", "w2"})), path)
    code = main(["eval", "--model", str(path), "--formula", formula,
                 "--state", "w1", "--agent", "2", "--mode", "ou"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "cuts across atom" in err


@pytest.mark.parametrize("negations, expected", [(3000, "true"),
                                                 (3001, "false")])
def test_eval_deep_negation_answers(negations, expected, red_path, capsys):
    code = main(["eval", "--model", red_path, "--formula",
                 "!" * negations + "p", "--state", "w1", "--agent", "1",
                 "--mode", "in"])
    assert code == 0
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize("argv", [
    ["eval", "--formula", "B1 " * 3000 + "p"],
    ["eval", "--formula", "(" * 3000 + "p" + ")" * 3000],
    ["translate", "--formula", "!" * 3000 + "p"],
])
def test_too_deep_formula_exits_2(argv, red_path, capsys):
    if argv[0] == "eval":
        argv += ["--model", red_path, "--state", "w1", "--agent", "1",
                 "--mode", "ou"]
    else:
        argv += ["--agent", "1", "--mode", "in"]
    assert main(argv) == 2
    assert "nest" in capsys.readouterr().err


def _long_mass(data):
    data["beliefs"]["2"][0]["measure"]["w1"] = "x" * 100000


@pytest.mark.parametrize("argv, edit", [
    (["eval", "--formula", "Pr2(p) >= " + "5" * 5000, "--state", "w1",
      "--agent", "1", "--mode", "ou"], None),
    (["validate"], _long_mass),
], ids=["long-number", "long-rational"])
def test_long_input_is_refused_in_one_short_line(argv, edit, red_path,
                                                 tmp_path, capsys):
    if edit is not None:
        with open(red_path, encoding="utf-8") as fh:
            data = json.load(fh)
        edit(data)
        red_path = tmp_path / "edited.json"
        red_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(argv + ["--model", str(red_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, err[:300]


_RED = str(MODELS / "m_red.json")


# Each call declares only its command's arguments; what it prints and
# its exit status are those of the parser that declares every command.
@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], [], ["bogus"], ["-x", "eval"],
    *[[name, "--help"] for name in cli._COMMANDS],
    ["eval"],
    ["validate", "--model", _RED, "--bogus"],
    ["eval", "--model", _RED, "--formula", "p", "--state", "w1",
     "--agent", "1", "--mode", "bogus"],
    ["translate", "--formula", "p", "--agent", "1", "--mode", "bogus"],
    ["transform", "bogus", "--model", _RED],
    ["check", "--trials", "many"],
], ids=lambda argv: " ".join(argv).replace(_RED, "m_red.json") or "none")
def test_each_call_parses_as_the_full_parser_does(argv, capsys):
    with pytest.raises(SystemExit) as full:
        cli._build_parser([]).parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert (got.value.code, capsys.readouterr()) == (full.value.code,
                                                     expected)


def test_validate_non_string_signal_exits_2(tmp_path, capsys):
    with open(AI_MODEL, encoding="utf-8") as fh:
        data = json.load(fh)
    data["signals"]["1"]["a"] = 3
    path = tmp_path / "signal3.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: signals[1][a]: expected formula text")


def test_eval_missing_prior_exits_1(tmp_path, capsys):
    path = _ai_model_without(tmp_path, "priors", "2")
    code = main(["eval", "--model", path, "--formula", "Pr2(p) >= 1/2",
                 "--state", "a", "--agent", "1", "--mode", "ou-ai"])
    assert code == 1
    err = capsys.readouterr().err
    assert "prior-missing: agent 2 has no prior" in err
    assert "internal error" not in err


def _broken_copy(tmp_path, name, edit):
    with open(MODELS / name, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / ("broken_" + name)
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _setter(*keys, value):
    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value
    return edit


@pytest.mark.parametrize("name, edit, where, kind", [
    ("m_red.json", _setter("partitions", "1", value=[5, ["w2"]]),
     "partitions[1]", "array"),
    ("m_red.json", _setter("partitions", "1", value="w1"),
     "partitions[1]", "array"),
    ("m_red.json", _setter("interpretations", "1", "p", value=[["w1"]]),
     "interpretations[1][p]", "string"),
    ("m_red.json", _setter("interpretations", "1", "p", value="w1"),
     "interpretations[1][p]", "array"),
    ("m_red.json", _setter("beliefs", "2", 0, "measure", value=["1"]),
     "beliefs[2][0][measure]", "object"),
    ("m_red.json", _setter("partitions", value=[["w1", "w2"]]),
     "partitions", "object"),
    ("m_red.json", _setter("interpretations", "1", value=[["w1"]]),
     "interpretations[1]", "object"),
    ("m_sig.json", _setter("priors", "1", value=["1/2", "1/2"]),
     "priors[1]", "object"),
    ("m_sig.json", _setter("signals", "1", value=["s", "!s"]),
     "signals[1]", "object"),
    ("m_red.json", _setter("states", value=[["w1"], "w2"]),
     "states", "string"),
    ("m_red.json", _setter("props", value=[3]), "props", "string"),
    ("m_red.json", _setter("states", value={"w1": 1, "w2": 2}),
     "states", "array"),
    ("m_red.json", _setter("states", value="w1w2"), "states", "array"),
    ("m_red.json", _setter("states", value=[5, "w1", "w2"]),
     "states", "string"),
    ("m_red.json", _setter("props", value={"p": 1}), "props", "array"),
    ("m_red.json", _setter("props", value="p"), "props", "array"),
    ("m_red.json", _setter("agents", value="2"), "agents", "integer"),
    ("m_red.json", _setter("agents", value=True), "agents", "integer"),
    ("m_red.json", _setter("agents", value=None), "agents", "integer"),
    ("m_red.json", _setter("agents", value=[2]), "agents", "integer"),
    ("m_red.json", _setter("states", value=5), "states", "array"),
    ("m_red.json", _setter("props", value=5), "props", "array"),
], ids=["cell-number", "cells-string", "state-array", "states-string",
        "measure-array", "partitions-array", "interpretations-array",
        "prior-array", "signals-array", "state-name-array", "prop-number",
        "states-object", "states-text", "state-number", "props-object",
        "props-text", "agents-text", "agents-bool", "agents-null",
        "agents-array", "states-number", "props-number"])
def test_validate_block_of_wrong_json_type_exits_2(name, edit, where, kind,
                                                   tmp_path, capsys):
    path = _broken_copy(tmp_path, name, edit)
    assert main(["validate", "--model", path]) == 2
    assert capsys.readouterr().err == "error: %s: expected a JSON %s\n" % (
        where, kind)


def _measure_sums_to_2(data):
    data["beliefs"]["2"][0]["measure"]["w1"] = "3/2"


def _partition_misses_w2(data):
    data["partitions"]["1"] = [["w1"]]
    data["beliefs"]["1"] = [{"measure": {"w1": "1"}}]


def _prior_sums_to_2(data):
    data["priors"]["1"]["a"] = "3/2"


@pytest.mark.parametrize("name, edit, state, kind", [
    ("m_red.json", _measure_sums_to_2, "w2", "measure-sum"),
    ("m_red.json", _partition_misses_w2, "w2", "partition-cover"),
    ("m_ai.json", _prior_sums_to_2, "a", "prior-sum"),
])
@pytest.mark.parametrize("formula", ["p", "B1 p", "CB{1,2} p",
                                     "Pr2(p) >= 1"])
@pytest.mark.parametrize("mode", [m.value for m in EvalMode])
def test_eval_refuses_structure_failing_core_checks(
        name, edit, state, kind, formula, mode, tmp_path, capsys):
    path = _broken_copy(tmp_path, name, edit)
    code = main(["eval", "--model", path, "--formula", formula,
                 "--state", state, "--agent", "1", "--mode", mode,
                 "--show-value"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: structure fails core checks: ")
    assert kind + ": " in captured.err


def test_validate_skips_signal_checks_on_invalid_core(tmp_path, capsys):
    def drop_agent_1_cell(data):
        data["partitions"]["1"] = []
        data["beliefs"]["1"] = []
    path = _broken_copy(tmp_path, "m_ai.json", drop_agent_1_cell)
    assert main(["validate", "--model", path]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["ok"] is False
    assert "partition-cover" in {v["kind"] for v in report["violations"]}
    assert not any(v["kind"].startswith("signal-")
                   for v in report["violations"])
    assert captured.err == ""


def _count_core_checks(monkeypatch):
    """Count ``validate_core`` calls from the modules that may make them."""
    calls = []

    def counted(m):
        calls.append(m)
        return validate_core(m)

    for module in (cli, semantics):
        monkeypatch.setattr(module, "validate_core", counted, raising=False)
    return calls


def test_validate_checks_the_core_once(tmp_path, monkeypatch, capsys):
    """One ``Evaluator`` checks the core and reads the signals; a structure
    failing the core is reported from the report its refusal carries."""
    calls = _count_core_checks(monkeypatch)
    assert main(["validate", "--model", AI_MODEL]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert len(calls) == 1
    path = _broken_copy(tmp_path, "m_ai.json", lambda data: data[
        "beliefs"]["2"][0]["measure"].update(a="3/2"))
    calls.clear()
    assert main(["validate", "--model", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert report == validate_core(load_structure(path)).to_dict()
    assert [v["kind"] for v in report["violations"]] == ["measure-sum"]


def _mass_of_4300_nines(data):  # the sum has 4,301 digits
    data["beliefs"]["2"][0]["measure"]["w1"] = "9" * 4300


def _prior_of_4300_nines(data):
    data["priors"]["1"]["a"] = "9" * 4300


@pytest.mark.parametrize("name, edit, state, violation", [
    ("m_red.json", _mass_of_4300_nines, "w1",
     "measure-sum: agent 2 cell 0 masses sum to about 1.000e+4300, not 1"),
    ("m_ai.json", _prior_of_4300_nines, "a",
     "prior-sum: agent 1 prior sums to about 1.000e+4300, not 1"),
])
def test_sum_too_long_to_print_is_a_named_violation(
        name, edit, state, violation, tmp_path, capsys):
    path = _broken_copy(tmp_path, name, edit)
    assert main(["validate", "--model", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert ["%s: %s" % (v["kind"], v["message"])
            for v in report["violations"]] == [violation]
    assert report["violations"][0]["context"]["total"] == "about 1.000e+4300"
    assert main(["eval", "--model", path, "--formula", "p", "--state", state,
                 "--agent", "1", "--mode", "in"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: structure fails core checks: %s\n" % violation


@pytest.mark.parametrize("missing, command, kind", [
    ("priors", ["fix-interpretation", "--agent", "1"], "prior-missing"),
    ("signals", ["generate-priors"], "signal-missing"),
])
def test_transform_keeps_an_agent_missing(missing, command, kind, tmp_path,
                                          capsys):
    model = _ai_model_without(tmp_path, missing, "2")
    out = str(tmp_path / "out.json")
    code = main(["transform", *command, "--model", model, "--out", out])
    assert code == 0, capsys.readouterr().err
    assert main(["validate", "--model", out]) == 1
    report = json.loads(capsys.readouterr().out)
    assert kind in {v["kind"] for v in report["violations"]}


def test_eval_bad_formula_exits_2(red_path, capsys):
    assert main(["eval", "--model", red_path, "--formula", "p &",
                 "--state", "w1", "--agent", "1", "--mode", "ou"]) == 2


def test_transform_disjoint_copies(red_path, capsys):
    assert main(["transform", "disjoint-copies", "--model", red_path]) == 0
    captured = capsys.readouterr()
    model = loads_structure(captured.out)
    assert len(model.states) == 4
    sidecar = json.loads(captured.err)
    assert sidecar["state_map"]["w1#2"] == {"state": "w1", "tag": 2}


def test_transform_generate_priors(red_path, capsys):
    assert main(["transform", "generate-priors", "--model", red_path]) == 0
    model = loads_structure(capsys.readouterr().out)
    assert model.priors is not None
    from fractions import Fraction
    assert model.priors[1]["w1"] == Fraction(1, 2)


def test_transform_label_partitions_needs_common(red_path, capsys):
    code = main(["transform", "label-partitions", "--model", red_path,
                 "--state", "w1"])
    assert code == 1


def test_transform_to_file_with_sidecar(red_path, tmp_path, capsys):
    out = tmp_path / "copies.json"
    assert main(["transform", "disjoint-copies", "--model", red_path,
                 "--out", str(out)]) == 0
    assert out.exists()
    sidecar = json.loads((tmp_path / "copies.json.sidecar.json").read_text())
    assert len(sidecar["state_map"]) == 4
    # output is itself a loadable fixture
    assert main(["validate", "--model", str(out)]) == 0


def test_transform_fix_interpretation(red_path, capsys):
    assert main(["transform", "fix-interpretation", "--model", red_path,
                 "--agent", "2"]) == 0
    model = loads_structure(capsys.readouterr().out)
    assert model.interpretations[1]["p"] == frozenset({"w1", "w2"})


def test_translate(capsys):
    assert main(["translate", "--formula", "CB{1,2} p", "--agent", "1",
                 "--mode", "in"]) == 0
    assert capsys.readouterr().out.strip() == "CB{1,2}(B1 p@1 & B2 p@2)"
    assert main(["translate", "--formula", "CB{1,2} p", "--agent", "1",
                 "--mode", "ou"]) == 0
    assert capsys.readouterr().out.strip() == "CB{1,2} p@1"
    assert main(["translate", "--formula", "p", "--agent", "2",
                 "--mode", "in"]) == 0
    assert capsys.readouterr().out.strip() == "p@2"


def test_translate_indexed_input_exits_1(capsys):
    assert main(["translate", "--formula", "p@1", "--agent", "1",
                 "--mode", "in"]) == 1


def test_check_small_campaign(capsys):
    code = main(["check", "--seed", "7", "--trials", "5",
                 "--checks", "prop1,thm2-ou,cb-oracle"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert set(report["checks"]) == {"prop1", "thm2-ou", "cb-oracle"}
    assert all(c["trials"] == 5 for c in report["checks"].values())


def test_check_deterministic_modulo_timing(capsys):
    main(["check", "--seed", "3", "--trials", "4", "--checks", "thm2-in"])
    first = json.loads(capsys.readouterr().out)
    main(["check", "--seed", "3", "--trials", "4", "--checks", "thm2-in"])
    second = json.loads(capsys.readouterr().out)
    for rep in (first, second):
        for c in rep["checks"].values():
            c.pop("elapsed_s")
    assert first == second


def test_check_naive_hook_fails_with_counterexample(capsys):
    code = main(["check", "--seed", "42", "--trials", "60",
                 "--checks", "thm2-in", "--naive-cb"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    result = report["checks"]["thm2-in"]
    assert result["failures"] > 0
    ce = result["first_counterexample"]
    assert "structure" in ce and "mismatch" in ce


def test_check_counterexample_is_self_contained(capsys):
    main(["check", "--seed", "42", "--trials", "60",
          "--checks", "thm2-in", "--naive-cb"])
    report = json.loads(capsys.readouterr().out)
    ce = report["checks"]["thm2-in"]["first_counterexample"]
    from ambilogic.structure import structure_from_dict
    from ambilogic.translation import verify_theorem2
    from ambilogic import parse
    m = structure_from_dict(ce["structure"])
    ctx = ce["mismatch"]["context"]
    report2 = verify_theorem2(m, [parse(ctx["formula"])],
                              directions=("in",), naive_cb=True)
    assert not report2.ok


def test_check_full_campaign_seed_42(capsys):
    # every check is a proved equivalence, so a full run must be clean
    assert main(["check", "--seed", "42", "--trials", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert sum(c["failures"] for c in report["checks"].values()) == 0


def test_check_zero_trials_usage_error(capsys):
    assert main(["check", "--trials", "0"]) == 2


def test_check_unknown_check_usage_error(capsys):
    assert main(["check", "--checks", "bogus"]) == 2


@pytest.mark.parametrize("checks", ["", " , "])
def test_check_empty_check_list_usage_error(checks, capsys):
    # Running no check would be a vacuous pass.
    assert main(["check", "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no checks selected\n"


@pytest.mark.parametrize("checks, named", [
    ("prop1,prop1", "prop1"),
    ("prop1, thm1-ab,prop1,thm1-ab,prop1", "prop1, thm1-ab"),
])
def test_check_repeated_check_usage_error(checks, named, capsys):
    # A check named twice would run twice and be reported once.
    assert main(["check", "--checks", checks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated checks: %s\n" % named
    with pytest.raises(ValueError, match="^repeated checks: prop1$"):
        Campaign(checks=("prop1",) * 3)


# --- Every message that echoes an input value bounds it (errors.shown) ---

def _edited(name, edit, text_edit=None):
    """Runner of ``validate`` on demos/models/<name> changed by ``edit``
    (of the JSON data) or ``text_edit`` (of the file text)."""
    def run(value, tmp_path, capsys):
        with open(MODELS / name, encoding="utf-8") as fh:
            text = fh.read()
        if text_edit is not None:
            text = text_edit(text, value)
        else:
            data = json.loads(text)
            edit(data, value)
            text = json.dumps(data)
        path = tmp_path / "edited.json"
        path.write_text(text, encoding="utf-8")
        return _cli(["validate", "--model", str(path)])(value, tmp_path,
                                                          capsys)
    return run


def _cli(argv):
    """Runner of the command line ``argv``, "{}" standing for the value."""
    def run(value, tmp_path, capsys):
        try:
            code = main([a.replace("{}", value) for a in argv])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        return code, capsys.readouterr().err
    return run


def _api(call):
    """Runner of ``call(value)``: the exit code and stderr line that
    ``main`` gives for the error it raises."""
    def run(value, tmp_path, capsys):
        with pytest.raises(cli._USAGE_ERRORS) as exc:
            call(value)
        return 2, "error: %s\n" % exc.value
    return run


def _eval_argv(formula="p", state="w1", mode="ou", agent="1"):
    return ["eval", "--model", _RED, "--formula", formula, "--state", state,
            "--agent", agent, "--mode", mode]


_MODE_USAGE = ("usage: ambilogic eval [-h] --model MODEL --formula FORMULA "
               "--state STATE\n                      --agent AGENT --mode "
               "{common,ou,in,ou-ai,in-ai}\n                      "
               "[--show-value] [--json]\n")
_TRANSFORM_USAGE = (
    "usage: ambilogic transform [-h] --model MODEL [--agent AGENT] "
    "[--state STATE]\n                           [--out OUT]\n"
    "                           {fix-interpretation,disjoint-copies,"
    "label-partitions,generate-priors}\n")
_CHECK_USAGE = (
    "usage: ambilogic check [-h] [--seed SEED] [--trials TRIALS]\n"
    "                       [--max-states MAX_STATES] [--max-agents "
    "MAX_AGENTS]\n                       [--max-props MAX_PROPS] "
    "[--max-depth MAX_DEPTH]\n                       [--checks CHECKS] "
    "[--naive-cb]\n")

# Site: runner, and the exit code and stderr for the value "zz".
_ECHO_SITES = {
    "unknown-prop": (_cli(_eval_argv(formula="{}")), 2,
                     "error: proposition 'zz' not declared\n"),
    "unknown-state": (_cli(_eval_argv(state="{}")), 2,
                      "error: state 'zz' not declared\n"),
    "syntax-error-token": (
        _cli(_eval_argv(formula="p {}")), 2,
        "error: syntax error at offset 2: expected end of input or "
        "operator, found 'zz'\n"),
    "eval-mode": (_cli(_eval_argv(mode="{}")), 2, _MODE_USAGE + (
        "ambilogic eval: error: argument --mode: invalid choice: 'zz' "
        "(choose from 'common', 'ou', 'in', 'ou-ai', 'in-ai')\n")),
    "eval-agent": (_cli(_eval_argv(agent="{}")), 2, _MODE_USAGE + (
        "ambilogic eval: error: argument --agent: invalid int value: "
        "'zz'\n")),
    "check-trials": (_cli(["check", "--trials", "{}"]), 2, _CHECK_USAGE + (
        "ambilogic check: error: argument --trials: invalid int value: "
        "'zz'\n")),
    "transform-kind": (
        _cli(["transform", "{}", "--model", _RED]), 2, _TRANSFORM_USAGE + (
            "ambilogic transform: error: argument kind: invalid choice: 'zz' "
            "(choose from 'fix-interpretation', 'disjoint-copies', "
            "'label-partitions', 'generate-priors')\n")),
    "check-checks": (_cli(["check", "--checks", "{}"]), 2,
                     "error: unknown checks: zz\n"),
    "translate-mode": (
        _cli(["translate", "--formula", "p", "--agent", "1", "--mode", "{}"]),
        2, "usage: ambilogic translate [-h] --formula FORMULA --agent AGENT "
           "--mode {in,ou}\nambilogic translate: error: argument --mode: "
           "invalid choice: 'zz' (choose from 'in', 'ou')\n"),
    "prob-value-state": (
        _api(lambda v: semantics.Evaluator(load_structure(_RED)).prob_value(
            v, 1, fm.parse("Pr2(p) >= 1/2"), EvalMode.OUTERMOST)),
        2, "error: state 'zz' not declared\n"),
    "mode-name": (_api(EvalMode.parse), 2,
                  "error: unknown mode 'zz' (use one of common, ou, in, "
                  "ou-ai, in-ai)\n"),
    "cell-index": (_api(lambda v: load_structure(_RED).cell_index(1, v)), 2,
                   "error: state 'zz' not in any cell of agent 1\n"),
    "reachable": (_api(lambda v: reachable(load_structure(_RED), {1}, v)), 2,
                  "error: state 'zz' not declared\n"),
    "prop-name": (
        _edited("m_red.json", lambda d, v: d["props"].append("!" + v)), 2,
        "error: unusable proposition name: '!zz'\n"),
    "rational-value": (
        _edited("m_red.json", lambda d, v: d["beliefs"]["2"][0]["measure"]
                .update(w1=[v])), 2,
        "error: beliefs[2][0]: bad rational ['zz']\n"),
    "duplicate-key": (
        _edited("m_red.json", None, lambda text, v: text.replace(
            "{", '{"%s": 1, "%s": 2, ' % (v, v), 1)), 2,
        "error: duplicate key 'zz'\n"),
    "partition-state": (
        _edited("m_red.json",
                lambda d, v: d["partitions"]["1"][0].append(v)), 2,
        "error: partitions[1]: unknown state 'zz'\n"),
    "agent-key": (
        _edited("m_red.json", lambda d, v: d["partitions"].update({v: []})),
        2, "error: partitions: bad agent key 'zz'\n"),
    "signal-text": (
        _edited("m_ai.json", lambda d, v: d["signals"]["1"].update(a=[v])),
        2, "error: signals[1][a]: expected formula text, got ['zz']\n"),
    "prior-state": (
        _edited("m_ai.json", lambda d, v: d["priors"]["1"].update({v: "0"})),
        2, "error: priors[1]: unknown state 'zz'\n"),
    "interpreted-prop": (
        _edited("m_red.json",
                lambda d, v: d["interpretations"]["1"].update({v: []})),
        2, "error: interpretations[1]: unknown proposition 'zz'\n"),
}


@pytest.fixture
def columns_80(monkeypatch):
    """argparse wraps its usage lines to the terminal's width."""
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("site", list(_ECHO_SITES))
def test_short_echoed_value_is_shown_whole(site, tmp_path, capsys,
                                           columns_80):
    run, code, err = _ECHO_SITES[site]
    assert run("zz", tmp_path, capsys) == (code, err)


@pytest.mark.parametrize("site", list(_ECHO_SITES))
def test_long_echoed_value_is_cut_in_one_short_line(site, tmp_path, capsys,
                                                   columns_80):
    run, code, short_err = _ECHO_SITES[site]
    got, err = run("x" * 100000, tmp_path, capsys)
    *usage, line = err.splitlines()
    assert got == code
    assert len(line.encode()) < 200 and "characters)" in line, line[:300]
    assert usage == short_err.splitlines()[:-1]  # argparse's, if any


@pytest.mark.parametrize("zeros, err", [
    (1, "error: agent index must be positive at offset 0: Pr0\n"),
    (38, "error: agent index must be positive at offset 0: Pr%s\n"
         % ("0" * 38)),
    (4000, "error: agent index must be positive at offset 0: 'Pr%s...' "
           "(4002 characters)\n" % ("0" * 38)),
], ids=["short", "40-characters", "4000-zeros"])
def test_zero_agent_index_token_is_cut(zeros, err, capsys):
    # 4,000 zeros are under Python's digit limit, so they read as agent 0
    # and the token is echoed; a token of at most 40 characters is shown
    # whole and bare, as before
    assert main(_eval_argv(formula="Pr%s(p) >= 1/2" % ("0" * zeros))) == 2
    assert capsys.readouterr().err == err
