"""Command-line front end.

Subcommands: validate, eval, transform, translate, check.  Exit codes:
0 success, 1 check or validation failure (including transform
preconditions), 2 usage, parse or input errors (including a formula nested
too deeply to parse, print or expand), 3 internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formula as fm
from .campaign import CHECK_NAMES, Campaign, run_campaign
from .errors import (
    ECHOED,
    AlreadyIndexed,
    AmbilogicError,
    CoreInvalid,
    FormulaSyntaxError,
    FormulaTooDeep,
    ModelFormatError,
    ModePrereqMissing,
    MissingSignals,
    NotCommonInterpretation,
    NotMeasurable,
    UndefinedConditional,
    UnknownAgent,
    UnknownProp,
    UnknownState,
    shown,
)
from .generators import GenBounds
from .modes import EvalMode
from .reporting import Report
from .semantics import Evaluator
from .structure import (
    dump_structure,
    dumps_structure,
    generate_priors,
    load_structure,
    validate_signals,
)
from .transforms import disjoint_copies, fix_interpretation, label_partitions
from .translation import translate_in, translate_ou

_USAGE_ERRORS = (ModelFormatError, FormulaSyntaxError, FormulaTooDeep,
                 OSError, UnknownAgent, UnknownProp, UnknownState, ValueError,
                 UndefinedConditional, NotMeasurable)
_FAILURE_ERRORS = (NotCommonInterpretation, CoreInvalid, AlreadyIndexed,
                   ModePrereqMissing, MissingSignals)


def _one_of(*values) -> dict:
    """Arguments for ``add_argument`` that accept only ``values``, as
    argparse's ``choices`` does, but refused first and echoed by ``shown``;
    a value cut short leaves the choices to the usage line."""
    def read(text):
        if text not in values:
            raise argparse.ArgumentTypeError("invalid choice: %s%s" % (
                shown(text), "" if len(text) > ECHOED else " (choose from %s)"
                % ", ".join(map(repr, values))))
        return text
    return {"type": read, "choices": values}


def _int(text) -> int:
    """``type=int``, with argparse's message echoing the text by ``shown``."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %s" % shown(text)) from None


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``.  When ``argv`` starts with a command name,
    only that command's arguments are declared, as nothing else can parse;
    otherwise (top-level help, a missing or unknown command) all are."""
    parser = argparse.ArgumentParser(
        prog="ambilogic",
        description="Model checker for multi-agent epistemic probability "
                    "logic with ambiguous interpretations.")
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    # With one command declared, the usage line still lists them all.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if named is None else "{%s}" % ",".join(_COMMANDS))

    if named in (None, "validate"):
        p = sub.add_parser("validate", help="check a structure file")
        p.add_argument("--model", required=True, help="structure file (JSON)")

    if named in (None, "eval"):
        p = sub.add_parser("eval", help="evaluate a formula at a state")
        p.add_argument("--model", required=True)
        p.add_argument("--formula", required=True)
        p.add_argument("--state", required=True)
        p.add_argument("--agent", required=True, type=_int)
        p.add_argument("--mode", required=True,
                       **_one_of(*[m.value for m in EvalMode]))
        p.add_argument("--show-value", action="store_true",
                       help="also print the exact left-hand side of the "
                            "formula's leading probability comparison, "
                            "and that comparison")
        p.add_argument("--json", action="store_true")

    if named in (None, "transform"):
        p = sub.add_parser("transform", help="apply a model transformation")
        p.add_argument("kind", **_one_of("fix-interpretation",
                                         "disjoint-copies",
                                         "label-partitions",
                                         "generate-priors"))
        p.add_argument("--model", required=True)
        p.add_argument("--agent", type=_int)
        p.add_argument("--state")
        p.add_argument("--out",
                       help="write the result here instead of stdout; "
                            "sidecar data goes to <out>.sidecar.json")

    if named in (None, "translate"):
        p = sub.add_parser("translate",
                           help="compile a formula into the indexed language")
        p.add_argument("--formula", required=True)
        p.add_argument("--agent", required=True, type=_int)
        p.add_argument("--mode", required=True, **_one_of("in", "ou"))

    if named in (None, "check"):
        p = sub.add_parser("check",
                           help="run randomized verification campaigns")
        p.add_argument("--seed", type=_int, default=0)
        p.add_argument("--trials", type=_int, default=100)
        p.add_argument("--max-states", type=_int, default=5)
        p.add_argument("--max-agents", type=_int, default=3)
        p.add_argument("--max-props", type=_int, default=3)
        p.add_argument("--max-depth", type=_int, default=4)
        p.add_argument("--checks", default=",".join(CHECK_NAMES),
                       help="comma-separated subset of: %s"
                            % ", ".join(CHECK_NAMES))
        p.add_argument("--naive-cb", action="store_true",
                       help="testing hook: corrupt the innermost "
                            "translation's common-belief clause (thm2-in "
                            "should then fail)")
    return parser


def _leading_comparison(f):
    """The formula's leading probability comparison, in the ``>=`` form
    that is measured: comparisons other than ``>=`` desugar at parse time,
    so it is the formula, the negated comparison (``<`` and ``>``) or the
    left conjunct (``=``), sign-flipped for ``<=`` and ``>``; ``B_j g`` is
    read as ``Pr_j(g) >= 1``."""
    if isinstance(f, fm.Not):
        f = f.arg
    elif isinstance(f, fm.And):
        f = f.left
    if isinstance(f, fm.B):
        return fm.belief(f.agent, f.arg)
    return f if isinstance(f, fm.ProbGe) else None


def _cmd_validate(args) -> int:
    m = load_structure(args.model)
    try:
        ev = Evaluator(m)  # checks the core once
    except CoreInvalid as exc:  # and signals need a valid core
        report = exc.report
    else:
        report = (Report() if m.signals is None
                  else validate_signals(m, ev))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def _cmd_eval(args) -> int:
    m = load_structure(args.model)
    f = fm.parse(args.formula)
    mode = EvalMode.parse(args.mode)
    ev = Evaluator(m)
    result = ev.evaluate(args.state, args.agent, f, mode)
    value = shown_comparison = None
    comparison = _leading_comparison(f) if args.show_value else None
    if comparison is not None:
        value = str(ev.prob_value(args.state, args.agent, comparison, mode))
        shown_comparison = fm.print_formula(comparison)
    if args.json:
        print(json.dumps({"result": result, "value": value,
                          "comparison": shown_comparison}))
    else:
        print("true" if result else "false")
        if value is not None:
            print("value = %s for %s" % (value, shown_comparison))
    return 0


def _cmd_transform(args) -> int:
    m = load_structure(args.model)
    sidecar = None
    if args.kind == "fix-interpretation":
        if args.agent is None:
            raise ModelFormatError("fix-interpretation needs --agent")
        out = fix_interpretation(m, args.agent)
    elif args.kind == "disjoint-copies":
        out, state_map = disjoint_copies(m)
        sidecar = {"state_map": {new: {"state": old, "tag": tag}
                                 for new, (old, tag) in state_map.items()}}
    elif args.kind == "label-partitions":
        if args.state is None:
            raise ModelFormatError("label-partitions needs --state")
        out, table = label_partitions(m, args.state)
        sidecar = {"fresh_props": {
            name: {"agent": agent, "cell": sorted(cell)}
            for name, (agent, cell) in sorted(table.items())
        }}
    else:  # generate-priors
        out = m.replace(priors=generate_priors(m))
    if args.out:
        dump_structure(out, args.out)
        if sidecar is not None:
            with open(args.out + ".sidecar.json", "w", encoding="utf-8") as fh:
                json.dump(sidecar, fh, indent=2, sort_keys=True)
                fh.write("\n")
    else:
        print(dumps_structure(out))
        if sidecar is not None:
            print(json.dumps(sidecar, indent=2, sort_keys=True),
                  file=sys.stderr)
    return 0


def _cmd_translate(args) -> int:
    f = fm.parse(args.formula)
    translate = translate_in if args.mode == "in" else translate_ou
    out = translate(f, args.agent)
    print(fm.print_formula(out, sugar_beliefs=True))
    return 0


def _cmd_check(args) -> int:
    checks = tuple(name.strip() for name in args.checks.split(",")
                   if name.strip())
    campaign = Campaign(
        seed=args.seed,
        trials=args.trials,
        bounds=GenBounds(max_states=args.max_states,
                         max_agents=args.max_agents,
                         max_props=args.max_props,
                         max_depth=args.max_depth),
        checks=checks,
        naive_cb=args.naive_cb,
    )
    try:
        report = run_campaign(campaign)
    except AmbilogicError as exc:
        print("internal error while checking: %s" % exc, file=sys.stderr)
        return 3
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    for name, result in sorted(report.results.items()):
        print("check %-14s %d trials, %d failures"
              % (name, result.trials, result.failures), file=sys.stderr)
    return 0 if report.ok else 1


# Each subcommand's handler, in the order the usage line lists them.
_COMMANDS = {
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "transform": _cmd_transform,
    "translate": _cmd_translate,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except _USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _FAILURE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except AmbilogicError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - safety net
        print("internal error: %r" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
