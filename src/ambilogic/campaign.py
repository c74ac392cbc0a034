"""Randomized verification campaigns over generated structures.

Each check replays one proved equivalence on freshly generated inputs, so
any failure is an implementation bug.  A check returns its structure and a
``Report``; the first failure is kept as the structure, the first violation
and the trial index.  Campaigns are deterministic given their seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import formula as fm
from .errors import shown
from .generators import (
    GenBounds,
    formula_corpus,
    random_core_formula,
    random_group,
    random_signal_structure,
    random_structure,
)
from .modes import EvalMode
from .reporting import Report, Violation
from .semantics import Evaluator, disagreements
from .structure import (
    Structure,
    generate_priors,
    structure_to_dict,
    validate_core,
    validate_signals,
)
from .transforms import (
    TransformClaim,
    disjoint_copies,
    fix_interpretation,
    label_partitions,
    verify_transform_equivalence,
)
from .translation import verify_theorem2

__all__ = ["Campaign", "CampaignReport", "CheckResult", "run_campaign",
           "CHECK_NAMES"]


class CheckResult(fm.Frozen):
    __slots__ = _fields = ("name", "trials", "failures",
                           "first_counterexample", "elapsed_s")

    def __init__(self, name: str, trials: int = 0, failures: int = 0,
                 first_counterexample: dict = None, elapsed_s: float = 0.0):
        self._init(name, trials, failures, first_counterexample, elapsed_s)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "first_counterexample": self.first_counterexample,
            "elapsed_s": self.elapsed_s,
        }


class CampaignReport(fm.Frozen):
    __slots__ = _fields = ("campaign", "results")

    def __init__(self, campaign: Campaign, results: dict = None):
        self._init(campaign, {} if results is None else results)

    @property
    def ok(self) -> bool:
        return all(r.failures == 0 for r in self.results.values())

    def to_dict(self) -> dict:
        return {
            "seed": self.campaign.seed,
            "trials": self.campaign.trials,
            "bounds": dict(vars(self.campaign.bounds)),
            "ok": self.ok,
            "checks": {name: r.to_dict()
                       for name, r in sorted(self.results.items())},
        }


def _check_thm1_ab(rng, bounds):
    m = random_structure(rng, bounds)
    agent = rng.randint(1, m.n_agents)
    fixed = fix_interpretation(m, agent)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth)
    return m, verify_transform_equivalence(
        m, fixed, None, corpus,
        TransformClaim("fix-interpretation", agent=agent))


def _check_thm1_ac(rng, bounds):
    m = random_structure(rng, bounds)
    copies, state_map = disjoint_copies(m)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth)
    return m, verify_transform_equivalence(
        m, copies, state_map, corpus, TransformClaim("disjoint-copies"))


def _check_thm1_da(rng, bounds):
    m = random_structure(rng, bounds, common=True)
    state = rng.choice(m.states)
    labelled, _ = label_partitions(m, state)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth)
    invalid = validate_core(labelled)
    if invalid.ok:
        invalid = validate_signals(labelled)
    if not invalid.ok:
        return labelled, invalid
    return m, verify_transform_equivalence(
        m, labelled, None, corpus, TransformClaim("label-partitions"))


def _check_thm2(direction, naive_cb=False):
    def check(rng, bounds):
        m = random_structure(rng, bounds)
        corpus = formula_corpus(rng, m, 4, bounds.max_depth)
        return m, verify_theorem2(m, corpus, directions=(direction,),
                                  naive_cb=naive_cb)
    return check


def _check_prop1(rng, bounds):
    m = random_structure(rng, bounds)
    priors = generate_priors(m)
    report = Report()
    for i in m.agents:
        nu = priors[i]
        total = sum(nu.values(), Fraction(0))
        if total != 1:
            report.add("prior-sum", "prior of agent %d sums to %s"
                       % (i, total), agent=i, total=str(total))
        for cell, cb in zip(m.partitions[i], m.beliefs[i]):
            cell_mass = sum((nu[s] for s in cell), Fraction(0))
            if cell_mass <= 0:
                report.add("prior-cell-mass", "cell of agent %d got prior mass"
                           " %s" % (i, cell_mass), agent=i, cell=sorted(cell))
                continue
            for atom, mass in zip(cb.atoms, cb.masses):
                if sum((nu[s] for s in atom), Fraction(0)) / cell_mass != mass:
                    report.add("prior-conditional", "conditional of agent %d "
                               "differs on atom %s" % (i, sorted(atom)),
                               agent=i, atom=sorted(atom))
    return m, report


def _modes_agree(m: Structure, corpus, modes) -> Report:
    """The first query of the corpus, in (formula, state, agent) order,
    whose answer differs between ``modes``, as a ``mode-disagreement``.
    Each mode's query is paired with the first mode's."""
    ev = Evaluator(m)
    pairs = (((s, i, f, modes[0]), (s, i, f, mode)) for f in corpus
             for s in m.states for i in m.agents for mode in modes[1:])
    for ((s, i, f, _), _), _, _ in disagreements(ev, ev, pairs):
        text = fm.print_formula(f)
        values = {mode.value: s in ev.extension(i, f, mode) for mode in modes}
        message = "modes split on %s at (%s, %d)" % (text, s, i)
        return Report([Violation("mode-disagreement", message, dict(
            state=s, agent=i, formula=text, values=values))])
    return Report()


def _check_mode_agreement(rng, bounds):
    m = random_structure(rng, bounds, common=True)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth)
    return m, _modes_agree(m, corpus, (EvalMode.COMMON, EvalMode.OUTERMOST,
                                       EvalMode.INNERMOST))


def _check_inai_eq_in(rng, bounds):
    m = random_signal_structure(rng, bounds)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth,
                            props=m.props[:bounds.max_props])
    return m, _modes_agree(m, corpus, (EvalMode.INNERMOST,
                                       EvalMode.INNERMOST_AI))


def _check_cb_oracle(rng, bounds):
    m = random_structure(rng, bounds)
    group = random_group(rng, m.n_agents)
    f = random_core_formula(rng, list(m.props), m.n_agents,
                            rng.randint(0, max(1, bounds.max_depth - 2)))
    mode = rng.choice([EvalMode.OUTERMOST, EvalMode.INNERMOST])
    outer = rng.randint(1, m.n_agents)
    ev = Evaluator(m)
    via_graph = ev.common_belief_set(group, f, mode, outer)
    bound = len(m.states) * len(group) + 1
    via_iteration = m.universe
    for k in range(1, bound + 1):
        via_iteration &= ev.eb_k(group, f, k, mode, outer)
    if via_graph != via_iteration:
        return m, Report([Violation(
            "cb-mismatch", "reachability and iterated E^k disagree",
            dict(group=sorted(group), mode=mode.value, outer=outer,
                 formula=fm.print_formula(f), reachability=sorted(via_graph),
                 iterated=sorted(via_iteration)))])
    return m, Report()


_CHECK_FNS = {
    "thm1-ab": _check_thm1_ab,
    "thm1-ac": _check_thm1_ac,
    "thm1-da": _check_thm1_da,
    "thm2-in": _check_thm2("in"),
    "thm2-ou": _check_thm2("ou"),
    "prop1": _check_prop1,
    "mode-agreement": _check_mode_agreement,
    "inai-eq-in": _check_inai_eq_in,
    "cb-oracle": _check_cb_oracle,
}

CHECK_NAMES = tuple(_CHECK_FNS)


class Campaign(fm.Frozen):
    """What to check, how often, from which seed; ``naive_cb`` is a testing
    hook that corrupts the innermost translation."""

    __slots__ = _fields = ("seed", "trials", "bounds", "checks", "naive_cb")

    def __init__(self, seed: int = 0, trials: int = 100,
                 bounds: GenBounds = None, checks: tuple = CHECK_NAMES,
                 naive_cb: bool = False):
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if not checks:
            raise ValueError("no checks selected")
        unknown = ", ".join(sorted(set(checks) - set(CHECK_NAMES)))
        if unknown:
            raise ValueError("unknown checks: " + shown(unknown, quoted=False))
        twice = ", ".join(sorted({c for c in checks if checks.count(c) > 1}))
        if twice:
            raise ValueError("repeated checks: " + shown(twice, quoted=False))
        bounds = GenBounds() if bounds is None else bounds
        if bounds.max_depth >= fm.MAX_DEPTH:
            raise ValueError("max_depth must be at most %d: formulas drawn "
                             "nest one level deeper, and at most %d levels "
                             "are supported" % (fm.MAX_DEPTH - 1, fm.MAX_DEPTH))
        self._init(seed, trials, bounds, checks, naive_cb)


def run_campaign(campaign: Campaign) -> CampaignReport:
    """Run the selected checks for the given number of trials each.

    Each trial is seeded from (campaign seed, check name, trial index), so
    reports are reproducible and independent of check order.
    """
    fns = {**_CHECK_FNS, "thm2-in": _check_thm2("in", campaign.naive_cb)}
    results = {}
    for name in campaign.checks:
        failures, first = 0, None
        started = time.perf_counter()
        for trial in range(campaign.trials):
            rng = random.Random("%d/%s/%d" % (campaign.seed, name, trial))
            m, report = fns[name](rng, campaign.bounds)
            if not report.ok:
                failures += 1
                if first is None:
                    first = dict(structure=structure_to_dict(m), trial=trial,
                                 mismatch=report.entries[0].to_dict())
        results[name] = CheckResult(
            name, campaign.trials, failures, first,
            round(time.perf_counter() - started, 6))
    return CampaignReport(campaign, results)
