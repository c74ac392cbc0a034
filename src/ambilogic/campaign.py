"""Randomized verification campaigns over generated structures.

Each check replays one proved equivalence on freshly generated inputs, so
any failure is an implementation bug; the first counterexample is recorded
with enough context (serialized structure, query, both truth values) to be
re-run in isolation.  Campaigns are deterministic given their seed.
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


def _counterexample(m: Structure, report, extra=None) -> dict:
    out = {"structure": structure_to_dict(m)}
    if report is not None and report.entries:
        first = report.entries[0]
        out["mismatch"] = first.to_dict()
    if extra:
        out.update(extra)
    return out


def _check_thm1_ab(rng, bounds, _hook):
    m = random_structure(rng, bounds)
    agent = rng.randint(1, m.n_agents)
    fixed = fix_interpretation(m, agent)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth)
    report = verify_transform_equivalence(
        m, fixed, None, corpus,
        TransformClaim("fix-interpretation", agent=agent))
    return report.ok, None if report.ok else _counterexample(m, report)


def _check_thm1_ac(rng, bounds, _hook):
    m = random_structure(rng, bounds)
    copies, state_map = disjoint_copies(m)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth)
    report = verify_transform_equivalence(
        m, copies, state_map, corpus, TransformClaim("disjoint-copies"))
    return report.ok, None if report.ok else _counterexample(m, report)


def _check_thm1_da(rng, bounds, _hook):
    m = random_structure(rng, bounds, common=True)
    state = rng.choice(m.states)
    labelled, _ = label_partitions(m, state)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth, props=m.props)
    if not validate_core(labelled).ok or not validate_signals(labelled).ok:
        return False, _counterexample(labelled, None,
                                      {"reason": "labelled structure invalid"})
    report = verify_transform_equivalence(
        m, labelled, None, corpus,
        TransformClaim("label-partitions"))
    return report.ok, None if report.ok else _counterexample(m, report)


def _check_thm2(direction):
    def check(rng, bounds, hook):
        m = random_structure(rng, bounds)
        corpus = formula_corpus(rng, m, 4, bounds.max_depth)
        report = verify_theorem2(m, corpus, directions=(direction,),
                                 naive_cb=hook and direction == "in")
        return report.ok, None if report.ok else _counterexample(m, report)
    return check


def _check_prop1(rng, bounds, _hook):
    m = random_structure(rng, bounds)
    priors = generate_priors(m)
    for i in m.agents:
        nu = priors[i]
        total = sum(nu.values(), Fraction(0))
        if total != 1:
            return False, _counterexample(m, None, {
                "reason": "prior of agent %d sums to %s" % (i, total)})
        for cell, cb in zip(m.partitions[i], m.beliefs[i]):
            cell_mass = sum((nu[s] for s in cell), Fraction(0))
            if cell_mass <= 0:
                return False, _counterexample(m, None, {
                    "reason": "cell of agent %d got prior mass %s"
                              % (i, cell_mass)})
            for atom, mass in zip(cb.atoms, cb.masses):
                atom_mass = sum((nu[s] for s in atom), Fraction(0))
                if atom_mass / cell_mass != mass:
                    return False, _counterexample(m, None, {
                        "reason": "conditional of agent %d differs on atom %s"
                                  % (i, sorted(atom))})
    return True, None


def _modes_agree(m: Structure, corpus, modes) -> tuple:
    """Whether every query of the corpus gets one answer in all ``modes``,
    and the first counterexample, in (formula, state, agent) order, if not.
    Each mode's query is paired with the first mode's."""
    ev = Evaluator(m)
    pairs = (((s, i, f, modes[0]), (s, i, f, mode)) for f in corpus
             for s in m.states for i in m.agents for mode in modes[1:])
    for ((s, i, f, _), _), _, _ in disagreements(ev, ev, pairs):
        return False, _counterexample(m, None, {
            "query": {"state": s, "agent": i,
                      "formula": fm.print_formula(f)},
            "values": {mode.value: s in ev.extension(i, f, mode)
                       for mode in modes}})
    return True, None


def _check_mode_agreement(rng, bounds, _hook):
    m = random_structure(rng, bounds, common=True)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth)
    return _modes_agree(m, corpus, (EvalMode.COMMON, EvalMode.OUTERMOST,
                                    EvalMode.INNERMOST))


def _check_inai_eq_in(rng, bounds, _hook):
    m = random_signal_structure(rng, bounds)
    corpus = formula_corpus(rng, m, 4, bounds.max_depth,
                            props=m.props[:bounds.max_props])
    return _modes_agree(m, corpus, (EvalMode.INNERMOST,
                                    EvalMode.INNERMOST_AI))


def _check_cb_oracle(rng, bounds, _hook):
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
        return False, _counterexample(m, None, {
            "query": {"group": sorted(group), "mode": mode.value,
                      "outer": outer, "formula": fm.print_formula(f)},
            "values": {"reachability": sorted(via_graph),
                       "iterated": sorted(via_iteration)}})
    return True, None


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
        self._init(seed, trials, GenBounds() if bounds is None else bounds,
                   checks, naive_cb)


def run_campaign(campaign: Campaign) -> CampaignReport:
    """Run the selected checks for the given number of trials each.

    Each trial is seeded from (campaign seed, check name, trial index), so
    reports are reproducible and independent of check order.
    """
    results = {}
    for name in campaign.checks:
        fn = _CHECK_FNS[name]
        failures, first = 0, None
        started = time.perf_counter()
        for trial in range(campaign.trials):
            rng = random.Random("%d/%s/%d" % (campaign.seed, name, trial))
            ok, counterexample = fn(rng, campaign.bounds, campaign.naive_cb)
            if not ok:
                failures += 1
                if first is None:
                    first = dict(counterexample or {}, trial=trial)
        results[name] = CheckResult(
            name, campaign.trials, failures, first,
            round(time.perf_counter() - started, 6))
    return CampaignReport(campaign, results)
