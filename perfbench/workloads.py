"""The five workloads.

Each workload writes its seeded inputs as JSON (``generate``), reads them
back through the program's loaders (``load``), and hands out ops in rounds.
A round is a fixed mix of ops, so every run measures the same mix whatever
its length.  A pass is the workload's whole pool of distinct ops; every
pass starts from fresh ``Evaluator`` objects (``reset``, untimed after the
first), so no op is ever answered from a cache an earlier copy of it
filled.  ``verify`` checks every distinct op's result, recorded as its
``hash``, against a computation that does not share the timed code path;
it runs after the timed region.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics

from ambilogic import formula as fm
from ambilogic.campaign import CHECK_NAMES, Campaign, run_campaign
from ambilogic.generators import GenBounds, random_structure
from ambilogic.modes import EvalMode
from ambilogic.semantics import Evaluator
from ambilogic.structure import dumps_structure, loads_structure
from ambilogic.transforms import fix_interpretation
from ambilogic.translation import lift_to_indexed, translate_in, translate_ou

import gen
from oracle import Oracle

def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cold_text(rng, props):
    """A propositional question: the cold query's time is then the
    per-structure set-up (loading, validation, mode prerequisites) rather
    than the evaluation, which the timed ops measure."""
    first, second = rng.choice(props), rng.choice(props)
    return "%s & !%s" % (first, second) if rng.random() < 0.5 \
        else "%s | %s" % (first, second)


class Workload:
    """Base: subclasses fill ``generate``, ``load``, ``reset``,
    ``rounds``, ``run_op`` and ``verify``."""

    name = None
    # The tail percentile reported: the highest that leaves at least ten
    # samples beyond it in a 10-second run of the parent program, fixed so
    # that runs of different lengths report the same percentile.
    tail_pct = 99
    # How many times a timed run asks each cold query.
    cold_repeats = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        self.cold = []  # (model path, formula text, state, agent, mode)

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        self.generate()
        self.load()
        self.reset()

    def op_name(self, op):
        return "op"

    def scaling_points(self, latencies):
        """(states, seconds) series for the CB scaling exponent, from the
        (op, seconds) list; empty where the workload has none."""
        return []

    def cold_expected(self):
        """Verdict of each cold query by the independent oracle."""
        out = []
        models = {}
        for path, text, state, agent, mode in self.cold:
            if path not in models:
                models[path] = loads_structure(_read(path))
            oracle = Oracle(models[path], mode)
            out.append(state in oracle.extension(agent, fm.parse(text)))
        return out

    def _write_cold(self, rng, models, props, n_agents, modes, count):
        """Cold queries cycling over (model path, mode) pairs."""
        states = {p: json.loads(_read(p))["states"] for p in models}
        pairs = [(p, mode) for p in models for mode in modes]
        for k in range(count):
            path, mode = pairs[k % len(pairs)]
            self.cold.append((path, _cold_text(rng, props),
                              rng.choice(states[path]),
                              rng.randint(1, n_agents), mode))


# --- campaign ---

class CampaignWorkload(Workload):
    """One op is one trial of one check: ``run_campaign`` with a fresh
    per-trial seed, so every op builds new structures and formulas."""

    name = "campaign"
    cold_repeats = 10

    def __init__(self, seed, workdir, checks=CHECK_NAMES, naive_cb=False):
        super().__init__(seed, workdir)
        self.checks = tuple(checks)
        self.naive_cb = naive_cb

    def generate(self):
        plan = {"seed": self.seed, "checks": list(self.checks),
                "bounds": vars(GenBounds()), "naive_cb": self.naive_cb}
        _write(self.path("plan.json"), json.dumps(plan, sort_keys=True))
        rng = gen.seeded(self.seed, "campaign/cold")
        bounds = GenBounds()
        for k in range(40):
            m = random_structure(rng, bounds)
            path = self.path("cold%d.json" % k)
            _write(path, dumps_structure(m))
            self.cold.append((path, _cold_text(rng, m.props),
                              rng.choice(m.states),
                              rng.randint(1, m.n_agents),
                              rng.choice(("ou", "in"))))

    def load(self):
        plan = json.loads(_read(self.path("plan.json")))
        self.base = plan["seed"] * 1_000_000
        self.checks = tuple(plan["checks"])
        self.bounds = GenBounds(**plan["bounds"])
        self.naive_cb = plan["naive_cb"]

    def reset(self):
        pass

    def rounds(self):
        for r in itertools.count():
            yield [(check, r) for check in self.checks]

    def op_name(self, op):
        return "campaign.%s" % op[0]

    def run_op(self, op):
        check, r = op
        report = run_campaign(Campaign(seed=self.base + r, trials=1,
                                       bounds=self.bounds, checks=(check,),
                                       naive_cb=self.naive_cb))
        return report.results[check].failures == 0

    def verify(self, results):
        # The check's own pass/fail is the verdict.
        return {op for op, passed in results.items() if passed != hash(True)}


# --- sweep ---

class SweepWorkload(Workload):
    """One op is one criterion-7 model: a fresh ``Evaluator``, then for
    each of the 20 corpus queries ``common_belief_set`` and the ``eb_k``
    chain up to |states|*|group|+1, compared as the acceptance suite does."""

    name = "sweep"
    POOL = 2000
    ROUND = 10
    # Not p99: the host takes the CPU away for about 3% of wall time, in
    # slices longer than one of these ops, so the slowest 1% of ops
    # measures the host rather than the program.
    tail_pct = 95

    def generate(self):
        rng = gen.seeded(self.seed, "sweep")
        models = gen.sweep_sample(rng, gen.SweepSpace(), self.POOL)
        lines = [json.dumps(d, sort_keys=True) for d in models]
        _write(self.path("models.jsonl"), "\n".join(lines) + "\n")
        _write(self.path("corpus.json"), json.dumps(gen.SWEEP_CORPUS))
        for k in range(40):
            idx = rng.randrange(self.POOL)
            path = self.path("cold%d.json" % k)
            _write(path, lines[idx])
            group, text, mode, outer = gen.SWEEP_CORPUS[
                rng.randrange(len(gen.SWEEP_CORPUS))]
            cb = fm.print_formula(fm.CB(frozenset(group), fm.parse(text)))
            self.cold.append((path, cb, rng.choice(models[idx]["states"]),
                              outer, mode))

    def load(self):
        self.texts = _read(self.path("models.jsonl")).splitlines()
        self.corpus = [(frozenset(g), fm.parse(text), EvalMode.parse(mode),
                        outer)
                       for g, text, mode, outer
                       in json.loads(_read(self.path("corpus.json")))]

    def reset(self):
        self.models = None  # release the last pass's models first
        self.models = [loads_structure(t) for t in self.texts]

    def rounds(self):
        for start in range(0, self.POOL, self.ROUND):
            yield list(range(start, start + self.ROUND))

    def run_op(self, k):
        m = self.models[k]
        ev = Evaluator(m)
        sets = []
        agree = True
        for group, f, mode, outer in self.corpus:
            via_graph = ev.common_belief_set(group, f, mode, outer)
            chain = m.universe
            for level in range(1, len(m.states) * len(group) + 2):
                chain &= ev.eb_k(group, f, level, mode, outer)
            agree = agree and via_graph == chain
            sets.append(via_graph)
        return agree, tuple(sets)

    def verify(self, results):
        bad = set()
        for k, got in results.items():
            m = loads_structure(self.texts[k])
            oracles = {}
            expected = []
            for group, f, mode, outer in self.corpus:
                oracle = oracles.setdefault(mode, Oracle(m, mode.value))
                expected.append(oracle.cb_set(group, f, outer))
            if got != hash((True, tuple(expected))):
                bad.add(k)
        return bad


# --- shared by the three large workloads ---

def _load_sized(workload, sizes, tag):
    return {n: loads_structure(_read(workload.path("%s%d.json" % (tag, n))))
            for n in sizes}


def _warm(ev, modes):
    """Run each mode's one-time prerequisite check outside the timed ops."""
    for mode in modes:
        ev.extension(1, fm.Prop("p"), mode)


# --- cb-large ---

class CbLargeWorkload(Workload):
    """One op is one ``common_belief_set`` call.  In every mode: the worst
    case CB{1,2,3} p with p true everywhere, at 60 and 240 states for outer
    agent 1 and at 120 states for each outer agent, and two CB queries with
    a random argument containing probability comparisons at 60 states.

    Random arguments stay at 60 states: whether a random argument fails
    early decides its cost, from under a millisecond to near the worst
    case, so at larger sizes a run's few of them would set its numbers
    alone.  The mix puts the median and the p65 tail inside the 15
    worst-case queries at 120 states."""

    name = "cb-large"
    cold_repeats = 2
    SIZES = (60, 120, 240)
    WORST_OUTERS = {60: (1,), 120: (1, 2, 3), 240: (1,)}
    RANDOM_PER = {60: 2, 120: 0, 240: 0}  # per mode
    tail_pct = 65
    MODE_NAMES = ("common", "ou", "in", "ou-ai", "in-ai")

    def generate(self):
        queries = []
        props = list(gen.prop_names(3))
        for n in self.SIZES:
            rng = gen.seeded(self.seed, "cb/%d" % n)
            m = gen.large_structure(rng, n, n // 8, n_props=3, weights=(0, 8),
                                    full_p=True, signals="plain")
            _write(self.path("cb%d.json" % n), dumps_structure(m))
            for mode in self.MODE_NAMES:
                for outer in self.WORST_OUTERS[n]:
                    queries.append((n, mode, [1, 2, 3], "p", outer, "worst"))
                oracle = Oracle(fix_interpretation(m, 1) if mode == "common"
                                else m, mode)
                for _ in range(self.RANDOM_PER[n]):
                    queries.append((n, mode) + self._random_query(rng, props,
                                                                   oracle))
        _write(self.path("queries.json"), json.dumps(queries))
        # Cold queries all run set-up for the signal modes on the largest
        # structure, so their median is taken over like costs.
        self._write_cold(gen.seeded(self.seed, "cb/cold"),
                         [self.path("cb240.json")], props, 3,
                         ("ou-ai", "in-ai"), 30)

    @staticmethod
    def _random_query(rng, props, oracle):
        """A CB query that fails somewhere, so that a pass which skips an
        end check or an edge shows in the result; the worst case holds
        everywhere and cannot show it."""
        while True:
            text = gen.formula_text(rng, props, 3, 3, nodes=2)
            group = sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))
            outer = rng.randint(1, 3)
            if oracle.cb_set(group, fm.parse(text), outer) != oracle.universe:
                return group, text, outer, "random"

    def load(self):
        self.structures = _load_sized(self, self.SIZES, "cb")
        self.fixed = {n: fix_interpretation(m, 1)
                      for n, m in self.structures.items()}
        self.queries = [(n, EvalMode.parse(mode), frozenset(g),
                         fm.parse(text), outer, kind)
                        for n, mode, g, text, outer, kind
                        in json.loads(_read(self.path("queries.json")))]

    def reset(self):
        self.ev = {}
        for n in self.SIZES:
            self.ev[n, False] = Evaluator(self.structures[n])
            _warm(self.ev[n, False],
                  [EvalMode.parse(x) for x in self.MODE_NAMES[1:]])
            self.ev[n, True] = Evaluator(self.fixed[n])
            _warm(self.ev[n, True], [EvalMode.COMMON])

    def rounds(self):
        yield list(range(len(self.queries)))

    def run_op(self, k):
        n, mode, group, f, outer, _ = self.queries[k]
        return self.ev[n, mode is EvalMode.COMMON].common_belief_set(
            group, f, mode, outer)

    def scaling_points(self, latencies):
        """Median latency of the worst-case query at each size."""
        worst = {}
        for k, seconds in latencies:
            n, _, _, _, _, kind = self.queries[k]
            if kind == "worst":
                worst.setdefault(n, []).append(seconds)
        return [(n, statistics.median(ts)) for n, ts in sorted(worst.items())]

    def verify(self, results):
        """Against ``eb_k`` for k = 1, 2, ... until a level repeats."""
        bad = set()
        checkers = {}
        for k, got in results.items():
            n, mode, group, f, outer, _ = self.queries[k]
            common = mode is EvalMode.COMMON
            if (n, common) not in checkers:
                checkers[n, common] = Evaluator(
                    self.fixed[n] if common else self.structures[n])
            ev = checkers[n, common]
            expected = self.structures[n].universe
            seen = set()
            level = 1
            while True:
                cur = ev.eb_k(group, f, level, mode, outer)
                if cur in seen:
                    break
                seen.add(cur)
                expected &= cur
                level += 1
            if got != hash(expected):
                bad.add(k)
        return bad


# --- prob-large ---

class ProbLargeWorkload(Workload):
    """One op is one ``Evaluator.extension`` call of a random Pr/B/E
    formula (depth <= 4, no CB) in ``ou``, ``in``, or ``common`` mode on the
    ``fix_interpretation`` copy for the same agent."""

    name = "prob-large"
    SIZES = (240, 480, 960)
    POOL = 30  # rounds per pass
    # Each pass repeats the pool, so samples beyond a percentile repeat too:
    # p95 is the highest with ten distinct ops beyond it.
    tail_pct = 95

    def generate(self):
        for n in self.SIZES:
            rng = gen.seeded(self.seed, "prob/%d" % n)
            _write(self.path("prob%d.json" % n), gen.structure_json(
                rng, n, n // 8, n_props=3, weights=(0, 8)))
        rng = gen.seeded(self.seed, "prob/queries")
        props = list(gen.prop_names(3))
        queries = [(n, gen.formula_text(rng, props, 3, 4, nodes=3),
                    rng.randint(1, 3))
                   for _ in range(self.POOL) for n in self.SIZES]
        _write(self.path("queries.json"), json.dumps(queries))
        self._write_cold(gen.seeded(self.seed, "prob/cold"),
                         [self.path("prob960.json")], props, 3, ("ou", "in"),
                         24)

    def load(self):
        self.structures = _load_sized(self, self.SIZES, "prob")
        self.fixed = {(n, i): fix_interpretation(m, i)
                      for n, m in self.structures.items() for i in m.agents}
        self.queries = [(n, fm.parse(text), agent) for n, text, agent
                        in json.loads(_read(self.path("queries.json")))]

    def reset(self):
        self.ev = {}
        for n, m in self.structures.items():
            self.ev[n] = Evaluator(m)
            _warm(self.ev[n], [EvalMode.OUTERMOST, EvalMode.INNERMOST])
        for key, m in self.fixed.items():
            self.ev[key] = Evaluator(m)
            _warm(self.ev[key], [EvalMode.COMMON])

    def rounds(self):
        per = len(self.SIZES)
        for r in range(self.POOL):
            yield [(q, mode) for q in range(r * per, (r + 1) * per)
                   for mode in ("ou", "in", "common")]

    def run_op(self, op):
        q, mode = op
        n, f, agent = self.queries[q]
        if mode == "common":
            return self.ev[n, agent].extension(agent, f, EvalMode.COMMON)
        return self.ev[n].extension(agent, f, EvalMode.parse(mode))

    def verify(self, results):
        """Theorem 2: ``ou``/``in`` equal ``common`` mode of
        ``translate_ou``/``translate_in`` on the lifted structure.
        Theorem 1: ``common`` on the copy fixed to agent i's reading equals
        ``ou`` by i, so it must equal the same ``translate_ou`` value."""
        bad = set()
        lifted = {n: lift_to_indexed(m) for n, m in self.structures.items()}
        expected = {}
        for (q, mode), got in sorted(results.items()):
            n, f, agent = self.queries[q]
            direction = "in" if mode == "in" else "ou"
            if (q, direction) not in expected:
                translate = translate_in if direction == "in" else translate_ou
                # A fresh evaluator per check keeps the checks' caches out
                # of the workload's peak memory.
                expected[q, direction] = hash(Evaluator(lifted[n]).extension(
                    agent, translate(f, agent, self.structures[n].props[0]),
                    EvalMode.COMMON))
            if got != expected[q, direction]:
                bad.add((q, mode))
        return bad


# --- signal-large ---

class SignalLargeWorkload(Workload):
    """One op is one ``Evaluator.extension`` call in ``ou-ai`` or ``in-ai``
    mode, on structures with plain or cross-read signals."""

    name = "signal-large"
    SIZES = (240, 480)
    # Formulas per size and kind in a round: the median falls among the
    # 240-state ops and the p80 tail among the 480-state ones.
    PER_ROUND = {240: 14, 480: 6}
    tail_pct = 80
    POOL = 2  # rounds per pass
    KINDS = ("plain", "cross")

    def generate(self):
        for n in self.SIZES:
            for kind in self.KINDS:
                rng = gen.seeded(self.seed, "signal/%s/%d" % (kind, n))
                _write(self.path("%s%d.json" % (kind, n)), gen.structure_json(
                    rng, n, n // 8, n_props=3, weights=(1, 8), signals=kind))
        rng = gen.seeded(self.seed, "signal/queries")
        props = list(gen.prop_names(3))
        queries = []
        for _ in range(self.POOL):
            for n in self.SIZES:
                for kind in self.KINDS:
                    for _ in range(self.PER_ROUND[n]):
                        queries.append((n, kind, gen.formula_text(
                            rng, props, 3, 4, nodes=1), rng.randint(1, 3)))
        _write(self.path("queries.json"), json.dumps(queries))
        self._write_cold(gen.seeded(self.seed, "signal/cold"),
                         [self.path("cross480.json")], props, 3,
                         ("ou-ai", "in-ai"), 16)

    def load(self):
        self.structures = {}
        for kind in self.KINDS:
            for n, m in _load_sized(self, self.SIZES, kind).items():
                self.structures[n, kind] = m
        self.queries = [(n, kind, fm.parse(text), agent)
                        for n, kind, text, agent
                        in json.loads(_read(self.path("queries.json")))]

    def reset(self):
        self.ev = {}
        for key, m in self.structures.items():
            self.ev[key] = Evaluator(m)
            _warm(self.ev[key], [EvalMode.OUTERMOST_AI,
                                 EvalMode.INNERMOST_AI])

    def rounds(self):
        per = len(self.queries) // self.POOL
        for r in range(self.POOL):
            yield [(q, mode) for q in range(r * per, (r + 1) * per)
                   for mode in ("ou-ai", "in-ai")]

    def run_op(self, op):
        q, mode = op
        n, kind, f, agent = self.queries[q]
        return self.ev[n, kind].extension(agent, f, EvalMode.parse(mode))

    def verify(self, results):
        """``in-ai`` equals ``in`` (criterion 6); with plain signals
        ``ou-ai`` equals ``ou``; with cross-read signals ``ou-ai`` is
        recomputed by the independent oracle."""
        bad = set()
        checkers = {}
        for (q, mode), got in results.items():
            n, kind, f, agent = self.queries[q]
            m = self.structures[n, kind]
            if mode == "ou-ai" and kind == "cross":
                key = (n, kind, "oracle")
                if key not in checkers:
                    checkers[key] = Oracle(m, "ou-ai")
                expected = checkers[key].extension(agent, f)
            else:
                if (n, kind) not in checkers:
                    checkers[n, kind] = Evaluator(m)
                cell_mode = (EvalMode.INNERMOST if mode == "in-ai"
                             else EvalMode.OUTERMOST)
                expected = checkers[n, kind].extension(agent, f, cell_mode)
            if got != hash(expected):
                bad.add((q, mode))
        return bad


WORKLOADS = {w.name: w for w in (CampaignWorkload, SweepWorkload,
                                 CbLargeWorkload, ProbLargeWorkload,
                                 SignalLargeWorkload)}
