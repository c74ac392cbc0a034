"""Compiling ambiguous formulas into an unambiguous indexed language.

Lifting replaces the proposition set by the product of propositions and
agents: ``p@i`` holds wherever agent i read ``p`` as true, and all agents
share that interpretation, so the lifted structure evaluates in common
mode.  The two translations rewrite a formula so that common-mode truth in
the lifted structure matches the original ambiguous evaluation:

* innermost: arguments of a probability comparison about agent j are
  translated with index j; common belief of f becomes common belief of
  "every group member believes his own reading of f".
* outermost: the evaluating agent's index is kept throughout, and common
  belief translates structurally.

Negation translates homomorphically in both (the only choice under which
the inductive equivalence goes through).  Abbreviations are expanded
before translating.
"""

from __future__ import annotations

from . import formula as fm
from .errors import AlreadyIndexed
from .modes import EvalMode
from .reporting import Report
from .semantics import Evaluator
from .structure import Structure

__all__ = [
    "indexed_prop_name", "lift_to_indexed",
    "translate_in", "translate_ou", "translate_in_naive",
    "verify_theorem2",
]


def indexed_prop_name(name: str, agent: int) -> str:
    return "%s@%d" % (name, agent)


def lift_to_indexed(m: Structure) -> Structure:
    """The common-interpretation structure over the indexed propositions.

    States, partitions, cell measures and priors are untouched; signals are
    dropped because they speak the original vocabulary.
    """
    props = tuple(indexed_prop_name(p, i) for p in m.props for i in m.agents)
    shared = {
        indexed_prop_name(p, i): m.interpretations[i][p]
        for p in m.props for i in m.agents
    }
    return Structure(
        n_agents=m.n_agents, states=m.states, props=props,
        partitions=m.partitions, beliefs=m.beliefs,
        interpretations={i: dict(shared) for i in m.agents},
        priors=m.priors, signals=None,
    )


def _translate(f, index: int, keep_outer: bool, naive_cb: bool, memo: dict):
    key = (f, index)
    out = memo.get(key)
    if out is not None:
        return out
    fm.check_depth(f, "translate")  # the recursion below follows f's depth
    if isinstance(f, fm.Prop):
        out = fm.IndexedProp(f.name, index)
    elif isinstance(f, fm.IndexedProp):
        raise AlreadyIndexed("formula already speaks the indexed language: %s"
                             % fm.print_formula(f))
    elif isinstance(f, fm.Not):
        out = fm.Not(_translate(f.arg, index, keep_outer, naive_cb, memo))
    elif isinstance(f, fm.And):
        out = fm.And(_translate(f.left, index, keep_outer, naive_cb, memo),
                     _translate(f.right, index, keep_outer, naive_cb, memo))
    elif isinstance(f, fm.ProbGe):
        arg_index = index if keep_outer else f.agent
        out = fm.ProbGe(
            tuple(fm.ProbTerm(t.coeff, t.agent,
                              _translate(t.arg, arg_index, keep_outer,
                                         naive_cb, memo))
                  for t in f.terms),
            f.bound)
    elif isinstance(f, fm.CB):
        if keep_outer or naive_cb:
            # For the innermost translation (naive_cb) this is the
            # structurally tempting clause; it is wrong and exists only so
            # that its failure can be demonstrated.
            out = fm.CB(f.group,
                        _translate(f.arg, index, keep_outer, naive_cb, memo))
        else:
            out = fm.CB(f.group, fm.members_believe(
                f.group,
                lambda j: _translate(f.arg, j, keep_outer, naive_cb, memo)))
    else:
        raise TypeError("expand() the formula before translating: %r" % (f,))
    memo[key] = out
    return out


def translate_in(f, agent: int, tautology_prop: str = None):
    """Innermost-scope translation of ``f`` for evaluating agent ``agent``."""
    core = fm.expand(f, tautology_prop)
    return _translate(core, agent, keep_outer=False, naive_cb=False, memo={})


def translate_in_naive(f, agent: int, tautology_prop: str = None):
    """Like ``translate_in`` but with the naive common-belief clause that
    keeps one index under the operator.  Known to be incorrect; used to
    demonstrate that the indexed clause is necessary."""
    core = fm.expand(f, tautology_prop)
    return _translate(core, agent, keep_outer=False, naive_cb=True, memo={})


def translate_ou(f, agent: int, tautology_prop: str = None):
    """Outermost-scope translation of ``f`` for evaluating agent ``agent``."""
    core = fm.expand(f, tautology_prop)
    return _translate(core, agent, keep_outer=True, naive_cb=False, memo={})


def verify_theorem2(m: Structure, corpus, directions=("in", "ou"),
                    naive_cb: bool = False) -> Report:
    """Check that ambiguous evaluation matches common-mode evaluation of the
    translations on the lifted structure, for every formula in the corpus,
    every state, and every agent.  Each (formula, agent, direction) compares
    two whole extensions; only where they differ are states walked, in
    ``states`` order, each giving one report entry.

    ``directions`` selects the innermost and/or outermost claim.  With
    ``naive_cb`` the innermost direction uses the known-bad common-belief
    clause; a non-empty report is then the expected outcome and exhibits a
    concrete counterexample.
    """
    report = Report()
    lifted = lift_to_indexed(m)
    ev = Evaluator(m)
    ev_lifted = Evaluator(lifted)
    taut = m.props[0]
    for f in corpus:
        for i in m.agents:
            pairs = []
            if "in" in directions:
                translator = translate_in_naive if naive_cb else translate_in
                pairs.append(("in", EvalMode.INNERMOST,
                              translator(f, i, taut)))
            if "ou" in directions:
                pairs.append(("ou", EvalMode.OUTERMOST,
                              translate_ou(f, i, taut)))
            for label, mode, translated in pairs:
                ext = ev.extension(i, f, mode)
                lifted_ext = ev_lifted.extension(i, translated,
                                                 EvalMode.COMMON)
                if ext == lifted_ext:
                    continue
                diverge = ext ^ lifted_ext
                for s in filter(diverge.__contains__, m.states):
                    left, right = s in ext, s in lifted_ext
                    report.add(
                        "translation-mismatch",
                        "%s-translation of %s diverges at (%s, %d): "
                        "%s vs %s" % (label, fm.print_formula(f), s, i,
                                      left, right),
                        direction=label, state=s, agent=i,
                        formula=fm.print_formula(f),
                        translated=fm.print_formula(translated),
                        original=left, lifted=right)
    return report
