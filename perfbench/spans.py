"""Spans around calls into the program's layers, for the traced run.

The program is not instrumented.  For the traced phase of a run the
benchmark swaps each listed public function for a wrapper, wherever a
module of the package or of the benchmark holds a reference to it, and
swaps the originals back afterwards.  A span records its name, start, end,
parent span and the op it belongs to; spans stay in memory and are written
out when the run ends.  A layer's self time is its spans' total duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict

# Layer module -> public functions the traced run wraps; "Evaluator.x"
# names a method.
LAYERS = {
    "semantics": ("Evaluator.common_belief_set", "Evaluator.eb_k",
                  "Evaluator.extension"),
    "formula": ("parse", "expand", "print_formula"),
    "structure": ("loads_structure", "validate_core", "validate_signals",
                  "generate_priors"),
    "transforms": ("fix_interpretation", "disjoint_copies",
                   "label_partitions", "verify_transform_equivalence"),
    "translation": ("lift_to_indexed", "translate_in", "translate_ou",
                    "verify_theorem2"),
    "generators": ("random_structure", "random_signal_structure",
                   "formula_corpus"),
}

CB_SIZES = (60, 120, 240)
MAX_SPANS = 200_000


def _cb_name(args):
    n = len(args[0].m.states)
    return "semantics.common_belief_set.%s" % (
        "n%d" % n if n in CB_SIZES else "other")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.op = None
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._patched = []

    # -- spans --

    def enter(self):
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        return time.perf_counter()

    def leave(self, name, start):
        end = time.perf_counter()
        span_id, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][1] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, parent, self.op, name, start, end))
        else:
            self.dropped += 1

    def span(self, name, fn, *args, **kw):
        start = self.enter()
        try:
            return fn(*args, **kw)
        finally:
            self.leave(name, start)

    # -- patching --

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kw):
            label = _cb_name(args) if name is None else name
            start = tracer.enter()
            try:
                return fn(*args, **kw)
            finally:
                tracer.leave(label, start)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Route every listed layer function through a span, wherever the
        package or the benchmark's own modules refer to it."""
        import ambilogic.semantics
        here = os.path.dirname(os.path.abspath(__file__))
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "ambilogic" or key.startswith("ambilogic.")
                   or os.path.dirname(os.path.abspath(
                       getattr(mod, "__file__", None) or "/")) == here]
        for layer, names in LAYERS.items():
            source = sys.modules["ambilogic." + layer]
            for attr in names:
                if attr.startswith("Evaluator."):
                    method = attr.split(".", 1)[1]
                    cls = ambilogic.semantics.Evaluator
                    orig = cls.__dict__[method]
                    label = (None if method == "common_belief_set"
                             else "semantics.%s" % method)
                    self._patched.append((cls, method, orig))
                    setattr(cls, method, self._wrap(label, orig))
                    continue
                orig = getattr(source, attr)
                wrapper = self._wrap("%s.%s" % (layer, attr), orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, key, orig))
                            setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def scaling_exponent(points):
    """Least-squares slope of log(seconds) against log(states)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den
