"""Benchmark for the ambilogic model checker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every workload is a closed loop with one client in one process:
each op starts when the previous one has returned.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it print the same
numbers by name, with units and their bases.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_REPEATS = 7

END_TO_END = (
    ("ops_per_s", "op/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("cold_op_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    from ambilogic.campaign import CHECK_NAMES
    from spans import CB_SIZES, LAYERS
    out = []
    for layer, names in LAYERS.items():
        for attr in names:
            base = "%s.%s" % (layer, attr.replace("Evaluator.", ""))
            if base == "semantics.common_belief_set":
                subs = ["n%d" % n for n in CB_SIZES] + ["other"]
                for sub in subs:
                    out += [("%s.%s.calls" % (base, sub), "count"),
                            ("%s.%s.self_s" % (base, sub), "s")]
                out.append(("%s.scaling_exponent" % base, "log/log"))
            else:
                out += [(base + ".calls", "count"), (base + ".self_s", "s")]
    out += [("campaign.%s.self_s" % name, "s") for name in CHECK_NAMES]
    out += [("cli.main.eval.calls", "count"), ("cli.main.eval.self_s", "s"),
            ("op.calls", "count"), ("op.self_s", "s"),
            ("trace.ops_per_s_untraced", "op/s"),
            ("trace.ops_per_s_traced", "op/s"),
            ("trace.overhead_pct", "%")]
    return out


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import the package from this checkout's ``src``; seconds taken, or
    None when the checkout holds no sources."""
    src = ROOT / "src"
    if not (src / "ambilogic" / "__init__.py").is_file():
        print("error: no ambilogic sources under %s" % src, file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import ambilogic
    elapsed = time.perf_counter() - started
    if Path(ambilogic.__file__).resolve().parent != src / "ambilogic":
        print("error: imported ambilogic from %s" % ambilogic.__file__,
              file=sys.stderr)
        return None
    return elapsed


def _digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode())
        h.update(Path(directory, name).read_bytes())
    return h.hexdigest()


def _settle():
    """Collect garbage and move what survives out of the collector's
    reach, so a timed region pays for collecting its own objects only, not
    for scanning what the benchmark holds."""
    gc.collect()
    gc.freeze()


def set_up(make, workdir, tracer=None):
    """Set the workload up SETUP_REPEATS times; returns the last instance,
    each repetition's seconds, and whether all wrote identical inputs."""
    times, digests = [], []
    for rep in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        w = make()
        _settle()
        traced = tracer is not None and rep == SETUP_REPEATS - 1
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            w.setup()
        finally:
            times.append(time.perf_counter() - started)
            if traced:
                tracer.uninstall()
        digests.append(_digest(workdir))
    return w, times, len(set(digests)) == 1


class Outcome:
    def __init__(self):
        self.latencies = []  # (op, seconds)
        self.results = {}
        self.inconsistent = set()
        self.raised = 0
        self.first_error = None
        self.busy = 0.0


def _run_round(w, ops, out, tracer, cold, busy_before):
    busy = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op = len(out.latencies)
            span = tracer.enter()
        started = time.perf_counter()
        try:
            result = w.run_op(op)
        except Exception as exc:  # an op that raises has failed
            result = exc
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.leave(w.op_name(op), span)
        busy += elapsed
        out.latencies.append((op, elapsed))
        if cold is not None:
            cold.run_due(busy_before + busy)
        if isinstance(result, Exception):
            out.raised += 1
            out.first_error = out.first_error or "%r: %r" % (op, result)
            continue
        # Keep a hash, not the result: what the run holds should not grow
        # with the results' size and show up in peak memory.
        result = hash(result)
        if op not in out.results:
            out.results[op] = result
        elif out.results[op] != result:
            out.inconsistent.add(op)
    return busy


def run_rounds(w, out, seconds=None, rounds=None, fresh=False, tracer=None,
               cold=None):
    """Closed loop, one client.  Runs whole rounds until the timed time
    reaches ``seconds`` (stopping where the total lands nearest to it) or
    until ``rounds`` rounds have run.  Each pass over the workload's pool
    starts from ``reset``, outside the timed ops; so does the first one
    when ``fresh``.  Between ops, ``cold`` runs the cold queries that are
    due."""
    done = 0
    busy = 0.0
    while True:
        if fresh:
            w.reset()
            _settle()
        fresh = True
        for ops in w.rounds():
            busy += _run_round(w, ops, out, tracer, cold, busy)
            done += 1
            if (done >= rounds if rounds is not None
                    else busy + busy / done / 2 >= seconds):
                out.busy += busy
                return done, busy


class ColdQueries:
    """The workload's one-shot ``cli.main(["eval", ...])`` queries.  With
    ``seconds``, ``run_due`` spreads them evenly over that much timed time,
    so their median samples the machine's speed over the whole run, not in
    one burst; ``finish`` runs the rest and compares every verdict with the
    oracle."""

    def __init__(self, w, seconds=None, tracer=None):
        self.w = w
        # A timed run asks each query ``cold_repeats`` times, for more
        # samples of the machine; every ask loads the model afresh.
        self.total = len(w.cold) * (w.cold_repeats if seconds else 1)
        self.step = (seconds or 0) / self.total
        self.tracer = tracer
        self.latencies, self.verdicts = [], []

    def _run_one(self):
        from ambilogic import cli
        path, text, state, agent, mode = self.w.cold[
            len(self.latencies) % len(self.w.cold)]
        argv = ["eval", "--model", path, "--formula", text, "--state", state,
                "--agent", str(agent), "--mode", mode]
        buf = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if self.tracer is not None:
                code = self.tracer.span("cli.main.eval", cli.main, argv)
            else:
                code = cli.main(argv)
        self.latencies.append(time.perf_counter() - started)
        self.verdicts.append((code, buf.getvalue().strip()))

    def run_due(self, busy):
        while (len(self.latencies) < self.total
               and len(self.latencies) * self.step <= busy):
            self._run_one()

    def finish(self):
        """(latencies, failures) of all the cold queries."""
        while len(self.latencies) < self.total:
            self._run_one()
        expected = self.w.cold_expected()
        failures = sum(
            1 for k, (code, got) in enumerate(self.verdicts)
            if code != 0
            or got != ("true" if expected[k % len(expected)] else "false"))
        return self.latencies, failures


def tail(latencies, pct):
    """(value, samples beyond) at the nearest-rank percentile ``pct``."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    args = _parse_args(argv)
    import_s = _import_program()
    if import_s is None:
        return 2
    import workloads
    from spans import Tracer, scaling_exponent
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (use one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    workdir = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    tracer = Tracer() if args.trace else None
    try:
        w, setup_times, same_inputs = set_up(
            lambda: cls(args.seed, str(workdir)), str(workdir), tracer)
        out = Outcome()
        _settle()
        if tracer is None:
            cold_queries = ColdQueries(w, args.seconds)
            run_rounds(w, out, seconds=args.seconds, cold=cold_queries)
            cold, cold_failed = cold_queries.finish()
        else:
            rounds, plain_busy = run_rounds(w, out, seconds=args.seconds / 2)
            tracer.install()
            try:
                _, traced_busy = run_rounds(w, out, rounds=rounds, fresh=True,
                                            tracer=tracer)
                tracer.op = None
                _settle()
                cold, cold_failed = ColdQueries(w, tracer=tracer).finish()
            finally:
                tracer.uninstall()
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / ("spans-%s-%d.jsonl"
                                 % (args.workload, args.seed)))
        bad = w.verify(out.results) | out.inconsistent
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [t for _, t in out.latencies]
    failed = out.raised + cold_failed + sum(
        1 for op, _ in out.latencies if op in bad)
    attempted = len(latencies) + len(cold)
    correct = failed == 0 and same_inputs
    lines = [
        "workload %s  seed %d  python %s  nproc %d  closed loop, 1 client"
        % (args.workload, args.seed, sys.version.split()[0], os.cpu_count()),
        "failed_ratio %.6f ratio  (%d failed of %d attempted: %d timed ops, "
        "%d cold queries)" % (failed / attempted, failed, attempted,
                              len(latencies), len(cold)),
    ]
    if not same_inputs:
        lines.append("error: set-up repetitions wrote different inputs")
    if out.first_error:
        lines.append("first error: %s" % out.first_error)

    if tracer is None:
        pct = w.tail_pct
        tail_s, beyond = tail(latencies, pct)
        values = {
            "ops_per_s": len(latencies) / out.busy,
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": tail_s * 1000,
            "cold_op_ms": statistics.median(cold) * 1000,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        notes = {
            "ops_per_s": "%d ops in %.3f s timed" % (len(latencies), out.busy),
            "op_p50_ms": "median of %d ops" % len(latencies),
            "op_tail_ms": "p%g of %d ops, %d beyond"
                          % (pct, len(latencies), beyond),
            "cold_op_ms": "median of %d cli eval calls, spread over the run"
                          % len(cold),
            "setup_s": "import %.4f s + median of %d set-ups"
                       % (import_s, SETUP_REPEATS),
            "peak_rss_mb": "ru_maxrss of this process",
        }
        units = dict(END_TO_END)
        lines += ["%-12s %.6g %s  (%s)" % (k, values[k], units[k], notes[k])
                  for k, _ in END_TO_END]
        points = w.scaling_points(out.latencies)
        if points:
            lines.append("cb_scaling_exponent %.4f log/log  (worst case "
                         "CB{1,2,3} p, median latency at %s states)"
                         % (scaling_exponent(points),
                            "/".join(str(n) for n, _ in points)))
    else:
        values = {}
        for name, unit in per_layer_metrics():
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = tracer.calls.get(span, 0)
            else:
                values[name] = tracer.self_s.get(span, 0.0)
        points = w.scaling_points(out.latencies[len(out.latencies) // 2:])
        values["semantics.common_belief_set.scaling_exponent"] = (
            scaling_exponent(points) if points else 0.0)
        n_ops = len(latencies) // 2
        values["trace.ops_per_s_untraced"] = n_ops / plain_busy
        values["trace.ops_per_s_traced"] = n_ops / traced_busy
        values["trace.overhead_pct"] = (traced_busy / plain_busy - 1) * 100
        lines.append("tracing overhead %.2f %% over %d ops (%d spans kept, "
                     "%d dropped)" % (values["trace.overhead_pct"], n_ops,
                                      len(tracer.spans), tracer.dropped))
        units = dict(per_layer_metrics())
        lines += ["%-50s %.6g %s" % (k, values[k], units[k])
                  for k, _ in per_layer_metrics()]

    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
