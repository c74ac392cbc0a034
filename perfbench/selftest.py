"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the seeded generators are deterministic, that failure counting
sees the program's known-bad mutation, that every workload reports no
failure on the program as it is, and that ``BENCHMARK.json`` lists exactly
the metrics the benchmark prints.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run


class SelfTestFailure(Exception):
    pass


def require(condition, message):
    """Like ``assert``, but kept under ``python -O``."""
    if not condition:
        raise SelfTestFailure(message)


def check_generator_determinism():
    """Same seed, byte-identical JSON; another seed, other bytes."""
    import gen
    for kind in ("plain", "cross"):
        texts = [gen.structure_json(gen.seeded(seed, "selftest"), 240, 30,
                                    weights=(1, 8), signals=kind)
                 for seed in (7, 7, 8)]
        require(texts[0] == texts[1], "same seed, different %s JSON" % kind)
        require(texts[0] != texts[2], "seeds 7 and 8, same %s JSON" % kind)


def _campaign_failures(naive_cb, rounds=100):
    import workloads
    workdir = str(run.WORK / ("selftest-%d" % os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        w = workloads.CampaignWorkload(0, workdir, checks=("thm2-in",),
                                       naive_cb=naive_cb)
        w.setup()
        out = run.Outcome()
        run.run_rounds(w, out, rounds=rounds)
        bad = w.verify(out.results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = out.raised + sum(1 for op, _ in out.latencies if op in bad)
    return failed, len(out.latencies)


def check_failure_counting():
    """``Campaign(naive_cb=True)`` corrupts the innermost translation, so
    thm2-in trials must fail; without the hook none may."""
    failed, attempted = _campaign_failures(naive_cb=True)
    require(failed > 0, "naive_cb: 0 of %d thm2-in trials failed" % attempted)
    print("naive_cb thm2-in failed_ratio %.3f (%d of %d)"
          % (failed / attempted, failed, attempted))
    failed, attempted = _campaign_failures(naive_cb=False)
    require(failed == 0,
            "%d of %d thm2-in trials failed" % (failed, attempted))


def check_workloads_clean(seconds=1):
    """Every workload, run briefly in a child process, reports no failure."""
    import workloads
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", name,
             "--seed", "0", "--seconds", str(seconds), "--trace", "0"],
            cwd=str(run.ROOT), capture_output=True, text=True, timeout=180)
        require(proc.returncode == 0, "%s: %s" % (name, proc.stderr[-2000:]))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        require(result["correct"] and result["failed"] == 0,
                "%s: %r" % (name, result))
        print("%s: 0 failed of %d attempted" % (name, result["attempted"]))


def check_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    require(listed == list(run.END_TO_END), "end_to_end: %r" % listed)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    require(listed == run.per_layer_metrics(), "per_layer: %r" % listed)
    import workloads
    names = [w["name"] for w in spec["workloads"]]
    require(set(names) <= set(workloads.WORKLOADS), "workloads: %r" % names)


def main():
    if run._import_program() is None:
        return 2
    check_generator_determinism()
    check_failure_counting()
    check_benchmark_json()
    check_workloads_clean()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
