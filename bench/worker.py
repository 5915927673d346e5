"""The workload process of one benchmark run.

Usage: python3 worker.py PLAN.json RESULT.json

Runs the plan's cycles through `prodex.cli.main` in process, with
stdout captured, until the run's seconds are spent; the loop stops only
between cycles.  Each operation is timed alone; output checks, digests
and bookkeeping happen between operations and are not timed.

With tracing off it then repeats the first cycle to confirm that every
machine report is byte-identical.  With tracing on it runs every
operation twice, once plain and once with spans (alternating which goes
first), then runs the coverage operations and the scaling probes, and
computes the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import metrics  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

_now = time.perf_counter_ns


class Runner:
    def __init__(self, cli, oracles):
        self.cli = cli
        self.oracles = oracles

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = _now()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed operation
                code = f"exception {type(exc).__name__}: {exc}"
            ns = _now() - start
        return code, ns, out.getvalue()

    def execute(self, op, tracer=None, extra_argv=()):
        argv = op["argv"] + list(extra_argv)
        campaign = op["check"]["type"] == "campaign"
        units = int(checks.flag(argv, "--samples")) if campaign else 1
        if tracer is None:
            code, ns, text = self._call(argv)
        else:
            tracer.install()
            tracer.begin_op()
            try:
                code, _, text = self._call(argv)
            finally:
                profiles = (int(checks.flag(argv, "--samples"))
                            if op["check"]["type"] == "naming-demo" else 0)
                ns = tracer.end_op(op["kind"], units, len(text), profiles)
                tracer.uninstall()
        try:
            payload = json.loads(text) if text else None
        except ValueError:
            payload = None
        if campaign:
            certified = payload["result"]["certified"] if payload else 0
        else:
            certified = 1 if code == 0 else 0
        fails = checks.check(op, code, payload, self.oracles)
        if op["argv"][1].endswith(".json"):  # generated: used once
            self.oracles.forget(op["argv"][1])
        return {"kind": op["kind"], "ns": ns, "code": code, "units": units,
                "certified": certified,
                "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
                "fails": fails}


def _expect_midpoint(prodex):
    def midpoint(ref, tol):
        sc = prodex.load_scenario(ref)
        return prodex.expect(sc.function, sc.measure, tol).interval.midpoint
    return midpoint


def timed_loop(plan, per_op):
    """Run whole cycles until the run's seconds are spent."""
    deadline = time.perf_counter() + plan["seconds"]
    done = 0
    for cycle in plan["cycles"]:
        if done and time.perf_counter() >= deadline:
            return False
        for op in cycle:
            per_op(op)
        done += 1
    return True  # the plan ran out before the time did


def run_plain(runner, plan):
    records = []
    exhausted = timed_loop(plan, lambda op: records.append(runner.execute(op)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    first = plan["cycles"][0]
    repeats = [runner.execute(op) for op in first]
    mismatches = [r["kind"] for r, again in zip(records, repeats)
                  if r["digest"] != again["digest"]]
    return {"ops": records, "repeats": repeats, "mismatches": mismatches,
            "exhausted": exhausted, "rss_mb": rss_mb}


def _median_by(pairs):
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {k: statistics.median(v) for k, v in groups.items()}


def run_probes(runner, plan, prodex, records):
    probes = plan["probes"]
    out = {}
    # g_n traces at two lengths; per-rep sums over both oracle scenarios
    tr = Tracer()
    sums = {}
    for op in probes["trace"]:
        records.append(runner.execute(op, tr))
        key = (op["rep"], op["trace_n"])
        sums[key] = sums.get(key, 0) + tr.ops[-1]["children"].get(
            "martingale.trace", tr.ops[-1]["ns"])
    per_n = _median_by((n, total / 2 / 1e6) for (_, n), total in sums.items())
    n_lo, n_hi = probes["trace_n"]
    out["martingale.trace_ms.n64"] = per_n[n_lo]
    out["martingale.trace_ms.n256"] = per_n[n_hi]
    out["martingale.trace_slope"] = (math.log(per_n[n_hi] / per_n[n_lo])
                                     / math.log(n_hi / n_lo))
    # hull search at two depths, time per hull call
    hull = {}
    for op in probes["hull"]:
        t = Tracer()
        rec = runner.execute(op, t)
        records.append(rec)
        hull[op["hull_depth"]] = (t.mean_us("tailclass.hull")
                                  or rec["ns"] / 1e3 / rec["units"])
    (m_lo, t_lo), (m_hi, t_hi) = sorted(hull.items())
    out["tailclass.hull_slope"] = math.log2(t_hi / t_lo) / (m_hi - m_lo)
    # generic tree at two tolerances, nodes expanded
    du = prodex.load_scenario("discounted-uniform")
    tol_lo, tol_hi = (Fraction(t) for t in probes["tol"])
    nodes = [prodex.expect(du.function, du.measure, tol,
                           use_oracle=False).nodes_expanded
             for tol in (tol_lo, tol_hi)]
    out["engine.tol_slope"] = (math.log(nodes[1] / nodes[0])
                               / math.log(tol_lo / tol_hi))
    out["harness.threads_speedup"], out["threads_note"] = threads_speedup(
        runner, probes["threads"], records)
    return out


def threads_speedup(runner, ops, records):
    workers = len(os.sched_getaffinity(0))
    seconds = {1: 0, workers: 0}
    samples = {1: 0, workers: 0}
    digests = {}
    for _ in range(2):
        for threads in seconds:
            for op in ops:
                rec = runner.execute(op, extra_argv=["--threads", str(threads)])
                if rec["code"] == 2:
                    return 1.0, ("unavailable: --threads was rejected; "
                                 "reported as 1 (one worker)")
                records.append(rec)
                seconds[threads] += rec["ns"] / 1e9
                samples[threads] += rec["units"]
                if digests.setdefault(op["kind"], rec["digest"]) != rec["digest"]:
                    rec["fails"].append("report differs across thread counts")
    rate = {k: samples[k] / seconds[k] for k in seconds}
    return rate[workers] / rate[1], f"--threads {workers} vs 1"


def run_traced(runner, plan, prodex):
    tracer = Tracer()
    records, mismatches = [], []
    total_ns = {False: 0, True: 0}  # keyed by "traced"

    def pair(op):
        # alternate which run goes first, so warm-up favours neither side
        order = (True, False) if len(records) % 4 else (False, True)
        runs = {traced: runner.execute(op, tracer if traced else None)
                for traced in order}
        records.extend(runs.values())
        for traced, rec in runs.items():
            total_ns[traced] += rec["ns"]
        if runs[False]["digest"] != runs[True]["digest"]:
            mismatches.append(op["kind"])

    exhausted = timed_loop(plan, pair)
    replayed = len(records) // 2
    coverage = Tracer()
    for op in plan["coverage"]:
        records.append(runner.execute(op, coverage))
    probes = run_probes(runner, plan, prodex, records)
    measured = layer_metrics(tracer)
    fallback = layer_metrics(coverage)
    values, sources = {}, {}
    for name in metrics.PER_LAYER:
        if name in probes:
            values[name], sources[name] = probes[name], "probe"
        elif measured.get(name) is not None:
            values[name], sources[name] = measured[name], "workload"
        elif fallback.get(name) is not None:
            values[name], sources[name] = fallback[name], "coverage"
    values["trace.overhead_frac"] = total_ns[True] / total_ns[False] - 1
    sources["trace.overhead_frac"] = "workload"
    return {"ops": records, "mismatches": mismatches, "exhausted": exhausted,
            "layers": values, "sources": sources,
            "threads_note": probes["threads_note"],
            "replayed": replayed}


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import prodex
    import prodex.cli
    oracles = checks.Oracles(SRC / "prodex" / "scenarios",
                             _expect_midpoint(prodex))
    runner = Runner(prodex.cli, oracles)
    if plan["trace"]:
        result = run_traced(runner, plan, prodex)
    else:
        result = run_plain(runner, plan)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
