"""prodex benchmark: three workloads through `prodex.cli.main`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Each run is a closed loop with one client, one process and one worker.
Inputs are made from the seed before the timed process starts; the
workload process runs whole cycles of operations until S seconds are
spent and checks every output against independent oracles.  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced
replay plus scaling probes.  bench/README.md describes the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import plan as planmod  # noqa: E402

SETUP_PROCESSES = 8  # before the workload process, and again after it
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 20


class BenchError(Exception):
    pass


def _python(args, timeout):
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{Path(args[0]).name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(refs):
    """Set-up seconds of SETUP_PROCESSES fresh processes."""
    args = [HERE / "setup_probe.py", SRC, *refs]
    return [float(_python(args, SETUP_TIMEOUT_S))
            for _ in range(SETUP_PROCESSES)]


def execute(workload, seed, seconds, trace, tiny=False):
    """Generate inputs, run the workload process, return its raw result."""
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = planmod.build(workload, seed, seconds, trace, workdir, tiny)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        refs = plan["setup_scenarios"]
        if not trace:
            # warm-up: compiles bytecode and fills the file cache
            _python([HERE / "setup_probe.py", SRC, *refs], SETUP_TIMEOUT_S)
            setup = measure_setup(refs)
        result_path = workdir / "result.json"
        _python([HERE / "worker.py", plan_path, result_path], WORKER_TIMEOUT_S)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if not trace:
            # a second batch a run's length later, so that one burst of load
            # on the machine cannot move every sample behind the median
            result["setup"] = setup + measure_setup(refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    return result


def end_to_end(result):
    ops = result["ops"]
    ns = [op["ns"] for op in ops]
    units = sum(op["units"] for op in ops)
    p90 = statistics.quantiles(ns, n=10)[8] if len(ns) > 1 else ns[0]
    return {
        "setup_s": statistics.median(result["setup"]),
        "ops_per_s": units / (sum(ns) / 1e9),
        "op_p50_ms": statistics.median(ns) / 1e6,
        "op_p90_ms": p90 / 1e6,
        "certified_frac": sum(op["certified"] for op in ops) / units,
        "peak_rss_mb": result["rss_mb"],
    }


def summarize(workload, seed, seconds, trace, result, out=print):
    """Print the human-readable report; return the final JSON object."""
    ops = result["ops"]
    if trace:
        values = dict(result["layers"])
        table = metrics.PER_LAYER
    else:
        values = end_to_end(result)
        table = metrics.END_TO_END
    fails = [(op["kind"], msg) for op in ops for msg in op["fails"]]
    failed = sum(1 for op in ops if op["code"] != 0 or op["fails"])
    mismatches = result["mismatches"]

    out(f"prodex benchmark: workload={workload} seed={seed} "
        f"seconds={seconds} trace={trace}")
    out("closed loop: one client, one process, one worker. No layer has a "
        "queue, so time waited does not apply.")
    if trace:
        out(f"traced replay: {result['replayed']} operations, each run "
            "plain and traced; then coverage operations and scaling probes")
        out(f"threads probe: {result['threads_note']}")
    else:
        n = len(ops)
        total = sum(op["ns"] for op in ops) / 1e9
        out(f"timed operations: {n} in {total:.2f} s inside cli.main; "
            f"{n - int(0.9 * (n + 1))} lie beyond p90")
        out(f"setup_s samples ({len(result['setup'])} fresh processes): "
            + " ".join(f"{s:.4f}" for s in result["setup"]))
        out(f"peak RSS {result['rss_mb']:.1f} MB")
        kinds = {}
        for op in ops:
            kinds.setdefault(op["kind"], []).append(op["ns"] / 1e6)
        for kind, times in kinds.items():
            out(f"  op {kind}: n={len(times)} median "
                f"{statistics.median(times):.2f} ms")
        out("report digests (first cycle, repeated once, must match):")
        for op in result["repeats"]:
            out(f"  digest {op['kind']} {op['digest']}")
    if result["exhausted"]:
        out("note: the plan ran out of fresh inputs before the seconds did")
    out(f"checks: {len(ops)} operations checked, {len(fails)} failures, "
        f"{len(mismatches)} digest mismatches")
    for kind, msg in fails[:20]:
        out(f"  CHECK FAILED {kind}: {msg}")
    for kind in mismatches[:20]:
        out(f"  NOT DETERMINISTIC {kind}: report differs on repetition")
    reported = {}
    for name, (unit, *rest) in table.items():
        value = values.get(name)
        note = ""
        if trace:
            note = (f" [{result['sources'].get(name, 'not exercised')}; "
                    f"moves {rest[1]} on {rest[2]}]")
        if value is None:
            value = 0.0  # the layer was not exercised in this run
        out(f"  {name} = {value:.6g} {unit}{note}")
        reported[name] = {"value": value, "unit": unit}
    return {"correct": not fails and not mismatches,
            "attempted": len(ops), "failed": failed, "metrics": reported}


def self_test():
    """Tiny runs of every workload in both modes, plus a broken oracle."""
    problems = []
    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.exists():
        spec = json.loads(bench_json.read_text(encoding="utf-8"))
        if sorted(w["name"] for w in spec["workloads"]) != sorted(metrics.WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from metrics.py")
        for key, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"], m.get("bound"))
                      for m in spec[key]}
            wanted = {k: (v[0], v[1], v[2] if key == "end_to_end" else None)
                      for k, v in table.items()}
            if listed != wanted:
                problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    for workload in metrics.WORKLOADS:
        for trace in (0, 1):
            result = execute(workload, 1, 1, bool(trace), tiny=True)
            final = summarize(workload, 1, 1, trace, result, out=lambda s: None)
            table = metrics.PER_LAYER if trace else metrics.END_TO_END
            for name, (unit, *_rest) in table.items():
                got = final["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append(f"{workload} trace={trace}: {name} missing")
            if trace:
                for name in table:
                    if name not in result["layers"]:
                        problems.append(f"{workload}: {name} not exercised")
            if not final["correct"] or final["failed"]:
                problems.append(f"{workload} trace={trace}: checks failed")
            print(f"self-test {workload} trace={trace}: "
                  f"{final['attempted']} operations, correct={final['correct']}")
    problems += _broken_oracle_trips()
    for p in problems:
        print(f"SELF-TEST PROBLEM: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _broken_oracle_trips():
    """A deliberately wrong expected value must fail an output check."""
    import contextlib
    import io
    from fractions import Fraction

    import checks
    sys.path.insert(0, str(SRC))
    import prodex
    import prodex.cli

    def report(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = prodex.cli.main(argv + ["--report", "machine"])
        return code, json.loads(buf.getvalue())

    def midpoint(ref, tol):
        sc = prodex.load_scenario(ref)
        return prodex.expect(sc.function, sc.measure, tol).interval.midpoint

    builtin = SRC / "prodex" / "scenarios"
    cases = [
        (["expect", "discounted-uniform"], "expect",
         {"known_means": {"discounted-uniform": Fraction(1, 3)}}),
        (["game", "naming-game", "naming-demo", "--samples", "3"],
         "naming-demo", {"naming_value": "1/3"}),
    ]
    problems = []
    for argv, kind, wrong in cases:
        op = {"kind": kind, "argv": argv, "check": {"type": kind}}
        code, payload = report(argv)
        if checks.check(op, code, payload, checks.Oracles(builtin, midpoint)):
            problems.append(f"correct oracle rejected {' '.join(argv)}")
        if not checks.check(op, code, payload,
                            checks.Oracles(builtin, midpoint, **wrong)):
            problems.append(f"wrong oracle did not trip on {' '.join(argv)}")
        else:
            print(f"self-test: wrong expected value trips the {kind} check")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "prodex" / "__init__.py").is_file():
        print(f"error: no prodex sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = execute(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = summarize(args.workload, args.seed, args.seconds, args.trace,
                      result)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
