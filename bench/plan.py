"""Seeded input generation: operation plans and generated scenario files.

Everything a run feeds to prodex is made here, from the workload seed,
before the timed process starts: per-operation seeds, argv lists and
the JSON files of generated cylinder scenarios.  Every timed operation
gets inputs of its own (a fresh seed, tolerance or scenario file), so a
cache inside prodex can only help where a CLI user would really repeat
work.

A plan is a list of cycles.  The timed loop stops only between cycles,
so every run executes the operation kinds in the same proportions.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# Cycles planned per second of run: several times what the seed code
# completes, so faster code does not run out of fresh inputs.
CYCLES_PER_SECOND = {"strong-campaign": 8, "weak-campaign": 6, "queries": 2}


def _op(kind, argv, check, **extra):
    op = {"kind": kind, "argv": [str(a) for a in argv] + ["--report", "machine"],
          "check": check}
    op.update(extra)
    return op


class Generator:
    """Draws seeds and writes scenario files for one run."""

    def __init__(self, label: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{label}:{seed}")
        self.label = label
        self.workdir = workdir
        self.files = 0

    def seed(self) -> int:
        return self.rng.getrandbits(63)

    def tol(self) -> str:
        return f"{self.rng.randint(1, 99)}e-10"

    def cylinder(self, depth: int) -> str:
        """Write a binary depth-`depth` cylinder scenario; return its path.

        Head measures put k/20 on symbol 1 (k in 2..18) and the table
        holds values j/100, all drawn from the generator, so each file
        differs in both measure and function.
        """
        rng = self.rng
        self.files += 1
        name = f"{self.label}-d{depth}-{self.files}"
        measure = []
        for _ in range(depth):
            k = rng.randint(2, 18)
            measure.append(f"[{(20 - k) * 5 / 100}, {k * 5 / 100}]")
        rows = ",\n".join(
            '{"prefix": %s, "value": %s}' % (json.dumps(list(p)),
                                             rng.randint(0, 100) / 100)
            for p in itertools.product((0, 1), repeat=depth))
        text = (
            '{"schema_version": 1, "name": "%s",\n'
            '"spaces": {"head": [%s], "tail": {"symbols": [0, 1]}},\n'
            '"measure": {"head": [%s], "tail": {"kind": "constant", '
            '"weights": [0.5, 0.5]}},\n'
            '"function": {"family": "cylinder", "depth": %d, "range": [0, 1], '
            '"table": [\n%s]}}\n'
        ) % (name, ", ".join(['{"symbols": [0, 1]}'] * depth),
             ", ".join(measure), depth, rows)
        path = self.workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _strong_cycle(g: Generator, scale: dict):
    n = scale["strong_samples"]
    return [
        _op("verify-strong/discounted-uniform",
            ["verify-strong", "discounted-uniform", "--samples", n,
             "--seed", g.seed()], {"type": "campaign"}),
        _op("verify-strong/example-3-4",
            ["verify-strong", "example-3-4", "--samples", n,
             "--seed", g.seed()], {"type": "campaign"}),
    ]


def _weak_cycle(g: Generator, scale: dict):
    du, e34, ct = scale["weak_samples"]
    return [
        _op("verify-weak/discounted-uniform/d8",
            ["verify-weak", "discounted-uniform", "--depth", 8,
             "--samples", du, "--seed", g.seed()], {"type": "campaign"}),
        _op("verify-weak/example-3-4",
            ["verify-weak", "example-3-4", "--samples", e34,
             "--seed", g.seed()], {"type": "campaign"}),
        _op("verify-weak/cylinder-threshold",
            ["verify-weak", "cylinder-threshold", "--samples", ct,
             "--seed", g.seed()], {"type": "campaign"}),
    ]


def _query_cycle(g: Generator, scale: dict, index: int):
    ops = []
    for depth in scale["query_depths"]:
        hull_depth = min(depth, 8)
        ops += [
            _op(f"expect/gen-d{depth}", ["expect", g.cylinder(depth)],
                {"type": "expect"}),
            _op(f"strong-approx/gen-d{depth}",
                ["strong-approx", g.cylinder(depth), "--seed", g.seed(),
                 "--epsilon", "0.2", "--n-max", depth + 2],
                {"type": "strong-approx", "depth": depth}),
            _op(f"gn-trace/gen-d{depth}",
                ["gn-trace", g.cylinder(depth), "--seed", g.seed(),
                 "--n-max", depth + 2],
                {"type": "gn-trace", "depth": depth}),
            _op(f"weak-approx/gen-d{depth}",
                ["weak-approx", g.cylinder(depth), "--seed", g.seed(),
                 "--depth", hull_depth],
                {"type": "weak-approx"}),
        ]
    # A second weak-approx on the deepest cylinders puts p90 in the middle
    # of that operation's latency group rather than at a group boundary.
    depth = scale["query_depths"][-1]
    ops.append(_op(f"weak-approx/gen-d{depth}",
                   ["weak-approx", g.cylinder(depth), "--seed", g.seed(),
                    "--depth", min(depth, 8)], {"type": "weak-approx"}))
    for name in ("discounted-uniform", "example-3-4", "cylinder-mix",
                 "cylinder-threshold"):
        ops.append(_op(f"expect/{name}", ["expect", name, "--tol", g.tol()],
                       {"type": "expect"}))
    epsilon = f"0.0{g.rng.randint(5, 50):02d}"
    ops += [
        _op("strong-approx/discounted-uniform",
            ["strong-approx", "discounted-uniform", "--seed", g.seed()],
            {"type": "strong-approx"}),
        _op("strong-approx/example-3-4/all-ones",
            ["strong-approx", "example-3-4", "--point", "all-ones",
             "--epsilon", epsilon],
            {"type": "strong-approx", "all_ones_epsilon": epsilon}),
        _op("gn-trace/cylinder-mix",
            ["gn-trace", "cylinder-mix", "--seed", g.seed(), "--n-max", 8],
            {"type": "gn-trace", "depth": 2}),
        _op("gn-trace/example-3-4",
            ["gn-trace", "example-3-4", "--seed", g.seed(), "--n-max", 16],
            {"type": "gn-trace"}),
    ]
    for name in ("cylinder-mix", "discounted-uniform", "example-3-4"):
        ops.append(_op(f"weak-approx/{name}",
                       ["weak-approx", name, "--seed", g.seed()],
                       {"type": "weak-approx"}))
    for name in ("purify-demo", "purify-demo-quad"):
        ops.append(_op(f"game-value/{name}",
                       ["game", name, "value", "--tol", g.tol()],
                       {"type": "game-value"}))
        ops.append(_op(f"game-purify/{name}",
                       ["game", name, "purify", "--seed", g.seed()],
                       {"type": "game-purify"}))
    ops.append(_op("game-naming-demo",
                   ["game", "naming-game", "naming-demo", "--seed", g.seed(),
                    "--samples", scale["naming_samples"]],
                   {"type": "naming-demo"}))
    long_name = ("discounted-uniform", "example-3-4")[index % 2]
    ops.append(_op(f"gn-trace/{long_name}/n{scale['long_trace']}",
                   ["gn-trace", long_name, "--seed", g.seed(),
                    "--n-max", scale["long_trace"]],
                   {"type": "gn-trace"}))
    return ops


FULL = {
    "strong_samples": 250,
    "weak_samples": (4, 150, 1250),
    "query_depths": (6, 8, 10),
    "naming_samples": 100,
    "long_trace": 256,
    "trace_probe": (64, 256),
    "hull_probe": (6, 8),
    "tol_probe": ("1e-3", "2e-4"),
    "threads_samples": 300,
    "probe_reps": 3,
}

TINY = {
    "strong_samples": 20,
    "weak_samples": (2, 10, 50),
    "query_depths": (4, 6),
    "naming_samples": 5,
    "long_trace": 16,
    "trace_probe": (8, 32),
    "hull_probe": (3, 5),
    "tol_probe": ("1e-2", "2e-3"),
    "threads_samples": 10,
    "probe_reps": 1,
}


def _cycles(workload: str, g: Generator, scale: dict, count: int):
    if workload == "strong-campaign":
        return [_strong_cycle(g, scale) for _ in range(count)]
    if workload == "weak-campaign":
        return [_weak_cycle(g, scale) for _ in range(count)]
    return [_query_cycle(g, scale, i) for i in range(count)]


def _scenario_refs(cycles):
    """Built-in names and generated files that the given cycles load."""
    refs = []
    for op in itertools.chain.from_iterable(cycles):
        ref = op["argv"][1]
        if ref not in refs:
            refs.append(ref)
    return refs


def build(workload: str, seed: int, seconds: int, trace: bool,
          workdir: Path, tiny: bool = False) -> dict:
    """Make the plan of one run and write its scenario files."""
    scale = TINY if tiny else FULL
    g = Generator(workload, seed, workdir)
    count = 1 if tiny else max(2, CYCLES_PER_SECOND[workload] * seconds)
    cycles = _cycles(workload, g, scale, count)
    plan = {
        "seconds": seconds,
        "trace": trace,
        "cycles": cycles,
        # the first cycle holds one scenario of every kind the workload uses
        "setup_scenarios": _scenario_refs(cycles[:1]),
    }
    if trace:
        cg = Generator("coverage", seed, workdir)
        plan["coverage"] = (_strong_cycle(cg, TINY) + _weak_cycle(cg, TINY)
                            + _query_cycle(cg, scale, 0))
        pg = Generator("probes", seed, workdir)
        plan["probes"] = {
            "trace": [
                _op(f"gn-trace/{name}/n{n}",
                    ["gn-trace", name, "--seed", s, "--n-max", n],
                    {"type": "gn-trace"}, rep=rep, trace_n=n)
                for rep, s in enumerate(
                    pg.seed() for _ in range(scale["probe_reps"]))
                for n in scale["trace_probe"]
                for name in ("discounted-uniform", "example-3-4")],
            "trace_n": list(scale["trace_probe"]),
            "hull": [
                _op(f"verify-weak/discounted-uniform/d{m}",
                    ["verify-weak", "discounted-uniform", "--depth", m,
                     "--samples", 2 * scale["probe_reps"],
                     "--seed", pg.seed()],
                    {"type": "campaign"}, hull_depth=m)
                for m in scale["hull_probe"]],
            "tol": list(scale["tol_probe"]),
            "threads": [
                _op(f"verify-strong/{name}",
                    ["verify-strong", name, "--samples",
                     scale["threads_samples"], "--seed", pg.seed()],
                    {"type": "campaign"})
                for name in ("discounted-uniform", "example-3-4")],
        }
    return plan
