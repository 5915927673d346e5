"""Command-line interface.

Subcommands: expect, gn-trace, strong-approx, weak-approx, verify-strong,
verify-weak, game.  Scenarios are file paths or built-in names.  Every
command prints a text report (or the machine-readable JSON with
--report machine) and, when --report-dir is given, writes both side by
side.  Reports contain no timestamps: identical inputs produce byte-
identical machine reports.

Exit codes: 0 success / declared threshold met; 1 certification or
threshold failure, or any error raised while computing; 2 a malformed
flag or scenario.

`COMMANDS` is the one table of each command's settings: it gives the
subparser its flags, `run_scenario` resolves each setting once from it,
and the machine report's `params` state exactly the resolved settings,
beside the seed, tol and horizon every command takes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from .engine import expect
from .errors import ProdexError, ScenarioError, ValidationError
from .functions import Cylinder
from .games import (
    DEFAULT_PURIFY_RETRIES,
    FinitisticProfile,
    best_response_value,
    naming_game_exploit,
    naming_game_value,
    purify,
)
from .harness import verify_strong, verify_weak
from .martingale import find_strong_approx, trace
from .model import HybridMeasure, LazyPoint, MeasureAssignment
from .numeric import F0, F1, ValueBounds, as_fraction, round_up
from .scenario import BUILTIN_SCENARIOS, Scenario, load_scenario
from .seeds import derive_seed
from .tailclass import DEFAULT_RETRIES, weak_zero_from_sample

REPORT_SCHEMA_VERSION = 1


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _enclosure(vb: ValueBounds) -> dict:
    """An exact enclosure's ends as floats that still enclose it."""
    lo, hi = vb.outward()
    return {"lo": lo, "hi": hi}


def _interval_payload(vb: ValueBounds) -> dict:
    return {**_enclosure(vb), "width": round_up(vb.width)}


def _shown(bounds: dict) -> str:
    """The text form of a reported {lo, hi} pair."""
    return f"[{bounds['lo']!r}, {bounds['hi']!r}]"


def _stated(value):
    """A setting as a report states it: a rational rounded up by `round_up`,
    so a positive one never reads 0.0; an int, str or None as it is."""
    return round_up(value) if isinstance(value, Fraction) else value


def _resolve_settings(args, scenario: Scenario, fallbacks: dict):
    """A copy of args with the horizon and each setting in `fallbacks`
    resolved: its flag, else the scenario's default, else the fallback."""
    resolved = argparse.Namespace(**vars(args))
    for key, fallback in {"horizon": None, **fallbacks}.items():
        value = getattr(args, key, None)
        if value is None:
            value = scenario.defaults.get(key)
        setattr(resolved, key, fallback if value is None else value)
    return resolved


def _resolve_point(args, scenario: Scenario):
    if args.point == "lazy":
        return LazyPoint(derive_seed(args.seed, "cli-point"), scenario.measure)
    return scenario.point(args.point)


def _need(scenario: Scenario, part: str):
    """The scenario's `function` or `game`, which the command needs."""
    value = getattr(scenario, part)
    if value is None:
        raise ScenarioError(f"scenario declares no {part}", scenario.source)
    return value


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, text_lines, result).
# A handler builds its `result` once from exact values (bounds rounded
# outward, see `numeric`), and its text reads the numbers from `result`.
# ---------------------------------------------------------------------------

def _cmd_expect(args, scenario: Scenario):
    f = _need(scenario, "function")
    res = expect(f, scenario.measure, args.tol, horizon=args.horizon)
    result = {**_enclosure(res.bounds),
              "lo_rational": _frac_str(res.bounds.lo),
              "hi_rational": _frac_str(res.bounds.hi),
              "status": res.status, "eta": round_up(res.eta),
              "nodes_expanded": res.nodes_expanded,
              "oracle_used": res.oracle_used}
    lines = [
        f"expectation of {f.family} under {scenario.name}",
        f"  interval  {_shown(result)}",
        f"  width     {round_up(res.width)!r}",
        f"  status    {res.status}",
        f"  nodes     {res.nodes_expanded}",
    ]
    if res.eta > 0:
        lines.append(f"  eta       {result['eta']!r}")
    return (0 if res.certified else 1), lines, result


def _cmd_gn_trace(args, scenario: Scenario):
    f = _need(scenario, "function")
    tr = trace(f, scenario.measure, _resolve_point(args, scenario),
               args.n_max, args.tol, horizon=args.horizon)
    ref = tr.reference.bounds
    result = {
        "entries": [{"n": e.n, **_enclosure(e.bounds),
                     "eta": round_up(e.eta)} for e in tr.entries],
        "reference": _interval_payload(ref),
    }
    # the g_n column and E[f] show midpoints, point estimates, not bounds
    lines = [f"g_n trace at point {args.point} ({scenario.name})", "# n  g_n",
             *(f"{e.n}  {float(e.bounds.midpoint)!r}" for e in tr.entries),
             f"# reference E[f] = {float(ref.midpoint)!r} "
             f"(width {result['reference']['width']!r})"]
    return 0, lines, result


def _cmd_strong_approx(args, scenario: Scenario):
    f = _need(scenario, "function")
    res = find_strong_approx(f, scenario.measure,
                             _resolve_point(args, scenario), args.epsilon,
                             args.n_max, args.tol, horizon=args.horizon)
    result = {"outcome": res.outcome, "n": res.n,
              "undecided": list(res.undecided),
              "first_certified": res.first_certified,
              "value": (None if res.found_value is None
                        else _interval_payload(res.found_value)),
              "eta": round_up(res.eta)}
    lines = [f"strong approximation search at point {args.point} "
             f"(epsilon={_stated(args.epsilon)}, n_max={args.n_max})"]
    if res.is_found:
        lines.append(f"  Found({res.n})")
        lines.append(f"  g_n in {_shown(result['value'])}")
    elif res.outcome == "not_found":
        lines.append(f"  NotFoundUpTo({args.n_max})")
    else:
        lines.append(f"  Inconclusive(undecided n: {result['undecided']})")
    if res.eta > 0:
        lines.append(f"  eta {result['eta']!r}")
    return (0 if res.is_found else 1), lines, result


def _cmd_weak_approx(args, scenario: Scenario):
    f = _need(scenario, "function")
    cert = weak_zero_from_sample(
        f, scenario.measure, args.tol, args.depth, args.seed,
        retries=args.retries, horizon=args.horizon, reference=args.r)
    result = {"coordinate": cert.coordinate, "symbol_low": cert.symbol_low,
              "symbol_high": cert.symbol_high, "eta": round_up(cert.eta)}
    # exact point values: the nearest float, beside the rational itself
    for key in ("alpha", "achieved", "value_low", "value_high"):
        value = getattr(cert, key)
        result[key], result[f"{key}_rational"] = float(value), _frac_str(value)
    lines = [
        f"weak 0-approximation certificate ({scenario.name}, "
        f"depth {args.depth})",
        f"  coordinate   {cert.coordinate}",
        f"  alpha        {result['alpha_rational']} = {result['alpha']!r}",
        f"  mixes        {cert.symbol_low!r} (alpha) with {cert.symbol_high!r}",
        f"  achieved     {result['achieved']!r}",
    ]
    if cert.eta > 0:
        lines.append(f"  eta          {result['eta']!r}")
    return 0, lines, result


def _campaign(command: str, title: str, scenario: Scenario, report):
    """(code, lines, result) of a campaign against its threshold."""
    threshold = scenario.threshold(command, "min_certified_fraction")
    met = threshold is None or report.certified_fraction >= threshold
    result = {
        "samples": report.samples, "certified": report.certified,
        "inconclusive": report.inconclusive, "failed": report.failed,
        "certified_fraction": float(report.certified_fraction),
        "inconclusive_fraction": float(report.inconclusive_fraction),
        "max_eta": round_up(report.max_eta),
        "threshold": None if threshold is None else float(threshold),
        "records": [
            {"index": r.index, "substream": r.substream, "outcome": r.outcome,
             "detail": r.detail, "eta": round_up(r.eta)}
            for r in report.records
        ],
    }
    lines = [
        title,
        f"  samples              {report.samples}",
        f"  certified_fraction   {result['certified_fraction']!r}"
        f"  ({report.certified}/{report.samples})",
        f"  inconclusive         {report.inconclusive}",
        f"  failed               {report.failed}",
        f"  max eta              {result['max_eta']!r}",
    ]
    if threshold is not None:
        lines.append(f"  threshold            {result['threshold']!r} "
                     f"-> {'met' if met else 'MISSED'}")
    return (0 if met else 1), lines, result


def _cmd_verify_strong(args, scenario: Scenario):
    f = _need(scenario, "function")
    report = verify_strong(
        f, scenario.measure, args.epsilon, args.samples, args.n_max, args.tol,
        args.seed, horizon=args.horizon)
    return _campaign(
        "verify-strong", f"strong-approximation campaign ({scenario.name}, "
        f"epsilon={_stated(args.epsilon)}, n_max={args.n_max})",
        scenario, report)


def _cmd_verify_weak(args, scenario: Scenario):
    f = _need(scenario, "function")
    report = verify_weak(
        f, scenario.measure, args.depth, args.samples, args.tol, args.seed,
        horizon=args.horizon)
    return _campaign(
        "verify-weak",
        f"weak-approximation campaign ({scenario.name}, depth={args.depth})",
        scenario, report)


def _profile_payload(profile: FinitisticProfile) -> dict:
    mu = profile.measure
    head = []
    for i in range(1, mu.switch_index):
        a = mu.assignment_at(i)
        if isinstance(a, MeasureAssignment):
            head.append({"coordinate": i, "kind": "measure",
                         "weights": [float(w) for w in a.measure.weights]})
        else:
            head.append({"coordinate": i, "kind": "dirac",
                         "symbol": a.point.coordinate(i)})
    return {"switch_index": mu.switch_index, "head": head}


def _cmd_game_value(args, scenario: Scenario):
    res = best_response_value(_need(scenario, "game"), scenario.measure,
                              args.tol, horizon=args.horizon)
    result = {"value": _interval_payload(res.bounds),
              "action": res.action,
              "per_action": [{"action": a, **_interval_payload(r.bounds)}
                             for a, r in res.per_action]}
    lines = [f"best response against the scenario profile ({scenario.name})",
             f"  value in {_shown(result['value'])}",
             f"  argmax action {res.action!r}"]
    return 0, lines, result


def _cmd_game_purify(args, scenario: Scenario):
    res = purify(_need(scenario, "game"), scenario.measure, args.epsilon,
                 args.n_max, args.tol, args.seed, retries=args.retries,
                 horizon=args.horizon)
    result = {
        "n": res.n, "attempt": res.attempt, "sample_seed": res.sample_seed,
        "profile": _profile_payload(res.profile),
        "per_action": [
            {"action": c.action,
             "sigma_value": _interval_payload(c.sigma_value),
             "profile_value": _interval_payload(c.profile_value)}
            for c in res.per_action
        ],
        "eta": round_up(res.eta),
    }
    lines = [
        f"purified profile ({scenario.name}, "
        f"epsilon={_stated(args.epsilon)})",
        f"  switch index n = {res.n} (Dirac from coordinate {res.n} on)",
        f"  sample attempt {res.attempt}",
        *(f"  action {c['action']!r}: E_sigma in {_shown(c['sigma_value'])}, "
          f"E_profile in {_shown(c['profile_value'])}"
          for c in result["per_action"]),
    ]
    return 0, lines, result


def _cmd_game_naming_demo(args, scenario: Scenario):
    value = naming_game_value(scenario.measure)
    exploits = []
    all_pay_one = True
    for j in range(args.samples):
        sub = derive_seed(args.seed, "naming-profile", j)
        switch = 1 + (derive_seed(sub, "switch") % 6)
        tail = LazyPoint(derive_seed(sub, "tail"), scenario.measure)
        profile = FinitisticProfile(HybridMeasure.measures_then_point(
            scenario.measure, tail, switch))
        n, sym = naming_game_exploit(profile)
        # engine-verified: naming (n, sym) pays exactly 1 against tau
        payoff = Cylinder(n, {
            key: F1 if key[n - 1] == sym else F0
            for key in itertools.product(
                *(scenario.spaces.space_at(i).symbols
                  for i in range(1, n + 1)))
        })
        res = expect(payoff, profile.measure, args.tol)
        ok = res.bounds.is_point and res.bounds.lo == 1
        all_pay_one = all_pay_one and ok
        exploits.append({"profile": j, "coordinate": n, "symbol": sym})
    result = {"value": float(value), "value_rational": _frac_str(value),
              "profiles_exploited": args.samples,
              "all_payoff_one": all_pay_one,
              "exploits": exploits}
    lines = [
        f"naming game ({scenario.name})",
        f"  mixing value  {result['value']!r}  "
        f"({result['value_rational']}; no action does better)",
        f"  exploited {args.samples} finitistic profiles, payoff 1 each: "
        f"{all_pay_one}",
    ]
    return (0 if all_pay_one else 1), lines, result


#: per command (a game by its verb): its handler, and each setting it
#: reads besides the seed, tol and horizon, with the value it takes when
#: neither its flag nor the scenario's `defaults` set it.  A setting is a
#: flag of the subparser and a key of the report's `params`; the horizon
#: falls back to None, which `TailFunction.read_horizon` resolves.
COMMANDS = {
    "expect": (_cmd_expect, {}),
    "gn-trace": (_cmd_gn_trace, {"point": "lazy", "n_max": 8}),
    "strong-approx": (_cmd_strong_approx, {
        "point": "lazy", "epsilon": Fraction(1, 100), "n_max": 32}),
    "weak-approx": (_cmd_weak_approx, {"depth": 2, "r": None,
                                       "retries": DEFAULT_RETRIES}),
    "verify-strong": (_cmd_verify_strong, {"epsilon": Fraction(1, 100),
                                           "n_max": 32, "samples": 200}),
    "verify-weak": (_cmd_verify_weak, {"depth": 2, "samples": 200}),
    "game-value": (_cmd_game_value, {}),
    "game-purify": (_cmd_game_purify, {"epsilon": Fraction(1, 10), "n_max": 16,
                                       "retries": DEFAULT_PURIFY_RETRIES}),
    "game-naming-demo": (_cmd_game_naming_demo, {"samples": 100}),
}


def run_scenario(path: str, command: str, args) -> int:
    """Load a scenario, dispatch a command, emit reports, return exit code."""
    scenario = load_scenario(path)
    name = f"game-{args.verb}" if command == "game" else command
    handler, fallbacks = COMMANDS[name]
    args = _resolve_settings(args, scenario, fallbacks)
    code, lines, result = handler(args, scenario)
    params = {key: _stated(getattr(args, key))
              for key in ("seed", "tol", "horizon", *fallbacks)}
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "command": name,
               "scenario": scenario.name, "scenario_digest": scenario.digest,
               "params": params, "result": result}
    text = "\n".join(lines) + "\n"
    # encoded only when printed or written: large for a long campaign
    machine = (json.dumps(payload, sort_keys=True, indent=2) + "\n"
               if args.report == "machine" or args.report_dir is not None
               else None)
    sys.stdout.write(machine if args.report == "machine" else text)
    if args.report_dir is not None:
        directory = Path(args.report_dir)
        directory.mkdir(parents=True, exist_ok=True)
        stem = re.sub(r"[^A-Za-z0-9._-]+", "-", f"{name}-{scenario.name}")
        (directory / f"{stem}.txt").write_text(text, encoding="utf-8")
        (directory / f"{stem}.json").write_text(machine, encoding="utf-8")
    return code


def _ranged(convert, noun: str, admits, bound: str):
    """argparse type: `convert` the text and keep the values `admits`
    accepts, so an out-of-range flag exits 2 at parse time."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError, ValidationError):
            raise argparse.ArgumentTypeError(f"invalid {noun} {text!r}") from None
        if not admits(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return parse


#: sample, index, depth and retry counts; then the ranges that scenario
#: `defaults` and seeds are held to; a target may be any rational
_count = _ranged(int, "count", lambda v: v >= 1, ">= 1")
_horizon = _ranged(int, "horizon", lambda v: v >= 0, ">= 0")
_seed = _ranged(int, "seed", lambda v: 0 <= v < 2**64, "in [0, 2**64)")
_tol = _ranged(as_fraction, "tolerance", lambda v: v > 0, "> 0")
_epsilon = _ranged(as_fraction, "epsilon", lambda v: v >= 0, ">= 0")
_target = _ranged(as_fraction, "target", lambda v: True, "rational")
#: the flag type of each setting a `COMMANDS` entry reads, and the help
#: of those whose flag name does not say enough
_SETTING_TYPES = {"epsilon": _epsilon, "n_max": _count, "samples": _count,
                  "depth": _count, "point": str, "r": _target,
                  "retries": _count}
_SETTING_HELP = {
    "point": "named scenario point, or 'lazy' to sample one",
    "r": "override the target value (default: midpoint of E[f])"}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0,
                        help="64-bit master seed (default 0)")
    common.add_argument("--tol", type=_tol, default=Fraction(1, 10**9),
                        help="certification tolerance (default 1e-9)")
    common.add_argument("--report-dir", default=None,
                        help="write text + machine reports into this directory")
    common.add_argument("--report", choices=("text", "machine"), default="text",
                        help="stdout format (default text)")
    common.add_argument("--horizon", type=_horizon, default=None,
                        help="realization horizon for lazy points")

    parser = argparse.ArgumentParser(
        prog="prodex",
        description="certified expectations and approximation certificates "
                    "under infinite product measures",
        epilog="built-in scenarios: " + ", ".join(sorted(BUILTIN_SCENARIOS)))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *entries: str):
        """Subparser `name`: a scenario, then one flag per setting that
        its `COMMANDS` entries (`entries`, else `name` alone) read."""
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("scenario")
        for key in dict.fromkeys(key for entry in entries or (name,)
                                 for key in COMMANDS[entry][1]):
            p.add_argument("--" + key.replace("_", "-"),
                           type=_SETTING_TYPES[key],
                           help=_SETTING_HELP.get(key))
        return p

    command("expect", "certified enclosure of E[f]")
    command("gn-trace", "reverse-martingale trace g_1..g_N at a point")
    command("strong-approx", "smallest certified strong-approximation index")
    command("weak-approx", "single-coordinate mixing certificate for E[f]")
    command("verify-strong", "Monte Carlo campaign for strong approximations")
    command("verify-weak", "Monte Carlo campaign for weak 0-approximations")
    p = command("game", "minmax evaluation, purification, naming demo",
                "game-value", "game-purify", "game-naming-demo")
    p.add_argument("verb", choices=("value", "purify", "naming-demo"))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on first use, then reused."""
    return build_parser()


def _reject_other_verbs_flags(parser, args):
    """The game subparser takes every verb's flags: one outside the verb's
    own `COMMANDS` entry is a usage error (exit 2), not dropped."""
    own = COMMANDS[f"game-{args.verb}"][1]
    stray = [key for name, (_, keys) in COMMANDS.items() for key in keys
             if name.startswith("game-") and key not in own
             and getattr(args, key) is not None]
    if stray:
        parser.error(f"argument --{stray[0].replace('_', '-')}: not read by "
                     f"game {args.verb}")


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "game":
        _reject_other_verbs_flags(parser, args)
    try:
        return run_scenario(args.scenario, args.command, args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProdexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
