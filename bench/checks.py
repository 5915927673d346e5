"""Output checks against oracles that do not go through prodex.

Expectations of cylinder functions are recomputed as exact table sums
from the scenario JSON.  E = 1/2 is known in closed form for
discounted-uniform and cylinder-mix.  For example-3-4, E = prod (1 -
2**-i), which lies in the envelope [P60 * (1 - 2**-60), P60] of the
60-factor partial product P60.  The one check that does call prodex
compares a weak-approx certificate with the midpoint of the matching
`expect` enclosure; the caller passes that midpoint in as a function.

Every check returns a list of failure messages; an empty list passes.
Machine reports give some endpoints as nearest-rounded floats.  Rounding
is monotone, so an exact value inside [lo, hi] stays inside the rounded
endpoints, and those comparisons cannot fail spuriously.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

F0, F1 = Fraction(0), Fraction(1)

KNOWN_MEANS = {"discounted-uniform": Fraction(1, 2),
               "cylinder-mix": Fraction(1, 2)}
NAMING_VALUE = "1/2"
DEFAULT_TOL = Fraction(1, 10**9)


def e34_envelope():
    partial = F1
    for i in range(1, 61):
        partial *= 1 - Fraction(1, 2**i)
    return partial * (1 - Fraction(1, 2**60)), partial


def _frac(text: str) -> Fraction:
    return Fraction(text)


def flag(argv, name, default=None):
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


class Oracles:
    """Independent reference values for the scenarios of one run."""

    def __init__(self, builtin_dir: Path, expect_midpoint,
                 known_means=None, naming_value=NAMING_VALUE):
        self.builtin_dir = builtin_dir
        self.expect_midpoint = expect_midpoint
        self.known_means = dict(KNOWN_MEANS if known_means is None
                                else known_means)
        self.naming_value = naming_value
        self._data = {}

    def data(self, ref: str) -> dict:
        if ref not in self._data:
            path = (Path(ref) if ref.endswith(".json")
                    else self.builtin_dir / f"{ref}.json")
            self._data[ref] = json.loads(path.read_text(encoding="utf-8"),
                                         parse_float=Fraction)
        return self._data[ref]

    def forget(self, ref: str) -> None:
        self._data.pop(ref, None)

    def mean(self, ref: str):
        """Enclosure (lo, hi) of E[f] for scenario `ref`, or None."""
        if ref in self.known_means:
            e = self.known_means[ref]
            return e, e
        data = self.data(ref)
        if data.get("name") == "example-3-4":
            return e34_envelope()
        fn = data.get("function", {})
        if fn.get("family") == "cylinder":
            e = cylinder_mean(fn, data)
            if e is not None:
                return e, e
        return None

    def action_means(self, ref: str) -> dict:
        data = self.data(ref)
        return {a: cylinder_mean(spec, data)
                for a, spec in data["game"]["payoffs"].items()}

    def threshold(self, ref: str, command: str):
        section = self.data(ref).get("thresholds", {}).get(command, {})
        value = section.get("min_certified_fraction")
        return None if value is None else Fraction(value)


def cylinder_mean(fn: dict, data: dict):
    """Exact sum over the table of value * product of coordinate weights."""
    spaces, measure = data["spaces"], data["measure"]

    def symbols(i):
        head = spaces.get("head", [])
        return head[i - 1]["symbols"] if i <= len(head) else spaces["tail"]["symbols"]

    def weights(i):
        head = measure.get("head", [])
        if i <= len(head):
            return head[i - 1]
        tail = measure["tail"]
        return tail["weights"] if tail["kind"] == "constant" else None

    total = F0
    for row in fn["table"]:
        p = Fraction(row["value"])
        for i, sym in enumerate(row["prefix"], start=1):
            w = weights(i)
            if w is None:
                return None
            p *= Fraction(w[symbols(i).index(sym)])
        total += p
    return total


def _meets(lo, hi, mean) -> bool:
    return lo <= mean[1] and hi >= mean[0]


def _meets_float(lo: float, hi: float, mean) -> bool:
    return lo <= float(mean[1]) and hi >= float(mean[0])


def check(op: dict, code, payload, oracles: Oracles) -> list:
    """Failure messages for one operation's machine report."""
    kind = op["check"]["type"]
    if payload is None:
        # a nonzero exit without a report is counted as uncertified, not
        # as a wrong answer
        return [] if code != 0 else ["exit 0 but no machine report"]
    try:
        return CHECKS[kind](op, code, payload["result"],
                            payload.get("params", {}), oracles)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _check_campaign(op, code, r, params, oracles):
    argv = op["argv"]
    fails = []
    samples = int(flag(argv, "--samples"))
    if r["samples"] != samples:
        fails.append(f"ran {r['samples']} samples, asked for {samples}")
    if r["certified"] + r["inconclusive"] + r["failed"] != r["samples"]:
        fails.append("outcome counts do not partition the samples")
    if len(r["records"]) != r["samples"]:
        fails.append("record count differs from sample count")
    threshold = oracles.threshold(argv[1], argv[0])
    if threshold is not None and Fraction(r["certified"], r["samples"]) < threshold:
        fails.append(f"certified {r['certified']}/{r['samples']} below the "
                     f"scenario threshold {threshold}")
    return fails


def _check_expect(op, code, r, params, oracles):
    fails = []
    lo, hi = _frac(r["lo_rational"]), _frac(r["hi_rational"])
    tol = Fraction(flag(op["argv"], "--tol", DEFAULT_TOL))
    if r["status"] != "certified" or hi - lo > 2 * tol:
        fails.append(f"not certified to tol {tol}: status {r['status']}")
    mean = oracles.mean(op["argv"][1])
    if mean is not None and not _meets(lo, hi, mean):
        fails.append(f"enclosure [{lo}, {hi}] misses E in "
                     f"[{float(mean[0])!r}, {float(mean[1])!r}]")
    return fails


def _check_gn_trace(op, code, r, params, oracles):
    fails = []
    entries = r["entries"]
    n_max = int(flag(op["argv"], "--n-max"))
    if [e["n"] for e in entries] != list(range(1, n_max + 1)):
        fails.append("trace entries are not indexed 1..n_max")
    mean = oracles.mean(op["argv"][1])
    if mean is None:
        return fails
    ref = r["reference"]
    if not _meets_float(ref["lo"], ref["hi"], mean):
        fails.append("reference enclosure misses E")
    depth = op["check"].get("depth")
    if depth is not None:
        # g_n of a depth-d cylinder equals E once every table coordinate
        # keeps its measure, i.e. for n > d
        for e in entries[depth:]:
            if not _meets_float(e["lo"], e["hi"], mean):
                fails.append(f"g_{e['n']} misses E although n > depth {depth}")
                break
    return fails


def _all_ones_index(epsilon: Fraction):
    """Smallest n with g_n(all-ones) certified within epsilon of E.

    On example-3-4, g_n(all-ones) = prod_{i<n} (1 - 2**-i) exactly.
    Returns None when some smaller index cannot be decided against the
    envelope of E, because then the finder may report inconclusive.
    """
    e_lo, e_hi = e34_envelope()
    g = F1
    for n in range(1, 61):
        if g - e_lo <= epsilon:
            return n
        if g - e_hi <= epsilon:
            return None
        g *= 1 - Fraction(1, 2**n)
    return None


def _check_strong_approx(op, code, r, params, oracles):
    if code != 0:
        return []
    fails = []
    if r["outcome"] != "found":
        fails.append(f"exit 0 with outcome {r['outcome']}")
    depth = op["check"].get("depth")
    if depth is not None and not 1 <= r["n"] <= depth + 1:
        fails.append(f"found n={r['n']}, but g_{depth + 1} = E exactly")
    eps = op["check"].get("all_ones_epsilon")
    if eps is not None:
        want = _all_ones_index(Fraction(eps))
        if want is not None and r["n"] != want:
            fails.append(f"found n={r['n']} at all-ones, oracle says {want}")
    return fails


def _check_weak_approx(op, code, r, params, oracles):
    fails = []
    ref = op["argv"][1]
    tol = Fraction(flag(op["argv"], "--tol", DEFAULT_TOL))
    achieved = _frac(r["achieved_rational"])
    alpha = _frac(r["alpha_rational"])
    if not F0 <= alpha <= F1:
        fails.append(f"mixing weight {alpha} outside [0, 1]")
    midpoint = oracles.expect_midpoint(ref, tol)
    if achieved != midpoint:
        fails.append(f"achieved {achieved} is not the expect midpoint {midpoint}")
    mean = oracles.mean(ref)
    if mean is not None and not (mean[0] - tol <= achieved <= mean[1] + tol):
        fails.append(f"achieved {achieved} is farther than tol from E")
    return fails


def _check_game_value(op, code, r, params, oracles):
    best = max(oracles.action_means(op["argv"][1]).values())
    v = r["value"]
    if not _meets_float(v["lo"], v["hi"], (best, best)):
        return [f"game value [{v['lo']}, {v['hi']}] misses {float(best)!r}"]
    return []


def _check_game_purify(op, code, r, params, oracles):
    fails = []
    means = oracles.action_means(op["argv"][1])
    eps = params["epsilon"]
    for entry in r["per_action"]:
        s, p = entry["sigma_value"], entry["profile_value"]
        e = means[entry["action"]]
        if not _meets_float(s["lo"], s["hi"], (e, e)):
            fails.append(f"action {entry['action']}: E_sigma misses {float(e)!r}")
        gap = max(p["hi"] - s["lo"], s["hi"] - p["lo"])
        if gap > eps + 1e-12:
            fails.append(f"action {entry['action']}: profile moved by {gap}")
    return fails


def _check_naming_demo(op, code, r, params, oracles):
    fails = []
    if r["value_rational"] != oracles.naming_value:
        fails.append(f"naming value {r['value_rational']}, expected "
                     f"{oracles.naming_value}")
    if r["all_payoff_one"] is not True:
        fails.append("some finitistic profile was not exploited for payoff 1")
    samples = int(flag(op["argv"], "--samples"))
    if r["profiles_exploited"] != samples:
        fails.append("profile count differs from --samples")
    return fails


CHECKS = {
    "campaign": _check_campaign,
    "expect": _check_expect,
    "gn-trace": _check_gn_trace,
    "strong-approx": _check_strong_approx,
    "weak-approx": _check_weak_approx,
    "game-value": _check_game_value,
    "game-purify": _check_game_purify,
    "naming-demo": _check_naming_demo,
}
