"""Scenario files: JSON descriptions of spaces, measures, functions, points.

A scenario bundles everything a command needs: the coordinate spaces,
the product measure (head array plus tail rule), the function under
study, named points, and optionally a game section and verification
thresholds.  Numbers read exactly: literals with decimal semantics (0.3
means 3/10), split into digits and exponent in integers, and strings as
`Fraction` reads them ("1/3"); one whose value would not print within
`sys.get_int_max_str_digits()` digits (4300 when unlimited) is rejected
at its JSON path.  Seeds are 64-bit unsigned integers.

Validation errors carry a location breadcrumb (section and index) so a
malformed weight names the coordinate it belongs to.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional

from .errors import ProdexError, ScenarioError, ValidationError
from .functions import (
    Cylinder,
    DiscountedSum,
    GeometricWeights,
    ProductIndicator,
    TailFunction,
)
from .games import GameSpec
from .model import (
    FORMULA_FAMILIES,
    ConstantMeasureTail,
    ConstantSymbol,
    CoordinateMeasure,
    CoordinateSpace,
    DescribedPoint,
    LazyPoint,
    PeriodicMeasuresTail,
    PeriodicSymbols,
    PointSpec,
    ProductMeasure,
    SpaceFamily,
    formula_tail,
)
from .numeric import as_fraction, decimal_ratio as _decimal, digit_limit
from .seeds import check_seed

SCHEMA_VERSION = 1

BUILTIN_SCENARIOS = {
    "example-3-4": "example-3-4.json",
    "discounted-uniform": "discounted-uniform.json",
    "cylinder-mix": "cylinder-mix.json",
    "cylinder-threshold": "cylinder-threshold.json",
    "naming-game": "naming-game.json",
    "purify-demo": "purify-demo.json",
    "purify-demo-quad": "purify-demo-quad.json",
}


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    spaces: SpaceFamily
    measure: ProductMeasure
    function: Optional[TailFunction]
    points: Mapping[str, PointSpec]
    game: Optional[GameSpec] = None
    thresholds: Mapping = field(default_factory=dict)
    defaults: Mapping = field(default_factory=dict)
    digest: str = ""
    source: str = ""

    def point(self, name: str) -> PointSpec:
        try:
            return self.points[name]
        except KeyError:
            known = ", ".join(sorted(self.points)) or "(none)"
            raise ScenarioError(
                f"unknown point {name!r}; scenario defines: {known}",
                self.source) from None

    def threshold(self, command: str, key: str) -> Optional[Fraction]:
        return self.thresholds.get(command, {}).get(key)


def _object(value, location) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"expected an object, got {value!r}", location)
    return value


def _list(value, location) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"expected a list, got {value!r}", location)
    return value


def _require(mapping, key, location):
    if key not in _object(mapping, location):
        raise ScenarioError(f"missing required key {key!r}", location)
    return mapping[key]


class _Literal(str):
    """A JSON number's text, any but a plain int's, as `_number` reads it;
    a message names it by the Fraction it denotes."""

    def __repr__(self) -> str:
        ratio = _decimal(self)
        return repr(Fraction(*ratio)) if ratio else str.__repr__(self)


def _number(value, location) -> Fraction:
    """A number, exact: a literal by `decimal_ratio`, a JSON string by
    `as_fraction`; one past their digit bound fails at `location`."""
    if type(value) is _Literal:
        ratio = _decimal(value)
        if ratio is None:
            raise ScenarioError(f"number literal does not print within "
                                f"{digit_limit()} digits", location)
        return Fraction(*ratio)
    try:
        return as_fraction(value)
    except ValidationError as exc:
        raise ScenarioError(str(exc), location) from None
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ScenarioError(f"expected a number, got {value!r}",
                            location) from None


def _integer(value, location, minimum: int) -> int:
    number = _number(value, location)
    if number.denominator != 1 or number < minimum:
        raise ScenarioError(f"expected an integer >= {minimum}, got {value!r}",
                            location)
    return int(number)


#: JSON ints and strings as parsed here, a float literal is read as its
#: Fraction (`_symbol`); lists and objects are not hashable, and booleans
#: would alias the symbols 0 and 1
_SYMBOL_TYPES = frozenset({int, str})


def _symbol(value, location):
    if type(value) is _Literal:
        return _number(value, location)
    if type(value) not in _SYMBOL_TYPES:
        raise ScenarioError(
            f"a symbol is a number or a string, got {value!r}", location)
    return value


def _symbols(values, location) -> tuple:
    values = _list(values, location)
    if not _SYMBOL_TYPES.issuperset(map(type, values)):
        return tuple(_symbol(v, f"{location}[{pos}]")
                     for pos, v in enumerate(values))
    return tuple(values)


def _numbers(values, location) -> list:
    if not isinstance(values, list):
        raise ScenarioError(f"expected a list of numbers, got {values!r}",
                            location)
    return [_number(v, f"{location}[{pos}]") for pos, v in enumerate(values)]


def _value_range(data, location) -> tuple:
    """Declared (lo, hi) of a function or game as Fractions, or Nones."""
    if data is None:
        return None, None
    bounds = _numbers(data, location)
    if len(bounds) != 2:
        raise ScenarioError("a range is a [lo, hi] pair", location)
    return tuple(bounds)


def _build_spaces(data, loc) -> SpaceFamily:
    head = []
    entries = _list(_object(data, loc).get("head", []), f"{loc}.head")
    for pos, entry in enumerate(entries, start=1):
        eloc = f"{loc}.head[{pos - 1}]"
        symbols = _symbols(_require(entry, "symbols", eloc), f"{eloc}.symbols")
        head.append(CoordinateSpace(pos, symbols))
    tail = _require(data, "tail", loc)
    tail_symbols = _symbols(_require(tail, "symbols", f"{loc}.tail"),
                            f"{loc}.tail.symbols")
    return SpaceFamily(tuple(head), tail_symbols)


def _build_measure_vector(index, weights, spaces, loc) -> CoordinateMeasure:
    space = spaces.space_at(index)
    weights = _numbers(weights, loc)
    if len(weights) != space.size:
        raise ScenarioError(
            f"{len(weights)} weights for {space.size} symbols at "
            f"coordinate {index}", loc)
    return CoordinateMeasure.from_weights(index, space.symbols, weights)


def _build_measure_tail(data, spaces, head_len, loc):
    kind = _require(data, "kind", loc)
    probe = head_len + 1
    if kind == "constant":
        weights = _require(data, "weights", loc)
        return ConstantMeasureTail(
            _build_measure_vector(probe, weights, spaces, f"{loc}.weights"))
    if kind == "periodic":
        templates = []
        periods = _require(data, "weights", loc)
        if not isinstance(periods, list):
            raise ScenarioError("periodic weights are a list of weight lists",
                                f"{loc}.weights")
        for off, weights in enumerate(periods):
            templates.append(
                _build_measure_vector(probe + off, weights, spaces,
                                      f"{loc}.weights[{off}]"))
        return PeriodicMeasuresTail(tuple(templates))
    if kind == "formula":
        family = _require(data, "family", loc)
        if not isinstance(family, str) or family not in FORMULA_FAMILIES:
            raise ScenarioError(f"unknown formula family {family!r}",
                                f"{loc}.family")
        params = _object(data.get("params", {}), f"{loc}.params")
        params = {key: _number(v, f"{loc}.params.{key}")
                  if type(v) is _Literal else v for key, v in params.items()}
        try:
            return formula_tail(family, params)
        except TypeError as exc:
            raise ScenarioError(f"bad parameters for {family}: {exc}",
                                f"{loc}.params") from None
    raise ScenarioError(f"unknown measure tail kind {kind!r}", loc)


def _build_measure(data, spaces, loc) -> ProductMeasure:
    head = []
    entries = _list(_object(data, loc).get("head", []), f"{loc}.head")
    for pos, weights in enumerate(entries, start=1):
        head.append(
            _build_measure_vector(pos, weights, spaces, f"{loc}.head[{pos - 1}]"))
    tail = _build_measure_tail(_require(data, "tail", loc), spaces,
                               len(head), f"{loc}.tail")
    try:
        return ProductMeasure(spaces, tuple(head), tail)
    except ValidationError as exc:  # the head fits: it was built per space
        raise ScenarioError(str(exc), f"{loc}.tail") from None


def _build_symbol_tail(data, loc):
    kind = _require(data, "kind", loc)
    if kind == "constant_symbol":
        return ConstantSymbol(_symbol(_require(data, "symbol", loc),
                                      f"{loc}.symbol"))
    if kind == "periodic_symbols":
        return PeriodicSymbols(_symbols(_require(data, "symbols", loc),
                                        f"{loc}.symbols"))
    raise ScenarioError(f"unknown symbol tail kind {kind!r}", loc)


def _build_function(data, spaces, loc) -> TailFunction:
    family = _require(data, "family", loc)
    value_range = _value_range(data.get("range"), f"{loc}.range")
    if family == "cylinder":
        depth = _integer(_require(data, "depth", loc), f"{loc}.depth", 0)
        # one pass to {prefix: Fraction}: a row that fails the quick test
        # is checked in order, and each literal read once, to one Fraction
        memo, table = {}, {}
        rows = _list(_require(data, "table", loc), f"{loc}.table")
        for pos, row in enumerate(rows):
            prefix = row.get("prefix") if type(row) is dict else None
            key = tuple(prefix) if type(prefix) is list else None
            if (key is None or len(key) != depth or "value" not in row
                    or not _SYMBOL_TYPES.issuperset(map(type, key))
                    or key in table):
                rloc = f"{loc}.table[{pos}]"
                key = _symbols(_require(row, "prefix", rloc), f"{rloc}.prefix")
                if len(key) != depth:
                    raise ScenarioError(f"prefix has {len(key)} symbols, "
                                        f"expected {depth}", f"{rloc}.prefix")
                if key in table:
                    raise ScenarioError(
                        f"prefix {list(key)} is already given at "
                        f"{loc}.table[{list(table).index(key)}]",
                        f"{rloc}.prefix")
                _require(row, "value", rloc)
            value = row["value"]
            number = memo.get(value) if type(value) is _Literal else None
            if number is None:
                number = memo[value] = _number(value, f"{loc}.table[{pos}].value")
            table[key] = number
        # a row no point can reach would still widen the derived range;
        # the table keeps the rows' order, so a key's position is its row's
        for j, column in enumerate(zip(*table)):
            outside = set(column).difference(spaces.space_at(j + 1).symbols)
            if outside:
                pos, sym = next((pos, key[j]) for pos, key in enumerate(table)
                                if key[j] in outside)
                raise ScenarioError(
                    f"symbol {sym!r} is not in the space of coordinate "
                    f"{j + 1}", f"{loc}.table[{pos}].prefix[{j}]")
        f = Cylinder(depth, table, *value_range)
        # every prefix over the declared spaces must be covered; the rows
        # are distinct such prefixes, so counting them is enough
        lists = [spaces.space_at(i).symbols for i in range(1, depth + 1)]
        if len(table) != math.prod(map(len, lists)):
            missing = next(combo for combo in itertools.product(*lists)
                           if combo not in table)
            raise ScenarioError(f"table misses prefix {list(missing)}",
                                f"{loc}.table")
        return f
    if family == "discounted_sum":
        wspec = _require(data, "weights", loc)
        if _require(wspec, "kind", f"{loc}.weights") != "geometric":
            raise ScenarioError("only geometric weight sequences are supported",
                                f"{loc}.weights")
        weights = GeometricWeights(
            _number(_require(wspec, "coef", f"{loc}.weights"),
                    f"{loc}.weights.coef"),
            _number(_require(wspec, "ratio", f"{loc}.weights"),
                    f"{loc}.weights.ratio"))
        pairs = _require(data, "scores", loc)
        if not isinstance(pairs, list):
            raise ScenarioError("scores are a list of [symbol, score] pairs",
                                f"{loc}.scores")
        scores = {}
        for pos, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ScenarioError("score entries are [symbol, score] pairs",
                                    f"{loc}.scores[{pos}]")
            symbol = _symbol(pair[0], f"{loc}.scores[{pos}][0]")
            scores[symbol] = _number(pair[1], f"{loc}.scores[{pos}][1]")
        for space in (*spaces.head, spaces.space_at(len(spaces.head) + 1)):
            for sym in space.symbols:
                if sym not in scores:
                    raise ScenarioError(
                        f"symbol {sym!r} of coordinate {space.index} has no "
                        f"score", f"{loc}.scores")
        return DiscountedSum(weights, scores, *value_range)
    if family == "product_indicator":
        targets = _object(_require(data, "targets", loc), f"{loc}.targets")
        head = _symbols(targets.get("head", []), f"{loc}.targets.head")
        tail = _build_symbol_tail(_require(targets, "tail", f"{loc}.targets"),
                                  f"{loc}.targets.tail")
        try:
            return ProductIndicator(spaces, head, tail)
        except ValidationError as exc:
            raise ScenarioError(str(exc), f"{loc}.targets") from None
    raise ScenarioError(f"unknown function family {family!r}", loc)


def _build_point(data, measure, loc) -> PointSpec:
    kind = _require(data, "kind", loc)
    if kind == "described":
        head = _symbols(data.get("head", []), f"{loc}.head")
        tail = _build_symbol_tail(_require(data, "tail", loc), f"{loc}.tail")
        point = DescribedPoint(head, tail)
        try:
            point.validate_against(measure.spaces)
        except ValidationError as exc:
            raise ScenarioError(str(exc), loc) from None
        return point
    if kind == "lazy":
        seed = _require(data, "seed", loc)
        try:
            check_seed(seed)
        except ValidationError:
            raise ScenarioError("seed must be a 64-bit unsigned integer",
                                loc) from None
        return LazyPoint(seed, measure)
    raise ScenarioError(f"unknown point kind {kind!r}", loc)


def _build_game(data, spaces, loc) -> GameSpec:
    actions = _symbols(_require(data, "actions", loc), f"{loc}.actions")
    rng = _value_range(_require(data, "range", loc), f"{loc}.range")
    if rng[0] is None:
        raise ScenarioError("a range is a [lo, hi] pair", f"{loc}.range")
    payoffs = {}
    for a in actions:
        key = str(a)
        spec = _require(_require(data, "payoffs", loc), key, f"{loc}.payoffs")
        payoffs[a] = _build_function(spec, spaces, f"{loc}.payoffs.{key}")
    return GameSpec(actions, spaces, payoffs, rng[0], rng[1])


#: the campaigns a scenario may hold to a threshold, and the one key read
_THRESHOLD_COMMANDS = ("verify-strong", "verify-weak")
_THRESHOLD_KEY = "min_certified_fraction"


def _thresholds(data, loc) -> dict:
    """Per-campaign certified-fraction thresholds, each in [0, 1]."""
    out = {}
    for command, section in _object(data, loc).items():
        if command not in _THRESHOLD_COMMANDS:
            raise ScenarioError(
                f"no threshold applies to {command!r}; known: "
                f"{', '.join(_THRESHOLD_COMMANDS)}", f"{loc}.{command}")
        out[command] = {}
        for key, value in _object(section, f"{loc}.{command}").items():
            where = f"{loc}.{command}.{key}"
            if key != _THRESHOLD_KEY:
                raise ScenarioError(
                    f"unknown threshold {key!r}; known: {_THRESHOLD_KEY}",
                    where)
            value = _number(value, where)
            if not 0 <= value <= 1:
                raise ScenarioError(f"expected a fraction in [0, 1], got "
                                    f"{value}", where)
            out[command][key] = value
    return out


#: defaults read by the CLI, each with its smallest admissible value
_COUNT_DEFAULTS = {"n_max": 1, "depth": 1, "samples": 1, "horizon": 0}


def _defaults(data, loc) -> dict:
    """CLI defaults, converted and range-checked at load."""
    out = {}
    for key, value in _object(data, loc).items():
        if key in _COUNT_DEFAULTS:
            value = _integer(value, f"{loc}.{key}", _COUNT_DEFAULTS[key])
        elif key == "epsilon":
            value = _number(value, f"{loc}.{key}")
            if value < 0:
                raise ScenarioError("epsilon must be nonnegative",
                                    f"{loc}.{key}")
        else:
            raise ScenarioError(
                f"unknown default {key!r}; known: epsilon, "
                f"{', '.join(_COUNT_DEFAULTS)}", f"{loc}.{key}")
        out[key] = value
    return out


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    try:
        data = json.loads(text, parse_float=_Literal)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            source) from None
    except ValueError:
        # an int literal too long for int(): keep its text, for `_number`
        # to reject at its JSON path
        limit = digit_limit()
        data = json.loads(text, parse_float=_Literal, parse_int=lambda t: (
            _Literal(t) if len(t.lstrip("-")) > limit else int(t)))
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object", source)
    version = data.get("schema_version", SCHEMA_VERSION)
    if type(version) is _Literal:
        version = _number(version, source)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version}", source)
    try:
        spaces = _build_spaces(_require(data, "spaces", source), "spaces")
        measure = _build_measure(_require(data, "measure", source), spaces,
                                 "measure")
        function = None
        if "function" in data:
            function = _build_function(data["function"], spaces, "function")
        points = {}
        for name, spec in _object(data.get("points", {}), "points").items():
            points[name] = _build_point(spec, measure, f"points.{name}")
        game = None
        if "game" in data:
            game = _build_game(data["game"], spaces, "game")
        thresholds = _thresholds(data.get("thresholds", {}), "thresholds")
        defaults = _defaults(data.get("defaults", {}), "defaults")
    except ScenarioError:
        raise
    except ProdexError as exc:
        raise ScenarioError(str(exc), source) from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Scenario(
        name=data.get("name", source),
        spaces=spaces,
        measure=measure,
        function=function,
        points=points,
        game=game,
        thresholds=thresholds,
        defaults=defaults,
        digest=digest,
        source=source,
    )


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario from a file path or a built-in name."""
    if path_or_name in BUILTIN_SCENARIOS:
        filename = BUILTIN_SCENARIOS[path_or_name]
        try:
            text = resources.files("prodex").joinpath(
                "scenarios", filename).read_text(encoding="utf-8")
        except OSError:
            raise ScenarioError(
                f"built-in scenario file {filename!r} is missing from the "
                f"installed package", path_or_name) from None
        return parse_scenario(text, path_or_name)
    path = Path(path_or_name)
    if not path.exists():
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ScenarioError(
            f"no such file, and not a built-in scenario (built-ins: {known})",
            path_or_name)
    return parse_scenario(path.read_text(encoding="utf-8"), str(path))
