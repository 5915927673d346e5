"""Number literals of scenario files: read exactly, by one integer split,
and rejected at their JSON path when their value cannot print."""

import json
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodex.cli import main
from prodex.errors import ScenarioError, ValidationError
from prodex.numeric import as_fraction
from prodex.scenario import _decimal, parse_scenario

CYLINDER_MIX = resources.files("prodex").joinpath(
    "scenarios", "cylinder-mix.json").read_text(encoding="utf-8")


@st.composite
def decimal_texts(draw):
    """JSON-like number texts: a sign, digits with leading and trailing
    zeros, long digit runs, and `e`/`E` exponents with signs."""
    digits = st.text("0123456789", min_size=1, max_size=60)
    text = draw(st.sampled_from(["", "-"])) + draw(digits)
    if draw(st.booleans()):
        text += "." + draw(digits)
    if draw(st.booleans()):
        text += (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
                 + draw(st.text("0123456789", min_size=1, max_size=3)))
    return text


class TestDecimalSplit:
    @given(text=decimal_texts())
    @settings(max_examples=40)
    def test_matches_fraction_of_the_text(self, text):
        n, d = _decimal(text)
        assert Fraction(n, d) == Fraction(text)
        assert d == 10 ** (len(str(d)) - 1)  # a power of ten

    @pytest.mark.parametrize("text", [
        "0", "-0.0", "0.5", "-0.25", "1.0", "100", "1e5", "1E5", "1.5e+3",
        "2.50E-2", "-0.000e7", "000123.4500", "1e-0", "7e00"])
    def test_examples(self, text):
        assert Fraction(*_decimal(text)) == Fraction(text)

    def test_a_long_run_within_the_limit_reads_exactly(self):
        text = "0." + "0" * 3000 + "1" + "0" * 2000  # 5003 characters
        assert Fraction(*_decimal(text)) == Fraction(1, 10**3001)

    def test_the_limit_is_on_the_value_it_prints(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert _decimal("1e639") == (10**639, 1)  # 640 digits
            assert _decimal("1e640") is None
            assert _decimal("1e-639") == (1, 10**639)
            assert _decimal("1e-640") is None
            # 5e-640 is 1 / (2 * 10**639): its denominator has 640 digits
            assert Fraction(*_decimal("5e-640")) == Fraction(1, 2 * 10**639)
            assert _decimal("0." + "0" * 700) == (0, 1)
            assert _decimal("0e" + "9" * 700) == (0, 1)
            assert _decimal("1e" + "9" * 700) is None
            # no limit set: the default bounds what a literal may build
            sys.set_int_max_str_digits(0)
            assert _decimal("1e4299") == (10**4299, 1)
            assert _decimal("1e999999999") is None
        finally:
            sys.set_int_max_str_digits(limit)


def _scenario(spaces_head):
    return json.dumps({
        "spaces": {"head": [{"symbols": spaces_head}],
                   "tail": {"symbols": [0, 1]}},
        "measure": {"head": [[0.5, 0.5]],
                    "tail": {"kind": "constant", "weights": [0.5, 0.5]}}})


class TestSymbolLiterals:
    def test_a_float_literal_symbol_is_its_fraction(self):
        symbols = parse_scenario(_scenario([0.5, 1])).spaces.head[0].symbols
        assert symbols == (Fraction(1, 2), 1)
        assert [type(s) for s in symbols] == [Fraction, int]

    def test_a_string_symbol_stays_a_string(self):
        symbols = parse_scenario(_scenario(["0.5", 1])).spaces.head[0].symbols
        assert symbols == ("0.5", 1)
        assert [type(s) for s in symbols] == [str, int]

    def test_a_float_schema_version_is_its_value(self):
        doc = json.loads(CYLINDER_MIX)
        text = json.dumps(doc).replace('"schema_version": 1',
                                       '"schema_version": 1.0')
        assert parse_scenario(text).name == "cylinder-mix"


OVERSIZE = {
    "integer-5001-digits": "9" * 5001,
    "fraction-5001-digits": "0." + "0" * 4998 + "1",
    "exponent-99999": "1e99999",
    "exponent-999999999": "1e999999999",
}


@pytest.mark.parametrize("literal", list(OVERSIZE.values()),
                         ids=list(OVERSIZE))
class TestOversizeLiterals:
    """A literal whose value cannot print exits 2 at its JSON path; it
    never crashes the reader or builds the power of ten it names."""

    def text(self, literal):
        text = CYLINDER_MIX.replace('"value": 0.3', f'"value": {literal}')
        assert text != CYLINDER_MIX
        return text

    def test_library(self, literal):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(self.text(literal))
        assert exc.value.location == "function.table[1].value"
        assert "does not print within" in str(exc.value)

    def test_main(self, literal, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(self.text(literal))
        assert main(["expect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error: function.table[1].value: number literal" in err
        assert "Traceback" not in err


def test_oversize_literal_elsewhere_names_its_path():
    text = CYLINDER_MIX.replace('"epsilon": 0.2', '"epsilon": 1e99999')
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert exc.value.location == "defaults.epsilon"
    text = CYLINDER_MIX.replace('"symbols": [0, 1]',
                                '"symbols": [0, %s]' % ("1" * 5001))
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert exc.value.location == "spaces.tail.symbols[1]"


#: Fraction's syntax beyond JSON's: spaces, a plus sign and underscores;
#: and short junk, whose exponents stay small enough for `Fraction` itself
READER_TEXTS = st.one_of(
    decimal_texts(),
    st.tuples(st.sampled_from(["", " ", "\t", "+"]), decimal_texts(),
              st.sampled_from(["", " ", "\n"])).map("".join),
    decimal_texts().map(lambda t: t.replace("0", "0_", 1)),
    st.text("0123456789eE+-._/ ", max_size=6),
)


def read_by(read, text):
    """read(text), or the type of the error it raises."""
    try:
        return read(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


class TestBoundedStrings:
    """Numeric strings and rational flags are read by `as_fraction`: as
    `Fraction(text)` reads them, but held to the literal digit bound."""

    @given(text=READER_TEXTS)
    @settings(max_examples=40)
    def test_agrees_with_fraction_wherever_both_read(self, text):
        assert read_by(as_fraction, text) == read_by(Fraction, text)

    @pytest.mark.parametrize("text", [
        " 1.5e3\n", "+2E-2", "1_000e1_0", "5.e1", ".5e1", "7/4", " 1/3 "])
    def test_fraction_syntax_is_kept(self, text):
        assert as_fraction(text) == Fraction(text)

    def test_zero_reads_at_any_exponent(self):
        assert as_fraction("-0e999999999") == 0

    @pytest.mark.parametrize("text", ["1e999999999", "1e99999", "1e-99999",
                                      " -1E+4300 "])
    def test_past_the_bound_is_a_validation_error(self, text):
        with pytest.raises(ValidationError, match="does not print within"):
            as_fraction(text)


#: (where in cylinder-mix, replacement): numeric strings past the bound
STRING_REPROS = {
    "function.table[1].value": ('"value": 0.3', '"value": "1e999999999"'),
    "function.table[2].value": ('"value": 0.7', '"value": "1e99999"'),
    "measure.tail.weights[0]": ('"weights": [0.5, 0.5]',
                                '"weights": ["1e99999", 0.5]'),
}


@pytest.mark.parametrize("location", list(STRING_REPROS))
class TestOversizeStrings:
    def text(self, location):
        text = CYLINDER_MIX.replace(*STRING_REPROS[location])
        assert text != CYLINDER_MIX
        return text

    def test_library(self, location):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(self.text(location))
        assert exc.value.location == location
        assert "does not print within" in str(exc.value)

    def test_main(self, location, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(self.text(location))
        assert main(["expect", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: {location}: number " in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["expect", "cylinder-mix", "--tol", "1e999999999"],
    ["expect", "cylinder-mix", "--tol", "1e-99999"],
    ["strong-approx", "cylinder-mix", "--epsilon", "1e99999"],
    ["weak-approx", "cylinder-mix", "--r", "1e99999"],
])
def test_oversize_flags_exit_two_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[2]}: invalid" in err
    assert "Traceback" not in err
