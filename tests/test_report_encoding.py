"""The machine report's encoder against the stdlib's indented encoder.

`cli._machine_json` writes each container of scalars, such as a
campaign record, in one call of the C encoder; its output must be
byte-identical to ``json.dumps(payload, sort_keys=True, indent=2)``.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import prodex.cli as cli


def stdlib(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


#: the separators the fast path writes between a record's members, and
#: the text around them, as keys and as values
SEPARATOR_TEXT = st.sampled_from(
    [",\n        ", ",\n  ", "\n      }", ": ", '", "', "{\n", "}", "[]"])
TEXT = st.one_of(
    st.text(max_size=8),
    st.text(alphabet='"\\\n\t\x00\x1f\x7fé中😀,: ', max_size=8),
    SEPARATOR_TEXT)
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.inf,
                     -math.inf]))
INTS = st.one_of(st.integers(), st.integers(2**64, 2**200),
                 st.sampled_from([2**64, -(2**64)]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
#: a flat record: what the fast path writes in one call
RECORDS = st.dictionaries(TEXT, SCALARS, max_size=6)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, RECORDS, st.lists(SCALARS, max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24)
#: a campaign's shape: records under a nested result, 0, 1 or more
CAMPAIGNS = st.builds(
    lambda params, records: {"params": params,
                             "result": {"records": records, "samples": 1}},
    RECORDS, st.lists(RECORDS, max_size=5))


@given(payload=st.one_of(PAYLOADS, CAMPAIGNS))
@settings(max_examples=40)
def test_encoder_matches_the_stdlib(payload):
    assert cli._machine_json(payload) == stdlib(payload)


def test_edge_payloads_match_the_stdlib():
    for payload in ([], {}, [{}], [[]], {"records": []}, {"records": [{}]},
                    {"records": [{"eta": -0.0}]}, (1, (2, {"a": ()})),
                    {"a": {"b": {"c": [None, True, 2**64, 5e-324]}}},
                    {1: [1], 2.5: {"x": 1}, -3: 0.5}, {None: [None]},
                    {True: {}}, {math.inf: [math.nan]}, "\x00é", 2**70):
        assert cli._machine_json(payload) == stdlib(payload), payload


def test_unencodable_payloads_raise_as_the_stdlib_raises():
    for payload in ({(1,): 2}, {"a": {(1,): [2]}}, {"a": object()},
                    [[object()]], {1: [2], "a": 3}):
        raised = []
        for encode in (cli._machine_json, stdlib):
            try:
                encode(payload)
            except TypeError as exc:
                raised.append(str(exc))
        assert len(raised) == 2 and raised[0] == raised[1], payload


def test_encoder_without_the_c_accelerator(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    cli._flat_encoder.cache_clear()
    try:
        for payload in ({"records": [{"eta": 0.5, "detail": None}],
                         "s": ",\n        "}, [1, [2.5, "é"]], {}):
            assert cli._machine_json(payload) == stdlib(payload)
    finally:
        cli._flat_encoder.cache_clear()


def test_long_campaign_report_is_the_stdlib_encoding_of_itself():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify-weak", "cylinder-threshold", "--samples",
                         "1250", "--report", "machine"]) == 0
    report = out.getvalue()
    assert len(json.loads(report)["result"]["records"]) == 1250
    assert report == stdlib(json.loads(report)) + "\n"
