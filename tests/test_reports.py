"""Golden machine reports: the CLI's output stays byte-identical.

Each case runs one CLI invocation with `--report machine` and compares
its stdout, byte for byte, with the report stored under `tests/golden/`.
The cases cover every subcommand on the built-in scenarios, lazy and
described points, explicit horizons and small campaigns, so a refactor
that changes any certified number, record or field shows up here.
Scenarios that only the tests use live under `tests/scenarios/`; a
case names one by its `Path`, and its golden by the file's stem, so the
golden names do not depend on where the checkout lies.  A case that
prints no report stores its exit status and its error line instead, so
an error is pinned as exactly as a result.

A change that alters reports on purpose regenerates the files with
`PYTHONPATH=src python tests/test_reports.py` and explains the diff.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from prodex.cli import main

GOLDEN = Path(__file__).parent / "golden"
#: depth 8, binary, with a different head weight at every coordinate
SKEWED = Path(__file__).parent / "scenarios" / "cylinder-skewed.json"
#: depth 3, binary: at horizon 2 some walk points read the unread x_3
WALK = Path(__file__).parent / "scenarios" / "cylinder-walk.json"

CASES = [
    ["expect", "example-3-4"],
    ["expect", "discounted-uniform"],
    ["expect", "cylinder-mix"],
    ["expect", "cylinder-threshold"],
    ["gn-trace", "example-3-4", "--point", "all-ones", "--n-max", "8"],
    ["gn-trace", "example-3-4", "--seed", "5", "--n-max", "12"],
    ["gn-trace", "example-3-4", "--seed", "5", "--horizon", "6",
     "--n-max", "10"],
    ["gn-trace", "discounted-uniform", "--seed", "3"],
    ["gn-trace", "discounted-uniform", "--seed", "3", "--horizon", "4"],
    ["gn-trace", "discounted-uniform", "--point", "all-ones",
     "--horizon", "0"],
    ["gn-trace", "cylinder-mix", "--point", "all-zeros"],
    ["gn-trace", "cylinder-threshold", "--seed", "2", "--horizon", "2"],
    ["strong-approx", "example-3-4", "--point", "all-ones"],
    ["strong-approx", "example-3-4", "--seed", "4"],
    ["strong-approx", "example-3-4", "--seed", "4", "--horizon", "6"],
    ["strong-approx", "discounted-uniform", "--seed", "1"],
    ["strong-approx", "cylinder-mix", "--seed", "6"],
    ["weak-approx", "cylinder-mix", "--seed", "7"],
    ["weak-approx", "discounted-uniform", "--seed", "2"],
    ["weak-approx", "example-3-4", "--seed", "3", "--depth", "8"],
    ["weak-approx", "cylinder-threshold", "--seed", "1"],
    ["verify-strong", "discounted-uniform", "--samples", "12",
     "--seed", "21"],
    ["verify-strong", "discounted-uniform", "--samples", "8", "--seed", "4",
     "--horizon", "3"],
    ["verify-strong", "example-3-4", "--samples", "12", "--seed", "21"],
    ["verify-strong", "example-3-4", "--samples", "8", "--seed", "5",
     "--horizon", "12"],
    ["verify-strong", "cylinder-mix", "--samples", "8", "--seed", "8"],
    ["verify-strong", "cylinder-threshold", "--samples", "8", "--seed", "3",
     "--horizon", "1"],
    ["verify-weak", "cylinder-mix", "--samples", "12", "--seed", "21"],
    ["verify-weak", "discounted-uniform", "--samples", "8", "--seed", "3"],
    ["verify-weak", "example-3-4", "--samples", "6", "--seed", "9"],
    ["verify-weak", "example-3-4", "--samples", "6", "--seed", "9",
     "--depth", "10"],
    ["verify-weak", "cylinder-threshold", "--samples", "8", "--seed", "2"],
    ["game", "purify-demo", "value"],
    ["game", "purify-demo-quad", "value"],
    ["game", "purify-demo", "purify", "--seed", "3"],
    ["game", "purify-demo-quad", "purify", "--seed", "1"],
    ["game", "naming-game", "naming-demo", "--samples", "8", "--seed", "5"],
    ["expect", SKEWED],
    ["gn-trace", SKEWED, "--seed", "5", "--n-max", "10"],
    ["gn-trace", SKEWED, "--seed", "5", "--n-max", "10", "--horizon", "4"],
    ["strong-approx", SKEWED, "--seed", "4", "--epsilon", "0.2",
     "--n-max", "10"],
    ["strong-approx", SKEWED, "--seed", "4", "--epsilon", "0.02",
     "--n-max", "10"],
    ["weak-approx", SKEWED, "--seed", "3", "--depth", "8"],
    ["verify-weak", SKEWED, "--samples", "6", "--seed", "2"],
    # horizons below the hull depth, where the read limits of lazy points
    # decide what the hull search may read
    ["verify-weak", "example-3-4", "--samples", "6", "--seed", "9",
     "--horizon", "4"],
    ["verify-weak", "discounted-uniform", "--depth", "8", "--samples", "4",
     "--seed", "3", "--horizon", "2"],
    ["verify-weak", "discounted-uniform", "--depth", "50", "--samples", "2",
     "--seed", "3", "--horizon", "45"],
    ["weak-approx", SKEWED, "--seed", "3", "--depth", "8", "--horizon", "2"],
    # samples whose witnesses are determined but a walk point is not:
    # inconclusive in the campaign, passed over by weak-approx
    ["verify-weak", WALK, "--depth", "2", "--horizon", "2", "--samples", "12",
     "--seed", "183"],
    ["weak-approx", WALK, "--depth", "2", "--horizon", "2", "--seed", "183"],
    # weak campaigns at the bench's own shape: 150 hulls of depth 30, and
    # discounted sums at depth 8
    ["verify-weak", "example-3-4", "--samples", "150", "--seed", "31"],
    ["verify-weak", "discounted-uniform", "--depth", "8", "--samples", "4",
     "--seed", "31"],
    # strong campaigns at the bench's own shape, 250 samples each
    ["verify-strong", "discounted-uniform", "--samples", "250",
     "--seed", "31"],
    ["verify-strong", "example-3-4", "--samples", "250", "--seed", "31"],
    # the epsilon = 0 boundary: example-3-4's g_n stays certified apart
    # from E[f] up to n_max, while a cylinder's g_n is E[f] past its depth
    ["verify-strong", "example-3-4", "--epsilon", "0", "--samples", "40",
     "--seed", "1"],
    ["verify-strong", "cylinder-mix", "--epsilon", "0", "--samples", "40",
     "--seed", "1"],
    # a command that needs a part its scenario does not declare: exit 2
    ["expect", "naming-game"],
    ["game", "discounted-uniform", "value"],
    # at horizon 1, g_1 .. g_6 straddle epsilon and g_7 is certified
    # close, so no smallest n is certain: inconclusive, exit 1
    ["strong-approx", "discounted-uniform", "--seed", "1", "--horizon", "1",
     "--epsilon", "0.01"],
]


def _name(argv) -> str:
    words = [a.stem if isinstance(a, Path) else a for a in argv]
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(words)).strip("_")


def _machine_report(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv] + ["--report", "machine"])
    if not out.getvalue():  # no report: keep the exit status and error
        out.write(f"exit {code}\n{err.getvalue()}")
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("argv", CASES, ids=_name)
def test_machine_report_matches_golden(argv):
    expected = (GOLDEN / f"{_name(argv)}.json").read_bytes()
    assert _machine_report(argv) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{_name(case)}.json").write_bytes(_machine_report(case))
