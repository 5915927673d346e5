"""The README's library example runs and prints what it says."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    names = {}
    exec(compile(library_example(), str(README), "exec"), names)
    assert names["hit"].n == 6
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "1 2/7 0.5"
    # the printed enclosure still encloses the exact one
    lo, hi, _ = re.fullmatch(r"ValueBounds\((\S+), (\S+), eta=(\S+)\)",
                             lines[0]).groups()
    exact = names["res"].bounds
    assert Fraction(float(lo)) <= exact.lo
    assert Fraction(float(hi)) >= exact.hi
