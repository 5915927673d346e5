"""The suite's pytest settings: a failing property shows its counterexample.

`pyproject.toml` turns warnings into errors.  A warning raised while
hypothesis reports a failure must not turn the report into an internal
error, so a failing `@given` test is run here under those settings.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

ALWAYS_FAILS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path),
         str(tmp_path / "test_always_fails.py")],
        capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
