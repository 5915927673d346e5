"""Set-up time of one fresh process: import the CLI, load each scenario.

Usage: python3 setup_probe.py SRC_DIR SCENARIO...  Prints seconds.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import prodex.cli  # noqa: E402  (the import is what is timed)

for ref in sys.argv[2:]:
    prodex.load_scenario(ref)
print(repr(time.perf_counter() - start))
