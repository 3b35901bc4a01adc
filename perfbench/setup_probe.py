"""Set-up a CLI user pays before any check runs: import degenlab.cli, then
validate each scenario and build its ScenarioContext (as `cli.run` does).

    python3 perfbench/setup_probe.py laplacian1d perfbench/scenarios/<file>.json

Prints the seconds from the start of this script to the end of the set-up
(interpreter start-up itself is not included).
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from degenlab import cli  # noqa: F401  (the import is what is measured)
from degenlab.scenarios import ScenarioContext, builtin_by_name, validate_scenario

for arg in sys.argv[1:]:
    if os.path.exists(arg):
        with open(arg) as fh:
            doc = json.load(fh)
        base_dir = os.path.dirname(os.path.abspath(arg))
    else:
        doc = builtin_by_name(arg)
        base_dir = os.getcwd()
    validate_scenario(doc)
    ScenarioContext(doc, base_dir=base_dir)

print(time.perf_counter() - t0)
