"""Cold start of one CLI call, up to the point where sampling could begin.

    python3 perfbench/setup_probe.py SCENARIO_JSON

Imports the entry point, loads the scenario and builds the first schedule
and timestep plan, then prints ``ready`` and exits.  The benchmark times the
interval from starting this process to reading that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pathmix import cli  # noqa: E402

scenario = cli.load_scenario(sys.argv[1])
scenario.build_plan(scenario.build_schedule())
print("ready", flush=True)
