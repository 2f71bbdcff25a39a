"""Time skymarket's set-up in this fresh process and print it in seconds.

Set-up is everything before a workload's first timed call: importing the
CLI, parsing the scenario config and, for simulator workloads, the first
kernel step (where the JIT compiles when numba is the backend).

Usage: python3 perfbench/setup_probe.py {sim|audit} [config-file]
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import skymarket.cli  # noqa: E402,F401
from skymarket.simulator import advance_slot, generate_scenario  # noqa: E402
from skymarket.types import ScenarioConfig, load_config, validate  # noqa: E402

kind = sys.argv[1]
config = load_config(sys.argv[2]) if len(sys.argv) > 2 else ScenarioConfig()
problems = validate(config)
if problems:
    sys.exit("invalid config: " + "; ".join(problems))
if kind == "sim":
    advance_slot(generate_scenario(config, seed=0))
print(time.perf_counter() - t0)
