"""Set-up of one benchmark run in a fresh interpreter, timed by run.py.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports palinfrac from the checkout's src/ (palinfrac.cli for cli-small),
builds the workload's seeded inputs and prints the path palinfrac was
imported from.  The wall time from process start to that line is one
sample of setup_s.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import MODULES  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
module = importlib.import_module(MODULES[workload])
importlib.import_module(module.IMPORTS)
module.build_inputs(seed)
print(sys.modules["palinfrac"].__file__, flush=True)
