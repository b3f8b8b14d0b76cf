"""Time what every duetsim CLI call pays before it does any work.

Run in a fresh interpreter from the root of a checkout:
``python3 perfbench/setup_probe.py``. Prints one JSON object with the time
to import duetsim, to load the bundled world and to lint the templates.
"""

import json
import sys
import time
from pathlib import Path

_src = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(_src))

_t0 = time.perf_counter()
import duetsim  # noqa: E402,F401
_t1 = time.perf_counter()
from duetsim.world import load_world  # noqa: E402
load_world()
_t2 = time.perf_counter()
from duetsim.prompts import lint_all_templates  # noqa: E402
lint_all_templates()
_t3 = time.perf_counter()

if Path(duetsim.__file__).resolve().parent != _src / "duetsim":
    sys.exit(f"imported duetsim from {duetsim.__file__}, not from {_src}")
print(json.dumps({
    "setup_s": _t3 - _t0,
    "import_ms": (_t1 - _t0) * 1000.0,
    "load_world_ms": (_t2 - _t1) * 1000.0,
    "lint_templates_ms": (_t3 - _t2) * 1000.0,
}))
