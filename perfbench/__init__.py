"""The repository's performance benchmark (see ``perfbench/run.py``)."""

import sys
from pathlib import Path

#: the checkout the benchmark runs in; the program under test is ``src/``
ROOT = Path(__file__).resolve().parent.parent
#: inputs, reports and span files of benchmark runs
OUT_DIR = ROOT / ".perfbench_out"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
