"""Make ``repro`` importable for the benchmark's own tests.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the repo root;
these tests are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[3] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
