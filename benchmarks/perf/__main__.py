"""``python -m benchmarks.perf``: same CLI as ``run.py``."""

import sys

from benchmarks.perf.run import ROOT, main

sys.path.insert(0, str(ROOT / "src"))
sys.exit(main())
