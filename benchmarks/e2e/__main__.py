"""``python -m benchmarks.e2e`` -- same entry as ``run.py``."""

from benchmarks.e2e.run import main

raise SystemExit(main())
