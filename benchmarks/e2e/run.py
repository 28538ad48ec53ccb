"""Launcher: ``python3 benchmarks/e2e/run.py ...`` from the root of a
checkout.  Puts the checkout and its ``src/`` on the import path (the
benchmark builds nothing: the program is pure Python, run from
source), then hands over to :mod:`benchmarks.e2e.cli`."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> int:
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"benchmarks/e2e: no program to measure under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    from benchmarks.e2e.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    raise SystemExit(main())
