"""Compare two result files of the end-to-end benchmark.

``python -m benchmarks.e2e.compare A.json B.json`` prints one row per
(workload, metric): both values, the ratio B/A (A is the base), and a
verdict from the bounds in ``BENCHMARK.json``:

* ``improved`` / ``regressed`` -- B differs from A by more than the
  metric's bound *and* by more than either run's own spread;
* ``unchanged`` -- within the bound, and both runs repeat within it;
* ``unresolved`` -- within the bound, but a run's own spread (max - min
  of its per-segment or per-repeat values, over the value) is wider
  than the bound: the runs cannot tell "unchanged" from "moved".

Per-layer metrics have no bound; they get the ratio and no verdict.
Runs whose stamps differ in ``nproc``, ``seed`` or ``scale`` are not
comparable and are refused.  One pair of runs is a first look, not a
claim: a claim needs ten alternating pairs (see the README).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MUST_MATCH = ("nproc", "seed", "scale", "sessions", "seconds")


def _spread(metric: dict) -> float:
    value = metric["value"]
    return (metric["max"] - metric["min"]) / abs(value) if value else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if not a["value"] or not b["value"]:
        return "unresolved"
    ratio = b["value"] / a["value"]
    moved = abs(ratio - 1.0)
    noise = max(_spread(a), _spread(b))
    if moved > bound and moved > noise:
        gained = ratio < 1.0 if better == "lower" else ratio > 1.0
        return "improved" if gained else "regressed"
    return "unresolved" if noise > bound else "unchanged"


def rows(a: dict, b: dict, spec: dict):
    bounds = {
        entry["name"]: (entry["better"], entry["bound"])
        for entry in spec["end_to_end"]
    }
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for section in ("end_to_end", "per_layer"):
            left = a["workloads"][workload].get(section)
            right = b["workloads"][workload].get(section)
            if not left or not right:
                continue
            for name, before in left["metrics"].items():
                after = right["metrics"].get(name)
                if after is None or not (before["value"] or after["value"]):
                    continue  # absent, or a layer neither run entered
                ratio = (
                    after["value"] / before["value"]
                    if before["value"] else float("nan")
                )
                yield (
                    workload, name, before["value"], after["value"],
                    before["unit"], ratio,
                    verdict(before, after, *bounds[name])
                    if name in bounds else "-",
                )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    differing = [
        key for key in MUST_MATCH if a["stamp"][key] != b["stamp"][key]
    ]
    if differing:
        print(
            "not comparable: stamps differ in "
            + ", ".join(
                f"{key} ({a['stamp'][key]} vs {b['stamp'][key]})"
                for key in differing
            ),
            file=sys.stderr,
        )
        return 2
    spec = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
    )
    for side, result in (("A", a), ("B", b)):
        stamp = result["stamp"]
        print(
            f"{side}: commit {stamp['commit'][:12]}"
            f"{' (dirty)' if stamp['dirty'] else ''}, {stamp['date']}"
            f"{'' if stamp['comparable'] else '  NOT COMPARABLE: too few cores'}"
        )
    print(
        f"{'workload':<20} {'metric':<30} {'A':>12} {'B':>12} {'unit':<6}"
        f" {'B/A':>7}  verdict"
    )
    regressed = False
    for workload, name, before, after, unit, ratio, outcome in rows(a, b, spec):
        print(
            f"{workload:<20} {name:<30} {before:>12.4f} {after:>12.4f} "
            f"{unit:<6} {ratio:>7.3f}  {outcome}"
        )
        regressed |= outcome == "regressed"
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
