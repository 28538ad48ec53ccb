"""Run workloads, print their metrics, keep the result file.

Two callers:

* the benchmark driver -- ``run.py --workload NAME --seed N --seconds S
  --trace 0|1`` -- which reads the last line of stdout: one JSON object
  with ``correct``, ``attempted``, ``failed`` and ``metrics``;
* a person -- ``python -m benchmarks.e2e [--workload NAME ...]
  [--traced] [--smoke]`` -- who gets every metric by name with its
  unit, the per-segment spread and the sample counts, and a stamped
  result file under ``benchmarks/e2e/out/`` for ``compare``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import re
import subprocess
import time

from repro.database import parallel
from repro.database.recovery import recover

from benchmarks.e2e import layers
from benchmarks.e2e.harness import (
    OUT_DIR,
    REPO_ROOT,
    SESSIONS,
    HarnessError,
    Measured,
    Outcome,
    assert_no_children,
    percentile,
    run_window,
    set_up,
)
from benchmarks.e2e.workloads import WORKLOADS, Workload

DEFAULT_SEED = 11
#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Recoveries timed per run (``recover_s`` is the median): at least the
#: first count, and on up to the second while they have taken less than
#: REPLAYS_MIN_S in all.
REPLAYS = (5, 25)
REPLAYS_MIN_S = 0.5
SMOKE_SCALE = 0.1
SMOKE_SECONDS = 0.6


def declared() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# -- recovery of the pristine directory -----------------------------------------


def time_recover(directory: str) -> float:
    begun = time.perf_counter()
    db, report = recover(directory)
    elapsed = time.perf_counter() - begun
    if db is None or not report.ok:
        raise HarnessError(f"recover failed: {report.errors}")
    return elapsed


# -- one untraced run -----------------------------------------------------------


def window_metrics(window) -> dict[str, Measured]:
    """Each metric is the median of its per-segment values: one
    disturbed segment (a neighbour's burst, a long collection) moves
    the window's mean, not its median segment."""
    segments = [
        (bucket, window.server_cpu[slot + 1] - window.server_cpu[slot])
        for slot, bucket in enumerate(window.latencies())
        if bucket
    ]
    if not segments:
        raise HarnessError("no op completed inside the window")
    total = sum(len(bucket) for bucket, _cpu in segments)
    return {
        "op_p50_ms": Measured.of(
            [percentile(bucket, 0.50) * 1e3 for bucket, _cpu in segments],
            "ms", total,
        ),
        "op_p95_ms": Measured.of(
            [percentile(bucket, 0.95) * 1e3 for bucket, _cpu in segments],
            "ms", total,
        ),
        # Closed loop: every session always has one request out, so a
        # segment's throughput is sessions / mean latency.  Counting
        # completions per fixed-width segment says the same on fast
        # workloads and quantises to whole ops on slow ones.
        "ops_per_s": Measured.of(
            [SESSIONS * len(bucket) / sum(bucket)
             for bucket, _cpu in segments],
            "1/s", total,
        ),
        "server_cpu_ms_per_op": Measured.of(
            [cpu / len(bucket) * 1e3 for bucket, cpu in segments],
            "ms", total,
        ),
    }


def run_untraced(workload: Workload, seconds: float, setups: int) -> Outcome:
    recoveries: list[float] = []

    def replays(directory: str) -> None:
        begun = time.perf_counter()
        while len(recoveries) < REPLAYS[0] or (
            len(recoveries) < REPLAYS[1]
            and time.perf_counter() - begun < REPLAYS_MIN_S
        ):
            # Each repeat starts from a collected heap: what the last
            # one left behind would otherwise be collected inside it.
            gc.collect()
            recoveries.append(time_recover(directory))

    setup_times = []
    orphans = 0
    for _ in range(setups - 1):
        live = set_up(workload)
        setup_times.append(live.setup_s)
        live.tear_down()
        orphans += live.server.orphans
    live = set_up(workload, between=replays)
    setup_times.append(live.setup_s)
    try:
        rss = live.server.rss_mb()
        window = run_window(live.server, live.sessions, seconds)
        with live.server.connect() as probe:
            rejections = probe.stats()["admission_rejections"]
        metrics = {
            "setup_s": Measured.of(setup_times, "s"),
            **window_metrics(window),
            "server_rss_mb": Measured.single(rss, "MB"),
            "recover_s": Measured.of(recoveries, "s"),
        }
        attempted, failed = live.crash_and_verify(workload)
    finally:
        live.tear_down()
    notes = [f"admission rejections: {rejections}"]
    if orphans:
        notes.append(f"graceful drains left {orphans} process(es) behind")
    if any(session.broken for session in live.sessions):
        notes.append("a session lost its connection or timed out")
    return Outcome(workload.name, attempted, failed, metrics, notes)


# -- stamp, output --------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (REPO_ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=10,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seed: int, scale: float, seconds: float) -> dict:
    nproc = os.cpu_count() or 1
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "nproc": nproc,
        # Fewer cores than generator threads: the numbers are the
        # generator's, and are marked so rather than silently reported.
        "comparable": nproc >= SESSIONS,
        "python": platform.python_version(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "seed": seed,
        "scale": scale,
        "sessions": SESSIONS,
        "seconds": seconds,
    }


def render(outcome: Outcome) -> str:
    lines = [
        f"{outcome.workload}: attempted {outcome.attempted}, "
        f"failed {outcome.failed}"
        + ("" if outcome.correct else "   ** INCORRECT **")
    ]
    width = max(len(name) for name in outcome.metrics)
    for name, metric in outcome.metrics.items():
        lines.append(
            f"  {name:<{width}}  {metric.value:>12.4f} {metric.unit:<5}"
            f"  [{metric.low:.4f} .. {metric.high:.4f}]  n={metric.samples}"
        )
    lines += [f"  note: {note}" for note in outcome.notes]
    return "\n".join(lines)


def driver_line(outcome: Outcome) -> str:
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in outcome.metrics.items()
        },
    })


# -- self-check -----------------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_declared(outcome: Outcome, traced: bool) -> list[str]:
    """What ``--smoke`` asserts about one outcome against
    ``BENCHMARK.json``: declared == emitted, units agree, names and
    counts are within the contract's limits, and the oracle ran."""
    spec = declared()
    problems = []
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("workload count outside 2..8")
    if len(spec["end_to_end"]) > 16 or len(spec["per_layer"]) > 128:
        problems.append("too many declared metrics")
    want = {
        entry["name"]: entry["unit"]
        for entry in spec["per_layer" if traced else "end_to_end"]
    }
    got = {name: m.unit for name, m in outcome.metrics.items()}
    for name in sorted(set(want) | set(got)):
        if not _NAME.match(name):
            problems.append(f"bad metric name {name!r}")
        if name not in got:
            problems.append(f"declared but not emitted: {name}")
        elif name not in want:
            problems.append(f"emitted but not declared: {name}")
        elif want[name] != got[name]:
            problems.append(
                f"{name}: unit {got[name]!r}, declared {want[name]!r}"
            )
    if outcome.attempted < 1:
        problems.append("the oracle checked no op")
    return problems


# -- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    spec = declared()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="run only this workload (repeatable; default: all six)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="length of the measured window",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="driver mode: 0 = end-to-end metrics, 1 = per-layer metrics",
    )
    parser.add_argument(
        "--traced", action="store_true",
        help="after the untraced pass, run the traced pass too",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes over every workload, both passes, self-checked",
    )
    args = parser.parse_args(argv)
    # In this process the engine is the oracle and the traced replay.
    # Both want the serial scan -- the reference path, and what the
    # server's forked readers run -- not a scatter-gather pool forked
    # from a process that has threads.
    parallel.set_enabled(False)

    names = args.workload or [entry["name"] for entry in spec["workloads"]]
    scale, seconds, setups = 1.0, args.seconds, SETUPS
    if args.smoke:
        scale, seconds, setups = SMOKE_SCALE, SMOKE_SECONDS, 1
    passes = [bool(args.trace)] if args.trace is not None else (
        [False, True] if args.traced or args.smoke else [False]
    )
    run_stamp = stamp(args.seed, scale, seconds)
    if not run_stamp["comparable"]:
        print(
            f"NOT COMPARABLE: {run_stamp['nproc']} core(s) for "
            f"{SESSIONS} generator threads"
        )

    results: dict[str, dict] = {}
    outcome = None
    ok = True
    for name in names:
        for traced in passes:
            workload = WORKLOADS[name](args.seed, scale)
            if traced:
                outcome = layers.run_traced(workload, seconds)
            else:
                outcome = run_untraced(workload, seconds, setups)
            assert_no_children()
            print(render(outcome))
            if traced:
                print(layers.render_budget(outcome))
            ok &= outcome.correct
            if args.smoke:
                for problem in check_declared(outcome, traced):
                    print(f"  SMOKE: {problem}")
                    ok = False
            results.setdefault(name, {})[
                "per_layer" if traced else "end_to_end"
            ] = outcome.to_dict()
    leftovers = [
        entry.name for entry in os.scandir(OUT_DIR) if entry.is_dir()
    ]
    if leftovers:
        print(f"LEAK: scratch directories left behind: {leftovers}")
        ok = False

    if args.trace is None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / (
            f"result-{run_stamp['date'].replace(':', '')}"
            f"-seed{args.seed}.json"
        )
        path.write_text(json.dumps(
            {"stamp": run_stamp, "claim": None, "workloads": results},
            indent=2,
        ) + "\n")
        print(f"wrote {path.relative_to(REPO_ROOT)}")
        if args.smoke:
            print("smoke ok" if ok else "SMOKE FAILED")
    else:
        print(driver_line(outcome))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
