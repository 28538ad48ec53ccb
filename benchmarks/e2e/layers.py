"""The traced run: where one op's time goes, layer by layer.

Measured from outside only.  After a shorter served window (client-side
read/write split, protocol counters) the same generated inputs are
replayed in-process, with a span around each call into a layer's public
functions; counts come from the public counters (``repro.perf.stats()``,
``pagecache.stats()``, ``asof.stats()``, the protocol ``stats``
command).  Spans inside ``src/`` are a later change (ROADMAP item 5).

Every per-layer metric is emitted on every workload.  A timing is the
median time *this workload's* ops spend in the layer; ``0`` means the
workload never enters it (a write-only mix spends nothing in the
parser), which is what a budget row for that layer should read.

The budget (:func:`render_budget`): the in-process layer medians of the
workload's main op kind, plus ``server.unattributed_us``, add up to the
client-measured round trip -- by construction; the unattributed row is
the part no outside measurement explains.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import shutil
import time
from typing import Any, Callable, Sequence

from repro import perf
from repro.bitemporal import asof
from repro.database import pagecache
from repro.database.persistence import encode_value
from repro.database.recovery import open_database, recover
from repro.database.wal import checkpoint_lsn, list_checkpoints
from repro.faults.fs import RealFS
from repro.faults.harness import apply_op
from repro.query import planner
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.query.typing import type_check
from repro.replication import LogShipper, Replica
from repro.server import protocol
from repro.server.executor import SnapshotExecutor
from repro.temporal.temporalvalue import TemporalValue

from benchmarks.e2e.harness import (
    OUT_DIR,
    HarnessError,
    Measured,
    Outcome,
    ServerProcess,
    Session,
    directory_bytes,
    percentile,
    remove_tree,
    run_window,
    scratch_dir,
    set_up,
    wait_until,
)

#: Share of ``--seconds`` the traced run spends on its served window;
#: the rest of the run's time goes to the in-process replays.
SERVED_SHARE = 0.4
#: Ops replayed in-process per kind (evenly spaced over what was served),
#: and the share of ``--seconds`` one replay pass may take: slow ops get
#: fewer samples rather than a longer run.
REPLAY_OPS = 200
REPLAY_SHARE = 0.08
#: ``(name, unit, better)`` of every per-layer metric, in budget order.
LAYER_METRICS: list[tuple[str, str, str]] = [
    ("bench.client_cpu_ms_per_op", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("client.read_p50_ms", "ms", "lower"),
    ("client.read_p95_ms", "ms", "lower"),
    ("client.read_qps", "1/s", "higher"),
    ("client.write_p50_ms", "ms", "lower"),
    ("client.write_p95_ms", "ms", "lower"),
    ("client.write_qps", "1/s", "higher"),
    ("server.ping_rtt_us", "us", "lower"),
    ("server.unattributed_us", "us", "lower"),
    ("server.group_commits", "count", "higher"),
    ("server.group_commits_per_write", "ratio", "higher"),
    ("server.admission_rejections", "count", "lower"),
    ("server.rss_growth_mb", "MB", "lower"),
    ("protocol.request_codec_us", "us", "lower"),
    ("protocol.result_codec_us", "us", "lower"),
    ("protocol.reply_bytes", "bytes", "lower"),
    ("executor.dispatch_us", "us", "lower"),
    ("executor.read_after_write_ms", "ms", "lower"),
    ("mvcc.acquire_us", "us", "lower"),
    ("mvcc.view_read_ratio", "ratio", "lower"),
    ("parser.parse_us", "us", "lower"),
    ("typing.check_us", "us", "lower"),
    ("planner.plan_us", "us", "lower"),
    ("planner.candidates_per_result", "ratio", "lower"),
    ("evaluator.run_us", "us", "lower"),
    ("temporalvalue.get_us", "us", "lower"),
    ("temporalvalue.pairs", "count", "lower"),
    ("caches.pi_hit_rate", "ratio", "higher"),
    ("database.apply_us", "us", "lower"),
    ("wal.append_us", "us", "lower"),
    ("wal.fsync_us", "us", "lower"),
    ("wal.fsyncs_per_write", "ratio", "lower"),
    ("wal.bytes_per_write", "bytes", "lower"),
    ("wal.checkpoint_s", "s", "lower"),
    ("wal.checkpoint_bytes", "bytes", "lower"),
    ("recovery.checkpoint_load_s", "s", "lower"),
    ("recovery.replay_fps_b25", "1/s", "higher"),
    ("recovery.replay_fps_b50", "1/s", "higher"),
    ("recovery.replay_fps_b100", "1/s", "higher"),
    ("asof.resolve_us", "us", "lower"),
    ("asof.reconstruct_ms_d10", "ms", "lower"),
    ("asof.reconstruct_ms_d50", "ms", "lower"),
    ("asof.reconstruct_ms_d90", "ms", "lower"),
    ("asof.warm_us", "us", "lower"),
    ("asof.cache_hit_rate", "ratio", "higher"),
    ("replica.catchup_s", "s", "lower"),
    ("replica.catchup_fps", "1/s", "higher"),
    ("replica.checkpoint_install_s", "s", "lower"),
    ("shipper.bytes_per_frame", "bytes", "lower"),
    ("pagecache.hit_rate", "ratio", "higher"),
    ("pagecache.evictions", "count", "lower"),
    ("pagecache.fault_us", "us", "lower"),
    ("segments.spilled_bytes", "bytes", "lower"),
    ("segments.fit_read_p50_ms", "ms", "lower"),
]

#: Budget rows per main op kind: layers whose medians, with the
#: unattributed remainder, add up to the client round trip.
READ_BUDGET = (
    "server.ping_rtt_us", "protocol.request_codec_us", "mvcc.acquire_us",
    "executor.dispatch_us", "parser.parse_us", "typing.check_us",
    "asof.resolve_us", "planner.plan_us", "evaluator.run_us",
    "protocol.result_codec_us",
)
WRITE_BUDGET = (
    "server.ping_rtt_us", "protocol.request_codec_us", "database.apply_us",
    "wal.append_us", "wal.fsync_us", "protocol.result_codec_us",
)


def budget_rows(reads_served: bool) -> tuple[str, tuple[str, ...]]:
    """The main op kind of a workload and the rows of its budget."""
    return ("read", READ_BUDGET) if reads_served else ("write", WRITE_BUDGET)


# -- spans ----------------------------------------------------------------------


class Tracer:
    """In-memory spans: ``(id, name, start, end, parent id, request)``.

    With ``enabled=False`` :meth:`span` hands out one shared no-op, so
    the same replay loop runs untraced and the ratio of the two is the
    tracing overhead.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, str, float, float, int | None, Any]] = []
        self.current: _Span | None = None
        self.request: Any = None
        self._ids = 0

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        self._ids += 1
        return _Span(self, self._ids, name)

    def durations_us(self, name: str) -> list[float]:
        return [
            (end - start) * 1e6
            for _id, span_name, start, end, _parent, _request in self.spans
            if span_name == name
        ]

    def p50_us(self, name: str) -> float:
        return _p50(self.durations_us(name))

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


class _Span:
    __slots__ = ("tracer", "id", "name", "parent", "start")

    def __init__(self, tracer: Tracer, span_id: int, name: str) -> None:
        self.tracer, self.id, self.name = tracer, span_id, name

    def __enter__(self):
        tracer = self.tracer
        self.parent, tracer.current = tracer.current, self
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self.tracer
        tracer.current = self.parent
        tracer.spans.append((
            self.id, self.name, self.start, end,
            self.parent.id if self.parent is not None else None,
            tracer.request,
        ))
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NO_SPAN = _NoSpan()


def _spaced(items: Sequence[Any], count: int) -> list[Any]:
    """*count* items spread evenly over *items* (all, when fewer)."""
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(slot * step)] for slot in range(count)]


def _within(items: Sequence[Any], budget_s: float):
    """Yield *items* until *budget_s* has passed (three at the least)."""
    deadline = time.perf_counter() + budget_s
    for number, item in enumerate(items):
        if number >= 3 and time.perf_counter() > deadline:
            return
        yield item


def _p50(samples: Sequence[float], q: float = 0.5) -> float:
    """The median (or quantile *q*); 0 for a layer that saw no sample."""
    return percentile(samples, q) if samples else 0.0


def _timed(call: Callable[[], Any]) -> tuple[float, Any]:
    begun = time.perf_counter()
    value = call()
    return time.perf_counter() - begun, value


def _best_s(call: Callable[[], Any], budget_s: float = 0.4) -> float:
    """The fastest of as many runs of *call* as fit in *budget_s* (one at
    the least): for a difference of two timings, where one collection
    or one neighbour's burst in either would swamp the result."""
    deadline = time.perf_counter() + budget_s
    best = _timed(call)[0]
    while time.perf_counter() < deadline:
        best = min(best, _timed(call)[0])
    return best


# -- in-process replays ---------------------------------------------------------


def replay_reads(
    db, texts: Sequence[str], tracer: Tracer, budget_s: float
):
    """What the server does for one ``query``, layer by layer, on the
    in-process state *db*, for as many of *texts* as fit in *budget_s*.
    Returns the per-request totals (us) and the planner's summed actual
    candidates and results."""
    totals, candidates, results = [], 0, 0
    for number, text in enumerate(_within(texts, budget_s)):
        tracer.request = number
        begun = time.perf_counter()
        with tracer.span("read.request"):
            with tracer.span("mvcc.acquire"):
                db.mvcc.acquire().close()
            with tracer.span("parser.parse"):
                query = parse_query(text)
            state = db
            if query.as_of is not None:
                with tracer.span("asof.resolve"):
                    state = asof.as_of(db, query.as_of)
            with tracer.span("typing.check"):
                type_check(query, state.get_class(query.class_name), state)
            with tracer.span("planner.plan"):
                chosen = planner.plan(state, query)
            with tracer.span("evaluator.run"):
                planner.run(state, query, chosen)
        totals.append((time.perf_counter() - begun) * 1e6)
        candidates += chosen.actual_candidates or 0
        results += chosen.actual_results or 0
    return totals, candidates, results


def replay_writes(db, ops: Sequence[tuple], tracer: Tracer, name: str):
    for number, op in enumerate(ops):
        tracer.request = number
        with tracer.span(name):
            apply_op(db, op)


def codec_spans(served: Sequence[tuple[Any, Any]], tracer: Tracer) -> float:
    """Both directions of the wire codec for served ``(op, result)``
    pairs; returns the mean reply size in bytes."""
    reply_bytes = 0
    for number, (op, result) in enumerate(served):
        read = type(op) is str
        tracer.request = number
        with tracer.span("protocol.request_codec"):
            if read:
                message = {"cmd": "query", "q": op, "id": number}
            else:
                message = {
                    "cmd": "exec", "op": protocol.encode_op(op), "id": number,
                }
            received = protocol.parse_line(protocol.dump_line(message))
            if not read:
                protocol.decode_op(received["op"])
        with tracer.span("protocol.result_codec"):
            if read:
                payload = {
                    "oids": [encode_value(oid) for oid in result],
                    "count": len(result), "now": 0,
                }
            else:
                payload = protocol.encode_result(result)
            line = protocol.dump_line(
                {"id": number, "ok": True, "result": payload}
            )
            answer = protocol.parse_line(line)["result"]
            if read:
                for oid in answer["oids"]:
                    protocol.decode_result(oid)
            else:
                protocol.decode_result(answer)
        reply_bytes += len(line)
    return reply_bytes / len(served) if served else 0.0


def executor_dispatch_us(db, texts: Sequence[str], budget_s: float) -> float:
    """Median of ``SnapshotExecutor.run`` minus the same query evaluated
    inline: the cost of crossing into the forked reader and back."""
    if not texts:
        return 0.0

    def inline(text: str) -> list:
        return [encode_value(oid) for oid in evaluate(db, parse_query(text))]

    async def crossing() -> list[float]:
        executor = SnapshotExecutor(db, 1)
        try:
            await executor.run(texts[0])  # the fork itself is not dispatch
            costs = []
            for text in _within(texts, budget_s):
                remote, _ = await _timed_async(executor.run(text))
                local, _ = _timed(lambda: inline(text))
                costs.append((remote - local) * 1e6)
            return costs
        finally:
            executor.close()

    costs = asyncio.run(crossing())
    wait_until(  # active_children() also reaps the readers that exited
        lambda: not multiprocessing.active_children(),
        "in-process executor workers still alive",
    )
    return max(0.0, _p50(costs))


async def _timed_async(awaitable) -> tuple[float, Any]:
    begun = time.perf_counter()
    value = await awaitable
    return time.perf_counter() - begun, value


def view_read_ratio(db, texts: Sequence[str], budget_s: float) -> float:
    if not texts:
        return 0.0
    live, viewed = [], []
    for text in _within(texts, budget_s):
        live.append(_timed(lambda: evaluate(db, parse_query(text)))[0])
        with db.mvcc.acquire() as view:
            viewed.append(_timed(lambda: view.execute(text))[0])
    return _p50(viewed) / _p50(live)


def history_probe(db) -> tuple[float, float]:
    """Median ``TemporalValue.get(t)`` (us) over the data set's temporal
    attributes at spread instants, and their mean history length."""
    histories = [
        value
        for obj in _spaced(list(db.objects()), 200)
        for value in obj.value.values()
        if isinstance(value, TemporalValue) and len(value)
    ]
    if not histories:
        return 0.0, 0.0
    instants = _spaced(range(max(db.now, 1)), 10)
    costs = []
    for history in histories:
        begun = time.perf_counter()
        for instant in instants:
            history.get(instant)
        costs.append((time.perf_counter() - begun) / len(instants) * 1e6)
    return _p50(costs), sum(map(len, histories)) / len(histories)


def page_fault_us(db) -> float:
    """Cold ``get(t)`` (page not resident) minus the same read again."""
    if not getattr(db, "segment_values", 0):
        return 0.0
    costs = []
    for obj in _spaced(list(db.objects()), 60):
        for value in obj.value.values():
            if isinstance(value, TemporalValue) and len(value) > 1:
                pagecache.clear()
                cold = _timed(lambda: value.get(0))[0]
                warm = _timed(lambda: value.get(0))[0]
                costs.append((cold - warm) * 1e6)
    return max(0.0, _p50(costs))


# -- directory-level layers: recovery, AS OF, replication -----------------------


#: A replay shorter than this is lost in the checkpoint load's noise.
MIN_REPLAY_FRAMES = 500


def _journal_tail(directory: str) -> tuple[int, int]:
    """The newest checkpoint's LSN and the committed frames past it."""
    floor = checkpoint_lsn(list_checkpoints(RealFS(), directory)[-1])
    return floor, LogShipper(directory).committed_lsn() - floor


def replay_layers(directory: str) -> dict[str, float]:
    """Checkpoint load, and replay throughput at three backlogs of
    *directory*'s journal tail (flat in the backlog is the target;
    ``0`` where the backlog is too short to time)."""
    floor, tail = _journal_tail(directory)
    load_s = _best_s(lambda: recover(directory, stop_lsn=floor))
    metrics = {"recovery.checkpoint_load_s": load_s}
    for label, share in (("b25", 0.25), ("b50", 0.5), ("b100", 1.0)):
        frames = int(tail * share)
        rate = 0.0
        if frames >= MIN_REPLAY_FRAMES:
            elapsed = _best_s(
                lambda: recover(directory, stop_lsn=floor + frames)
            )
            rate = frames / max(elapsed - load_s, 1e-3)
        metrics[f"recovery.replay_fps_{label}"] = rate
    return metrics


def asof_layers(directory: str) -> dict[str, float]:
    """Cold reconstruction at 10/50/90 % of the reachable history, and
    the memoized re-read, through the public ``asof.as_of``."""
    floor, tail = _journal_tail(directory)
    if tail < MIN_REPLAY_FRAMES:
        return {}
    metrics: dict[str, float] = {}
    copy = scratch_dir("asof")
    try:
        shutil.copytree(directory, copy, dirs_exist_ok=True)
        db, _report = open_database(copy, sync="never")
        for label, share in (("d10", 0.1), ("d50", 0.5), ("d90", 0.9)):
            lsn = floor + max(1, int(tail * share))
            asof.clear_cache()
            cold, _ = _timed(lambda: asof.as_of(db, lsn))
            metrics[f"asof.reconstruct_ms_{label}"] = cold * 1e3
        metrics["asof.warm_us"] = _p50([
            _timed(lambda: asof.as_of(db, lsn))[0] * 1e6 for _ in range(50)
        ])
    finally:
        asof.clear_cache()
        remove_tree(copy)
    return metrics


def replica_layers(directory: str) -> dict[str, float]:
    """A fresh replica's catch-up through the log shipper; it must end
    at lag 0 and on the primary's clock."""
    primary, _report = recover(directory)
    target = scratch_dir("replica")
    try:
        shipper = LogShipper(directory)
        replica = shipper.attach(Replica("bench", directory=target))
        install = replica.install_checkpoint
        install_s = 0.0

        def timed_install(*args, **kwargs):
            nonlocal install_s
            elapsed, lsn = _timed(lambda: install(*args, **kwargs))
            install_s += elapsed
            return lsn

        replica.install_checkpoint = timed_install
        sync_s, frames = _timed(lambda: shipper.sync(replica))
        if shipper.lag(replica) or replica.applied_tick != primary.now:
            raise HarnessError(
                f"replica did not converge: lag {shipper.lag(replica)}, "
                f"tick {replica.applied_tick} vs {primary.now}"
            )
        wal_bytes = directory_bytes(directory, ".wal")
        return {
            "replica.catchup_s": sync_s,
            "replica.catchup_fps": (
                frames / max(sync_s - install_s, 1e-9) if frames else 0.0
            ),
            "replica.checkpoint_install_s": install_s,
            "shipper.bytes_per_frame": wal_bytes / frames if frames else 0.0,
        }
    finally:
        remove_tree(target)


def write_layers(pristine: str, ops: Sequence[tuple]) -> dict[str, float]:
    """The same writes applied to three fresh copies of the pristine
    state: journal-less, journaled without fsync, journaled with it.
    The differences are the WAL's append and fsync costs."""
    if not ops:
        return {}
    tracer = Tracer()
    bare, _report = recover(pristine)
    replay_writes(bare, ops, tracer, "apply.bare")
    syncs = 0
    for mode in ("never", "always"):
        copy = scratch_dir(f"wal-{mode}")
        try:
            shutil.copytree(pristine, copy, dirs_exist_ok=True)
            db, _report = open_database(copy, sync=mode)
            before = perf.stats()["wal.syncs"]["count"]
            replay_writes(db, ops, tracer, f"apply.{mode}")
            syncs = perf.stats()["wal.syncs"]["count"] - before
        finally:
            remove_tree(copy)
    bare_us = tracer.p50_us("apply.bare")
    never_us = tracer.p50_us("apply.never")
    return {
        "database.apply_us": bare_us,
        "wal.append_us": max(0.0, never_us - bare_us),
        "wal.fsync_us": max(0.0, tracer.p50_us("apply.always") - never_us),
        "wal.fsyncs_per_write": syncs / len(ops),
    }


# -- the traced run -------------------------------------------------------------


def _served_split(window, journal_growth: int) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for label, kind in (("read", str), ("write", tuple)):
        latencies = [x for bucket in window.latencies(kind) for x in bucket]
        metrics[f"client.{label}_p50_ms"] = _p50(latencies) * 1e3
        metrics[f"client.{label}_p95_ms"] = _p50(latencies, 0.95) * 1e3
        metrics[f"client.{label}_qps"] = len(latencies) / window.seconds
    # The first read a session issues after one of its own writes was
    # acked meets a retired executor; the others do not.
    after_write = []
    for session, entries in zip(window.sessions, window.entries):
        for (prev, *_), (index, begun, ended, _r) in zip(entries, entries[1:]):
            if type(session.ops[prev]) is tuple and type(
                session.ops[index]
            ) is str:
                after_write.append(ended - begun)
    metrics["executor.read_after_write_ms"] = _p50(after_write) * 1e3
    total = sum(map(len, window.entries))
    writes = sum(
        type(session.ops[index]) is tuple
        for session, entries in zip(window.sessions, window.entries)
        for index, *_ in entries
    )
    metrics["bench.client_cpu_ms_per_op"] = window.client_cpu_s / total * 1e3
    metrics["wal.bytes_per_write"] = journal_growth / writes if writes else 0.0
    return metrics


def _fit_read_p50_ms(workload, directory: str, built, seconds: float) -> float:
    """The same served reads with the page cache at twice the spilled
    bytes: the fits-in-cache baseline of the cold workload."""
    if not built.spilled_bytes:
        return 0.0
    server = ServerProcess(directory, {
        "REPRO_PAGE_CACHE_BYTES": str(built.spilled_bytes * 2)
    })
    try:
        sessions = [Session(server.connect(), ops) for ops in workload.ops]
        for session in sessions:
            # Long enough to fault every page in once.
            session.run(count=len(session.ops) // 4)
        window = run_window(server, sessions, seconds)
        for session in sessions:
            session.client.close_socket()
        return _p50(
            [x for bucket in window.latencies(str) for x in bucket]
        ) * 1e3
    finally:
        server.stop()


def run_traced(workload, seconds: float):
    values: dict[str, float] = {name: 0.0 for name, _u, _b in LAYER_METRICS}
    pristine = scratch_dir(f"{workload.name}-pristine")

    def keep_pristine(directory: str) -> None:
        shutil.copytree(directory, pristine, dirs_exist_ok=True)

    try:
        live = set_up(workload, between=keep_pristine)
        try:
            with live.server.connect() as probe:
                before = probe.stats()
                rss = live.server.rss_mb()
                journal = directory_bytes(live.directory, ".wal")
                window = run_window(
                    live.server, live.sessions, seconds * SERVED_SHARE
                )
                growth = directory_bytes(live.directory, ".wal") - journal
                after = probe.stats()
                values["server.rss_growth_mb"] = (
                    live.server.rss_mb("VmHWM") - rss
                )
                pings = []
                for _ in range(300):
                    pings.append(_timed(probe.ping)[0] * 1e6)
            values.update(_served_split(window, growth))
            values["server.ping_rtt_us"] = _p50(pings)
            commits = after["group_commits"] - before["group_commits"]
            values["server.group_commits"] = commits
            writes = after["writes"] - before["writes"]
            values["server.group_commits_per_write"] = (
                commits / writes if writes else 0.0
            )
            values["server.admission_rejections"] = (
                after["admission_rejections"]
            )
            attempted, failed = live.crash_and_verify(workload)
            values["segments.fit_read_p50_ms"] = _fit_read_p50_ms(
                workload, pristine, live.built, seconds * SERVED_SHARE / 2
            )
            tracer = _replay(
                live, window, pristine, values, seconds * REPLAY_SHARE
            )
        finally:
            live.tear_down()
    finally:
        remove_tree(pristine)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(
        OUT_DIR / f"trace-{workload.name}-seed{workload.seed}.jsonl"
    )
    units = {name: unit for name, unit, _better in LAYER_METRICS}
    metrics = {
        name: Measured.single(float(value), units[name])
        for name, value in values.items()
    }
    notes = [f"{len(tracer.spans)} spans"]
    return Outcome(workload.name, attempted, failed, metrics, notes)


def _replay(live, window, pristine: str, values, budget_s: float) -> Tracer:
    """Every in-process layer measurement; fills *values*."""
    served = [
        (session.ops[index], index, result)
        for session, entries in zip(window.sessions, window.entries)
        for index, _begun, _ended, result in entries
        if not isinstance(result, Exception)
    ]
    reads = _spaced([e for e in served if type(e[0]) is str], REPLAY_OPS)
    writes = _spaced([e for e in served if type(e[0]) is tuple], REPLAY_OPS)
    texts = [op for op, _index, _result in reads]
    tracer = Tracer()

    built = live.built
    values["wal.checkpoint_s"] = built.checkpoint_s
    values["wal.checkpoint_bytes"] = built.checkpoint_bytes
    values["segments.spilled_bytes"] = built.spilled_bytes

    # Wire codec, both directions, on what was actually served.
    values["protocol.reply_bytes"] = codec_spans(
        [(op, result) for op, _index, result in reads + writes], tracer
    )
    values["protocol.request_codec_us"] = tracer.p50_us(
        "protocol.request_codec"
    )
    values["protocol.result_codec_us"] = tracer.p50_us(
        "protocol.result_codec"
    )

    # The read path, on the state the server would rebuild.  AS OF
    # reads need the journal: open a copy rather than recover().
    if "REPRO_PAGE_CACHE_BYTES" in built.server_env:
        pagecache.set_budget(int(built.server_env["REPRO_PAGE_CACHE_BYTES"]))
    copy = scratch_dir("reads")
    try:
        shutil.copytree(live.directory, copy, dirs_exist_ok=True)
        db, _report = open_database(copy, sync="never")
        perf.reset_stats()
        pagecache.clear()
        asof.clear_cache()
        # One short unmeasured pass first, so that neither measured
        # pass pays for the engine's cold caches.
        replay_reads(db, texts, Tracer(enabled=False), budget_s / 4)
        asof.clear_cache()
        plain, _c, _r = replay_reads(
            db, texts, Tracer(enabled=False), budget_s
        )
        asof.clear_cache()
        pagecache.clear()
        perf.reset_stats()
        traced, candidates, results = replay_reads(
            db, texts[:len(plain)], tracer, budget_s=60.0
        )  # the same requests as the untraced pass, however long
        if texts:
            values["bench.trace_overhead_ratio"] = _p50(traced) / _p50(plain)
        for name in (
            "mvcc.acquire", "parser.parse", "typing.check", "asof.resolve",
            "planner.plan", "evaluator.run",
        ):
            values[f"{name}_us"] = tracer.p50_us(name)
        if results:
            values["planner.candidates_per_result"] = candidates / results
        values["caches.pi_hit_rate"] = perf.stats()["database.pi"]["hit_rate"]
        cache = pagecache.stats()
        values["pagecache.hit_rate"] = cache["hit_rate"]
        values["pagecache.evictions"] = cache["evictions"]
        believed = asof.stats()
        if believed["asof_reads"]:
            values["asof.cache_hit_rate"] = (
                believed["cache_hits"] / believed["asof_reads"]
            )
        head_reads = [text for text in texts if " as of " not in text]
        values["executor.dispatch_us"] = executor_dispatch_us(
            db, _spaced(head_reads, 60), budget_s
        )
        values["mvcc.view_read_ratio"] = view_read_ratio(
            db, _spaced(head_reads, 60), budget_s
        )
        values["pagecache.fault_us"] = page_fault_us(db)
        get_us, pairs = history_probe(db)
        values["temporalvalue.get_us"] = get_us
        values["temporalvalue.pairs"] = pairs
        del db
    finally:
        asof.clear_cache()
        pagecache.clear()
        pagecache.set_budget(pagecache.DEFAULT_BUDGET)
        remove_tree(copy)

    values.update(write_layers(pristine, [op for op, _i, _r in writes]))
    values.update(replay_layers(live.directory))
    values.update(asof_layers(live.directory))
    values.update(replica_layers(live.directory))

    main, rows = budget_rows(bool(texts))
    values["server.unattributed_us"] = (
        values[f"client.{main}_p50_ms"] * 1e3
        - sum(values[name] for name in rows)
    )
    return tracer


def render_budget(outcome) -> str:
    """The latency budget of the workload's main op kind."""
    metrics = outcome.metrics
    main, rows = budget_rows(metrics["client.read_qps"].value > 0)
    total = metrics[f"client.{main}_p50_ms"].value * 1e3
    lines = [
        f"  latency budget, {main} p50 "
        f"(client round trip {total:.1f} us):"
    ]
    for name in (*rows, "server.unattributed_us"):
        value = metrics[name].value
        share = value / total if total else 0.0
        lines.append(f"    {name:<28} {value:>12.1f} us  {share:>6.1%}")
    return "\n".join(lines)
