"""Process, session and measurement plumbing shared by every workload.

The program under test runs the way a user runs it -- ``python -m
repro serve DIR --port 0 --sync always`` as a subprocess with default
flags -- and is driven over real sockets by the public blocking
:class:`repro.server.ServerClient`.  The load is a closed loop
(the protocol answers a session's requests in order and the client
blocks on each reply): :data:`SESSIONS` sessions, one thread each, in
this one benchmark process.  Nothing here waits silently: the spawn,
every request, every join and the shutdown have deadlines that fail
with a message.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ServerError
from repro.server.client import ServerClient

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
#: Everything the benchmark writes (scratch directories, result files,
#: span files) lands here; the root ``.gitignore`` names it.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Closed-loop sessions == threads of the benchmark process.  The box
#: has two cores; more generator threads than cores would measure the
#: generator.
SESSIONS = 2
#: The measured window is cut into this many equal segments; a metric
#: is the median of its per-segment values.
SEGMENTS = 5
REQUEST_TIMEOUT_S = 10.0
SPAWN_DEADLINE_S = 10.0
SHUTDOWN_GRACE_S = 5.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class HarnessError(RuntimeError):
    """The harness itself failed (spawn, hang, leak) -- never a metric."""


def scratch_dir(prefix: str) -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{prefix}-", dir=OUT_DIR)


def directory_bytes(directory: str, suffix: str = "") -> int:
    return sum(
        entry.stat().st_size
        for entry in os.scandir(directory)
        if entry.is_file() and entry.name.endswith(suffix)
    )


# -- /proc accounting -----------------------------------------------------------


def _proc_table() -> dict[int, tuple[int, int, int, bool]]:
    """``pid -> (ppid, process group, cpu ticks, running)`` for /proc.

    Ticks are utime+stime plus cutime+cstime, so a forked worker is
    counted while it lives (its own row) and after its parent reaped it
    (the parent's ``c*`` fields) -- never twice.  A zombie has ended
    and is only waiting for its parent (for an orphan: init) to look:
    it still has ticks, but it is not *running*.
    """
    table: dict[int, tuple[int, int, int, bool]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as handle:
                raw = handle.read()
        except OSError:
            continue  # exited between listdir and open
        fields = raw[raw.rindex(b")") + 2:].split()
        table[int(name)] = (
            int(fields[1]),
            int(fields[2]),
            sum(int(fields[index]) for index in (11, 12, 13, 14)),
            fields[0] not in (b"Z", b"X"),
        )
    return table


def _group(pgid: int, running_only: bool = False) -> dict[int, int]:
    """``pid -> cpu ticks`` of the members of process group *pgid*."""
    return {
        pid: ticks
        for pid, (_ppid, group, ticks, running) in _proc_table().items()
        if group == pgid and (running or not running_only)
    }


def wait_until(condition, what: str) -> None:
    deadline = time.monotonic() + SHUTDOWN_GRACE_S
    while not condition():
        if time.monotonic() > deadline:
            raise HarnessError(f"{what} after {SHUTDOWN_GRACE_S:.0f} s")
        time.sleep(0.02)


def assert_no_children() -> None:
    """Every process forked by this one (in-process executors, scatter
    pools) must be gone; servers are swept by process group."""
    me = os.getpid()

    def children() -> list[int]:
        return [
            pid
            for pid, (ppid, _group, _ticks, _running) in _proc_table().items()
            if ppid == me
        ]

    wait_until(lambda: not children(), "child process(es) still alive")


# -- the server subprocess ------------------------------------------------------


class ServerProcess:
    """One ``python -m repro serve`` child on *directory*.

    It leads its own process group: its forked readers (and anything
    they orphan) are accounted for and swept by group, whoever their
    parent has become.
    """

    def __init__(self, directory: str, env_extra: dict[str, str]) -> None:
        # Default flags, default environment: drop every REPRO_* knob
        # the caller's shell may carry (ablations, crash points).
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(SRC_DIR)
        env.update(env_extra)
        self._stderr = tempfile.TemporaryFile(dir=OUT_DIR)
        self._swept = False
        #: Processes a graceful stop left behind (a leak in the program).
        self.orphans = 0
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", directory,
                "--port", "0", "--sync", "always",
            ],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            bufsize=0,
            start_new_session=True,
        )
        try:
            self.host, self.port = self._await_listening()
        except BaseException:
            self.kill()
            raise

    def _await_listening(self) -> tuple[str, int]:
        deadline = time.monotonic() + SPAWN_DEADLINE_S
        buffered = b""
        stdout = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            ready = remaining > 0 and select.select(
                [stdout], [], [], remaining
            )[0]
            chunk = os.read(stdout.fileno(), 4096) if ready else b""
            if not chunk:
                what = "exited" if ready else "timed out"
                raise HarnessError(
                    f"server {what} before listening "
                    f"(exit {self.proc.poll()}): {self.stderr_text()}"
                )
            buffered += chunk
            for line in buffered.split(b"\n")[:-1]:
                if line.startswith(b"listening on "):
                    host, port = line.split()[-1].rsplit(b":", 1)
                    return host.decode(), int(port)

    def stderr_text(self) -> str:
        self._stderr.seek(0)
        return self._stderr.read().decode("utf-8", "replace").strip()

    def connect(self) -> ServerClient:
        return ServerClient.connect(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )

    def cpu_seconds(self) -> float:
        """CPU of the server and every process it forked, so far."""
        group = _group(self.proc.pid)
        if self.proc.pid not in group:
            raise HarnessError(
                f"server is gone (exit {self.proc.poll()}): "
                f"{self.stderr_text()}"
            )
        return sum(group.values()) / _CLOCK_TICKS

    def rss_mb(self, field: str = "VmRSS") -> float:
        """Resident memory of the server process itself (forked readers
        share its pages copy-on-write); ``VmHWM`` gives the peak."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise HarnessError(f"no {field} in /proc status")

    def kill(self) -> None:
        """``kill -9`` of the whole group: the crash the durability
        oracle recovers from, and the sweep after a graceful stop."""
        if self._swept:
            return
        self._swept = True
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=SHUTDOWN_GRACE_S)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError("server survived SIGKILL") from exc
        finally:
            self.proc.stdout.close()
            self._stderr.close()
        wait_until(
            lambda: not _group(self.proc.pid, running_only=True),
            "server's process group still alive",
        )

    def stop(self) -> None:
        """SIGTERM (the graceful drain a user gets) -> grace -> sweep;
        never a silent wait.  Whatever the drain left behind is counted
        in :attr:`orphans` and killed."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=SHUTDOWN_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
            else:
                self.orphans = len(_group(self.proc.pid, running_only=True))
        self.kill()


# -- sessions and the measured window -------------------------------------------


@dataclass
class Session:
    """One closed-loop protocol session replaying a generated op list.

    A ``str`` op is a query, a tuple op is an autocommit ``exec``.  The
    list is cycled, so a faster program never runs out of inputs.  The
    log keeps ``(op index, start, end, result-or-error)`` for every op
    issued, warm-up included: the oracle walks all of it, the metrics
    only the window's part.
    """

    client: ServerClient
    ops: Sequence[Any]
    log: list[tuple[int, float, float, Any]] = field(default_factory=list)
    cursor: int = 0
    broken: bool = False

    def run(self, *, count: int | None = None, until: float | None = None):
        query, execute = self.client.query, self.client.execute
        ops, log, clock = self.ops, self.log, time.perf_counter
        issued = 0
        while not self.broken and (count is None or issued < count):
            begun = clock()
            if until is not None and begun >= until:
                return
            index = self.cursor % len(ops)
            op = ops[index]
            try:
                result = query(op) if type(op) is str else execute(op)
            except ServerError as exc:
                result = exc
                # A lost or timed-out connection cannot be resumed: the
                # reply stream is no longer in step with the requests.
                self.broken = exc.kind == "ConnectionError"
            log.append((index, begun, clock(), result))
            self.cursor += 1
            issued += 1


@dataclass
class Window:
    start: float
    seconds: float
    sessions: list[Session]
    #: Per session, the log entries issued inside the window.
    entries: list[list[tuple[int, float, float, Any]]]
    #: Server-group CPU seconds at the start and at each segment edge.
    server_cpu: list[float]
    client_cpu_s: float

    def latencies(self, kind: type | None = None) -> list[list[float]]:
        """Per segment, the latencies (s) of the ops that ended in it;
        *kind* ``str`` keeps reads, ``tuple`` keeps writes."""
        width = self.seconds / SEGMENTS
        buckets: list[list[float]] = [[] for _ in range(SEGMENTS)]
        for session, entries in zip(self.sessions, self.entries):
            for index, begun, ended, _result in entries:
                if kind is not None and type(session.ops[index]) is not kind:
                    continue
                slot = min(SEGMENTS - 1, int((ended - self.start) / width))
                buckets[slot].append(ended - begun)
        return buckets


def run_window(
    server: ServerProcess, sessions: list[Session], seconds: float
) -> Window:
    gate = threading.Event()
    box: dict[str, float] = {}
    marks = [len(session.log) for session in sessions]

    def drive(session: Session) -> None:
        gate.wait()
        session.run(until=box["deadline"])

    threads = [
        threading.Thread(target=drive, args=(session,), daemon=True)
        for session in sessions
    ]
    for thread in threads:
        thread.start()
    client_cpu = time.process_time()
    cpu = [server.cpu_seconds()]
    start = time.perf_counter()
    box["deadline"] = start + seconds
    gate.set()
    for edge in range(1, SEGMENTS + 1):
        time.sleep(max(0.0, start + seconds * edge / SEGMENTS
                       - time.perf_counter()))
        cpu.append(server.cpu_seconds())
    client_cpu = time.process_time() - client_cpu
    for thread in threads:
        thread.join(timeout=REQUEST_TIMEOUT_S + 5.0)
        if thread.is_alive():
            raise HarnessError(
                "a session did not finish its last request within "
                f"{REQUEST_TIMEOUT_S + 5.0:.0f} s of the window's end"
            )
    return Window(
        start=start,
        seconds=seconds,
        sessions=sessions,
        entries=[
            session.log[mark:] for session, mark in zip(sessions, marks)
        ],
        server_cpu=cpu,
        client_cpu_s=client_cpu,
    )


# -- set-up and outcome ---------------------------------------------------------


@dataclass
class Live:
    """A built directory with its server up and its sessions warm."""

    directory: str
    built: Any  # workloads.Built
    server: ServerProcess
    sessions: list[Session]
    setup_s: float

    def crash_and_verify(self, workload) -> tuple[int, int]:
        """``kill -9`` the server, then hold everything the sessions
        issued against the workload's oracle: ``(attempted, failed)``.

        A kill leaves the OS page cache intact: this proves that an ack
        follows the journal write, not that the fsync reached a disk --
        tier-1's crash matrix discards unflushed bytes for that.
        """
        for session in self.sessions:
            session.client.close()
        self.server.kill()
        failed = workload.verify(self.sessions, self.directory)
        return sum(len(session.log) for session in self.sessions), failed

    def tear_down(self) -> None:
        for session in self.sessions:
            session.client.close_socket()
        self.server.stop()
        remove_tree(self.directory)


def set_up(workload, between=None) -> Live:
    """Build the directory, checkpoint, spawn the server, connect the
    sessions and run the fixed-count warm-up -- all of it timed, so
    that work a change moves out of the window shows in ``setup_s``.

    *between*, when given, is called with the pristine directory after
    the build and before the spawn; its time is not counted.
    """
    begun = time.perf_counter()
    directory = scratch_dir(workload.name)
    server = None
    try:
        built = workload.build(directory)
        if between is not None:
            paused = time.perf_counter()
            between(directory)
            begun += time.perf_counter() - paused
        server = ServerProcess(directory, built.server_env)
        sessions = [Session(server.connect(), ops) for ops in workload.ops]
        for session in sessions:
            session.run(count=workload.warmup)
    except BaseException:
        if server is not None:
            server.stop()
        remove_tree(directory)
        raise
    return Live(
        directory, built, server, sessions, time.perf_counter() - begun
    )


@dataclass
class Outcome:
    workload: str
    attempted: int
    failed: int
    metrics: dict[str, Measured]
    notes: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: metric.to_dict()
                for name, metric in self.metrics.items()
            },
            "notes": self.notes,
        }


# -- statistics -----------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *samples* (need not be sorted)."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Measured:
    """One reported number: the median of its per-segment (or
    per-repeat) values, with the spread and sample count alongside."""

    value: float
    unit: str
    low: float
    high: float
    samples: int

    @classmethod
    def of(cls, values: Sequence[float], unit: str, samples: int | None = None):
        return cls(
            value=statistics.median(values),
            unit=unit,
            low=min(values),
            high=max(values),
            samples=len(values) if samples is None else samples,
        )

    @classmethod
    def single(cls, value: float, unit: str, samples: int = 1):
        return cls(value, unit, value, value, samples)

    def to_dict(self) -> dict:
        return {
            "value": self.value, "unit": self.unit, "min": self.low,
            "max": self.high, "samples": self.samples,
        }


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    if os.path.exists(path):
        raise HarnessError(f"could not remove scratch directory {path}")
