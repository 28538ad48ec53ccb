"""The six workloads: data, generated inputs, and the oracle for each.

Every workload builds its durability directory in-process through the
public engine API, generates all of its inputs from the seed *before*
anything is timed (the program receives only the generated inputs),
and checks every served answer afterwards against an oracle that does
not go through the server.

The composition of a session's op stream is a fixed cycle (which
scope, read or write, which write kind); only the targets and values
come from the seed.  A random composition would move the throughput
by its own sampling error from one seed to the next.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.database import segments
from repro.database.integrity import check_database
from repro.database.recovery import open_database, recover
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.values.oid import OID
from repro.workloads import WorkloadSpec, build_database

from benchmarks.e2e.harness import (
    SESSIONS,
    HarnessError,
    Session,
    directory_bytes,
    remove_tree,
    scratch_dir,
)

SALARY_SPAN = 2000


@dataclass
class Built:
    """What one build of a workload's directory reports."""

    checkpoint_s: float
    checkpoint_bytes: int
    server_env: dict[str, str] = field(default_factory=dict)
    spilled_bytes: int = 0


def _checkpoint(db, directory: str) -> Built:
    begun = time.perf_counter()
    db.checkpoint()
    return Built(
        checkpoint_s=time.perf_counter() - begun,
        checkpoint_bytes=directory_bytes(directory, ".json"),
        spilled_bytes=directory_bytes(directory, ".seg"),
    )


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, int(full * scale))


class Workload:
    """One traffic mix over one data set.  Subclasses fill in
    :attr:`ops` (one generated op list per session) in ``__init__``."""

    name: str
    why: str
    #: Ops each session issues before the window (unmeasured: caches
    #: fill, the read executor forks).  Counted into ``setup_s``.
    warmup: int

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.ops: list[list[Any]] = []

    def build(self, directory: str) -> Built:
        raise NotImplementedError

    def oracle_db(self, directory: str):
        """The in-process reference state of the served directory."""
        db, report = recover(directory)
        if db is None:
            raise HarnessError(f"oracle recover failed: {report.errors}")
        return db

    def verify(self, sessions: Sequence[Session], directory: str) -> int:
        """Failed ops among everything the sessions issued."""
        raise NotImplementedError


def _errors(sessions: Sequence[Session]) -> int:
    return sum(
        isinstance(result, Exception)
        for session in sessions
        for _index, _begun, _ended, result in session.log
    )


class _ReadOnly(Workload):
    """Reads over an unchanging directory: every served result must
    equal the same query evaluated in-process on the oracle state."""

    def reference(self, directory: str):
        """``query text -> expected oids``, computed off the server."""
        db = self.oracle_db(directory)
        return lambda text: evaluate(db, parse_query(text))

    def verify(self, sessions, directory):
        reference = self.reference(directory)
        answers: dict[str, list[OID]] = {}
        failed = 0
        for session in sessions:
            for index, _begun, _ended, result in session.log:
                text = session.ops[index]
                if text not in answers:
                    answers[text] = reference(text)
                failed += result != answers[text]
        return failed


# -- the employee data set (four workloads share it) ----------------------------


def employee_oid(index: int) -> OID:
    """Serials are issued from 1 in creation order; ``employee``'s
    hierarchy root is ``person``.  :func:`build_employees` checks it."""
    return OID(index + 1, "person")


def build_employees(
    directory: str, seed: int, n_objects: int, n_ticks: int, n_updates: int
):
    """The E18 ``person -> employee`` schema with *n_ticks* ticks of
    *n_updates* salary updates each.  Returns ``(db, salaries)`` where
    *salaries* maps every oid to its salary at the final ``now``."""
    rng = random.Random(seed)
    db, _report = open_database(directory, sync="never")
    db.define_class("person", attributes=[("name", "string")])
    db.define_class(
        "employee",
        parents=["person"],
        attributes=[("salary", "temporal(real)"), ("dept", "string")],
    )
    salaries: dict[OID, float] = {}
    with db.batch():
        for index in range(n_objects):
            salary = float(rng.randrange(SALARY_SPAN))
            oid = db.create_object("employee", {
                "name": f"e{index}",
                "salary": salary,
                "dept": rng.choice(("eng", "ops", "sales")),
            })
            if oid != employee_oid(index):
                raise HarnessError(f"unexpected oid {oid} for e{index}")
            salaries[oid] = salary
    oids = list(salaries)
    for _tick in range(n_ticks):
        db.tick()
        with db.batch():
            for oid in rng.sample(oids, min(n_updates, len(oids))):
                salaries[oid] = float(rng.randrange(SALARY_SPAN))
                db.update_attribute(oid, "salary", salaries[oid])
    db.tick()
    return db, salaries


class _Employees(Workload):
    N_OBJECTS, N_TICKS, N_UPDATES = 1200, 20, 300

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.n_objects = _scaled(self.N_OBJECTS, scale, 60)
        self.n_ticks = _scaled(self.N_TICKS, scale, 8)
        self.n_updates = _scaled(self.N_UPDATES, scale, 15)
        self.rng = random.Random(f"{self.name}/{seed}")
        self.salaries: dict[OID, float] = {}
        self.base_now = 0

    def build(self, directory):
        db, self.salaries = build_employees(
            directory, self.seed, self.n_objects, self.n_ticks,
            self.n_updates,
        )
        self.base_now = db.now
        return _checkpoint(db, directory)

    def point_query(self) -> str:
        return (
            "select employee where salary = "
            f"{self.rng.randrange(SALARY_SPAN)}.0"
        )


class ServePointRead(_Employees, _ReadOnly):
    name = "serve_point_read"
    why = (
        "index-probe reads returning 0-3 oids: the evaluator does almost "
        "nothing, so codec, session queue, view, executor dispatch, parse "
        "and plan are the work"
    )
    warmup = 200

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.ops = [
            [self.point_query() for _ in range(4096)]
            for _session in range(SESSIONS)
        ]


class ServeScanRead(_Employees, _ReadOnly):
    name = "serve_scan_read"
    why = (
        "range reads at `now` and `at t` returning about half the extent "
        "(~30 KB): evaluator, TemporalValue reads and result encoding "
        "dominate; per-request overhead is small"
    )
    warmup = 16
    #: Distinct queries per scope; the oracle evaluates each once.
    POOL = 16

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        rng = self.rng
        # Thresholds and instants are spread evenly, not drawn: the
        # result size and the depth of the `at` read set the cost, and
        # a drawn pool would move the median with the seed.
        low, high = SALARY_SPAN * 2 // 5, SALARY_SPAN * 3 // 5
        pool = []
        for slot in range(self.POOL):
            threshold = low + (high - low) * slot // self.POOL
            instant = 1 + (self.n_ticks - 1) * slot // self.POOL
            pool.append(f"select employee where salary > {threshold}")
            pool.append(
                f"select employee where salary > {high - threshold + low}"
                f" at {instant}"
            )
        self.ops = [
            rng.sample(pool, len(pool)) for _session in range(SESSIONS)
        ]


class _Writers(_Employees):
    """Write-bearing traffic.  Each session writes only its own oid
    partition, so every object's final salary is its owner's last
    acked update whatever the interleaving; after the window the
    server is killed and the recovered state must show every acked
    write and pass the integrity suite."""

    def partition(self, session: int) -> list[OID]:
        return [
            employee_oid(index)
            for index in range(session, self.n_objects, SESSIONS)
        ]

    def update_op(self, partition: list[OID]) -> tuple:
        return (
            "update", self.rng.choice(partition), "salary",
            float(self.rng.randrange(SALARY_SPAN)),
        )

    def verify(self, sessions, directory):
        failed = _errors(sessions)
        owner = {
            oid: number
            for number in range(len(sessions))
            for oid in self.partition(number)
        }
        # Values every object may have shown at some point of the run:
        # what a concurrent reader in the *other* session may see.
        ever: dict[OID, set[float]] = {
            oid: {salary} for oid, salary in self.salaries.items()
        }
        for session in sessions:
            for index, _begun, _ended, result in session.log:
                op = session.ops[index]
                if type(op) is tuple and op[0] == "update":
                    ever[op[1]].add(op[3])
        final = dict(self.salaries)
        created: dict[OID, str] = {}
        ticks = 0
        for number, session in enumerate(sessions):
            own = {
                oid: salary for oid, salary in self.salaries.items()
                if owner[oid] == number
            }
            for index, _begun, _ended, result in session.log:
                op = session.ops[index]
                if isinstance(result, Exception):
                    continue
                if type(op) is str:
                    failed += not self._read_ok(
                        op, result, own, owner, number, ever
                    )
                elif op[0] == "update":
                    own[op[1]] = op[3]
                elif op[0] == "create":
                    created[result] = op[2]["name"]
                else:
                    ticks += op[1]
            final.update(own)
        db = self.oracle_db(directory)
        if db.now != self.base_now + ticks:
            failed += 1
        for oid, salary in final.items():
            failed += db.get_object(oid).value["salary"].get(db.now) != salary
        for oid, name in created.items():
            failed += (
                oid not in db or db.get_object(oid).value["name"] != name
            )
        if len(db) != len(final) + len(created):
            failed += 1
        # The paper's invariants on the recovered state.  The extent-
        # index cross-check is left to tier-1: it alone costs more than
        # the measured window on ~4000 objects.
        if not check_database(
            db, include_index_check=False, use_parallel=False
        ).ok:
            failed += 1
        return failed

    @staticmethod
    def _read_ok(text, result, own, owner, number, ever) -> bool:
        """A point read beside concurrent writers.  On the reader's own
        partition the answer is exact (its writes are acked before its
        next request: read-your-writes).  On the other partition it
        must include every object that held the value throughout and
        may include only objects that held it at some point."""
        value = float(text.rsplit("= ", 1)[1])
        mine = {oid for oid, salary in own.items() if salary == value}
        if {oid for oid in result if owner.get(oid) == number} != mine:
            return False
        theirs = {oid for oid in result if owner.get(oid) != number}
        may = {
            oid for oid, values in ever.items()
            if owner[oid] != number and value in values
        }
        must = {oid for oid in may if len(ever[oid]) == 1}
        return must <= theirs <= may


class ServeMixed9010(_Writers):
    name = "serve_mixed_90_10"
    why = (
        "90% point reads beside 10% autocommit updates: every commit "
        "retires the version-pinned executor and read views, so a read "
        "gain that taxes writers (or the reverse) shows here"
    )
    warmup = 100

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        for session in range(SESSIONS):
            partition = self.partition(session)
            ops: list[Any] = []
            writes = 0
            for _block in range(20):
                # Ten writes at drawn places in every hundred ops: the
                # share is exact, but the two sessions' writes do not
                # march in step.  (One executor respawn can serve both
                # sessions when their writes coincide; a fixed cycle
                # locks the sessions in or out of phase for a whole
                # run, and the throughput with them.)
                places = set(self.rng.sample(range(100), 10))
                for place in range(100):
                    if place not in places:
                        ops.append(self.point_query())
                        continue
                    writes += 1
                    ops.append(
                        ("tick", 1) if writes % 100 == 0
                        else self.update_op(partition)
                    )
            self.ops.append(ops)


class ServeWriteDurable(_Writers):
    name = "serve_write_durable"
    why = (
        "100% autocommit writes under --sync always: WAL append, fsync, "
        "group commit and index maintenance are the work and the query "
        "layers do none -- the bypass workload for read optimisations"
    )
    warmup = 200
    #: 78 % update, 20 % create, 2 % tick.  (With a tick in every ten
    #: writes the engine caches one more extent of the class per tick
    #: that is followed by a create -- ~90 KB each, never released: the
    #: server grows by 400 MB in ten seconds, collections lengthen, and
    #: the run-to-run spread triples.  That growth is the engine's to
    #: fix; a workload that drifts cannot gate anything.)
    CYCLE = (
        ("update", "update", "create", "update", "update") * 9
        + ("update", "tick", "create", "update", "update")
    )

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        for session in range(SESSIONS):
            partition = self.partition(session)
            ops: list[Any] = []
            for index in range(8000):
                kind = self.CYCLE[index % len(self.CYCLE)]
                if kind == "update":
                    ops.append(self.update_op(partition))
                elif kind == "tick":
                    ops.append(("tick", 1))
                else:
                    ops.append(("create", "employee", {
                        "name": f"n{session}.{index}",
                        "salary": float(self.rng.randrange(SALARY_SPAN)),
                        "dept": "eng",
                    }))
            self.ops.append(ops)


# -- journal replay -------------------------------------------------------------


class JournalReplay(_ReadOnly):
    name = "journal_replay"
    why = (
        "cold `as of N` reads over a ~3700-frame audit journal with a "
        "mid-stream checkpoint: recovery, catch-up and cold AS OF are all "
        "recover(stop_lsn=n); the serving layers do little"
    )
    warmup = 2
    N_OBJECTS, N_TICKS = 120, 70
    #: Pins per session.  A session cycles its own pins and the two
    #: sessions' pins are disjoint, so a pin comes round again after
    #: ~2x this many other reconstructions -- beyond the default
    #: REPRO_ASOF_CACHE of 8: every read in the window is cold.
    PINS = 12

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.spec = WorkloadSpec(
            n_objects=_scaled(self.N_OBJECTS, scale, 30),
            n_ticks=_scaled(self.N_TICKS, scale, 40),
            seed=seed,
        )
        #: The checkpoint lands a fifth of the way in; pins are spread
        #: evenly (not drawn) over the ticks after it, because a cold
        #: read's cost grows with its distance from the checkpoint and
        #: a drawn set would move the median with the seed.
        self.checkpoint_tick = self.spec.n_ticks // 5
        first = self.checkpoint_tick + 2
        step = (self.spec.n_ticks - first) / (SESSIONS * self.PINS)
        self.pin_ticks = [
            first + int(slot * step) for slot in range(SESSIONS * self.PINS)
        ]
        self.answers: dict[str, list[OID]] = {}
        self._capture_oracle()
        texts = list(self.answers)
        random.Random(f"{self.name}/{seed}").shuffle(texts)
        self.ops = [texts[session::SESSIONS] for session in range(SESSIONS)]

    def _grow(self, directory: str, capture: bool) -> Built:
        db, _report = open_database(directory, sync="never")
        built: list[Built] = []
        tick = 0

        def on_tick(current) -> None:
            nonlocal tick
            tick += 1
            if tick == self.checkpoint_tick:
                built.append(_checkpoint(current, directory))
            if capture and tick in self.pin_ticks:
                # Instant scopes only.  A quantified scope evaluated inline
                # on a reconstructed state forks a scatter-gather pool per
                # state in the server, which is never released: after ~16
                # such reads requests start to time out.  The benchmark
                # needs ops that do not fail, so that path stays out.
                rng = random.Random(f"{self.name}/{self.seed}/{tick}")
                live = f"select employee where salary > {rng.randrange(3000)}"
                if rng.random() < 0.5:
                    live += f" at {rng.randrange(max(current.now, 1))}"
                text = f"{live} as of {current.journal.last_lsn}"
                # The believed state at this LSN *is* the live state
                # right now: the reference answer owes nothing to
                # recovery or reconstruction.
                self.answers[text] = evaluate(current, parse_query(live))

        build_database(self.spec, db=db, on_tick=on_tick)
        return built[0]

    def _capture_oracle(self) -> None:
        directory = scratch_dir(f"{self.name}-oracle")
        try:
            self._grow(directory, capture=True)
        finally:
            remove_tree(directory)
        if len(self.answers) != len(self.pin_ticks):
            raise HarnessError("journal_replay: pin ticks collided")

    def build(self, directory):
        return self._grow(directory, capture=False)

    def reference(self, directory):
        return self.answers.__getitem__  # captured while the journal grew


# -- cold history ---------------------------------------------------------------


class ColdHistoryRead(_ReadOnly):
    name = "cold_history_read"
    why = (
        "reads at instants deep in 300-pair histories spilled to segment "
        "pages, page cache = spilled/10: the only workload whose working "
        "set exceeds the program's own cache"
    )
    warmup = 4
    N_OBJECTS, N_PAIRS = 200, 300

    def __init__(self, seed, scale):
        super().__init__(seed, scale)
        self.n_objects = _scaled(self.N_OBJECTS, scale, 20)
        # Below ~40 pairs nothing spills; the smoke run keeps enough.
        self.n_pairs = _scaled(self.N_PAIRS, scale, 60)
        rng = random.Random(f"{self.name}/{seed}")
        cold_until = self.n_pairs - segments.HOT_TAIL_PAIRS - 1
        pool = [
            "select reading where value > "
            f"{rng.randrange(400_000, 600_000)} at {rng.randrange(cold_until)}"
            for _ in range(32)
        ]
        self.ops = [
            [rng.choice(pool) for _ in range(64)]
            for _session in range(SESSIONS)
        ]

    def build(self, directory):
        rng = random.Random(self.seed)
        db, _report = open_database(directory, sync="never")
        db.define_class("reading", attributes=[
            ("sensor", "string"), ("value", "temporal(integer)"),
        ])
        with db.batch():
            oids = [
                db.create_object("reading", {"sensor": f"s{i}", "value": 0})
                for i in range(self.n_objects)
            ]
        for _wave in range(1, self.n_pairs):
            db.tick()
            with db.batch():
                for oid in oids:
                    db.update_attribute(oid, "value", rng.randrange(10**6))
        db.tick()
        built = _checkpoint(db, directory)
        if not built.spilled_bytes:
            raise HarnessError("cold_history_read: nothing spilled")
        built.server_env = {
            "REPRO_PAGE_CACHE_BYTES": str(built.spilled_bytes // 10)
        }
        return built

    def oracle_db(self, directory):
        # All-resident reference: the segment tier ablated.
        with segments.disabled():
            return super().oracle_db(directory)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        ServePointRead, ServeScanRead, ServeMixed9010, ServeWriteDurable,
        JournalReplay, ColdHistoryRead,
    )
}
