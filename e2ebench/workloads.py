"""The end-to-end DIO benchmark: workloads, timed phases and checks.

A DIO user does four things with a traced application, and each is a
timed phase here:

- ``trace``: attach the tracer, run the app, stop, drain, ship and
  correlate file paths (``tracer.attach()`` to ``tracer.shutdown()``);
- ``export``: ``save_session(..., storage_mode="segments")``;
- ``diagnose``: cold ``load_session`` into a fresh store, then
  ``diagnose_session`` with the app's latency records, i.e. what
  ``dio diagnose <trace>`` costs;
- ``query``: a seeded dashboard query mix against the reloaded store.

Before each traced session, ``setup`` builds the simulated testbed and
opens and preloads the app.  Every workload runs all phases, so every
end-to-end metric exists on every workload; the workloads differ in
the traced app and so in which layers do the work (see README.md).
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Optional

import numpy as np

from repro.analysis import diagnose as diagnose_module
from repro.analysis.contention import detect_contention
from repro.analysis.detectors import DEFAULT_DETECTORS
from repro.apps.rocksdb import DBBench, RocksDB
from repro.apps.sqlitedb import JOURNAL_DELETE, MiniSQLite
from repro.backend import persistence
from repro.backend.store import DocumentStore
from repro.experiments.rocksdb_case import (DATA_SYSCALL_SCOPE, MS,
                                            RocksDBScale, build_kernel)
from repro.kernel import Kernel
from repro.sim import Environment
from repro.tracer import DIOTracer, TracerConfig

from hostspeed import WorkClock
from ledger import PHASE_PREFIX, Ledger
from panels import (PANELS, Query, answer_digest, make_mix, run_query,
                    session_domain)

INDEX = "dio_trace"

#: The timed phases of one session and one post-mortem round.
PHASES = ("setup", "trace", "export", "diagnose", "query")

#: Fig. 3/4 check: the paper's threshold of concurrently active
#: compaction threads, counted per window of this width.
CONTENTION_THREADS = 5
CONTENTION_WINDOW_NS = 20 * MS

#: Concurrent SQLite connections, each with its own database file.
SQLITE_CONNECTIONS = 4

#: A plain run repeats its cycle (one traced session, then one
#: post-mortem round over it) at least this often, then for as long as
#: ``--seconds`` last.  Each cycle samples every phase once.
MIN_CYCLES = 2


@dataclasses.dataclass(frozen=True)
class Sizes:
    """How much work one session and one post-mortem round do."""

    #: db_bench run length on the virtual clock.
    rocksdb_sim_ms: int = 100
    #: Keys preloaded before tracing starts.
    rocksdb_keys: int = 10_000
    #: Untraced commits that build the SQLite files during set-up.
    sqlite_preload: int = 400
    #: Traced commits, over all connections.
    sqlite_commits: int = 1_600
    #: Multiplies ``QUERIES_PER_ROUND``.
    query_scale: float = 1.0


SIZES = {
    "full": Sizes(),
    # For the self-tests: every phase and check runs, in seconds.
    # RocksDB keeps its full size: the Fig. 3/4 check needs 100 ms.
    "tiny": Sizes(sqlite_preload=20, sqlite_commits=160, query_scale=0.05),
}


#: Exports per post-mortem round, each one sample of ``export``; the
#: last one is loaded and diagnosed.  Of the phases after set-up,
#: export is the shortest and the one whose samples vary most within a
#: run, so a round takes several.
EXPORTS_PER_ROUND = 3

#: Queries per post-mortem round: with the p99 over them, at least 10
#: queries lie beyond it.
QUERIES_PER_ROUND = 1000


# ----------------------------------------------------------------------
# Timing

class Phases:
    """Times named phases; opens a ledger span around each one too
    when a :class:`~ledger.Ledger` is recording.

    Each phase is timed twice: on the wall clock, and in work units of
    :attr:`clock` (see :mod:`hostspeed`), which a slowdown of the host
    does not inflate.  The pauses of the program's own collections
    during a phase are tallied too; the forced one before it is not.
    """

    def __init__(self, ledger: Optional[Ledger] = None) -> None:
        self.ledger = ledger
        self.clock = WorkClock()
        #: Phase name -> wall time (s) of each sample.
        self.seconds: dict[str, list[float]] = defaultdict(list)
        #: Phase name -> work units of each sample.
        self.units: dict[str, list[float]] = defaultdict(list)
        #: Phase name -> (GC pause s, collections) of each sample.
        self.gc: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self._gc_start = 0.0
        self._gc_s = 0.0
        self._collections = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            self._collections += 1
        else:
            self._gc_s += now - self._gc_start

    @contextlib.contextmanager
    def time(self, name: str):
        gc.collect()
        with self.span(PHASE_PREFIX + name):
            self._gc_s = 0.0
            self._collections = 0
            gc.callbacks.append(self._on_gc)
            units = self.clock.probe()
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self.units[name].append(self.clock.probe() - units)
                gc.callbacks.remove(self._on_gc)
                self.seconds[name].append(end - start)
                self.gc[name].append((self._gc_s, self._collections))

    def estimate(self, name: str, per_cycle: int = 1) -> float:
        """The phase's time (s) at the reference speed: the median
        work count of its samples, the cold first cycle's
        ``per_cycle`` left out unless they are the only ones."""
        samples = self.units[name]
        return self.clock.seconds(
            _median(samples[per_cycle:] or samples))

    def span(self, name: str):
        if self.ledger is None:
            return contextlib.nullcontext()
        return self.ledger.span(name)


# ----------------------------------------------------------------------
# Traced sessions

@dataclasses.dataclass
class Session:
    """One run of the app, traced or not, and what it produced."""

    name: str
    app: str
    store: Optional[DocumentStore]
    tracer: Optional[DIOTracer]
    #: ``(start_ns, latency_ns, op, tid)`` per app operation.
    latency_records: list
    sim_ops_per_s: float
    sim_p99_ms: float
    #: Work done while the timed phase ran.
    sim_events: int
    syscalls: int
    #: SQLite only: traced commits per rollback journal path.
    journal_commits: dict = dataclasses.field(default_factory=dict)


def _phase_counters(kernel: Kernel) -> tuple[int, int]:
    return kernel.env.events_processed, sum(kernel.syscall_counts.values())


def rocksdb_session(seed: int, sizes: Sizes, phases: Phases,
                    traced: bool = True) -> Session:
    """db_bench YCSB-A, 8 clients, 7 compaction threads, data scope.

    Scaled so compaction bursts reach 5+ concurrent threads within a
    100 ms run: 10k preloaded keys, 256 KiB memtables, and L0->L1
    compactions split into up to 4 subcompactions on the same pool.
    With ``run_rocksdb_case``'s options (2 MiB memtables, one
    subcompaction) no 20 ms window reaches 5 threads before 0.4 sim-s
    with 50k keys, a run four times as long.
    """
    name = f"rocksdb-ycsb-a-{seed}"
    with phases.time("setup"):
        scale = RocksDBScale(duration_ns=sizes.rocksdb_sim_ms * MS,
                             key_count=sizes.rocksdb_keys,
                             memtable_bytes=256 * 1024, seed=seed)
        kernel = build_kernel(scale)
        env = kernel.env
        process = kernel.spawn_process("db_bench")
        db = RocksDB(kernel, process, dataclasses.replace(
            scale.db_options(), max_subcompactions=4))
        bench = DBBench(kernel, db, client_threads=scale.client_threads,
                        key_count=scale.key_count,
                        value_size=scale.value_size,
                        read_fraction=scale.read_fraction, seed=seed)

        def preload():
            yield from db.open(bench.client_tasks[0])
            yield from bench.load()

        env.run(until=env.process(preload()))
        store = tracer = None
        if traced:
            store = DocumentStore()
            tracer = DIOTracer(env, kernel, store, TracerConfig(
                syscalls=DATA_SYSCALL_SCOPE, pids=frozenset({process.pid}),
                session_name=name))

    events0, syscalls0 = _phase_counters(kernel)
    with phases.time("trace" if traced else "untraced"):
        if tracer is not None:
            tracer.attach()

        def run():
            result = yield from bench.run(duration_ns=scale.duration_ns).wait()
            db.close()
            if tracer is not None:
                yield from tracer.shutdown()
            return result

        result = env.run(until=env.process(run()))
    events1, syscalls1 = _phase_counters(kernel)
    return Session(name, "rocksdb", store, tracer, result.records(),
                   result.throughput_ops_per_sec,
                   float(np.percentile(result.latencies(), 99)) / MS,
                   events1 - events0, syscalls1 - syscalls0)


def sqlite_session(seed: int, sizes: Sizes, phases: Phases,
                   traced: bool = True) -> Session:
    """DELETE-journal SQLite commit loops traced at full scope.

    ``SQLITE_CONNECTIONS`` threads of one app each commit to their own
    database file.  Their fsyncs queue on the shared device, so commit
    latency depends on how the seeded page picks interleave.  Set-up
    builds the files with untraced commits and closes them; the traced
    phase reopens them, so the opens are traced, as in
    ``run_sqlite_case``.
    """
    name = f"sqlite-delete-{seed}"
    with phases.time("setup"):
        env = Environment()
        kernel = Kernel(env, ncpus=2)
        process = kernel.spawn_process("sqlite-app")
        tasks = [process.threads[0]] + [
            kernel.spawn_thread(process)
            for _ in range(SQLITE_CONNECTIONS - 1)]
        dbs = [MiniSQLite(kernel, f"/data{i}.db", journal_mode=JOURNAL_DELETE)
               for i in range(SQLITE_CONNECTIONS)]
        per_db = sizes.sqlite_commits // SQLITE_CONNECTIONS
        preload = sizes.sqlite_preload // SQLITE_CONNECTIONS
        picks = np.random.default_rng(seed).integers(
            0, 128, size=(SQLITE_CONNECTIONS, preload + per_db, 3)).tolist()

        def load(db, task, txns):
            yield from db.open(task)
            for pages in txns:
                yield from db.write_transaction(task, pages)
            yield from db.close(task)

        env.run(until=env.all_of([
            env.process(load(db, task, txns[:preload]))
            for db, task, txns in zip(dbs, tasks, picks)]))
        store = tracer = None
        if traced:
            store = DocumentStore()
            tracer = DIOTracer(env, kernel, store,
                               TracerConfig(session_name=name))

    records: list = []

    def commit_loop(db, task, txns):
        yield from db.open(task)
        for pages in txns:
            begin = env.now
            yield from db.write_transaction(task, pages)
            records.append((begin, env.now - begin, "commit", task.tid))
        yield from db.close(task)

    events0, syscalls0 = _phase_counters(kernel)
    with phases.time("trace" if traced else "untraced"):
        if tracer is not None:
            tracer.attach()

        def run():
            start = env.now
            yield env.all_of([
                env.process(commit_loop(db, task, txns[preload:]))
                for db, task, txns in zip(dbs, tasks, picks)])
            elapsed = env.now - start
            if tracer is not None:
                yield from tracer.shutdown()
            return elapsed

        elapsed_ns = env.run(until=env.process(run()))
    events1, syscalls1 = _phase_counters(kernel)
    latencies = [latency for _, latency, _, _ in records]
    return Session(name, "sqlite", store, tracer, records,
                   len(records) / (elapsed_ns / 1e9),
                   float(np.percentile(latencies, 99)) / MS,
                   events1 - events0, syscalls1 - syscalls0,
                   journal_commits={db.journal_path: per_db for db in dbs})


#: Workload name -> the traced session it runs.
WORKLOADS = {"rocksdb_ycsb_traced": rocksdb_session,
             "sqlite_delete_fullscope": sqlite_session}


# ----------------------------------------------------------------------
# Post-mortem rounds

@dataclasses.dataclass
class Round:
    """``EXPORTS_PER_ROUND`` exports -> cold load of the last one +
    diagnose -> query mix pass."""

    #: Events each export saved.
    saved: list
    bytes_on_disk: int
    store: DocumentStore
    report: object
    first_view_ms: float
    query_ms: list
    #: Each query's work count (see :mod:`hostspeed`).
    query_units: list
    answers: list


def postmortem_round(session: Session, mix: list[Query], phases: Phases,
                     work_dir: Path) -> Round:
    path = work_dir / f"{session.name}-segments"
    saved = []
    try:
        for _ in range(EXPORTS_PER_ROUND):
            shutil.rmtree(path, ignore_errors=True)
            with phases.time("export"):
                saved.append(persistence.save_session(
                    session.store, session.name, path, index=INDEX,
                    storage_mode="segments"))
        bytes_on_disk = sum(f.stat().st_size for f in path.rglob("*")
                            if f.is_file())
        with phases.time("diagnose"):
            store = DocumentStore()
            persistence.load_session(store, path, index=INDEX)
            report = diagnose_module.diagnose_session(
                store, session.name, index=INDEX,
                latency_records=session.latency_records)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    query_ms: list[float] = []
    query_units: list[float] = []
    answers: list = []
    with phases.time("query"):
        # The first query of each panel kind builds the lazy indexes
        # and columns it needs on the fresh store; that first view is
        # timed on its own so the percentiles describe a warm store.
        first_view = time.perf_counter()
        for panel in PANELS:
            first = next((query for query in mix if query.panel == panel),
                         None)
            if first is not None:
                with phases.span(f"visualizer.{panel}"):
                    run_query(store, INDEX, session.name, first)
        first_view_ms = (time.perf_counter() - first_view) * 1e3
        for query in mix:
            with phases.span(f"visualizer.{query.panel}"):
                units = phases.clock.probe()
                start = time.perf_counter()
                answers.append(run_query(store, INDEX, session.name, query))
                query_ms.append((time.perf_counter() - start) * 1e3)
                query_units.append(phases.clock.probe() - units)
    return Round(saved, bytes_on_disk, store, report, first_view_ms,
                 query_ms, query_units, answers)


# ----------------------------------------------------------------------
# Correctness checks: each returns a list of failure messages.

def _event_key(source: dict) -> tuple:
    return (source["time"], source["tid"], source["syscall"])


def events_digest(store: DocumentStore, session: str) -> str:
    """Ids-free digest of a session's events (survives a reload)."""
    rows = [source for _, source in
            store.scan(INDEX, {"term": {"session": session}})]
    rows.sort(key=_event_key)
    return answer_digest(rows)


def store_digest(store: DocumentStore) -> str:
    """Digest of every stored document, ids included."""
    rows = sorted(store.scan(INDEX, None), key=lambda pair: pair[0])
    return answer_digest(rows)


def mapped_report(report, store: DocumentStore) -> str:
    """A diagnosis report with evidence ids replaced by event keys.

    A reload reassigns ``_id`` in time order, so raw reports of a live
    and a reloaded store differ in ``event_ids`` only.
    """
    data = report.as_dict()
    for finding in data["findings"]:
        evidence = finding.get("evidence") or {}
        if evidence.get("event_ids"):
            evidence["event_ids"] = [
                list(_event_key(store.get_doc(INDEX, event_id)))
                for event_id in evidence["event_ids"]]
    return json.dumps(data, sort_keys=True, default=str)


def expected_indexed(tracer: DIOTracer) -> int:
    """Events that should reach the store.

    Under ``drop-new`` and ``sample`` a discarded record never enters
    the ring, so it is counted in ``dropped`` but not in ``produced``;
    under ``overwrite-oldest`` the discarded record had been produced.
    Staged events lost to a consumer crash never ship.
    """
    stats = tracer.stats
    lost = stats.crash_lost
    if tracer.config.ring_policy == "overwrite-oldest":
        lost += stats.dropped
    return stats.produced - lost


def check_indexed(session: Session) -> list[str]:
    """Documents indexed = events that entered the ring and were not
    discarded or lost after it (see :func:`expected_indexed`)."""
    stats = session.tracer.stats
    indexed = session.store.count(INDEX, {"term": {"session": session.name}})
    expected = expected_indexed(session.tracer)
    if indexed != expected or stats.shipped != expected:
        return [f"{session.name}: {indexed} documents indexed, "
                f"{stats.shipped} shipped, expected {expected} "
                f"({stats.produced} produced, {stats.dropped} dropped, "
                f"{stats.crash_lost} lost)"]
    return []


def check_contention(session: Session) -> list[str]:
    """The Fig. 3/4 shape: windows with 5+ compaction threads exist,
    and so do calm ones."""
    report = detect_contention(session.store, INDEX, CONTENTION_WINDOW_NS,
                               CONTENTION_THREADS, session=session.name)
    if not report.contended_windows or not report.calm_windows:
        return [f"{session.name}: {len(report.contended_windows)} "
                f"windows with >= {CONTENTION_THREADS} compaction threads "
                f"and {len(report.calm_windows)} calm ones; need both"]
    return []


def check_journal(session: Session) -> list[str]:
    """Every commit's journal creat and unlink is stored, with a path."""
    def count(*must):
        return session.store.count(INDEX, {"bool": {"must": [
            {"term": {"session": session.name}}, *must]}})

    failures = []
    for path, commits in session.journal_commits.items():
        created = count({"term": {"syscall": "open"}},
                        {"term": {"file_path": path}})
        unlinked = count({"term": {"syscall": "unlink"}},
                         {"term": {"args.path": path}})
        if created != commits or unlinked != commits:
            failures.append(f"{session.name}: {commits} commits but "
                            f"{created} resolved creates and {unlinked} "
                            f"unlinks of {path} stored")
    return failures


APP_CHECKS = {"rocksdb": check_contention, "sqlite": check_journal}


def check_session(session: Session) -> list[str]:
    return check_indexed(session) + APP_CHECKS[session.app](session)


@dataclasses.dataclass
class Reference:
    """What the live (in-memory) store says; rounds must agree."""

    events: int
    events_digest: str
    report: str
    answers: list


def live_reference(session: Session, mix: list[Query]) -> Reference:
    store = session.store
    report = diagnose_module.diagnose_session(
        store, session.name, index=INDEX,
        latency_records=session.latency_records)
    return Reference(
        store.count(INDEX, {"term": {"session": session.name}}),
        events_digest(store, session.name),
        mapped_report(report, store),
        [answer_digest(run_query(store, INDEX, session.name, query))
         for query in mix])


def check_round(session: Session, reference: Reference,
                result: Round) -> tuple[list[str], int]:
    """Failures of one post-mortem round, and how many operations
    (the exports, the diagnosis, each query) they spoil."""
    failures: list[str] = []
    failed_ops = 0
    loaded = result.store.count(INDEX, {"term": {"session": session.name}})
    if (any(n != reference.events for n in result.saved)
            or loaded != reference.events
            or events_digest(result.store, session.name)
            != reference.events_digest):
        failures.append(f"{session.name}: reloaded store differs from the "
                        f"live one ({result.saved} saved, {loaded} loaded, "
                        f"{reference.events} live)")
        failed_ops += 1
    if mapped_report(result.report, result.store) != reference.report:
        failures.append(f"{session.name}: post-mortem diagnosis differs "
                        "from the live store's")
        failed_ops += 1
    wrong = [i for i, (answer, expected)
             in enumerate(zip(result.answers, reference.answers))
             if answer_digest(answer) != expected]
    if wrong or len(result.answers) != len(reference.answers):
        failures.append(f"{session.name}: {len(wrong)} of "
                        f"{len(reference.answers)} query answers differ "
                        f"from the live store's (first: #{wrong[:1]})")
        failed_ops += max(len(wrong), 1)
    return failures, failed_ops


# ----------------------------------------------------------------------
# Runs

def _median(values) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


@dataclasses.dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    failures: list
    sizes: dict
    #: Every timed phase's individual samples: wall time (s) and, in
    #: a plain run, work units.
    samples: dict = dataclasses.field(default_factory=dict)
    ledger: Optional[Ledger] = None
    #: Traced run: GC pauses per phase of the plain twin.
    gc: dict = dataclasses.field(default_factory=dict)


def _mix_for(session: Session, sizes: Sizes, seed: int) -> list[Query]:
    count = max(1, round(QUERIES_PER_ROUND * sizes.query_scale))
    domain = session_domain(session.store, INDEX, session.name)
    return make_mix(domain, seed, count)


def _memory_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_plain(run_session, seed: int, seconds: float, sizes: Sizes,
              work_dir: Path) -> Result:
    """The tracing-off run: every end-to-end metric, checked."""
    phases = Phases()
    failures: list[str] = []
    attempted = failed = cycles = 0
    reference = None
    start = time.perf_counter()
    cycle_s = 0.0
    with phases.clock:
        while cycles < MIN_CYCLES or (
                time.perf_counter() - start + cycle_s <= seconds):
            cycle_start = time.perf_counter()
            session = run_session(seed, sizes, phases)
            attempted += 1
            problems = check_session(session)
            failures += problems
            failed += bool(problems)
            if reference is None:
                mix = _mix_for(session, sizes, seed)
                reference = live_reference(session, mix)
                query_units: list[list[float]] = [[] for _ in mix]
                sim_metrics = {
                    "app_sim_ops_per_s": (session.sim_ops_per_s,
                                          "ops/sim-s"),
                    "app_sim_p99_ms": (session.sim_p99_ms, "sim-ms")}
            # Every session of one seed is the same run, so rounds over
            # later sessions are checked against the first reference.
            result = postmortem_round(session, mix, phases, work_dir)
            attempted += EXPORTS_PER_ROUND + 1 + len(mix)
            problems, spoiled = check_round(session, reference, result)
            failures += problems
            failed += spoiled
            for samples, units in zip(query_units, result.query_units):
                samples.append(units)
            del result, session
            cycles += 1
            cycle_s = time.perf_counter() - cycle_start

    # Each query of the mix runs once per round; like a phase, it
    # counts its median work over the rounds but the cold first.
    clock = phases.clock
    query_ms = [clock.seconds(_median(samples[1:])) * 1e3
                for samples in query_units]
    metrics = {
        "setup_s": (phases.estimate("setup"), "s"),
        "trace_s": (phases.estimate("trace"), "s"),
        **sim_metrics,
        "export_s": (phases.estimate("export", EXPORTS_PER_ROUND), "s"),
        "diagnose_s": (phases.estimate("diagnose"), "s"),
        "query_p50_ms": (percentile(query_ms, 50), "ms"),
        "query_p99_ms": (percentile(query_ms, 99), "ms"),
        "peak_rss_mb": (_memory_mb(), "MB"),
    }
    return Result(metrics, attempted, failed, failures, {
        **dataclasses.asdict(sizes), "sessions": cycles, "rounds": cycles,
        "queries": len(mix), "events": reference.events,
        "probes": len(clock.probes),
        "probe_us": clock.probe_quantiles_us()},
        samples={"seconds": dict(phases.seconds),
                 "units": dict(phases.units)})


def _self_s(totals: dict, name: str) -> float:
    return totals.get(name, {}).get("self_ns", 0) / 1e9


def _calls(totals: dict, name: str) -> int:
    return totals.get(name, {}).get("calls", 0)


def run_traced(run_session, seed: int, sizes: Sizes,
               work_dir: Path) -> Result:
    """The traced run: per-layer spans and counts from one session and
    one post-mortem round under the ledger, next to a plain twin."""
    failures: list[str] = []

    plain_phases = Phases()
    plain = run_session(seed, sizes, plain_phases)
    plain_digest = store_digest(plain.store)
    mix = _mix_for(plain, sizes, seed)
    reference = live_reference(plain, mix)
    postmortem_round(plain, mix, plain_phases, work_dir)
    untraced = run_session(seed, sizes, plain_phases, traced=False)
    del plain

    with Ledger() as ledger:
        phases = Phases(ledger)
        session = run_session(seed, sizes, phases)
        result = postmortem_round(session, mix, phases, work_dir)

    failures += check_session(session)
    failed = bool(failures)
    problems, spoiled = check_round(session, reference, result)
    failures += problems
    failed += spoiled
    if store_digest(session.store) != plain_digest:
        failures.append(f"{session.name}: the traced run's store differs "
                        "from the plain run's")
        failed += 1

    totals = ledger.totals()
    stats = session.tracer.stats
    report = session.tracer.correlation_report
    store = result.store
    offered = expected_indexed(session.tracer) + stats.dropped \
        + stats.crash_lost
    overhead = sum(
        _median(phases.seconds[phase]) - _median(plain_phases.seconds[phase])
        for phase in PHASES)
    metrics = {
        "sim.events": (session.sim_events, "count"),
        "kernel.syscalls": (session.syscalls, "count"),
        "apps.ops": (len(session.latency_records), "count"),
        "sim_kernel_apps.self_s": (_self_s(totals, "phase.trace"), "s"),
        "apps.untraced_s": (plain_phases.seconds["untraced"][0], "s"),
        "apps.untraced_sim_events": (untraced.sim_events, "count"),
        "tracer.tracepoint_s": (_self_s(totals, "tracer.tracepoint"), "s"),
        "tracer.tracepoint_calls": (_calls(totals, "tracer.tracepoint"),
                                    "count"),
        "tracer.decode_s": (_self_s(totals, "tracer.decode"), "s"),
        "tracer.batches": (_calls(totals, "tracer.decode"), "count"),
        "ebpf.ring_produce_s": (_self_s(totals, "ebpf.ring_produce"), "s"),
        "ebpf.ring_consume_s": (_self_s(totals, "ebpf.ring_consume"), "s"),
        "ebpf.produced": (stats.produced, "count"),
        "ebpf.event_loss_ratio": (
            (stats.dropped + stats.crash_lost) / offered if offered else 0.0,
            "ratio"),
        "backend.bulk_s": (_self_s(totals, "backend.bulk"), "s"),
        "backend.docs_indexed": (
            session.store.count(INDEX, {"term": {"session": session.name}}),
            "count"),
        "backend.correlate_s": (_self_s(totals, "backend.correlate"), "s"),
        "backend.correlate_unresolved_ratio": (report.unresolved_ratio,
                                               "ratio"),
        "backend.save_s": (_self_s(totals, "backend.save"), "s"),
        "backend.bytes_per_event": (
            result.bytes_on_disk / result.saved[-1], "B/event"),
        "backend.load_s": (_self_s(totals, "backend.load"), "s"),
        "backend.search_s": (_self_s(totals, "backend.search"), "s"),
        "backend.search_calls": (_calls(totals, "backend.search"), "count"),
        "backend.agg_cache_hit_ratio": (store.agg_cache_hit_rate(), "ratio"),
        "backend.pruning_ratio": (store.pruning_ratio(), "ratio"),
        "backend.agg_fallbacks": (store.agg_fallbacks, "count"),
        "analysis.detectors_s": (_self_s(totals, "analysis.detectors"), "s"),
        "analysis.replay_s": (_self_s(totals, "analysis.replay"), "s"),
        "analysis.dfg_s": (_self_s(totals, "analysis.dfg"), "s"),
        "analysis.phases_s": (_self_s(totals, "analysis.phases"), "s"),
    }
    for detector in DEFAULT_DETECTORS:
        name = f"analysis.detector.{detector.name}"
        metrics[f"{name}_s"] = (_self_s(totals, name), "s")
    by_panel: dict[str, list[float]] = defaultdict(list)
    for query, latency in zip(mix, result.query_ms):
        by_panel[query.panel].append(latency)
    for panel in PANELS:
        latencies = by_panel.get(panel) or [0.0]
        metrics[f"visualizer.{panel}.p50_ms"] = (percentile(latencies, 50),
                                                 "ms")
        metrics[f"visualizer.{panel}.p90_ms"] = (percentile(latencies, 90),
                                                 "ms")
    metrics["visualizer.first_view_ms"] = (result.first_view_ms, "ms")
    # GC of the plain twin's session and round: the ledger's own spans
    # would add collections of their own.
    twin_gc = {phase: plain_phases.gc[phase][0] for phase in PHASES}
    metrics["runtime.gc_s"] = (sum(s for s, _ in twin_gc.values()), "s")
    metrics["runtime.gc_collections"] = (
        sum(n for _, n in twin_gc.values()), "count")
    metrics["ledger.overhead_s"] = (overhead, "s")
    return Result(metrics, EXPORTS_PER_ROUND + 2 + len(mix), failed,
                  failures,
                  {**dataclasses.asdict(sizes), "sessions": 1, "rounds": 1,
                   "queries": len(mix), "events": reference.events},
                  samples={"seconds": dict(phases.seconds)},
                  ledger=ledger,
                  gc={phase: {"gc_s": s, "collections": n}
                      for phase, (s, n) in twin_gc.items()})
