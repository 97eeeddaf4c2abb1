"""Self-tests of the end-to-end benchmark at tiny sizes.

Run from the repository root with
``python -m pytest e2ebench/tests -q`` (about two minutes).
"""

import dataclasses
import functools
import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import workloads
from ledger import Ledger
from panels import answer_digest, make_mix, session_domain

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.SIZES["tiny"]


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace, section):
    done = run_cli(ROOT, "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli(tmp_path, "--workload", "rocksdb_ycsb_traced",
                   "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture(scope="module")
def sqlite_session():
    return workloads.sqlite_session(5, TINY, workloads.Phases())


def test_two_seeds_give_different_inputs(sqlite_session):
    other = workloads.sqlite_session(6, TINY, workloads.Phases())
    digest = workloads.events_digest
    assert (digest(sqlite_session.store, sqlite_session.name)
            != digest(other.store, other.name))
    domain = session_domain(sqlite_session.store, workloads.INDEX,
                            sqlite_session.name)
    assert make_mix(domain, 5, 50) != make_mix(domain, 6, 50)
    assert make_mix(domain, 5, 50) == make_mix(domain, 5, 50)


def test_span_self_times_and_residual_sum_to_phase_wall_time(tmp_path):
    result = workloads.run_traced(workloads.sqlite_session, 4, TINY,
                                  tmp_path)
    assert not result.failures
    ledger = result.ledger
    by_phase = ledger.by_phase()
    assert set(by_phase) >= {"phase.setup", "phase.trace", "phase.export",
                             "phase.diagnose", "phase.query"}
    for rows in by_phase.values():
        inside_ns = sum(row["self_ns"] for name, row in rows.items()
                        if name != "wall_ns")
        assert inside_ns == rows["wall_ns"]["self_ns"]
    assert min(ledger.self_times()) >= 0
    assert result.metrics["sim_kernel_apps.self_s"][0] > 0
    assert result.metrics["tracer.tracepoint_calls"][0] > 0


def test_ledger_self_time_of_nested_spans():
    ledger = Ledger(targets=[])
    with ledger:
        with ledger.span("phase.outer"):
            with ledger.span("child"):
                time.sleep(0.002)
                with ledger.span("grandchild"):
                    time.sleep(0.002)
            time.sleep(0.001)
    outer, child, grandchild = ledger.spans
    selfs = ledger.self_times()
    assert selfs[0] == (outer[2] - outer[1]) - (child[2] - child[1])
    assert selfs[1] == (child[2] - child[1]) - (grandchild[2]
                                                - grandchild[1])
    assert sum(selfs) == outer[2] - outer[1]


def test_forced_collection_before_a_phase_is_not_tallied():
    phases = workloads.Phases()
    with phases.time("quiet"):
        pass
    with phases.time("collects"):
        gc.collect()
    assert phases.gc["quiet"] == [(0.0, 0)]
    pause_s, collections = phases.gc["collects"][0]
    assert collections == 1 and pause_s > 0


def test_work_clock_counts_the_same_work_at_any_host_speed(monkeypatch):
    def count(speed):
        # Every clock read is one step later: probes and the work
        # between them all slow down together on a slow host.
        ticks = iter(range(1000))
        monkeypatch.setattr(hostspeed, "_clock",
                            lambda: next(ticks) * 1e-5 * speed)
        clock = hostspeed.WorkClock()
        units = [clock.probe() for _ in range(10)]
        return units[-1] - units[0], clock.probes
    fast_units, fast_probes = count(1.0)
    slow_units, slow_probes = count(2.0)
    assert fast_units == pytest.approx(slow_units) == pytest.approx(9)
    assert slow_probes == pytest.approx([2 * p for p in fast_probes])


def test_work_clock_probes_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.WorkClock() as clock:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(clock.probes) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    quantiles = clock.probe_quantiles_us()
    assert 0 < quantiles["p1"] <= quantiles["p50"] <= quantiles["p99"]


@pytest.mark.parametrize("policy", ["drop-new", "overwrite-oldest",
                                    "sample"])
def test_ring_drops_are_accounted_for(monkeypatch, policy):
    # A ring of a few records per CPU overflows under every policy.
    monkeypatch.setattr(workloads, "TracerConfig", functools.partial(
        workloads.TracerConfig, ring_capacity_bytes_per_cpu=2048,
        ring_policy=policy))
    session = workloads.sqlite_session(9, TINY, workloads.Phases())
    stats = session.tracer.stats
    assert stats.dropped > 0
    assert workloads.check_indexed(session) == []
    assert session.store.count(workloads.INDEX, None) == (
        workloads.expected_indexed(session.tracer))


def test_dropped_document_fails_the_check():
    session = workloads.sqlite_session(8, TINY, workloads.Phases())
    assert workloads.check_session(session) == []
    victim_id, victim = session.store.scan(
        workloads.INDEX, {"term": {"syscall": "fsync"}})[0]
    removed = session.store.delete_by_query(workloads.INDEX, {"bool": {
        "must": [{"term": {"tid": victim["tid"]}},
                 {"term": {"time": victim["time"]}}]}})
    assert removed == 1
    assert workloads.check_indexed(session)


def test_altered_query_answer_fails_the_check(tmp_path):
    session = workloads.sqlite_session(7, TINY, workloads.Phases())
    domain = session_domain(session.store, workloads.INDEX, session.name)
    mix = make_mix(domain, 7, 40)
    reference = workloads.live_reference(session, mix)
    result = workloads.postmortem_round(session, mix, workloads.Phases(),
                                        tmp_path)
    assert workloads.check_round(session, reference, result) == ([], 0)
    altered = dataclasses.replace(result, answers=list(result.answers))
    altered.answers[3] = {"tampered": answer_digest(altered.answers[3])}
    failures, failed_ops = workloads.check_round(session, reference, altered)
    assert failures and failed_ops == 1
