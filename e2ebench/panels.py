"""The seeded dashboard query mix a DIO user runs against a session.

Each panel is one question a user asks of a stored trace in the
dashboards: the Fig. 4 syscalls-over-time chart, a time-window hit
list, one thread's syscall terms and one syscall's return-value
histogram in a time window, the Fig. 2 file-access table (one file and
syscall in a time window), an offset map, the iotop-style process
panel and the landing syscall summary.  The mix draws panels and their
parameters (windows, threads, files) from a seeded RNG over values
that exist in the session, so the same seed asks the same questions.

Answers are returned as JSON-ready data with backend ids removed and
rows in a canonical order, so answers from a live store and from a
reloaded one (whose ``_id`` values differ) compare equal.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import NamedTuple

from repro.backend.store import DocumentStore
from repro.visualizer import DIODashboards

#: Panel name -> share of the mix.  Drilling into a time window is
#: what a user does most; whole-session panels are rarer.
PANEL_WEIGHTS = {
    "time_window_hits": 40,
    "thread_syscalls": 15,
    "syscalls_over_time": 10,
    "ret_histogram": 10,
    "offset_map": 10,
    "file_access": 5,
    "process_io": 5,
    "syscall_summary": 5,
}
PANELS = tuple(PANEL_WEIGHTS)

#: The Fig. 4 chart's resolution.  Hit lists zoom into windows of
#: 0.5-5 ms; the per-file and per-thread panels into windows of
#: 1-20 ms.  Widths are drawn uniformly between the bounds.
_CHART_WINDOW_NS = 10_000_000
_HIT_WINDOW_NS = (500_000, 5_000_000)
_PANEL_WINDOW_NS = (1_000_000, 20_000_000)
_HIT_LIST_SIZE = 200


class Query(NamedTuple):
    panel: str
    params: tuple


class Domain(NamedTuple):
    """Values a session offers as panel parameters, each with the
    number of events carrying it."""

    start_ns: int
    end_ns: int
    tids: dict
    paths: dict
    tags: dict
    syscalls: dict


def _terms(store: DocumentStore, index: str, session: str,
           field: str) -> dict:
    response = store.search(
        index, query={"term": {"session": session}}, size=0,
        aggs={"keys": {"terms": {"field": field, "size": 100_000}}})
    return {bucket["key"]: bucket["doc_count"] for bucket in
            sorted(response["aggregations"]["keys"]["buckets"],
                   key=lambda bucket: str(bucket["key"]))}


def session_domain(store: DocumentStore, index: str,
                   session: str) -> Domain:
    """Read the parameter domain of one session (not timed)."""
    response = store.search(
        index, query={"term": {"session": session}}, size=0,
        aggs={"t": {"stats": {"field": "time"}}})
    stats = response["aggregations"]["t"]
    return Domain(int(stats["min"]), int(stats["max"]),
                  _terms(store, index, session, "tid"),
                  _terms(store, index, session, "file_path"),
                  _terms(store, index, session, "file_tag"),
                  _terms(store, index, session, "syscall"))


def make_mix(domain: Domain, seed: int, count: int) -> list[Query]:
    """``count`` seeded queries over ``domain``.

    Each panel gets its exact share of the mix, in seeded order, and
    threads, files and syscalls are picked in proportion to their
    events (a user drills into what is busy).  Both keep the latency
    percentiles from hinging on a few lucky draws.  The offset map is
    drawn over files uniformly instead: over whole files, a busy one
    costs a hundred times a typical one.
    """
    rng = random.Random(seed)
    total = sum(PANEL_WEIGHTS.values())
    panels = [panel for panel, weight in PANEL_WEIGHTS.items()
              for _ in range(round(count * weight / total))]
    panels = (panels + list(PANELS) * count)[:count]
    rng.shuffle(panels)

    def pick(values: dict):
        return rng.choices(list(values), weights=list(values.values()))[0]

    span = max(domain.end_ns - domain.start_ns, 1)

    def window(bounds: tuple) -> tuple:
        return domain.start_ns + rng.randrange(span), rng.randrange(*bounds)

    mix = []
    for panel in panels:
        if panel == "time_window_hits":
            params = window(_HIT_WINDOW_NS)
        elif panel == "thread_syscalls":
            params = (pick(domain.tids), *window(_PANEL_WINDOW_NS))
        elif panel == "ret_histogram":
            params = (pick(domain.syscalls), *window(_PANEL_WINDOW_NS))
        elif panel == "offset_map":
            params = (rng.choice(list(domain.tags)),)
        elif panel == "file_access":
            params = (pick(domain.paths), pick(domain.syscalls),
                      *window(_PANEL_WINDOW_NS))
        else:
            params = ()
        mix.append(Query(panel, params))
    return mix


def _rows(sources) -> list[dict]:
    """Event rows in (time, tid, syscall) order: ties in ``time`` may
    be stored in either order by a live and a reloaded store."""
    return sorted(sources, key=lambda s: (s["time"], s["tid"],
                                          s["syscall"]))


def _session_query(session: str, *must: dict) -> dict:
    return {"bool": {"must": [{"term": {"session": session}}, *must]}}


def _in_window(start_ns: int, width_ns: int) -> dict:
    return {"range": {"time": {"gte": start_ns, "lt": start_ns + width_ns}}}


def _time_window_hits(store, index, session, start_ns, width_ns):
    response = store.search(
        index, query=_session_query(session, _in_window(start_ns, width_ns)),
        sort=["time", "tid"], size=_HIT_LIST_SIZE)
    return {"total": response["hits"]["total"]["value"],
            "rows": [hit["_source"] for hit in response["hits"]["hits"]]}


def _file_access(store, index, session, path, syscall, start_ns, width_ns):
    """The Fig. 2 table for one file and syscall in a time window."""
    response = store.search(
        index, query=_session_query(
            session, {"term": {"file_path": path}},
            {"term": {"syscall": syscall}}, _in_window(start_ns, width_ns)),
        sort=["time", "tid"], size=None)
    return [hit["_source"] for hit in response["hits"]["hits"]]


def _thread_syscalls(store, index, session, tid, start_ns, width_ns):
    response = store.search(
        index, query=_session_query(session, {"term": {"tid": tid}},
                                    _in_window(start_ns, width_ns)),
        size=0, aggs={"by_syscall": {"terms": {"field": "syscall",
                                               "size": 64}}})
    return response["aggregations"]


def _ret_histogram(store, index, session, syscall, start_ns, width_ns):
    response = store.search(
        index, query=_session_query(session, {"term": {"syscall": syscall}},
                                    _in_window(start_ns, width_ns)),
        size=0, aggs={"ret": {"histogram": {"field": "ret",
                                            "interval": 4096}}})
    return response["aggregations"]


def run_query(store: DocumentStore, index: str, session: str,
              query: Query):
    """Answer one panel query (what the timed loop calls)."""
    panel, params = query
    dashboards = DIODashboards(store, index, session=session)
    if panel == "time_window_hits":
        return _time_window_hits(store, index, session, *params)
    if panel == "thread_syscalls":
        return _thread_syscalls(store, index, session, *params)
    if panel == "syscalls_over_time":
        return dashboards.syscalls_over_time_chart(_CHART_WINDOW_NS)
    if panel == "ret_histogram":
        return _ret_histogram(store, index, session, *params)
    if panel == "file_access":
        return _file_access(store, index, session, *params)
    if panel == "offset_map":
        return _rows(dashboards.offset_events(file_tag=params[0]))
    if panel == "process_io":
        return dashboards.process_io_table()
    if panel == "syscall_summary":
        return dashboards.syscall_summary()
    raise ValueError(f"unknown panel {panel!r}")


def answer_digest(answer) -> str:
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()

