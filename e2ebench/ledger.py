"""Outside-in span ledger for the end-to-end benchmark.

The traced run measures DIO's layers without touching ``src/``: while a
:class:`Ledger` is installed, the public functions listed in
:func:`layer_targets` are replaced by wrappers that record one
wall-clock span per call (name, start, end, parent).  Spans stay in
memory and are written out once the run ends.

A span's *self time* is its duration minus the durations of its direct
children, so within one phase span the self times of every span it
contains, plus the phase's own self time (the residual), add up to the
phase's wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.analysis import diagnose as diagnose_module
from repro.analysis.detectors import DEFAULT_DETECTORS
from repro.backend import persistence
from repro.backend.correlation import FilePathCorrelator
from repro.backend.store import DocumentStore
from repro.ebpf.ringbuf import PerCPURingBuffer
from repro.kernel.tracepoints import TracepointRegistry
from repro.tracer.batch import RecordBatch

#: Prefix of the spans the benchmark opens around its own phases.
PHASE_PREFIX = "phase."

_clock = time.perf_counter_ns


def layer_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point.

    The analysis helpers are patched where ``repro.analysis.diagnose``
    looks them up, since that module imported them by name.
    """
    targets: list[tuple[object, str, str]] = [
        (TracepointRegistry, "fire_enter", "tracer.tracepoint"),
        (TracepointRegistry, "fire_exit", "tracer.tracepoint"),
        (RecordBatch, "decode", "tracer.decode"),
        (PerCPURingBuffer, "produce", "ebpf.ring_produce"),
        (PerCPURingBuffer, "consume", "ebpf.ring_consume"),
        (DocumentStore, "bulk", "backend.bulk"),
        (DocumentStore, "bulk_columnar", "backend.bulk"),
        (DocumentStore, "search", "backend.search"),
        (FilePathCorrelator, "correlate", "backend.correlate"),
        (persistence, "save_session", "backend.save"),
        (persistence, "load_session", "backend.load"),
        (diagnose_module, "run_detectors", "analysis.detectors"),
        (diagnose_module, "replay_through_tap", "analysis.replay"),
        (diagnose_module, "merged_dfg", "analysis.dfg"),
        (diagnose_module, "segment_phases", "analysis.phases"),
    ]
    for detector in DEFAULT_DETECTORS:
        targets.append((type(detector), "run",
                        f"analysis.detector.{detector.name}"))
    return targets


class Ledger:
    """In-memory span recorder.

    Use as a context manager: entering wraps every target, leaving
    restores the originals.  Spans are
    opened and closed strictly nested because every wrapped function
    is synchronous (the simulator's generators are never wrapped).
    """

    def __init__(self, targets: Optional[list] = None) -> None:
        self.targets = layer_targets() if targets is None else targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: One ``[name_id, start_ns, end_ns, parent_index]`` per span.
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Open a span; returns its index for :meth:`close`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), _clock(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end_ns = _clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index][2] = end_ns

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with ledger.span("phase.trace"):`` around benchmark code."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording one span named ``name`` per call."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    # -- install / restore --------------------------------------------

    def __enter__(self) -> "Ledger":
        for owner, attribute, name in self.targets:
            raw = (owner.__dict__[attribute] if isinstance(owner, type)
                   else getattr(owner, attribute))
            if isinstance(raw, classmethod):   # RecordBatch.decode
                patched = classmethod(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            self._saved.append((owner, attribute, raw))
            setattr(owner, attribute, patched)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time (ns): duration minus direct children."""
        selfs = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def phase_of(self) -> list[int]:
        """Index of the outermost phase span enclosing each span."""
        phase_ids = {i for i, name in enumerate(self.names)
                     if name.startswith(PHASE_PREFIX)}
        phases = [-1] * len(self.spans)
        for index, (name_id, _, _, parent) in enumerate(self.spans):
            if parent >= 0 and phases[parent] >= 0:
                phases[index] = phases[parent]
            elif name_id in phase_ids:
                phases[index] = index
        return phases

    def totals(self) -> dict[str, dict[str, int]]:
        """``name -> {"calls", "self_ns"}`` over all spans."""
        selfs = self.self_times()
        out: dict[str, dict[str, int]] = defaultdict(
            lambda: {"calls": 0, "self_ns": 0})
        for index, span in enumerate(self.spans):
            entry = out[self.names[span[0]]]
            entry["calls"] += 1
            entry["self_ns"] += selfs[index]
        return dict(out)

    def by_phase(self) -> dict[str, dict[str, dict[str, int]]]:
        """``phase name -> span name -> {"calls", "self_ns"}``.

        Each phase also lists itself (its self time is the residual
        not covered by any wrapped call) and a ``wall_ns`` entry.
        """
        selfs = self.self_times()
        phases = self.phase_of()
        out: dict[str, dict[str, dict[str, int]]] = {}
        for index, (name_id, start, end, _) in enumerate(self.spans):
            phase = phases[index]
            if phase < 0:
                continue
            rows = out.setdefault(self.names[self.spans[phase][0]], {})
            if phase == index:
                wall = rows.setdefault("wall_ns", {"calls": 0, "self_ns": 0})
                wall["calls"] += 1
                wall["self_ns"] += end - start
            row = rows.setdefault(self.names[name_id],
                                  {"calls": 0, "self_ns": 0})
            row["calls"] += 1
            row["self_ns"] += selfs[index]
        return out

    # -- output --------------------------------------------------------

    def render(self, title: str) -> str:
        """Per-phase table, phases in the order they ran: self time,
        share of the phase, calls."""
        lines = [title]
        for phase, rows in self.by_phase().items():
            wall = rows["wall_ns"]["self_ns"]
            lines.append(f"  {phase}  wall {wall / 1e9:.4f} s "
                         f"over {rows['wall_ns']['calls']} span(s)")
            lines.append(f"    {'span':<42}{'self_s':>10}{'share':>8}"
                         f"{'calls':>10}")
            body = sorted(((name, row) for name, row in rows.items()
                           if name != "wall_ns"),
                          key=lambda item: -item[1]["self_ns"])
            for name, row in body:
                label = "(residual: no wrapped call)" if name == phase else name
                share = row["self_ns"] / wall if wall else 0.0
                lines.append(f"    {label:<42}{row['self_ns'] / 1e9:>10.4f}"
                             f"{share:>8.1%}{row['calls']:>10}")
        return "\n".join(lines)

    def write(self, path: Path) -> None:
        """Dump every span (compact columns) as JSON."""
        payload = {
            "names": self.names,
            "columns": ["name_id", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))

