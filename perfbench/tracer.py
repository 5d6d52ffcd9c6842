"""Per-layer spans for `squidring`, recorded from outside the package.

The tracer replaces functions by name in the module that calls them (so
`squidring.experiments.evolve_tdse` is wrapped, not the definition in
`dynamics`), records one span per call on a thread-local stack, and after
the run turns the spans into per-layer call counts and self times. A target
that no longer exists is listed in `missing`, and a layer whose targets are
all missing is left out of the report.

Self time of a span is its duration minus the part covered by its child
spans. Sweep points run in a thread pool; their spans are roots in worker
threads. A worker thread counts as busy from its first root span to its
last, and the busy time not covered by its spans is experiment code (the
spectral evolution and its einsum), so it goes to `experiments`. While any
worker is busy the main thread is waiting in the pool, so that part of a
main-thread experiments span is not self time.
"""
from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict

clock = time.perf_counter

EXPERIMENTS = "experiments"

# (module that makes the call, attribute, layer, timed). Untimed targets are
# only counted; their time stays in the caller's self time.
TARGETS = (
    ("squidring.cli", "apply_overrides", "cli.config", True),
    ("squidring.cli", "parse_config", "cli.config", True),
    ("squidring.cli", "_write_rows", "cli.write", True),
    ("squidring.cli", "run_ramp", EXPERIMENTS, True),
    ("squidring.cli", "run_dissipative", EXPERIMENTS, True),
    ("squidring.cli", "run_sweep", EXPERIMENTS, True),
    ("squidring.experiments", "run_ramp", EXPERIMENTS, True),
    ("squidring.experiments", "truncate_to_eigenbasis", "circuit.model_build", True),
    ("squidring.experiments", "build_total", "circuit.assembly", True),
    ("squidring.circuit", "RampHamiltonian.__call__", "circuit.assembly", True),
    ("squidring.experiments", "evolve_tdse", "dynamics.tdse", True),
    ("squidring.experiments", "evolve_lindblad", "dynamics.lindblad", True),
    ("squidring.experiments", "record_from_state", "observables.records", True),
    ("squidring.experiments", "labeled_basis", "observables.labeled_basis", True),
    ("squidring.experiments", "time_averaged_energy", "observables.time_average", True),
    ("squidring.observables", "component_energy", "observables.component_energy", True),
    ("squidring.observables", "vn_entropy", "linalg.vn_entropy", True),
    ("squidring.observables", "partial_trace", "linalg.partial_trace", False),
)


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: dict[int, list] = {}      # thread id -> [(layer, start, end, parent)]
        self._counts: dict[int, Counter] = {}  # thread id -> untimed calls per layer
        self._restore: list[tuple[object, str, object]] = []
        self._found: set[str] = set()

    def install(self) -> None:
        for module, attr, layer, timed in self.targets:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except AttributeError:
                self.missing.append(f"{module}.{attr}")
                continue
            self._restore.append((owner, name, fn))
            setattr(owner, name, self._timed(fn, layer) if timed else self._counted(fn, layer))
            self._found.add(layer)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    def _thread_state(self):
        try:
            return self._local.spans, self._local.stack, self._local.counts
        except AttributeError:
            tid = threading.get_ident()
            local = self._local
            local.spans, local.stack, local.counts = [], [], Counter()
            with self._lock:
                self._spans[tid] = local.spans
                self._counts[tid] = local.counts
            return local.spans, local.stack, local.counts

    def _timed(self, fn, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack, _ = self._thread_state()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (layer, start, clock(), parent)
                stack.pop()
        return traced

    def _counted(self, fn, layer):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._thread_state()[2][layer] += 1
            return fn(*args, **kwargs)
        return counted

    def report(self) -> dict:
        """{layer: {"calls", "self_s"}} for every layer with a target found,
        plus the experiments layer's "overlap" (thread busy time over wall)."""
        totals = layer_totals(self._spans, threading.main_thread().ident)
        for counts in self._counts.values():
            for layer, n in counts.items():
                totals.setdefault(layer, {"calls": 0})["calls"] += n
        for layer in self._found:
            totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
        return {k: v for k, v in totals.items() if k in self._found}


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, lo, hi = 0.0, None, None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    return total + (hi - lo if hi is not None else 0.0)


def _clip(intervals, start: float, end: float) -> list[tuple[float, float]]:
    return [(max(a, start), min(b, end)) for a, b in intervals if a < end and b > start]


def layer_totals(threads: dict[int, list], main_thread: int) -> dict:
    """Per-layer calls and self time from each thread's spans.

    `threads` maps a thread id to its spans (layer, start, end, parent), with
    parent the index of the enclosing span in the same thread or None.
    """
    totals: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    busy = []      # worker threads' busy intervals
    for tid, spans in threads.items():
        if tid == main_thread:
            continue
        roots = [(s, e) for _, s, e, parent in spans if parent is None]
        if roots:
            start, end = min(s for s, _ in roots), max(e for _, e in roots)
            busy.append((start, end))
            totals[EXPERIMENTS]["self_s"] += (end - start) - union_length(roots)

    for tid, spans in threads.items():
        children = defaultdict(list)
        for _, s, e, parent in spans:
            if parent is not None:
                children[parent].append((s, e))
        for idx, (layer, s, e, _) in enumerate(spans):
            covered = children.get(idx, [])
            if tid == main_thread and layer == EXPERIMENTS:
                covered = covered + _clip(busy, s, e)
            totals[layer]["calls"] += 1
            totals[layer]["self_s"] += (e - s) - union_length(covered)

    main = threads.get(main_thread, [])
    outer = [(s, e) for layer, s, e, parent in main
             if layer == EXPERIMENTS and not _inside_experiments(main, parent)]
    wall = sum(e - s for s, e in outer)
    if wall > 0:
        main_busy = sum((e - s) - union_length(_clip(busy, s, e)) for s, e in outer)
        worker_busy = sum(b - a for s, e in outer for a, b in _clip(busy, s, e))
        totals[EXPERIMENTS]["overlap"] = (main_busy + worker_busy) / wall
    return dict(totals)


def _inside_experiments(spans: list, parent) -> bool:
    while parent is not None:
        layer, _, _, parent_of_parent = spans[parent]
        if layer == EXPERIMENTS:
            return True
        parent = parent_of_parent
    return False
