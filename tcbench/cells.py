"""Closure cells: run through ``run_single``, check, and (traced) attribute.

Each cell goes through :func:`repro.experiments.runner.run_single` with
a RunRecord sink attached, as a sweep would run it, one cell at a time
in this process.  Every answer is compared tuple-for-tuple with the
benchmark's BFS oracle and every paper counter with its recorded value.

The traced variant observes the program only from outside: it wraps the
two-phase methods of the algorithm classes and registers a
``gc.callbacks`` hook for the duration of a pass, and undoes both after.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.query import SystemConfig
from repro.core.registry import make_algorithm
from repro.experiments.queries import QuerySpec
from repro.experiments.runner import run_single
from repro.obs.sink import RunSink
from repro.storage.iostats import Phase

from tcbench.workloads import Cell

EXPECTED_PATH = Path(__file__).with_name("expected_counters.json")

PHASES = ("restructure", "compute", "writeout")
PHASE_METHODS = {"restructure": "restructure", "compute": "compute", "write_out": "writeout"}


def cell_key(cell: Cell, engine: str, scale: int, graph_seed: int) -> str:
    return (f"{engine}/{cell.algorithm}/{cell.family}/scale{scale}/M{cell.buffer_pages}"
            f"/s{cell.sources}/ilimit{cell.ilimit}/graph{graph_seed}")


def paper_counters(result) -> dict[str, int]:
    """The counters no speedup may move (ROADMAP's fixed point)."""
    metrics = result.metrics
    io = metrics.io
    counters = {
        "total_io": metrics.total_io,
        "tuples_generated": metrics.tuples_generated,
        "duplicates": metrics.duplicates,
        "list_unions": metrics.list_unions,
    }
    for phase in Phase:
        counters[f"{phase.value}_reads"] = io.reads_in(phase)
        counters[f"{phase.value}_writes"] = io.writes_in(phase)
    return counters


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict[str, int]]:
    with open(path) as handle:
        return json.load(handle)


class LineSink(RunSink):
    """Serialises each RunRecord to a JSON line in memory, timing the emit."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.seconds = 0.0

    def emit(self, record) -> None:
        start = time.perf_counter()
        self.lines.append(record.to_json())
        self.seconds += time.perf_counter() - start


@dataclass
class CellOutcome:
    seconds: float
    failures: list[str]
    io_reads: int = 0
    io_writes: int = 0
    io_requests: int = 0
    io_hits: int = 0
    tuples_generated: int = 0
    duplicates: int = 0
    list_unions: int = 0


class CellRunner:
    """Runs a workload's cells on its engine and checks every outcome."""

    def __init__(self, engine: str, scale: int, graph_seed: int, graphs, oracles,
                 expected: dict[str, dict[str, int]]) -> None:
        self.engine = engine
        self.scale = scale
        self.graph_seed = graph_seed
        self.graphs = graphs
        self.oracles = oracles
        self.expected = expected
        self.sink = LineSink()

    def result(self, cell: Cell, engine: str):
        """One ``run_single`` of ``cell`` on ``engine``; returns ``(result, seconds)``."""
        spec = self._spec(cell)
        system = SystemConfig(buffer_pages=cell.buffer_pages, engine=engine,
                              ilimit=cell.ilimit)
        start = time.perf_counter()
        result = run_single(cell.algorithm, self.graphs[cell.family], spec, system,
                            sink=self.sink,
                            workload={"family": cell.family, "scale": self.scale,
                                      "seed": self.graph_seed})
        return result, time.perf_counter() - start

    def run(self, cell: Cell, engine: str | None = None) -> CellOutcome:
        """Run and check one cell (on the workload's engine by default)."""
        engine = engine or self.engine
        result, seconds = self.result(cell, engine)
        failures = [self.check_closure(cell, result), self.check_counters(cell, engine, result)]
        io = result.metrics.io
        return CellOutcome(
            seconds=seconds,
            failures=[failure for failure in failures if failure],
            io_reads=io.total_reads,
            io_writes=io.total_writes,
            io_requests=io.total_requests,
            io_hits=io.total_hits,
            tuples_generated=result.metrics.tuples_generated,
            duplicates=result.metrics.duplicates,
            list_unions=result.metrics.list_unions,
        )

    def _spec(self, cell: Cell) -> QuerySpec:
        if cell.sources is None:
            return QuerySpec.full()
        return QuerySpec.selection(cell.sources)

    def check_closure(self, cell: Cell, result) -> str | None:
        """Compare the answer tuple-for-tuple with the BFS oracle."""
        graph = self.graphs[cell.family]
        oracle = self.oracles[cell.family]
        spec = self._spec(cell)
        if spec.selectivity is None:
            nodes = range(graph.num_nodes)
        else:
            nodes = spec.materialise(graph, 0).sources
        expected = {node: oracle.bits(node) for node in nodes}
        if result.successor_bits == expected:
            return None
        wrong = sum(1 for node in expected if result.successor_bits.get(node) != expected[node])
        extra = len(set(result.successor_bits) - set(expected))
        return (f"{cell.algorithm}/{cell.family}: closure differs from BFS on {wrong} "
                f"source(s), {extra} unexpected source(s)")

    def check_counters(self, cell: Cell, engine: str, result) -> str | None:
        """Compare the paper counters exactly with their recorded values."""
        key = cell_key(cell, engine, self.scale, self.graph_seed)
        recorded = self.expected.get(key)
        if recorded is None:
            return f"{key}: no recorded counters"
        counters = paper_counters(result)
        if counters == recorded:
            return None
        moved = {name: (recorded.get(name), value) for name, value in counters.items()
                 if recorded.get(name) != value}
        return f"{key}: counters moved (recorded, measured) {moved}"


# -- tracing from outside the program ----------------------------------------


@dataclass
class LayerTrace:
    """Spans and GC pauses collected while a traced pass runs."""

    phase_seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    phase_gc_seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))
    gc_pause: float = 0.0
    gc_collections: int = 0
    gc_gen2: int = 0
    _active: str | None = None
    _gc_start: float = 0.0

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_start
        self.gc_pause += pause
        self.gc_collections += 1
        if info.get("generation") == 2:
            self.gc_gen2 += 1
        if self._active is not None:
            self.phase_gc_seconds[self._active] += pause

    def self_seconds(self, phase: str) -> float:
        """Phase span time minus the GC pauses that landed inside it."""
        return self.phase_seconds[phase] - self.phase_gc_seconds[phase]


class traced:
    """Context manager: phase spans on the algorithm classes + a GC hook."""

    def __init__(self, algorithms, trace: LayerTrace) -> None:
        self.trace = trace
        self.classes = {klass for name in algorithms
                        for klass in type(make_algorithm(name)).__mro__}
        self._patched: list[tuple[type, str, object]] = []

    def _wrap(self, method, phase: str):
        trace = self.trace

        def wrapper(*args, **kwargs):
            if trace._active is not None:  # an override calling its base
                return method(*args, **kwargs)
            trace._active = phase
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                trace.phase_seconds[phase] += time.perf_counter() - start
                trace._active = None

        return wrapper

    def __enter__(self) -> LayerTrace:
        for klass in self.classes:
            for method_name, phase in PHASE_METHODS.items():
                method = klass.__dict__.get(method_name)
                if method is not None:
                    self._patched.append((klass, method_name, method))
                    setattr(klass, method_name, self._wrap(method, phase))
        gc.callbacks.append(self.trace.on_gc)
        return self.trace

    def __exit__(self, *exc) -> bool:
        gc.callbacks.remove(self.trace.on_gc)
        for klass, method_name, method in reversed(self._patched):
            setattr(klass, method_name, method)
        self._patched.clear()
        return False
