"""Benchmark: a layer ledger for three closure cells.

Splits the wall time of each cell into the layers the performance work
targets, so a speedup can be placed in the layer it came from:

* ``jkb2:G9:fast`` -- Compute_Tree with the inverse relation, full
  closure on the fast engine (tree building; GC-heavy before the flat
  tree layout);
* ``spn:G9:fast`` -- the spanning-tree algorithm, full closure on the
  fast engine;
* ``hyb:G9:paged:M=20`` -- Hybrid on the paged engine with a 20-page
  LRU pool (page-simulation heavy), plus its fast-engine twin.

Every cell runs on G9 at n=1000 (graph seed 0), three times after a
``gc.collect()``; the fastest repetition is reported whole:

* ``wall_s`` -- the ``algorithm.run`` call;
* ``spans_s`` -- the ``restructure``/``compute``/``writeout`` phase
  spans from a :class:`~repro.obs.spans.SpanRecorder`;
* ``gc_pause_s`` / ``gc_collections`` / ``gc_gen2_collections`` --
  collector pauses inside the run, timed through ``gc.callbacks``;
* ``page_sim_s`` -- paged wall minus the fast twin's wall (the page
  simulation's cost; 0 for a fast-engine cell).

Run standalone as ``python benchmarks/bench_layers.py LABEL`` to store
the ledger under ``runs[LABEL]`` of ``BENCH_layers.json`` at the
repository root (other labels are kept, so two commits measured on one
host sit side by side), or under the bench suite
(``pytest benchmarks/bench_layers.py``), which stores ``runs["current"]``.
"""

import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.experiments.config import get_profile
from repro.obs.bench import write_bench_summary
from repro.obs.spans import SpanRecorder

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_layers.json"
REPS = 3
PHASES = ("restructure", "compute", "writeout")
# (name, algorithm, engine, buffer pages)
CELLS = (
    ("jkb2:G9:fast", "jkb2", "fast", 20),
    ("spn:G9:fast", "spn", "fast", 20),
    ("hyb:G9:paged:M=20", "hyb", "paged", 20),
)


class _GcClock:
    """Collector pauses, from the ``gc.callbacks`` start/stop pairs."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = 0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._start
        self.collections += 1
        self.gen2 += info.get("generation") == 2


def _measure(algorithm: str, graph, system: SystemConfig) -> dict:
    """The fastest of ``REPS`` runs, with its own spans and GC pauses."""
    best: dict | None = None
    for _ in range(REPS):
        recorder = SpanRecorder()
        clock = _GcClock()
        gc.collect()
        gc.callbacks.append(clock)
        try:
            start = time.perf_counter()
            result = make_algorithm(algorithm).run(
                graph, Query.full(), system, recorder=recorder
            )
            wall = time.perf_counter() - start
        finally:
            gc.callbacks.remove(clock)
        if best is None or wall < best["wall_s"]:
            best = {
                "wall_s": round(wall, 4),
                "spans_s": {
                    phase: round(recorder.total_seconds(f"run/{phase}"), 4)
                    for phase in PHASES
                },
                "gc_pause_s": round(clock.pause_s, 4),
                "gc_collections": clock.collections,
                "gc_gen2_collections": clock.gen2,
                "answer_tuples": result.num_tuples,
                "total_io": result.metrics.total_io,
            }
    assert best is not None
    return best


def run_suite() -> dict:
    graph = get_profile("default").build("G9", seed=0)
    cells = {}
    for name, algorithm, engine, pages in CELLS:
        cell = _measure(algorithm, graph, SystemConfig(buffer_pages=pages, engine=engine))
        cell["page_sim_s"] = 0.0
        if engine == "paged":
            fast = _measure(algorithm, graph, SystemConfig(buffer_pages=pages, engine="fast"))
            assert fast["answer_tuples"] == cell["answer_tuples"]
            cell["fast_twin_wall_s"] = fast["wall_s"]
            cell["page_sim_s"] = round(cell["wall_s"] - fast["wall_s"], 4)
        cells[name] = cell
    return {
        "host": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "workload": {"family": "G9", "nodes": graph.num_nodes, "graph_seed": 0,
                     "query": "full", "reps": REPS, "pick": "min wall"},
        "cells": cells,
    }


def store(label: str, ledger: dict) -> None:
    """Write ``ledger`` under ``runs[label]``, keeping the other labels."""
    runs = json.loads(BENCH_PATH.read_text())["runs"] if BENCH_PATH.exists() else {}
    runs[label] = ledger
    write_bench_summary({"runs": runs}, BENCH_PATH)


def test_layer_ledger(benchmark):
    ledger = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    store("current", ledger)
    for name, cell in ledger["cells"].items():
        print(f"\n{name}: wall {cell['wall_s']}s, gc {cell['gc_pause_s']}s "
              f"({cell['gc_collections']}), page sim {cell['page_sim_s']}s")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: bench_layers.py LABEL")
    ledger = run_suite()
    store(sys.argv[1], ledger)
    print(json.dumps(ledger["cells"], indent=2, sort_keys=True))
