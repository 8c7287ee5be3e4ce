"""The benchmark's workloads.

Every workload runs the same three kinds of operation, interleaved in
rounds, so every end-to-end metric exists on every workload and a slow
stretch of the host hits all of them alike:

* a pass over the full-closure (CTC) cells,
* a pass over the partial-closure (PTC) cells,
* a closed-loop burst of HTTP requests against a ``repro serve`` child
  that indexes the workload's G9 graph.

What differs is which layer carries the weight.  ``sweep-paged`` is
dominated by page simulation (paged engine, buffer pool far smaller
than the closure); ``sweep-tree`` by compute and GC of the tree-building
algorithms on the fast engine, with no page simulation; ``serve-http``
by the request path (transport, service, index), with small fast-engine
cells over the served graph.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    """One closure cell: an algorithm on a family under one buffer size."""

    algorithm: str
    family: str
    buffer_pages: int = 20
    sources: int | None = None  # None = full closure
    ilimit: float = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    scale: int  # graph scale of every graph in the workload (n = 2000 / scale)
    full_cells: tuple[Cell, ...]
    partial_cells: tuple[Cell, ...]
    requests_per_round: int
    round_seconds: float  # nominal untraced round length; sets the round count

    def cells(self) -> tuple[Cell, ...]:
        return self.full_cells + self.partial_cells

    def families(self) -> tuple[str, ...]:
        """Generated families; G9 first, because the server indexes it."""
        names = {"G9": None}
        names.update(dict.fromkeys(cell.family for cell in self.cells()))
        return tuple(names)


SERVE_FAMILY = "G9"

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sweep-paged",
            engine="paged",
            scale=2,
            full_cells=(
                Cell("btc", "G9", 10),
                Cell("hyb", "G9", 10),
                Cell("btc", "G9", 20),
                Cell("hyb", "G9", 20),
            ),
            partial_cells=(Cell("srch", "G11", 20, 100), Cell("bj", "G11", 20, 100)),
            requests_per_round=2200,
            round_seconds=5.0,
        ),
        Workload(
            name="sweep-tree",
            engine="fast",
            scale=2,
            full_cells=(Cell("jkb2", "G9"), Cell("spn", "G9")),
            partial_cells=(Cell("srch", "G11", 20, 100), Cell("bj", "G11", 20, 100)),
            requests_per_round=2500,
            round_seconds=4.5,
        ),
        Workload(
            name="serve-http",
            engine="fast",
            scale=1,
            full_cells=(Cell("btc", "G9"),),
            partial_cells=(Cell("bj", "G9", 20, 100),),
            requests_per_round=2500,
            round_seconds=1.8,
        ),
    )
}

TINY_FACTOR = 8
"""``--tiny`` divides every graph (and every source count) by this."""


def tiny(workload: Workload) -> Workload:
    """The same workload on graphs ``TINY_FACTOR`` times smaller."""
    return Workload(
        name=workload.name,
        engine=workload.engine,
        scale=workload.scale * TINY_FACTOR,
        full_cells=workload.full_cells,
        partial_cells=tuple(
            Cell(c.algorithm, c.family, c.buffer_pages,
                 max(1, c.sources // TINY_FACTOR), c.ilimit)
            for c in workload.partial_cells
        ),
        requests_per_round=300,
        round_seconds=workload.round_seconds,
    )
