"""JKB/JKB2 paper-counter goldens on the paged engine.

The special-node trees of Compute_Tree (Section 3.6) are stored through
the paged engine: each tree's entry count sizes its on-disk list, so a
change in how trees are represented or counted moves page I/O,
``distinct_tuples`` and the union bookkeeping.  This module pins every
one of those counters, plus a digest of the answer, on a small grid:

* ``jkb`` and ``jkb2``;
* G3, G9 and G11 at smoke scale (graph seed 0);
* buffer pools of M=10 and M=50 pages;
* full closure and selections of s=5 and s=20 sources (sample seed 0).

Regenerate only when the paper-model cost accounting is deliberately
changed::

    PYTHONPATH=src python tests/test_jkb_goldens.py --regen
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from repro.core.query import Query, SystemConfig
from repro.core.registry import make_algorithm
from repro.experiments.config import get_profile
from repro.graphs.datasets import sample_sources
from repro.storage.iostats import Phase

GOLDEN_PATH = Path(__file__).parent / "goldens" / "jkb_smoke_counters.json"

ALGORITHMS = ("jkb", "jkb2")
FAMILIES = ("G3", "G9", "G11")
BUFFER_PAGES = (10, 50)
QUERIES = ("full", "s=5", "s=20")


def cell_keys() -> list[str]:
    return [
        f"{name}:{family}:M={pages}:{query}"
        for name, family, pages, query in itertools.product(
            ALGORITHMS, FAMILIES, BUFFER_PAGES, QUERIES
        )
    ]


def answer_digest(successor_bits: dict[int, int]) -> str:
    """A SHA-256 over every (node, successor bitset) pair, in node order."""
    h = hashlib.sha256()
    for node in sorted(successor_bits):
        h.update(f"{node}:{successor_bits[node]:x};".encode())
    return h.hexdigest()


def run_cell(key: str) -> dict:
    name, family, m_part, query_part = key.split(":")
    graph = get_profile("smoke").build(family, seed=0)
    if query_part == "full":
        query = Query.full()
    else:
        count = int(query_part.split("=")[1])
        query = Query.ptc(sample_sources(graph, count, seed=0))
    system = SystemConfig(buffer_pages=int(m_part.split("=")[1]))
    result = make_algorithm(name).run(graph, query, system)
    m = result.metrics
    io = m.io
    return {
        "reads_by_phase": {p.value: io.reads[p] for p in Phase},
        "writes_by_phase": {p.value: io.writes[p] for p in Phase},
        "requests_by_phase": {p.value: io.requests[p] for p in Phase},
        "hits_by_phase": {p.value: io.hits[p] for p in Phase},
        "total_io": io.total_io,
        "tuples_generated": m.tuples_generated,
        "duplicates": m.duplicates,
        "list_unions": m.list_unions,
        "distinct_tuples": m.distinct_tuples,
        "answer_tuples": result.num_tuples,
        "answer_digest": answer_digest(result.successor_bits),
    }


def _load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["cells"]


@pytest.mark.parametrize("key", cell_keys())
def test_paged_counters_match_golden(key):
    expected = _load_golden()[key]
    actual = run_cell(key)
    assert actual == expected, (
        f"cell {key}: changed fields "
        f"{[k for k in expected if actual.get(k) != expected[k]]}"
    )


def test_golden_covers_the_whole_grid():
    assert sorted(_load_golden()) == sorted(cell_keys())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_jkb_goldens.py --regen")
    cells = {key: run_cell(key) for key in cell_keys()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"cells": cells}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cells)} cells to {GOLDEN_PATH}")
