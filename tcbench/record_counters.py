"""Write ``expected_counters.json``: the paper counters of every cell.

The counters are the ROADMAP's fixed point -- no speedup may move one --
so the benchmark compares each run against this file exactly.  Re-run
this script only in a change that is meant to move a counter, and say
so in that change::

    python3 tcbench/record_counters.py

Every answer is checked against the BFS oracle before it is recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRAPH_SEEDS = (0, 1)  # 0 is measured; 1 is held out for later claims


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.graphs.datasets import graph_family

    from tcbench.cells import EXPECTED_PATH, CellRunner, cell_key, paper_counters
    from tcbench.oracle import graph_oracle
    from tcbench.workloads import WORKLOADS, tiny

    recorded: dict[str, dict[str, int]] = {}
    for base in WORKLOADS.values():
        for workload in (base, tiny(base)):
            for graph_seed in GRAPH_SEEDS:
                graphs = {family: graph_family(family).generate(seed=graph_seed,
                                                                scale=workload.scale)
                          for family in workload.families()}
                oracles = {family: graph_oracle(g) for family, g in graphs.items()}
                runner = CellRunner(workload.engine, workload.scale, graph_seed, graphs,
                                    oracles, {})
                for cell in workload.cells():
                    for engine in dict.fromkeys((workload.engine, "fast")):
                        key = cell_key(cell, engine, workload.scale, graph_seed)
                        if key in recorded:
                            continue
                        result, _ = runner.result(cell, engine)
                        wrong = runner.check_closure(cell, result)
                        if wrong:
                            print(f"error: {wrong}", file=sys.stderr)
                            return 1
                        recorded[key] = paper_counters(result)
                        print(key, recorded[key]["total_io"], flush=True)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(dict(sorted(recorded.items())), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
