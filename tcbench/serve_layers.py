"""In-process serve layers, for the traced run's attribution.

Builds the same index and service the ``repro serve`` child runs, in
this process, and times their public calls on a request stream drawn
like the HTTP one.  HTTP round trip minus these gives the transport.
"""

from __future__ import annotations

import asyncio
import time

from repro.core.chains import build_chain_index
from repro.core.query import SystemConfig
from repro.serve.service import ReachabilityService

from tcbench.serve_load import RequestStream


def measure(graph, seed: int, samples: int) -> dict[str, float]:
    stream = RequestStream(graph.num_nodes, seed)
    reach, succ, batches = [], [], []
    while len(reach) < samples or len(succ) < samples // 8 or len(batches) < samples // 80:
        kind, args = stream.next()
        {"reach": reach, "succ": succ, "batch": batches}[kind].append(args)
    system = SystemConfig(engine="fast")

    start = time.perf_counter()
    index = build_chain_index(graph, None, system)
    build_s = time.perf_counter() - start

    clock = time.perf_counter
    start = clock()
    for u, v in reach:
        index.reachable(u, v)
    index_reach = (clock() - start) / len(reach)
    start = clock()
    for u in succ:
        index.successors(u)
    index_succ = (clock() - start) / len(succ)

    async def service_calls() -> tuple[float, float, float]:
        service = ReachabilityService(graph, None, system)
        if not await service.build():
            raise RuntimeError(f"in-process index build failed: {service.last_build_error}")
        start = clock()
        for u, v in reach:
            await service.reachable(u, v)
        per_reach = (clock() - start) / len(reach)
        start = clock()
        for u in succ:
            await service.successors(u)
        per_succ = (clock() - start) / len(succ)
        start = clock()
        for pairs in batches:
            await service.batch([{"u": u, "v": v} for u, v in pairs])
        per_batch = (clock() - start) / len(batches)
        return per_reach, per_succ, per_batch

    service_reach, service_succ, service_batch = asyncio.run(service_calls())
    return {
        "serve.build_s": build_s,
        "serve.index_reach_us": index_reach * 1e6,
        "serve.index_succ_us": index_succ * 1e6,
        "serve.service_reach_us": service_reach * 1e6,
        "serve.service_succ_us": service_succ * 1e6,
        "serve.service_batch_us": service_batch * 1e6,
    }
