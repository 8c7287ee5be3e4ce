"""Repository benchmark: closure sweeps and a closed-loop serve workload.

Usage, from the repository root::

    python3 tcbench/run.py --workload sweep-paged --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric is
also printed on its own line before it, with its unit.  The exit code is
0 only when every closure, paper counter and served answer checked out.
The untraced run reports every timing scaled to a reference host speed,
measured around each timed operation (``hostspeed.py``).

``--seed`` draws the HTTP request stream.  ``--graph-seed`` picks the
graphs (default 0; seed 1 is held out for checking later claims); the
PTC source sets are drawn by ``run_single`` with its own fixed sample
seed.  Both are fixed, so the paper counters of every cell can be
compared exactly with the values recorded in ``expected_counters.json``.
``--tiny`` runs every workload on graphs eight times smaller (tests).

The benchmark drives the program only through public calls and the
``repro serve`` command line, from one process plus the server child.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ".tcbench_run"
SCALE_EVERY = 50  # requests between two host-speed samples (about 20 ms)
WARM_REQUESTS = 20  # untimed requests before each timed chunk

END_TO_END = {
    "setup_s": "s",
    "ctc_s": "s",
    "ptc_s": "s",
    "qps": "1/s",
    "reach_p50_ms": "ms",
    "reach_p99_ms": "ms",
    "succ_p50_ms": "ms",
    "succ_p99_ms": "ms",
    "batch_p50_ms": "ms",
    "batch_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "serve_rss_mb": "MB",
}

PER_LAYER = {
    "storage.sim_s": "s",
    "storage.page_reads": "count",
    "storage.page_writes": "count",
    "storage.requests": "count",
    "storage.hit_ratio": "ratio",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "gc.gen2_collections": "count",
    "core.restructure_s": "s",
    "core.compute_s": "s",
    "core.writeout_s": "s",
    "core.tuples_generated": "count",
    "core.duplicates": "count",
    "core.list_unions": "count",
    "graphs.generate_s": "s",
    "experiments.emit_s": "s",
    "experiments.records": "count",
    "serve.build_s": "s",
    "serve.index_reach_us": "us",
    "serve.index_succ_us": "us",
    "serve.service_reach_us": "us",
    "serve.service_succ_us": "us",
    "serve.service_batch_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "serve.transport_reach_us": "us",
    "serve.succ_body_bytes": "bytes",
    "serve.repeat_share_reach": "ratio",
    "serve.repeat_share_succ": "ratio",
    "serve.shed": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="request-stream seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; sets a fixed number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--graph-seed", type=int, default=0,
                        help="graph seed (0 measured, 1 held out)")
    parser.add_argument("--tiny", action="store_true",
                        help="graphs eight times smaller, for the benchmark's tests")
    return parser.parse_args(argv)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(share * len(ordered))))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def pass_seconds(outcomes) -> float:
    return sum(outcome.seconds for outcome in outcomes)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from tcbench.workloads import WORKLOADS, tiny

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    # One CPU for this process and, by inheritance, the server child.  The
    # closed loop keeps one side busy at a time; spread over two CPUs,
    # every request pays a cross-CPU wake-up that comes and goes with
    # where the scheduler happens to place the two processes.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # A terminated run still stops its server child (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    (ROOT / RUN_DIR).mkdir(exist_ok=True)
    try:
        result = Bench(workload, args).run()
    finally:
        try:
            (ROOT / RUN_DIR).rmdir()
        except OSError:  # another run still uses it
            pass
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(result.pop("host"))
    for group in result.pop("failures"):
        for failure in group[:10]:
            print(f"FAILED: {failure}", file=sys.stderr)
        if len(group) > 10:
            print(f"FAILED: ... and {len(group) - 10} more", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


class Bench:
    """One run: ``rounds`` rounds, each a fresh set-up, then one pass over
    the cells with the round's requests sent in chunks around them.

    Every round starts its own server, so every server answers the same
    number of requests: the serve path keeps per-request state that grows
    with the requests it has answered, and a fixed count per server keeps
    that state, and so the latencies, the same from run to run.
    """

    def __init__(self, workload, args: argparse.Namespace) -> None:
        from tcbench.hostspeed import HostSpeed

        self.workload = workload
        self.args = args
        self.failures: list[str] = []  # closures and paper counters
        self.serve_failures: list[str] = []
        self.attempted = 0
        self.failed_cells = 0
        self.speed = HostSpeed(enabled=not args.trace)

    def run(self) -> dict:
        metrics = self.measure()
        table = PER_LAYER if self.args.trace else END_TO_END
        return {
            "host": self.speed.summary(),
            "correct": not (self.failures or self.serve_failures),
            "attempted": self.attempted,
            "failed": self.failed_cells + len(self.serve_failures),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in table.items()},
            "failures": (self.failures, self.serve_failures),
        }

    def set_up(self, index: int):
        """Generate the graphs and start a ready server; timed as ``setup_s``."""
        from repro.graphs.datasets import graph_family

        from tcbench.serve_load import ServerChild
        from tcbench.workloads import SERVE_FAMILY

        workload = self.workload
        start = time.perf_counter()
        graphs = {}
        for family in workload.families():
            graphs[family] = graph_family(family).generate(
                seed=self.args.graph_seed, scale=workload.scale)
        generate_s = time.perf_counter() - start
        socket_rel = f"{RUN_DIR}/serve-{os.getpid()}-{index}.sock"
        server = ServerChild(ROOT, SERVE_FAMILY, workload.scale, self.args.graph_seed,
                             socket_rel)
        try:
            server.wait_ready()
        except BaseException:
            server.stop()
            raise
        return time.perf_counter() - start, generate_s, graphs, server

    def measure(self) -> dict[str, float]:
        from tcbench import serve_load
        from tcbench.cells import CellRunner, LayerTrace, load_expected, traced
        from tcbench.oracle import graph_oracle
        from tcbench.workloads import SERVE_FAMILY

        workload, args = self.workload, self.args
        expected = load_expected()
        tallies: list = []  # one per chunk of requests
        # The time of every pass, one per round; each is reported as the
        # median over the run's rounds.
        times: dict[str, list[float]] = {"ctc": [], "ptc": [], "plain_ctc": [],
                                         "traced_ctc": []}
        sim: list[float] = []
        setups, generates, serve_rss = [], [], []
        traces: list[tuple[LayerTrace, float, list]] = []
        cache = {"hits": 0, "misses": 0}
        algorithms = {cell.algorithm for cell in workload.cells()}
        runner = stream = serve_oracle = None

        def run_pass(cells, engine=None, trace=None):
            outcomes = []
            for cell in cells:
                # Every cell starts from a collected heap, so the number of
                # full collections inside it does not depend on what the
                # benchmark did before it (8 to 10 per JKB2 cell otherwise).
                gc.collect()
                with traced(algorithms, trace) if trace else contextlib.nullcontext():
                    outcomes.append(runner.run(cell, engine))
            for outcome in outcomes:
                self.attempted += 1
                self.failures.extend(outcome.failures)
                self.failed_cells += bool(outcome.failures)
            return outcomes

        # The round count depends only on the workload and --seconds, so
        # every commit and every host does the same work in a run.
        rounds = max(1, round(args.seconds / workload.round_seconds))
        if args.trace:
            rounds = max(1, rounds // 3)  # a traced round runs every cell four times
        # Every timed operation is scaled by the host's speed around it
        # (hostspeed.py): a calibration sample comes right before and
        # right after each one.
        speed = self.speed
        for index in range(rounds):
            speed.sample()
            setup_s, generate_s, graphs, server = self.set_up(index)
            setups.append(setup_s * speed.sample())
            generates.append(generate_s)
            if runner is None:
                oracles = {family: graph_oracle(graph) for family, graph in graphs.items()}
                serve_oracle = oracles[SERVE_FAMILY]
                runner = CellRunner(workload.engine, workload.scale, args.graph_seed,
                                    graphs, oracles, expected)
                stream = serve_load.RequestStream(graphs[SERVE_FAMILY].num_nodes, args.seed)
            runner.graphs = graphs
            stream.new_server()
            conn = serve_load.HttpConnection(server.socket_path)
            cells = workload.cells()
            # Requests are spread between the cells, so that a slow stretch
            # of the host hits closures and requests alike.
            chunks = [workload.requests_per_round * (i + 1) // (len(cells) + 1)
                      - workload.requests_per_round * i // (len(cells) + 1)
                      for i in range(len(cells) + 1)]
            outcomes = []

            def warm_up(count: int) -> None:
                """Untimed requests (answers still checked), so the timed ones
                do not start on the caches a closure cell has just thrashed."""
                warm = serve_load.ServeTally()
                serve_load.burst(conn, stream, serve_oracle, count, warm)
                self.attempted += warm.attempted
                self.serve_failures += warm.failures

            def send(count: int) -> None:
                warm_up(WARM_REQUESTS)
                speed.sample()
                # In pieces of at most SCALE_EVERY requests, each scaled by
                # the host's speed around it: the host can change state
                # within a chunk, and a request scaled by the other state's
                # factor lands in the tail.
                while count > 0:
                    piece = min(count, SCALE_EVERY)
                    tally = serve_load.ServeTally()
                    serve_load.burst(conn, stream, serve_oracle, piece, tally)
                    tally.rescale(speed.sample())
                    tallies.append(tally)
                    count -= piece

            try:
                warm_up(50)  # opens the connection
                for cell, chunk in zip(cells, chunks):
                    send(chunk)
                    [outcome] = run_pass([cell])
                    outcome.seconds *= speed.sample()
                    outcomes.append(outcome)
                send(chunks[-1])
                try:
                    stats = serve_load.fetch_stats(conn)
                    serve_rss.append(server.peak_rss_mb())
                except (OSError, RuntimeError) as exc:
                    self.serve_failures.append(f"server lost after the burst: {exc!r}")
                    stats = None
                if stats is not None and "cache" in stats:
                    cache["hits"] += stats["cache"]["hits"]
                    cache["misses"] += stats["cache"]["misses"]
            finally:
                conn.close()
                server.stop()

            times["ctc"].append(pass_seconds(outcomes[:len(workload.full_cells)]))
            times["ptc"].append(pass_seconds(outcomes[len(workload.full_cells):]))
            if args.trace:
                # Untraced, traced and fast-engine passes back to back, so the
                # differences between them are not those of the interleaving.
                plain = run_pass(workload.cells())
                times["plain_ctc"].append(pass_seconds(plain[:len(workload.full_cells)]))
                trace = LayerTrace()
                emitted = runner.sink.seconds
                traced_full = run_pass(workload.full_cells, trace=trace)
                traced_partial = run_pass(workload.partial_cells, trace=trace)
                traces.append((trace, runner.sink.seconds - emitted,
                               traced_full + traced_partial))
                times["traced_ctc"].append(pass_seconds(traced_full))
                reference = run_pass(workload.cells(), engine="fast")
                sim.append(pass_seconds(plain) - pass_seconds(reference))

        tally = serve_load.merge(tallies)
        self.attempted += tally.attempted
        self.serve_failures += tally.failures

        def latency(kind: str, share: float) -> float:
            """A percentile over every request of the kind in the run."""
            values = tally.latencies[kind]
            return percentile(values, share) if values else 0.0

        if not args.trace:
            return {
                "setup_s": median(setups),
                "ctc_s": median(times["ctc"]),
                "ptc_s": median(times["ptc"]),
                "qps": tally.completed / tally.busy_seconds,
                "reach_p50_ms": latency("reach", 0.50) * 1e3,
                "reach_p99_ms": latency("reach", 0.99) * 1e3,
                "succ_p50_ms": latency("succ", 0.50) * 1e3,
                "succ_p99_ms": latency("succ", 0.99) * 1e3,
                "batch_p50_ms": latency("batch", 0.50) * 1e3,
                "batch_p99_ms": latency("batch", 0.99) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "serve_rss_mb": max(serve_rss, default=0.0),
            }
        metrics = self.layer_metrics(graphs[SERVE_FAMILY], times, sim, traces, stream, tally,
                                     cache, latency("reach", 0.50))
        metrics["graphs.generate_s"] = median(generates)
        return metrics

    def layer_metrics(self, serve_graph, times, sim, traces, stream, tally, cache,
                      reach_p50: float) -> dict[str, float]:
        from tcbench import serve_layers
        from tcbench.cells import PHASES

        metrics: dict[str, float] = {}
        outcomes = traces[0][2]
        reads = sum(o.io_reads for o in outcomes)
        requests = sum(o.io_requests for o in outcomes)
        metrics["storage.sim_s"] = median(sim)
        metrics["storage.page_reads"] = reads
        metrics["storage.page_writes"] = sum(o.io_writes for o in outcomes)
        metrics["storage.requests"] = requests
        metrics["storage.hit_ratio"] = (
            sum(o.io_hits for o in outcomes) / requests if requests else 0.0)
        metrics["gc.pause_s"] = median([t.gc_pause for t, _, _ in traces])
        metrics["gc.collections"] = median([t.gc_collections for t, _, _ in traces])
        metrics["gc.gen2_collections"] = median([t.gc_gen2 for t, _, _ in traces])
        for phase in PHASES:
            metrics[f"core.{phase}_s"] = median([t.self_seconds(phase) for t, _, _ in traces])
        metrics["core.tuples_generated"] = sum(o.tuples_generated for o in outcomes)
        metrics["core.duplicates"] = sum(o.duplicates for o in outcomes)
        metrics["core.list_unions"] = sum(o.list_unions for o in outcomes)
        metrics["experiments.emit_s"] = median([emit for _, emit, _ in traces])
        metrics["experiments.records"] = len(outcomes)
        metrics["trace.overhead_s"] = median(times["traced_ctc"]) - median(times["plain_ctc"])

        samples = 500 if self.args.tiny else 20000
        metrics.update(serve_layers.measure(serve_graph, self.args.seed, samples))
        lookups = cache["hits"] + cache["misses"]  # zero once the cache is gone
        metrics["serve.cache_lookups"] = lookups
        metrics["serve.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
        metrics["serve.transport_reach_us"] = (
            reach_p50 * 1e6 - metrics["serve.service_reach_us"])
        succ_count = len(tally.latencies["succ"])
        metrics["serve.succ_body_bytes"] = (
            tally.succ_body_bytes / succ_count if succ_count else 0.0)
        metrics["serve.repeat_share_reach"] = stream.reach_repeats / max(1, stream.reach_total)
        metrics["serve.repeat_share_succ"] = stream.succ_repeats / max(1, stream.succ_total)
        metrics["serve.shed"] = tally.shed
        return metrics


if __name__ == "__main__":
    sys.exit(main())
