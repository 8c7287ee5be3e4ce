"""The serve side: a ``repro serve`` child and a closed-loop HTTP/1.1 load.

The client is written here, over a raw UNIX socket, rather than using
the program's own ``ServeClient``, so that no change to program code can
move the yardstick.  One keep-alive connection, closed loop: the next
request goes out only after the previous reply has been read in full.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

REACH_SHARE = 0.8
SUCC_SHARE = 0.1  # the rest are batches
BATCH_PAIRS = 100
ZIPF_EXPONENT = 1.1  # assumed: no recorded traffic in the repository to fit
POPULARITY_SEED = 0
"""Seeds which nodes are popular; fixed, so that the hot set (and the size
of its successor lists) is part of the workload, and ``--seed`` only
draws the requests from it."""
REQUEST_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 120.0


class HttpConnection:
    """Minimal keep-alive HTTP/1.1 client over one UNIX-domain socket.

    Connects on first use, and again after a failed request.
    """

    def __init__(self, path: str, timeout: float = REQUEST_TIMEOUT_S) -> None:
        self.path = path
        self.timeout = timeout
        self.sock: socket.socket | None = None
        self._buffer = b""

    def request(self, method: str, target: str, body: bytes = b"") -> tuple[int, bytes]:
        """One round trip; returns ``(status, body)``.  Raises ``OSError``
        (``ConnectionError``, ``TimeoutError``) on a dropped or stalled
        connection, after closing it."""
        try:
            return self._round_trip(method, target, body)
        except OSError:
            self.close()
            raise

    def _round_trip(self, method: str, target: str, body: bytes) -> tuple[int, bytes]:
        if self.sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            self.sock = sock
            self._buffer = b""
            sock.connect(self.path)
        self.sock.sendall(
            f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        buffer = self._buffer
        recv = self.sock.recv
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            chunk = recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
            end = buffer.find(b"\r\n\r\n")
        head = buffer[:end].decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        while len(buffer) < total:
            chunk = recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            buffer += chunk
        self._buffer = buffer[total:]
        return status, buffer[end + 4:total]

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


# -- the server child ---------------------------------------------------------


class ServerChild:
    """``python -m repro serve`` on a UNIX socket inside the checkout."""

    def __init__(self, root: Path, family: str, scale: int, graph_seed: int,
                 socket_rel: str) -> None:
        # The child binds ``socket_rel`` relative to the root, which keeps the
        # path under the UNIX-socket length limit; this process reaches it
        # by a path relative to its own working directory.
        self.socket_path = os.path.relpath(root / socket_rel)
        self.log_path = (root / socket_rel).with_suffix(".log")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--family", family,
                 "--scale", str(scale), "--seed", str(graph_seed), "--engine", "fast",
                 "--uds", socket_rel, "--quiet"],
                cwd=root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )

    def wait_ready(self) -> None:
        """Block until ``GET /readyz`` answers 200 (the index is built)."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}: "
                                   f"{self.log_path.read_text(errors='replace')[-2000:]}")
            conn = HttpConnection(self.socket_path, timeout=5.0)
            try:
                status, _ = conn.request("GET", "/readyz")
            except OSError:  # not listening yet
                status = 0
            finally:
                conn.close()
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("repro serve did not become ready in time")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the child, from ``/proc/<pid>/status``."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for path in (self.socket_path, self.log_path):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


# -- the request stream -------------------------------------------------------


class RequestStream:
    """Seeded request mix: uniform reachability pairs, Zipf-skewed
    successor sources (over a fixed popularity ranking of the nodes), and
    batches of uniform pairs."""

    def __init__(self, num_nodes: int, seed: int) -> None:
        self.rng = random.Random(seed)
        self.n = num_nodes
        ranked = list(range(num_nodes))
        random.Random(POPULARITY_SEED).shuffle(ranked)
        self.ranked = ranked
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(num_nodes)]
        total = 0.0
        self.cumulative = []
        for weight in weights:
            total += weight
            self.cumulative.append(total)
        self.seen_reach: set[int] = set()
        self.seen_succ: set[int] = set()
        self.reach_total = self.reach_repeats = 0
        self.succ_total = self.succ_repeats = 0

    def new_server(self) -> None:
        """Count repeats afresh: a new server starts with an empty cache."""
        self.seen_reach.clear()
        self.seen_succ.clear()

    def next(self) -> tuple[str, object]:
        rng = self.rng
        draw = rng.random()
        if draw < REACH_SHARE:
            u, v = rng.randrange(self.n), rng.randrange(self.n)
            key = u * self.n + v
            self.reach_total += 1
            if key in self.seen_reach:
                self.reach_repeats += 1
            self.seen_reach.add(key)
            return "reach", (u, v)
        if draw < REACH_SHARE + SUCC_SHARE:
            pick = rng.random() * self.cumulative[-1]
            node = self.ranked[min(bisect.bisect_left(self.cumulative, pick), self.n - 1)]
            self.succ_total += 1
            if node in self.seen_succ:
                self.succ_repeats += 1
            self.seen_succ.add(node)
            return "succ", node
        return "batch", [(rng.randrange(self.n), rng.randrange(self.n))
                         for _ in range(BATCH_PAIRS)]


def encode(kind: str, args) -> tuple[str, str, bytes]:
    if kind == "reach":
        return "GET", f"/reachable?u={args[0]}&v={args[1]}", b""
    if kind == "succ":
        return "GET", f"/successors?u={args}", b""
    body = json.dumps({"queries": [{"u": u, "v": v} for u, v in args]}).encode()
    return "POST", "/batch", body


@dataclass
class ServeTally:
    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {"reach": [], "succ": [], "batch": []})
    busy_seconds: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    shed: int = 0
    succ_body_bytes: int = 0

    @property
    def completed(self) -> int:
        return sum(len(values) for values in self.latencies.values())

    def rescale(self, factor: float) -> None:
        """Scale every timing to the reference host speed (hostspeed.py)."""
        for values in self.latencies.values():
            values[:] = [value * factor for value in values]
        self.busy_seconds *= factor


def burst(conn: HttpConnection, stream: RequestStream, oracle, count: int,
          tally: ServeTally) -> None:
    """``count`` requests, closed loop; answers are checked after the clock stops.

    The client's own garbage collector is paused while requests are in
    flight, so its pauses do not land in the server's latencies.
    """
    replies = []
    clock = time.perf_counter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    start = clock()
    try:
        for _ in range(count):
            kind, args = stream.next()
            method, target, body = encode(kind, args)
            sent_at = clock()
            try:
                status, payload = conn.request(method, target, body)
            except OSError as exc:
                replies.append((kind, args, None, repr(exc), 0.0))
                continue
            replies.append((kind, args, status, payload, clock() - sent_at))
        tally.busy_seconds += clock() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    for kind, args, status, payload, latency in replies:
        tally.attempted += 1
        if status is None:
            tally.failures.append(f"{kind} {args}: connection failed: {payload}")
            continue
        if status != 200:
            if status == 503:
                tally.shed += 1
            tally.failures.append(f"{kind}: HTTP {status}: {payload[:200]!r}")
            continue
        try:
            problem = check_answer(kind, args, json.loads(payload), oracle)
        except (ValueError, AttributeError, TypeError) as exc:
            problem = f"{kind}: malformed answer: {exc!r}"
        if problem:
            tally.failures.append(problem)
            continue
        if kind == "succ":
            tally.succ_body_bytes += len(payload)
        tally.latencies[kind].append(latency)


def merge(tallies: list[ServeTally]) -> ServeTally:
    """All rounds' requests in one tally (for pooled percentiles)."""
    merged = ServeTally()
    for tally in tallies:
        for kind, values in tally.latencies.items():
            merged.latencies[kind] += values
        merged.busy_seconds += tally.busy_seconds
        merged.attempted += tally.attempted
        merged.failures += tally.failures
        merged.shed += tally.shed
        merged.succ_body_bytes += tally.succ_body_bytes
    return merged


def check_answer(kind: str, args, answer: dict, oracle) -> str | None:
    if kind == "reach":
        u, v = args
        if answer.get("reachable") is not oracle.reachable(u, v):
            return f"reachable({u}, {v}) answered {answer.get('reachable')!r}"
        return None
    if kind == "succ":
        if answer.get("successors") != oracle.successors(args):
            return f"successors({args}) differs from BFS"
        return None
    results = answer.get("results")
    if not isinstance(results, list) or len(results) != len(args):
        return "batch: wrong number of results"
    for (u, v), item in zip(args, results):
        if item.get("reachable") is not oracle.reachable(u, v):
            return f"batch reachable({u}, {v}) answered {item.get('reachable')!r}"
    return None


def fetch_stats(conn: HttpConnection) -> dict | None:
    """The ``/stats`` body, or ``None`` if the server does not serve it."""
    status, payload = conn.request("GET", "/stats")
    return json.loads(payload) if status == 200 else None
