"""The serving job: a ``python -m repro serve`` subprocess under lookup load.

The load comes from this process: at most two threads and two
connections, speaking the wire protocol (4-byte big-endian length + JSON)
with the benchmark's own framing code, so a change to the program's
protocol module changes what is measured, not how it is measured.

Three phases run against one server, in this order:

* ``lone``: closed loop, one caller with one request outstanding.
* ``peak``: closed loop, one connection kept ``PIPELINE_DEPTH`` deep.
* ``load``: open loop at ``OPEN_LOOP_QPS``, each request timed from the
  moment it was due, not from when the sender got round to it.

Every answer is checked against the generated graph after its phase.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from .inputs import Lookup, answer_ok

PIPELINE_DEPTH = 32
OPEN_LOOP_QPS = 1000
STARTUP_TIMEOUT_S = 60.0
ANSWER_TIMEOUT_S = 10.0

_LEN = struct.Struct(">I")
_clock = time.perf_counter


class Connection:
    """A blocking client socket speaking length-prefixed JSON frames."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def send(self, rid: int, op: str, args: dict) -> None:
        body = json.dumps(
            {"id": rid, "op": op, "args": args}, separators=(",", ":")
        ).encode()
        self.sock.sendall(_LEN.pack(len(body)) + body)

    def recv_body(self) -> bytes:
        while True:
            if len(self._buf) >= 4:
                (length,) = _LEN.unpack_from(self._buf)
                if len(self._buf) >= 4 + length:
                    body = bytes(self._buf[4:4 + length])
                    del self._buf[:4 + length]
                    return body
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buf += chunk

    def recv(self) -> dict:
        return json.loads(self.recv_body())

    def call(self, rid: int, op: str, args: Optional[dict] = None) -> dict:
        self.send(rid, op, args or {})
        return self.recv()

    def close(self) -> None:
        self.sock.close()


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, stopped on exit."""

    def __init__(self, root: str, summary_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        tic = _clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", summary_path,
             "--port", "0", "--log-interval", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.port = self._read_port()
            self.control = Connection(self.port)
            reply = self.control.call(0, "ping")
            if not reply.get("ok"):
                raise RuntimeError(f"ping refused: {reply}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = _clock() - tic

    def _read_port(self) -> int:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving "):
                    return int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])
            elif self.proc.poll() is not None:
                break
        raise RuntimeError("server did not start")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stats(self) -> dict:
        return self.control.call(0, "stats")["result"]

    def stop(self) -> None:
        control = getattr(self, "control", None)
        if control is not None:
            control.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def spawn_seconds(root: str, summary_path: str) -> float:
    """Time from spawning a server to its first answered ``ping``."""
    server = ServerProcess(root, summary_path)
    server.stop()
    return server.setup_s


# ----------------------------------------------------------------------
# load phases
# ----------------------------------------------------------------------
class PhaseResult:
    """Latencies plus every (lookup index, raw response) of one phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies_s: List[float] = []
        self.answers: List[Tuple[int, bytes]] = []
        self.sent = 0
        self.late_s: List[float] = []
        self.qps = 0.0
        self.spans: List[Tuple[int, float, float]] = []   # (rid, send, recv)

    def wrong(self, stream: List[Lookup]) -> int:
        """Requests without a correct answer (missing, refused or wrong)."""
        bad = self.sent - len(self.answers)
        for index, body in self.answers:
            reply = json.loads(body)
            if not (reply.get("ok") and answer_ok(
                stream[index % len(stream)], reply.get("result")
            )):
                bad += 1
        return bad


def lone_phase(port: int, stream: List[Lookup], start: int,
               count: int) -> PhaseResult:
    """``count`` requests from one caller, one outstanding at a time."""
    result = PhaseResult("lone")
    conn = Connection(port)
    try:
        for i in range(start, start + count):
            item = stream[i % len(stream)]
            tic = _clock()
            conn.send(i, item.op, item.args)
            result.sent += 1
            body = conn.recv_body()
            toc = _clock()
            result.latencies_s.append(toc - tic)
            result.answers.append((i, body))
            result.spans.append((i, tic, toc))
    finally:
        conn.close()
    return result


def peak_phase(port: int, stream: List[Lookup], start: int,
               budget_s: float, depth: int = PIPELINE_DEPTH) -> PhaseResult:
    """One connection kept ``depth`` requests deep; throughput after warm-up."""
    result = PhaseResult("peak")
    conn = Connection(port)
    warmup_s = min(0.5, budget_s / 4)
    try:
        i = start
        for _ in range(depth):
            item = stream[i % len(stream)]
            conn.send(i, item.op, item.args)
            i += 1
        result.sent = depth
        t0 = _clock()
        counted_from = None
        counted = 0
        while True:
            body = conn.recv_body()
            now = _clock()
            rid = json.loads(body)["id"]
            result.answers.append((rid, body))
            if counted_from is None and now - t0 >= warmup_s:
                counted_from = now
            elif counted_from is not None:
                counted += 1
            if now - t0 >= budget_s:
                break
            item = stream[i % len(stream)]
            conn.send(i, item.op, item.args)
            result.sent += 1
            i += 1
        result.qps = counted / max(now - (counted_from or t0), 1e-9)
        # Drain what is still in flight, so its answers are checked too.
        while len(result.answers) < result.sent:
            body = conn.recv_body()
            result.answers.append((json.loads(body)["id"], body))
    finally:
        conn.close()
    return result


def load_phase(port: int, stream: List[Lookup], start: int,
               budget_s: float, qps: float = OPEN_LOOP_QPS) -> PhaseResult:
    """Open loop: a sender on a fixed schedule, a receiver thread."""
    result = PhaseResult("load")
    conn = Connection(port)
    count = max(1, int(budget_s * qps))
    due = [0.0] * count
    received: List[Tuple[int, float, bytes]] = []

    def receive() -> None:
        try:
            for _ in range(count):
                body = conn.recv_body()
                toc = _clock()
                received.append((json.loads(body)["id"], toc, body))
        except (OSError, ValueError):
            pass    # unanswered requests are counted as failed

    receiver = threading.Thread(target=receive, daemon=True)
    receiver.start()
    t0 = _clock()
    try:
        for k in range(count):
            due[k] = t0 + k / qps
            wait = due[k] - _clock()
            if wait > 0:
                time.sleep(wait)
            result.late_s.append(max(0.0, _clock() - due[k]))
            item = stream[(start + k) % len(stream)]
            conn.send(start + k, item.op, item.args)
            result.sent += 1
        receiver.join(ANSWER_TIMEOUT_S)
    finally:
        conn.sock.shutdown(socket.SHUT_RDWR)
        receiver.join()
        conn.close()
    for rid, toc, body in received:
        k = rid - start
        result.latencies_s.append(toc - due[k])
        result.answers.append((rid, body))
        result.spans.append((rid, due[k], toc))
    return result


# ----------------------------------------------------------------------
# server-side counters
# ----------------------------------------------------------------------
def server_counters(stats: dict) -> Dict[str, float]:
    counters = stats["metrics"]["counters"]
    cache = stats["cache"]
    rejected = sum(
        value for name, value in counters.items()
        if name.startswith(("errors_overloaded", "errors_deadline",
                            "errors_timeout", "shed_total",
                            "deadline_expired_total"))
    )
    return {
        "batches": counters.get("batches_total", 0),
        "batched": counters.get("batched_queries_total", 0),
        "hits": cache.get("hits", 0),
        "misses": cache.get("misses", 0),
        "rejected": rejected,
        "request_p50_s": stats["metrics"]["histograms"]
        .get("request_latency_seconds", {}).get("p50", 0.0),
    }
