"""One benchmark run: summarize the seed's web graph, then serve lookups.

Every workload runs the same user pipeline — build the graph, summarize
it, serve the summary — so every end-to-end metric is measured on every
workload. The workloads differ in the summarizer (serial or two workers)
and in what ``setup_s`` and ``peak_rss_mb`` measure: ``serve-lookup``
times server start-up and reads the server's memory.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List

from . import inputs, procfs, serve
from . import summarize as summ
from .tracer import Tracer

# (hosts, pages per host) of the web graph: 15k nodes, ~87k edges.
SIZES = {"full": (150, 100), "tiny": (10, 20)}
WARMUP_SIZE = (10, 20)          # untimed first summarize: lazy imports
STREAM_LENGTH = 20_000          # distinct lookups; phases cycle through it
BUILDS_PER_REP = 3              # CSR builds timed before each summarize rep
SETUP_READS = 3                 # in-process summary reads / index compiles
REPLAY_LOOKUPS = 3000           # lookups replayed in-process when tracing
MAX_ATTRIBUTION_GAP = 0.05      # layer spans must cover >= 95% of summarize

# One serving round: lone requests, then peak and open-loop seconds. Rounds
# interleave the phases so a burst of machine noise hits all three alike.
LONE_PER_ROUND = 150
PEAK_ROUND_S = 0.8
LOAD_ROUND_S = 0.4
ROUND_S = 1.8                   # wall time of one round, for the budget

# Shares of ``--seconds``: timed summarize reps (at least one) and serving
# rounds. Every workload uses the same split.
SUMMARIZE_SHARE = 0.55
SERVE_SHARE = 0.30


@dataclass(frozen=True)
class Workload:
    """One job: which summarizer runs and what ``setup_s`` times."""

    serving: bool               # True: setup_s and peak RSS are the server's
    workers: int                # summarizer processes (1 = serial LDME)


WORKLOADS = {
    "summarize-web": Workload(False, 1),
    "summarize-web-mp2": Workload(False, 2),
    "serve-lookup": Workload(True, 1),
}

UNITS = {
    "summarize_ratio": "ratio", "objective": "count", "peak_rss_mb": "MB",
    "setup_s": "s", "lone_p50_ms": "ms", "peak_qps": "queries/s",
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def log(message: str) -> None:
    print(message, flush=True)


def run_job(args, workload: Workload, root: str, work_dir: str,
            scratch: str) -> Dict:
    """Run one workload; returns the result object ``run.py`` prints."""
    from repro.binaryio import write_summary_binary

    num_nodes, src, dst = inputs.web_edges(args.seed, *SIZES[args.size])
    reference = inputs.reference_csr(num_nodes, src, dst)
    graph, build_s, bad_builds = summ.time_builds(
        num_nodes, src, dst, BUILDS_PER_REP, reference
    )
    log(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges")
    warmup = summ.Outcome(
        summ.build_graph(*inputs.web_edges(args.seed, *WARMUP_SIZE)),
        workload.workers, args.seed,
    )
    warmup.rep()

    # The first rep makes the summary to serve; later reps alternate with
    # serving rounds, and set-up samples (CSR builds before each rep, a
    # fresh server spawn after each round) are taken between them, so
    # every metric samples the whole run, not one stretch of it.
    outcome = summ.Outcome(graph, workload.workers, args.seed)
    outcome.rep()
    if outcome.result is None:
        raise RuntimeError("the first summarize rep failed")
    path = os.path.join(scratch, "summary.ldmeb")
    write_summary_binary(outcome.result, path)
    stream = inputs.lookup_stream(reference, args.seed, STREAM_LENGTH)
    scale = 1.0 if args.size == "full" else 0.05
    rounds = max(1, round(SERVE_SHARE * args.seconds / ROUND_S))
    budget_s = SUMMARIZE_SHARE * args.seconds
    setups: List[float] = []
    server = None
    try:
        server = serve.ServerProcess(root, path)
        setups.append(server.setup_s)
        served = Served(server)
        while served.rounds < rounds or outcome.spent_s < budget_s:
            if served.rounds < rounds:
                served.round(stream, scale)
                if workload.serving:
                    setups.append(serve.spawn_seconds(root, path))
            if outcome.spent_s < budget_s:
                _, times, bad = summ.time_builds(
                    num_nodes, src, dst, BUILDS_PER_REP, reference
                )
                build_s += times
                bad_builds += bad
                outcome.rep()
        served.finish()
    finally:
        if server is not None:
            server.stop()
    attempted = outcome.attempted + served.sent + len(build_s)
    failed = outcome.failed + served.wrong + bad_builds
    checks = {"objective repeats across reps": outcome.deterministic}
    if workload.workers > 1:
        checks["no worker failures, retries or transport fallbacks"] = (
            outcome.fallbacks == 0
        )
    median_s = statistics.median(outcome.seconds)
    ratio = statistics.median(outcome.ratios)
    log(f"summarize: {len(outcome.seconds)} reps, median {median_s:.3f}s, "
        f"in run order {[round(t, 3) for t in outcome.seconds]}s; "
        f"reference loop in run order "
        f"{[round(t * 1e3, 1) for t in outcome.loop_s]}ms; ratio median "
        f"{ratio:.2f}, in run order "
        f"{[round(r, 1) for r in outcome.ratios]}; objective "
        f"{outcome.objectives[0]}; failed {outcome.failed}; supervision "
        f"fallbacks {outcome.fallbacks}; peak RSS per rep "
        f"{[round(m, 1) for m in outcome.peak_rss_mb]}MB")
    log(f"setup: CSR build n={len(build_s)}, off the reference adjacency "
        f"{bad_builds}, median "
        f"{statistics.median(build_s):.4f}s; server spawn to ping "
        f"{[round(t, 3) for t in setups]}s")
    log(f"serve: {rounds} rounds; "
        f"lone n={len(served.lone_ms)}, p99 "
        f"{percentile(served.lone_ms, 99):.3f}ms; peak qps per round "
        f"{[round(q) for q in served.peak_qps]}; load n="
        f"{len(served.load_ms)} at {serve.OPEN_LOOP_QPS} qps, p50 "
        f"{percentile(served.load_ms, 50):.3f}ms, p99 "
        f"{percentile(served.load_ms, 99):.3f}ms; wrong or missing "
        f"{served.wrong} of {served.sent}")

    if not args.trace:
        values = {
            "summarize_ratio": ratio,
            "objective": outcome.objectives[0],
            "peak_rss_mb": (
                served.server_rss_mb if workload.serving
                else statistics.median(outcome.peak_rss_mb)
            ),
            "setup_s": statistics.median(
                setups if workload.serving else build_s
            ),
            "lone_p50_ms": percentile(served.lone_ms, 50),
            "peak_qps": statistics.median(served.peak_qps),
        }
        units = UNITS
    else:
        traced, tracer, ok = summ.traced_metrics(
            graph, workload.workers, args.seed, median_s,
            outcome.worker_rss_mb,
        )
        attempted += 1
        failed += not ok
        gap = traced["trace.unattributed_frac"]
        checks["layer spans cover >= 95% of summarize"] = (
            gap <= MAX_ATTRIBUTION_GAP
        )
        log(f"trace: layer spans cover {1 - gap:.2%} of summarize, "
            f"overhead ratio {traced['trace.overhead_ratio']:.3f}")
        values = {
            "summarize.wall_s": median_s,
            "graph.build_s": statistics.median(build_s),
            **traced,
            **_replay(tracer, path, stream, served),
            **served.layer_metrics(),
        }
        for name, rid, tic, toc in served.spans:
            tracer.record(f"serve.request.{name}", tic, toc, rid)
        units = LAYER_UNITS
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }
    if args.trace:
        prefix = os.path.join(
            work_dir, f"trace-{args.workload}-seed{args.seed}"
        )
        tracer.dump(prefix, metrics)
        log(f"trace: spans written to {prefix}.json and .npz")
    for name, passed in checks.items():
        log(f"check: {name}: {'ok' if passed else 'FAILED'}")
    return {
        "correct": all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


class Served:
    """Serving rounds against one server, pooled, with answers checked."""

    def __init__(self, server) -> None:
        self.server = server
        self.rounds = 0
        self.lone_ms: List[float] = []
        self.load_ms: List[float] = []
        self.late_ms: List[float] = []
        self.peak_qps: List[float] = []
        self.spans: List[tuple] = []      # (phase, request id, start, end)
        self.answers: List[tuple] = []    # lone (request id, body), replayed
        self.sent = 0
        self.wrong = 0
        self._offset = 0
        self._start = serve.server_counters(server.stats())
        self._cpu0 = procfs.cpu_seconds(server.pid)
        self.cpu_s = 0.0
        self.counters: Dict[str, float] = {}
        self.server_rss_mb = 0.0

    def round(self, stream, scale: float) -> None:
        """One lone, one peak and one open-loop phase."""
        port = self.server.port
        for phase, size in (
            (serve.lone_phase, max(10, int(LONE_PER_ROUND * scale))),
            (serve.peak_phase, PEAK_ROUND_S * scale),
            (serve.load_phase, LOAD_ROUND_S * scale),
        ):
            result = phase(port, stream, self._offset, size)
            self._offset += result.sent
            self.sent += result.sent
            self.wrong += result.wrong(stream)
            self.spans += [(result.name, *span) for span in result.spans]
            if result.name == "lone":
                self.lone_ms += [t * 1e3 for t in result.latencies_s]
                room = REPLAY_LOOKUPS - len(self.answers)
                self.answers += result.answers[:max(0, room)]
            elif result.name == "peak":
                self.peak_qps.append(result.qps)
            else:
                self.load_ms += [t * 1e3 for t in result.latencies_s]
                self.late_ms += [t * 1e3 for t in result.late_s]
        self.rounds += 1

    def finish(self) -> None:
        """Read the server's counters, CPU time and peak RSS."""
        now = serve.server_counters(self.server.stats())
        self.cpu_s = procfs.cpu_seconds(self.server.pid) - self._cpu0
        self.counters = {
            key: now[key] - self._start[key] if key != "request_p50_s"
            else now[key]
            for key in now
        }
        self.server_rss_mb = procfs.peak_rss_mb(self.server.pid)

    def layer_metrics(self) -> Dict[str, float]:
        c = self.counters
        lookups = c["hits"] + c["misses"]
        return {
            "server.batches": c["batches"],
            "server.mean_batch": c["batched"] / max(c["batches"], 1),
            "server.cache_hit_rate": c["hits"] / max(lookups, 1),
            "server.request_p50_ms": c["request_p50_s"] * 1e3,
            "server.rejected": c["rejected"],
            "server.cpu_us_per_q": self.cpu_s / max(self.sent, 1) * 1e6,
            "gen.late_p99_ms": percentile(self.late_ms, 99),
            "gen.sent": self.sent,
            "gen.lone_p99_ms": percentile(self.lone_ms, 99),
            "gen.load_p50_ms": percentile(self.load_ms, 50),
            "gen.load_p99_ms": percentile(self.load_ms, 99),
        }


def _replay(tracer: Tracer, path: str, stream,
            served: Served) -> Dict[str, float]:
    """In-process set-up and query replay, spanned per layer call."""
    from repro.binaryio import read_summary_binary
    from repro.queries.compiled import CompiledSummaryIndex
    from repro.serve.protocol import decode_body, encode_frame

    reads, compiles = [], []
    for _ in range(SETUP_READS):
        tic = time.perf_counter()
        with tracer.span("binaryio.read"):
            summary = read_summary_binary(path)
        mid = time.perf_counter()
        with tracer.span("queries.compiled.build"):
            index = CompiledSummaryIndex(summary)
        reads.append(mid - tic)
        compiles.append(time.perf_counter() - mid)
    for rid, body in served.answers[:REPLAY_LOOKUPS]:
        item = stream[rid % len(stream)]
        call = getattr(index, item.op)
        args = (item.args["u"], item.args["v"]) if item.op == "has_edge" \
            else (item.args["v"],)
        request = {"id": rid, "op": item.op, "args": item.args}
        span = tracer.begin(f"queries.compiled.{item.op}", rid)
        call(*args)
        tracer.finish(span)
        span = tracer.begin("serve.protocol.encode", rid)
        encode_frame(request)
        tracer.finish(span)
        span = tracer.begin("serve.protocol.decode", rid)
        decode_body(body)
        tracer.finish(span)
    layers = tracer.layers()

    def mean_us(name: str) -> float:
        row = layers.get(name)
        return row["total_s"] / row["count"] * 1e6 if row else 0.0

    return {
        "binaryio.read_s": statistics.median(reads),
        "index.compile_s": statistics.median(compiles),
        "index.neighbors_us": mean_us("queries.compiled.neighbors"),
        "index.degree_us": mean_us("queries.compiled.degree"),
        "index.has_edge_us": mean_us("queries.compiled.has_edge"),
        "protocol.encode_us": mean_us("serve.protocol.encode"),
        "protocol.decode_us": mean_us("serve.protocol.decode"),
    }


LAYER_UNITS = {
    "summarize.wall_s": "s", "graph.build_s": "s",
    "divide.s": "s", "divide.groups": "count", "divide.max_group": "count",
    "merge.s": "s", "merge.w_build_s": "s", "merge.saving_s": "s",
    "merge.apply_s": "s", "merge.best_candidate_calls": "count",
    "merge.candidates": "count", "merge.merges": "count",
    "merge.accept_ratio": "ratio",
    "encode.s": "s", "encode.superedges": "count",
    "encode.corrections": "count",
    "mp.arena_s": "s", "mp.pool_spawn_s": "s", "mp.pools": "count",
    "mp.parent_apply_s": "s", "mp.worker_wait_s": "s",
    "mp.fallbacks": "count", "mp.worker_rss_mb": "MB",
    "trace.unattributed_frac": "ratio", "trace.overhead_ratio": "ratio",
    "binaryio.read_s": "s", "index.compile_s": "s",
    "index.neighbors_us": "us", "index.degree_us": "us",
    "index.has_edge_us": "us",
    "protocol.encode_us": "us", "protocol.decode_us": "us",
    "server.batches": "count", "server.mean_batch": "count",
    "server.cache_hit_rate": "ratio", "server.request_p50_ms": "ms",
    "server.rejected": "count", "server.cpu_us_per_q": "us",
    "gen.late_p99_ms": "ms", "gen.sent": "count",
    "gen.lone_p99_ms": "ms", "gen.load_p50_ms": "ms",
    "gen.load_p99_ms": "ms",
}
