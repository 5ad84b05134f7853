"""The summarize job: LDME k=5, T=10, serially or on a 2-worker pool.

Untraced reps give ``summarize_ratio``, ``objective`` and ``peak_rss_mb``.
The traced rep patches each layer's entry points (see ``instrument``) and
turns the span tree into the per-layer metrics.
"""

from __future__ import annotations

import gc
import time
import traceback
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from . import inputs, procfs
from .reference import reference_s
from .tracer import Tracer

K = 5
ITERATIONS = 10


@contextmanager
def program_gc() -> Iterator[None]:
    """Start from an empty young generation, and keep the benchmark's own
    objects (lookup stream, answers, spans) out of the program's
    garbage-collection passes, as they would be in a user's process."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def build_graph(num_nodes, src, dst):
    from repro.graph.graph import Graph

    return Graph.from_edge_arrays(num_nodes, src, dst)


def time_builds(num_nodes, src, dst, reps: int,
                reference) -> Tuple[object, List[float], int]:
    """Build the CSR graph ``reps`` times and check each build against the
    reference adjacency outside its timed window; returns the last graph,
    the build times and how many builds did not match."""
    times, mismatched = [], 0
    for _ in range(reps):
        tic = time.perf_counter()
        graph = build_graph(num_nodes, src, dst)
        times.append(time.perf_counter() - tic)
        mismatched += not inputs.csr_matches(graph, reference)
    return graph, times, mismatched


def make_summarizer(workers: int, seed: int):
    from repro.core.ldme import LDME
    from repro.distributed.multiprocess import MultiprocessLDME

    if workers == 1:
        return LDME(k=K, iterations=ITERATIONS, seed=seed)
    return MultiprocessLDME(
        num_workers=workers, k=K, iterations=ITERATIONS, seed=seed
    )


def check_lossless(graph, result) -> bool:
    from repro.core.reconstruct import verify_lossless

    try:
        verify_lossless(graph, result)
    except AssertionError:
        return False
    return True


class Outcome:
    """Timed summarize reps of one configuration and their checks.

    Each rep's peak RSS is read after resetting the watermark, so it is the
    peak of that summarize alone. With worker processes it is the larger of
    that and the largest peak of any reaped child: the pool workers, which
    are forked, do their merge work and are reaped within the rep (no other
    child is reaped while reps run). Lossless verification runs outside the
    timed window; a rep that raises or fails it counts as failed. A
    parallel rep also records its supervision counters, so a run whose pool
    or shared-memory transport degraded cannot pass as a parallel timing.

    The reference loop is timed right before and right after each rep;
    the rep's ratio is its wall time over the mean of the two.
    """

    def __init__(self, graph, workers: int, seed: int) -> None:
        self.graph, self.workers, self.seed = graph, workers, seed
        self.seconds: List[float] = []
        self.ratios: List[float] = []
        self.loop_s: List[float] = []
        self.peak_rss_mb: List[float] = []
        self.objectives: List[int] = []
        self.worker_rss_mb = 0.0
        self.fallbacks = 0
        self.attempted = 0
        self.failed = 0
        self.spent_s = 0.0
        self.result = None

    @property
    def deterministic(self) -> bool:
        return len(set(self.objectives)) <= 1

    def rep(self) -> None:
        self.attempted += 1
        summarizer = make_summarizer(self.workers, self.seed)
        with program_gc():
            before = reference_s()
            procfs.reset_peak_rss()
            tic = time.perf_counter()
            try:
                result = summarizer.summarize(self.graph)
            except Exception:  # noqa: BLE001 - a crash is a failed attempt
                traceback.print_exc()
                result = None
            elapsed = time.perf_counter() - tic
            peak = procfs.peak_rss_mb()
            reference = (before + reference_s()) / 2
        self.spent_s += elapsed
        if result is None:
            self.failed += 1
            return
        if self.workers > 1:
            self.worker_rss_mb = procfs.children_peak_rss_mb()
            self.fallbacks += fallbacks(result.stats)
            peak = max(peak, self.worker_rss_mb)
        self.peak_rss_mb.append(peak)
        if not check_lossless(self.graph, result):
            self.failed += 1
            return
        self.seconds.append(elapsed)
        self.ratios.append(elapsed / reference)
        self.loop_s.append(reference)
        self.objectives.append(result.objective)
        self.result = result


def fallbacks(stats) -> int:
    """``RunStats`` supervision counters: degraded or retried worker work."""
    return (stats.worker_failures + stats.batch_timeouts + stats.batch_retries
            + stats.serial_fallbacks + stats.shm_fallbacks)


# ----------------------------------------------------------------------
# traced rep
# ----------------------------------------------------------------------
def instrument(tracer: Tracer, summarizer, counts: Dict[str, float]) -> None:
    """Patch every summarize layer's entry points with spans and counters."""
    import repro.core.base as core_base
    from repro.core.partition import SupernodePartition
    from repro.core.saving import GroupAdjacency
    from repro.kernels.shm import SharedGraphArena
    from repro.resilience.supervisor import BatchSupervisor

    def on_divide(args, result):
        _, stats = result
        counts["divide.groups"] += stats.num_groups
        counts["divide.max_group"] = max(
            counts["divide.max_group"], stats.max_group_size
        )

    def on_merge(args, stats):
        counts["merge.merges"] += stats.merges
        counts["merge.candidates"] += stats.candidates_scored

    def on_encode(args, encoded):
        counts["encode.superedges"] += len(encoded.superedges)
        counts["encode.corrections"] += encoded.corrections.size

    cls = type(summarizer)
    tracer.wrap(cls, "divide", "core.divide", on_divide)
    tracer.wrap(cls, "_merge_phase", "core.merge", on_merge)
    tracer.wrap(core_base, "encode_sorted", "core.encode", on_encode)
    tracer.wrap(GroupAdjacency, "__init__", "kernels.wtable.build")
    tracer.wrap(GroupAdjacency, "best_candidate", "core.saving.best")
    tracer.wrap(GroupAdjacency, "apply_merge", "core.saving.apply")
    tracer.wrap(SupernodePartition, "merge", "core.partition.merge")
    tracer.wrap(SharedGraphArena, "create", "kernels.shm.arena")

    raw_init = BatchSupervisor.__init__

    def supervisor_init(self, *args, **kwargs):
        raw_init(self, *args, **kwargs)
        factory = self.pool_factory

        def timed_factory(num_tasks):
            with tracer.span("distributed.pool_spawn"):
                return factory(num_tasks)

        self.pool_factory = timed_factory

    tracer.patch(BatchSupervisor, "__init__", supervisor_init)


def traced_metrics(graph, workers: int, seed: int, untraced_s: float,
                   worker_rss_mb: float
                   ) -> Tuple[Dict[str, float], Tracer, bool]:
    """One traced summarize: ``(per-layer metrics, tracer, lossless)``.

    ``worker_rss_mb`` is the largest worker peak seen in the untraced reps,
    read before the server (also a child) was stopped and reaped.
    """
    counts: Dict[str, float] = {
        "divide.groups": 0, "divide.max_group": 0, "merge.merges": 0,
        "merge.candidates": 0, "encode.superedges": 0,
        "encode.corrections": 0,
    }
    tracer = Tracer()
    summarizer = make_summarizer(workers, seed)
    instrument(tracer, summarizer, counts)
    try:
        with program_gc():
            tic = time.perf_counter()
            with tracer.span("summarize"):
                result = summarizer.summarize(graph)
            wall = time.perf_counter() - tic
    finally:
        tracer.unpatch()
    ok = check_lossless(graph, result)
    layers = tracer.layers()

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def count(name):
        return layers.get(name, {}).get("count", 0)

    spans = tracer.arrays()
    root = tracer.names.index("summarize")
    root_index = int((spans["name"] == root).nonzero()[0][0])
    children = spans["parent"] == root_index
    covered = float((spans["end"] - spans["start"])[children].sum())
    stats = result.stats
    parallel = workers > 1
    apply_s = total("core.partition.merge") + total("core.saving.apply")
    merge_s = total("core.merge")
    arena_s = total("kernels.shm.arena")
    spawn_s = total("distributed.pool_spawn")
    calls = count("core.saving.best")
    metrics = {
        "divide.s": total("core.divide"),
        "divide.groups": counts["divide.groups"],
        "divide.max_group": counts["divide.max_group"],
        "merge.s": merge_s,
        "merge.w_build_s": total("kernels.wtable.build"),
        "merge.saving_s": total("core.saving.best"),
        "merge.apply_s": apply_s,
        "merge.best_candidate_calls": calls,
        "merge.candidates": counts["merge.candidates"],
        "merge.merges": counts["merge.merges"],
        "merge.accept_ratio": counts["merge.merges"] / calls if calls else 0.0,
        "encode.s": total("core.encode"),
        "encode.superedges": counts["encode.superedges"],
        "encode.corrections": counts["encode.corrections"],
        "mp.arena_s": arena_s,
        "mp.pool_spawn_s": spawn_s,
        "mp.pools": count("distributed.pool_spawn"),
        "mp.parent_apply_s": apply_s if parallel else 0.0,
        "mp.worker_wait_s": (
            max(0.0, merge_s - arena_s - spawn_s - apply_s) if parallel
            else 0.0
        ),
        "mp.fallbacks": fallbacks(stats),
        "mp.worker_rss_mb": worker_rss_mb,
        "trace.unattributed_frac": max(0.0, 1.0 - covered / wall),
        "trace.overhead_ratio": wall / untraced_s,
    }
    return metrics, tracer, ok
