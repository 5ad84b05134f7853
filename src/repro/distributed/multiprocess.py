"""Real shared-memory parallel LDME (the paper's parallel implementation).

The paper notes every phase of LDME parallelizes: signatures per supernode,
merge per group, encode per supernode. :class:`MultiprocessLDME` runs the
merge phase on a process pool for real: each worker receives a batch of
groups plus a frozen snapshot of the iteration-start partition, *plans* the
merges for its groups (groups are disjoint, so plans never conflict), and
the parent applies all plans. Out-of-group supernode sizes are read from
the snapshot — the same staleness semantics as the paper's Spark version,
where each executor works against the broadcast partition state.

Uses the ``fork`` start method so the graph's CSR arrays are inherited
copy-on-write instead of pickled per task; on platforms without ``fork``
(or with ``num_workers=1``) it degrades to the serial loop.

The pool runs under a :class:`~repro.resilience.supervisor.BatchSupervisor`:
a crashed or hung worker batch is detected via a per-batch deadline,
retried on a fresh pool with the *same* derived seed (planning is a pure
function, so the retry's plan is identical), and after ``max_batch_retries``
rounds the remaining batches are planned serially in the parent. A dying
pool therefore costs throughput, never correctness. Supervision counters
land on :class:`~repro.core.summary.RunStats`.

Only :meth:`~repro.core.base.BaseSummarizer._merge_phase` is overridden, so
the class inherits the shared driver — including checkpoint/resume via
:func:`repro.resilience.run_resumable`, early stopping, compression
tracking, and lossy dropping.

Transport: by default (``shared_memory="auto"``) the CSR adjacency, the
partition snapshot and every batch's group membership live in
:class:`repro.kernels.shm.SharedGraphArena` segments — workers receive a
few-hundred-byte ``(arena descriptors, group range)`` task, attach
zero-copy, and write their merge plans into a preallocated shared pairs
slab. The legacy transport (``shared_memory="off"``) pickles each batch's
member lists per task; any arena setup or integrity failure degrades to it
automatically (``RunStats.shm_fallbacks`` counts the degradations). Plans
are bit-identical across both transports: member lists cross the boundary
in exactly the parent partition's order and per-group seeds are derived
identically, so the golden summaries pin both.

When shared memory is active the DOPH signature scatter of the divide
phase also fans out: workers compute partial bin minima over contiguous
entry ranges into a shared slab and the parent ``np.minimum``-reduces
them — exact because minimum is associative and commutative — then
densifies. Gated by :attr:`MultiprocessLDME.signature_fanout_min_nnz`
so small graphs never pay the pool round-trip.

On the scaled surrogate graphs in this repo the process-pool overhead often
exceeds the merge work — this class exists for API completeness and for
larger inputs, and its tests assert *correctness* (lossless output,
valid partitions), not speedups.
"""

from __future__ import annotations

import logging
import multiprocessing
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.divide import lsh_divide
from ..core.ldme import LDME
from ..core.merge import MergeStats, merge_group_exact
from ..core.partition import SupernodePartition
from ..core.saving import GroupAdjacency
from ..core.summary import RunStats
from ..graph.graph import Graph
from ..kernels.doph import SCATTER_EMPTY, doph_densify, doph_scatter_min
from ..kernels.shm import (
    ArenaDescriptor,
    ArenaError,
    SharedGraphArena,
    shared_memory_available,
)
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.trace import Tracer
from ..resilience.faults import FaultInjector
from ..resilience.supervisor import BatchSupervisor, SupervisionPolicy

__all__ = ["MultiprocessLDME", "plan_group_merges"]

logger = logging.getLogger(__name__)

# Shared state inherited by forked workers (set immediately before the pool
# is created; read-only in children).
_SHARED: dict = {}

# Worker-side attach caches, keyed by arena id. A worker process serves at
# most one iteration's pool, so the caches stay tiny; they exist to make a
# worker that handles several batches attach (and CRC-validate) each arena
# once. Parent processes never populate them, so forked children start
# empty.
_ARENAS: Dict[str, SharedGraphArena] = {}
_GRAPHS: Dict[str, Graph] = {}


def _attach_cached(descriptor: ArenaDescriptor) -> Tuple[SharedGraphArena, int]:
    """Attach an arena (validated) or reuse this process's attachment.

    Returns ``(arena, attaches)`` where ``attaches`` is 1 on a fresh
    attach and 0 on a cache hit — summed by the parent into the
    ``shm_arena_attach_total`` metric (worker metric registries do not
    propagate back).
    """
    arena = _ARENAS.get(descriptor.arena_id)
    if arena is not None:
        return arena, 0
    arena = SharedGraphArena.attach(descriptor)
    _ARENAS[descriptor.arena_id] = arena
    return arena, 1


def _attached_graph(descriptor: ArenaDescriptor) -> Tuple[Graph, int]:
    """The CSR graph backed by a graph arena (zero-copy, cached)."""
    cached = _GRAPHS.get(descriptor.arena_id)
    if cached is not None:
        return cached, 0
    arena, attaches = _attach_cached(descriptor)
    graph = Graph(arena.array("indptr"), arena.array("indices"))
    _GRAPHS[descriptor.arena_id] = graph
    return graph, attaches


class _SnapshotPartition:
    """Partition view a worker plans merges against.

    Group members are local and mutable (in-group merges update them);
    ``node2super`` is the frozen iteration-start snapshot. The merge log
    records (a, b) pairs in order so the parent can replay them on the
    real partition with identical survivor decisions.
    """

    def __init__(
        self, node2super: np.ndarray, group_members: Dict[int, List[int]]
    ) -> None:
        self.node2super = node2super
        self._members = {sid: list(mem) for sid, mem in group_members.items()}
        self.merge_log: List[Tuple[int, int]] = []

    def members(self, sid: int) -> List[int]:
        return self._members[sid]

    def merge(self, a: int, b: int) -> Tuple[int, int]:
        if a == b:
            raise ValueError("cannot merge a supernode with itself")
        self.merge_log.append((a, b))
        mem_a, mem_b = self._members[a], self._members[b]
        if len(mem_b) > len(mem_a):
            survivor, absorbed = b, a
            mem_s, mem_x = mem_b, mem_a
        else:
            survivor, absorbed = a, b
            mem_s, mem_x = mem_a, mem_b
        mem_s.extend(mem_x)
        del self._members[absorbed]
        return survivor, absorbed


def plan_group_merges(
    graph: Graph,
    node2super: np.ndarray,
    group_members: Dict[int, List[int]],
    threshold: float,
    seed: int,
    cost_model: str = "exact",
) -> Tuple[List[Tuple[int, int]], int]:
    """Plan the merges for one group against a partition snapshot.

    Returns the ordered (a, b) merge pairs plus the candidate-scoring count.
    Pure function of its inputs — usable directly (tests), from workers,
    and as the serial fallback when the pool dies (a retried or
    fallen-back batch reproduces the exact plan a healthy worker would
    have returned).
    """
    return _plan_batch(
        graph, node2super, [group_members], threshold, seed, cost_model
    )


def _plan_batch(
    graph: Graph,
    node2super: np.ndarray,
    batch: Sequence[Dict[int, List[int]]],
    threshold: float,
    seed: int,
    cost_model: str,
) -> Tuple[List[Tuple[int, int]], int]:
    """Plan one batch of groups (seeded ``seed + offset`` per group).

    ``W`` is built once for the whole batch against the snapshot. Each
    group then plans on its own rows and starts from the snapshot sizes,
    so no group sees another's merges: the plan equals planning each
    group alone.
    """
    snapshot = _SnapshotPartition(
        node2super,
        {sid: mem for group in batch for sid, mem in group.items()},
    )
    batch_w = GroupAdjacency(
        graph, snapshot, chain.from_iterable(batch), cost_model
    )
    scored = 0
    for offset, group_members in enumerate(batch):
        group = list(group_members)
        start = [batch_w.size[sid] for sid in group]
        stats = merge_group_exact(
            graph, snapshot, group, threshold,
            seed=np.random.default_rng(seed + offset),
            adjacency=batch_w.restrict(group),
        )
        scored += stats.candidates_scored
        batch_w.size.update(zip(group, start))
    return snapshot.merge_log, scored


def _worker(task) -> Tuple[List[Tuple[int, int]], int, List[dict]]:
    """Pool worker: plan merges for one batch of groups.

    The fault hook fires before any planning so an injected crash models
    a worker dying mid-iteration with no partial results delivered.

    When the parent propagates a trace context, the worker rebuilds a
    child tracer from it, wraps its planning in a ``group_batch`` span
    parented at the parent's ``merge`` span, and ships the serialized
    span records back with the plan. Span ids are deterministic, so a
    retried batch re-emits the *same* span and the stitched tree is
    identical to a single-process run's.
    """
    (batch, threshold, seed, cost_model,
     iteration, batch_index, attempt, trace_ctx) = task
    faults: Optional[FaultInjector] = _SHARED.get("faults")
    if faults is not None:
        faults.on_worker_batch(iteration, batch_index, attempt)
    if trace_ctx is None:
        log, scored = _plan_batch(
            _SHARED["graph"], _SHARED["node2super"],
            batch, threshold, seed, cost_model,
        )
        return log, scored, []
    tracer = Tracer.from_context(trace_ctx)
    with tracer.span(
        "group_batch", key=batch_index, groups=len(batch)
    ) as batch_span:
        log, scored = _plan_batch(
            _SHARED["graph"], _SHARED["node2super"],
            batch, threshold, seed, cost_model,
        )
        batch_span.set_attribute("merges", len(log))
        batch_span.set_attribute("candidates_scored", scored)
    return log, scored, tracer.records()


def _shm_plan_range(
    graph: Graph,
    merge_arena: SharedGraphArena,
    group_lo: int,
    group_hi: int,
    pair_offset: int,
    threshold: float,
    seed: int,
    cost_model: str,
) -> Tuple[int, int]:
    """Plan a contiguous batch of groups straight out of a merge arena.

    Rebuilds each group's ``{sid: members}`` dict from the flattened
    membership arrays — sids in group order, members in the parent
    partition's order — so the plan is bit-identical to the pickle path's,
    then writes the ordered merge pairs into the shared ``pairs`` slab at
    ``pair_offset``. Returns ``(num_merges, candidates_scored)``; the
    parent reads the pairs back from the slab.
    """
    sid_list = merge_arena.array("sid_list").tolist()
    sid_indptr = merge_arena.array("sid_indptr").tolist()
    members_flat = merge_arena.array("members")
    group_indptr = merge_arena.array("group_indptr").tolist()
    batch = [
        {
            sid_list[j]: members_flat[sid_indptr[j]:sid_indptr[j + 1]].tolist()
            for j in range(group_indptr[g], group_indptr[g + 1])
        }
        for g in range(group_lo, group_hi)
    ]
    log, scored = _plan_batch(
        graph, merge_arena.array("node2super"), batch, threshold, seed,
        cost_model,
    )
    if log:
        merge_arena.array("pairs")[pair_offset:pair_offset + len(log)] = log
    return len(log), scored


def _shm_worker(task) -> Tuple[int, int, int, List[dict]]:
    """Pool worker for the zero-copy transport.

    The task carries only descriptors and scalars; the graph, the
    partition snapshot, the group membership and the output slab are all
    mapped from shared memory. Returns ``(num_merges, candidates_scored,
    attaches, span_records)`` — the merge pairs themselves never travel
    through the result pickle, the parent reads them from the slab.
    """
    (graph_desc, merge_desc, batch_index, group_lo, group_hi, pair_offset,
     threshold, seed, cost_model, iteration, attempt, trace_ctx) = task
    faults: Optional[FaultInjector] = _SHARED.get("faults")
    if faults is not None:
        faults.on_worker_batch(iteration, batch_index, attempt)
    graph, attaches = _attached_graph(graph_desc)
    merge_arena, merge_attaches = _attach_cached(merge_desc)
    attaches += merge_attaches
    if trace_ctx is None:
        num_merges, scored = _shm_plan_range(
            graph, merge_arena, group_lo, group_hi, pair_offset,
            threshold, seed, cost_model,
        )
        return num_merges, scored, attaches, []
    tracer = Tracer.from_context(trace_ctx)
    with tracer.span(
        "group_batch", key=batch_index, groups=group_hi - group_lo
    ) as batch_span:
        num_merges, scored = _shm_plan_range(
            graph, merge_arena, group_lo, group_hi, pair_offset,
            threshold, seed, cost_model,
        )
        batch_span.set_attribute("merges", num_merges)
        batch_span.set_attribute("candidates_scored", scored)
    return num_merges, scored, attaches, tracer.records()


def _scatter_worker(task) -> int:
    """Pool worker for the parallel DOPH scatter.

    Computes the bin-minimum partial over one contiguous entry range into
    its private slab slot. Any slot partitioning reduces (``np.minimum``)
    to the exact single-pass scatter. Returns the number of fresh arena
    attaches performed.
    """
    (graph_desc, sig_desc, slot, entry_lo, entry_hi, num_rows, k,
     chunk_rows) = task
    graph_arena, attaches = _attach_cached(graph_desc)
    sig_arena, sig_attaches = _attach_cached(sig_desc)
    attaches += sig_attaches
    rows = sig_arena.array("rows")
    perm = sig_arena.array("perm")
    items = graph_arena.array("indices")
    slab = sig_arena.array("slab")
    slot_view = slab[slot]
    slot_view.fill(SCATTER_EMPTY)
    doph_scatter_min(
        rows[entry_lo:entry_hi], items[entry_lo:entry_hi], num_rows,
        perm, k, chunk_rows=chunk_rows, out=slot_view,
    )
    return attaches


class MultiprocessLDME(LDME):
    """LDME with a supervised process-parallel merge phase.

    Parameters are those of :class:`~repro.core.ldme.LDME` plus:

    num_workers:
        Pool size (defaults to the CPU count, capped at 8). ``1`` runs
        the serial merge loop in-process.
    batch_timeout:
        Per-batch result deadline in seconds (also the crash-detection
        latency); ``None`` disables supervision timeouts.
    max_batch_retries:
        Fresh-pool retry rounds for failed batches before the parent
        plans them serially.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` consulted by
        workers — test/chaos hook, never needed in production.

    The inherited ``shared_memory`` knob selects the worker transport
    (``"auto"``/``"on"``/``"off"``; see :class:`~repro.core.config.
    LDMEConfig`). :attr:`signature_fanout_min_nnz` holds the CSR entry
    count below which the divide's signature scatter stays in-process
    (set it to 0 to force the worker fan-out, as the tests do).
    """

    #: Minimum CSR entries before the DOPH scatter fans out to workers.
    signature_fanout_min_nnz: int = 2_000_000

    def __init__(
        self,
        num_workers: Optional[int] = None,
        batch_timeout: Optional[float] = 300.0,
        max_batch_retries: int = 2,
        fault_injector: Optional[FaultInjector] = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers or min(8, multiprocessing.cpu_count())
        self.batch_timeout = batch_timeout
        self.max_batch_retries = max_batch_retries
        self.fault_injector = fault_injector
        self.name = f"{self.name}-mp{self.num_workers}"
        self._graph_arena: Optional[SharedGraphArena] = None
        self._graph_arena_key = None
        self._shm_probe: Optional[bool] = None   # lazy availability check
        self._shm_broken = False                 # latched on ArenaError

    # ------------------------------------------------------------------
    # shared-memory arena lifecycle
    # ------------------------------------------------------------------
    def _shm_active(self) -> bool:
        """Whether this run should use the zero-copy transport."""
        if self.shared_memory == "off" or self._shm_broken:
            return False
        if self.shared_memory == "on":
            return True
        if self._shm_probe is None:
            self._shm_probe = shared_memory_available()
        return self._shm_probe

    def _ensure_graph_arena(self, graph: Graph) -> SharedGraphArena:
        """The run-scoped CSR arena, created on first use.

        Cached per input graph; replaced (old one unlinked) if a
        different graph arrives. Raises :class:`ArenaError` when shared
        memory cannot be provided — callers degrade to the pickle path.
        """
        key = (id(graph), graph.num_nodes, graph.num_edges)
        if self._graph_arena is not None and self._graph_arena_key == key:
            return self._graph_arena
        self.close_arenas()
        arena = SharedGraphArena.create(
            {"indptr": graph.indptr, "indices": graph.indices},
            label="graph",
        )
        self._graph_arena = arena
        self._graph_arena_key = key
        return arena

    def close_arenas(self) -> None:
        """Unlink the run-scoped graph arena (idempotent).

        ``summarize`` calls this on every exit path; it is public for
        callers (benchmarks) that drive ``_merge_phase`` directly.
        """
        if self._graph_arena is not None:
            try:
                self._graph_arena.unlink()
            except ArenaError:  # pragma: no cover - inherited/foreign arena
                pass
            self._graph_arena = None
            self._graph_arena_key = None

    def _shm_degrade(self, run_stats: RunStats, exc: Exception) -> None:
        """Record an arena failure and latch the pickle path for the run."""
        run_stats.shm_fallbacks += 1
        obs_metrics.inc("shm_fallback_total")
        logger.warning("shared-memory transport degraded to pickle: %s", exc)
        self._shm_broken = True
        self.close_arenas()

    def summarize(self, graph, *args, **kwargs):
        """Run the inherited driver with guaranteed arena cleanup.

        Wraps :meth:`BaseSummarizer.summarize` so the run-scoped graph
        arena is unlinked on every exit path — normal completion, an
        early-stop, a raised ``KeyboardInterrupt`` — with the module
        ``atexit`` hook and the resource tracker as the last-resort nets
        for hard kills.
        """
        self._shm_broken = False
        try:
            return super().summarize(graph, *args, **kwargs)
        finally:
            self.close_arenas()

    # ------------------------------------------------------------------
    # parallel DOPH scatter (divide phase)
    # ------------------------------------------------------------------
    def divide(self, graph, partition, rng):
        """LSH divide, optionally fanning the signature scatter to workers.

        The fan-out engages only on the binary-weights path with shared
        memory active and at least :attr:`signature_fanout_min_nnz` CSR
        entries; the result is bit-identical either way (partial bin
        minima reduce exactly), so the golden suites pin both modes.
        """
        signature_fn = None
        if (
            self.divide_weights == "binary"
            and self.num_workers > 1
            and _fork_available()
            and self._shm_active()
            and graph.indices.size >= self.signature_fanout_min_nnz
        ):
            def signature_fn(rows, items, num_rows, perm, k, directions):
                return self._parallel_signatures(
                    graph, rows, num_rows, perm, k, directions
                )
        return lsh_divide(
            graph, partition, self.k, rng, weights=self.divide_weights,
            kernels=self.kernels, chunk_rows=self.doph_chunk_rows,
            signature_fn=signature_fn,
        )

    def _inline_signatures(self, rows, items, num_rows, perm, k, directions):
        """The in-process bulk kernel (fallback for the fan-out path)."""
        from ..lsh.doph import doph_signatures_bulk

        return doph_signatures_bulk(
            rows, items, num_rows, perm, k, directions,
            backend=self.kernels, chunk_rows=self.doph_chunk_rows,
        )

    def _parallel_signatures(
        self, graph, rows, num_rows, perm, k, directions
    ):
        """Worker fan-out of the DOPH bin-minimum scatter.

        The item ids are the CSR ``indices`` already living in the graph
        arena; a per-divide arena adds the row ids, the permutation and a
        per-worker partial-minimum slab. Workers scatter contiguous entry
        ranges; the parent min-reduces the slots and densifies. Every
        failure mode degrades to the in-process bulk kernel with the
        result unchanged.
        """
        nnz = int(rows.size)
        num_parts = min(self.num_workers, max(1, nnz))
        try:
            graph_arena = self._ensure_graph_arena(graph)
            with obs_trace.span(
                "scatter", key="fanout", parts=num_parts, nnz=nnz
            ) as scatter_span:
                sig_arena = SharedGraphArena.create(
                    {
                        "rows": np.ascontiguousarray(rows, dtype=np.int64),
                        "perm": perm,
                    },
                    outputs={
                        "slab": ((num_parts, num_rows * k), np.int64),
                    },
                    label="signatures",
                )
                try:
                    bounds = np.linspace(
                        0, nnz, num_parts + 1, dtype=np.int64
                    )
                    tasks = [
                        (
                            graph_arena.descriptor, sig_arena.descriptor,
                            slot, int(bounds[slot]), int(bounds[slot + 1]),
                            num_rows, k, self.doph_chunk_rows,
                        )
                        for slot in range(num_parts)
                    ]
                    ctx = multiprocessing.get_context("fork")
                    pool = ctx.Pool(processes=num_parts)
                    try:
                        handles = [
                            pool.apply_async(_scatter_worker, (task,))
                            for task in tasks
                        ]
                        attaches = sum(
                            handle.get(self.batch_timeout)
                            for handle in handles
                        )
                    finally:
                        pool.terminate()
                        pool.join()
                    obs_metrics.inc("shm_arena_attach_total", attaches)
                    scatter_span.set_attribute("attaches", attaches)
                    flat = np.minimum.reduce(
                        sig_arena.array("slab"), axis=0
                    )
                finally:
                    sig_arena.unlink()
            return doph_densify(flat, num_rows, k, directions)
        except ArenaError as exc:
            obs_metrics.inc("shm_fallback_total")
            logger.warning("signature fan-out degraded to in-process: %s", exc)
            return self._inline_signatures(
                rows, graph.indices, num_rows, perm, k, directions
            )
        except Exception as exc:  # noqa: BLE001 - timeout/pool death
            logger.warning("signature fan-out failed (%r); running inline", exc)
            return self._inline_signatures(
                rows, graph.indices, num_rows, perm, k, directions
            )

    # ------------------------------------------------------------------
    def _merge_phase(
        self,
        graph: Graph,
        partition: SupernodePartition,
        groups: List[List[int]],
        threshold: float,
        rng: np.random.Generator,
        iteration: int,
        run_stats: RunStats,
    ) -> MergeStats:
        """Fan groups out over a supervised fork pool and apply the plans.

        Seeds are derived from (self.seed, iteration, batch index), never
        drawn from ``rng``, so the parallel run is deterministic and a
        retried batch replays identically. The parent ``rng`` is consumed
        only by the divide phase, exactly as in the serial driver.

        Transport: zero-copy shared-memory arenas when ``shared_memory``
        allows (an :class:`ArenaError` during setup degrades the rest of
        the run to pickle and bumps ``RunStats.shm_fallbacks``), pickled
        batches otherwise. The applied plans are bit-identical.
        """
        if self.num_workers == 1 or not _fork_available():
            return super()._merge_phase(
                graph, partition, groups, threshold, rng, iteration, run_stats
            )
        if not groups:
            return MergeStats()
        if self._shm_active():
            try:
                return self._merge_phase_shm(
                    graph, partition, groups, threshold, iteration, run_stats
                )
            except ArenaError as exc:
                self._shm_degrade(run_stats, exc)
        return self._merge_phase_pickle(
            graph, partition, groups, threshold, iteration, run_stats
        )

    def _merge_phase_pickle(
        self,
        graph: Graph,
        partition: SupernodePartition,
        groups: List[List[int]],
        threshold: float,
        iteration: int,
        run_stats: RunStats,
    ) -> MergeStats:
        """The legacy transport: per-task pickled member-list batches."""
        merge_stats = MergeStats()
        node2super = partition.node2super.copy()
        batches: List[List[Dict[int, List[int]]]] = [
            [] for _ in range(self.num_workers)
        ]
        for i, group in enumerate(groups):
            batches[i % self.num_workers].append(
                {sid: list(partition.members(sid)) for sid in group}
            )
        base_seed = self.seed * 100_003 + iteration
        # (batch index, batch, derived seed) descriptors; round-robin
        # filling means the non-empty batches form a prefix, so the index
        # equals the original worker slot (stable fault coordinates and
        # seeds across retries).
        descriptors = [
            (w, batch, base_seed + 10_000 * w)
            for w, batch in enumerate(batches)
            if batch
        ]

        trace_ctx = obs_trace.context()   # None when tracing is off

        def build_task(descriptor, attempt):
            batch_index, batch, seed = descriptor
            return (
                batch, threshold, seed, self.cost_model,
                iteration, batch_index, attempt, trace_ctx,
            )

        def plan_serially(descriptor):
            # In-process fallback: bypasses _SHARED and the fault
            # injector entirely — degraded mode must be fault-free. It
            # runs under the parent's live merge span, so its
            # group_batch span (same deterministic id the worker would
            # have produced) lands directly on the active tracer.
            batch_index, batch, seed = descriptor
            with obs_trace.span(
                "group_batch", key=batch_index, groups=len(batch)
            ) as batch_span:
                log, scored = _plan_batch(
                    graph, node2super, batch, threshold, seed,
                    self.cost_model,
                )
                batch_span.set_attribute("merges", len(log))
                batch_span.set_attribute("candidates_scored", scored)
            return log, scored, []

        def make_pool(num_tasks):
            ctx = multiprocessing.get_context("fork")
            return ctx.Pool(processes=min(self.num_workers, num_tasks))

        supervisor = BatchSupervisor(
            worker_fn=_worker,
            task_builder=build_task,
            serial_fn=plan_serially,
            pool_factory=make_pool,
            policy=SupervisionPolicy(
                batch_timeout=self.batch_timeout,
                max_retries=self.max_batch_retries,
            ),
        )
        _SHARED["graph"] = graph
        _SHARED["node2super"] = node2super
        if self.fault_injector is not None:
            _SHARED["faults"] = self.fault_injector
        try:
            plans, report = supervisor.run(descriptors)
        finally:
            _SHARED.clear()
        report.merge_into(run_stats)
        tracer = obs_trace.active()
        for log, scored, span_records in plans:
            if tracer is not None and span_records:
                tracer.ingest(span_records)
            merge_stats.candidates_scored += scored
            for a, b in log:
                partition.merge(a, b)
                merge_stats.merges += 1
        return merge_stats

    def _merge_phase_shm(
        self,
        graph: Graph,
        partition: SupernodePartition,
        groups: List[List[int]],
        threshold: float,
        iteration: int,
        run_stats: RunStats,
    ) -> MergeStats:
        """The zero-copy transport: arenas in, pairs slab out.

        The parent flattens the iteration's group structure into arrays —
        sids batch-major in group order (the order the per-group seeds
        and the merge loop's random picks follow), member lists
        concatenated in the partition's own order — and places them, with
        the partition snapshot, in a per-iteration arena. Member order
        cannot change a plan: ``W`` holds edge counts, and every cost is
        an integer (``exact``) or an exact half (``paper``), so the
        order Saving sums its terms in cannot change its value. Workers attach,
        plan, and write merge pairs into the preallocated slab; the
        parent applies the pairs in batch order, exactly like the pickle
        path.

        Raises :class:`ArenaError` only before any work is dispatched
        (arena creation / integrity self-check); from then on worker
        failures are the supervisor's business (retry → serial fallback),
        so a thrown error never leaves a partially merged partition.
        """
        merge_stats = MergeStats()
        node2super = partition.node2super.copy()
        batches: List[List[List[int]]] = [[] for _ in range(self.num_workers)]
        for i, group in enumerate(groups):
            batches[i % self.num_workers].append(group)
        base_seed = self.seed * 100_003 + iteration

        # Flatten batch-major: groups -> sid runs -> member runs. The
        # batch index keeps the original worker slot (stable fault
        # coordinates, seeds and span keys across transports).
        flat_groups: List[List[int]] = []
        spans: List[Tuple[int, int, int]] = []   # (batch index, lo, hi)
        for w, batch in enumerate(batches):
            if batch:
                spans.append((w, len(flat_groups), len(flat_groups) + len(batch)))
                flat_groups.extend(batch)
        member_runs = [
            partition.members(sid) for group in flat_groups for sid in group
        ]
        sid_list = np.fromiter(
            chain.from_iterable(flat_groups), dtype=np.int64,
            count=sum(len(g) for g in flat_groups),
        )
        sid_counts = np.fromiter(
            (len(m) for m in member_runs), dtype=np.int64,
            count=len(member_runs),
        )
        sid_indptr = np.concatenate(
            [[0], np.cumsum(sid_counts, dtype=np.int64)]
        )
        members_flat = np.fromiter(
            chain.from_iterable(member_runs), dtype=np.int64,
            count=int(sid_indptr[-1]),
        )
        group_sizes = np.fromiter(
            (len(g) for g in flat_groups), dtype=np.int64,
            count=len(flat_groups),
        )
        group_indptr = np.concatenate(
            [[0], np.cumsum(group_sizes, dtype=np.int64)]
        )
        # Pair-slab capacity: a group of s supernodes plans at most s - 1
        # merges. Per-batch regions are contiguous in batch order.
        group_capacity = group_sizes - 1
        pair_offsets = np.concatenate(
            [[0], np.cumsum(group_capacity, dtype=np.int64)]
        )
        capacity = int(pair_offsets[-1])

        # Capture the merge-span context BEFORE the arena span opens so
        # worker group_batch spans stay parented under merge.
        trace_ctx = obs_trace.context()
        with obs_trace.span(
            "arena", key=iteration, groups=len(flat_groups)
        ) as arena_span:
            graph_arena = self._ensure_graph_arena(graph)
            merge_arena = SharedGraphArena.create(
                {
                    "node2super": node2super,
                    "sid_list": sid_list,
                    "sid_indptr": sid_indptr,
                    "members": members_flat,
                    "group_indptr": group_indptr,
                },
                outputs={"pairs": ((capacity, 2), np.int64)},
                label="merge",
            )
            try:
                # Cheap pre-dispatch integrity gate: a corrupted arena or
                # tampered descriptor raises the typed error here, in the
                # parent, where degradation to pickle is still clean.
                graph_arena.self_check()
                merge_arena.self_check()
            except ArenaError:
                merge_arena.unlink()
                raise
            arena_span.set_attribute("graph_bytes", graph_arena.nbytes)
            arena_span.set_attribute("merge_bytes", merge_arena.nbytes)

        try:
            descriptors = [
                (w, lo, hi, int(pair_offsets[lo]), base_seed + 10_000 * w)
                for w, lo, hi in spans
            ]
            graph_desc = graph_arena.descriptor
            merge_desc = merge_arena.descriptor

            def build_task(descriptor, attempt):
                w, lo, hi, pair_offset, seed = descriptor
                return (
                    graph_desc, merge_desc, w, lo, hi, pair_offset,
                    threshold, seed, self.cost_model,
                    iteration, attempt, trace_ctx,
                )

            def plan_serially(descriptor):
                # In-process fallback: plans from the parent's own arena
                # views (bit-identical inputs) and writes the slab region
                # the worker would have, under the live merge span.
                w, lo, hi, pair_offset, seed = descriptor
                with obs_trace.span(
                    "group_batch", key=w, groups=hi - lo
                ) as batch_span:
                    num_merges, scored = _shm_plan_range(
                        graph, merge_arena, lo, hi, pair_offset,
                        threshold, seed, self.cost_model,
                    )
                    batch_span.set_attribute("merges", num_merges)
                    batch_span.set_attribute("candidates_scored", scored)
                return num_merges, scored, 0, []

            def make_pool(num_tasks):
                ctx = multiprocessing.get_context("fork")
                return ctx.Pool(processes=min(self.num_workers, num_tasks))

            supervisor = BatchSupervisor(
                worker_fn=_shm_worker,
                task_builder=build_task,
                serial_fn=plan_serially,
                pool_factory=make_pool,
                policy=SupervisionPolicy(
                    batch_timeout=self.batch_timeout,
                    max_retries=self.max_batch_retries,
                ),
            )
            if self.fault_injector is not None:
                _SHARED["faults"] = self.fault_injector
            try:
                plans, report = supervisor.run(descriptors)
            finally:
                _SHARED.clear()
            report.merge_into(run_stats)
            tracer = obs_trace.active()
            pairs = merge_arena.array("pairs")
            attaches_total = 0
            for descriptor, result in zip(descriptors, plans):
                _, _, _, pair_offset, _ = descriptor
                num_merges, scored, attaches, span_records = result
                if tracer is not None and span_records:
                    tracer.ingest(span_records)
                merge_stats.candidates_scored += scored
                attaches_total += attaches
                for a, b in pairs[
                    pair_offset:pair_offset + num_merges
                ].tolist():
                    partition.merge(a, b)
                    merge_stats.merges += 1
            obs_metrics.inc("shm_arena_attach_total", attaches_total)
        finally:
            merge_arena.unlink()
        return merge_stats


def _fork_available() -> bool:
    """True when the 'fork' start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()
