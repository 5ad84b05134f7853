"""Vectorized ``W`` construction (Algorithm 4's hashtable).

:func:`build_w` builds the rows of every requested supernode in four array
passes, however many merge groups those supernodes come from:

1. find every member node through ``node2super`` and gather their rows
   out of the CSR in one shot (repeat/arange slicing — no per-node
   ``tolist`` round-trips),
2. map the gathered neighbour ids to supernode ids with one fancy-index,
3. aggregate ``(row, neighbour supernode)`` keys with ``np.unique``
   (equivalent to a ``bincount`` over factorized keys),
4. materialize the per-supernode dicts from the aggregated runs.

Step 4 and the size table are the only Python-level work left, and they
run over *distinct* ``W`` entries — supernode-level work, not edge-level
work. The merge phase calls
it once per iteration for all mergeable groups: a per-group call is mostly
fixed numpy overhead, because most groups are pairs.

:func:`build_w_reference` is the per-node dict loop the kernel replaced,
kept as the differential-testing oracle; the two return equal tables.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, Tuple

import numpy as np

from ..obs import profile

__all__ = ["build_w", "build_w_reference", "gather_rows"]

#: ``(W rows, supernode sizes)`` — see :func:`build_w`.
WTable = Tuple[Dict[int, Dict[int, int]], Dict[int, int]]


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple:
    """Concatenate CSR rows for ``nodes`` without a Python loop.

    Returns ``(values, lengths)``: the concatenated neighbour ids of each
    requested row (in row order) and each row's length.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths
    # offsets[i] = position where row i starts in the output
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    gather = np.repeat(starts - offsets, lengths) + np.arange(
        total, dtype=np.int64
    )
    return indices[gather], lengths


@profile.profiled("wtable")
def build_w(graph, partition, sids: Iterable[int]) -> WTable:
    """Build ``W`` rows for ``sids`` plus the sizes Saving reads.

    ``W[A][C]`` counts original edges between supernodes A and C; internal
    edges land under the self key ``W[A][A]`` halved (each internal
    undirected edge is seen from both endpoints). The size table maps
    every supernode that appears in a row, as row or column, to its
    member count. Only ``partition.node2super`` is read, so the
    multiprocess planner's snapshot partitions work too.
    """
    sids = [int(s) for s in sids]
    if not sids:
        return {}, {}
    node2super = partition.node2super
    n = max(1, int(node2super.size))
    sid_array = np.asarray(sids, dtype=np.int64)
    # Row index (position in ``sids``) of every node, -1 outside them.
    row_of = np.full(n, -1, dtype=np.int64)
    row_of[sid_array] = np.arange(len(sids), dtype=np.int64)
    node_rows = row_of[node2super]
    members = np.flatnonzero(node_rows >= 0)
    neighbours, row_lengths = gather_rows(
        graph.indptr, graph.indices, members
    )
    rows = np.repeat(node_rows[members], row_lengths)
    cols = node2super[neighbours]
    keys, counts = np.unique(rows * n + cols, return_counts=True)
    key_rows = keys // n
    key_cols = keys - key_rows * n
    # Each internal undirected edge was seen from both endpoints.
    counts = np.where(key_cols == sid_array[key_rows], counts >> 1, counts)
    # np.unique returns keys sorted, so each row is one run of entries.
    run_lengths = np.bincount(key_rows, minlength=len(sids)).tolist()
    entries = zip(key_cols.tolist(), counts.tolist())
    w = {sid: dict(islice(entries, k)) for sid, k in zip(sids, run_lengths)}
    referenced = np.zeros(n, dtype=bool)
    referenced[key_cols] = True
    referenced[sid_array] = True
    ids = np.flatnonzero(referenced)
    sizes = np.bincount(node2super, minlength=n)[ids]
    return w, dict(zip(ids.tolist(), sizes.tolist()))


def build_w_reference(graph, partition, sids: Iterable[int]) -> WTable:
    """The per-node dict loop :func:`build_w` replaced (test oracle)."""
    w: Dict[int, Dict[int, int]] = {}
    node2super = partition.node2super
    for sid in sids:
        counts: Dict[int, int] = {}
        for v in partition.members(sid):
            for c in node2super[graph.neighbors(v)].tolist():
                counts[c] = counts.get(c, 0) + 1
        internal = counts.pop(sid, 0)
        if internal:
            # Each internal undirected edge was seen from both endpoints.
            counts[sid] = internal // 2
        w[sid] = counts
    sizes = np.bincount(node2super, minlength=node2super.size)
    return w, {c: int(sizes[c]) for c in set(w).union(*w.values())}
