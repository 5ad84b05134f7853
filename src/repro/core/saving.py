"""Exact Saving computation — Algorithm 4 and the ``W`` structure.

LDME's merge phase replaces SWeG's SuperJaccard approximation with the true
``Saving(A, B, S)``: the relative drop in objective cost from merging A and
B. The enabler is a hashtable-of-hashtables ``W``, built once per merge
iteration for every mergeable group: ``W[A][C]`` is the number of original
edges between supernodes A and C, so every pairwise edge count is an O(1)
lookup and ``Saving`` costs only ``O(|W_A| + |W_B|)`` — supernode-level
work, independent of |V|.

``GroupAdjacency`` owns ``W`` and the supernode sizes Saving reads,
computes Saving/Cost under a pluggable cost model, and applies the
paper's post-merge update rules (fold the smaller side's table into the
larger, fix reverse entries).
Internal edges ``E_AA`` are stored under the self key ``W[A][A]``.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, Optional, Tuple

from ..graph.graph import Graph
from ..kernels.wtable import build_w
from .cost import get_cost_model
from .partition import SupernodePartition

__all__ = ["GroupAdjacency", "saving_of_pair", "supernode_cost"]


class GroupAdjacency:
    """The ``W`` hashtable-of-hashtables for a set of merge groups.

    Parameters
    ----------
    graph:
        The original graph (edge counts are always against ``E``).
    partition:
        Current supernode partition; ``W`` and the sizes are read from it
        once, at construction, and kept current by :meth:`apply_merge`.
    group_ids:
        Supernode ids to build rows for: one group's, or every mergeable
        group's of an iteration. Only these get first-level entries, but
        second-level keys may reference any adjacent supernode.
    cost_model:
        ``"exact"`` or ``"paper"`` (see :mod:`repro.core.cost`).

    Rows of several disjoint groups can share one instance: rule (2) of
    :meth:`apply_merge` moves ``W_C[absorbed]`` to ``W_C[survivor]`` in
    every row that holds it, so a later group's rows equal a fresh build
    against the partition its turn sees.
    """

    def __init__(
        self,
        graph: Graph,
        partition: SupernodePartition,
        group_ids: Iterable[int],
        cost_model: str = "exact",
    ) -> None:
        # ``size``: member count of every supernode a row mentions.
        self.w, self.size = build_w(graph, partition, group_ids)
        self._pair_cost, self._loop_cost = get_cost_model(cost_model)
        self._cost_cache: Dict[int, float] = {}

    def restrict(self, group_ids: Iterable[int]) -> "GroupAdjacency":
        """An instance over these rows only, sharing the size table."""
        view = copy.copy(self)
        view.w = {sid: self.w[sid] for sid in group_ids}
        view._cost_cache = {}
        return view

    # ------------------------------------------------------------------
    def edge_count(self, a: int, c: int) -> int:
        """|E_AC| (or |E_AA| internal count when ``a == c``)."""
        return self.w[a].get(c, 0)

    def cost(self, sid: int) -> float:
        """``Cost(A, S)``: A's contribution to the objective.

        Cached between merges — a merge only invalidates the entries of the
        supernodes whose pair terms it touched (see :meth:`apply_merge`).
        """
        cached = self._cost_cache.get(sid)
        if cached is not None:
            return cached
        size = self.size
        size_a = size[sid]
        pair_cost = self._pair_cost
        total = 0.0
        for c, edges in self.w[sid].items():
            if c == sid:
                total += self._loop_cost(size_a, edges)
            else:
                total += pair_cost(size_a, size[c], edges)
        self._cost_cache[sid] = total
        return total

    def merged_cost(self, a: int, b: int) -> float:
        """``Cost(A ∪ B, ...)``: cost of the hypothetical merged supernode."""
        size = self.size
        pair_cost = self._pair_cost
        size_ab = size[a] + size[b]
        w_a, w_b = self.w[a], self.w[b]
        internal = w_a.get(a, 0) + w_b.get(b, 0) + w_a.get(b, 0)
        total = self._loop_cost(size_ab, internal) if internal else 0.0
        for c, edges in w_a.items():
            if c == a or c == b:
                continue
            if c in w_b:
                edges = edges + w_b[c]
            total += pair_cost(size_ab, size[c], edges)
        for c, edges in w_b.items():
            if c == a or c == b or c in w_a:
                continue
            total += pair_cost(size_ab, size[c], edges)
        return total

    def saving(self, a: int, b: int) -> float:
        """``Saving(A, B, S)`` — Algorithm 4 under the chosen cost model.

        Defined as 0 when both supernodes are cost-free (isolated), since
        merging them can neither help nor hurt the objective.
        """
        separate = self.cost(a) + self.cost(b)
        if separate == 0:
            return 0.0
        return 1.0 - self.merged_cost(a, b) / separate

    def best_candidate(
        self, a: int, candidates: Iterable[int]
    ) -> Tuple[Optional[int], float]:
        """The candidate with maximal Saving against ``a`` (ties: first)."""
        best: Optional[int] = None
        best_saving = float("-inf")
        for b in candidates:
            if b == a:
                continue
            s = self.saving(a, b)
            if s > best_saving:
                best, best_saving = b, s
        if best is None:
            return None, 0.0
        return best, best_saving

    # ------------------------------------------------------------------
    def apply_merge(self, survivor: int, absorbed: int) -> None:
        """Update ``W`` after ``absorbed`` was merged into ``survivor``.

        Implements the paper's two update rules: fold the absorbed table
        into the survivor's, then rewrite reverse entries ``W_C[absorbed]``
        for every neighbour C that has a row — rows of groups whose turn
        is still to come included. Must be called *after*
        :meth:`SupernodePartition.merge` relabelled the members.
        """
        w_s = self.w[survivor]
        w_x = self.w.pop(absorbed)
        self.size[survivor] += self.size[absorbed]
        # Invalidate cached costs touched by this merge: the survivor, the
        # absorbed supernode, and everything adjacent to either (their pair
        # terms reference the merged sizes/counts).
        self._cost_cache.pop(survivor, None)
        self._cost_cache.pop(absorbed, None)
        for c in set(w_x) | set(w_s):
            self._cost_cache.pop(c, None)
        internal = (
            w_s.get(survivor, 0) + w_x.get(absorbed, 0) + w_s.pop(absorbed, 0)
        )
        w_x.pop(absorbed, None)
        w_x.pop(survivor, None)
        if internal:
            w_s[survivor] = internal
        for c, edges in w_x.items():
            w_s[c] = w_s.get(c, 0) + edges
        # Rule (2): by symmetry, the rows holding W_C[absorbed] are those
        # of the absorbed side's neighbours (C without a row: nothing to do).
        for c in w_x:
            w_c = self.w.get(c)
            if w_c is None:
                continue
            moved = w_c.pop(absorbed, None)
            if moved is not None:
                w_c[survivor] = w_c.get(survivor, 0) + moved

    def validate_symmetry(self) -> None:
        """Check symmetry ``W_A[B] == W_B[A]`` between rows (test hook)."""
        for a, row in self.w.items():
            for c, edges in row.items():
                if c == a or c not in self.w:
                    continue
                if self.w[c].get(a, 0) != edges:
                    raise AssertionError(
                        f"W[{a}][{c}] = {edges} but W[{c}][{a}] = "
                        f"{self.w[c].get(a, 0)}"
                    )


def supernode_cost(
    graph: Graph,
    partition: SupernodePartition,
    sid: int,
    cost_model: str = "exact",
) -> float:
    """Standalone ``Cost(A, S)`` without building a group structure.

    Used by baselines (RANDOMIZED) and by tests as an independent oracle.
    """
    adjacency = GroupAdjacency(graph, partition, [sid], cost_model=cost_model)
    return adjacency.cost(sid)


def saving_of_pair(
    graph: Graph,
    partition: SupernodePartition,
    a: int,
    b: int,
    cost_model: str = "exact",
) -> float:
    """Standalone ``Saving(A, B, S)`` for a single pair (oracle/baselines)."""
    adjacency = GroupAdjacency(graph, partition, [a, b], cost_model=cost_model)
    return adjacency.saving(a, b)
