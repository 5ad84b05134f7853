"""SWeG baseline (Shin et al., WWW 2019) — the prior state of the art.

Same outer loop as LDME but with the three un-optimized phases the paper
targets:

* **Divide** by a single random shingle per supernode — few, large groups.
* **Merge** candidates ranked by *SuperJaccard* (node-level supervector
  scans), with the exact Saving evaluated only for the chosen candidate.
* **Encode** with the per-supernode algorithm (hashtable churn growing with
  ``|S|``) instead of the sort-based encoder.

Every deviation from LDME is a policy choice in :mod:`repro.core`, so the
timing gaps measured in the benchmarks isolate exactly the paper's claimed
improvements.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.base import BaseSummarizer
from ..core.divide import DivideStats, shingle_divide
from ..core.merge import MergeStats, merge_group_superjaccard
from ..core.partition import SupernodePartition
from ..core.saving import GroupAdjacency
from ..graph.graph import Graph

__all__ = ["SWeG"]


class SWeG(BaseSummarizer):
    """The SWeG summarizer.

    Parameters
    ----------
    iterations:
        Number of divide+merge rounds ``T``.
    epsilon:
        Lossy error bound (0 = lossless).
    seed:
        Seed for shingles and merge order.
    max_group_size:
        When > 0, oversized shingle groups are recursively re-split (SWeG's
        practical refinement). 0 keeps the paper's plain behaviour.
    encoder:
        Defaults to the per-supernode encoder SWeG is described with; pass
        ``"sorted"`` to ablate LDME's encoder inside SWeG.
    """

    name = "SWeG"

    def __init__(
        self,
        iterations: int = 20,
        epsilon: float = 0.0,
        seed: int = 0,
        max_group_size: int = 0,
        encoder: str = "per-supernode",
        cost_model: str = "exact",
        early_stop_rounds: int = 0,
        track_compression: bool = False,
    ) -> None:
        super().__init__(
            iterations=iterations,
            epsilon=epsilon,
            seed=seed,
            encoder=encoder,
            cost_model=cost_model,
            early_stop_rounds=early_stop_rounds,
            track_compression=track_compression,
        )
        if max_group_size < 0:
            raise ValueError("max_group_size must be >= 0")
        self.max_group_size = max_group_size

    # ------------------------------------------------------------------
    def divide(
        self,
        graph: Graph,
        partition: SupernodePartition,
        rng: np.random.Generator,
    ) -> Tuple[List[List[int]], DivideStats]:
        """Single-shingle divide (optionally re-splitting huge groups)."""
        return shingle_divide(
            graph, partition, rng, max_group_size=self.max_group_size
        )

    def merge_one_group(
        self,
        graph: Graph,
        partition: SupernodePartition,
        group: List[int],
        threshold: float,
        rng: np.random.Generator,
        adjacency: Optional[GroupAdjacency] = None,
    ) -> MergeStats:
        """SuperJaccard candidate search + single Saving check."""
        return merge_group_superjaccard(
            graph, partition, group, threshold, rng,
            cost_model=self.cost_model, adjacency=adjacency,
        )
