"""Tests for the real multiprocessing parallel LDME."""

import numpy as np
import pytest

from repro.core.partition import SupernodePartition
from repro.core.reconstruct import verify_lossless
from repro.distributed.multiprocess import (
    MultiprocessLDME,
    _fork_available,
    plan_group_merges,
)

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)


class TestPlanGroupMerges:
    def test_plan_replays_identically(self, star):
        """Applying a plan on the real partition reproduces the snapshot's
        member sets exactly."""
        part = SupernodePartition(6)
        group_members = {sid: [sid] for sid in (1, 2, 3, 4, 5)}
        plan, scored = plan_group_merges(
            star, part.node2super.copy(), group_members,
            threshold=0.3, seed=0,
        )
        assert scored > 0
        for a, b in plan:
            part.merge(a, b)
        part.validate()
        assert part.num_supernodes == 6 - len(plan)

    def test_empty_group_no_plan(self, star):
        plan, scored = plan_group_merges(
            star, np.arange(6), {1: [1]}, threshold=0.0, seed=0,
        )
        assert plan == []
        assert scored == 0

    def test_snapshot_sizes_respected(self, two_cliques):
        # Out-of-group neighbour sizes come from the snapshot node2super.
        part = SupernodePartition(8)
        part.merge(4, 5)
        plan, _ = plan_group_merges(
            two_cliques, part.node2super.copy(),
            {0: [0], 1: [1]}, threshold=0.1, seed=0,
        )
        # Whatever the decision, planning must not crash on merged
        # out-of-group neighbours and must only merge in-group ids.
        for a, b in plan:
            assert {a, b} <= {0, 1}


@needs_fork
class TestMultiprocessLDME:
    def test_lossless(self, small_web):
        result = MultiprocessLDME(
            k=5, iterations=4, seed=0, num_workers=2
        ).summarize(small_web)
        verify_lossless(small_web, result)
        result.partition.validate()

    def test_name_carries_worker_count(self, small_web):
        algo = MultiprocessLDME(k=5, iterations=2, seed=0, num_workers=2)
        assert algo.summarize(small_web).algorithm == "LDME5-mp2"

    def test_compression_comparable_to_serial(self, small_web):
        from repro.core.ldme import LDME

        serial = LDME(k=5, iterations=8, seed=0).summarize(small_web)
        parallel = MultiprocessLDME(
            k=5, iterations=8, seed=0, num_workers=2
        ).summarize(small_web)
        # Different merge interleaving, same ballpark quality.
        assert parallel.compression >= serial.compression - 0.15

    def test_single_worker_falls_back_to_serial(self, small_web):
        from repro.core.ldme import LDME

        solo = MultiprocessLDME(k=5, iterations=4, seed=0, num_workers=1)
        serial = LDME(k=5, iterations=4, seed=0)
        assert solo.summarize(small_web).objective == serial.summarize(
            small_web
        ).objective

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            MultiprocessLDME(num_workers=0)
