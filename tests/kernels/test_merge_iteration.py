"""Differential tests: one ``W`` per merge iteration vs a fresh ``W`` per group.

The merge phase builds ``W`` once per iteration, for every mergeable group,
and relies on :meth:`GroupAdjacency.apply_merge` to keep the rows of later
groups current while earlier groups merge. The oracle here is per-group
semantics written out independently: for every Saving it evaluates, it
rebuilds the two rows with a plain dict loop against the live partition
and reads sizes from the partition. Decisions must match merge for
merge, and ``W`` must stay symmetric after every merge.

The worker-side cases check that a batch built once against the snapshot
hands every group exactly the rows a per-group snapshot build would give,
and plans exactly what planning each group alone plans.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import get_cost_model
from repro.core.ldme import LDME
from repro.core.partition import SupernodePartition
from repro.core.saving import GroupAdjacency
from repro.core.summary import RunStats
from repro.distributed.multiprocess import (
    _plan_batch,
    _SnapshotPartition,
    plan_group_merges,
)
from repro.graph.graph import Graph
from repro.kernels.wtable import build_w_reference

from .test_differential import graphs, random_partition

COST_MODELS = ("exact", "paper")


# ---------------------------------------------------------------------------
# oracle: the merge phase with W rebuilt from the partition for every step
# ---------------------------------------------------------------------------


def _row(graph, partition, sid):
    counts = {}
    for v in partition.members(sid):
        for u in graph.neighbors(v).tolist():
            c = partition.supernode_of(u)
            counts[c] = counts.get(c, 0) + 1
    if sid in counts:
        counts[sid] //= 2
    return counts


def _cost(row, sid, size, partition, pair_cost, loop_cost):
    total = 0.0
    for c, edges in row.items():
        if c == sid:
            total += loop_cost(size, edges)
        else:
            total += pair_cost(size, partition.size(c), edges)
    return total


def _saving(graph, partition, a, b, cost_model):
    pair_cost, loop_cost = get_cost_model(cost_model)
    row_a, row_b = _row(graph, partition, a), _row(graph, partition, b)
    size_a, size_b = partition.size(a), partition.size(b)
    separate = (_cost(row_a, a, size_a, partition, pair_cost, loop_cost)
                + _cost(row_b, b, size_b, partition, pair_cost, loop_cost))
    if separate == 0:
        return 0.0
    merged_row = {}
    for row in (row_a, row_b):
        for c, edges in row.items():
            key = a if c in (a, b) else c
            merged_row[key] = merged_row.get(key, 0) + edges
    # Edges between a and b appear once in each row; internal ones are
    # already halved, so the a-b cross count must be taken once.
    if a in merged_row:
        merged_row[a] -= row_a.get(b, 0)
    if merged_row.get(a) == 0:
        del merged_row[a]
    merged = _cost(merged_row, a, size_a + size_b, partition, pair_cost,
                   loop_cost)
    return 1.0 - merged / separate


def oracle_merge_phase(graph, partition, groups, threshold, rng, cost_model):
    """The merge loop of Algorithm 1 with every Saving taken afresh."""
    log = []
    for group in groups:
        if len(group) < 2:
            continue
        temp = list(group)
        while temp:
            pick = int(rng.integers(len(temp)))
            temp[pick], temp[-1] = temp[-1], temp[pick]
            a = temp.pop()
            if not temp:
                break
            best, best_saving = None, float("-inf")
            for b in temp:
                s = _saving(graph, partition, a, b, cost_model)
                if s > best_saving:
                    best, best_saving = b, s
            if best_saving >= threshold:
                log.append((a, best))
                survivor, _ = partition.merge(a, best)
                temp[temp.index(best)] = survivor
    return log


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def split_groups(ids, seed):
    """Shuffle ``ids`` and cut them into disjoint groups of 1-5."""
    rng = np.random.default_rng(seed)
    ids = [ids[int(i)] for i in rng.permutation(len(ids))]
    groups = []
    while ids:
        take = int(rng.integers(1, 6))
        groups.append(ids[:take])
        ids = ids[take:]
    return groups


def production_merge_phase(graph, partition, groups, threshold, rng,
                           cost_model):
    """``BaseSummarizer._merge_phase``, logging merges and checking W."""
    log = []
    merge = partition.merge

    def logged(a, b):
        log.append((a, b))
        return merge(a, b)

    apply_merge = GroupAdjacency.apply_merge

    def checked(self, survivor, absorbed):
        apply_merge(self, survivor, absorbed)
        self.validate_symmetry()

    partition.merge = logged
    try:
        with mock.patch.object(GroupAdjacency, "apply_merge", checked):
            stats = LDME(cost_model=cost_model)._merge_phase(
                graph, partition, groups, threshold, rng, 1, RunStats()
            )
    finally:
        del partition.merge
    assert stats.merges == len(log)
    return log


def assert_phase_matches_oracle(graph, ours, oracle, groups, threshold, seed,
                                cost_model):
    """Run both merge phases on equal partitions; return the merge log."""
    log = production_merge_phase(
        graph, ours, groups, threshold, np.random.default_rng(seed),
        cost_model,
    )
    expected = oracle_merge_phase(
        graph, oracle, groups, threshold, np.random.default_rng(seed),
        cost_model,
    )
    assert log == expected
    assert np.array_equal(ours.node2super, oracle.node2super)
    return log


# ---------------------------------------------------------------------------
# serial: one W per iteration
# ---------------------------------------------------------------------------


class TestIterationW:
    @pytest.mark.parametrize("cost_model", COST_MODELS)
    @given(graphs(max_nodes=24, max_edges=80),
           st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([-1.0, 0.0, 0.1, 0.3]))
    @settings(max_examples=50, deadline=None)
    def test_matches_per_group_rebuild(self, cost_model, graph, seed,
                                       threshold):
        partition = random_partition(graph, seed)
        groups = split_groups(list(partition.supernode_ids()), seed + 1)
        assert_phase_matches_oracle(
            graph, partition, partition.copy(), groups, threshold, seed,
            cost_model,
        )

    @pytest.mark.parametrize("cost_model", COST_MODELS)
    def test_group_neighbouring_earlier_absorption(self, cost_model):
        # Nodes 0 and 1 are twins (both see 2..5), so the first group
        # merges them; 2 and 3 are twins adjacent to both, so the second
        # group's rows reference the absorbed supernode.
        edges = [(u, v) for u in (0, 1) for v in (2, 3, 4, 5)]
        edges += [(2, 6), (3, 6), (4, 7), (5, 7)]
        graph = Graph.from_edges(8, edges)
        groups = [[0, 1], [2, 3], [4, 5], [6, 7]]
        log = assert_phase_matches_oracle(
            graph, SupernodePartition(8), SupernodePartition(8), groups,
            -1.0, 0, cost_model,
        )
        assert [set(pair) for pair in log[:2]] == [{0, 1}, {2, 3}]

    @pytest.mark.parametrize("cost_model", COST_MODELS)
    @given(graphs(max_nodes=24, max_edges=80),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_whole_iterations_match(self, cost_model, graph, seed):
        """Several iterations in a row, through the divide, as LDME runs."""
        ours = SupernodePartition(graph.num_nodes)
        oracle = SupernodePartition(graph.num_nodes)
        algo = LDME(k=2, seed=seed, cost_model=cost_model)
        rng = np.random.default_rng(seed)
        for t in range(1, 4):
            groups, _ = algo.divide(graph, ours, rng)
            assert_phase_matches_oracle(
                graph, ours, oracle, groups, 1.0 / (1 + t),
                int(rng.integers(2**31)), cost_model,
            )


# ---------------------------------------------------------------------------
# workers: one W per batch, per-group snapshot semantics
# ---------------------------------------------------------------------------


class TestWorkerBatchRows:
    @pytest.mark.parametrize("cost_model", COST_MODELS)
    @given(graphs(max_nodes=24, max_edges=80),
           st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([-1.0, 0.1, 0.3]))
    @settings(max_examples=40, deadline=None)
    def test_batch_rows_equal_per_group_snapshot_rows(
        self, cost_model, graph, seed, threshold
    ):
        partition = random_partition(graph, seed)
        node2super = partition.node2super.copy()
        batch = [
            {sid: list(partition.members(sid)) for sid in group}
            for group in split_groups(list(partition.supernode_ids()), seed)
        ]
        handed = []
        restrict = GroupAdjacency.restrict

        def recording(self, group_ids):
            view = restrict(self, group_ids)
            handed.append((
                {sid: dict(row) for sid, row in view.w.items()},
                dict(view.size),
            ))
            return view

        with mock.patch.object(GroupAdjacency, "restrict", recording):
            log, scored = _plan_batch(
                graph, node2super, batch, threshold, seed, cost_model
            )
        assert len(handed) == len(batch)
        for group_members, (rows, size) in zip(batch, handed):
            snapshot = _SnapshotPartition(node2super, group_members)
            want_rows, want_size = build_w_reference(
                graph, snapshot, list(group_members)
            )
            assert rows == want_rows
            assert {c: size[c] for c in want_size} == want_size

        alone_log, alone_scored = [], 0
        for offset, group_members in enumerate(batch):
            plan, count = plan_group_merges(
                graph, node2super, group_members, threshold, seed + offset,
                cost_model,
            )
            alone_log.extend(plan)
            alone_scored += count
        assert (log, scored) == (alone_log, alone_scored)
