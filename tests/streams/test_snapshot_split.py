"""Tests for graph snapshots and chronological splitting."""

import numpy as np
import pytest

from repro.streams.snapshot import GraphSnapshot, snapshot_sequence
from repro.streams.split import (
    chronological_split,
    selection_split_fractions,
    split_at_fraction,
    unseen_ratio_split,
)
from tests.conftest import toy_ctdg


class TestGraphSnapshot:
    def test_weight_accumulates(self):
        snapshot = GraphSnapshot()
        snapshot.observe_edge(0, 1, 2.0)
        snapshot.observe_edge(0, 1, 3.0)
        assert snapshot.weight(0, 1) == 5.0
        assert snapshot.weight(1, 0) == 5.0  # undirected accumulation

    def test_self_loop_weight_added_once(self):
        snapshot = GraphSnapshot()
        snapshot.observe_edge(3, 3, 1.5)
        snapshot.observe_edge(3, 3, 1.0)
        assert snapshot.weight(3, 3) == 2.5
        assert snapshot.num_edges == 1
        assert snapshot.to_networkx()[3][3]["weight"] == 2.5

    def test_counts_distinct_edges(self):
        snapshot = GraphSnapshot()
        snapshot.observe_edge(0, 1)
        snapshot.observe_edge(0, 1)
        snapshot.observe_edge(1, 2)
        assert snapshot.num_edges == 2
        assert snapshot.num_nodes == 3

    def test_neighbors_sorted(self):
        snapshot = GraphSnapshot()
        snapshot.observe_edge(0, 5)
        snapshot.observe_edge(0, 2)
        assert [n for n, _ in snapshot.neighbors(0)] == [2, 5]

    def test_to_networkx(self):
        snapshot = GraphSnapshot()
        snapshot.observe_edge(0, 1, 2.0)
        graph = snapshot.to_networkx()
        assert graph.number_of_edges() == 1
        assert graph[0][1]["weight"] == 2.0

    def test_from_ctdg_matches_manual(self):
        g = toy_ctdg(num_edges=25, seed=5)
        snapshot = GraphSnapshot.from_ctdg(g)
        manual = GraphSnapshot()
        for e in g:
            manual.observe_edge(e.src, e.dst, e.weight)
        assert snapshot.num_edges == manual.num_edges

    def test_snapshot_sequence_cumulative(self):
        g = toy_ctdg(num_edges=40)
        graphs = snapshot_sequence(g, 4)
        assert len(graphs) == 4
        sizes = [graph.number_of_edges() for graph in graphs]
        assert sizes == sorted(sizes)  # cumulative: non-decreasing

    def test_snapshot_sequence_validates(self):
        with pytest.raises(ValueError):
            snapshot_sequence(toy_ctdg(), 0)


class TestChronologicalSplit:
    def test_default_10_10_80(self):
        times = np.arange(100.0)
        split = chronological_split(times)
        assert split.sizes == (10, 10, 80)

    def test_ordering_invariant(self):
        times = np.sort(np.random.default_rng(0).uniform(size=50))
        split = chronological_split(times, 0.3, 0.2)
        assert times[split.train_idx].max() <= times[split.val_idx].min()
        assert times[split.val_idx].max() <= times[split.test_idx].min()

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            chronological_split(np.array([2.0, 1.0]))

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            chronological_split(np.arange(10.0), 0.6, 0.5)
        with pytest.raises(ValueError):
            chronological_split(np.arange(10.0), 0.0, 0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chronological_split(np.zeros(0))

    def test_covers_everything_once(self):
        times = np.arange(37.0)
        split = chronological_split(times, 0.25, 0.25)
        combined = np.concatenate([split.train_idx, split.val_idx, split.test_idx])
        np.testing.assert_array_equal(np.sort(combined), np.arange(37))


class TestSelectionSplits:
    def test_paper_fractions(self):
        assert selection_split_fractions() == [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_split_at_fraction_nonempty_sides(self):
        times = np.arange(10.0)
        for fraction in selection_split_fractions():
            left, right = split_at_fraction(times, fraction)
            assert len(left) >= 1 and len(right) >= 1
            assert len(left) + len(right) == 10

    def test_split_at_fraction_tiny_input(self):
        left, right = split_at_fraction(np.array([0.0, 1.0]), 0.9)
        assert len(left) == 1 and len(right) == 1

    def test_split_at_fraction_rejects_singleton(self):
        with pytest.raises(ValueError):
            split_at_fraction(np.array([0.0]), 0.5)


class TestUnseenRatioSplit:
    def test_test_fraction_matches_ratio(self):
        times = np.arange(100.0)
        split = unseen_ratio_split(times, unseen_ratio=0.4)
        assert len(split.test_idx) == 40
        assert len(split.val_idx) == 10
        assert len(split.train_idx) == 50

    def test_extreme_ratio_keeps_training_data(self):
        split = unseen_ratio_split(np.arange(20.0), unseen_ratio=0.9)
        assert len(split.train_idx) >= 1
        assert len(split.test_idx) >= 1

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            unseen_ratio_split(np.arange(10.0), unseen_ratio=1.0)
