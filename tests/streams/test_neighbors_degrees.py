"""Tests for the k-recent neighbour ring and degree tracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.context import NeighborRing, ReplayState
from repro.streams.degrees import DegreeTracker


def push(ring: NeighborRing, node: int, neighbor: int, time: float) -> None:
    ring.push(node, neighbor, time, 0, 1.0, 0, None, ())


def column(ring: NeighborRing, node: int, key: str) -> list:
    """Column ``key`` of ``node``'s entries, oldest first."""
    return ring.tables[key][ring.entry_ids(node)].tolist() if ring.tables else []


def entries(ring: NeighborRing, node: int) -> list:
    """``(neighbor, time)`` of ``node``'s entries, oldest first."""
    return list(zip(column(ring, node, "neighbor"), column(ring, node, "time")))


class TestRecentNeighborBuffer:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            NeighborRing(0, 4)
        with pytest.raises(ValueError):
            ReplayState(0, {}, 4)

    def test_keeps_most_recent_k(self):
        ring = NeighborRing(3, 4)
        for t in range(5):
            push(ring, 0, t, float(t))
        assert [n for n, _ in entries(ring, 0)] == [2, 3, 4]

    def test_order_oldest_to_newest(self):
        # Seven writes wrap a k=4 ring; reads still come oldest first.
        ring = NeighborRing(4, 4)
        for t in [3.0, 7.0, 9.0, 10.0, 12.0, 15.0, 16.0]:
            push(ring, 1, 0, t)
        assert [t for _, t in entries(ring, 1)] == [10.0, 12.0, 15.0, 16.0]
        assert int(ring.head[1]) == 3 and int(ring.count[1]) == 4

    def test_unknown_node_empty(self):
        ring = NeighborRing(2, 4)
        assert entries(ring, 2) == []  # nothing allocated yet
        assert ring.tables == {}
        push(ring, 0, 1, 0.0)
        assert entries(ring, 2) == []  # allocated, never written
        assert entries(ring, 42) == []  # outside the node space

    def test_memory_bounded_by_k_times_nodes(self):
        ring = NeighborRing(2, 10)
        for node in range(10):
            for t in range(5):
                push(ring, node, t, float(t))
        assert ring.tables["neighbor"].shape == (10 * 2,)
        assert int(ring.count.sum()) == 20
        assert int(np.count_nonzero(ring.count)) == 10

    def test_clear(self):
        # Restoring an empty block leaves an empty, unallocated ring.
        ring = NeighborRing(2, 4)
        push(ring, 0, 1, 0.0)
        ring.restore_arrays({"entry_node": np.zeros(0, dtype=np.int64)})
        assert entries(ring, 0) == []
        assert ring.tables == {}

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=50),
        st.integers(1, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_buffer_is_suffix_of_insertions(self, neighbors, k):
        """Property: buffered entries are exactly the last min(k, n) inserts."""
        ring = NeighborRing(k, 1)
        for t, n in enumerate(neighbors):
            push(ring, 0, n, float(t))
        assert [n for n, _ in entries(ring, 0)] == neighbors[-k:]

    def test_self_loop_takes_two_slots_source_side_first(self):
        # Adjacent block elements naming one node are a self-loop's two
        # entries: consecutive slots, the first element older.
        ring = NeighborRing(3, 8)
        push(ring, 5, 1, 0.0)
        ring.push_block(
            np.array([5, 5, 2]),
            np.array([7, 8, 6]),
            np.array([1.0, 1.0, 1.0]),
            np.zeros(3, dtype=np.int64),
            np.ones(3),
            np.zeros(3, dtype=np.int64),
            None,
            (),
        )
        assert entries(ring, 5) == [(1, 0.0), (7, 1.0), (8, 1.0)]
        assert entries(ring, 2) == [(6, 1.0)]
        # Through the replay state, per event and per block alike.
        for block in (False, True):
            state = ReplayState(3, {}, 8)
            state.apply_edge(0, 5, 1, 0.0, None, 1.0)
            if block:
                state.apply_edge_block(
                    np.array([1]), [5], [5], np.array([1.0]), None, np.ones(1)
                )
            else:
                state.apply_edge(1, 5, 5, 1.0, None, 1.0)
            assert entries(state.ring, 5) == [(1, 0.0), (5, 1.0), (5, 1.0)]
            assert column(state.ring, 5, "neighbor_degree") == [1, 3, 3]

    def test_out_of_range_ids_get_their_own_rows(self):
        ring = NeighborRing(2, 4)
        for t, node in enumerate([-3, 9, 2**40, 9, 9]):
            push(ring, node, t, float(t))
        assert entries(ring, -3) == [(0, 0.0)]
        assert entries(ring, 9) == [(3, 3.0), (4, 4.0)]
        assert entries(ring, 2**40) == [(2, 2.0)]
        assert entries(ring, 3) == []
        # Extra rows are few, not proportional to the ids' magnitude.
        assert len(ring.head) <= 4 + 4

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_block_push_equals_per_entry_pushes(self, seed, k):
        """Property: push_block over endpoint-disjoint runs (self-loops
        included) leaves exactly the tables of one push per entry."""
        rng = np.random.default_rng(seed)
        scalar = NeighborRing(k, 12, 2, (3,))
        block = NeighborRing(k, 12, 2, (3,))
        for _ in range(6):
            # Distinct nodes, with -1 and 12 outside the node space; a
            # self-loop repeats its node's element, payload included.
            nodes = rng.permutation(14)[: rng.integers(1, 7)] - 1
            repeat = np.where(rng.random(len(nodes)) < 0.3, 2, 1)
            m = len(nodes)
            payload = [
                rng.integers(0, 12, m),
                rng.random(m),
                rng.integers(0, 99, m),
                rng.random(m),
                rng.integers(0, 9, m),
                rng.random((m, 2)),
                rng.random((m, 3)),
            ]
            nodes = np.repeat(nodes, repeat)
            payload = [np.repeat(values, repeat, axis=0) for values in payload]
            block.push_block(nodes, *payload[:6], payload[6:])
            for e, node in enumerate(nodes.tolist()):
                entry = [values[e] for values in payload]
                scalar.push(node, *entry[:6], entry[6:])
        assert scalar._extra == block._extra
        np.testing.assert_array_equal(scalar.head, block.head)
        np.testing.assert_array_equal(scalar.count, block.count)
        for key, table in scalar.tables.items():
            np.testing.assert_array_equal(table, block.tables[key], err_msg=key)


class TestDegreeTracker:
    def test_counts_both_endpoints(self):
        tracker = DegreeTracker()
        tracker.observe_edge(0, 1)
        tracker.observe_edge(0, 2)
        assert tracker.degree(0) == 2
        assert tracker.degree(1) == 1
        assert tracker.degree(2) == 1

    def test_unknown_node_zero(self):
        assert DegreeTracker().degree(99) == 0

    def test_self_loop_counts_twice(self):
        tracker = DegreeTracker()
        tracker.observe_edge(3, 3)
        assert tracker.degree(3) == 2

    def test_degrees_of_vectorised(self):
        tracker = DegreeTracker()
        tracker.observe_edge(0, 1)
        np.testing.assert_array_equal(
            tracker.degrees_of(np.array([0, 1, 2])), [1, 1, 0]
        )

    def test_as_array(self):
        tracker = DegreeTracker()
        tracker.observe_edge(0, 4)
        out = tracker.as_array(5)
        assert out.tolist() == [1, 0, 0, 0, 1]

    def test_matches_ctdg_degrees(self):
        from tests.conftest import toy_ctdg

        g = toy_ctdg(num_nodes=6, num_edges=30, seed=3)
        tracker = DegreeTracker()
        for e in g:
            tracker.observe_edge(e.src, e.dst)
        np.testing.assert_array_equal(tracker.as_array(6), g.degrees())

    def test_reset(self):
        tracker = DegreeTracker()
        tracker.observe_edge(0, 1)
        tracker.reset()
        assert tracker.num_active_nodes() == 0
