"""Work partitioning."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.parallel.partition import chunk_evenly, chunk_exact, chunk_sized


class TestChunkSized:
    def test_basic(self):
        assert chunk_sized([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            chunk_sized([1], 0)

    @given(st.lists(st.integers(), max_size=50), st.integers(1, 10))
    def test_concatenation_preserves_order(self, items, size):
        chunks = chunk_sized(items, size)
        assert [x for c in chunks for x in c] == items
        assert all(1 <= len(c) <= size for c in chunks)


class TestChunkEvenly:
    def test_basic(self):
        assert chunk_evenly([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]

    def test_more_parts_than_items(self):
        assert chunk_evenly([1, 2], 5) == [[1], [2]]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            chunk_evenly([1], 0)

    @given(st.lists(st.integers(), max_size=50), st.integers(1, 10))
    def test_balanced_and_order_preserving(self, items, parts):
        chunks = chunk_evenly(items, parts)
        assert [x for c in chunks for x in c] == items
        if chunks:
            sizes = [len(c) for c in chunks]
            assert max(sizes) - min(sizes) <= 1


class TestChunkExact:
    def test_pads_with_empty_chunks(self):
        assert chunk_exact([1, 2], 5) == [[1], [2], [], [], []]

    def test_matches_chunk_evenly_when_items_suffice(self):
        assert chunk_exact([1, 2, 3, 4, 5], 2) == [[1, 2, 3], [4, 5]]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            chunk_exact([1], 0)

    def test_safe_to_zip_against_fixed_id_list(self):
        """The contract chunk_evenly cannot offer: with parts > len(items),
        zip(ids, chunk_evenly(...)) silently drops trailing ids; chunk_exact
        keeps every consumer slot addressable."""
        ids = list(range(5))
        assigned = dict(zip(ids, chunk_exact(["a", "b"], 5)))
        assert set(assigned) == set(ids)
        assert assigned == {0: ["a"], 1: ["b"], 2: [], 3: [], 4: []}
        truncated = dict(zip(ids, chunk_evenly(["a", "b"], 5)))
        assert set(truncated) != set(ids), "the hazard chunk_exact fixes"

    @given(st.lists(st.integers(), max_size=50), st.integers(1, 10))
    def test_exact_count_balanced_and_order_preserving(self, items, parts):
        chunks = chunk_exact(items, parts)
        assert len(chunks) == parts
        assert [x for c in chunks for x in c] == items
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    @given(st.lists(st.integers(), max_size=50), st.integers(1, 10))
    def test_chunk_evenly_is_chunk_exact_minus_empties(self, items, parts):
        assert chunk_evenly(items, parts) == [
            c for c in chunk_exact(items, parts) if c
        ]
