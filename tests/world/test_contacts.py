"""``contact_pairs``: both candidate branches against one O(n^2) oracle.

The oracle is a pure-Python per-pair loop with the same float sequence as
the exact filter: ``positions[i] - positions[j]`` (i < j), squared,
compared with ``<=`` against the smaller of the two ranges.  The contract
is exact set equality on either side of :data:`TREE_MIN_NODES`, including
pairs at exactly the radius.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.world.contacts as contacts
from repro.errors import ConfigurationError
from repro.rng import RngFactory
from repro.world.contacts import TREE_MIN_NODES, contact_pairs

SEEDS = (0, 1, 2, 3, 4)


def rng_for(seed: int) -> np.random.Generator:
    return RngFactory(seed).stream("tests.world.contacts")


def reference_pairs(positions: np.ndarray, ranges) -> set[tuple[int, int]]:
    """O(n^2) loop; *ranges* is one range or one per node."""
    n = positions.shape[0]
    per_node = np.broadcast_to(np.asarray(ranges, dtype=float), (n,))
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            limit = min(per_node[i], per_node[j])
            diff = positions[i] - positions[j]
            if float(diff @ diff) <= limit * limit:
                out.add((i, j))
    return out


@pytest.fixture(params=["triangle", "tree"])
def branch(request, monkeypatch):
    """Force one candidate branch whatever the fleet size."""
    floor = 10**9 if request.param == "triangle" else 2
    monkeypatch.setattr(contacts, "TREE_MIN_NODES", floor)
    return request.param


class TestBothBranches:
    def test_simple_layout(self, branch):
        pts = np.array([[0.0, 0.0], [50.0, 0.0], [500.0, 0.0], [540.0, 0.0]])
        assert contact_pairs(pts, 100.0) == {(0, 1), (2, 3)}

    def test_boundary_is_inclusive(self, branch):
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        assert contact_pairs(pts, 100.0) == {(0, 1)}

    def test_boundary_tie_is_inclusive(self, branch):
        """Nodes at *exactly* the radius are in contact (<=, never <), on
        either axis and away from the origin."""
        radius = 100.0
        pts = np.array([
            [0.0, 0.0],
            [radius, 0.0],
            [0.0, radius],
            [250.0, 250.0],
            [250.0 + radius, 250.0],
        ])
        got = contact_pairs(pts, radius)
        assert got == reference_pairs(pts, radius)
        assert {(0, 1), (0, 2), (3, 4)} <= got

    def test_just_out_of_range(self, branch):
        pts = np.array([[0.0, 0.0], [100.001, 0.0]])
        assert contact_pairs(pts, 100.0) == set()

    def test_empty_and_single(self, branch):
        assert contact_pairs(np.zeros((0, 2)), 10.0) == set()
        assert contact_pairs(np.zeros((1, 2)), 10.0) == set()
        assert contact_pairs(np.zeros((0, 2)), np.zeros(0)) == set()
        assert contact_pairs(np.zeros((1, 2)), np.array([5.0])) == set()

    def test_coincident_points(self, branch):
        pts = np.zeros((3, 2))
        assert contact_pairs(pts, 1.0) == {(0, 1), (0, 2), (1, 2)}

    def test_degenerate_inputs(self, branch):
        assert contact_pairs(np.zeros((1, 2)), 10.0) == set()
        clique = np.zeros((5, 2))  # all nodes stacked: full clique
        assert contact_pairs(clique, 1.0) == {
            (i, j) for i in range(5) for j in range(i + 1, 5)
        }

    @pytest.mark.parametrize("spacing", [100.0, 0.3, 7.1])
    def test_lattice_ties_at_exact_radius(self, branch, spacing):
        """A square lattice whose spacing is the radius: every axis
        neighbour sits on the boundary (or a rounding away from it, which
        the oracle's identical float sequence decides)."""
        k = 8
        ii, jj = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
        pts = np.stack([ii.ravel() * spacing, jj.ravel() * spacing], axis=1)
        got = contact_pairs(pts, spacing)
        assert got == reference_pairs(pts, spacing)
        if spacing == 100.0:  # exactly representable: all ties are in
            assert len(got) == 2 * k * (k - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference_loop(self, branch, seed):
        rng = rng_for(seed)
        for n in (2, 7, 33, 64):
            positions = rng.uniform(0.0, 1000.0, size=(n, 2))
            # Radii spanning "almost no contacts" to "full clique".
            for radius in (10.0, 120.0, 2000.0):
                got = contact_pairs(positions, radius)
                assert got == reference_pairs(positions, radius), (n, radius)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_min_of_ranges(self, branch, seed):
        """Heterogeneous radios: a pair links within the smaller range."""
        rng = rng_for(seed)
        n = 40
        positions = rng.uniform(0.0, 500.0, size=(n, 2))
        ranges = rng.uniform(50.0, 150.0, size=n)
        got = contact_pairs(positions, ranges)
        assert got == reference_pairs(positions, ranges)
        assert got < contact_pairs(positions, float(ranges.max()))

    def test_rejects_bad_inputs(self, branch):
        with pytest.raises(ConfigurationError):
            contact_pairs(np.zeros((3, 2)), 0.0)
        with pytest.raises(ConfigurationError):
            contact_pairs(np.zeros((3, 3)), 1.0)

    def test_bad_inputs_raise(self, branch):
        good = np.zeros((3, 2))
        with pytest.raises(ConfigurationError, match="positive"):
            contact_pairs(good, 0.0)
        with pytest.raises(ConfigurationError, match="positive"):
            contact_pairs(good, np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ConfigurationError, match="shape"):
            contact_pairs(np.zeros((3, 3)), 10.0)
        with pytest.raises(ConfigurationError, match="one range per node"):
            contact_pairs(good, np.array([1.0, 1.0]))


class TestSizeConstant:
    def test_branch_switches_at_the_constant(self, monkeypatch):
        """Below the constant no tree is built; at it, one is."""
        built = []
        real = contacts.cKDTree

        def spy(points):
            built.append(len(points))
            return real(points)

        monkeypatch.setattr(contacts, "cKDTree", spy)
        rng = rng_for(0)
        contact_pairs(rng.uniform(0, 500, size=(TREE_MIN_NODES - 1, 2)), 50.0)
        assert built == []
        contact_pairs(rng.uniform(0, 500, size=(TREE_MIN_NODES, 2)), 50.0)
        assert built == [TREE_MIN_NODES]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_reference_around_the_constant(self, seed):
        rng = rng_for(seed)
        for n in (TREE_MIN_NODES - 1, TREE_MIN_NODES, TREE_MIN_NODES + 1):
            positions = rng.uniform(0.0, 800.0, size=(n, 2))
            ranges = rng.uniform(60.0, 120.0, size=n)
            assert contact_pairs(positions, 100.0) == reference_pairs(
                positions, 100.0
            )
            assert contact_pairs(positions, ranges) == reference_pairs(
                positions, ranges
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_branches_agree_exactly(self, seed, monkeypatch):
        rng = rng_for(seed)
        positions = rng.uniform(0.0, 5000.0, size=(150, 2))
        tree = contact_pairs(positions, 100.0)
        monkeypatch.setattr(contacts, "TREE_MIN_NODES", 10**9)
        assert contact_pairs(positions, 100.0) == tree

    @given(
        st.integers(min_value=2, max_value=2 * TREE_MIN_NODES),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=5.0, max_value=400.0),
    )
    def test_matches_reference(self, n, seed, radius):
        positions = np.random.default_rng(seed).uniform(0, 1000, size=(n, 2))
        assert contact_pairs(positions, radius) == reference_pairs(
            positions, radius
        )
