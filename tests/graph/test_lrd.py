"""LRD decomposition invariants (paper S2)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    adjacency_from_edges, cluster_sizes, exact_effective_resistance,
    knn_adjacency, lrd_decompose,
)

RNG = np.random.default_rng(0)


class _UnionFind:
    """Reference union-find over numpy arrays (the original implementation
    of the LRD merge), kept only as an exactness oracle."""

    def __init__(self, n):
        self.parent = np.arange(n)
        self.size = np.ones(n, dtype=np.int64)
        self.diameter = np.zeros(n)

    def find(self, node):
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a, b, edge_resistance, budget):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        merged_diameter = self.diameter[ra] + edge_resistance + self.diameter[rb]
        if merged_diameter > budget:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.diameter[ra] = merged_diameter
        return True


def reference_merge(n, edges, edge_resistance, level, budget, min_clusters):
    """``(labels, n_clusters, diameters)`` of the reference merge."""
    order = np.argsort(edge_resistance, kind="stable")
    uf = _UnionFind(n)
    clusters = n
    target = max(int(np.ceil(n / 2.0 ** level)), min_clusters)
    for idx in order:
        if clusters <= target:
            break
        a, b = edges[idx]
        if uf.union(int(a), int(b), float(edge_resistance[idx]), budget):
            clusters -= 1
    roots = np.array([uf.find(i) for i in range(n)])
    unique_roots, labels = np.unique(roots, return_inverse=True)
    return labels, len(unique_roots), uf.diameter[unique_roots]


def cloud_adjacency(n=200, k=6, seed=0):
    points = np.random.default_rng(seed).uniform(size=(n, 2))
    return points, knn_adjacency(points, k)


class TestDecomposition:
    def test_labels_form_exact_partition(self):
        _, adj = cloud_adjacency()
        result = lrd_decompose(adj, level=4)
        assert result.labels.shape == (200,)
        assert result.labels.min() == 0
        assert result.labels.max() == result.n_clusters - 1
        assert cluster_sizes(result.labels).sum() == 200

    def test_level_controls_coarseness(self):
        _, adj = cloud_adjacency()
        counts = [lrd_decompose(adj, level=l, seed=1).n_clusters
                  for l in (1, 3, 5, 7)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1]

    def test_target_cluster_count(self):
        _, adj = cloud_adjacency(n=256)
        result = lrd_decompose(adj, level=3, budget=np.inf)
        assert result.n_clusters == 256 // 8

    def test_diameter_bound_tracked(self):
        _, adj = cloud_adjacency()
        result = lrd_decompose(adj, level=5)
        assert np.all(result.diameters <= result.budget + 1e-12)

    def test_true_er_diameter_within_tracked_bound(self):
        # exact check on a small graph: the real resistance diameter of each
        # cluster never exceeds the spanning-tree upper bound we maintain
        points, adj = cloud_adjacency(n=60, k=4, seed=3)
        result = lrd_decompose(adj, level=3, num_vectors=96, seed=4)
        for c in range(result.n_clusters):
            members = np.flatnonzero(result.labels == c)
            if len(members) < 2:
                continue
            pairs = [(a, b) for i, a in enumerate(members)
                     for b in members[i + 1:]]
            er = exact_effective_resistance(adj, pairs)
            assert er.max() <= result.budget * 1.6 + 1e-9

    def test_min_clusters_respected(self):
        _, adj = cloud_adjacency(n=64)
        result = lrd_decompose(adj, level=20, budget=np.inf, min_clusters=5)
        assert result.n_clusters >= 5

    def test_no_edges_graph(self):
        adj = sp.csr_matrix((5, 5))
        result = lrd_decompose(adj, level=3)
        assert result.n_clusters == 5
        assert np.array_equal(result.labels, np.arange(5))

    def test_precomputed_edge_resistance_used(self):
        _, adj = cloud_adjacency(n=50, k=4)
        coo = sp.triu(adj, k=1).tocoo()
        er = np.ones(coo.nnz)
        result = lrd_decompose(adj, level=2, edge_resistance=er)
        assert np.array_equal(result.edge_resistance, er)

    def test_clusters_are_spatially_coherent(self):
        points, adj = cloud_adjacency(n=300, k=6, seed=5)
        result = lrd_decompose(adj, level=4, seed=5)
        intra = []
        for c in range(result.n_clusters):
            members = points[result.labels == c]
            if len(members) >= 2:
                intra.append(np.linalg.norm(
                    members - members.mean(axis=0), axis=1).mean())
        global_spread = np.linalg.norm(points - points.mean(axis=0),
                                       axis=1).mean()
        assert np.mean(intra) < 0.5 * global_spread

    def test_deterministic_under_seed(self):
        _, adj = cloud_adjacency()
        a = lrd_decompose(adj, level=4, seed=7)
        b = lrd_decompose(adj, level=4, seed=7)
        assert np.array_equal(a.labels, b.labels)


class TestMergeMatchesReference:
    """The merge is bit-identical to the numpy-array union-find."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 2000), k=st.integers(2, 12),
           level=st.integers(0, 12), min_clusters=st.integers(1, 40),
           budget_scale=st.one_of(st.none(), st.just(np.inf),
                                  st.floats(0.0, 64.0)),
           ties=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_labels_clusters_diameters_exact(self, n, k, level, min_clusters,
                                             budget_scale, ties, seed):
        rng = np.random.default_rng(seed)
        adj = knn_adjacency(rng.uniform(size=(n, 2)), min(k, n - 1))
        m = sp.triu(adj, k=1).nnz
        er = rng.exponential(size=m)
        if ties:                    # exercise the stable argsort tie order
            er = np.round(er, 1)
        budget = None if budget_scale is None else budget_scale * er.mean()
        result = lrd_decompose(adj, level=level, budget=budget,
                               min_clusters=min_clusters, edge_resistance=er)
        labels, n_clusters, diameters = reference_merge(
            n, result.edges, er, level, result.budget, min_clusters)
        assert np.array_equal(result.labels, labels)
        assert result.n_clusters == n_clusters
        assert np.array_equal(result.diameters, diameters)

    def test_sketched_resistance_exact(self):
        _, adj = cloud_adjacency(n=1500, k=8, seed=2)
        result = lrd_decompose(adj, level=5, seed=3)
        labels, n_clusters, diameters = reference_merge(
            1500, result.edges, result.edge_resistance, 5, result.budget, 2)
        assert np.array_equal(result.labels, labels)
        assert result.n_clusters == n_clusters
        assert np.array_equal(result.diameters, diameters)


class TestEdgeResistanceValidation:
    def _adjacency_and_edges(self):
        _, adj = cloud_adjacency(n=100, k=4, seed=1)
        return adj, sp.triu(adj, k=1).nnz

    def test_short_array_rejected(self):
        adj, m = self._adjacency_and_edges()
        with pytest.raises(ValueError, match="edge_resistance has shape"):
            lrd_decompose(adj, level=3, edge_resistance=np.ones(m // 2))

    def test_long_array_rejected(self):
        adj, m = self._adjacency_and_edges()
        with pytest.raises(ValueError, match="edge_resistance has shape"):
            lrd_decompose(adj, level=3, edge_resistance=np.ones(m + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_rejected(self, bad):
        adj, m = self._adjacency_and_edges()
        er = np.ones(m)
        er[m // 3] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            lrd_decompose(adj, level=3, edge_resistance=er)

