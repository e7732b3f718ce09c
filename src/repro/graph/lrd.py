"""Low-resistance-diameter (LRD) decomposition (paper step S2).

Partitions a PGM into node clusters whose *effective-resistance diameter* is
bounded, following the scheme of Alev et al. (ITCS 2018) as engineered in
HyperEF (Aghdaei & Feng, ICCAD 2022): estimate edge effective resistances
with a scalable sketch, then contract low-resistance edges level by level,
never letting a cluster's internal resistance diameter exceed the budget.

The diameter bookkeeping uses the standard spanning-tree upper bound: when
clusters ``A`` and ``B`` merge across an edge of resistance ``r``, the merged
diameter is at most ``diam(A) + r + diam(B)`` (resistance distances satisfy
the triangle inequality).  Clusters therefore provably satisfy the budget.

``level`` mirrors the paper's ``L`` hyper-parameter: each level halves the
target cluster count, so higher levels give coarser decompositions
(``n_clusters ≈ n / 2^level``) unless the resistance budget stops the
contraction first.

The contraction is one sequential budgeted-Kruskal pass: edges sorted by
resistance (stable), each merged through a union-find with union by size and
path compression, O(m α(n)) after the O(m log m) sort.  The pass runs over
plain Python ints and floats (``.tolist()`` once, then list indexing):
indexing numpy arrays one scalar at a time made the same loop 5-6x slower.
The diameter sums are double additions in a fixed order, so the clusters
are bit-identical to the numpy-array union-find that
``tests/graph/test_lrd.py`` keeps as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .. import obs
from .resistance import approx_edge_resistance

__all__ = ["LRDResult", "lrd_decompose", "cluster_sizes"]


@dataclass
class LRDResult:
    """Outcome of an LRD decomposition.

    Attributes
    ----------
    labels:
        ``(n,)`` cluster id per node, compacted to ``0..n_clusters-1``.
    n_clusters:
        Number of clusters.
    diameters:
        Upper bound on the internal resistance diameter of each cluster.
    edge_resistance:
        The per-edge ER estimates used (aligned with ``edges``).
    edges:
        ``(m, 2)`` edge list the decomposition saw.
    budget:
        The resistance-diameter budget actually applied.
    """

    labels: np.ndarray
    n_clusters: int
    diameters: np.ndarray
    edge_resistance: np.ndarray
    edges: np.ndarray
    budget: float


def _find(parent, node):
    """Root of ``node`` in the union-find forest ``parent``, compressing
    the path behind it."""
    root = node
    while parent[root] != root:
        root = parent[root]
    while parent[node] != root:
        parent[node], node = root, parent[node]
    return root


def _checked_resistance(edge_resistance, n_edges):
    """Caller-supplied per-edge ER as float64, or a ValueError unless it
    holds one finite, non-negative entry per upper-triangle edge."""
    edge_resistance = np.asarray(edge_resistance, dtype=np.float64)
    if edge_resistance.shape != (n_edges,):
        raise ValueError(
            f"edge_resistance has shape {edge_resistance.shape} but the "
            f"graph has {n_edges} upper-triangle edges")
    bad = ~np.isfinite(edge_resistance) | (edge_resistance < 0)
    if bad.any():
        raise ValueError(
            f"edge_resistance must be finite and non-negative; "
            f"{int(bad.sum())} of {n_edges} entries are not")
    return edge_resistance


def lrd_decompose(adjacency, level=6, budget=None, num_vectors=16, seed=0,
                  min_clusters=2, edge_resistance=None):
    """Decompose a graph into low-resistance-diameter clusters.

    Parameters
    ----------
    adjacency:
        Symmetric CSR adjacency of the PGM.
    level:
        Coarsening level ``L``; the target cluster count is ``n / 2^L``.
    budget:
        Resistance-diameter budget per cluster.  Default: scaled from the
        mean edge resistance so that a ``level``-deep merge chain fits
        (``mean_er * 2^level``), mirroring HyperEF's per-level growth.
    num_vectors:
        Sketch depth for the ER estimator.
    min_clusters:
        Never contract below this many clusters.
    edge_resistance:
        Optional pre-computed per-edge ER (aligned with the upper-triangle
        COO ordering), e.g. to share one sketch across ablation runs.

    Returns
    -------
    LRDResult
    """
    n = adjacency.shape[0]
    coo = sp.triu(adjacency, k=1).tocoo()
    edges = np.stack([coo.row, coo.col], axis=1)
    if edge_resistance is not None:
        edge_resistance = _checked_resistance(edge_resistance, len(edges))
    if len(edges) == 0:
        return LRDResult(labels=np.arange(n), n_clusters=n,
                         diameters=np.zeros(n), edge_resistance=np.zeros(0),
                         edges=edges, budget=0.0)
    if edge_resistance is None:
        with obs.span("lrd.sketch"):
            edge_resistance = approx_edge_resistance(
                adjacency, edges, num_vectors=num_vectors, seed=seed)
    if budget is None:
        budget = float(edge_resistance.mean()) * (2.0 ** level)

    with obs.span("lrd.merge"):
        order = np.argsort(edge_resistance, kind="stable")
        parent = list(range(n))
        size = [1] * n
        diameter = [0.0] * n
        clusters = n
        target = max(int(np.ceil(n / 2.0 ** level)), min_clusters)
        for a, b, resistance in zip(edges[order, 0].tolist(),
                                    edges[order, 1].tolist(),
                                    edge_resistance[order].tolist()):
            if clusters <= target:
                break
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                continue
            merged_diameter = diameter[ra] + resistance + diameter[rb]
            if merged_diameter > budget:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            parent[rb] = ra
            size[ra] += size[rb]
            diameter[ra] = merged_diameter
            clusters -= 1

        roots = np.array(parent)
        while True:                     # pointer jumping to the final roots
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
        unique_roots, labels = np.unique(roots, return_inverse=True)
        diameters = np.array(diameter)[unique_roots]
    return LRDResult(labels=labels, n_clusters=len(unique_roots),
                     diameters=diameters, edge_resistance=edge_resistance,
                     edges=edges, budget=float(budget))


def cluster_sizes(labels):
    """Sizes of each cluster id in a label vector."""
    return np.bincount(labels)
