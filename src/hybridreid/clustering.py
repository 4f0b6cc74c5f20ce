"""Pseudo-label generation: k-reciprocal neighbor sets, their Jaccard
distance and a deterministic DBSCAN. Similarities are ranked one row block
at a time and the sets and Jaccard distances are CSR matrices, so no step
holds an N x N array."""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy import sparse

from .core import OUTLIER, PseudoLabeling

# Rows of similarities ranked at once; labeling memory is a few BLOCK_ROWS x N arrays.
BLOCK_ROWS = 256


def _distance_from_similarity(sim):
    """``sqrt(2 - 2 sim)``, clipped at 0, computed in place."""
    sim *= -2.0
    sim += 2.0
    return np.sqrt(np.clip(sim, 0.0, None, out=sim), out=sim)


def _may_tie(s_next, s_k):
    """Rows whose k nearest neighbors by distance may differ from their k
    largest similarities; ``s_k`` is a row's k-th largest similarity (self
    excluded) and ``s_next`` its largest one outside that top k.

    The distance of similarity s is d(s) = fl(sqrt(max(fl(2 - 2s), 0))),
    as ``_distance_from_similarity`` computes it (2s is exact). Rounding is
    monotone, so d is non-increasing in s, and the top k by s are the k
    nearest, with the lower-index rule never consulted, unless some column
    outside them has d(s_next) = d(s_k). The rows are unit-norm to 1e-4, so
    |s| < 1.001: x = 2 - 2s < 4.01 rounds by at most half an ulp, 2^-51,
    and sqrt(x) < 2.01 by at most 2^-52. Take s_next < min(s_k, 1) - delta.

    - If s_k >= 1, d(s_k) = 0, while 2 - 2 s_next > 2 delta, so its
      rounding is at least 2 delta and d(s_next) > 0.
    - If s_k < 1, the exact x_next - x_k = 2 (s_k - s_next) > 2 delta; the
      rounded values differ by more than 2 delta - 2^-50, their square roots
      by more than (2 delta - 2^-50) / 4.02 before rounding and by that less
      2^-51 after it. That is positive once delta > 1.51 * 2^-50.

    delta = 2^-46 is ten times that, so only the rows flagged here can tie
    at the k-th distance, and only they need the distances.
    """
    return s_next >= np.minimum(s_k, 1.0) - 2.0 ** -46


def _nearest_by_distance(sim, k):
    """The k nearest columns of each row of ``sim`` by ``sqrt(2 - 2 sim)``,
    ties at the k-th distance broken by lower index (``sim`` is consumed)."""
    dist = _distance_from_similarity(sim)
    near = np.argpartition(dist, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(dist, near, axis=1).max(axis=1, keepdims=True)
    # more candidates at the k-th distance than slots left: the lowest
    # indices among them take the slots
    below, tied = dist < kth, dist == kth
    room = k - np.count_nonzero(below, axis=1)
    picked = below | tied & (np.cumsum(tied, axis=1) <= room[:, None])
    return np.nonzero(picked)[1].reshape(-1, k)


def k_reciprocal_neighbors(emb: np.ndarray, k: int):
    """Boolean CSR matrix of k-reciprocal neighbor sets of the rows of ``emb``.

    Row i holds ``R(i) = {j : j in kNN(i) and i in kNN(j)}`` in ascending
    order, with kNN by the distance ``sqrt(2 - 2 <e_i, e_j>)`` between
    unit-norm rows, excluding the sample itself and with ties at the k-th
    distance broken by lower index. Similarities come BLOCK_ROWS rows at a
    time from one GEMM and are ranked as they are; only rows where
    ``_may_tie`` finds a possible tie at the k-th distance compute distances.
    """
    emb = np.asarray(emb, dtype=np.float64)
    n = emb.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n; got k={k}, n={n}")
    if not np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-4):
        raise ValueError("k_reciprocal_neighbors expects unit-norm rows")
    knn = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, BLOCK_ROWS):
        sim = emb[lo:lo + BLOCK_ROWS] @ emb.T
        rows = np.arange(sim.shape[0])
        sim[rows, lo + rows] = -np.inf
        order = np.argpartition(sim, n - k - 1, axis=1)
        near = order[:, n - k:]
        s_k = np.take_along_axis(sim, near, axis=1).min(axis=1)
        tie = np.flatnonzero(_may_tie(sim[rows, order[:, n - k - 1]], s_k))
        if tie.size:
            near[tie] = _nearest_by_distance(sim[tie], k)
        knn[lo:lo + rows.size] = np.sort(near, axis=1)
    knn = sparse.csr_array((np.ones(n * k, dtype=bool), knn.ravel(),
                            np.arange(0, n * k + 1, k)), shape=(n, n))
    return knn.multiply(knn.T)


def jaccard_distance(neighbor_sets):
    """Sparse Jaccard distances between neighbor sets.

    ``neighbor_sets`` is a boolean (sparse or dense) matrix whose row i is
    the set R(i); each set is treated as containing its own sample i
    regardless of the stored diagonal. Entry (i, j) is
    ``1 - |R(i) & R(j)| / |R(i) | R(j)|``, stored (zeros included) only for
    pairs whose sets intersect; every absent pair is at distance 1.
    """
    sets = sparse.csr_array(neighbor_sets, dtype=bool)
    n = sets.shape[0]
    sets = (sets + sparse.eye_array(n, dtype=bool, format="csr")).astype(np.int32)
    sizes = sets.sum(axis=1)
    inter = sets @ sets.T
    inter.sort_indices()
    rows = np.repeat(np.arange(n), np.diff(inter.indptr))
    union = sizes[rows] + sizes[inter.indices] - inter.data
    dist = 1.0 - inter.data.astype(np.float64) / union.astype(np.float64)
    return sparse.csr_array((dist, inter.indices, inter.indptr), shape=(n, n))


def dbscan(dist, eps: float, min_pts: int) -> PseudoLabeling:
    """DBSCAN on a precomputed, symmetric distance matrix.

    ``dist`` is dense, or a sparse matrix whose absent entries lie beyond
    ``eps`` (its stored zeros are distances of 0). A point is core iff it
    has at least ``min_pts`` neighbors within ``eps``, itself excluded.
    Expansion scans samples in ascending index order and claims border
    points for the first cluster that reaches them, so the result is
    deterministic.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    if sparse.issparse(dist):
        dist = sparse.csr_array(dist)
        near = dist.data <= eps
        rows = np.repeat(np.arange(dist.shape[0]), np.diff(dist.indptr))[near]
        cols = dist.indices[near]
    else:
        dist = np.asarray(dist)
        rows, cols = np.nonzero(dist <= eps)
    n = dist.shape[0]
    off_diagonal = rows != cols
    rows, cols = rows[off_diagonal], cols[off_diagonal]
    core = (np.bincount(rows, minlength=n) >= min_pts).tolist()
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()

    assignment = [OUTLIER] * n
    cluster = 0
    for start in range(n):
        if assignment[start] != OUTLIER or not core[start]:
            continue
        assignment[start] = cluster
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for q in cols[bounds[p]:bounds[p + 1]]:
                if assignment[q] != OUTLIER:
                    continue
                assignment[q] = cluster
                if core[q]:
                    queue.append(q)
        cluster += 1
    labeling = PseudoLabeling(assignment=np.asarray(assignment), num_clusters=cluster)
    labeling.validate()
    return labeling


def pseudo_label(emb, k, eps, min_pts) -> PseudoLabeling:
    """Full per-epoch labeling: k-reciprocal sets -> Jaccard -> DBSCAN, with
    ``eps`` < 1 as pairs sharing no neighbor (distance 1) are not stored."""
    if not eps < 1.0:
        raise ValueError(f"eps must be < 1 for Jaccard distances, got {eps}")
    return dbscan(jaccard_distance(k_reciprocal_neighbors(emb, k)), eps, min_pts)
