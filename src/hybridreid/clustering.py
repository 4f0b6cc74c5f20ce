"""Pseudo-label generation: k-reciprocal neighbor sets, their Jaccard
distance and a deterministic DBSCAN. Neighbors are ranked 64 rows at a
time and the sets and Jaccard distances are CSR matrices, so the working
set is a few 64 x N blocks plus O(N k) sets, never an N x N array."""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy import sparse

from .core import OUTLIER, PseudoLabeling
from .ranking import _pair_distances, _screen_tolerance

# Rows ranked at once; labeling memory is a few BLOCK_ROWS x N arrays.
BLOCK_ROWS = 64


def k_reciprocal_neighbors(emb: np.ndarray, k: int):
    """Boolean CSR matrix of k-reciprocal neighbor sets of the rows of ``emb``.

    Row i holds ``R(i) = {j : j in kNN(i) and i in kNN(j)}`` in ascending
    order, with kNN by Euclidean distance between unit-norm rows, excluding
    the sample itself and with ties at the k-th distance broken by lower
    index. One GEMM per BLOCK_ROWS rows gives u = 2 e_i.e_j - |e_j|^2, which
    is -t for the t = |e_j|^2 - 2 e_i.e_j of ``hybridreid.ranking``, and the
    k largest u are the k nearest unless the next u is within the ranking
    tolerance of the k-th; only such rows compute per-pair distances, and
    only for the columns inside that bound.
    """
    emb = np.asarray(emb, dtype=np.float64)
    n = emb.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n; got k={k}, n={n}")
    if not np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-4):
        raise ValueError("k_reciprocal_neighbors expects unit-norm rows")
    sq = np.einsum("ij,ij->i", emb, emb)
    tol = _screen_tolerance(emb, sq)
    # u comes out of the GEMM itself, as [2 e_i, -1] . [e_j, |e_j|^2]: adding
    # |e_j|^2 to each block afterwards costs a pass as long as the GEMM, and
    # argpartition takes longer to find the k smallest t than the k largest u
    rhs = np.hstack([emb, sq[:, None]])
    knn = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, BLOCK_ROWS):
        block = emb[lo:lo + BLOCK_ROWS]
        u = np.hstack([2.0 * block, -np.ones((block.shape[0], 1))]) @ rhs.T
        rows = np.arange(u.shape[0])
        u[rows, lo + rows] = -np.inf
        order = np.argpartition(u, n - k - 1, axis=1)
        near = order[:, n - k:]
        u_k = np.take_along_axis(u, near, axis=1).min(axis=1)
        tie = np.flatnonzero(u[rows, order[:, n - k - 1]] >= u_k - tol[lo + rows])
        if tie.size:
            # Where t is below t_k - tol, fewer than k items can be nearer, so
            # a column is in; above t_k + tol, the k largest u are all nearer.
            # The distances of the columns in between fill the slots left.
            gap = u_k[tie, None] - u[tie]  # t - t_k
            band = tol[lo + tie, None]
            picked = gap < -band
            r, j = np.nonzero(~picked & (gap <= band))
            by = np.lexsort((j, _pair_distances(emb, lo + tie[r], emb, j), r))
            r, j = r[by], j[by]
            room = k - np.count_nonzero(picked, axis=1)
            take = np.arange(r.size) - np.searchsorted(r, r) < room[r]
            picked[r[take], j[take]] = True
            near[tie] = np.nonzero(picked)[1].reshape(-1, k)
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
    sizes = sets.sum(axis=1, dtype=np.float64)  # small integers, so sums are exact
    inter = sets @ sets.T
    inter.sort_indices()
    # the union |R(i)| + |R(j)| - |R(i) & R(j)|, then the distance, in place
    dist = np.repeat(sizes, np.diff(inter.indptr))
    dist += sizes[inter.indices]
    dist -= inter.data
    np.subtract(1.0, np.divide(inter.data, dist, out=dist), out=dist)
    return sparse.csr_array((dist, inter.indices, inter.indptr), shape=(n, n))


def dbscan(dist, eps: float, min_pts: int) -> PseudoLabeling:
    """DBSCAN on a precomputed, symmetric distance matrix.

    ``dist`` is a sparse matrix whose absent entries lie beyond ``eps``
    (its stored zeros are distances of 0). A point is core iff it
    has at least ``min_pts`` neighbors within ``eps``, itself excluded.
    Expansion scans samples in ascending index order and claims border
    points for the first cluster that reaches them, so the result is
    deterministic.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    if not sparse.issparse(dist):
        raise TypeError("dbscan expects a sparse distance matrix")
    dist = sparse.csr_array(dist)
    n = dist.shape[0]
    rows = np.repeat(np.arange(n), np.diff(dist.indptr))
    near = (dist.data <= eps) & (rows != dist.indices)  # the point itself excluded
    rows, cols = rows[near], dist.indices[near]
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
