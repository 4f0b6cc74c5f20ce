"""Pseudo-label generation: k-reciprocal neighbor sets, their Jaccard
distance and a deterministic DBSCAN. Neighbors are ranked 32 rows at a
time, a block per worker (``hybridreid.parallel``), the sets are CSR-style
(indptr, indices) arrays and the Jaccard distances are (i, j, dist) pairs,
so the working set is a 32 x N block per worker plus O(N k) sets and pairs,
never an N x N array. DBSCAN's clusters are the connected components of
the core points joined within eps, numbered by their smallest core and
found by array passes (min-label hooking and pointer jumping); a border
point joins the lowest-numbered cluster among its core neighbors."""

from __future__ import annotations

import numpy as np

from .core import OUTLIER, PseudoLabeling
from .parallel import run_blocks
from .ranking import _gemm, _pair_distances, _screen_tolerance

# Rows a worker ranks at once; labeling memory is a BLOCK_ROWS x N array
# per worker.
BLOCK_ROWS = 32
# Rows of a block partitioned at once.
PARTITION_ROWS = 4
# Pair keys built at once in jaccard_distance, before they go to their slice.
PAIR_BLOCK = 1 << 16


def k_reciprocal_neighbors(emb: np.ndarray, k: int):
    """k-reciprocal neighbor sets of the rows of ``emb`` as CSR-style
    ``(indptr, indices)`` arrays.

    ``indices[indptr[i]:indptr[i + 1]]`` is
    ``R(i) = {j : j in kNN(i) and i in kNN(j)}`` in ascending order, with
    kNN by Euclidean distance between unit-norm rows, excluding the sample
    itself and with ties at the k-th distance broken by lower index. One
    GEMM per BLOCK_ROWS rows, each block on a worker of ``run_blocks``,
    gives u = 2 e_i.e_j - |e_j|^2, which is -t for the t = |e_j|^2 -
    2 e_i.e_j of ``hybridreid.ranking``, and the k largest u are the k
    nearest unless the next u is within the ranking tolerance of the k-th;
    only such rows compute per-pair distances, and only for the
    columns inside that bound.
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

    def rank_block(lo, buffer):
        block = emb[lo:lo + BLOCK_ROWS]
        rows = np.arange(block.shape[0])
        u = _gemm(np.hstack([2.0 * block, -np.ones((rows.size, 1))]), rhs.T,
                  buffer[:rows.size])
        u[rows, lo + rows] = -np.inf
        # each row's k + 1 largest u, the (k+1)-th first, a few rows at a
        # time: argpartition's index array spans PARTITION_ROWS x N
        top = np.empty((rows.size, k + 1), dtype=np.int64)
        for at in range(0, rows.size, PARTITION_ROWS):
            part = np.argpartition(u[at:at + PARTITION_ROWS], n - k - 1, axis=1)
            top[at:at + PARTITION_ROWS] = part[:, n - k - 1:]
        near = top[:, 1:]
        u_k = np.take_along_axis(u, near, axis=1).min(axis=1)
        tie = np.flatnonzero(u[rows, top[:, 0]] >= u_k - tol[lo + rows])
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

    run_blocks(range(0, n, BLOCK_ROWS), rank_block,
               lambda: np.empty((min(BLOCK_ROWS, n), n)))
    del rank_block, rhs  # freed before the keys, which set the peak
    # j is in R(i) iff the key i*n + j is both a kNN pair's and a transposed
    # one's, so it appears twice among them once they are sorted
    rows = np.arange(n)[:, None]
    keys = np.concatenate(((rows * n + knn).ravel(), (knn * n + rows).ravel()))
    keys.sort()
    i, j = np.divmod(keys[1:][keys[1:] == keys[:-1]], n)
    return np.searchsorted(i, np.arange(n + 1)), j


def _shared_counts(indptr, indices):
    """Keys ``i * n + j`` of the pairs i < j that share a set R*(m) =
    R(m) + {m}, ascending, and the number of sets each pair shares. The
    pairs inside each set are listed, sorted in place, and counted in runs."""
    n = indptr.size - 1
    sizes = np.diff(indptr) + 1
    key_type = np.int32 if n * n < 2**31 else np.int64
    keys = np.empty(int((sizes * (sizes - 1) // 2).sum()), dtype=key_type)
    at = 0
    for size in range(2, int(sizes.max(initial=1)) + 1):
        owners = np.flatnonzero(sizes == size)
        members = np.empty((owners.size, size), dtype=key_type)
        members[:, 0] = owners
        members[:, 1:] = indices[indptr[owners, None] + np.arange(size - 1)]
        members.sort(axis=1)
        a, b = np.triu_indices(size, 1)
        # the keys of a few sets at a time, written into their slice
        step = max(1, PAIR_BLOCK // a.size)
        for lo in range(0, owners.size, step):
            block = members[lo:lo + step]
            out = keys[at:at + block.shape[0] * a.size].reshape(-1, a.size)
            np.multiply(block[:, a], n, out=out)
            out += block[:, b]
            at += out.size
    keys.sort()
    # each run of one key is a pair; its length is the number of sets shared
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first  # freed before the run lengths, which set the peak
    return keys[starts], np.diff(starts, append=keys.size)


def jaccard_distance(neighbor_sets):
    """Jaccard distances between the sets R*(i) = R(i) + {i}.

    ``neighbor_sets`` is ``(indptr, indices)`` as ``k_reciprocal_neighbors``
    returns it: set R(i) is ``indices[indptr[i]:indptr[i + 1]]``, ascending
    and without i, and the sets are symmetric (j in R(i) iff i in R(j)), so
    ``|R*(i) & R*(j)|`` is the number of sets R*(m) that hold both i and j.

    Returns ``(n, i, j, dist)``: each pair i < j whose sets intersect, once,
    in ascending (i, j) order, at ``1 - |R*(i) & R*(j)| / |R*(i) | R*(j)|``
    (zeros included); every absent pair is at distance 1.
    """
    indptr, indices = neighbor_sets
    n = indptr.size - 1
    sizes = np.diff(indptr) + 1
    keys, inter = _shared_counts(indptr, indices)
    i, j = np.divmod(keys, n)
    return n, i, j, 1.0 - inter / (sizes[i] + sizes[j] - inter)


def dbscan(pairs, eps: float, min_pts: int) -> PseudoLabeling:
    """DBSCAN on a precomputed, symmetric distance given as pairs.

    ``pairs`` is ``(n, i, j, dist)`` as ``jaccard_distance`` returns it: an
    integer n >= 0 and integer arrays with 0 <= i < j < n, each pair once
    in ascending (i, j) order, at distance ``dist`` (zeros included); every
    absent pair lies beyond ``eps``. A point is core iff it has at least
    ``min_pts`` neighbors within ``eps``, itself excluded. The clusters are
    the connected components of the cores joined within ``eps``, numbered
    by their smallest core; a border point (not core, within ``eps`` of a
    core) joins the lowest-numbered cluster among its core neighbors, and
    every other point is an outlier. That is the labeling of an expansion
    that scans samples in ascending index order.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    if not isinstance(pairs, tuple) or len(pairs) != 4:
        raise TypeError("dbscan expects (n, i, j, dist) pairs")
    n, i, j, dist = pairs[0], *map(np.asarray, pairs[1:])
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"pairs n must be an integer >= 0, got {n!r}")
    if not (i.dtype.kind == j.dtype.kind == "i" and i.ndim == j.ndim == dist.ndim == 1
            and i.size == j.size == dist.size):
        raise ValueError("pairs i, j, dist must be 1-D of one length, i and j integers")
    keys = i.astype(np.int64) * n + j
    if i.size and (i.min() < 0 or j.max() >= n or np.any(i >= j)
                   or np.any(keys[1:] <= keys[:-1])):
        raise ValueError("pairs must have 0 <= i < j < n, each once, in ascending order")
    del keys  # the largest array here: freed before the labeling's own
    # the two ends of each pair within eps are neighbors of each other
    near = dist <= eps
    a, b = i[near], j[near]
    core = np.bincount(a, minlength=n) + np.bincount(b, minlength=n) >= min_pts
    # the clusters are the components of the cores joined within eps: each
    # root hooks to the smallest root across an edge, then pointers jump to
    # the roots, until no edge joins two roots; every hook lowers a root,
    # so a component's root ends at its smallest core
    link = core[a] & core[b]
    u, v = a[link], b[link]
    root = np.arange(n)
    while True:
        ru, rv = root[u], root[v]
        cross = ru != rv
        if not cross.any():
            break
        # an edge inside one tree stays inside it: only crossing ones remain
        u, v, ru, rv = u[cross], v[cross], ru[cross], rv[cross]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    # a border point joins the cluster of its smallest-rooted core neighbor
    owner = np.where(core, root, n)
    for x, y in ((a, b), (b, a)):
        link = core[x] & ~core[y]
        np.minimum.at(owner, y[link], root[x[link]])
    is_root = core & (root == np.arange(n))
    ids = np.append(np.cumsum(is_root) - 1, OUTLIER)
    labeling = PseudoLabeling(assignment=ids[owner], num_clusters=int(is_root.sum()))
    labeling.validate()
    return labeling


def pseudo_label(emb, k, eps, min_pts) -> PseudoLabeling:
    """Full per-epoch labeling: k-reciprocal sets -> Jaccard -> DBSCAN, with
    ``eps`` < 1 as pairs sharing no neighbor (distance 1) are not stored."""
    if not eps < 1.0:
        raise ValueError(f"eps must be < 1 for Jaccard distances, got {eps}")
    return dbscan(jaccard_distance(k_reciprocal_neighbors(emb, k)), eps, min_pts)
