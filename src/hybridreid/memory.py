"""Dual memory banks as plain arrays: C x D cluster centroids with momentum
updates and C x S x D per-cluster instance slots with replacement updates,
plus hard positive / hard negative selection."""

from __future__ import annotations

import warnings

import numpy as np
import numpy.random  # numpy imports it lazily: load it with this module

from .core import PseudoLabeling
from .parallel import run_blocks

# Mean vectors shorter than this are treated as degenerate (e.g. the mean
# of two antipodal unit vectors).
DEGENERATE_NORM = 1e-12

# Bytes of batch-by-slot similarities hard_keys scores at once. The block
# width can change the GEMM's rounding: at 256 KiB the benchmark workloads'
# similarities are bit-equal to one product over all clusters, at 512 KiB
# some moved by an ulp.
SCORE_BYTES = 256 << 10


def _checked_ids(ids, num: int) -> np.ndarray:
    """``ids`` as int64; ValueError unless every id is in [0, num), because
    numpy indexing would silently wrap OUTLIER (-1) to the last row."""
    ids = np.asarray(ids, dtype=np.int64)
    bad = (ids < 0) | (ids >= num)
    if np.any(bad):
        raise ValueError(f"ids outside [0, {num}): {sorted(set(ids[bad].tolist()))}")
    return ids


def init_cluster_bank(emb, labels: PseudoLabeling) -> np.ndarray:
    """C x D centroids: row i is cluster i's normalized mean, outliers excluded."""
    emb = np.asarray(emb, dtype=np.float64)
    c, d = labels.num_clusters, emb.shape[1]
    centroids = np.zeros((c, d), dtype=np.float64)
    for i, members in enumerate(labels.members):
        if members.size == 0:
            raise ValueError(f"cluster {i} has no members")
        mean = emb[members].mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < DEGENERATE_NORM:
            raise ValueError(f"cluster {i} has a degenerate (zero) mean")
        centroids[i] = mean / norm
    return centroids


def update_cluster_bank(centroids, batch_emb, batch_labels, alpha: float):
    """In-place momentum update c_i <- alpha*c_i + (1-alpha)*mean_i, renormalized.

    Only clusters present in the batch are touched. alpha = 1 is an exact
    no-op, so the stored rows are left bit-identical.
    """
    batch_emb = np.asarray(batch_emb, dtype=np.float64)
    batch_labels = _checked_ids(batch_labels, centroids.shape[0])
    if alpha == 1.0:
        return
    for i in np.flatnonzero(np.bincount(batch_labels)):
        cbar = batch_emb[batch_labels == i].mean(axis=0)
        merged = alpha * centroids[i] + (1.0 - alpha) * cbar
        norm = np.linalg.norm(merged)
        if norm < DEGENERATE_NORM:
            warnings.warn(
                f"cluster {i}: degenerate mean in momentum update, keeping "
                "previous centroid",
                RuntimeWarning,
            )
            continue
        centroids[i] = merged / norm


def init_instance_bank(emb, labels: PseudoLabeling, slots: int, rng_seed) -> np.ndarray:
    """C x S x D slots, each cluster's S filled by uniform sampling of its members.

    Sampling is without replacement when the cluster has at least S
    members and with replacement otherwise.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    emb = np.asarray(emb, dtype=np.float64)
    rng = np.random.default_rng(rng_seed)
    c, d = labels.num_clusters, emb.shape[1]
    bank = np.zeros((c, slots, d), dtype=np.float64)
    for i, members in enumerate(labels.members):
        if members.size == 0:
            raise ValueError(f"cluster {i} has no members")
        idx = rng.choice(members, size=slots, replace=members.size < slots)
        bank[i] = emb[idx]
    return bank


def update_instance_bank(slots, batch_emb, batch_labels):
    """Replace in place the slots of every cluster present in the batch.

    A cluster's k-th row in batch order goes to slot k mod S. Of more than
    S rows only the last S are written: slot p gets the last k = p (mod S).
    """
    batch_emb = np.asarray(batch_emb, dtype=np.float64)
    batch_labels = _checked_ids(batch_labels, slots.shape[0])
    s = slots.shape[1]
    for i in np.flatnonzero(np.bincount(batch_labels)):
        rows = np.flatnonzero(batch_labels == i)
        slots[i, np.arange(rows.size)[-s:] % s] = batch_emb[rows[-s:]]


def hard_keys(batch, slots, own_clusters):
    """One key per cluster for every row of a B x D batch: the hard positive
    (least similar slot) in the row's own cluster, the hard negative (most
    similar slot) in every other cluster; ties go to the lowest slot.

    Returns (B x C slot indices, B x C similarities of the picked slots).
    The C x S x D slots are scored a block of clusters at a time, as many
    as fit SCORE_BYTES of similarities (at least one), each block on a
    worker of ``run_blocks`` and in the one buffer that worker reuses: the
    call never holds the B x (C*S) product.
    """
    batch = np.asarray(batch, dtype=np.float64)
    c, s, d = slots.shape
    own_clusters = _checked_ids(own_clusters, c)
    b = batch.shape[0]
    keys = slots.reshape(c * s, d)
    picks = np.empty((b, c), dtype=np.int64)
    sims = np.empty((b, c))
    step = max(1, SCORE_BYTES // (b * s * 8 or 1))
    # by_own[edges[i]:edges[i + 1]] are the rows whose own cluster is in block i
    by_own = np.argsort(own_clusters, kind="stable")
    edges = np.searchsorted(own_clusters[by_own], np.arange(0, c + step, step))

    def score_block(lo, buf):
        hi = min(lo + step, c)
        flat = buf[:b * (hi - lo) * s].reshape(b, (hi - lo) * s)
        np.matmul(batch, keys[lo * s:hi * s].T, out=flat)
        block = flat.reshape(b, hi - lo, s)
        picked = np.argmax(block, axis=2)
        rows = by_own[edges[lo // step]:edges[lo // step + 1]]
        own = own_clusters[rows] - lo
        picked[rows, own] = np.argmin(block[rows, own], axis=1)
        picks[:, lo:hi] = picked
        picked += np.arange(0, picked.size * s, s).reshape(picked.shape)  # offsets in buf
        sims[:, lo:hi] = buf.take(picked)

    # one buffer per worker for all its blocks: glibc may map, and fault in,
    # a fresh one per block
    run_blocks(range(0, c, step), score_block, lambda: np.empty(b * min(step, c) * s))
    return picks, sims
