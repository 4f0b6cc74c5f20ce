"""Retrieval evaluation: Euclidean ranking, mean average precision and
CMC Rank-k under the single-query protocol with same-id/same-camera junk
filtering. No re-ranking or other post-processing is applied."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import EvaluationError, NumericError

DEFAULT_RANKS = (1, 5, 10)
# Queries scored together: the block's GEMM screen, distances and sort
# keys are each at most SCREEN_BLOCK x gallery (32 x 9000 float64 is
# 2.3 MB), so evaluation never holds a dense query x gallery matrix.
SCREEN_BLOCK = 32


@dataclass
class RetrievalResult:
    """Per-query APs plus aggregate metrics."""

    average_precisions: np.ndarray  # NaN for queries without a relevant match
    cmc: dict  # rank k -> accuracy over valid queries
    map: float

    def metrics(self) -> dict:
        out = {"mAP": self.map}
        for k, acc in self.cmc.items():
            out[f"rank{k}"] = acc
        return out


def _screen_tolerance(dims, scale):
    """A bound, with a safety factor of about 4, on how far the screen's
    GEMM form can put an item past the query's farthest match while
    ``cdist`` puts it no farther; ``scale`` is |q| + max|g| per query.

    The screen compares t = |g|^2 - 2 q.g, the squared distance less the
    query's own |q|^2. Let u = eps/2, M = scale, d2 the exact squared
    distance, and take the first-order error bounds of Higham (2002),
    ch. 3, which hold for any summation order:

    - |g|^2 and q.g are D-term dot products, each off by at most
      D u |x| |y| (Cauchy-Schwarz). Scaling q by -2 is exact. The one
      addition adds u |t|, and |t| <= |g|^2 + 2|q||g| <= M^2. So
      |t - (d2 - |q|^2)| <= (D + 1) u M^2.
    - ``cdist`` sums D rounded squares of rounded differences, all
      non-negative, and takes a rounded square root c. So
      |c^2 - d2| <= (D + 4) u d2 <= (D + 4) u M^2.

    For an item j with c_j <= c_h, h the farthest match under ``cdist``:
    t_j + |q|^2 <= d2_j + (D+1)uM^2 <= c_j^2 + (2D+5)uM^2
    <= c_h^2 + (2D+5)uM^2 <= d2_h + (3D+9)uM^2 <= t_h + |q|^2 + (4D+10)uM^2,
    so t_j <= t_h + (2D+5) eps M^2. 8 (D+4) eps M^2 is more than four
    times that, which covers the second-order terms, the rounding of M, of
    this product and of the cut ``max t[matches] + tol`` itself. Under
    gradual underflow each product may also be off by up to half the
    smallest subnormal; the chain above has at most 4D subnormals of such
    error, and 8 (D+4) of them are added.
    """
    f = np.finfo(np.float64)
    return 8 * (dims + 4) * (f.eps * scale ** 2 + f.smallest_subnormal)


def _order_by_distance(dist):
    """Each row's column indices in ascending (distance, column) order, for
    non-negative distances with NaN marking the columns to put last. The
    result is written over ``dist``'s buffer.

    A stable argsort gives this order directly but costs about five times
    an unstable one on a full gallery row. So an unstable sort finds each
    item's run of equal distances, and one sort of unique integer keys
    (the run's first position, then the column) orders the ties.
    """
    n = dist.shape[1]
    # Non-negative doubles order as their int64 bit patterns, with NaN
    # (0x7ff8...) above inf; a float argsort is far slower with NaN present.
    key = dist.view(np.int64)
    order = np.argsort(key, axis=1)
    key.sort(axis=1)
    tied = key[:, 1:] == key[:, :-1]
    key[:] = np.arange(n)
    key[:, 1:][tied] = 0
    np.maximum.accumulate(key, axis=1, out=key)  # the position of each run's start
    key *= n
    key += order
    key.sort(axis=1)
    key %= n
    return key


def evaluate_retrieval(
    query_emb, gallery_emb, q_ids, q_cams, g_ids, g_cams,
    ks=DEFAULT_RANKS, junk_filter=True,
) -> RetrievalResult:
    """Score AP and CMC, ``SCREEN_BLOCK`` queries at a time.

    The gallery is ranked by ascending Euclidean distance, ties broken by
    lower gallery index. A query's scores depend only on the ranks of its
    same-identity items among the kept (non-junk) gallery, so only the kept
    items no farther than its farthest such item are ranked. One GEMM per
    block of queries screens out the items that cannot be among them;
    ``cdist`` distances alone decide which are and their order.
    """
    q = np.atleast_2d(np.asarray(query_emb, dtype=np.float64))
    g = np.atleast_2d(np.asarray(gallery_emb, dtype=np.float64))
    if g.shape[0] == 0:
        raise ValueError("gallery is empty")
    if q.shape[1] != g.shape[1]:
        raise ValueError(f"query dim {q.shape[1]} != gallery dim {g.shape[1]}")
    if not (np.isfinite(q).all() and np.isfinite(g).all()):
        raise NumericError("non-finite query or gallery embedding entries")
    q_ids, q_cams, g_ids, g_cams = map(np.asarray, (q_ids, q_cams, g_ids, g_cams))
    for name, labels, side in (("q_ids", q_ids, q), ("q_cams", q_cams, q),
                               ("g_ids", g_ids, g), ("g_cams", g_cams, g)):
        if labels.shape != (side.shape[0],):
            raise ValueError(f"{name} has shape {labels.shape}, "
                             f"expected ({side.shape[0]},) for the embedding rows")
    g_sq = np.einsum("ij,ij->i", g, g)
    scale = np.sqrt(np.einsum("ij,ij->i", q, q)) + np.sqrt(g_sq.max())
    tol = _screen_tolerance(q.shape[1], scale)
    # A query's same-identity items are one run of the gallery sorted by
    # identity, in gallery order.
    by_id = np.argsort(g_ids, kind="stable")
    run_start = np.searchsorted(g_ids[by_id], q_ids, "left")
    run_len = np.searchsorted(g_ids[by_id], q_ids, "right") - run_start
    aps = np.full(q.shape[0], np.nan)
    first_hits = np.zeros(q.shape[0], dtype=np.intp)
    for start in range(0, q.shape[0], SCREEN_BLOCK):
        block = slice(start, start + SCREEN_BLOCK)
        # (row, item) pairs of each block query's same-identity items, row
        # by row; a junk item also shares the query's camera
        n_match = run_len[block]
        row = np.repeat(np.arange(n_match.size), n_match)
        item = by_id[np.repeat(run_start[block] - np.cumsum(n_match) + n_match,
                               n_match) + np.arange(row.size)]
        junk = (g_cams[item] == q_cams[block][row] if junk_filter
                else np.zeros(row.size, dtype=bool))
        n_hits = np.bincount(row[~junk], minlength=n_match.size)
        scored = n_hits > 0
        if not scored.any():
            continue
        # drop the queries without a hit and renumber the rows of the rest
        rows = start + np.flatnonzero(scored)
        keep = scored[row]
        row, item, junk = (np.cumsum(scored) - 1)[row[keep]], item[keep], junk[keep]
        n_hits = n_hits[scored]
        first = np.cumsum(n_hits) - n_hits  # each row's first hit pair
        hit_row, hit_item = row[~junk], item[~junk]
        qb = q[rows]
        # |g|^2 - 2 q.g: the squared distance less the query's own |q|^2.
        # Rows whose norms overflow give inf or NaN here, which the cut keeps.
        with np.errstate(over="ignore", invalid="ignore"):
            t = (-2.0 * qb) @ g.T
            t += g_sq
            cut = np.maximum.reduceat(t[hit_row, hit_item], first) + tol[rows]
        # "not above" the cut: NaN (inf - inf) keeps an item, and once
        # (|q| + max|g|)^2 overflows, the tolerance is inf and keeps all
        screened = ~(t > cut[:, None])
        del t
        screened[row[junk], item[junk]] = False
        # cdist, not the GEMM form: duplicate gallery rows must get equal
        # distances for the lower-index tie rule to hold. Each distance is
        # computed on its own, so those against a subset of the gallery
        # equal the full row's. Past a third of the gallery, copying the
        # rows any query kept costs more than the rest of the gallery.
        cols = np.flatnonzero(screened.any(axis=0))
        if 3 * cols.size > g.shape[0]:
            dist, hit_col = cdist(qb, g), hit_item
        else:
            dist, hit_col = cdist(qb, g[cols]), np.searchsorted(cols, hit_item)
            screened = screened[:, cols]
        farthest = np.maximum.reduceat(dist[hit_row, hit_col], first)
        dist[~(screened & (dist <= farthest[:, None]))] = np.nan
        order = _order_by_distance(dist)
        is_hit = np.zeros(order.shape, dtype=bool)
        is_hit[hit_row, hit_col] = True
        # each row's hits in rank order; the candidates sort before the
        # NaNs, so a hit's position is its rank among the kept items
        hit_row, at = np.nonzero(np.take_along_axis(is_hit, order, axis=1))
        ranks = at + 1
        nth = np.arange(ranks.size) - first[hit_row]
        precision = np.zeros((rows.size, n_hits.max()))
        precision[hit_row, nth] = (nth + 1) / ranks
        # cumsum adds each row in rank order, as the per-query reference's
        # builtin sum does, and adding the zero padding is exact
        aps[rows] = np.cumsum(precision, axis=1)[:, -1] / n_hits
        first_hits[rows] = ranks[first]
    scored = ~np.isnan(aps)
    if not scored.any():
        raise EvaluationError("no query has a relevant gallery item after filtering")
    first_hits = first_hits[scored]
    return RetrievalResult(
        average_precisions=aps,
        cmc={int(k): float(np.mean(first_hits <= k)) for k in ks},
        map=float(np.nanmean(aps)),
    )
