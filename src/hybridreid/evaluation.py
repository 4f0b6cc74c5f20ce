"""Retrieval evaluation: Euclidean ranking, mean average precision and
CMC Rank-k under the single-query protocol with same-id/same-camera junk
filtering. No re-ranking or other post-processing is applied."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import EvaluationError, NumericError

DEFAULT_RANKS = (1, 5, 10)
# Queries screened per GEMM: their squared-distance block stays at a few
# MiB (32 x 9000 float64 is 2.3 MB), so evaluation never holds a dense
# query x gallery matrix.
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


def evaluate_retrieval(
    query_emb, gallery_emb, q_ids, q_cams, g_ids, g_cams,
    ks=DEFAULT_RANKS, junk_filter=True,
) -> RetrievalResult:
    """Score AP and CMC one query at a time.

    The gallery is ranked by ascending Euclidean distance, ties broken by
    lower gallery index. A query's scores depend only on the ranks of its
    same-identity items among the kept (non-junk) gallery, so only the kept
    items no farther than its farthest such item are sorted. A GEMM over
    ``SCREEN_BLOCK`` queries at a time screens out the items that cannot be
    among them; ``cdist`` distances alone decide which are and their order.
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
    g_sq = np.einsum("ij,ij->i", g, g)
    scale = np.sqrt(np.einsum("ij,ij->i", q, q)) + np.sqrt(g_sq.max())
    tol = _screen_tolerance(q.shape[1], scale)
    aps = np.full(q.shape[0], np.nan)
    first_hits = []
    all_kept = np.ones(g.shape[0], dtype=bool)
    for start in range(0, q.shape[0], SCREEN_BLOCK):
        # |g|^2 - 2 q.g: the squared distance less the query's own |q|^2.
        # Rows whose norms overflow give inf or NaN here, which the cut keeps.
        with np.errstate(over="ignore", invalid="ignore"):
            block = (-2.0 * q[start:start + SCREEN_BLOCK]) @ g.T
            block += g_sq
        for i, t in enumerate(block, start):
            match = g_ids == q_ids[i]
            kept = ~match | (g_cams != q_cams[i]) if junk_filter else all_kept
            hits = match & kept
            if not hits.any():
                continue
            # "not above" the cut: NaN (inf - inf) keeps an item, and once
            # (|q| + max|g|)^2 overflows, the tolerance is inf and keeps all
            screened = kept & ~(t > t[hits].max() + tol[i])
            # cdist, not the GEMM form: duplicate gallery rows must get equal
            # distances for the lower-index tie rule to hold. Each distance
            # is computed on its own, so a subset's equal the full row's;
            # the screened-out items are no candidates, so they stay inf.
            # Past a third of the gallery, copying the screened rows out
            # costs more than the rest of the row.
            if 3 * np.count_nonzero(screened) > g.shape[0]:
                dist = cdist(q[i:i + 1], g)[0]
            else:
                rows = np.flatnonzero(screened)
                dist = np.full(g.shape[0], np.inf)
                dist[rows] = cdist(q[i:i + 1], g[rows])[0]
            candidates = np.flatnonzero(kept & (dist <= dist[hits].max()))
            ranked = candidates[np.argsort(dist[candidates], kind="stable")]
            ranks = np.flatnonzero(match[ranked]) + 1  # 1-based, among kept items
            # builtin sum adds in rank order, as the per-query reference does
            aps[i] = sum(np.arange(1, ranks.size + 1) / ranks) / ranks.size
            first_hits.append(ranks[0])
    if not first_hits:
        raise EvaluationError("no query has a relevant gallery item after filtering")
    first_hits = np.asarray(first_hits)
    return RetrievalResult(
        average_precisions=aps,
        cmc={int(k): float(np.mean(first_hits <= k)) for k in ks},
        map=float(np.nanmean(aps)),
    )
