"""Retrieval evaluation: Euclidean ranking, mean average precision and
CMC Rank-k under the single-query protocol with same-id/same-camera junk
filtering. No re-ranking or other post-processing is applied."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import EvaluationError

DEFAULT_RANKS = (1, 5, 10)


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


def evaluate_retrieval(
    query_emb, gallery_emb, q_ids, q_cams, g_ids, g_cams,
    ks=DEFAULT_RANKS, junk_filter=True,
) -> RetrievalResult:
    """Score AP and CMC one query at a time.

    The gallery is ranked by ascending Euclidean distance, ties broken by
    lower gallery index. A query's scores depend only on the ranks of its
    same-identity items among the kept (non-junk) gallery, so only the kept
    items no farther than its farthest such item are sorted.
    """
    q = np.atleast_2d(np.asarray(query_emb, dtype=np.float64))
    g = np.atleast_2d(np.asarray(gallery_emb, dtype=np.float64))
    if g.shape[0] == 0:
        raise ValueError("gallery is empty")
    if q.shape[1] != g.shape[1]:
        raise ValueError(f"query dim {q.shape[1]} != gallery dim {g.shape[1]}")
    q_ids, q_cams, g_ids, g_cams = map(np.asarray, (q_ids, q_cams, g_ids, g_cams))
    aps = np.full(q.shape[0], np.nan)
    first_hits = []
    all_kept = np.ones(g.shape[0], dtype=bool)
    for i in range(q.shape[0]):
        match = g_ids == q_ids[i]
        kept = ~match | (g_cams != q_cams[i]) if junk_filter else all_kept
        hits = match & kept
        if not hits.any():
            continue
        # cdist, not a GEMM form: duplicate gallery rows must get equal
        # distances for the lower-index tie rule to hold
        dist = cdist(q[i:i + 1], g)[0]
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
