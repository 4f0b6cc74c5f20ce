"""Retrieval evaluation: Euclidean ranking, mean average precision and
CMC Rank-k under the single-query protocol with same-id/same-camera junk
filtering. No re-ranking or other post-processing is applied."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import EvaluationError

DEFAULT_RANKS = (1, 5, 10)
# Queries scored together; bounds the scoring temporaries to QUERY_BLOCK x G.
QUERY_BLOCK = 256


@dataclass
class RetrievalResult:
    """Per-query rankings and APs plus aggregate metrics."""

    rankings: np.ndarray
    average_precisions: np.ndarray  # NaN for queries without a relevant match
    cmc: dict  # rank k -> accuracy over valid queries
    map: float

    def metrics(self) -> dict:
        out = {"mAP": self.map}
        for k, acc in self.cmc.items():
            out[f"rank{k}"] = acc
        return out


def rank_gallery(query_emb, gallery_emb) -> np.ndarray:
    """Gallery indices sorted by ascending Euclidean distance per query.

    Ties are broken by lower gallery index.
    """
    q = np.atleast_2d(np.asarray(query_emb, dtype=np.float64))
    g = np.atleast_2d(np.asarray(gallery_emb, dtype=np.float64))
    if g.shape[0] == 0:
        raise ValueError("gallery is empty")
    if q.shape[1] != g.shape[1]:
        raise ValueError(f"query dim {q.shape[1]} != gallery dim {g.shape[1]}")
    dist = cdist(q, g)
    return np.argsort(dist, axis=1, kind="stable")


def evaluate_retrieval(
    query_emb, gallery_emb, q_ids, q_cams, g_ids, g_cams,
    ks=DEFAULT_RANKS, junk_filter=True,
) -> RetrievalResult:
    """Rank the gallery for every query, then score AP and CMC together
    from the ranked positions of each query's same-identity items."""
    rankings = rank_gallery(query_emb, gallery_emb)
    q_ids, q_cams, g_ids, g_cams = map(np.asarray, (q_ids, q_cams, g_ids, g_cams))
    num_q = rankings.shape[0]
    aps = np.full(num_q, np.nan)
    first_hits = np.zeros(num_q, dtype=np.int64)  # 1-based rank; 0 for no match
    for lo in range(0, num_q, QUERY_BLOCK):
        block = rankings[lo:lo + QUERY_BLOCK]
        n = block.shape[0]
        # same-identity entries, ordered by query and then by rank
        row, col = np.nonzero(g_ids[block] == q_ids[lo:lo + n, None])
        if junk_filter:
            junk = g_cams[block[row, col]] == q_cams[lo:lo + n][row]
        else:
            junk = np.zeros(row.size, dtype=bool)
        row_start = np.searchsorted(row, row)
        junk_before = np.cumsum(junk) - junk
        junk_before -= junk_before[row_start]
        hit = ~junk
        rank = (col - junk_before + 1)[hit]  # among the items junk filtering keeps
        hit_no = (np.arange(row.size) - row_start - junk_before + 1)[hit]
        row = row[hit]
        total = np.bincount(row, minlength=n)
        valid = np.flatnonzero(total)
        precision_sum = np.bincount(row, weights=hit_no / rank, minlength=n)
        aps[lo + valid] = precision_sum[valid] / total[valid]
        first_hits[lo + valid] = rank[np.searchsorted(row, valid)]
    first_hits = first_hits[first_hits > 0]
    if first_hits.size == 0:
        raise EvaluationError("no query has a relevant gallery item after filtering")
    return RetrievalResult(
        rankings=rankings,
        average_precisions=aps,
        cmc={int(k): float(np.mean(first_hits <= k)) for k in ks},
        map=float(np.nanmean(aps)),
    )
