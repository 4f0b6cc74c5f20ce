"""Retrieval evaluation: Euclidean ranking, mean average precision and
CMC Rank-k under the single-query protocol with same-id/same-camera junk
filtering. No re-ranking or other post-processing is applied."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvaluationError, NumericError
from .ranking import PAIR_CHUNK, _pair_distances, _screen_tolerance

DEFAULT_RANKS = (1, 5, 10)
# Queries scored together. A block's float32 pre-screen writes one
# SCREEN_BLOCK x gallery buffer, allocated once per call (32 x 9000 float32
# is 1.2 MB); its float64 GEMM form, screen and sort keys span only the
# pre-screen's candidates, so evaluation never holds a dense query x gallery
# matrix.
SCREEN_BLOCK = 32
# Negative float64s order as int64s once every bit but the sign is flipped;
# the same value sorts the screened-out items last.
_LOW_BITS = np.iinfo(np.int64).max


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


def _sort_tie_runs(order, joined, qb, g, cols):
    """Reorder, in place, each run of ``order``'s columns that ``joined``
    links by the per-pair distances from row ``qb[r]`` to ``g[cols]``,
    ties to the lower column, a bounded number of items at a time."""
    in_run = np.zeros(order.shape, dtype=bool)
    in_run[:, 1:] = joined
    in_run[:, :-1] |= joined
    tied = np.flatnonzero(in_run.any(axis=1))
    step = max(1, PAIR_CHUNK // cols.size)
    for lo in range(0, tied.size, step):
        sub = tied[lo:lo + step]
        r, at = np.nonzero(in_run[sub])
        j = order[sub[r], at]
        dist = _pair_distances(qb, sub[r], g, cols[j])
        order[sub[r], at] = j[np.lexsort((j, dist, r))]


def evaluate_retrieval(
    query_emb, gallery_emb, q_ids, q_cams, g_ids, g_cams, junk_filter=True,
) -> RetrievalResult:
    """Score AP and CMC at DEFAULT_RANKS, SCREEN_BLOCK queries at a time.

    The gallery is ranked by ascending Euclidean distance, ties broken by
    lower gallery index. A query's scores depend only on the ranks of its
    same-identity items among the kept (non-junk) gallery, so only the kept
    items no farther than its farthest such item need ranking. Per block of
    queries, one float32 GEMM over the whole gallery keeps every item the
    float64 screen could keep; one float64 GEMM over those candidates
    screens out the items that cannot be among them and orders the rest,
    and per-pair distances decide only between items whose GEMM forms lie
    within the proven rounding bound (``hybridreid.ranking``).
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
    tol = _screen_tolerance(q, g_sq)
    tol32 = _screen_tolerance(q, g_sq, prescreen=True)
    # the pre-screen's operands: [g, |g|^2] as a (D+1) x G float32 matrix,
    # and one block's products; entries past float32's range (tol32 is inf
    # there) become inf
    with np.errstate(over="ignore"):
        g32 = np.empty((g.shape[1] + 1, g.shape[0]), dtype=np.float32)
        g32[:-1] = g.T
        g32[-1] = g_sq
    t32_buffer = np.empty((min(SCREEN_BLOCK, q.shape[0]), g.shape[0]), dtype=np.float32)
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
        with np.errstate(over="ignore", invalid="ignore"):
            # The float32 pre-screen: [-2q, 1].[g, |g|^2] against a cut
            # tol32 past the farthest hit, rounded up to float32, keeps
            # every item the float64 screen below could keep.
            qb32 = np.ones((rows.size, g32.shape[0]), dtype=np.float32)
            qb32[:, :-1] = -2.0 * qb
            t32 = np.matmul(qb32, g32, out=t32_buffer[:rows.size])
            cut = np.maximum.reduceat(t32[hit_row, hit_item], first) + tol32[rows]
            cut32 = cut.astype(np.float32)
            np.nextafter(cut32, np.float32(np.inf), out=cut32, where=cut32 < cut)
            # not above the cut, so a NaN T keeps its item; negated in place,
            # as a second block x gallery mask raises the process's peak
            candidate = np.greater(t32, cut32[:, None])
            np.logical_not(candidate, out=candidate)
            candidate[row[junk], item[junk]] = False
            kept = np.flatnonzero(candidate.any(axis=0))
            # |g|^2 - 2 q.g: the squared distance less the query's own |q|^2.
            # Rows whose norms overflow give inf or NaN here, which the cut keeps.
            t = (-2.0 * qb) @ g[kept].T
            t += g_sq[kept]
            cut = np.maximum.reduceat(t[hit_row, np.searchsorted(kept, hit_item)],
                                      first) + tol[rows]
            # "not above" the cut: NaN (inf - inf) keeps an item, and once
            # (|q| + max|g|)^2 overflows, the tolerance is inf and keeps all
            screened = ~(t > cut[:, None])
            screened &= candidate[:, kept]  # junk stays out
            del candidate
            at = np.flatnonzero(screened.any(axis=0))
            t, screened, cols = t[:, at], screened[:, at], kept[at]
            # each row's survivors sorted by t, as int64 keys
            key = t.view(np.int64)
            key ^= (key >> 63) & _LOW_BITS
            key[~screened] = _LOW_BITS
            order = np.argsort(key, axis=1)
            key.sort(axis=1)
            key ^= (key >> 63) & _LOW_BITS
            # Neighbours more than tol apart are in distance order, so only
            # runs of survivors each within tol of the one before (a NaN gap
            # too, where tol is inf) need per-pair distances. Distances grow
            # from run to run, so sorting all of a row's run items by
            # (distance, column) reorders each run in place.
            joined = ~(np.diff(t, axis=1) > tol[rows, None])
        joined &= np.arange(1, cols.size) < np.count_nonzero(screened, axis=1)[:, None]
        del t, key
        _sort_tie_runs(order, joined, qb, g, cols)
        is_hit = np.zeros(order.shape, dtype=bool)
        is_hit[hit_row, np.searchsorted(cols, hit_item)] = True
        # each row's hits in rank order; the survivors sort first, so a
        # hit's position is its rank among the kept items
        hit_row, at = np.nonzero(np.take_along_axis(is_hit, order, axis=1))
        ranks = at + 1
        nth = np.arange(ranks.size) - first[hit_row]
        precision = np.zeros((rows.size, n_hits.max()))
        precision[hit_row, nth] = (nth + 1) / ranks
        # cumsum adds each row in rank order, as the per-query reference's
        # builtin sum does, and adding the zero padding is exact
        aps[rows] = np.cumsum(precision, axis=1)[:, -1] / n_hits
        first_hits[rows] = ranks[first]
        # free the block's arrays before the next block allocates its own
        del order, is_hit, screened, joined, precision
    scored = ~np.isnan(aps)
    if not scored.any():
        raise EvaluationError("no query has a relevant gallery item after filtering")
    first_hits = first_hits[scored]
    return RetrievalResult(
        average_precisions=aps,
        cmc={k: float(np.mean(first_hits <= k)) for k in DEFAULT_RANKS},
        map=float(np.nanmean(aps)),
    )
