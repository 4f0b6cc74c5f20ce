"""Contrastive losses over memory banks and their analytic gradients with
respect to the query embeddings, computed for a whole batch at once.

Gradients flow to the queries only; bank entries are fixed state, and hard
positive/negative selection is a stop-gradient operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .core import NumericError
from .memory import _checked_ids, hard_keys


@dataclass
class LossOutput:
    """Per-row loss values (B,) and their gradients w.r.t. the (unit-norm)
    B x D queries; row b's loss depends on query row b only."""

    values: np.ndarray
    grad: np.ndarray


def _softmax_rows(sims, positives, tau: float):
    """Row-wise ``-log softmax(sims / tau)[positive]`` and the softmax
    probabilities. Logits are max-shifted, so the values are finite and
    >= 0 even at small temperatures."""
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    logits = sims / tau
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite similarity logits")
    shift = logits.max(axis=1)
    exp = np.exp(logits - shift[:, None])
    total = exp.sum(axis=1)
    values = (shift - logits[np.arange(logits.shape[0]), positives]) + np.log(total)
    return values, exp / total[:, None]


def softmax_contrastive(queries, keys, positives, tau: float) -> LossOutput:
    """Softmax cross-entropy of each B x D query row over the logits
    ``<query_b, key_i> / tau``, with ``keys[positives[b]]`` as the positive.

    Gradient row b is ``(sum_i p_bi key_i - key_positive) / tau``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    positives = _checked_ids(positives, keys.shape[0])
    values, p = _softmax_rows(queries @ keys.T, positives, tau)
    return LossOutput(values, (p @ keys - keys[positives]) / tau)


def cluster_loss(batch, centroids, own_clusters, tau_c: float) -> LossOutput:
    """Contrastive loss of each batch row against all C x D cluster
    centroids; the row's own centroid is the positive."""
    return softmax_contrastive(batch, centroids, own_clusters, tau_c)


def hard_instance_loss(batch, slots, own_clusters, tau_ins: float) -> LossOutput:
    """Contrastive loss of each batch row over one hard key per cluster of
    the C x S x D slots.

    The positive is the own-cluster slot least similar to the row; every
    other cluster contributes its most similar slot as a negative. The
    logits are the similarities ``hard_keys`` already computed, and the
    gradient is one sparse (B x C*S) @ (C*S x D) product whose row b holds
    p_bc at each picked slot, minus 1 at the positive.
    """
    picks, sims = hard_keys(batch, slots, own_clusters)
    own = np.asarray(own_clusters, dtype=np.int64)
    values, p = _softmax_rows(sims, own, tau_ins)
    p[np.arange(p.shape[0]), own] -= 1.0
    c, s, d = slots.shape
    flat_slots = picks + s * np.arange(c)
    weights = csr_array((p.ravel(), flat_slots.ravel(), np.arange(0, p.size + 1, c)),
                        shape=(p.shape[0], c * s))
    return LossOutput(values, weights @ slots.reshape(c * s, d) / tau_ins)
