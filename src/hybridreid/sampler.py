"""Identity-balanced mini-batch construction over pseudo labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy imports it lazily: load it with this module

from .core import PseudoLabeling


@dataclass
class Batch:
    """Flat sample indices grouped by pseudo identity, with aligned labels.

    Holds ``n_id`` distinct cluster ids with ``n_inst`` entries each;
    indices may repeat when a cluster is smaller than ``n_inst``.
    """

    indices: np.ndarray
    cluster_ids: np.ndarray


def build_epoch_batches(labels: PseudoLabeling, n_id: int, n_inst: int, rng_seed):
    """One epoch of batches: shuffle cluster ids, group ``n_id`` at a time,
    draw ``n_inst`` members per cluster (without replacement when the
    cluster is large enough). Yields ``floor(C / n_id)`` batches; leftover
    clusters are dropped this epoch.
    """
    if n_id < 1 or n_inst < 1:
        raise ValueError(f"n_id and n_inst must be >= 1, got {n_id}, {n_inst}")
    c = labels.num_clusters
    if c < n_id:
        raise ValueError(f"need at least n_id={n_id} clusters, got {c}")
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(c)
    batches = []
    for start in range(0, c - n_id + 1, n_id):
        chosen = order[start : start + n_id]
        idx_blocks = []
        label_blocks = []
        for cid in chosen:
            members = labels.members[cid]
            draw = rng.choice(members, size=n_inst, replace=members.size < n_inst)
            idx_blocks.append(draw)
            label_blocks.append(np.full(n_inst, cid, dtype=np.int64))
        batches.append(
            Batch(
                indices=np.concatenate(idx_blocks),
                cluster_ids=np.concatenate(label_blocks),
            )
        )
    return batches
