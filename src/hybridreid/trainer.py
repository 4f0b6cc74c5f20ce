"""Training loop: embed, pseudo-label, refresh memory banks, then run
hybrid-loss batches with Adam updates.  Banks are rebuilt from scratch
every epoch; outliers never enter banks or batches."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np
import numpy.ma  # np.unique reads np.ma, which numpy imports lazily: load it here

from .clustering import pseudo_label
from .core import ClusteringCollapseError, TrainConfig, validate_config
from .encoder import AdamState, MLPEncoder, adam_step
from .loss import cluster_loss, hard_instance_loss
from .memory import (
    init_cluster_bank,
    init_instance_bank,
    update_cluster_bank,
    update_instance_bank,
)
from .sampler import build_epoch_batches

logger = logging.getLogger(__name__)

EMBED_CHUNK = 512

# rng stream ids, combined with (seed, epoch) so streams never collide
STREAM_INSTANCE_BANK = 1
STREAM_SAMPLER = 2


@dataclass
class EpochReport:
    """Per-epoch summary row, mirrored into the metrics CSV."""

    epoch: int
    num_clusters: int
    num_outliers: int
    loss: float
    loss_cls: float
    loss_ins: float
    seconds: float


def embed_all(model: MLPEncoder, features) -> np.ndarray:
    """Embed the rows of an N x D_in feature matrix EMBED_CHUNK rows at a
    time; returns (N, D) float64."""
    feats = np.ascontiguousarray(features, dtype=np.float64)
    out = np.empty((feats.shape[0], model.widths[-1]))
    for start in range(0, feats.shape[0], EMBED_CHUNK):
        emb, _ = model.forward(feats[start:start + EMBED_CHUNK])
        out[start:start + EMBED_CHUNK] = emb
    return out


def _batch_step(model, opt, feats, batch, centroids, slots, cfg):
    """One Adam step and both bank updates on a batch; returns its mean
    cluster and instance losses over the drawn rows (0.0 for a loss mu
    leaves out).

    A sample drawn k times is embedded and scored once, its gradient row
    weighted by k: every copy has the same loss and gradient, and backward
    is linear in the embedding gradient, so this is the gradient of the
    mean over all drawn rows. The distinct rows keep their order of first
    appearance, so a batch without repeats runs the per-row arithmetic
    exactly. The banks still take every drawn row, in batch order.
    """
    _, first, inverse, counts = np.unique(batch.indices, return_index=True,
                                          return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rows = first[order]
    drawn = np.argsort(order)[inverse]
    emb_u, cache = model.forward(feats[batch.indices[rows]])
    own = batch.cluster_ids[rows]
    batch_size = batch.indices.size
    grad_emb = np.zeros_like(emb_u)
    loss_cls = loss_ins = 0.0
    if cfg.mu > 0.0:
        out = cluster_loss(emb_u, centroids, own, cfg.tau_c)
        loss_cls = float(out.values[drawn].mean())
        grad_emb += (cfg.mu / batch_size) * out.grad
    if cfg.mu < 1.0:
        out = hard_instance_loss(emb_u, slots, own, cfg.tau_ins)
        loss_ins = float(out.values[drawn].mean())
        grad_emb += ((1.0 - cfg.mu) / batch_size) * out.grad
    grad_emb *= counts[order, None]
    adam_step(model, model.backward(cache, grad_emb), opt)
    emb_b = emb_u[drawn]
    update_cluster_bank(centroids, emb_b, batch.cluster_ids, cfg.alpha)
    update_instance_bank(slots, emb_b, batch.cluster_ids)
    return loss_cls, loss_ins


def train(features, cfg: TrainConfig, model: MLPEncoder = None):
    """Run the schedule on an N x D_in feature matrix; returns (model, opt,
    reports), one report per trained epoch. Training sees no identity or
    camera labels.

    Training stops at the first epoch that forms fewer clusters than
    ``cfg.num_identities_per_batch``: it could run no step, so every later
    epoch would label the same unchanged model the same way. If no epoch
    has trained, that raises ``ClusteringCollapseError``; otherwise it logs
    one WARNING.
    """
    feats = np.ascontiguousarray(features, dtype=np.float64)
    n, d_in = feats.shape
    validate_config(cfg, num_samples=n)
    if model is None:
        model = MLPEncoder([d_in, *cfg.hidden_dims], seed=cfg.seed)
    if model.widths[0] != d_in:
        raise ValueError(
            f"model expects {model.widths[0]}-dim input, features have {d_in}"
        )
    opt = AdamState.for_model(
        model,
        base_lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        decay_factor=cfg.lr_decay_factor,
        decay_every=cfg.lr_decay_every,
    )
    reports = []
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        emb = embed_all(model, feats)
        labels = pseudo_label(emb, cfg.kreciprocal_k, cfg.dbscan_eps, cfg.dbscan_min_pts)
        num_c = labels.num_clusters
        if num_c < cfg.num_identities_per_batch:
            if not reports:
                raise ClusteringCollapseError(
                    f"no epoch trained: epoch 0 formed {num_c} clusters and "
                    f"{labels.num_outliers} outliers of n={n} samples, fewer than "
                    f"num_identities_per_batch={cfg.num_identities_per_batch}; "
                    f"loosen eps/min_pts or lower num_identities_per_batch"
                )
            logger.warning(
                "epoch %d: %d clusters < %d identities per batch; "
                "stopping after %d trained epochs",
                epoch,
                num_c,
                cfg.num_identities_per_batch,
                len(reports),
            )
            break
        centroids = init_cluster_bank(emb, labels)
        slots = init_instance_bank(
            emb,
            labels,
            slots=cfg.slots_per_cluster,
            rng_seed=[cfg.seed, epoch, STREAM_INSTANCE_BANK],
        )
        batches = build_epoch_batches(
            labels,
            n_id=cfg.num_identities_per_batch,
            n_inst=cfg.instances_per_identity,
            rng_seed=[cfg.seed, epoch, STREAM_SAMPLER],
        )
        opt.epoch = epoch
        sum_cls = 0.0
        sum_ins = 0.0
        for batch in batches:
            loss_cls, loss_ins = _batch_step(model, opt, feats, batch, centroids,
                                             slots, cfg)
            sum_cls += loss_cls
            sum_ins += loss_ins
        mean_cls = sum_cls / len(batches)
        mean_ins = sum_ins / len(batches)
        reports.append(
            EpochReport(
                epoch=epoch,
                num_clusters=num_c,
                num_outliers=labels.num_outliers,
                loss=cfg.mu * mean_cls + (1.0 - cfg.mu) * mean_ins,
                loss_cls=mean_cls,
                loss_ins=mean_ins,
                seconds=time.perf_counter() - t0,
            )
        )
        logger.info(
            "epoch %d: C=%d outliers=%d loss=%.4f",
            epoch,
            num_c,
            labels.num_outliers,
            reports[-1].loss,
        )
    return model, opt, reports
