"""Training loop: embed, pseudo-label, refresh memory banks, then run
hybrid-loss batches with Adam updates.  Banks are rebuilt from scratch
every epoch; outliers never enter banks or batches."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .clustering import pseudo_label
from .core import ClusteringCollapseError, TrainConfig, features_matrix, validate_config
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

MAX_EMPTY_EPOCHS = 3
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


def embed_all(model: MLPEncoder, samples, chunk_size: int = EMBED_CHUNK) -> np.ndarray:
    """Embed every sample in fixed-size chunks; returns (N, D) float64."""
    if isinstance(samples, np.ndarray):
        feats = np.ascontiguousarray(samples, dtype=np.float64)
    else:
        feats = features_matrix(samples)
    out = np.empty((feats.shape[0], model.widths[-1]))
    for start in range(0, feats.shape[0], chunk_size):
        stop = min(start + chunk_size, feats.shape[0])
        emb, _ = model.forward(feats[start:stop])
        out[start:stop] = emb
    return out


def _log(event_log, epoch, iteration, name):
    if event_log is not None:
        event_log.append((epoch, iteration, name))


def train(samples, cfg: TrainConfig, model: MLPEncoder = None, event_log=None):
    """Run the full schedule on ``samples``; returns (model, opt, reports).

    ``event_log``, when given a list, records (epoch, iteration, name)
    tuples for the loss reads, optimizer step and bank writes of every
    batch, in execution order.
    """
    feats = features_matrix(samples)
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
    empty_streak = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        emb = embed_all(model, feats)
        labels = pseudo_label(emb, cfg.kreciprocal_k, cfg.dbscan_eps, cfg.dbscan_min_pts)
        num_c = labels.num_clusters
        if num_c == 0:
            empty_streak += 1
            logger.warning("epoch %d: clustering found no clusters", epoch)
            if empty_streak >= MAX_EMPTY_EPOCHS:
                raise ClusteringCollapseError(
                    f"no clusters for {empty_streak} consecutive epochs "
                    f"(eps={cfg.dbscan_eps}, min_pts={cfg.dbscan_min_pts}, "
                    f"n={n}); loosen eps/min_pts or lower kreciprocal_k"
                )
        else:
            empty_streak = 0
        if num_c < cfg.num_identities_per_batch:
            logger.warning(
                "epoch %d: %d clusters < %d identities per batch, skipping",
                epoch,
                num_c,
                cfg.num_identities_per_batch,
            )
            reports.append(
                EpochReport(
                    epoch=epoch,
                    num_clusters=num_c,
                    num_outliers=labels.num_outliers,
                    loss=0.0,
                    loss_cls=0.0,
                    loss_ins=0.0,
                    seconds=time.perf_counter() - t0,
                )
            )
            continue
        cluster_bank = init_cluster_bank(emb, labels, alpha=cfg.alpha)
        instance_bank = init_instance_bank(
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
        for it, batch in enumerate(batches):
            emb_b, cache = model.forward(feats[batch.indices])
            batch_size = batch.indices.size
            grad_emb = np.zeros_like(emb_b)
            if cfg.mu > 0.0:
                _log(event_log, epoch, it, "cluster_loss")
                out = cluster_loss(emb_b, cluster_bank, batch.cluster_ids, cfg.tau_c)
                sum_cls += float(out.values.mean())
                grad_emb += (cfg.mu / batch_size) * out.grad
            if cfg.mu < 1.0:
                _log(event_log, epoch, it, "instance_loss")
                out = hard_instance_loss(emb_b, instance_bank, batch.cluster_ids,
                                         cfg.tau_ins)
                sum_ins += float(out.values.mean())
                grad_emb += ((1.0 - cfg.mu) / batch_size) * out.grad
            grads = model.backward(cache, grad_emb)
            _log(event_log, epoch, it, "optimizer_step")
            adam_step(model, grads, opt)
            _log(event_log, epoch, it, "cluster_bank_update")
            update_cluster_bank(cluster_bank, emb_b, batch.cluster_ids)
            _log(event_log, epoch, it, "instance_bank_update")
            update_instance_bank(instance_bank, emb_b, batch.cluster_ids)
        num_batches = max(len(batches), 1)
        mean_cls = sum_cls / num_batches
        mean_ins = sum_ins / num_batches
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
