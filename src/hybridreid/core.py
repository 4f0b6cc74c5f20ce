"""Shared domain types, feature-file I/O and training configuration."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

FEATURE_MAGIC = b"HHCL"
FEATURE_VERSION = 1

# Cluster id given to samples DBSCAN leaves unassigned.
OUTLIER = -1


class HybridReidError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(HybridReidError, ValueError):
    """Invalid configuration or parameter usage."""


class FileFormatError(HybridReidError):
    """Feature/checkpoint file with bad magic, version or header."""


class FileIOError(HybridReidError):
    """Feature/checkpoint file truncated or otherwise unreadable."""


class NumericError(HybridReidError):
    """Non-finite values where finite ones are required."""


class ClusteringCollapseError(HybridReidError):
    """Clustering produced no clusters for several consecutive epochs."""


class EvaluationError(HybridReidError, ValueError):
    """Retrieval evaluation could not score a single query."""


@dataclass
class Sample:
    """One data point: raw input vector plus evaluation-only metadata.

    ``identity`` is ground truth and must only be consulted by the
    evaluator and the synthetic generator, never by training code.
    """

    feature: np.ndarray
    identity: int
    camera: int


@dataclass
class PseudoLabeling:
    """Per-sample cluster assignment produced by one clustering pass.

    ``assignment[i]`` is a cluster id in ``0..num_clusters-1`` or OUTLIER.
    """

    assignment: np.ndarray
    num_clusters: int

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)

    @property
    def num_samples(self) -> int:
        return int(self.assignment.shape[0])

    @property
    def num_outliers(self) -> int:
        return int(np.sum(self.assignment == OUTLIER))

    def non_outlier_indices(self) -> np.ndarray:
        return np.flatnonzero(self.assignment != OUTLIER)

    @cached_property
    def members(self) -> list:
        """Each cluster's sample indices in ascending order, from one stable
        argsort on first use (``assignment`` must not change afterwards)."""
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.searchsorted(self.assignment[order], np.arange(self.num_clusters + 1))
        return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def validate(self):
        a = self.assignment
        bad = (a != OUTLIER) & ((a < 0) | (a >= self.num_clusters))
        if np.any(bad):
            raise ValueError(f"assignment values out of range at {np.flatnonzero(bad)}")
        present = np.unique(a[a != OUTLIER])
        if present.size != self.num_clusters:
            missing = sorted(set(range(self.num_clusters)) - set(present.tolist()))
            raise ValueError(f"empty cluster ids: {missing}")
        if present.size == 0 and self.num_clusters != 0:
            raise ValueError("num_clusters > 0 but every sample is an outlier")


def l2_normalize(x, eps=1e-12):
    """Row-wise L2 normalization; eps inside the square root guards v=0."""
    x = np.asarray(x, dtype=np.float64)
    sq = np.sum(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(sq + eps)


def features_matrix(samples) -> np.ndarray:
    """Stack sample features into an N x D_in float64 matrix."""
    if not samples:
        return np.zeros((0, 0), dtype=np.float64)
    return np.stack([np.asarray(s.feature, dtype=np.float64) for s in samples])


def identities(samples) -> np.ndarray:
    return np.array([s.identity for s in samples], dtype=np.int64)


def cameras(samples) -> np.ndarray:
    return np.array([s.camera for s in samples], dtype=np.int64)


def _record_dtype(dims: int) -> np.dtype:
    return np.dtype(
        [("feature", "<f4", (dims,)), ("identity", "<i8"), ("camera", "<u4")]
    )


def save_features(samples, path):
    """Write samples in the binary feature-file format.

    Layout (little-endian): magic ``HHCL``, u32 version, u64 N, u32 D_in,
    then N records of ``D_in x f32 | i64 identity | u32 camera``.
    """
    n = len(samples)
    dims = 0
    if n > 0:
        dims = int(np.asarray(samples[0].feature).shape[-1])
        for i, s in enumerate(samples):
            f = np.asarray(s.feature)
            if f.ndim != 1 or f.shape[0] != dims:
                raise ValueError(
                    f"sample {i} has feature dim {f.shape}, expected ({dims},)"
                )
            if not np.all(np.isfinite(f)):
                raise NumericError(f"sample {i} has non-finite feature entries")
            if s.camera < 0:
                raise ValueError(f"sample {i} has negative camera id {s.camera}")
    header = (
        FEATURE_MAGIC
        + np.uint32(FEATURE_VERSION).tobytes()
        + np.uint64(n).tobytes()
        + np.uint32(dims).tobytes()
    )
    with open(path, "wb") as fh:
        fh.write(header)
        if n > 0:
            records = np.empty(n, dtype=_record_dtype(dims))
            for i, s in enumerate(samples):
                records[i] = (
                    np.asarray(s.feature, dtype=np.float32),
                    s.identity,
                    s.camera,
                )
            fh.write(records.tobytes())


def load_features(path):
    """Read a binary feature file back into a list of Sample."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20:
        raise FileIOError(f"{path}: file shorter than the 20-byte header")
    if blob[:4] != FEATURE_MAGIC:
        raise FileFormatError(f"{path}: bad magic {blob[:4]!r}")
    version = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
    if version != FEATURE_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    n = int(np.frombuffer(blob, dtype="<u8", count=1, offset=8)[0])
    dims = int(np.frombuffer(blob, dtype="<u4", count=1, offset=16)[0])
    payload = blob[20:]
    if n == 0:
        if payload:
            raise FileIOError(f"{path}: {len(payload)} trailing bytes after N=0")
        return []
    if dims == 0:
        raise FileFormatError(f"{path}: N={n} records with D_in=0")
    rec = _record_dtype(dims)
    expected = n * rec.itemsize
    if len(payload) < expected:
        raise FileIOError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    if len(payload) > expected:
        raise FileIOError(f"{path}: {len(payload) - expected} trailing bytes")
    records = np.frombuffer(payload, dtype=rec, count=n)
    feats = records["feature"]
    if not np.all(np.isfinite(feats)):
        raise NumericError(f"{path}: non-finite feature entries")
    return [
        Sample(
            feature=feats[i].copy(),
            identity=int(records["identity"][i]),
            camera=int(records["camera"][i]),
        )
        for i in range(n)
    ]


@dataclass
class TrainConfig:
    """Hyperparameters for the full training pipeline.

    JSON config files mirror these field names exactly.
    """

    mu: float = 0.5
    tau_c: float = 0.05
    tau_ins: float = 0.05
    alpha: float = 0.2
    num_identities_per_batch: int = 16
    instances_per_identity: int = 16
    slots_per_cluster: int = 16
    epochs: int = 50
    lr: float = 3.5e-4
    weight_decay: float = 5e-4
    lr_decay_every: int = 20
    lr_decay_factor: float = 0.1
    dbscan_eps: float = 0.45
    dbscan_min_pts: int = 4
    kreciprocal_k: int = 30
    # Weight of the raw Euclidean distance blended into the Jaccard distance
    # before DBSCAN; 0 keeps the pure Jaccard construction.
    jaccard_blend: float = 0.0
    seed: int = 0
    hidden_dims: tuple = (128, 64)

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        kwargs = dict(data)
        if "hidden_dims" in kwargs:
            kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config root must be a JSON object")
        return cls.from_dict(data)

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def validate_config(cfg: TrainConfig):
    """Raise ConfigError naming every violated field."""
    problems = []

    def unit_interval(name):
        v = getattr(cfg, name)
        if not (np.isfinite(v) and 0.0 <= v <= 1.0):
            problems.append(f"{name} must be in [0, 1], got {v}")

    def positive(name):
        v = getattr(cfg, name)
        if not (np.isfinite(v) and v > 0):
            problems.append(f"{name} must be > 0, got {v}")

    def positive_int(name):
        v = getattr(cfg, name)
        if not (isinstance(v, (int, np.integer)) and v >= 1):
            problems.append(f"{name} must be an integer >= 1, got {v}")

    unit_interval("mu")
    unit_interval("alpha")
    unit_interval("jaccard_blend")
    positive("tau_c")
    positive("tau_ins")
    positive("lr")
    positive("dbscan_eps")
    positive_int("num_identities_per_batch")
    positive_int("instances_per_identity")
    positive_int("slots_per_cluster")
    positive_int("epochs")
    positive_int("lr_decay_every")
    positive_int("dbscan_min_pts")
    positive_int("kreciprocal_k")
    if not (np.isfinite(cfg.weight_decay) and cfg.weight_decay >= 0):
        problems.append(f"weight_decay must be >= 0, got {cfg.weight_decay}")
    if not (np.isfinite(cfg.lr_decay_factor) and 0 < cfg.lr_decay_factor <= 1):
        problems.append(
            f"lr_decay_factor must be in (0, 1], got {cfg.lr_decay_factor}"
        )
    if not isinstance(cfg.seed, (int, np.integer)) or cfg.seed < 0:
        problems.append(f"seed must be a non-negative integer, got {cfg.seed}")
    if not cfg.hidden_dims or any(
        not isinstance(h, (int, np.integer)) or h < 1 for h in cfg.hidden_dims
    ):
        problems.append(f"hidden_dims must be positive integers, got {cfg.hidden_dims}")
    if problems:
        raise ConfigError("; ".join(problems))
