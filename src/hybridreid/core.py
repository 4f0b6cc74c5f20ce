"""Shared domain types, feature-file I/O and training configuration."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass
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
    """The first epoch's labeling formed fewer clusters than a batch needs,
    so no epoch trained."""


class EvaluationError(HybridReidError, ValueError):
    """Retrieval evaluation could not score a single query."""


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """The contents of a feature file: an N x D_in float32 ``features``
    matrix and the identity (``ids``) and camera (``cams``) of each row.

    ``ids`` is ground truth and must only be consulted by the evaluator and
    the synthetic generator; training code takes ``features`` alone.
    """

    features: np.ndarray
    ids: np.ndarray
    cams: np.ndarray

    def __post_init__(self):
        # no-op conversions for the arrays load_features hands over
        features = np.asarray(self.features, dtype=np.float32)
        ids = np.asarray(self.ids, dtype=np.int64)
        cams = np.asarray(self.cams)
        if features.ndim != 2:
            raise ValueError(f"features must be N x D, got shape {features.shape}")
        n = features.shape[0]
        if ids.shape != (n,) or cams.shape != (n,):
            raise ValueError(
                f"ids {ids.shape} and cams {cams.shape} must both have shape ({n},)"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "cams", cams)


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
        counts = np.bincount(a[a != OUTLIER], minlength=self.num_clusters)
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            raise ValueError(f"empty cluster ids: {missing.tolist()}")


@contextlib.contextmanager
def _atomic_open(path, mode="w", **kwargs):
    """Open a new temporary file beside ``path`` for writing, and move it
    over ``path`` once the block completes: ``path`` holds either its old
    bytes or all of the new ones, and no temporary file outlives the block."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def l2_normalize(x, eps=1e-12):
    """Row-wise L2 normalization; eps inside the square root guards v=0."""
    x = np.asarray(x, dtype=np.float64)
    sq = np.sum(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(sq + eps)


# The header both binary formats open with (little-endian, 20 bytes): a
# format's magic and version, then a u64 count and a u32 width whose
# meaning each format gives.
_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("count", "<u8"), ("width", "<u4")])


def _write_binary(path, magic, version, count, width, *arrays):
    """Atomically write the header and then each array's bytes,
    little-endian and in C order."""
    with _atomic_open(path, "wb") as fh:
        fh.write(np.array((magic, version, count, width), dtype=_HEADER))
        for a in map(np.asarray, arrays):
            fh.write(np.ascontiguousarray(a, a.dtype.newbyteorder("<")))


def _check_size(path, blob, start, size, exact=True):
    """Raise FileIOError unless ``blob`` holds ``size`` bytes from offset
    ``start`` on and, if ``exact``, nothing after them."""
    have = len(blob) - start
    if have < size:
        raise FileIOError(f"{path}: truncated: {have} bytes at offset {start}, need {size}")
    if exact and have > size:
        raise FileIOError(f"{path}: {have - size} trailing bytes")


def _read_binary(path, magic, version):
    """Read a whole binary file and check its header; returns (count,
    width, the file's bytes)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _check_size(path, blob, 0, _HEADER.itemsize, exact=False)
    # compared raw: the S4 field would strip trailing NULs
    if blob[:4] != magic:
        raise FileFormatError(f"{path}: bad magic {blob[:4]!r}")
    header = np.frombuffer(blob, _HEADER, count=1)[0]
    if header["version"] != version:
        raise FileFormatError(f"{path}: unsupported version {header['version']}")
    return int(header["count"]), int(header["width"]), blob


def _record_dtype(dims: int) -> np.dtype:
    return np.dtype([("feature", "<f4", (dims,)), ("identity", "<i8"), ("camera", "<u4")])


def save_features(fs: FeatureSet, path):
    """Write a FeatureSet in the binary feature-file format.

    Layout (little-endian): the shared header with magic ``HHCL``, u32
    version, u64 N and u32 D_in, then N records of
    ``D_in x f32 | i64 identity | u32 camera``.
    """
    n, dims = fs.features.shape
    bad = np.flatnonzero(~np.isfinite(fs.features).all(axis=1))
    if bad.size:
        raise NumericError(f"sample {bad[0]} has non-finite feature entries")
    with np.errstate(invalid="ignore"):
        cams = fs.cams.astype("<u4")
    bad = np.flatnonzero(cams != fs.cams)
    if bad.size:
        raise ValueError(f"sample {bad[0]} has camera id {fs.cams[bad[0]]}, not a u32")
    records = np.empty(n, dtype=_record_dtype(dims))
    records["feature"] = fs.features
    records["identity"] = fs.ids
    records["camera"] = cams
    _write_binary(path, FEATURE_MAGIC, FEATURE_VERSION, n, dims, records)


def load_features(path) -> FeatureSet:
    """Read a binary feature file as a FeatureSet of read-only views into
    the file's bytes."""
    n, dims, blob = _read_binary(path, FEATURE_MAGIC, FEATURE_VERSION)
    if n > 0 and dims == 0:
        raise FileFormatError(f"{path}: N={n} records with D_in=0")
    # the record's itemsize, checked before numpy is asked to describe it
    _check_size(path, blob, _HEADER.itemsize, n * (4 * dims + 12))
    try:
        rec = _record_dtype(dims)
    except ValueError as exc:
        raise FileFormatError(f"{path}: D_in={dims} records are too wide to read") from exc
    records = np.frombuffer(blob, dtype=rec, count=n, offset=_HEADER.itemsize)
    if not np.all(np.isfinite(records["feature"])):
        raise NumericError(f"{path}: non-finite feature entries")
    return FeatureSet(records["feature"], records["identity"], records["camera"])


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
    seed: int = 0
    hidden_dims: tuple = (128, 64)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("hidden_dims"), list):
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


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _has_field_type(value, kind) -> bool:
    """Whether ``value`` suits a dataclass field whose default has type
    ``kind``: int fields take non-bool integers, float fields also floats,
    and a tuple field a list or tuple of integers."""
    if kind is tuple:
        return isinstance(value, (tuple, list)) and all(map(_is_int, value))
    if kind is float and isinstance(value, (float, np.floating)):
        return True
    return _is_int(value)


_TYPE_NAMES = {int: "an integer", float: "a number", tuple: "a list of integers"}


def _check_fields(obj, rules):
    """Raise ConfigError naming every field of the dataclass ``obj`` whose
    value does not suit its default's type, or breaks one of ``rules``,
    each a (field names, predicate, description) triple. A field's rules
    are checked only once its type is right."""
    problems = []
    typed = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if _has_field_type(value, type(f.default)):
            typed[f.name] = value
        else:
            problems.append(f"{f.name} must be {_TYPE_NAMES[type(f.default)]}, got {value!r}")
    for names, ok, rule in rules:
        for name in names:
            if name in typed and not ok(typed[name]):
                problems.append(f"{name} must be {rule}, got {typed[name]}")
    if problems:
        raise ConfigError("; ".join(problems))


_CONFIG_RULES = (
    (("mu", "alpha"), lambda v: 0 <= v <= 1, "in [0, 1]"),
    (("tau_c", "tau_ins", "lr"), lambda v: 0 < v < np.inf, "> 0"),
    (("num_identities_per_batch", "instances_per_identity", "slots_per_cluster",
      "epochs", "lr_decay_every", "dbscan_min_pts", "kreciprocal_k"),
     lambda v: v >= 1, ">= 1"),
    # Jaccard distances are at most 1, and pairs at distance 1 are not stored.
    (("dbscan_eps",), lambda v: 0 < v < 1, "in (0, 1)"),
    (("weight_decay",), lambda v: 0 <= v < np.inf, ">= 0"),
    (("lr_decay_factor",), lambda v: 0 < v <= 1, "in (0, 1]"),
    (("seed",), lambda v: v >= 0, ">= 0"),
    (("hidden_dims",), lambda v: len(v) > 0 and min(v) >= 1, "positive integers"),
)


def _max_clusters(num_samples: int, min_pts: int) -> int:
    """The most clusters ``dbscan`` can form over ``num_samples`` points.

    Pick one core per cluster. A cluster is a whole component of the
    cores joined within eps, so cores of two clusters are never within eps
    of each other, and each picked core has at least ``min_pts`` neighbors
    among the other N - C points. Such a neighbor is within eps of at most
    one picked core if it is a core itself, and of at most min_pts - 1 if
    it is not. With r = max(1, min_pts - 1), min_pts C <= r (N - C), so
    C <= r N / (min_pts + r). That is N / (min_pts + 1) for min_pts <= 2;
    above that a cluster can be smaller than min_pts + 1 points, as a core
    whose neighbors all border lower-numbered clusters forms one of its own.
    """
    r = max(1, min_pts - 1)
    return num_samples * r // (min_pts + r)


def _labeling_rule(num_samples: int):
    """Labeling's one bound: k-reciprocal sets need more than k samples."""
    return ("kreciprocal_k",), lambda k: k < num_samples, f"< {num_samples} samples"


def validate_config(cfg: TrainConfig, num_samples: int = None):
    """Raise ConfigError naming every violated field; given ``num_samples``
    and otherwise valid fields, also require ``kreciprocal_k`` below it, no
    more identities per batch than clusters DBSCAN can form and no more
    instances per identity than samples, so that a config that could never
    train, or whose batches could not fit in memory, fails before any
    compute."""
    _check_fields(cfg, _CONFIG_RULES)
    if num_samples is None:
        return
    most = _max_clusters(num_samples, cfg.dbscan_min_pts)
    _check_fields(cfg, (_labeling_rule(num_samples), (
        ("num_identities_per_batch",), lambda v: v <= most,
        f"<= {most}, the most clusters {num_samples} samples form at "
        f"dbscan_min_pts={cfg.dbscan_min_pts}"), (
        ("instances_per_identity",), lambda v: v <= num_samples,
        f"<= {num_samples} samples")))
