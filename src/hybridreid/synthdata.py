"""Synthetic retrieval dataset generator: identity clusters on the unit
sphere with camera-dependent shifts, split into train/query/gallery sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy imports it lazily: load it with this module

from .core import ConfigError, FeatureSet, _check_fields, l2_normalize

QUERY_CAMERAS = 2  # queries drawn from this many cameras per identity
GALLERY_PER_CAMERA = 2


@dataclass
class SynthSpec:
    """Parameters of the synthetic dataset.

    ``sigma_cam`` larger than ``sigma_within`` makes instances cluster by
    (identity, camera) rather than by identity alone, which is what gives
    hard positives (same identity, different camera) their bite.
    """

    num_identities: int = 50
    instances_per_identity: int = 20
    dims: int = 32
    num_cameras: int = 3
    sigma_within: float = 0.02
    sigma_cam: float = 0.08
    min_angle_deg: float = 45.0
    seed: int = 0

    def validate(self):
        _check_fields(self, _SPEC_RULES)


_SPEC_RULES = (
    (("num_identities", "instances_per_identity", "dims"), lambda v: v >= 1, ">= 1"),
    (("num_cameras",), lambda v: v >= 2,
     ">= 2 so each identity spans several cameras in the query/gallery split"),
    (("sigma_within", "sigma_cam"), lambda v: 0 <= v < np.inf, "finite and >= 0"),
    (("min_angle_deg",), lambda v: 0 <= v < 180, "in [0, 180)"),
    (("seed",), lambda v: v >= 0, ">= 0"),
)


def _sample_prototypes(spec: SynthSpec, rng) -> np.ndarray:
    """Identity prototypes on the sphere with a minimum pairwise angle,
    found by rejection sampling with bounded retries."""
    cos_limit = np.cos(np.deg2rad(spec.min_angle_deg))
    protos = np.zeros((spec.num_identities, spec.dims))
    accepted = 0
    attempts = 0
    max_attempts = 1000 * spec.num_identities
    while accepted < spec.num_identities:
        if attempts >= max_attempts:
            raise ConfigError(
                f"could not place {spec.num_identities} prototypes with "
                f"min_angle_deg={spec.min_angle_deg} in {spec.dims} dims "
                f"after {max_attempts} attempts"
            )
        attempts += 1
        cand = l2_normalize(rng.standard_normal(spec.dims))
        if accepted == 0 or np.max(protos[:accepted] @ cand) <= cos_limit:
            protos[accepted] = cand
            accepted += 1
    return protos


def generate(spec: SynthSpec):
    """Build (train, query, gallery) FeatureSets from a SynthSpec.

    Deterministic given the seed. Queries come from two cameras and the
    gallery covers every camera per identity, so junk filtering always
    leaves cross-camera matches.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    protos = _sample_prototypes(spec, rng)
    offsets = rng.standard_normal(
        (spec.num_identities, spec.num_cameras, spec.dims)
    ) * spec.sigma_cam

    def make(per_identity_cams):
        """Every identity once per entry of ``per_identity_cams``."""
        ids = np.repeat(np.arange(spec.num_identities), per_identity_cams.size)
        cams = np.tile(per_identity_cams, spec.num_identities)
        noise = rng.standard_normal((ids.size, spec.dims)) * spec.sigma_within
        feats = l2_normalize(protos[ids] + offsets[ids, cams] + noise)
        return FeatureSet(feats.astype(np.float32), ids, cams)

    cams = np.arange(spec.num_cameras)
    train = make(np.arange(spec.instances_per_identity) % spec.num_cameras)
    query = make(cams[:QUERY_CAMERAS])
    gallery = make(np.repeat(cams, GALLERY_PER_CAMERA))
    return train, query, gallery
