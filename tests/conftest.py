import numpy as np
import pytest

from hybridreid import FeatureSet, l2_normalize


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_feature_set(rng, num_identities=5, per_identity=6, dims=8, cameras=2,
                     noise=0.05):
    """Small well-separated feature set for I/O and pipeline tests."""
    protos = l2_normalize(rng.standard_normal((num_identities, dims)))
    ids = np.repeat(np.arange(num_identities), per_identity)
    feats = l2_normalize(protos[ids] + noise * rng.standard_normal((ids.size, dims)))
    cams = np.tile(np.arange(per_identity) % cameras, num_identities)
    return FeatureSet(feats.astype(np.float32), ids, cams)
