import numpy as np
import pytest

from hybridreid import ConfigError, SynthSpec, generate, l2_normalize
from hybridreid.synthdata import _sample_prototypes


def small_spec(**kw):
    base = dict(num_identities=6, instances_per_identity=5, dims=12,
                num_cameras=3, sigma_within=0.03, sigma_cam=0.1,
                min_angle_deg=40.0, seed=5)
    base.update(kw)
    return SynthSpec(**base)


class TestGenerate:
    def test_split_sizes(self):
        spec = small_spec()
        train, query, gallery = generate(spec)
        assert train.features.shape == (6 * 5, 12)
        assert query.features.shape == (6 * 2, 12)
        assert gallery.features.shape == (6 * 3 * 2, 12)
        for fs in (train, query, gallery):
            assert fs.ids.shape == fs.cams.shape == (fs.features.shape[0],)

    def test_features_unit_norm_float32(self):
        for fs in generate(small_spec()):
            assert fs.features.dtype == np.float32
            norms = np.linalg.norm(fs.features.astype(np.float64), axis=1)
            assert np.all(np.abs(norms - 1.0) < 1e-5)

    def test_deterministic_bitwise(self):
        a = generate(small_spec())
        b = generate(small_spec())
        for split_a, split_b in zip(a, b):
            assert split_a.features.tobytes() == split_b.features.tobytes()
            assert split_a.ids.tolist() == split_b.ids.tolist()
            assert split_a.cams.tolist() == split_b.cams.tolist()

    def test_seed_changes_data(self):
        a = generate(small_spec(seed=1))[0]
        b = generate(small_spec(seed=2))[0]
        assert any(
            fa.tobytes() != fb.tobytes() for fa, fb in zip(a.features, b.features)
        )

    def test_every_identity_spans_cameras(self):
        train, query, gallery = generate(small_spec())
        for i in range(6):
            train_cams = set(train.cams[train.ids == i].tolist())
            gallery_cams = set(gallery.cams[gallery.ids == i].tolist())
            query_cams = set(query.cams[query.ids == i].tolist())
            assert len(train_cams) >= 2
            assert gallery_cams == {0, 1, 2}
            assert query_cams == {0, 1}

    def test_cross_camera_matches_survive_junk_filter(self):
        # every query keeps at least one same-id different-camera gallery
        # item, so the evaluator never has to skip a query
        _, query, gallery = generate(small_spec())
        for q_id, q_cam in zip(query.ids, query.cams):
            kept = (gallery.ids == q_id) & (gallery.cams != q_cam)
            assert kept.any()

    def test_min_angle_enforced_on_prototypes(self):
        # with both noise scales at zero the features ARE the prototypes
        spec = small_spec(sigma_within=0.0, sigma_cam=0.0,
                          num_identities=8, min_angle_deg=35.0)
        train, _, _ = generate(spec)
        protos = {}
        for identity, feature in zip(train.ids, train.features):
            protos[int(identity)] = feature.astype(np.float64)
        cos_limit = np.cos(np.deg2rad(35.0))
        for i in range(8):
            for j in range(i + 1, 8):
                # float32 round trip costs a hair of slack
                assert protos[i] @ protos[j] <= cos_limit + 1e-5

    def test_zero_noise_instances_identical(self):
        spec = small_spec(sigma_within=0.0, sigma_cam=0.0)
        train, _, _ = generate(spec)
        by_id = {}
        for identity, feature in zip(train.ids, train.features):
            by_id.setdefault(int(identity), set()).add(feature.tobytes())
        for blobs in by_id.values():
            assert len(blobs) == 1

    def test_camera_offsets_shared_within_identity(self):
        # sigma_within 0: all instances of (identity, camera) coincide
        spec = small_spec(sigma_within=0.0, sigma_cam=0.2)
        train, _, _ = generate(spec)
        groups = {}
        for identity, camera, feature in zip(train.ids, train.cams, train.features):
            groups.setdefault((int(identity), int(camera)), set()).add(
                feature.tobytes()
            )
        for blobs in groups.values():
            assert len(blobs) == 1

    def test_sigma_cam_spreads_cameras_apart(self):
        spec = small_spec(sigma_within=0.0, sigma_cam=0.3)
        train, _, _ = generate(spec)
        a = train.features[(train.ids == 0) & (train.cams == 0)][0]
        b = train.features[(train.ids == 0) & (train.cams == 1)][0]
        assert not np.array_equal(a, b)

    def test_matches_per_sample_draws(self):
        # one noise draw per sample, train then query then gallery, in
        # identity-major order: the order that fixes a seed's output bytes
        spec = small_spec()
        rng = np.random.default_rng(spec.seed)
        protos = _sample_prototypes(spec, rng)
        offsets = rng.standard_normal((6, 3, 12)) * spec.sigma_cam
        layouts = (
            [(i, j % 3) for i in range(6) for j in range(5)],
            [(i, c) for i in range(6) for c in range(2)],
            [(i, c) for i in range(6) for c in range(3) for _ in range(2)],
        )
        for fs, layout in zip(generate(spec), layouts):
            assert list(zip(fs.ids.tolist(), fs.cams.tolist())) == layout
            for row, (i, c) in zip(fs.features, layout):
                noise = rng.standard_normal(12) * spec.sigma_within
                want = l2_normalize(protos[i] + offsets[i, c] + noise)
                assert row.tobytes() == want.astype(np.float32).tobytes()


class TestValidation:
    def test_infeasible_angle_raises(self):
        # 40 directions pairwise >= 120 degrees apart cannot exist in R^3
        spec = small_spec(num_identities=40, dims=3, min_angle_deg=120.0)
        with pytest.raises(ConfigError):
            generate(spec)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(num_identities=0),
            dict(instances_per_identity=0),
            dict(dims=0),
            dict(num_cameras=1),
            dict(sigma_within=-0.1),
            dict(sigma_cam=-0.1),
            dict(min_angle_deg=-5.0),
            dict(min_angle_deg=180.0),
            dict(sigma_within=float("nan")),
            dict(sigma_cam=float("inf")),
            dict(seed=-1),
            dict(dims=2.5),
        ],
    )
    def test_bad_fields_rejected(self, kw):
        with pytest.raises(ConfigError):
            generate(small_spec(**kw))
