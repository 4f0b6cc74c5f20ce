import numpy as np
import pytest

from hybridreid import (
    ClusteringCollapseError,
    MLPEncoder,
    SynthSpec,
    TrainConfig,
    evaluate_retrieval,
    generate,
    train,
)
from hybridreid.trainer import embed_all

EVENT_ORDER = [
    "cluster_loss",
    "instance_loss",
    "optimizer_step",
    "cluster_bank_update",
    "instance_bank_update",
]


def easy_dataset(num_identities=6, instances=10, dims=12, seed=5):
    """(train, query, gallery) FeatureSets of a well-separated set."""
    spec = SynthSpec(
        num_identities=num_identities,
        instances_per_identity=instances,
        dims=dims,
        num_cameras=2,
        sigma_within=0.03,
        sigma_cam=0.05,
        min_angle_deg=40.0,
        seed=seed,
    )
    return generate(spec)


def small_config(**kw):
    base = dict(
        epochs=3,
        num_identities_per_batch=2,
        instances_per_identity=4,
        slots_per_cluster=4,
        kreciprocal_k=9,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def train_features(**kw):
    """The feature matrix of easy_dataset's training split."""
    return easy_dataset(**kw)[0].features


class TestEventOrdering:
    def test_per_iteration_order(self):
        feats = train_features()
        log = []
        train(feats, small_config(mu=0.5), event_log=log)
        assert log, "no events recorded"
        groups = {}
        for epoch, it, name in log:
            groups.setdefault((epoch, it), []).append(name)
        for names in groups.values():
            assert names == EVENT_ORDER

    def test_mu_zero_never_touches_cluster_loss(self):
        feats = train_features()
        log = []
        train(feats, small_config(mu=0.0), event_log=log)
        names = {name for _, _, name in log}
        assert "cluster_loss" not in names
        assert "instance_loss" in names

    def test_mu_one_never_touches_instance_loss(self):
        feats = train_features()
        log = []
        train(feats, small_config(mu=1.0), event_log=log)
        names = {name for _, _, name in log}
        assert "instance_loss" not in names
        assert "cluster_loss" in names

    def test_banks_updated_every_iteration_even_at_endpoints(self):
        feats = train_features()
        for mu in (0.0, 1.0):
            log = []
            train(feats, small_config(mu=mu), event_log=log)
            steps = [n for _, _, n in log if n == "optimizer_step"]
            cbank = [n for _, _, n in log if n == "cluster_bank_update"]
            ibank = [n for _, _, n in log if n == "instance_bank_update"]
            assert len(steps) == len(cbank) == len(ibank) > 0


class TestReports:
    def test_one_report_per_epoch(self):
        feats = train_features()
        _, _, reports = train(feats, small_config(epochs=4))
        assert [r.epoch for r in reports] == [0, 1, 2, 3]
        for r in reports:
            assert r.seconds >= 0.0
            assert r.num_clusters > 0
            assert np.isfinite(r.loss)

    def test_loss_is_mu_blend_of_parts(self):
        feats = train_features()
        mu = 0.3
        _, _, reports = train(feats, small_config(mu=mu))
        for r in reports:
            assert abs(r.loss - (mu * r.loss_cls + (1 - mu) * r.loss_ins)) < 1e-12

    def test_unused_branch_reports_zero(self):
        feats = train_features()
        _, _, reports = train(feats, small_config(mu=1.0))
        assert all(r.loss_ins == 0.0 for r in reports)
        _, _, reports = train(feats, small_config(mu=0.0))
        assert all(r.loss_cls == 0.0 for r in reports)


class TestEpochSkip:
    def test_too_few_clusters_skips_training(self):
        feats = train_features(num_identities=3)
        log = []
        _, _, reports = train(
            feats, small_config(num_identities_per_batch=10), event_log=log
        )
        assert log == []
        assert len(reports) == 3
        for r in reports:
            assert r.loss == 0.0
            assert 0 < r.num_clusters < 10

    def test_collapse_aborts_after_three_empty_epochs(self, rng):
        feats = train_features()
        cfg = small_config(
            epochs=10, dbscan_eps=1e-6, dbscan_min_pts=50, kreciprocal_k=5
        )
        with pytest.raises(ClusteringCollapseError):
            train(feats, cfg)

    def test_model_params_untouched_on_skipped_epochs(self):
        feats = train_features(num_identities=3)
        model = MLPEncoder([12, 16, 8], seed=1)
        before = [p.copy() for p in model.parameters()]
        train(feats, small_config(num_identities_per_batch=10), model=model)
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p, b)


class TestIdentityWall:
    def test_training_never_reads_labels(self):
        fs, _, _ = easy_dataset()
        # labels cannot reach training: it takes the feature matrix alone
        with pytest.raises(TypeError):
            train(fs, small_config())
        _, _, reports = train(fs.features, small_config())
        assert reports[-1].num_clusters > 0


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        feats = train_features()
        cfg = small_config(seed=7)
        m1, _, r1 = train(feats, cfg)
        m2, _, r2 = train(feats, cfg)
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert a.tobytes() == b.tobytes()
        for x, y in zip(r1, r2):
            assert (x.loss, x.loss_cls, x.loss_ins) == (y.loss, y.loss_cls, y.loss_ins)
            assert (x.num_clusters, x.num_outliers) == (y.num_clusters, y.num_outliers)

    def test_different_seed_differs(self):
        feats = train_features()
        m1, _, _ = train(feats, small_config(seed=1))
        m2, _, _ = train(feats, small_config(seed=2))
        assert any(
            a.tobytes() != b.tobytes()
            for a, b in zip(m1.parameters(), m2.parameters())
        )


class TestEndToEnd:
    def test_two_separated_identities_reach_perfect_map(self):
        train_s, query_s, gallery_s = easy_dataset(
            num_identities=2, instances=12, seed=3
        )
        cfg = small_config(
            epochs=10,
            num_identities_per_batch=2,
            instances_per_identity=6,
            slots_per_cluster=6,
            kreciprocal_k=11,
        )
        model, _, reports = train(train_s.features, cfg)
        assert reports[-1].num_clusters == 2
        res = evaluate_retrieval(
            embed_all(model, query_s.features),
            embed_all(model, gallery_s.features),
            query_s.ids,
            query_s.cams,
            gallery_s.ids,
            gallery_s.cams,
        )
        assert res.map == 1.0
        assert res.cmc[1] == 1.0

    def test_existing_model_is_trained_in_place(self):
        feats = train_features()
        model = MLPEncoder([12, 16, 8], seed=1)
        before = [p.copy() for p in model.parameters()]
        out_model, _, _ = train(feats, small_config(), model=model)
        assert out_model is model
        assert any(
            not np.array_equal(p, b)
            for p, b in zip(model.parameters(), before)
        )

    def test_dim_mismatch_rejected(self):
        feats = train_features()
        model = MLPEncoder([5, 4], seed=0)
        with pytest.raises(ValueError):
            train(feats, small_config(), model=model)

    def test_needs_two_samples(self):
        feats = train_features()
        with pytest.raises(ValueError):
            train(feats[:1], small_config())


class TestEmbedAll:
    def test_chunking_matches_single_pass(self, rng):
        model = MLPEncoder([6, 8, 4], seed=0)
        feats = rng.standard_normal((23, 6))
        a = embed_all(model, feats, chunk_size=7)
        b = embed_all(model, feats, chunk_size=512)
        assert np.allclose(a, b, atol=1e-12)
