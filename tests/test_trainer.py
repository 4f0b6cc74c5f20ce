import copy
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridreid import (
    AdamState,
    ClusteringCollapseError,
    ConfigError,
    MLPEncoder,
    PseudoLabeling,
    SynthSpec,
    TrainConfig,
    build_epoch_batches,
    evaluate_retrieval,
    generate,
    init_cluster_bank,
    init_instance_bank,
    pseudo_label,
    train,
    validate_config,
)
from hybridreid import trainer
from hybridreid.encoder import ADAM_BETAS, ADAM_EPS
from hybridreid.trainer import embed_all

from oracles import ref_batch_step

EVENT_ORDER = [
    "cluster_loss",
    "instance_loss",
    "optimizer_step",
    "cluster_bank_update",
    "instance_bank_update",
]

# the names hybridreid.trainer imports that step_log records, in EVENT_ORDER
RECORDED = dict(zip(
    ["cluster_loss", "hard_instance_loss", "adam_step", "update_cluster_bank",
     "update_instance_bank"],
    EVENT_ORDER,
))


@pytest.fixture
def step_log(monkeypatch):
    """A list of (epoch, iteration, name) for each loss read, optimizer step
    and bank write ``train`` makes, in call order, recorded by wrapping the
    names the trainer calls. Each ``pseudo_label`` call starts an epoch and
    each instance-bank write ends an iteration."""
    log = []
    at = {"epoch": -1, "iteration": 0}

    def start_epoch(*args, **kwargs):
        at["epoch"] += 1
        at["iteration"] = 0
        return pseudo_label(*args, **kwargs)

    def recorder(fn, name):
        def wrapped(*args, **kwargs):
            log.append((at["epoch"], at["iteration"], name))
            if name == EVENT_ORDER[-1]:
                at["iteration"] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(trainer, "pseudo_label", start_epoch)
    for attr, name in RECORDED.items():
        monkeypatch.setattr(trainer, attr, recorder(getattr(trainer, attr), name))
    return log


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
    def test_per_iteration_order(self, step_log):
        feats = train_features()
        train(feats, small_config(mu=0.5))
        assert step_log, "no events recorded"
        groups = {}
        for epoch, it, name in step_log:
            groups.setdefault((epoch, it), []).append(name)
        for names in groups.values():
            assert names == EVENT_ORDER

    def test_mu_zero_never_touches_cluster_loss(self, step_log):
        feats = train_features()
        train(feats, small_config(mu=0.0))
        names = {name for _, _, name in step_log}
        assert "cluster_loss" not in names
        assert "instance_loss" in names

    def test_mu_one_never_touches_instance_loss(self, step_log):
        feats = train_features()
        train(feats, small_config(mu=1.0))
        names = {name for _, _, name in step_log}
        assert "instance_loss" not in names
        assert "cluster_loss" in names

    def test_banks_updated_every_iteration_even_at_endpoints(self, step_log):
        feats = train_features()
        for mu in (0.0, 1.0):
            step_log.clear()
            train(feats, small_config(mu=mu))
            steps = [n for _, _, n in step_log if n == "optimizer_step"]
            cbank = [n for _, _, n in step_log if n == "cluster_bank_update"]
            ibank = [n for _, _, n in step_log if n == "instance_bank_update"]
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
    def test_too_few_clusters_skips_training(self, step_log):
        feats = train_features(num_identities=3)
        _, _, reports = train(feats, small_config(num_identities_per_batch=10))
        assert step_log == []
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

    def test_more_instances_per_identity_than_samples_rejected_before_compute(
            self, step_log):
        feats = train_features()
        validate_config(small_config(instances_per_identity=60), num_samples=60)
        with pytest.raises(ConfigError, match="instances_per_identity must be <= 60"):
            train(feats, small_config(instances_per_identity=61))
        assert step_log == []

    def test_batch_larger_than_any_labeling_rejected_before_compute(self, step_log):
        # 60 samples form at most 25 clusters at dbscan_min_pts=4
        feats = train_features()
        model = MLPEncoder([12, 16, 8], seed=1)
        before = [p.copy() for p in model.parameters()]
        with pytest.raises(ConfigError, match="num_identities_per_batch"):
            train(feats, small_config(num_identities_per_batch=26), model=model)
        assert step_log == []
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p, b)


class TestLogging:
    def test_one_info_record_per_epoch(self, caplog):
        caplog.set_level(logging.INFO, logger="hybridreid.trainer")
        train(train_features(), small_config(epochs=2))
        records = [r for r in caplog.records if r.name == "hybridreid.trainer"]
        assert [r.levelno for r in records] == [logging.INFO] * 2
        assert [r.getMessage().split(":")[0] for r in records] == ["epoch 0", "epoch 1"]

    def test_one_warning_per_skipped_epoch(self, caplog):
        caplog.set_level(logging.INFO, logger="hybridreid.trainer")
        feats = train_features(num_identities=3)
        train(feats, small_config(num_identities_per_batch=10))
        records = [r for r in caplog.records if r.name == "hybridreid.trainer"]
        warnings = [r.getMessage() for r in records if r.levelno == logging.WARNING]
        infos = [r.getMessage() for r in records if r.levelno == logging.INFO]
        assert len(records) == len(warnings) + len(infos) == 6
        for epoch in range(3):
            assert warnings[epoch].startswith(f"epoch {epoch}: ")
            assert warnings[epoch].endswith("skipping")
            assert infos[epoch].startswith(f"epoch {epoch}: ")


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


def epoch_state(sizes, n_id, n_inst, mu=0.5, seed=0):
    """(feats, batches, cfg, state) for one epoch over clusters of the given
    sizes, whose members are shuffled among the samples; ``state`` is the
    (model, opt, cluster bank, instance bank) that batch steps change."""
    rng = np.random.default_rng(seed)
    assignment = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    labels = PseudoLabeling(assignment, len(sizes))
    feats = rng.standard_normal((assignment.size, 6))
    cfg = TrainConfig(mu=mu, num_identities_per_batch=n_id,
                      instances_per_identity=n_inst, slots_per_cluster=4, seed=seed)
    model = MLPEncoder([6, 8, 5], seed=seed)
    emb = embed_all(model, feats)
    state = (
        model,
        AdamState.for_model(model, cfg.lr, cfg.weight_decay),
        init_cluster_bank(emb, labels, alpha=cfg.alpha),
        init_instance_bank(emb, labels, slots=cfg.slots_per_cluster,
                           rng_seed=[seed, 0, trainer.STREAM_INSTANCE_BANK]),
    )
    batches = build_epoch_batches(labels, n_id, n_inst,
                                  rng_seed=[seed, 0, trainer.STREAM_SAMPLER])
    return feats, batches, cfg, state


def run_epoch(step, feats, batches, cfg, state):
    """Apply ``step`` to a copy of ``state`` batch by batch; returns the
    copy's arrays and the per-batch losses."""
    model, opt, cbank, ibank = copy.deepcopy(state)
    losses = [step(model, opt, feats, b, cbank, ibank, cfg) for b in batches]
    arrays = [*model.parameters(), *opt.m, *opt.v, cbank.centroids, ibank.slots,
              ibank.cursors]
    return arrays, losses, opt.step_count


class TestBatchStep:
    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_batch_without_repeats_is_bit_identical_to_per_row_step(self, mu):
        feats, batches, cfg, state = epoch_state([8, 9, 10, 12, 5, 6], n_id=2,
                                                 n_inst=5, mu=mu)
        assert all(np.unique(b.indices).size == b.indices.size for b in batches)
        got = run_epoch(trainer._batch_step, feats, batches, cfg, state)
        want = run_epoch(ref_batch_step, feats, batches, cfg, state)
        assert got[1:] == want[1:]
        for a, b in zip(got[0], want[0]):
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6),
           n_inst=st.integers(1, 20), mu=st.sampled_from([0.0, 0.5, 1.0]),
           data=st.data())
    def test_batch_with_repeats_matches_per_row_step(self, sizes, n_inst, mu, data):
        """Each step starts from the per-row step's state, so rounding
        differences do not compound. Embedding fewer rows may round an
        embedding differently in the last bit; the losses, Adam's moments
        and both banks stay within 1e-14. Adam's step moves a parameter by
        up to lr / ADAM_EPS per unit of its gradient when that gradient is
        far below ADAM_EPS (about 3x that bound overall), so each parameter
        is compared within 3 lr / ADAM_EPS times its gradient's difference,
        which is its first moment's difference over 1 - beta1."""
        n_id = data.draw(st.integers(1, len(sizes)), label="n_id")
        feats, batches, cfg, state = epoch_state(sizes, n_id, n_inst, mu=mu)
        sensitivity = 3 * cfg.lr / ADAM_EPS / (1.0 - ADAM_BETAS[0])
        for batch in batches:
            got = copy.deepcopy(state)
            got_losses = trainer._batch_step(got[0], got[1], feats, batch, *got[2:], cfg)
            want_losses = ref_batch_step(state[0], state[1], feats, batch, *state[2:], cfg)
            np.testing.assert_allclose(got_losses, want_losses, rtol=0, atol=1e-14)
            (model, opt, cbank, ibank), (model_r, opt_r, cbank_r, ibank_r) = got, state
            for a, b in zip([*opt.m, *opt.v, cbank.centroids, ibank.slots],
                            [*opt_r.m, *opt_r.v, cbank_r.centroids, ibank_r.slots]):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
            assert np.array_equal(ibank.cursors, ibank_r.cursors)
            assert opt.step_count == opt_r.step_count
            for p, p_r, m, m_r in zip(model.parameters(), model_r.parameters(),
                                      opt.m, opt_r.m):
                assert np.all(np.abs(p - p_r) <= 1e-14 + sensitivity * np.abs(m - m_r))

    def test_each_distinct_sample_is_computed_once(self, monkeypatch):
        # clusters of about 10 samples, 16 draws each: every batch repeats
        model = MLPEncoder([12, 16, 8], seed=1)
        batches = []
        rows = {"forward": [], "cluster_loss": [], "hard_instance_loss": []}
        embedding = []

        def record_batches(*args, **kwargs):
            epoch = build_epoch_batches(*args, **kwargs)
            batches.extend(epoch)
            return epoch

        def spy(fn, name):
            def wrapped(x, *args, **kwargs):
                if not embedding:
                    rows[name].append(len(x))
                return fn(x, *args, **kwargs)
            return wrapped

        def embed_quietly(*args, **kwargs):
            embedding.append(True)
            try:
                return embed_all(*args, **kwargs)
            finally:
                embedding.pop()

        monkeypatch.setattr(trainer, "build_epoch_batches", record_batches)
        monkeypatch.setattr(trainer, "embed_all", embed_quietly)
        for name in ("cluster_loss", "hard_instance_loss"):
            monkeypatch.setattr(trainer, name, spy(getattr(trainer, name), name))
        monkeypatch.setattr(model, "forward", spy(model.forward, "forward"))
        train(train_features(), small_config(instances_per_identity=16), model=model)
        distinct = [np.unique(b.indices).size for b in batches]
        assert batches and all(d < b.indices.size for d, b in zip(distinct, batches))
        for name, counts in rows.items():
            assert counts == distinct, name


class TestEmbedAll:
    def test_chunking_matches_single_pass(self, rng, monkeypatch):
        model = MLPEncoder([6, 8, 4], seed=0)
        feats = rng.standard_normal((23, 6))
        monkeypatch.setattr(trainer, "EMBED_CHUNK", 7)
        a = embed_all(model, feats)
        monkeypatch.setattr(trainer, "EMBED_CHUNK", 512)
        b = embed_all(model, feats)
        assert np.allclose(a, b, atol=1e-12)
