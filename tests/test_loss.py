import numpy as np
import pytest
from scipy.special import log_softmax

from hybridreid import (
    OUTLIER,
    ConfigError,
    NumericError,
    TrainConfig,
    cluster_loss,
    hard_instance_loss,
    l2_normalize,
    softmax_contrastive,
    train,
)
from hybridreid.memory import hard_keys

from oracles import (
    fd_grad,
    ref_hard_keys,
    ref_softmax_grad,
    ref_softmax_loss,
    rel_err,
)
from test_trainer import small_config, train_features


def random_batch(rng, b, d):
    return l2_normalize(rng.standard_normal((b, d)))


def random_ids(rng, c, b):
    """``b`` cluster ids in [0, c) with repeats, as a PK batch has."""
    return rng.integers(0, c, size=b)


class TestSoftmaxContrastive:
    def test_value_matches_log_softmax(self, rng):
        for _ in range(20):
            m, d = int(rng.integers(2, 12)), int(rng.integers(2, 8))
            b = int(rng.integers(1, 6))
            keys = l2_normalize(rng.standard_normal((m, d)))
            queries = random_batch(rng, b, d)
            pos = random_ids(rng, m, b)
            tau = float(rng.uniform(0.02, 1.0))
            out = softmax_contrastive(queries, keys, pos, tau)
            assert out.values.shape == (b,)
            for r in range(b):
                want = -log_softmax(keys @ queries[r] / tau)[pos[r]]
                assert abs(out.values[r] - want) < 1e-10
                ref = ref_softmax_loss(queries[r], keys, pos[r], tau)
                assert abs(out.values[r] - ref) < 1e-10

    def test_value_nonnegative_even_when_peaked(self, rng):
        keys = l2_normalize(rng.standard_normal((8, 5)))
        out = softmax_contrastive(keys[[3, 5]], keys, [3, 5], tau=0.001)
        assert np.all(out.values >= 0.0)
        assert np.all(np.isfinite(out.values))

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(30):
            m, d = int(rng.integers(2, 10)), int(rng.integers(2, 7))
            b = int(rng.integers(1, 4))
            keys = l2_normalize(rng.standard_normal((m, d)))
            queries = random_batch(rng, b, d).copy()
            pos = random_ids(rng, m, b)
            tau = float(rng.uniform(0.05, 1.0))
            out = softmax_contrastive(queries, keys, pos, tau)
            fd = fd_grad(
                lambda: softmax_contrastive(queries, keys, pos, tau).values.sum(),
                queries,
            )
            assert rel_err(out.grad, fd) < 1e-6

    def test_gradient_closed_form(self, rng):
        keys = l2_normalize(rng.standard_normal((6, 4)))
        queries = random_batch(rng, 3, 4)
        pos = np.array([2, 0, 2])
        tau = 0.2
        out = softmax_contrastive(queries, keys, pos, tau)
        for r in range(3):
            logits = keys @ queries[r] / tau
            p = np.exp(logits - logits.max())
            p /= p.sum()
            assert np.allclose(out.grad[r], (p @ keys - keys[pos[r]]) / tau)

    def test_temperature_actually_divides_logits(self, rng):
        # guards against reading the scaling as exp(s)/tau, which would
        # leave the softmax (and the loss differences) independent of tau
        keys = l2_normalize(rng.standard_normal((5, 4)))
        query = random_batch(rng, 1, 4)
        a = softmax_contrastive(query, keys, [1], tau=0.05).values
        b = softmax_contrastive(query, keys, [1], tau=1.0).values
        assert abs(a[0] - b[0]) > 1e-6

    def test_invalid_positive_index(self, rng):
        keys = l2_normalize(rng.standard_normal((3, 4)))
        queries = np.ones((2, 4)) / 2.0
        for bad in ([0, 3], [OUTLIER, 0]):
            with pytest.raises(ValueError):
                softmax_contrastive(queries, keys, bad, 0.1)
            with pytest.raises(ValueError):
                cluster_loss(queries, keys, bad, 0.1)
            slots = l2_normalize(rng.standard_normal((3, 2, 4)))
            with pytest.raises(ValueError):
                hard_keys(queries, slots, bad)
            with pytest.raises(ValueError):
                hard_instance_loss(queries, slots, bad, 0.1)

    def test_invalid_tau(self, rng):
        keys = l2_normalize(rng.standard_normal((3, 4)))
        queries = np.ones((2, 4)) / 2.0
        slots = l2_normalize(rng.standard_normal((3, 2, 4)))
        for tau in (0.0, -0.1):
            with pytest.raises(ValueError):
                softmax_contrastive(queries, keys, [0, 1], tau)
            with pytest.raises(ValueError):
                cluster_loss(queries, keys, [0, 1], tau)
            with pytest.raises(ValueError):
                hard_instance_loss(queries, slots, [0, 1], tau)

    def test_non_finite_logits_rejected(self):
        keys = np.array([[np.inf, 0.0], [0.0, 1.0]])
        queries = np.ones((2, 2))
        with pytest.raises(NumericError):
            softmax_contrastive(queries, keys, [0, 1], 0.1)
        with pytest.raises(NumericError):
            cluster_loss(queries, keys, [0, 1], 0.1)
        slots = np.stack([keys, keys[::-1]])
        with pytest.raises(NumericError):
            hard_instance_loss(queries, slots, [0, 1], 0.1)
        nan_query = np.array([[np.nan, 0.0], [1.0, 0.0]])
        finite = np.stack([np.eye(2), np.eye(2)])
        with pytest.raises(NumericError):
            hard_instance_loss(nan_query, finite, [0, 1], 0.1)


class TestClusterLoss:
    def test_equals_contrastive_over_centroids(self, rng):
        cents = l2_normalize(rng.standard_normal((7, 5)))
        queries = random_batch(rng, 6, 5)
        ids = random_ids(rng, 7, 6)
        out = cluster_loss(queries, cents, ids, tau_c=0.05)
        want = softmax_contrastive(queries, cents, ids, 0.05)
        assert np.array_equal(out.values, want.values)
        assert np.array_equal(out.grad, want.grad)

    def test_matches_per_sample_oracle(self, rng):
        for _ in range(20):
            c, d, b = int(rng.integers(2, 12)), int(rng.integers(2, 9)), 16
            cents = l2_normalize(rng.standard_normal((c, d)))
            queries = random_batch(rng, b, d)
            ids = random_ids(rng, c, b)
            tau = float(rng.uniform(0.03, 1.0))
            out = cluster_loss(queries, cents, ids, tau)
            for r in range(b):
                assert abs(out.values[r] - ref_softmax_loss(queries[r], cents, ids[r], tau)) <= 1e-12
                ref = ref_softmax_grad(queries[r], cents, ids[r], tau)
                assert np.abs(out.grad[r] - ref).max() <= 1e-12

    def test_lower_when_query_sits_on_own_centroid(self, rng):
        cents = l2_normalize(rng.standard_normal((5, 6)))
        out = cluster_loss(cents[[2, 3]], cents, [2, 2], 0.05)
        assert out.values[0] < out.values[1]


class TestHardInstanceLoss:
    def test_uses_hard_keys(self, rng):
        slots = l2_normalize(rng.standard_normal((4, 6, 5)))
        queries = random_batch(rng, 5, 5)
        own = np.array([1, 1, 3, 0, 1])
        out = hard_instance_loss(queries, slots, own, tau_ins=0.07)
        picks, sims = hard_keys(queries, slots, own)
        for r in range(5):
            keys = slots[np.arange(4), picks[r]]
            want = -log_softmax(sims[r] / 0.07)[own[r]]
            assert abs(out.values[r] - want) < 1e-12
            logits = sims[r] / 0.07
            p = np.exp(logits - logits.max())
            p /= p.sum()
            assert np.abs(out.grad[r] - (p @ keys - keys[own[r]]) / 0.07).max() < 1e-12

    def test_hand_built_selection(self):
        # own cluster 0: slots at cos 1.0 and cos 0.0 -> positive is the
        # orthogonal one; cluster 1: slots at cos -1 and cos 0.6 -> the
        # 0.6 one is the negative
        q = np.array([[1.0, 0.0]])
        s00, s01 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        s10 = np.array([-1.0, 0.0])
        s11 = np.array([0.6, 0.8])
        slots = np.stack([np.stack([s00, s01]), np.stack([s10, s11])])
        out = hard_instance_loss(q, slots, [0], tau_ins=1.0)
        # keys are then [s01, s11]: value = -log softmax([0, 0.6])[0]
        logits = np.array([0.0, 0.6])
        want = -log_softmax(logits)[0]
        assert abs(out.values[0] - want) < 1e-12
        assert np.allclose(out.grad[0], (np.exp(logits) / np.exp(logits).sum()) @
                           np.stack([s01, s11]) - s01)

    def test_matches_per_sample_oracle(self, rng):
        for _ in range(20):
            c, s, d, b = int(rng.integers(2, 9)), int(rng.integers(1, 7)), 5, 16
            slots = l2_normalize(rng.standard_normal((c, s, d)))
            queries = random_batch(rng, b, d)
            own = random_ids(rng, c, b)
            tau = float(rng.uniform(0.03, 1.0))
            out = hard_instance_loss(queries, slots, own, tau)
            for r in range(b):
                _, keys = ref_hard_keys(queries[r], slots, own[r])
                assert abs(out.values[r] - ref_softmax_loss(queries[r], keys, own[r], tau)) <= 1e-12
                ref = ref_softmax_grad(queries[r], keys, own[r], tau)
                assert np.abs(out.grad[r] - ref).max() <= 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        # selection is stop-gradient: fd must be taken with picks frozen,
        # which holds automatically away from selection ties
        for _ in range(20):
            c, s, d = 4, 5, 4
            slots = l2_normalize(rng.standard_normal((c, s, d)))
            queries = random_batch(rng, 3, d).copy()
            own = np.array([2, 0, 2])
            out = hard_instance_loss(queries, slots, own, tau_ins=0.3)
            fd = fd_grad(
                lambda: hard_instance_loss(queries, slots, own, 0.3).values.sum(),
                queries,
            )
            assert rel_err(out.grad, fd) < 1e-6


class TestHybridLoss:
    """The trainer blends ``mu * cluster + (1 - mu) * instance`` inline."""

    def test_blend(self, rng):
        c, d, b, mu, tau = 5, 4, 8, 0.3, 0.1
        cents = l2_normalize(rng.standard_normal((c, d)))
        slots = l2_normalize(rng.standard_normal((c, 3, d)))
        queries = random_batch(rng, b, d)
        ids = random_ids(rng, c, b)
        cls = cluster_loss(queries, cents, ids, tau)
        ins = hard_instance_loss(queries, slots, ids, tau)
        values = mu * cls.values + (1.0 - mu) * ins.values
        grad = mu * cls.grad + (1.0 - mu) * ins.grad
        for r in range(b):
            _, keys = ref_hard_keys(queries[r], slots, ids[r])
            want = (mu * ref_softmax_loss(queries[r], cents, ids[r], tau)
                    + (1.0 - mu) * ref_softmax_loss(queries[r], keys, ids[r], tau))
            assert abs(values[r] - want) <= 1e-12
            want_grad = (mu * ref_softmax_grad(queries[r], cents, ids[r], tau)
                         + (1.0 - mu) * ref_softmax_grad(queries[r], keys, ids[r], tau))
            assert np.abs(grad[r] - want_grad).max() <= 1e-12

    def test_endpoints(self):
        feats = train_features()
        _, _, reports = train(feats, small_config(mu=1.0, epochs=2))
        assert all(r.loss == r.loss_cls for r in reports)
        _, _, reports = train(feats, small_config(mu=0.0, epochs=2))
        assert all(r.loss == r.loss_ins for r in reports)

    def test_invalid_mu(self):
        feats = train_features()
        for mu in (1.5, -0.1):
            with pytest.raises(ConfigError):
                train(feats, TrainConfig(mu=mu))
