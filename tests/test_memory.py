import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridreid import (
    PseudoLabeling,
    init_cluster_bank,
    init_instance_bank,
    l2_normalize,
    update_cluster_bank,
    update_instance_bank,
)
from hybridreid import memory
from hybridreid.memory import hard_keys

from oracles import (one_product_hard_keys, ref_hard_keys, ref_hard_negative,
                     ref_hard_positive)


def clustered_embeddings(rng, c=4, per=10, d=6):
    emb = l2_normalize(rng.standard_normal((c * per, d)))
    labels = PseudoLabeling(assignment=np.repeat(np.arange(c), per), num_clusters=c)
    return emb, labels


class TestClusterBankInit:
    def test_centroids_are_normalized_means(self, rng):
        emb, labels = clustered_embeddings(rng)
        centroids = init_cluster_bank(emb, labels)
        assert centroids.shape == (labels.num_clusters, emb.shape[1])
        for i in range(labels.num_clusters):
            mean = emb[labels.members[i]].mean(axis=0)
            assert np.allclose(centroids[i], mean / np.linalg.norm(mean))

    def test_outliers_excluded(self, rng):
        emb, labels = clustered_embeddings(rng, c=2, per=5)
        assignment = labels.assignment.copy()
        assignment[0] = -1
        labels = PseudoLabeling(assignment=assignment, num_clusters=2)
        centroids = init_cluster_bank(emb, labels)
        mean = emb[1:5].mean(axis=0)
        assert np.allclose(centroids[0], mean / np.linalg.norm(mean))

    def test_empty_cluster_rejected(self, rng):
        emb = l2_normalize(rng.standard_normal((3, 4)))
        labels = PseudoLabeling(assignment=[0, 0, 0], num_clusters=2)
        with pytest.raises(ValueError):
            init_cluster_bank(emb, labels)

    def test_degenerate_mean_rejected(self):
        emb = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = PseudoLabeling(assignment=[0, 0], num_clusters=1)
        with pytest.raises(ValueError):
            init_cluster_bank(emb, labels)


class TestClusterBankUpdate:
    def test_momentum_formula(self, rng):
        emb, labels = clustered_embeddings(rng, c=3)
        centroids = init_cluster_bank(emb, labels)
        before = centroids.copy()
        batch = l2_normalize(rng.standard_normal((6, emb.shape[1])))
        batch_labels = np.array([0, 0, 2, 2, 2, 0])
        update_cluster_bank(centroids, batch, batch_labels, 0.2)
        for i in (0, 2):
            cbar = batch[batch_labels == i].mean(axis=0)
            merged = 0.2 * before[i] + 0.8 * cbar
            assert np.allclose(centroids[i], merged / np.linalg.norm(merged))

    def test_absent_cluster_bitwise_unchanged(self, rng):
        emb, labels = clustered_embeddings(rng, c=3)
        centroids = init_cluster_bank(emb, labels)
        row1 = centroids[1].tobytes()
        batch = l2_normalize(rng.standard_normal((4, emb.shape[1])))
        update_cluster_bank(centroids, batch, np.array([0, 0, 2, 2]), 0.2)
        assert centroids[1].tobytes() == row1

    def test_alpha_one_is_exact_identity(self, rng):
        emb, labels = clustered_embeddings(rng, c=3)
        centroids = init_cluster_bank(emb, labels)
        before = centroids.tobytes()
        for _ in range(5):
            batch = l2_normalize(rng.standard_normal((6, emb.shape[1])))
            update_cluster_bank(centroids, batch, rng.integers(0, 3, size=6), 1.0)
        assert centroids.tobytes() == before

    def test_alpha_zero_replaces_with_batch_mean(self, rng):
        emb, labels = clustered_embeddings(rng, c=2)
        centroids = init_cluster_bank(emb, labels)
        batch = l2_normalize(rng.standard_normal((3, emb.shape[1])))
        update_cluster_bank(centroids, batch, np.array([1, 1, 1]), 0.0)
        cbar = batch.mean(axis=0)
        assert np.allclose(centroids[1], cbar / np.linalg.norm(cbar))

    def test_rows_stay_unit_norm(self, rng):
        emb, labels = clustered_embeddings(rng, c=4)
        centroids = init_cluster_bank(emb, labels)
        for _ in range(50):
            batch = l2_normalize(rng.standard_normal((8, emb.shape[1])))
            update_cluster_bank(centroids, batch, rng.integers(0, 4, size=8), 0.5)
        assert np.allclose(np.linalg.norm(centroids, axis=1), 1.0, atol=1e-9)

    def test_invalid_labels_rejected(self, rng):
        emb, labels = clustered_embeddings(rng, c=2)
        centroids = init_cluster_bank(emb, labels)
        batch = l2_normalize(rng.standard_normal((2, emb.shape[1])))
        with pytest.raises(ValueError):
            update_cluster_bank(centroids, batch, np.array([0, 2]), 0.2)
        with pytest.raises(ValueError):
            update_cluster_bank(centroids, batch, np.array([-1, 0]), 0.2)

    def test_degenerate_update_warns_and_keeps_previous(self):
        emb = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = PseudoLabeling(assignment=[0, 0], num_clusters=1)
        centroids = init_cluster_bank(emb, labels)
        before = centroids.copy()
        # batch mean exactly cancels alpha*centroid + (1-alpha)*mean
        batch = np.array([[-1.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            update_cluster_bank(centroids, batch, np.array([0]), 0.5)
        assert np.array_equal(centroids, before)


class TestInstanceBankInit:
    def test_shape_and_membership(self, rng):
        emb, labels = clustered_embeddings(rng, c=3, per=8, d=5)
        slots = init_instance_bank(emb, labels, slots=4, rng_seed=0)
        assert slots.shape == (3, 4, 5)
        for i in range(3):
            members = emb[labels.members[i]]
            for s in range(4):
                assert any(np.array_equal(slots[i, s], m) for m in members)

    def test_without_replacement_when_enough_members(self, rng):
        emb, labels = clustered_embeddings(rng, c=2, per=6, d=4)
        slots = init_instance_bank(emb, labels, slots=6, rng_seed=3)
        for i in range(2):
            rows = {slots[i, s].tobytes() for s in range(6)}
            assert len(rows) == 6

    def test_with_replacement_when_cluster_small(self, rng):
        emb, labels = clustered_embeddings(rng, c=2, per=3, d=4)
        slots = init_instance_bank(emb, labels, slots=8, rng_seed=3)
        assert slots.shape == (2, 8, 4)

    def test_seed_determinism(self, rng):
        emb, labels = clustered_embeddings(rng)
        a = init_instance_bank(emb, labels, slots=5, rng_seed=[7, 1])
        b = init_instance_bank(emb, labels, slots=5, rng_seed=[7, 1])
        assert a.tobytes() == b.tobytes()

    def test_invalid_slots(self, rng):
        emb, labels = clustered_embeddings(rng)
        with pytest.raises(ValueError):
            init_instance_bank(emb, labels, slots=0, rng_seed=0)


class TestInstanceBankUpdate:
    def test_full_batch_replaces_in_order(self, rng):
        emb, labels = clustered_embeddings(rng, c=2, per=6, d=4)
        slots = init_instance_bank(emb, labels, slots=3, rng_seed=0)
        batch = l2_normalize(rng.standard_normal((6, 4)))
        batch_labels = np.array([0, 0, 0, 1, 1, 1])
        update_instance_bank(slots, batch, batch_labels)
        assert np.array_equal(slots[0], batch[:3])
        assert np.array_equal(slots[1], batch[3:])

    def test_more_rows_than_slots_keep_the_last_per_slot(self, rng):
        # cluster 0 has 5 rows (k = 0..4) for 3 slots: slot p holds its last
        # row k with k = p (mod 3); cluster 1's one row goes to its slot 0
        # and its other slots keep their rows
        emb, labels = clustered_embeddings(rng, c=2, per=6, d=4)
        slots = init_instance_bank(emb, labels, slots=3, rng_seed=0)
        kept = slots[1, 1:].tobytes()
        batch = l2_normalize(rng.standard_normal((6, 4)))
        update_instance_bank(slots, batch, np.array([0, 1, 0, 0, 0, 0]))
        assert np.array_equal(slots[0], batch[[4, 5, 3]])
        assert np.array_equal(slots[1, 0], batch[1])
        assert slots[1, 1:].tobytes() == kept

    def test_absent_cluster_bitwise_unchanged(self, rng):
        emb, labels = clustered_embeddings(rng, c=3, per=6, d=4)
        slots = init_instance_bank(emb, labels, slots=3, rng_seed=0)
        before = slots[1].tobytes()
        batch = l2_normalize(rng.standard_normal((4, 4)))
        update_instance_bank(slots, batch, np.array([0, 0, 2, 2]))
        assert slots[1].tobytes() == before

    def test_invalid_labels_rejected(self, rng):
        emb, labels = clustered_embeddings(rng, c=2, per=4, d=4)
        slots = init_instance_bank(emb, labels, slots=2, rng_seed=0)
        with pytest.raises(ValueError):
            update_instance_bank(slots, np.ones((1, 4)), np.array([5]))


class TestHardSelection:
    def test_matches_exhaustive_scan(self, rng):
        for _ in range(50):
            c, s, d, b = 5, 6, 4, 8
            slots = l2_normalize(rng.standard_normal((c, s, d)))
            queries = l2_normalize(rng.standard_normal((b, d)))
            own = rng.integers(0, c, size=b)
            picks, _ = hard_keys(queries, slots, own)
            assert picks.shape == (b, c)
            for r in range(b):
                assert picks[r, own[r]] == ref_hard_positive(queries[r], slots[own[r]])
                for other in range(c):
                    if other != own[r]:
                        want = ref_hard_negative(queries[r], slots[other])
                        assert picks[r, other] == want

    def test_tie_breaks_to_lowest_slot(self, rng):
        # every slot appears twice, at k and k + 3: each exact tie must go
        # to the first copy, for the positive and for every negative
        c, d, b = 4, 5, 6
        base = l2_normalize(rng.standard_normal((c, 3, d)))
        slots = np.concatenate([base, base], axis=1)
        queries = l2_normalize(rng.standard_normal((b, d)))
        own = np.array([0, 0, 1, 2, 3, 3])
        picks, _ = hard_keys(queries, slots, own)
        assert np.all(picks < 3)
        for r in range(b):
            assert picks[r].tolist() == ref_hard_keys(queries[r], slots, own[r])[0]
        v = np.array([[1.0, 0.0, 0.0]])
        picks, _ = hard_keys(v, np.stack([np.stack([v[0]] * 3)] * 2), [0])
        assert picks.tolist() == [[0, 0]]

    def test_hard_keys_combines_both_rules(self, rng):
        c, s, d, b = 6, 5, 4, 7
        slots = l2_normalize(rng.standard_normal((c, s, d)))
        queries = l2_normalize(rng.standard_normal((b, d)))
        own = np.array([2, 2, 0, 5, 2, 1, 0])
        picks, sims = hard_keys(queries, slots, own)
        for r in range(b):
            want, keys = ref_hard_keys(queries[r], slots, own[r])
            assert picks[r].tolist() == want
            assert np.abs(sims[r] - keys @ queries[r]).max() <= 1e-12


@st.composite
def blocked_cases(draw):
    """A batch, slots and own clusters for ``hard_keys``, and a number of
    clusters per block. In half the cases every value is a small integer,
    so every dot product is exact, and the slots repeat three vectors, so
    ties are common; in the others they are real-valued unit rows. The
    first rows' own clusters sit at block edges: cluster 0, the last of the
    first block, the first of the second, and C - 1, which is in a ragged
    last block when the block width does not divide C."""
    b = draw(st.integers(1, 24), label="B")
    c = draw(st.integers(1, 12), label="C")
    s = draw(st.integers(1, 6), label="S")
    d = draw(st.integers(1, 16), label="D")
    per_block = draw(st.just(1) | st.integers(1, c), label="per_block")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    exact = draw(st.booleans(), label="exact")
    if exact:
        pool = rng.integers(-2, 3, size=(3, d)).astype(float)
        slots = pool[rng.integers(0, 3, size=(c, s))]
        batch = rng.integers(-2, 3, size=(b, d)).astype(float)
    else:
        slots = l2_normalize(rng.standard_normal((c * s, d))).reshape(c, s, d)
        batch = l2_normalize(rng.standard_normal((b, d)))
    own = rng.integers(0, c, size=b)
    edges = [e for e in (0, per_block - 1, per_block, c - 1) if e < c][:b]
    own[:len(edges)] = edges
    return batch, slots, own, per_block, exact


@settings(max_examples=300, deadline=None)
@given(case=blocked_cases())
def test_blocks_reproduce_one_product(case):
    """Any block width, from one cluster per block up, picks the same slots
    as one product over all clusters. The similarities are the same bits
    when every product is exact; on real values a narrow block (a one-row
    or one-column product) may round differently from the full GEMM, by
    far less than the 1e-12 allowed here."""
    batch, slots, own, per_block, exact = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(memory, "SCORE_BYTES", per_block * batch.shape[0] * slots.shape[1] * 8)
        picks, sims = hard_keys(batch, slots, own)
    want_picks, want_sims = one_product_hard_keys(batch, slots, own)
    assert np.array_equal(picks, want_picks)
    if exact:
        assert np.array_equal(sims, want_sims)
    assert np.abs(sims - want_sims).max() <= 1e-12


def test_hard_keys_peak_is_a_block_not_the_product(rng):
    """At B=256, C=1000, S=16, D=64 one B x (C*S) product would be 31.25 MiB;
    the tracemalloc peak stays within 1 MiB of the 3.9 MiB of B x C outputs."""
    b, c, s, d = 256, 1000, 16, 64
    slots = l2_normalize(rng.standard_normal((c * s, d))).reshape(c, s, d)
    batch = l2_normalize(rng.standard_normal((b, d)))
    own = rng.integers(0, c, size=b)
    tracemalloc.start()
    try:
        hard_keys(batch, slots, own)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * b * c * 8 + 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_thousand_randomized_updates_keep_invariants(rng):
    """Long-run stress: unit norms hold and untouched clusters never drift."""
    emb, labels = clustered_embeddings(rng, c=6, per=10, d=5)
    centroids = init_cluster_bank(emb, labels)
    slots = init_instance_bank(emb, labels, slots=4, rng_seed=0)
    frozen_cluster = 5
    frozen_c = centroids[frozen_cluster].tobytes()
    frozen_i = slots[frozen_cluster].tobytes()
    for _ in range(1000):
        bsz = int(rng.integers(1, 9))
        batch = l2_normalize(rng.standard_normal((bsz, 5)))
        batch_labels = rng.integers(0, 5, size=bsz)  # never cluster 5
        update_cluster_bank(centroids, batch, batch_labels, 0.2)
        update_instance_bank(slots, batch, batch_labels)
    assert np.allclose(np.linalg.norm(centroids, axis=1), 1.0, atol=1e-6)
    assert np.allclose(
        np.linalg.norm(slots.reshape(-1, 5), axis=1), 1.0, atol=1e-6
    )
    assert centroids[frozen_cluster].tobytes() == frozen_c
    assert slots[frozen_cluster].tobytes() == frozen_i
