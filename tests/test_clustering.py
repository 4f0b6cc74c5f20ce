import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse
from scipy.spatial.distance import cdist

from hybridreid import OUTLIER, clustering, dbscan, l2_normalize, pseudo_label
from hybridreid.clustering import BLOCK_ROWS, jaccard_distance, k_reciprocal_neighbors
from hybridreid.core import _max_clusters

from oracles import (
    explicit_csr,
    ref_dbscan,
    ref_jaccard,
    ref_kreciprocal,
    ref_pairwise_euclidean,
)


def random_dist(rng, n):
    """Symmetric zero-diagonal distance matrix with deliberate ties."""
    pts = rng.integers(0, 6, size=(n, 3)).astype(np.float64)
    d = cdist(pts, pts)
    np.fill_diagonal(d, 0.0)
    return d


def lattice_rows(base, picks):
    """Unit rows ``base[picks]`` of {-1, 0, 1} lattice points (a zero point
    becomes e1): repeated picks tie at distance 0 and symmetric lattice
    points tie exactly at other distances."""
    base = np.asarray(base, dtype=np.float64)
    base[~base.any(axis=1), 0] = 1.0
    return l2_normalize(base[picks])


def tie_rich_emb(rng, n, dims=3):
    base = rng.integers(-1, 2, size=(max(2, n // 3), dims))
    return lattice_rows(base, rng.integers(0, base.shape[0], size=n))


def blocked_dist(emb, block=BLOCK_ROWS):
    """The distances k_reciprocal_neighbors ranks by, stacked over its row
    blocks; each is per pair, so the blocks cannot change a bit."""
    return np.vstack([ref_pairwise_euclidean(emb[lo:lo + block], emb)
                      for lo in range(0, emb.shape[0], block)])


def densify(dist):
    """Dense copy of a sparse Jaccard matrix, absent pairs at distance 1."""
    coo = sparse.coo_array(dist)
    out = np.ones(dist.shape)
    out[coo.row, coo.col] = coo.data
    return out


class TestPairwiseEuclidean:
    """The oracle distances that blocked_dist stacks for the k-reciprocal
    references."""

    def test_matches_cdist(self, rng):
        a = l2_normalize(rng.standard_normal((40, 8)))
        b = l2_normalize(rng.standard_normal((25, 8)))
        assert np.allclose(ref_pairwise_euclidean(a, b), cdist(a, b), atol=1e-8)

    def test_row_blocks_match_full_matrix(self, rng):
        # each distance depends on its two rows alone: bit for bit, and
        # exactly 0 on the diagonal
        emb = l2_normalize(rng.standard_normal((300, 16)))
        full = ref_pairwise_euclidean(emb, emb)
        assert np.all(np.diag(full) == 0.0)
        for block in (1, 7, 64, 256):
            assert np.array_equal(blocked_dist(emb, block), full)


class TestKReciprocal:
    def test_matches_reference(self, rng, monkeypatch):
        for trial in range(10):
            n = int(rng.integers(5, 40))
            emb = tie_rich_emb(rng, n)
            k = int(rng.integers(1, n))
            block = int(rng.integers(1, n + 1))
            monkeypatch.setattr(clustering, "BLOCK_ROWS", block)
            got = k_reciprocal_neighbors(emb, k)
            assert got.has_sorted_indices
            ref = ref_kreciprocal(blocked_dist(emb, block), k)
            assert np.array_equal(got.toarray(), ref)

    def test_symmetric_and_irreflexive(self, rng):
        got = k_reciprocal_neighbors(tie_rich_emb(rng, 25), 6).toarray()
        assert np.array_equal(got, got.T)
        assert not got.diagonal().any()

    def test_duplicate_points_tie_break(self):
        # four identical points: kNN with k=2 keeps the two lowest indices
        emb = np.tile([[0.6, 0.8]], (4, 1))
        got = k_reciprocal_neighbors(emb, 2).toarray()
        assert np.array_equal(got, ref_kreciprocal(np.zeros((4, 4)), 2))
        # 0 and 1 pick each other; 3 picks {0, 1} but they don't pick it back
        assert got[0, 1] and not got[0, 3] and not got[3, 0]

    def test_boundary_tie_takes_lowest_indices(self, monkeypatch):
        # k=3. Row 0 (e1) has 5 strictly closer and 1..4 (+-e2, +-e3) tied
        # at sqrt(2) for the 2 slots left: 1 and 2 take them. Row 3 (e3)
        # has 0, 1, 2 and 5 tied for all 3 slots: 0, 1 and 2 take them.
        s = np.sqrt(0.5)
        emb = np.array([[1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
                        [s, s, 0]])
        for block in (1, 2, 6):
            monkeypatch.setattr(clustering, "BLOCK_ROWS", block)
            got = k_reciprocal_neighbors(emb, 3).toarray()
            assert np.array_equal(got, ref_kreciprocal(blocked_dist(emb, block), 3))
        # 3 picks 0 but loses the tie in row 0, so they are not reciprocal
        assert np.flatnonzero(got[0]).tolist() == [1, 2, 5]
        assert np.flatnonzero(got[3]).tolist() == [1, 2]

    def test_k_bounds(self, rng):
        emb = tie_rich_emb(rng, 6)
        with pytest.raises(ValueError):
            k_reciprocal_neighbors(emb, 0)
        with pytest.raises(ValueError):
            k_reciprocal_neighbors(emb, 6)

    def test_rejects_unnormalized(self, rng):
        emb = l2_normalize(rng.standard_normal((6, 3)))
        emb[4] *= 2.0
        with pytest.raises(ValueError, match="unit-norm"):
            k_reciprocal_neighbors(emb, 2)


class TestJaccard:
    def test_matches_reference(self, rng):
        for trial in range(10):
            n = int(rng.integers(2, 40))
            sets = rng.random((n, n)) < 0.3
            sets = sets | sets.T
            got = jaccard_distance(sparse.csr_array(sets))
            assert np.array_equal(densify(got), ref_jaccard(sets))

    def test_range_symmetry_diagonal(self, rng):
        sets = rng.random((30, 30)) < 0.2
        sets = sets | sets.T
        got = densify(jaccard_distance(sparse.csr_array(sets)))
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)

    def test_empty_sets_still_defined(self):
        # rows with no reciprocal neighbors reduce to singleton {i}
        got = jaccard_distance(sparse.csr_array((3, 3), dtype=bool))
        assert got.nnz == 3  # only the diagonal shares a member
        got = densify(got)
        assert np.all(np.diag(got) == 0.0)
        assert np.all(got[~np.eye(3, dtype=bool)] == 1.0)

    def test_identical_sets_distance_zero(self):
        got = jaccard_distance(sparse.csr_array(np.ones((4, 4), dtype=bool)))
        # every pair is stored, at an explicit distance of 0
        assert got.nnz == 16
        assert np.all(densify(got) == 0.0)

    def test_only_pairs_within_two_hops_stored(self, rng):
        sets = rng.random((40, 40)) < 0.05
        sets = sets | sets.T
        star = (sets | np.eye(40, dtype=bool)).astype(int)
        shared = star @ star.T > 0
        got = jaccard_distance(sparse.csr_array(sets)).tocoo()
        stored = np.zeros((40, 40), dtype=bool)
        stored[got.row, got.col] = True
        assert got.nnz == shared.sum() and np.array_equal(stored, shared)


class TestDbscan:
    def test_worked_example(self):
        # 0-1-2 dense chain, 3 border reachable from 2 only, 4 isolated
        d = np.array(
            [
                [0.0, 0.1, 0.2, 0.9, 0.9],
                [0.1, 0.0, 0.1, 0.9, 0.9],
                [0.2, 0.1, 0.0, 0.3, 0.9],
                [0.9, 0.9, 0.3, 0.0, 0.9],
                [0.9, 0.9, 0.9, 0.9, 0.0],
            ]
        )
        lab = dbscan(explicit_csr(d), eps=0.35, min_pts=2)
        assert lab.assignment.tolist() == [0, 0, 0, 0, OUTLIER]
        assert lab.num_clusters == 1
        assert lab.num_outliers == 1

    def test_border_goes_to_first_claiming_cluster(self):
        # point 8 is border (2 neighbors < min_pts) and within eps of
        # cores in both clusters; it must join the one started first
        pts = np.array([0.0, 0.1, 0.2, 0.3, 1.0, 1.1, 1.2, 1.3, 0.65])
        d = np.abs(pts[:, None] - pts[None, :])
        lab = dbscan(explicit_csr(d), eps=0.36, min_pts=3)
        assert lab.num_clusters == 2
        assert lab.assignment[8] == lab.assignment[0] == 0
        assert lab.assignment[4] == 1

    def test_matches_reference_partition(self, rng):
        for trial in range(25):
            n = int(rng.integers(10, 60))
            d = random_dist(rng, n)
            eps = float(rng.uniform(0.5, 4.0))
            min_pts = int(rng.integers(1, 8))
            got = dbscan(explicit_csr(d), eps, min_pts)
            ref_labels, ref_c = ref_dbscan(d, eps, min_pts)
            assert got.num_clusters == ref_c
            # deterministic numbering must match the reference exactly,
            # not just up to relabeling
            assert got.assignment.tolist() == ref_labels.tolist()

    def test_all_outliers(self):
        d = np.full((5, 5), 10.0)
        np.fill_diagonal(d, 0.0)
        lab = dbscan(explicit_csr(d), eps=0.1, min_pts=2)
        assert lab.num_clusters == 0
        assert lab.num_outliers == 5

    def test_min_pts_excludes_self(self):
        # pair of mutual neighbors: each has exactly 1 neighbor besides
        # itself, so min_pts=2 leaves both as outliers
        d = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert dbscan(explicit_csr(d), eps=0.2, min_pts=2).num_clusters == 0
        assert dbscan(explicit_csr(d), eps=0.2, min_pts=1).num_clusters == 1

    def test_sparse_matches_dense(self, rng):
        for trial in range(25):
            n = int(rng.integers(10, 60))
            d = random_dist(rng, n)
            # eps equal to a stored distance: the boundary pairs are neighbors
            eps = float(rng.choice(d[(d >= 0.5) & (d <= 4.0)]))
            min_pts = int(rng.integers(1, 8))
            # store every pair within eps and some beyond it, zeros included
            rows, cols = np.nonzero(d <= eps + rng.uniform(0.0, 1.0))
            stored = sparse.csr_array(
                (d[rows, cols], cols, np.searchsorted(rows, np.arange(n + 1))),
                shape=(n, n))
            assert (stored.data == 0.0).sum() >= n
            got = dbscan(stored, eps, min_pts)
            ref_labels, ref_c = ref_dbscan(d, eps, min_pts)
            assert got.num_clusters == ref_c
            assert got.assignment.tolist() == ref_labels.tolist()

    def test_cluster_count_within_config_bound(self, rng):
        # min_pts=3: each core a_i has three neighbors, one of them a border
        # b_i that is also the only kind of neighbor core p has; the earlier
        # clusters claim every b_i, so p forms a cluster of one
        edges = [(4 * i, 4 * i + j) for i in range(3) for j in (1, 2, 3)]
        edges += [(12, 4 * i + 3) for i in range(3)]
        d = np.ones((13, 13))
        np.fill_diagonal(d, 0.0)
        for u, v in edges:
            d[u, v] = d[v, u] = 0.1
        lab = dbscan(explicit_csr(d), eps=0.5, min_pts=3)
        assert lab.assignment.tolist() == [0] * 4 + [1] * 4 + [2] * 4 + [3]
        assert 13 // (3 + 1) < lab.num_clusters <= _max_clusters(13, 3)
        for trial in range(200):
            n = int(rng.integers(2, 40))
            within = rng.random((n, n)) < rng.uniform(0.02, 0.4)
            d = np.where(within | within.T, 0.1, 1.0)
            np.fill_diagonal(d, 0.0)
            min_pts = int(rng.integers(1, 7))
            lab = dbscan(explicit_csr(d), 0.5, min_pts)
            assert lab.num_clusters <= _max_clusters(n, min_pts)

    def test_parameter_validation(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            dbscan(explicit_csr(d), eps=0.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan(explicit_csr(d), eps=0.1, min_pts=0)

    def test_dense_matrix_rejected(self):
        # a dense matrix would lose its zero distances to a CSR conversion
        with pytest.raises(TypeError, match="sparse"):
            dbscan(np.zeros((3, 3)), eps=0.1, min_pts=1)


class TestPseudoLabelPipeline:
    def test_recovers_separated_blobs(self, rng):
        protos = l2_normalize(rng.standard_normal((4, 16)))
        emb = []
        truth = []
        for i in range(4):
            for _ in range(12):
                emb.append(l2_normalize(protos[i] + 0.03 * rng.standard_normal(16)))
                truth.append(i)
        emb = np.asarray(emb)
        # k = blob size - 1 makes each reciprocal set exactly the blob
        lab = pseudo_label(emb, k=11, eps=0.45, min_pts=4)
        assert lab.num_clusters == 4
        assert lab.num_outliers == 0
        # same-blob samples share a label across the board
        truth = np.asarray(truth)
        for i in range(4):
            assert len(set(lab.assignment[truth == i].tolist())) == 1

    def test_deterministic(self, rng):
        emb = l2_normalize(rng.standard_normal((50, 8)))
        a = pseudo_label(emb, k=8, eps=0.6, min_pts=3)
        b = pseudo_label(emb, k=8, eps=0.6, min_pts=3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_isolated_points_become_outliers(self, rng):
        protos = l2_normalize(rng.standard_normal((2, 16)))
        emb = [
            l2_normalize(protos[i] + 0.02 * rng.standard_normal(16))
            for i in range(2)
            for _ in range(10)
        ]
        # far-away singleton
        emb.append(l2_normalize(-protos[0] - protos[1] + rng.standard_normal(16)))
        lab = pseudo_label(np.asarray(emb), k=6, eps=0.4, min_pts=4)
        assert lab.assignment[-1] == OUTLIER

    def test_identical_sets_are_neighbors_at_distance_zero(self):
        # k=1 pairs 0 with 1 and 2 with 3, so R*(0) = R*(1) = {0, 1} and
        # R*(2) = R*(3) = {2, 3}: Jaccard distance exactly 0 within a pair
        emb = l2_normalize(np.array([[1.0, 0.01], [1.0, -0.01],
                                     [-1.0, 0.02], [-1.0, -0.02]]))
        jac = jaccard_distance(k_reciprocal_neighbors(emb, 1))
        assert jac.nnz == 8 and np.all(jac.data == 0.0)
        lab = pseudo_label(emb, k=1, eps=0.1, min_pts=1)
        assert lab.assignment.tolist() == [0, 0, 1, 1]

    def test_eps_at_least_one_rejected(self, rng):
        emb = tie_rich_emb(rng, 12)
        for eps in (1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="eps"):
                pseudo_label(emb, k=3, eps=eps, min_pts=2)

    PEAK_N = 3000

    def labeling_peaks(self, rng):
        """The tracemalloc peak of ``pseudo_label`` at k=30 on PEAK_N near
        copies of 150 prototypes, and on exact ones, where every row takes
        per-pair distances for its 20 tied columns."""
        protos = l2_normalize(rng.standard_normal((150, 64)))
        copies = np.repeat(protos, self.PEAK_N // 150, axis=0)
        noise = 0.05 * rng.standard_normal(copies.shape)
        peaks = []
        for emb in (l2_normalize(copies + noise), copies):
            tracemalloc.start()
            try:
                lab = pseudo_label(emb, k=30, eps=0.45, min_pts=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert lab.num_clusters > 0
        return peaks

    def test_peak_memory_below_one_dense_matrix(self, rng):
        n = self.PEAK_N
        for peak in self.labeling_peaks(rng):
            assert peak < n * n * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_peak_memory_is_a_few_row_blocks(self, rng):
        # a 64 x 3000 float64 block is 1.5 MiB; ranking 256-row blocks
        # beside an N x (D+1) operand copy peaked at 21 and 34 MiB here
        for peak in self.labeling_peaks(rng):
            assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# distances 1 - |A & B| / |A | B| of small sets, so eps lands on the boundary
JACCARD_VALUES = sorted({1.0 - a / b for b in range(2, 12) for a in range(1, b)})


@st.composite
def tie_rich_embeddings(draw):
    """2..30 rows of ``lattice_rows`` over 1..10 points in 2..4 dims."""
    base = draw(hnp.arrays(np.int8, (draw(st.integers(1, 10)), draw(st.integers(2, 4))),
                           elements=st.integers(-1, 1)))
    picks = draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=2, max_size=30))
    return lattice_rows(base, picks)


@settings(max_examples=150, deadline=None)
@given(emb=tie_rich_embeddings(), data=st.data())
def test_pseudo_label_matches_dense_oracle_chain(emb, data):
    k = data.draw(st.integers(1, emb.shape[0] - 1), label="k")
    eps = data.draw(st.floats(0.01, 0.99) | st.sampled_from(JACCARD_VALUES), label="eps")
    min_pts = data.draw(st.integers(1, 5), label="min_pts")
    got = pseudo_label(emb, k, eps, min_pts)
    jac = ref_jaccard(ref_kreciprocal(blocked_dist(emb), k))
    ref_labels, ref_c = ref_dbscan(jac, eps, min_pts)
    assert got.num_clusters == ref_c
    assert got.assignment.tolist() == ref_labels.tolist()


@st.composite
def near_copies(draw, jitter):
    """9..40 copies, over 1..4 real-valued unit rows in 2..64 dims, of which
    each entry is scaled by ``jitter(rng, shape)``, plus k and a block size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    base = l2_normalize(rng.standard_normal((draw(st.integers(1, 4)),
                                             draw(st.integers(2, 64)))))
    n = draw(st.integers(9, 40))
    emb = base[rng.integers(0, base.shape[0], size=n)]
    emb = emb * jitter(rng, emb.shape)
    return emb, draw(st.integers(1, n - 1), label="k"), draw(st.integers(1, n + 1), label="block")


def check_kreciprocal_blocks(case):
    emb, k, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "BLOCK_ROWS", block)
        got = k_reciprocal_neighbors(emb, k)
    assert np.array_equal(got.toarray(), ref_kreciprocal(blocked_dist(emb, block), k))


@settings(max_examples=200, deadline=None)
@given(case=near_copies(lambda rng, shape: 1.0 + np.finfo(float).eps
                        * rng.integers(-4, 5, size=shape)))
def test_kreciprocal_ulp_apart_copies_tie_by_distance(case):
    # copies a few ulps apart have distinct similarities that often round
    # to one distance: that tie must still go to the lower index
    check_kreciprocal_blocks(case)


@settings(max_examples=200, deadline=None)
@given(case=near_copies(lambda rng, shape: 1.0 + rng.uniform(0.0, 5e-5, size=(shape[0], 1))))
def test_kreciprocal_scaled_copies_rank_by_distance(case):
    # rows scaled by up to 1 + 5e-5: copies of one row have distinct
    # similarities above 1 and small distinct distances
    check_kreciprocal_blocks(case)


@st.composite
def repeated_rows(draw):
    """2..5 real-valued unit rows in 8..64 dims repeated over 9..40
    positions, and k in 2..5. A GEMM can give copies of a row unequal
    distances when they fall in different kernel tails, and then the
    lower-index rule picks copies by position."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    base = l2_normalize(rng.standard_normal((draw(st.integers(2, 5)),
                                             draw(st.integers(8, 64)))))
    emb = base[rng.integers(0, base.shape[0], size=draw(st.integers(9, 40)))]
    return emb, draw(st.integers(2, 5), label="k")


@settings(max_examples=200, deadline=None)
@given(case=repeated_rows())
def test_kreciprocal_copies_tie_to_lower_index(case):
    emb, k = case
    got = k_reciprocal_neighbors(emb, k)
    assert np.array_equal(got.toarray(), ref_kreciprocal(blocked_dist(emb), k))
