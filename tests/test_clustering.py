import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from hybridreid import (OUTLIER, MLPEncoder, SynthSpec, TrainConfig, clustering, dbscan,
                        embed_all, generate, l2_normalize, load_features, pseudo_label,
                        save_features)
from hybridreid.clustering import BLOCK_ROWS, jaccard_distance, k_reciprocal_neighbors
from hybridreid.core import _max_clusters

from oracles import (
    explicit_pairs,
    ref_dbscan,
    ref_jaccard,
    ref_kreciprocal,
    ref_pairwise_euclidean,
    scan_order_dbscan,
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


def as_sets(dense):
    """The ``(indptr, indices)`` sets of the boolean rows of ``dense``, each
    row without its own sample."""
    dense = np.asarray(dense, dtype=bool) & ~np.eye(len(dense), dtype=bool)
    rows, cols = np.nonzero(dense)
    return np.searchsorted(rows, np.arange(len(dense) + 1)), cols


def set_matrix(sets):
    """Boolean matrix of ``(indptr, indices)`` sets, checking that each row
    is strictly ascending."""
    indptr, indices = sets
    n = indptr.size - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    assert indptr[0] == 0 and np.all(np.diff(rows * n + indices) > 0)
    out = np.zeros((n, n), dtype=bool)
    out[rows, indices] = True
    return out


def densify(pairs):
    """Dense copy of Jaccard pairs, checking that each pair i < j is stored
    once in ascending order; absent pairs at distance 1, the diagonal at 0."""
    n, i, j, dist = pairs
    assert np.all(i < j) and np.all(np.diff(i.astype(np.int64) * n + j) > 0)
    out = np.ones((n, n))
    np.fill_diagonal(out, 0.0)
    out[i, j] = out[j, i] = dist
    return out


# point 8 is border (2 neighbors < min_pts 3 at eps 0.36) and within eps
# of cores in two clusters
BORDER_PTS = np.array([0.0, 0.1, 0.2, 0.3, 1.0, 1.1, 1.2, 1.3, 0.65])


class CountingMinimumAt:
    """Stands in for the numpy module: the same, except that it counts the
    calls of ``minimum.at``."""

    def __init__(self):
        self.calls = 0
        counter = self

        class Minimum:
            __call__ = staticmethod(np.minimum)

            @staticmethod
            def at(*args):
                counter.calls += 1
                return np.minimum.at(*args)

        self.minimum = Minimum()

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture(scope="module")
def label_heavy_pairs(tmp_path_factory):
    """The Jaccard pairs of the first epoch of the benchmark's label-heavy
    workload at seed 101: N = 4000 (200 identities x 20 instances, 32 dims)
    embedded by the untrained seed-101 encoder, at the default config."""
    path = tmp_path_factory.mktemp("label_heavy") / "train.feat"
    save_features(generate(SynthSpec(num_identities=200, instances_per_identity=20,
                                     dims=32, seed=101))[0], path)
    cfg = TrainConfig(seed=101)
    emb = embed_all(MLPEncoder([32, *cfg.hidden_dims], seed=cfg.seed),
                    load_features(path).features)
    return jaccard_distance(k_reciprocal_neighbors(emb, cfg.kreciprocal_k)), cfg


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
            got = set_matrix(k_reciprocal_neighbors(emb, k))
            assert np.array_equal(got, ref_kreciprocal(blocked_dist(emb, block), k))

    def test_symmetric_and_irreflexive(self, rng):
        got = set_matrix(k_reciprocal_neighbors(tie_rich_emb(rng, 25), 6))
        assert np.array_equal(got, got.T)
        assert not np.diagonal(got).any()

    def test_duplicate_points_tie_break(self):
        # four identical points: kNN with k=2 keeps the two lowest indices
        emb = np.tile([[0.6, 0.8]], (4, 1))
        got = set_matrix(k_reciprocal_neighbors(emb, 2))
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
            got = set_matrix(k_reciprocal_neighbors(emb, 3))
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
            got = jaccard_distance(as_sets(sets))
            assert np.array_equal(densify(got), ref_jaccard(sets))

    def test_range_symmetry_diagonal(self, rng):
        sets = rng.random((30, 30)) < 0.2
        sets = sets | sets.T
        got = densify(jaccard_distance(as_sets(sets)))
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)

    def test_empty_sets_still_defined(self):
        # rows with no reciprocal neighbors reduce to singleton {i}
        got = jaccard_distance(as_sets(np.zeros((3, 3), dtype=bool)))
        assert got[1].size == 0  # no two sets share a member
        got = densify(got)
        assert np.all(np.diag(got) == 0.0)
        assert np.all(got[~np.eye(3, dtype=bool)] == 1.0)

    def test_identical_sets_distance_zero(self):
        got = jaccard_distance(as_sets(np.ones((4, 4), dtype=bool)))
        # every pair i < j is stored, at an explicit distance of 0
        assert got[1].size == 6 and np.all(got[3] == 0.0)
        assert np.all(densify(got) == 0.0)

    def test_only_pairs_within_two_hops_stored(self, rng):
        sets = rng.random((40, 40)) < 0.05
        sets = sets | sets.T
        star = (sets | np.eye(40, dtype=bool)).astype(int)
        shared = star @ star.T > 0
        n, i, j, _ = jaccard_distance(as_sets(sets))
        stored = np.zeros((40, 40), dtype=bool)
        stored[i, j] = True
        assert np.array_equal(stored, np.triu(shared, 1))

    def test_pair_keys_past_the_int32_range(self, rng):
        # n * n >= 2**31 needs int64 pair keys i * n + j: sets among 12
        # samples, half of them at the top of a 50,000-sample index range
        n = 50_000
        where = np.array([0, 1, 2, 3, 4, 5, n - 6, n - 5, n - 4, n - 3, n - 2, n - 1])
        local = rng.random((12, 12)) < 0.4
        local = local | local.T
        rows, cols = np.nonzero(local & ~np.eye(12, dtype=bool))
        sets = (np.searchsorted(where[rows], np.arange(n + 1)), where[cols])
        got_n, i, j, dist = jaccard_distance(sets)
        assert got_n == n and np.all(np.isin(i, where)) and np.all(np.isin(j, where))
        assert (i.astype(np.int64) * n + j).max() >= 2**31
        back = np.searchsorted(where, [i, j])
        assert np.array_equal(densify((12, back[0], back[1], dist)), ref_jaccard(local))


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
        lab = dbscan(explicit_pairs(d), eps=0.35, min_pts=2)
        assert lab.assignment.tolist() == [0, 0, 0, 0, OUTLIER]
        assert lab.num_clusters == 1
        assert lab.num_outliers == 1

    def test_border_goes_to_first_claiming_cluster(self):
        # point 8 must join the lower-numbered of its two clusters
        d = np.abs(BORDER_PTS[:, None] - BORDER_PTS)
        lab = dbscan(explicit_pairs(d), eps=0.36, min_pts=3)
        assert lab.num_clusters == 2
        assert lab.assignment[8] == lab.assignment[0] == 0
        assert lab.assignment[4] == 1

    def test_matches_reference_partition(self, rng):
        for trial in range(25):
            n = int(rng.integers(10, 60))
            d = random_dist(rng, n)
            eps = float(rng.uniform(0.5, 4.0))
            min_pts = int(rng.integers(1, 8))
            got = dbscan(explicit_pairs(d), eps, min_pts)
            ref_labels, ref_c = ref_dbscan(d, eps, min_pts)
            assert got.num_clusters == ref_c
            # deterministic numbering must match the reference exactly,
            # not just up to relabeling
            assert got.assignment.tolist() == ref_labels.tolist()

    def test_all_outliers(self):
        d = np.full((5, 5), 10.0)
        np.fill_diagonal(d, 0.0)
        lab = dbscan(explicit_pairs(d), eps=0.1, min_pts=2)
        assert lab.num_clusters == 0
        assert lab.num_outliers == 5

    def test_min_pts_excludes_self(self):
        # pair of mutual neighbors: each has exactly 1 neighbor besides
        # itself, so min_pts=2 leaves both as outliers
        d = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert dbscan(explicit_pairs(d), eps=0.2, min_pts=2).num_clusters == 0
        assert dbscan(explicit_pairs(d), eps=0.2, min_pts=1).num_clusters == 1

    def test_sparse_matches_dense(self, rng):
        zero_pairs = 0
        for trial in range(25):
            n = int(rng.integers(10, 60))
            d = random_dist(rng, n)
            # eps equal to a stored distance: the boundary pairs are neighbors
            eps = float(rng.choice(d[(d >= 0.5) & (d <= 4.0)]))
            min_pts = int(rng.integers(1, 8))
            # store every pair within eps and some beyond it, zeros included
            i, j = np.nonzero(np.triu(d <= eps + rng.uniform(0.0, 1.0), 1))
            zero_pairs += np.count_nonzero(d[i, j] == 0.0)
            got = dbscan((n, i, j, d[i, j]), eps, min_pts)
            ref_labels, ref_c = ref_dbscan(d, eps, min_pts)
            assert got.num_clusters == ref_c
            assert got.assignment.tolist() == ref_labels.tolist()
        # points at one lattice site are neighbors at a stored distance of 0
        assert zero_pairs > 0

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
        lab = dbscan(explicit_pairs(d), eps=0.5, min_pts=3)
        assert lab.assignment.tolist() == [0] * 4 + [1] * 4 + [2] * 4 + [3]
        assert 13 // (3 + 1) < lab.num_clusters <= _max_clusters(13, 3)
        for trial in range(200):
            n = int(rng.integers(2, 40))
            within = rng.random((n, n)) < rng.uniform(0.02, 0.4)
            d = np.where(within | within.T, 0.1, 1.0)
            np.fill_diagonal(d, 0.0)
            min_pts = int(rng.integers(1, 7))
            lab = dbscan(explicit_pairs(d), 0.5, min_pts)
            assert lab.num_clusters <= _max_clusters(n, min_pts)

    def test_parameter_validation(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            dbscan(explicit_pairs(d), eps=0.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan(explicit_pairs(d), eps=0.1, min_pts=0)

    def test_malformed_pairs_rejected(self):
        # a dense matrix is not pairs; pairs out of range, reversed, on the
        # diagonal, repeated or out of order would miscount neighbors
        with pytest.raises(TypeError, match="pairs"):
            dbscan(np.zeros((3, 3)), eps=0.1, min_pts=1)
        n, i, j, dist = explicit_pairs(np.zeros((4, 4)))  # (0,1) (0,2) (0,3) (1,2) ...
        none = np.array([], dtype=np.int64)
        bad = {
            "lengths": (n, i, j[:-1], dist),
            "float ids": (n, i.astype(float), j, dist),
            "2-d": (n, i[:, None], j[:, None], dist[:, None]),
            "beyond n": (3, i, j, dist),
            "negative": (n, i - 1, j, dist),
            "reversed": (n, j, i, dist),
            "diagonal": (n, np.r_[i, 3], np.r_[j, 3], np.r_[dist, 0.0]),
            "repeated": (n, np.r_[i, 2], np.r_[j, 3], np.r_[dist, 0.0]),
            "unordered": (n, i[::-1], j[::-1], dist),
            "negative n": (-1, none, none, np.array([])),
            "float n": (4.0, i, j, dist),
            "numpy float n": (np.float64(4.0), i, j, dist),
            "bool n": (True, none, none, np.array([])),
        }
        for name, pairs in bad.items():
            with pytest.raises(ValueError, match="pairs"):
                dbscan(pairs, eps=0.1, min_pts=1)
        assert dbscan((n, i, j, dist), eps=0.1, min_pts=1).num_clusters == 1
        assert dbscan((np.int64(n), i, j, dist), eps=0.1, min_pts=1).num_clusters == 1
        assert dbscan((0, none, none, np.array([])), eps=0.1, min_pts=1).num_samples == 0

    @pytest.mark.parametrize("order", ["sorted", "reversed", "random"])
    def test_hooking_rounds_on_a_long_chain(self, order):
        # a chain is the worst case for label propagation; hooking and
        # pointer jumping must join it in at most 2 ceil(log2 n) + 1 rounds
        n = 20_000
        path = {"sorted": np.arange(n), "reversed": np.arange(n)[::-1],
                "random": np.random.default_rng(7).permutation(n)}[order]
        key = np.sort(np.minimum(path[1:], path[:-1]) * n + np.maximum(path[1:], path[:-1]))
        pairs = (n, key // n, key % n, np.zeros(n - 1))
        hooks = CountingMinimumAt()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "np", hooks)
            # min_pts=2 leaves the two ends of the chain as border points
            got = dbscan(pairs, eps=0.5, min_pts=2)
        ref_labels, ref_c = scan_order_dbscan(pairs, 0.5, 2)
        assert got.num_clusters == ref_c == 1
        assert got.assignment.tolist() == ref_labels.tolist()
        # every call but the two border passes is one hooking round
        assert 1 <= hooks.calls - 2 <= 2 * int(np.ceil(np.log2(n))) + 1

    def test_peak_memory_on_label_heavy_pairs(self, label_heavy_pairs):
        # the breadth-first form copied its neighbor arrays into Python
        # lists and peaked at 4.9 MiB on these pairs
        pairs, cfg = label_heavy_pairs
        tracemalloc.start()
        try:
            lab = dbscan(pairs, cfg.dbscan_eps, cfg.dbscan_min_pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lab.num_clusters > 0
        assert peak < 3.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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
        n, i, j, dist = jaccard_distance(k_reciprocal_neighbors(emb, 1))
        assert i.tolist() == [0, 2] and j.tolist() == [1, 3] and np.all(dist == 0.0)
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


@st.composite
def labeling_cases(draw):
    """``tie_rich_embeddings`` with k in 1..n-1, k = n - 1 drawn often, an
    eps that is often a Jaccard value, and min_pts in 1..5."""
    emb = draw(tie_rich_embeddings())
    n = emb.shape[0]
    k = draw(st.just(n - 1) | st.integers(1, n - 1), label="k")
    eps = draw(st.floats(0.01, 0.99) | st.sampled_from(JACCARD_VALUES), label="eps")
    return emb, k, eps, draw(st.integers(1, 5), label="min_pts")


@settings(max_examples=150, deadline=None)
@given(case=labeling_cases())
# every row an exact copy of one point, at k = n - 1: all sets are equal
@example(case=(lattice_rows([[1, 0]], [0] * 7), 6, 0.01, 2))
# exact copies of two points, at k = n - 1 and at k below a copy count
@example(case=(lattice_rows([[1, 0], [0, 1]], [0, 1, 1, 0, 0, 1, 0]), 6, 0.25, 3))
@example(case=(lattice_rows([[1, 0], [0, 1]], [0, 1, 1, 0, 0, 1, 0]), 2, 0.5, 1))
def test_pseudo_label_matches_dense_oracle_chain(case):
    emb, k, eps, min_pts = case
    got = pseudo_label(emb, k, eps, min_pts)
    jac = ref_jaccard(ref_kreciprocal(blocked_dist(emb), k))
    ref_labels, ref_c = ref_dbscan(jac, eps, min_pts)
    assert got.num_clusters == ref_c
    assert got.assignment.tolist() == ref_labels.tolist()


# pair distances, zeros included; eps often lands on one of them
DIST_GRID = [0.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


@st.composite
def pair_graphs(draw):
    """``(n, i, j, dist)`` pairs over 1..60 points with an eps and min_pts
    in 1..6: random pairs, often with a chain and a star laid over them and
    some points cut off, at distances on DIST_GRID."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(1, 60), label="n")
    adj = rng.random((n, n)) < draw(st.floats(0.0, 0.3), label="density")
    if draw(st.booleans(), label="chain"):
        path = rng.permutation(n)[:rng.integers(1, n + 1)]
        adj[path[:-1], path[1:]] = True
    if draw(st.booleans(), label="star"):
        adj[rng.integers(n), rng.random(n) < 0.5] = True
    isolated = rng.random(n) < draw(st.floats(0.0, 0.3), label="isolated")
    adj[isolated] = adj[:, isolated] = False
    i, j = np.nonzero(np.triu(adj | adj.T, 1))
    eps = draw(st.sampled_from(DIST_GRID[2:]) | st.floats(0.01, 0.99), label="eps")
    return (n, i, j, rng.choice(DIST_GRID, size=i.size)), eps, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(case=pair_graphs())
@example(case=(explicit_pairs(np.abs(BORDER_PTS[:, None] - BORDER_PTS)), 0.36, 3))
def test_dbscan_matches_scan_order_expansion(case):
    pairs, eps, min_pts = case
    got = dbscan(pairs, eps, min_pts)
    ref_labels, ref_c = scan_order_dbscan(pairs, eps, min_pts)
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
    assert np.array_equal(set_matrix(got), ref_kreciprocal(blocked_dist(emb, block), k))


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
    assert np.array_equal(set_matrix(got), ref_kreciprocal(blocked_dist(emb), k))
