import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridreid import EvaluationError, NumericError, evaluate_retrieval, l2_normalize
from hybridreid import evaluation
from hybridreid.evaluation import SCREEN_BLOCK

from oracles import (
    ref_average_precision,
    ref_cmc,
    ref_evaluate,
    ref_rank_gallery,
    ref_relevance,
)


def embed_on_line(values):
    """1-d points lifted to 2-d unit-ish vectors keeping their order."""
    v = np.asarray(values, dtype=np.float64)
    return np.stack([v, np.ones_like(v)], axis=1)


def average_precision(relevant):
    """Query 0's AP from evaluate_retrieval on a gallery laid out on a line
    in the order of ``relevant`` (NaN when nothing is relevant), checked
    against the reference form. A second query, matched by a far gallery
    item that ranks last for query 0, keeps the evaluation scorable."""
    n = len(relevant)
    q = embed_on_line([0.0, 100.0])
    g = embed_on_line([*range(1, n + 1), 100.0])
    g_ids = [1 if r else 2 for r in relevant] + [3]
    res = evaluate_retrieval(q, g, [1, 3], [0, 0], g_ids, [1] * (n + 1))
    ap = res.average_precisions[0]
    ref = ref_average_precision(relevant)
    assert np.isnan(ap) if ref is None else abs(ap - ref) < 1e-15
    return ap


class TestAveragePrecision:
    def test_two_relevant_at_ranks_one_and_three(self):
        # precision 1/1 at the first hit, 2/3 at the second: AP = 0.8333
        rel = np.array([True, False, True, False])
        assert abs(average_precision(rel) - 0.8333333333333333) < 1e-12

    def test_perfect_ranking(self):
        assert average_precision(np.array([True, True, False])) == 1.0

    def test_no_relevant_returns_none(self):
        assert np.isnan(average_precision(np.array([False, False])))

    def test_single_relevant_last(self):
        rel = np.array([False, False, False, True])
        assert abs(average_precision(rel) - 0.25) < 1e-12


def gallery_ranks(query, gallery):
    """1-based rank of every gallery item for one query, read back from
    evaluate_retrieval: one copy of the query per item, each matching only
    that item (other camera, so never junk), scores AP = 1 / rank."""
    n = len(gallery)
    res = evaluate_retrieval(np.tile(query, (n, 1)), gallery, np.arange(n),
                             np.zeros(n), np.arange(n), np.ones(n))
    return 1.0 / res.average_precisions


class TestRankGallery:
    """The gallery order evaluate_retrieval scores against."""

    def test_sorted_by_distance(self, rng):
        q = l2_normalize(rng.standard_normal((3, 5)))
        g = l2_normalize(rng.standard_normal((8, 5)))
        for qi in range(3):
            d = np.linalg.norm(g - q[qi], axis=1)
            ranking = np.argsort(gallery_ranks(q[qi], g))
            assert np.all(np.diff(d[ranking]) >= -1e-12)

    def test_tie_broken_by_lower_index(self):
        q = np.array([1.0, 0.0])
        g = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert gallery_ranks(q, g).tolist() == [2.0, 1.0, 3.0]

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            evaluate_retrieval(np.ones((1, 3)), np.ones((2, 4)), [0], [0],
                               [0, 0], [1, 1])

    def test_empty_gallery(self):
        with pytest.raises(ValueError):
            evaluate_retrieval(np.ones((1, 3)), np.ones((0, 3)), [0], [0], [], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["query", "gallery"])
    def test_non_finite_embeddings_rejected(self, side, bad):
        q = embed_on_line([0.0, 1.0])
        g = embed_on_line([0.1, 0.9, 2.0])
        (q if side == "query" else g)[1, 0] = bad
        with pytest.raises(NumericError):
            evaluate_retrieval(q, g, [1, 2], [0, 0], [1, 2, 3], [1, 1, 1])

    @pytest.mark.parametrize("name", ["q_ids", "q_cams", "g_ids", "g_cams"])
    def test_misaligned_labels_rejected(self, name):
        labels = {"q_ids": [1, 2], "q_cams": [0, 0], "g_ids": [1, 2, 3],
                  "g_cams": [1, 1, 1]}
        labels[name] = labels[name][:-1]
        with pytest.raises(ValueError, match=name):
            evaluate_retrieval(embed_on_line([0.0, 1.0]),
                               embed_on_line([0.1, 0.9, 2.0]), **labels)


class TestJunkFiltering:
    def test_same_id_same_camera_removed(self):
        # the nearest gallery item shares id AND camera: it must not
        # count as the rank-1 match
        q = embed_on_line([0.0])
        g = embed_on_line([0.01, 0.5, 1.0])
        g_ids = np.array([7, 7, 3])
        g_cams = np.array([0, 1, 0])
        res = evaluate_retrieval(q, g, [7], [0], g_ids, g_cams)
        # junk removed: ranking over kept = [id7/cam1, id3]; AP = 1
        assert res.map == 1.0
        assert res.cmc[1] == 1.0

    def test_same_id_other_camera_kept(self):
        q = embed_on_line([0.0])
        g = embed_on_line([0.2, 0.4])
        res = evaluate_retrieval(q, g, [1], [0], [1, 1], [1, 0])
        # cam-0 twin is junk; cam-1 item remains relevant at rank 1
        assert res.map == 1.0

    def test_other_id_same_camera_kept(self):
        q = embed_on_line([0.0])
        g = embed_on_line([0.1, 0.9])
        res = evaluate_retrieval(q, g, [1], [0], [2, 1], [0, 1])
        # distractor with same camera but different id stays in the list
        assert abs(res.map - 0.5) < 1e-12

    def test_query_with_only_junk_matches_is_skipped(self):
        q = embed_on_line([0.0, 5.0])
        g = embed_on_line([0.1, 5.1, 5.2])
        q_ids, q_cams = [1, 2], [0, 1]
        g_ids = np.array([1, 2, 9])
        g_cams = np.array([0, 0, 0])
        res = evaluate_retrieval(q, g, q_ids, q_cams, g_ids, g_cams)
        # query 0's only match is junk -> NaN AP, excluded from the mean
        assert np.isnan(res.average_precisions[0])
        assert not np.isnan(res.average_precisions[1])

    def test_all_queries_filtered_raises(self):
        q = embed_on_line([0.0])
        g = embed_on_line([0.1])
        with pytest.raises(EvaluationError):
            evaluate_retrieval(q, g, [1], [0], [1], [0])

    def test_filter_can_be_disabled(self):
        q = embed_on_line([0.0])
        g = embed_on_line([0.1, 0.2])
        res = evaluate_retrieval(q, g, [1], [0], [1, 2], [0, 0],
                                 junk_filter=False)
        assert res.map == 1.0


class TestCmc:
    def test_first_hit_rank(self):
        # the only match ranks 6th: a miss at ranks 1 and 5, a hit at 10
        q = embed_on_line([0.0])
        g = embed_on_line([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
        res = evaluate_retrieval(q, g, [5], [0], [9, 9, 9, 9, 9, 5, 9], [1] * 7)
        assert res.cmc == {1: 0.0, 5: 0.0, 10: 1.0}

    def test_denominator_counts_only_valid_queries(self):
        q = embed_on_line([0.0, 1.0])
        g = embed_on_line([0.0, 1.0])
        # query 0 has no relevant at all; query 1 hits at rank 1
        res = evaluate_retrieval(q, g, [8, 2], [0, 0], [3, 2], [1, 1])
        assert res.cmc[1] == 1.0


class TestAgainstBruteForce:
    def test_random_instances_match_to_1e12(self, rng):
        for trial in range(30):
            nq = int(rng.integers(1, 20))
            ng = int(rng.integers(5, 50))
            d = int(rng.integers(2, 8))
            q = rng.standard_normal((nq, d))
            g = rng.standard_normal((ng, d))
            q_ids = rng.integers(0, 6, size=nq)
            g_ids = rng.integers(0, 6, size=ng)
            q_cams = rng.integers(0, 3, size=nq)
            g_cams = rng.integers(0, 3, size=ng)
            try:
                res = evaluate_retrieval(q, g, q_ids, q_cams, g_ids, g_cams)
            except EvaluationError:
                with pytest.raises(ValueError):
                    ref_evaluate(q, g, q_ids, q_cams, g_ids, g_cams)
                continue
            ref_map, ref_cmc, ref_aps = ref_evaluate(
                q, g, q_ids, q_cams, g_ids, g_cams
            )
            assert abs(res.map - ref_map) < 1e-12
            for k in (1, 5, 10):
                assert abs(res.cmc[k] - ref_cmc[k]) < 1e-12
            for ap, ref_ap in zip(res.average_precisions, ref_aps):
                if ref_ap is None:
                    assert np.isnan(ap)
                else:
                    assert abs(ap - ref_ap) < 1e-12

    def test_mean_average_precision_standalone(self, rng):
        q = rng.standard_normal((6, 4))
        g = rng.standard_normal((20, 4))
        q_ids = rng.integers(0, 3, size=6)
        g_ids = rng.integers(0, 3, size=20)
        q_cams = np.zeros(6, dtype=int)
        g_cams = np.ones(20, dtype=int)
        rankings = ref_rank_gallery(q, g)
        aps = [
            ref_average_precision(ref_relevance(r, q_ids[i], q_cams[i], g_ids, g_cams))
            for i, r in enumerate(rankings)
        ]
        direct = np.mean([ap for ap in aps if ap is not None])
        res = evaluate_retrieval(q, g, q_ids, q_cams, g_ids, g_cams)
        assert abs(direct - res.map) < 1e-15

    def test_cmc_standalone_matches(self, rng):
        q = rng.standard_normal((5, 4))
        g = rng.standard_normal((15, 4))
        q_ids = rng.integers(0, 3, size=5)
        g_ids = rng.integers(0, 3, size=15)
        cams_q = np.zeros(5, dtype=int)
        cams_g = np.ones(15, dtype=int)
        rankings = ref_rank_gallery(q, g)
        cmc = ref_cmc([
            ref_relevance(r, q_ids[i], cams_q[i], g_ids, cams_g)
            for i, r in enumerate(rankings)
        ])
        res = evaluate_retrieval(q, g, q_ids, cams_q, g_ids, cams_g)
        assert cmc == res.cmc


@st.composite
def tie_rich_retrieval(draw):
    """Lattice points (exact distances, many ties), gallery rows drawn with
    repeats, three ids and two cameras, so queries whose only matches are
    junk and sets where every query is junk-only both occur."""
    lattice = st.tuples(st.integers(0, 2), st.integers(0, 2))
    nq = draw(st.integers(1, 12))
    distinct = draw(st.lists(lattice, min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    ids, cams = st.integers(0, 2), st.integers(0, 1)
    return (
        np.array(draw(st.lists(lattice, min_size=nq, max_size=nq)), dtype=float),
        np.array(rows, dtype=float),
        np.array(draw(st.lists(ids, min_size=nq, max_size=nq))),
        np.array(draw(st.lists(cams, min_size=nq, max_size=nq))),
        np.array(draw(st.lists(ids, min_size=len(rows), max_size=len(rows)))),
        np.array(draw(st.lists(cams, min_size=len(rows), max_size=len(rows)))),
    )


def assert_matches_reference(case, junk_filter):
    """evaluate_retrieval agrees with ref_evaluate to 1e-12, with the same
    NaN pattern, and raises EvaluationError exactly when it raises."""
    try:
        res = evaluate_retrieval(*case, junk_filter=junk_filter)
    except EvaluationError:
        with pytest.raises(ValueError):
            ref_evaluate(*case, junk_filter=junk_filter)
        return
    ref_map, ref_cmc, ref_aps = ref_evaluate(*case, junk_filter=junk_filter)
    assert abs(res.map - ref_map) <= 1e-12
    assert res.cmc.keys() == ref_cmc.keys()
    for k in ref_cmc:
        assert abs(res.cmc[k] - ref_cmc[k]) <= 1e-12
    assert [np.isnan(ap) for ap in res.average_precisions] == [
        ap is None for ap in ref_aps
    ]
    for ap, ref_ap in zip(res.average_precisions, ref_aps):
        if ref_ap is not None:
            assert abs(ap - ref_ap) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(case=tie_rich_retrieval(), junk_filter=st.booleans())
def test_single_pass_matches_per_query_reference(case, junk_filter):
    assert_matches_reference(case, junk_filter)


@st.composite
def multi_block_retrieval(draw):
    """Tie-rich lattice rows for one to three screen blocks of queries.
    Gallery ids are 0-2 and query ids 0-4, so some query identities are
    absent from the gallery, and one whole block of queries carries only
    those, so at least one block scores no query."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nq = draw(st.integers(SCREEN_BLOCK + 1, 3 * SCREEN_BLOCK))
    ng = draw(st.integers(1, 60))
    distinct = rng.integers(0, 3, (draw(st.integers(1, 8)), 2))
    q_ids = rng.integers(0, 5, nq)
    empty = draw(st.integers(0, nq // SCREEN_BLOCK - 1)) * SCREEN_BLOCK
    q_ids[empty:empty + SCREEN_BLOCK] = rng.integers(3, 5, SCREEN_BLOCK)
    return (
        rng.integers(0, 3, (nq, 2)).astype(float),
        distinct[rng.integers(0, len(distinct), ng)].astype(float),
        q_ids,
        rng.integers(0, 2, nq),
        rng.integers(0, 3, ng),
        rng.integers(0, 2, ng),
    )


@settings(max_examples=100, deadline=None)
@given(case=multi_block_retrieval(), junk_filter=st.booleans())
def test_blocks_match_per_query_reference(case, junk_filter):
    assert_matches_reference(case, junk_filter)


def per_query_scores(case):
    """APs and first-hit CMC from one evaluate_retrieval call per query."""
    q, g, q_ids, q_cams, g_ids, g_cams = case
    aps, cmcs = [], []
    for i in range(len(q)):
        try:
            res = evaluate_retrieval(q[i:i + 1], g, q_ids[i:i + 1],
                                     q_cams[i:i + 1], g_ids, g_cams)
        except EvaluationError:
            aps.append(np.nan)
            continue
        aps.append(res.average_precisions[0])
        cmcs.append(res.cmc)
    return np.array(aps), {k: np.mean([c[k] for c in cmcs]) for k in cmcs[0]}


@pytest.mark.parametrize("seed", range(3))
def test_scores_do_not_depend_on_blocking(seed, monkeypatch):
    """Real-valued rows with duplicates, some query ids absent from the
    gallery: one call, one call per query and blocks of 1 and 7 queries
    give the same APs and CMC bit for bit."""
    rng = np.random.default_rng(seed)
    nq = 3 * SCREEN_BLOCK + 5
    distinct = l2_normalize(rng.standard_normal((40, 16)))
    case = (
        np.concatenate([distinct[rng.integers(0, 40, nq // 2)],
                        l2_normalize(rng.standard_normal((nq - nq // 2, 16)))]),
        distinct[rng.integers(0, 40, 300)],
        rng.integers(0, 12, nq),
        rng.integers(0, 3, nq),
        rng.integers(0, 10, 300),
        rng.integers(0, 3, 300),
    )
    whole = evaluate_retrieval(*case)
    aps, cmc = per_query_scores(case)
    assert np.array_equal(whole.average_precisions, aps, equal_nan=True)
    assert whole.cmc == cmc
    for block in (1, 7):
        monkeypatch.setattr(evaluation, "SCREEN_BLOCK", block)
        res = evaluate_retrieval(*case)
        assert np.array_equal(res.average_precisions, aps, equal_nan=True)
        assert res.cmc == cmc


@st.composite
def duplicated_real_rows(draw):
    """Real-valued unit rows repeated at random gallery positions, and
    queries copied from them. Lattice points cannot stand in: a GEMM
    distance computes them exactly, while on real values it can give two
    copies of a row unequal distances and so break the lower-index rule."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nd, dims = draw(st.integers(1, 2)), draw(st.integers(2, 64))
    nq, ng = draw(st.integers(1, 4)), draw(st.integers(9, 40))
    distinct = l2_normalize(rng.standard_normal((nd, dims)))
    return (
        distinct[rng.integers(0, nd, nq)],
        distinct[rng.integers(0, nd, ng)],
        rng.integers(0, 3, nq),
        rng.integers(0, 2, nq),
        rng.integers(0, 3, ng),
        rng.integers(0, 2, ng),
    )


@settings(max_examples=200, deadline=None)
@given(case=duplicated_real_rows(), junk_filter=st.booleans())
def test_duplicate_rows_tie_to_lower_index(case, junk_filter):
    assert_matches_reference(case, junk_filter)


@st.composite
def screen_adversarial(draw):
    """Lattice points around a far center. ``cdist`` and the reference get
    their distances exactly (exact ties, and near-ties one lattice step
    apart), while the screen's GEMM form rounds at about eps |center|^2,
    far above a step. A few distinct rows fill the near gallery, so a
    query's farthest match recurs at many positions under other ids; the
    other two thirds are distractors far off, so the screen has to cut.
    Center norms run from about 1e-3 to 1e3, dims from 2 to 64, and the
    queries span more than one screen block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.integers(2, 64))
    nq = draw(st.integers(SCREEN_BLOCK + 1, 2 * SCREEN_BLOCK + 8))
    n_near, n_ids = draw(st.integers(8, 40)), draw(st.integers(3, 12))
    # coordinates are integer multiples of a step 2^-30 of the center's
    # norm, so every point, difference, square and sum cdist takes is exact
    scale = 2.0 ** draw(st.integers(-10, 10))
    step = scale * 2.0 ** -30
    center = np.round(rng.standard_normal(dims) / np.sqrt(dims) * 2.0 ** 30) * step
    points = center + step * rng.integers(0, 3, (draw(st.integers(3, 8)), dims))
    near = points[:draw(st.integers(2, len(points) - 1))]
    far = center + step * 2.0 ** 20 * rng.choice([-1, 1], (2 * n_near + 1, dims))
    g = np.concatenate([near[rng.integers(0, len(near), n_near)], far])
    g_ids = np.concatenate([rng.integers(0, n_ids, n_near), np.full(len(far), n_ids)])
    order = rng.permutation(len(g))
    return (
        points[rng.integers(0, len(points), nq)],
        g[order],
        rng.integers(0, n_ids, nq),
        rng.integers(0, 2, nq),
        g_ids[order],
        rng.integers(0, 2, len(g)),
    )


@settings(max_examples=200, deadline=None)
@given(case=screen_adversarial(), junk_filter=st.booleans())
def test_screen_keeps_every_candidate(case, junk_filter):
    assert_matches_reference(case, junk_filter)


@pytest.mark.parametrize("junk_filter", [True, False])
def test_overflowing_norms_rank_by_index(junk_filter):
    """Rows whose squared norms overflow put inf and NaN into the screen's
    GEMM form; the items must still be ranked, at cdist's inf, by index."""
    rng = np.random.default_rng(7)
    q = rng.standard_normal((SCREEN_BLOCK + 8, 4))
    g = rng.standard_normal((30, 4))
    q[::4] *= 1e160
    g[::3] *= 1e160
    case = (q, g, rng.integers(0, 3, len(q)), rng.integers(0, 2, len(q)),
            rng.integers(0, 3, len(g)), rng.integers(0, 2, len(g)))
    with np.errstate(over="ignore"):  # the reference's own squares overflow
        assert_matches_reference(case, junk_filter)


def test_metrics_dict_keys(rng):
    q = l2_normalize(rng.standard_normal((4, 3)))
    g = np.concatenate([q, l2_normalize(rng.standard_normal((6, 3)))])
    res = evaluate_retrieval(
        q, g, [0, 1, 2, 3], [0] * 4,
        [0, 1, 2, 3, 9, 9, 9, 9, 9, 9], [1] * 10,
    )
    assert set(res.metrics()) == {"mAP", "rank1", "rank5", "rank10"}


def test_peak_memory_below_one_dense_matrix(rng):
    """Clustered embeddings; random ones, where most of the gallery survives
    the screen; and copies of four rows, where every survivor sits in a tie
    run that per-pair distances reorder: the peak stays within four screen
    blocks of float64 gallery rows (3.9 MiB here), far below the 15 MiB
    query x gallery matrix."""
    nq, ng = 500, 4000
    protos = l2_normalize(rng.standard_normal((100, 32)))
    q_ids, g_ids = np.arange(nq) % 100, np.arange(ng) % 100
    sets = {
        "clustered": (l2_normalize(protos[q_ids] + 0.3 * rng.standard_normal((nq, 32))),
                      l2_normalize(protos[g_ids] + 0.3 * rng.standard_normal((ng, 32)))),
        "random": (l2_normalize(rng.standard_normal((nq, 32))),
                   l2_normalize(rng.standard_normal((ng, 32)))),
    }
    distinct = l2_normalize(rng.standard_normal((4, 32)))
    sets["duplicates"] = (distinct[rng.integers(0, 4, nq)], distinct[rng.integers(0, 4, ng)])
    for name, (q, g) in sets.items():
        tracemalloc.start()
        try:
            res = evaluate_retrieval(q, g, q_ids, np.zeros(nq), g_ids, np.arange(ng) % 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.map > 0
        assert peak < 4 * SCREEN_BLOCK * ng * 8, f"{name}: peak {peak / 2**20:.1f} MiB"


# Runs gen-data, train and evaluate through cli.main with every hybridreid
# function that cli imports wrapped, recording the modules each call loads.
CLI_MODULE_PROBE = """
import inspect, json, sys
import hybridreid.cli as cli

late = {}

def watch(name, f):
    def wrapped(*args, **kwargs):
        before = set(sys.modules)
        try:
            return f(*args, **kwargs)
        finally:
            late.setdefault(name, []).extend(sorted(set(sys.modules) - before))
    return wrapped

for name, f in list(vars(cli).items()):
    if inspect.isfunction(f) and f.__module__.startswith("hybridreid.") \\
            and f.__module__ != "hybridreid.cli":
        setattr(cli, name, watch(name, f))
d = sys.argv[1]
for argv in (
    ["gen-data", "--out-dir", d, "--num-identities", "4", "--instances-per-identity", "8",
     "--dims", "8", "--seed", "11"],
    ["train", "--features", d + "/train.feat", "--out-dir", d + "/run", "--epochs", "2",
     "--num-identities-per-batch", "2", "--instances-per-identity", "4",
     "--slots-per-cluster", "4", "--kreciprocal-k", "7"],
    ["evaluate", "--query", d + "/query.feat", "--gallery", d + "/gallery.feat",
     "--checkpoint", d + "/run/checkpoint.ckpt", "--out-dir", d + "/eval", "--per-query"],
):
    assert cli.main(argv) == 0, argv
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "late": late}))
"""


def test_cli_runs_load_no_scipy_and_import_nothing_inside_calls(tmp_path):
    """The package is numpy alone, and every module a command needs loads
    before its timed work: ``train`` and ``evaluate`` processes import no
    scipy module, and no hybridreid function that ``cli`` calls, such as
    ``train`` or ``evaluate_retrieval``, imports a module on first use (as
    numpy does lazily for ``numpy.random`` and ``numpy.ma``). Checked in a
    fresh interpreter, since the tests import scipy."""
    proc = subprocess.run([sys.executable, "-c", CLI_MODULE_PROBE, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["scipy"] == []
    assert {"train", "evaluate_retrieval", "embed_all"} <= set(seen["late"])
    assert {name: mods for name, mods in seen["late"].items() if mods} == {}