from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridreid import EvaluationError, evaluate_retrieval, evaluation, l2_normalize
from hybridreid.evaluation import rank_gallery

from oracles import (
    ref_average_precision,
    ref_cmc,
    ref_evaluate,
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


class TestRankGallery:
    def test_sorted_by_distance(self, rng):
        q = l2_normalize(rng.standard_normal((3, 5)))
        g = l2_normalize(rng.standard_normal((8, 5)))
        rankings = rank_gallery(q, g)
        for qi in range(3):
            d = np.linalg.norm(g - q[qi], axis=1)
            assert np.all(np.diff(d[rankings[qi]]) >= -1e-12)

    def test_tie_broken_by_lower_index(self):
        q = np.array([[1.0, 0.0]])
        g = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert rank_gallery(q, g)[0].tolist() == [1, 0, 2]

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            rank_gallery(np.ones((1, 3)), np.ones((2, 4)))

    def test_empty_gallery(self):
        with pytest.raises(ValueError):
            rank_gallery(np.ones((1, 3)), np.ones((0, 3)))


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
        q = embed_on_line([0.0])
        g = embed_on_line([0.1, 0.2, 0.3])
        res = evaluate_retrieval(q, g, [5], [0], [9, 9, 5], [1, 1, 1],
                                 ks=(1, 2, 3))
        assert res.cmc == {1: 0.0, 2: 0.0, 3: 1.0}

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
        rankings = rank_gallery(q, g)
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
        rankings = rank_gallery(q, g)
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


@settings(max_examples=300, deadline=None)
@given(case=tie_rich_retrieval(), junk_filter=st.booleans(),
       block=st.sampled_from([1, 2, 5, 256]))
def test_single_pass_matches_per_query_reference(case, junk_filter, block):
    try:
        with mock.patch.object(evaluation, "QUERY_BLOCK", block):
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


def test_metrics_dict_keys(rng):
    q = l2_normalize(rng.standard_normal((4, 3)))
    g = np.concatenate([q, l2_normalize(rng.standard_normal((6, 3)))])
    res = evaluate_retrieval(
        q, g, [0, 1, 2, 3], [0] * 4,
        [0, 1, 2, 3, 9, 9, 9, 9, 9, 9], [1] * 10,
    )
    assert set(res.metrics()) == {"mAP", "rank1", "rank5", "rank10"}
