"""Acceptance suite: one test per shipping criterion, each printing a
single PASS/FAIL line (visible even without -s) and enforcing its own
runtime budget.

1. analytic gradients match central finite differences
2. clustering / evaluation / hard selection match independent oracles
3. memory banks keep their invariants over long random update runs
4. end-to-end learning reaches high mAP on a separable synthetic set
5. the mu sweep reproduces the hybrid-beats-endpoints ordering
6. two runs with one seed give byte-identical artifacts
7. the evaluator implements the single-query junk-filter protocol
8. hard keys beat a random slot and the easiest positive in training
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from hybridreid import (
    PseudoLabeling,
    SynthSpec,
    TrainConfig,
    cluster_loss,
    dbscan,
    evaluate_retrieval,
    generate,
    hard_instance_loss,
    init_cluster_bank,
    init_instance_bank,
    l2_normalize,
    save_features,
    softmax_contrastive,
    train,
    update_cluster_bank,
    update_instance_bank,
)
from hybridreid.cli import main
from hybridreid.encoder import MLPEncoder
from hybridreid.memory import hard_keys
from hybridreid.trainer import embed_all

from oracles import (
    canonical_partition,
    easiest_positive_keys,
    explicit_pairs,
    fd_grad,
    random_slot_keys,
    ref_dbscan,
    ref_evaluate,
    ref_hard_negative,
    ref_hard_positive,
    rel_err,
)

FD_H = 1e-6
GRAD_TOL = 1e-4


def emit(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def check(capsys, criterion, ok, detail):
    emit(capsys, f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0

    def track(analytic, fd):
        nonlocal worst
        worst = max(worst, rel_err(analytic, fd))

    def batch(d):
        """A batch of 1-4 unit queries, so rows may share a cluster id."""
        return l2_normalize(rng.standard_normal((int(rng.integers(1, 5)), d))).copy()

    for _ in range(100):  # softmax_contrastive
        m, d = int(rng.integers(2, 12)), int(rng.integers(2, 8))
        keys = l2_normalize(rng.standard_normal((m, d)))
        q = batch(d)
        pos = rng.integers(0, m, size=q.shape[0])
        tau = float(rng.uniform(0.05, 1.0))
        out = softmax_contrastive(q, keys, pos, tau)
        track(out.grad,
              fd_grad(lambda: softmax_contrastive(q, keys, pos, tau).values.sum(),
                      q, FD_H))

    for _ in range(100):  # cluster_loss
        c, d = int(rng.integers(2, 10)), int(rng.integers(2, 8))
        centroids = l2_normalize(rng.standard_normal((c, d)))
        q = batch(d)
        own = rng.integers(0, c, size=q.shape[0])
        tau = float(rng.uniform(0.05, 1.0))
        out = cluster_loss(q, centroids, own, tau)
        track(out.grad,
              fd_grad(lambda: cluster_loss(q, centroids, own, tau).values.sum(), q, FD_H))

    for _ in range(100):  # hard_instance_loss (selection is stop-gradient)
        c, s, d = int(rng.integers(2, 7)), int(rng.integers(2, 7)), 5
        slots = l2_normalize(rng.standard_normal((c, s, d)))
        q = batch(d)
        own = rng.integers(0, c, size=q.shape[0])
        tau = float(rng.uniform(0.05, 1.0))
        out = hard_instance_loss(q, slots, own, tau)
        track(out.grad,
              fd_grad(lambda: hard_instance_loss(q, slots, own, tau).values.sum(),
                      q, FD_H))

    for _ in range(100):  # the trainer's hybrid blend of the batch means
        d = 5
        centroids = l2_normalize(rng.standard_normal((4, d)))
        slots = l2_normalize(rng.standard_normal((4, 3, d)))
        q = batch(d)
        own = rng.integers(0, 4, size=q.shape[0])
        mu = float(rng.uniform(0.0, 1.0))

        def hybrid_value():
            return (mu * cluster_loss(q, centroids, own, 0.2).values.mean()
                    + (1.0 - mu) * hard_instance_loss(q, slots, own, 0.2).values.mean())

        n = q.shape[0]
        grad = ((mu / n) * cluster_loss(q, centroids, own, 0.2).grad
                + ((1.0 - mu) / n) * hard_instance_loss(q, slots, own, 0.2).grad)
        track(grad, fd_grad(hybrid_value, q, FD_H))

    for trial in range(100):  # full encoder chain through the loss
        d_in, hid, d_out = (int(rng.integers(3, 6)), int(rng.integers(4, 8)),
                            int(rng.integers(2, 5)))
        model = MLPEncoder([d_in, hid, d_out], seed=trial)
        x = rng.standard_normal((2, d_in))
        keys = l2_normalize(rng.standard_normal((5, d_out)))
        pos = int(rng.integers(0, 5))
        tau = 0.2

        def chain_value():
            emb, _ = model.forward(x)
            return softmax_contrastive(emb, keys, [pos, pos], tau).values.sum()

        emb, cache = model.forward(x)
        grad_emb = softmax_contrastive(emb, keys, [pos, pos], tau).grad
        grads = model.backward(cache, grad_emb)
        for p, g in zip(model.parameters(), grads):
            track(g, fd_grad(chain_value, p, FD_H))

    elapsed = time.perf_counter() - t0
    check(
        capsys, 1,
        worst < GRAD_TOL and elapsed < 30.0,
        f"max rel err {worst:.3e} over 5x100 configs, h={FD_H:g} "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_oracle_equivalence(capsys):
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()

    mismatches = 0
    for _ in range(50):  # (a) dbscan vs reference partition, 200 points
        pts = rng.standard_normal((200, 3)) * rng.uniform(0.5, 2.0)
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        np.fill_diagonal(d, 0.0)
        eps = float(rng.uniform(0.3, 1.5))
        min_pts = int(rng.integers(2, 10))
        got = dbscan(explicit_pairs(d), eps, min_pts)
        ref_labels, ref_c = ref_dbscan(d, eps, min_pts)
        if got.num_clusters != ref_c:
            mismatches += 1
            continue
        if canonical_partition(got.assignment) != canonical_partition(ref_labels):
            mismatches += 1

    eval_worst = 0.0
    scored = 0
    for _ in range(50):  # (b) mAP/CMC vs brute force
        nq = int(rng.integers(2, 21))
        ng = int(rng.integers(10, 51))
        dim = int(rng.integers(2, 6))
        q = rng.standard_normal((nq, dim))
        g = rng.standard_normal((ng, dim))
        q_ids = rng.integers(0, 5, size=nq)
        g_ids = rng.integers(0, 5, size=ng)
        q_cams = rng.integers(0, 3, size=nq)
        g_cams = rng.integers(0, 3, size=ng)
        res = evaluate_retrieval(q, g, q_ids, q_cams, g_ids, g_cams)
        ref_map, ref_cmc, _ = ref_evaluate(q, g, q_ids, q_cams, g_ids, g_cams)
        eval_worst = max(eval_worst, abs(res.map - ref_map))
        for k in (1, 5, 10):
            eval_worst = max(eval_worst, abs(res.cmc[k] - ref_cmc[k]))
        scored += 1

    hard_bad = 0
    for _ in range(1000):  # (c) batched hard selection vs exhaustive scan
        c, s, dim = int(rng.integers(2, 8)), int(rng.integers(1, 9)), 4
        slots = l2_normalize(rng.standard_normal((c, s, dim)))
        queries = l2_normalize(rng.standard_normal((int(rng.integers(1, 5)), dim)))
        own = rng.integers(0, c, size=queries.shape[0])
        picks, _ = hard_keys(queries, slots, own)
        for r, query in enumerate(queries):
            for k in range(c):
                ref = ref_hard_positive if k == own[r] else ref_hard_negative
                if picks[r, k] != ref(query, slots[k]):
                    hard_bad += 1

    elapsed = time.perf_counter() - t0
    check(
        capsys, 2,
        mismatches == 0 and eval_worst <= 1e-12 and scored == 50
        and hard_bad == 0 and elapsed < 60.0,
        f"dbscan mismatches {mismatches}/50, eval max diff {eval_worst:.2e}, "
        f"hard-selection errors {hard_bad} in 1000 trials ({elapsed:.1f}s < 60s)",
    )


def test_criterion_3_memory_bank_invariants(capsys):
    rng = np.random.default_rng(5)
    dim = 6
    emb = l2_normalize(rng.standard_normal((70, dim)))
    labels = PseudoLabeling(
        assignment=np.repeat(np.arange(7), 10), num_clusters=7
    )
    centroids = init_cluster_bank(emb, labels)
    slots = init_instance_bank(emb, labels, slots=4, rng_seed=0)
    frozen = 6  # never appears in any batch below
    frozen_c = centroids[frozen].tobytes()
    frozen_i = slots[frozen].tobytes()
    identity = init_cluster_bank(emb, labels)
    identity_bytes = identity.tobytes()

    for _ in range(1000):
        bsz = int(rng.integers(1, 10))
        batch = l2_normalize(rng.standard_normal((bsz, dim)))
        batch_labels = rng.integers(0, 6, size=bsz)
        update_cluster_bank(centroids, batch, batch_labels, 0.2)
        update_instance_bank(slots, batch, batch_labels)
        update_cluster_bank(identity, batch, batch_labels, 1.0)

    cnorm = np.abs(np.linalg.norm(centroids, axis=1) - 1.0).max()
    inorm = np.abs(
        np.linalg.norm(slots.reshape(-1, dim), axis=1) - 1.0
    ).max()
    untouched = (centroids[frozen].tobytes() == frozen_c
                 and slots[frozen].tobytes() == frozen_i)
    alpha_one_identity = identity.tobytes() == identity_bytes

    check(
        capsys, 3,
        cnorm < 1e-6 and inorm < 1e-6 and untouched and alpha_one_identity,
        f"after 1000 updates: norm drift {max(cnorm, inorm):.2e} < 1e-6, "
        f"absent cluster bitwise-unchanged={untouched}, "
        f"alpha=1 exact identity={alpha_one_identity}",
    )


def test_criterion_4_end_to_end_learning(capsys):
    t0 = time.perf_counter()
    maps, rank1s = [], []
    for seed in range(5):
        spec = SynthSpec(
            num_identities=50, instances_per_identity=20, dims=32,
            num_cameras=3, sigma_within=0.02, sigma_cam=0.08,
            min_angle_deg=45.0, seed=100 + seed,
        )
        train_s, query_s, gallery_s = generate(spec)
        cfg = TrainConfig(epochs=20, seed=seed)  # defaults, mu = 0.5
        model, _, _ = train(train_s.features, cfg)
        res = evaluate_retrieval(
            embed_all(model, query_s.features),
            embed_all(model, gallery_s.features),
            query_s.ids, query_s.cams,
            gallery_s.ids, gallery_s.cams,
        )
        maps.append(res.metrics()["mAP"])
        rank1s.append(res.metrics()["rank1"])
    elapsed = time.perf_counter() - t0
    med_map = float(np.median(maps))
    med_r1 = float(np.median(rank1s))
    check(
        capsys, 4,
        med_map >= 0.95 and med_r1 >= 0.95 and elapsed < 120.0,
        f"median over 5 seeds: mAP {med_map:.4f} >= 0.95, "
        f"Rank-1 {med_r1:.4f} >= 0.95 ({elapsed:.1f}s < 120s)",
    )


def write_mu_sweep_set(out_dir):
    """Write criterion 5's harder set as train/query/gallery .feat files."""
    spec = SynthSpec(
        num_identities=30, instances_per_identity=16, dims=16,
        num_cameras=3, sigma_within=0.08, sigma_cam=0.18,
        min_angle_deg=30.0, seed=77,
    )
    for name, fs in zip(("train", "query", "gallery"), generate(spec)):
        save_features(fs, out_dir / f"{name}.feat")


def mu_sweep(data_dir, out, mu_values):
    """The summary rows of ``ablate`` over seeds 0-4 on the set in
    ``data_dir``, with criterion 5's training flags."""
    rc = main([
        "ablate",
        "--features", str(data_dir / "train.feat"),
        "--query", str(data_dir / "query.feat"),
        "--gallery", str(data_dir / "gallery.feat"),
        "--out-dir", str(out),
        "--mu", *mu_values,
        "--seed", "0", "1", "2", "3", "4",
        "--epochs", "20",
        "--num-identities-per-batch", "8",
        "--instances-per-identity", "8",
        "--slots-per-cluster", "8",
        "--kreciprocal-k", "20",
        "--lr", "1e-3",
    ])
    assert rc == 0
    with open(out / "summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_5_mu_trend_via_ablate(capsys, tmp_path):
    t0 = time.perf_counter()
    write_mu_sweep_set(tmp_path)
    rows = mu_sweep(tmp_path, tmp_path / "ablate", ["0", "0.5", "1"])
    by_mu = {}
    for row in rows:
        by_mu.setdefault(float(row["mu"]), []).append(float(row["mAP"]))
    means = {mu: float(np.mean(v)) for mu, v in by_mu.items()}
    elapsed = time.perf_counter() - t0
    ok = (
        len(rows) == 15
        and means[0.5] >= means[0.0]
        and means[0.5] >= means[1.0]
        and elapsed < 900.0
    )
    check(
        capsys, 5,
        ok,
        f"mean mAP over 5 seeds: mu=0.5 {means[0.5]:.4f} >= "
        f"mu=0 {means[0.0]:.4f} and >= mu=1 {means[1.0]:.4f} "
        f"({elapsed:.1f}s < 900s)",
    )


def test_criterion_6_deterministic_runs_byte_identical(capsys, tmp_path):
    data = tmp_path / "data"
    assert main([
        "gen-data", "--out-dir", str(data),
        "--num-identities", "10", "--instances-per-identity", "10",
        "--dims", "16", "--seed", "4",
    ]) == 0
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = main([
            "train", "--features", str(data / "train.feat"),
            "--out-dir", str(out),
            "--seed", "7",
            "--epochs", "4",
            "--num-identities-per-batch", "4",
            "--instances-per-identity", "4",
            "--slots-per-cluster", "4",
            "--kreciprocal-k", "9",
        ])
        assert rc == 0
        runs.append(out)
    same_metrics = (runs[0] / "metrics.csv").read_bytes() == (
        runs[1] / "metrics.csv"
    ).read_bytes()
    same_ckpt = (runs[0] / "checkpoint.ckpt").read_bytes() == (
        runs[1] / "checkpoint.ckpt"
    ).read_bytes()
    check(
        capsys, 6,
        same_metrics and same_ckpt,
        f"two --seed 7 runs: metrics byte-identical="
        f"{same_metrics}, checkpoint byte-identical={same_ckpt}",
    )


def test_criterion_7_protocol_conformance(capsys):
    t0 = time.perf_counter()
    problems = []

    # relevant at ranks 1 and 3 of the kept list: AP = (1/1 + 2/3) / 2
    q = np.array([[0.0, 1.0]])
    g = np.array([[0.1, 1.0], [0.2, 1.0], [0.3, 1.0], [0.4, 1.0]])
    res = evaluate_retrieval(q, g, [1], [0], [1, 9, 1, 9], [1, 1, 1, 1])
    if abs(res.map - 0.8333333333333333) > 1e-4:
        problems.append(f"rank-(1,3) AP {res.map:.6f} != 0.8333")

    # same-id same-camera nearest neighbor must be junk
    res = evaluate_retrieval(
        q, g, [1], [0], np.array([1, 1, 9, 9]), np.array([0, 1, 0, 1])
    )
    if res.cmc[1] != 1.0 or res.map != 1.0:
        problems.append("junk same-id/same-cam item was scored")

    # same-id other-camera twin stays; other-id same-camera stays
    res = evaluate_retrieval(
        q, g, [1], [0], np.array([9, 1, 9, 9]), np.array([0, 1, 1, 1])
    )
    if abs(res.map - 0.5) > 1e-12:
        problems.append("distractors were dropped by the junk filter")

    # query whose matches are all junk is skipped, not scored as zero
    q2 = np.array([[0.0, 1.0], [5.0, 1.0]])
    g2 = np.array([[0.1, 1.0], [5.1, 1.0]])
    res = evaluate_retrieval(q2, g2, [1, 2], [0, 1], [1, 2], [0, 0])
    if not np.isnan(res.average_precisions[0]) or res.map != 1.0:
        problems.append("fully-junk query was not skipped")

    elapsed = time.perf_counter() - t0
    check(
        capsys, 7,
        not problems and elapsed < 5.0,
        f"protocol unit cases clean ({elapsed:.2f}s < 5s)"
        + ("" if not problems else "; " + "; ".join(problems)),
    )


def test_criterion_8_hard_keys_beat_other_key_rules(capsys, tmp_path, monkeypatch):
    """The paper's reason for its gain: the least similar positive and the
    most similar negatives carry the signal. Swapping the rule behind
    hard_instance_loss for another must not raise criterion 5's mu=0.5 mAP."""
    t0 = time.perf_counter()
    write_mu_sweep_set(tmp_path)
    rules = {"hard": hard_keys, "random slot": random_slot_keys(0),
             "easiest positive": easiest_positive_keys}
    means = {}
    for name, rule in rules.items():
        monkeypatch.setattr("hybridreid.loss.hard_keys", rule)
        rows = mu_sweep(tmp_path, tmp_path / name.replace(" ", "_"), ["0.5"])
        assert len(rows) == 5
        means[name] = float(np.mean([float(row["mAP"]) for row in rows]))
    elapsed = time.perf_counter() - t0
    margins = {name: means["hard"] - m for name, m in means.items() if name != "hard"}
    check(
        capsys, 8,
        all(m >= 0.0 for m in margins.values()) and elapsed < 900.0,
        f"mean mAP at mu=0.5 over 5 seeds: hard keys {means['hard']:.4f}; "
        + ", ".join(f"{name} {means[name]:.4f} (margin {m:+.4f})"
                    for name, m in margins.items())
        + f" ({elapsed:.1f}s < 900s)",
    )
