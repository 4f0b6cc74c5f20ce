"""Independent reference implementations used as test oracles.

Everything here is written in the most direct way possible (explicit
loops, python sets, quadratic scans) and shares no code with the library
so the two can actually disagree. The one exception is ``ref_batch_step``,
which runs the library's stages on every drawn row of a batch, so that it
checks how the trainer combines them. ``one_product_hard_keys`` is the
unblocked form of ``hard_keys``: the blocked one must reproduce its picks,
and its similarities bit for bit on exact inputs and to 1e-12 otherwise.
``scan_order_dbscan`` is the breadth-first form of ``dbscan``, whose
component labeling must reproduce its labels and numbering exactly.
``random_slot_keys`` and ``easiest_positive_keys`` are not oracles but
other key rules, which ``hard_keys`` must beat in training.
"""

from collections import deque

import numpy as np

from hybridreid import (OUTLIER, adam_step, cluster_loss, hard_instance_loss,
                        update_cluster_bank, update_instance_bank)


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def fd_grad(f, x, h=1e-6):
    """Central finite differences of scalar f() w.r.t. array x, in place.

    ``f`` is a closure that reads the current contents of ``x``.
    """
    grad = np.zeros(x.shape, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f()
        flat_x[i] = orig - h
        fm = f()
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * h)
    return grad


def ref_pairwise_euclidean(a, b):
    """Euclidean distances between the rows of ``a`` and ``b``, each from its
    two rows alone: the per-pair form of ``ref_rank_gallery``, so copies of a
    row are at equal distances."""
    b = np.asarray(b, dtype=np.float64)
    return np.array([np.sqrt(((b - x) ** 2).sum(axis=1))
                     for x in np.asarray(a, dtype=np.float64)]).reshape(len(a), len(b))


def explicit_pairs(dense):
    """The ``(n, i, j, dist)`` pairs ``dbscan`` takes, storing every pair
    i < j of the symmetric ``dense`` matrix in ascending order, zero
    distances included (so none is lost as an absent pair)."""
    dense = np.asarray(dense, dtype=np.float64)
    i, j = np.triu_indices(dense.shape[0], 1)
    return dense.shape[0], i, j, dense[i, j]


def scan_order_dbscan(pairs, eps, min_pts):
    """``dbscan`` as it was before it became a component labeling:
    expansion scans samples in ascending index order and claims border
    points for the first cluster that reaches them. Takes well-formed
    ``(n, i, j, dist)`` pairs; returns ``(assignment, num_clusters)``."""
    n, i, j, dist = pairs
    keys = i.astype(np.int64) * n + j
    # each pair within eps is a neighbor both ways; sorting the keys of both
    # directions groups each point's neighbors, in ascending order
    near = dist <= eps
    edges = np.concatenate((keys[near], j[near].astype(np.int64) * n + i[near]))
    edges.sort()
    bounds = np.searchsorted(edges, np.arange(n + 1) * n)
    core = (np.diff(bounds) >= min_pts).tolist()
    bounds = bounds.tolist()
    cols = (edges % n).tolist()

    assignment = [OUTLIER] * n
    cluster = 0
    for start in range(n):
        if assignment[start] != OUTLIER or not core[start]:
            continue
        assignment[start] = cluster
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for q in cols[bounds[p]:bounds[p + 1]]:
                if assignment[q] != OUTLIER:
                    continue
                assignment[q] = cluster
                if core[q]:
                    queue.append(q)
        cluster += 1
    return np.asarray(assignment, dtype=np.int64), cluster


def ref_knn_sets(dist, k):
    """First k non-self neighbors per row, ties by lower index."""
    n = dist.shape[0]
    out = []
    for i in range(n):
        order = sorted(
            (j for j in range(n) if j != i), key=lambda j: (dist[i, j], j)
        )
        out.append(set(order[:k]))
    return out


def ref_kreciprocal(dist, k):
    knn = ref_knn_sets(dist, k)
    n = dist.shape[0]
    mat = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            mat[i, j] = (j in knn[i]) and (i in knn[j])
    return mat


def ref_jaccard(neighbor_sets):
    n = neighbor_sets.shape[0]
    sets = []
    for i in range(n):
        s = {j for j in range(n) if neighbor_sets[i, j]}
        s.add(i)
        sets.append(s)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                inter = len(sets[i] & sets[j])
                union = len(sets[i] | sets[j])
                out[i, j] = 1.0 - inter / union
    return out


def ref_dbscan(dist, eps, min_pts):
    """Density clustering stated as connected components of the core graph.

    Components are numbered by their smallest core index; a border point
    joins the lowest-numbered cluster having a core within eps. This is a
    different formulation from a scan-order expansion but must produce
    the same partition for a deterministic expansion that claims border
    points for the earliest-started cluster.
    """
    n = dist.shape[0]
    within = np.asarray(dist) <= eps
    within = within.copy()
    np.fill_diagonal(within, False)
    core = [int(within[i].sum()) >= min_pts for i in range(n)]
    labels = [-1] * n
    next_label = 0
    for i in range(n):
        if core[i] and labels[i] == -1:
            stack = [i]
            labels[i] = next_label
            while stack:
                u = stack.pop()
                for v in range(n):
                    if core[v] and within[u, v] and labels[v] == -1:
                        labels[v] = next_label
                        stack.append(v)
            next_label += 1
    for i in range(n):
        if not core[i]:
            claims = [labels[j] for j in range(n) if core[j] and within[i, j]]
            if claims:
                labels[i] = min(claims)
    return np.asarray(labels, dtype=np.int64), next_label


def canonical_partition(labels):
    """Partition as a relabel-invariant frozenset of frozensets, outliers
    kept as their own marker set."""
    labels = np.asarray(labels)
    groups = {}
    for i, c in enumerate(labels):
        groups.setdefault(int(c), set()).add(i)
    outliers = frozenset(groups.pop(-1, set()))
    return frozenset(frozenset(g) for g in groups.values()), outliers


def ref_softmax_loss(query, keys, pos, tau):
    """-log softmax at the positive, computed the straightforward way."""
    logits = np.asarray([float(np.dot(k, query)) / tau for k in keys])
    logits = logits - logits.max()
    probs = np.exp(logits) / np.exp(logits).sum()
    return -float(np.log(probs[pos]))


def ref_softmax_grad(query, keys, pos, tau):
    """Gradient of ref_softmax_loss w.r.t. the query, summed key by key:
    (sum_i p_i k_i - k_pos) / tau."""
    logits = np.asarray([float(np.dot(k, query)) / tau for k in keys])
    probs = np.exp(logits - logits.max())
    probs = probs / probs.sum()
    grad = -np.asarray(keys[pos], dtype=np.float64)
    for p, k in zip(probs, keys):
        grad = grad + p * np.asarray(k)
    return grad / tau


def ref_hard_positive(query, cluster_slots):
    sims = [float(np.dot(s, query)) for s in cluster_slots]
    return min(range(len(sims)), key=lambda i: (sims[i], i))


def ref_hard_negative(query, cluster_slots):
    sims = [float(np.dot(s, query)) for s in cluster_slots]
    return min(range(len(sims)), key=lambda i: (-sims[i], i))


def ref_hard_keys(query, slots, own):
    """One query's keys, one per cluster: the hard positive of ``own`` and
    the hard negative of every other cluster (the per-sample selection)."""
    picks = [
        ref_hard_positive(query, slots[c]) if c == own
        else ref_hard_negative(query, slots[c])
        for c in range(len(slots))
    ]
    return picks, np.stack([slots[c][p] for c, p in enumerate(picks)])


def one_product_hard_keys(batch, slots, own_clusters):
    """``hard_keys`` from one B x (C*S) product against all the flattened
    slots: the form it had before it scored a block of clusters at a time."""
    batch = np.asarray(batch, dtype=np.float64)
    c, s, d = slots.shape
    own_clusters = np.asarray(own_clusters, dtype=np.int64)
    sims = (batch @ slots.reshape(c * s, d).T).reshape(-1, c, s)
    picks = np.argmax(sims, axis=2)
    rows = np.arange(sims.shape[0])
    picks[rows, own_clusters] = np.argmin(sims[rows, own_clusters], axis=1)
    return picks, _picked(sims, picks)


def _picked(sims, picks):
    """The B x C similarities of the B x C picked slots in B x C x S sims."""
    return np.take_along_axis(sims, picks[:, :, None], axis=2)[:, :, 0]


def random_slot_keys(seed):
    """A key rule with ``hard_keys``' signature and return shapes that picks
    a slot of every cluster uniformly at random, from a Generator seeded
    with ``seed``."""
    rng = np.random.default_rng(seed)

    def keys(batch, slots, own_clusters):
        sims = np.einsum("bd,csd->bcs", batch, slots)
        picks = rng.integers(0, sims.shape[2], size=sims.shape[:2])
        return picks, _picked(sims, picks)
    return keys


def easiest_positive_keys(batch, slots, own_clusters):
    """A key rule with ``hard_keys``' signature and return shapes that picks
    the most similar slot of every cluster: the hardest negatives, but the
    easiest positive."""
    sims = np.einsum("bd,csd->bcs", batch, slots)
    picks = np.argmax(sims, axis=2)
    return picks, _picked(sims, picks)


def ref_members_of(assignment, cluster):
    """Indices of one cluster's members by a full scan, in ascending order."""
    return [i for i, a in enumerate(assignment) if a == cluster]


def ref_rank_gallery(q_emb, g_emb):
    """Gallery indices per query by ascending Euclidean distance, ties
    broken by lower index."""
    ranked = []
    for q in np.asarray(q_emb, dtype=np.float64):
        d = np.sqrt(((np.asarray(g_emb, dtype=np.float64) - q) ** 2).sum(axis=1))
        ranked.append(sorted(range(len(d)), key=lambda j: (d[j], j)))
    return ranked


def ref_relevance(ranking, q_id, q_cam, g_ids, g_cams, junk_filter=True):
    """One query's ranked relevance flags after removing same-id
    same-camera (junk) gallery items."""
    return [
        g_ids[j] == q_id for j in ranking
        if not (junk_filter and g_ids[j] == q_id and g_cams[j] == q_cam)
    ]


def ref_average_precision(relevant):
    """Discrete AP over an ordered relevance list; None if none is relevant."""
    hits = 0
    precisions = []
    for pos, r in enumerate(relevant, start=1):
        if r:
            hits += 1
            precisions.append(hits / pos)
    if not precisions:
        return None
    return sum(precisions) / len(precisions)


def ref_cmc(relevances, ks=(1, 5, 10)):
    """Rank-k accuracy over the queries with at least one relevant item."""
    first_hits = [rel.index(True) + 1 for rel in relevances if any(rel)]
    if not first_hits:
        raise ValueError("every query was filtered out")
    return {k: sum(1 for f in first_hits if f <= k) / len(first_hits) for k in ks}


def ref_evaluate(q_emb, g_emb, q_ids, q_cams, g_ids, g_cams, ks=(1, 5, 10),
                 junk_filter=True):
    """Single-query retrieval protocol, one query at a time.

    Returns (mAP, cmc dict, per-query AP list with None for skipped).
    """
    relevances = [
        ref_relevance(order, q_ids[qi], q_cams[qi], g_ids, g_cams, junk_filter)
        for qi, order in enumerate(ref_rank_gallery(q_emb, g_emb))
    ]
    aps = [ref_average_precision(rel) for rel in relevances]
    cmc = ref_cmc(relevances, ks)
    kept_aps = [ap for ap in aps if ap is not None]
    return sum(kept_aps) / len(kept_aps), cmc, aps


def ref_batch_step(model, opt, feats, batch, centroids, slots, cfg):
    """One training step computed per drawn row: embed and score all B rows
    of the batch, copies included, then backward, one Adam step and both
    bank updates. Returns the mean cluster and instance losses over the B
    rows (0.0 for a loss mu leaves out)."""
    emb_b, cache = model.forward(feats[batch.indices])
    batch_size = batch.indices.size
    grad_emb = np.zeros_like(emb_b)
    loss_cls = loss_ins = 0.0
    if cfg.mu > 0.0:
        out = cluster_loss(emb_b, centroids, batch.cluster_ids, cfg.tau_c)
        loss_cls = float(out.values.mean())
        grad_emb += (cfg.mu / batch_size) * out.grad
    if cfg.mu < 1.0:
        out = hard_instance_loss(emb_b, slots, batch.cluster_ids, cfg.tau_ins)
        loss_ins = float(out.values.mean())
        grad_emb += ((1.0 - cfg.mu) / batch_size) * out.grad
    adam_step(model, model.backward(cache, grad_emb), opt)
    update_cluster_bank(centroids, emb_b, batch.cluster_ids, cfg.alpha)
    update_instance_bank(slots, emb_b, batch.cluster_ids)
    return loss_cls, loss_ins
