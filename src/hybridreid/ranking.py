"""The one Euclidean ranking rule of retrieval evaluation and k-reciprocal
labeling, a floating-point filter in the sense of Shewchuk (1997): a GEMM
gives each pair t = |g|^2 - 2 q.g, which orders two items of a row wherever
``_screen_tolerance`` proves it safe, and only inside that bound does the
per-pair distance of ``_pair_distances`` decide, ties to the lower index.
Evaluation puts a float32 form of the same product in front of it, under a
bound of its own (``_screen_tolerance(..., prescreen=True)``)."""

from __future__ import annotations

import numpy as np

# Entries of row differences held at once by _pair_distances (128 KiB of
# float64); evaluation also reorders its tie runs this many items at a time.
PAIR_CHUNK = 2 ** 14


def _screen_tolerance(q, g_sq, prescreen=False):
    """Per row of ``q``, a bound, with a safety factor above 2.6, on how far
    the GEMM form can put an item past another that the per-pair distance
    puts no nearer; ``g_sq`` holds the squared norms of the other side.
    With ``prescreen``, a bound on how far a float32 form of the same
    product can put an item past the nearest of those the float64 screen
    keeps (below).

    Write t = |g|^2 - 2 q.g, the squared distance less the row's own |q|^2,
    u = eps/2, M = |q| + max|g| and d2 the exact squared distance, and take
    the first-order error bounds of Higham (2002), ch. 3, which hold for
    any summation order:

    - t is either fl(|g|^2) + fl(-2q.g), D-term dot products off by at most
      D u |g|^2 and 2 D u |q| |g| (Cauchy-Schwarz; scaling q by -2 is exact)
      plus one rounded addition of at most u M^2, or one (D+1)-term product
      [-2q, 1].[g, fl(|g|^2)] (or its exact negation), off by at most
      (D+1) u (2|q||g| + |g|^2) plus fl(|g|^2)'s own D u |g|^2. Either way
      |t - (d2 - |q|^2)| <= (2D+1) u M^2.
    - ``_pair_distances`` sums D rounded squares of rounded differences, all
      non-negative, and takes a rounded square root c. So
      |c^2 - d2| <= (D + 4) u d2 <= (D + 4) u M^2.

    For items j, h with c_j <= c_h:
    t_j + |q|^2 <= d2_j + (2D+1)uM^2 <= c_j^2 + (3D+5)uM^2
    <= c_h^2 + (3D+5)uM^2 <= d2_h + (4D+9)uM^2 <= t_h + |q|^2 + (6D+10)uM^2,
    so t_j <= t_h + (3D+5) eps M^2, and t_j > t_h + tol proves c_j > c_h.
    8 (D+4) eps M^2 is more than 2.6 times that, which covers the
    second-order terms, the rounding of M, of this product and of the
    comparisons that add or subtract it. Under gradual underflow each
    product may also be off by up to half the smallest subnormal; the chain
    above takes at most 6D + 2 products, so at most 3D + 1 subnormals of
    such error, and 8 (D+4) are added. Once (|q| + max|g|)^2 overflows, the
    tolerance is inf.

    The pre-screen: let T be the (D+1)-term product [a, 1].[b, c] in
    float32, where a, b and c are -2q, g and fl(|g|^2) rounded to float32,
    each entry within u32 = eps32/2 of its own value. Then
    |a.b + 2 q.g| <= 2 u32 (2|q||g|) to first order (Cauchy-Schwarz),
    |c - |g|^2| <= u32 |g|^2 + D u |g|^2, and the product adds at most
    (D+1) u32 (2|q||g| + |g|^2). As 2|q||g| + |g|^2 <= M^2 and
    4|q||g| + |g|^2 <= 2 M^2, and D u <= u32 for any D below 2^29,
    |T - (d2 - |q|^2)| <= (D+4) u32 M^2. Take the item h the float64 screen
    cuts at, t_h the largest t among a row's relevant items, and an item j
    it keeps, t_j <= t_h + tol (or t_j NaN, see below). Going from T_j to
    t_j and from t_h to T_h, each through the exact value, costs at most
    (D+4) u32 M^2 + (2D+1) u M^2 per step, so
    T_j <= T_h + tol + (D+4) eps32 M^2 + (2D+1) eps M^2, and T_h is at
    most the largest T among the row's relevant items. The pre-screen adds
    8 (D+4) eps32 M^2 to tol, more than 7 times what that needs, which
    covers the same second-order and rounding terms as above.
    Under underflow each of the 2D+1 rounded entries may instead be off by
    up to half the smallest float32 subnormal s32, which moves T by at most
    s32 (sqrt(D) M + 1/2), and each of the D+1 float32 products by s32/2;
    8 (D+4) s32 (1 + M) is added for that. So wherever the inputs are all
    below float32's normal range, the tolerance spans every T and the
    pre-screen keeps every item. The caller compares T with the cut rounded
    up to float32, and an item whose T is NaN is kept. Once 2 M^2
    overflows float32 (as then may an entry of a, b or c, or a sum in the
    product, giving an inf or a NaN T), the pre-screen tolerance is inf, so
    the cut is inf or NaN and every item is kept. The float64 screen keeps
    a NaN t only where M^2 overflows float64, and the pre-screen keeps
    every item there too.
    """
    scale = np.sqrt(np.einsum("ij,ij->i", q, q)) + np.sqrt(g_sq.max())
    f = np.finfo(np.float64)
    tol = 8 * (q.shape[1] + 4) * (f.eps * scale ** 2 + f.smallest_subnormal)
    if not prescreen:
        return tol
    f = np.finfo(np.float32)
    with np.errstate(over="ignore"):
        extra = 8 * (q.shape[1] + 4) * (f.eps * scale ** 2 + f.smallest_subnormal * (1 + scale))
        return np.where(2 * scale ** 2 < f.max, tol + extra, np.inf)


def _gemm(a, b, out):
    """``a @ b``, written into ``out``: the GEMM form that labeling ranks
    by. Its bits cannot change a result, which a test checks by moving
    every entry inside the tolerance."""
    return np.matmul(a, b, out=out)


def _pair_distances(a, ia, b, ib):
    """``|b[ib[n]] - a[ia[n]]|`` for each n, as
    ``np.sqrt(((b - a) ** 2).sum(axis=1))`` of the two rows alone, so copies
    of a row are at equal distances and a row is at 0 from its copies."""
    out = np.empty(len(ia))
    step = max(1, PAIR_CHUNK // max(a.shape[1], 1))
    with np.errstate(over="ignore"):  # rows whose squares overflow are at inf
        for lo in range(0, out.size, step):
            diff = b[ib[lo:lo + step]]
            diff -= a[ia[lo:lo + step]]
            out[lo:lo + step] = np.sqrt(np.square(diff, out=diff).sum(axis=1))
    return out

