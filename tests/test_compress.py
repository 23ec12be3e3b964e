from fractions import Fraction

import pytest

from rankstability import (
    CompressionFrame,
    DenseMatrix,
    GF,
    QQ,
    QQI,
    XorShift64Star,
    align_compressions,
    compress,
    corner_frame,
    random_frame,
    verify_mult_defect,
    verify_rank_lower,
)
from rankstability.exactfield import hstack
from rankstability.prng import random_invertible, random_matrix


def test_identity_frame_is_identity_compression():
    f = corner_frame(QQ, 4, 4)
    m = DenseMatrix(QQ, [[i + j for j in range(4)] for i in range(4)])
    assert compress(m, f) == m


def test_corner_frame_takes_top_left_block():
    f = corner_frame(QQ, 5, 3)
    m = DenseMatrix(QQ, [[10 * i + j for j in range(5)] for i in range(5)])
    c = compress(m, f)
    assert c.shape == (3, 3)
    assert all(c.entry(i, j) == 10 * i + j for i in range(3) for j in range(3))


def test_corner_compression_of_far_corner_is_zero():
    n, k = 5, 3
    f = corner_frame(QQ, n, k)
    m = DenseMatrix.elementary(QQ, n, n, n - 1, n - 1)
    assert compress(m, f).is_zero()


def test_degenerate_frame_rejected():
    with pytest.raises(ValueError):
        corner_frame(QQ, 4, 0)


def test_corner_frame_extremes():
    assert corner_frame(QQ, 4, 4).subspace_dim == 4
    assert corner_frame(QQ, 4, 3).subspace_dim == 3


def test_frame_validation():
    iota = DenseMatrix(QQ, [[1], [0]])
    bad_proj = DenseMatrix(QQ, [[0, 1]])
    with pytest.raises(ValueError):
        CompressionFrame(iota, bad_proj)


def test_compress_is_linear():
    rng = XorShift64Star(1)
    frame = random_frame(QQ, 5, 3, rng)
    a = random_matrix(QQ, rng, 5, 5)
    b = random_matrix(QQ, rng, 5, 5)
    c = Fraction(3, 2)
    assert compress(a.scale(c) + b, frame) == compress(a, frame).scale(c) + compress(b, frame)


def test_random_frame_projection_is_idempotent():
    rng = XorShift64Star(2)
    for field in (QQ, GF(7)):
        frame = random_frame(field, 6, 4, rng)
        p = frame.iota * frame.proj
        assert p * p == p
        assert p.rank() == 4


def reference_frame(field, n, k, rng):
    """random_frame with a rank test before the inverse, as it once was."""
    while True:
        iota = random_matrix(field, rng, n, k)
        if iota.rank() != k:
            continue
        full = hstack([iota, random_matrix(field, rng, n, n - k)]) if n > k else iota
        if full.rank() == n:
            return iota, full.inverse().submatrix(range(k), range(n))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), QQI])
def test_random_frame_draws_as_the_rank_test_did(field):
    for seed, n, k in [(1, 4, 2), (2, 5, 5), (3, 3, 1), (4, 6, 4)]:
        rng, ref_rng = XorShift64Star(seed), XorShift64Star(seed)
        for _ in range(3):
            frame = random_frame(field, n, k, rng)
            assert (frame.iota, frame.proj) == reference_frame(field, n, k, ref_rng)
        assert rng.next_u64() == ref_rng.next_u64()


def test_rank_lower_tight_at_full_frame():
    rng = XorShift64Star(3)
    m = random_matrix(QQ, rng, 4, 4)
    frame = corner_frame(QQ, 4, 4)
    rep = verify_rank_lower(m, frame)
    assert rep.lhs == m.rank()


def test_rank_lower_random_trials_gf7():
    rng = XorShift64Star(4)
    f = GF(7)
    for _ in range(100):
        m = random_matrix(f, rng, 6, 6)
        frame = random_frame(f, 6, 4, rng)
        assert verify_rank_lower(m, frame).passed


def test_rank_lower_invertible_eight_by_eight():
    rng = XorShift64Star(5)
    m = random_invertible(QQ, rng, 8)
    frame = random_frame(QQ, 8, 7, rng)
    rep = verify_rank_lower(m, frame)
    assert rep.lhs >= 6


def test_mult_defect_zero_at_full_frame():
    rng = XorShift64Star(6)
    a = random_matrix(QQ, rng, 4, 4)
    b = random_matrix(QQ, rng, 4, 4)
    rep = verify_mult_defect(a, b, corner_frame(QQ, 4, 4))
    assert rep.lhs == 0


def test_mult_defect_random_invertible_pairs_gf5():
    rng = XorShift64Star(7)
    f = GF(5)
    for _ in range(100):
        a = random_invertible(f, rng, 6)
        b = random_invertible(f, rng, 6)
        frame = random_frame(f, 6, 4, rng)
        rep = verify_mult_defect(a, b, frame)
        assert rep.lhs <= 2


def test_mult_defect_permutation_corner():
    n, k = 6, 4
    perm = DenseMatrix(QQ, [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)])
    rep = verify_mult_defect(perm, perm, corner_frame(QQ, n, k))
    assert rep.lhs <= n - k


def greedy_completion(partial):
    """Extend independent columns to a basis by standard basis vectors, one rank test each."""
    k = partial.rows
    basis, rank = partial, partial.rank()
    for j in range(k):
        if rank == k:
            break
        trial = hstack([basis, DenseMatrix.elementary(partial.field, k, 1, j, 0)])
        r = trial.rank()
        if r > rank:
            basis, rank = trial, r
    assert rank == k
    return basis


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ, QQI])
def test_column_space_completion_matches_greedy(field):
    rng = XorShift64Star(12)
    for k in (1, 3, 5):
        ident = DenseMatrix.identity(field, k)
        for w in range(k + 1):
            for _ in range(3):
                u = random_matrix(field, rng, k, w)
                while u.rank() != w:
                    u = random_matrix(field, rng, k, w)
                assert hstack([u, ident]).column_space_basis() == greedy_completion(u)


def test_align_equal_frames_gives_identity():
    rng = XorShift64Star(8)
    frame = random_frame(QQ, 5, 3, rng)
    mats = [random_matrix(QQ, rng, 5, 5) for _ in range(3)]
    a, report = align_compressions(frame, frame, mats)
    assert a == DenseMatrix.identity(QQ, 3)
    assert all(r == 0 for r in report.per_matrix)


def test_align_random_frames_n6_k5():
    rng = XorShift64Star(9)
    f = GF(7)
    frame1 = random_frame(f, 6, 5, rng)
    frame2 = random_frame(f, 6, 5, rng)
    mats = [random_matrix(f, rng, 6, 6) for _ in range(20)]
    a, report = align_compressions(frame1, frame2, mats)
    assert a.rank() == 5
    assert all(r <= 4 for r in report.per_matrix)


def test_align_small_intersection_vacuous():
    rng = XorShift64Star(10)
    frame1 = random_frame(QQ, 6, 3, rng)
    frame2 = random_frame(QQ, 6, 3, rng)
    mats = [random_matrix(QQ, rng, 6, 6)]
    _, report = align_compressions(frame1, frame2, mats)
    assert report.bound == 12  # exceeds any possible 3x3 rank


def test_align_shared_subspace_different_projections():
    # full-dimensional intersection: the discrepancy is only the projector
    # difference, of rank at most 2(n-k)
    rng = XorShift64Star(55)
    n, k = 6, 4
    iota = random_matrix(QQ, rng, n, k)
    while iota.rank() != k:
        iota = random_matrix(QQ, rng, n, k)

    def projection_for(rng):
        from rankstability.exactfield import hstack

        while True:
            comp = random_matrix(QQ, rng, n, n - k)
            full = hstack([iota, comp])
            if full.rank() == n:
                inv = full.inverse()
                return DenseMatrix(QQ, [inv.row(i) for i in range(k)])

    f1 = CompressionFrame(iota, projection_for(rng))
    f2 = CompressionFrame(iota, projection_for(rng))
    mats = [random_matrix(QQ, rng, n, n) for _ in range(5)]
    _, report = align_compressions(f1, f2, mats)
    assert report.intersection_dim == k
    assert all(r <= 2 * (n - k) for r in report.per_matrix)


def test_align_over_gaussian_field():
    from rankstability import QQI

    rng = XorShift64Star(56)
    f1 = random_frame(QQI, 5, 4, rng)
    f2 = random_frame(QQI, 5, 4, rng)
    mats = [random_matrix(QQI, rng, 5, 5) for _ in range(3)]
    _, report = align_compressions(f1, f2, mats)
    assert all(r <= report.bound for r in report.per_matrix)


def test_align_conjugator_independent_of_matrices():
    rng = XorShift64Star(11)
    frame1 = random_frame(QQ, 6, 4, rng)
    frame2 = random_frame(QQ, 6, 4, rng)
    batch1 = [random_matrix(QQ, rng, 6, 6)]
    batch2 = [random_matrix(QQ, rng, 6, 6) for _ in range(2)]
    a1, _ = align_compressions(frame1, frame2, batch1)
    a2, _ = align_compressions(frame1, frame2, batch2)
    assert a1 == a2
