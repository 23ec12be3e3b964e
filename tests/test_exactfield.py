from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankstability import (
    GF,
    QQ,
    QQI,
    DenseMatrix,
    DimensionMismatch,
    FieldMismatch,
    FpElement,
    GaussianRational,
    PrimeDenominatorError,
    SingularMatrixError,
    XorShift64Star,
    modular_rank_certificate,
)
from rankstability.exactfield import _eliminate_int, field_from_tag, hstack, product_sum, vstack
from rankstability.prng import random_invertible, random_matrix

from conftest import det_laplace, rank_by_minors, token_prefixes


# ---------------------------------------------------------------------------
# scalars


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    assert GF(101).p == 101


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to the bases 2..41


@pytest.mark.parametrize("p", [PSI_12, PSI_13])
def test_prime_field_refuses_what_miller_rabin_cannot_prove(p):
    with pytest.raises(ValueError):
        GF(p)


@pytest.mark.parametrize("p", [2**64 - 59, 2**64 + 13, 2**80 - 65])
def test_prime_field_accepts_large_primes(p):
    assert GF(p).p == p


def test_fp_element_canonical_range():
    f = GF(7)
    x = f.coerce(-3)
    assert 0 <= x.v < 7 and x == 4
    assert (x + 5).v == 2
    assert (f.coerce(3) / f.coerce(5)) * f.coerce(5) == 3


def test_prime_field_text_reduces_fractions():
    f = GF(7)
    assert f.coerce("1/2") == 4 and f.coerce("-3") == 4
    with pytest.raises(PrimeDenominatorError):
        f.coerce("1/7")


def test_fraction_coercion_rejects_floats():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(TypeError):
        QQI.coerce(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1.5)
    for pair in [(0.5, 0), (1, 0.25)]:  # a float in an (re, im) pair too
        with pytest.raises(TypeError):
            QQI.coerce(pair)
        with pytest.raises(TypeError):
            DenseMatrix.from_entries(QQI, 1, 1, {(0, 0): pair})


def test_gaussian_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == -1
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z + z.conjugate() == 1
    assert (z / z) == 1
    assert bool(GaussianRational(0, 0)) is False


small_fractions = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12)
)
gaussians = st.builds(GaussianRational, small_fractions, small_fractions)


@settings(max_examples=100, deadline=None)
@given(gaussians, gaussians, gaussians)
def test_gaussian_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    if y:
        assert (x / y) * y == x


@settings(max_examples=100, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_prime_field_axioms(a, b, c):
    f = GF(13)
    x, y, z = f.coerce(a), f.coerce(b), f.coerce(c)
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x - x == 0
    if y:
        assert (x / y) * y == x


def test_field_tags_roundtrip():
    for tag in ("rational", "gaussian", "gf5"):
        assert field_from_tag(tag).tag == tag
    with pytest.raises(ValueError):
        field_from_tag("octonion")


# ---------------------------------------------------------------------------
# rank


def test_rank_identity_and_zero():
    assert DenseMatrix.identity(QQ, 5).rank() == 5
    assert DenseMatrix.zeros(GF(7), 3, 4).rank() == 0


def test_rank_all_ones_matches_minor_oracle():
    ones = DenseMatrix(QQ, [[1] * 4 for _ in range(4)])
    assert ones.rank() == 1
    assert rank_by_minors(ones) == 1


def test_rank_matches_minors_small_exhaustive_gf2():
    f = GF(2)
    for bits in range(2 ** 4):
        entries = [(bits >> k) & 1 for k in range(4)]
        m = DenseMatrix(f, [entries[:2], entries[2:]])
        assert m.rank() == rank_by_minors(m)


def test_rank_matches_minors_sampled():
    rng = XorShift64Star(11)
    for field in (QQ, GF(3), QQI):
        for _ in range(30):
            m = random_matrix(field, rng, 3, 3, lo=-2, hi=2)
            assert m.rank() == rank_by_minors(m)


gaussian_entries = st.builds(GaussianRational, small_fractions, small_fractions.filter(bool))


@st.composite
def gaussian_products(draw):
    """An (n x r)(r x m) product of factors with no real entries, so rank <= r."""
    n, r, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def factor(rows, cols):
        return DenseMatrix(QQI, [[draw(gaussian_entries) for _ in range(cols)] for _ in range(rows)])

    return factor(n, r) * factor(r, m)


@settings(max_examples=100, deadline=None)
@given(gaussian_products())
def test_gaussian_rank_of_products_matches_minors(m):
    assert m.rank() == rank_by_minors(m)


def test_gaussian_rank_sees_complex_dependence():
    i = GaussianRational(0, 1)
    assert DenseMatrix(QQI, [[1, i], [i, -1]]).rank() == 1
    assert DenseMatrix(QQI, [[1, 0], [0, -1]]).rank() == 2  # its real part


def test_rank_transpose_invariant():
    rng = XorShift64Star(5)
    for field in (QQ, GF(2), GF(7), QQI):
        for _ in range(20):
            m = random_matrix(field, rng, 4, 3)
            assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3))
def test_rank_subadditive_and_product(rows_a, rows_b):
    a = DenseMatrix(QQ, rows_a)
    b = DenseMatrix(QQ, rows_b)
    assert (a + b).rank() <= a.rank() + b.rank()
    assert (a * b).rank() <= min(a.rank(), b.rank())


# ---------------------------------------------------------------------------
# modular rank certificate


def test_modular_certificate_identity():
    assert modular_rank_certificate(DenseMatrix.identity(QQ, 5), [2, 3]) == 5


def test_modular_certificate_diag_kills_shared_factors():
    m = DenseMatrix.diagonal(QQ, [6, 1])
    # both 2 and 3 divide 6, so each reduction sees rank 1 only
    assert modular_rank_certificate(m, [2, 3]) == 1
    assert modular_rank_certificate(m, [5]) == 2


def test_modular_certificate_all_ones():
    ones = DenseMatrix(QQ, [[1] * 4 for _ in range(4)])
    assert modular_rank_certificate(ones, [5]) == 1


def test_modular_certificate_rejects_bad_prime():
    m = DenseMatrix(QQ, [[Fraction(1, 2)]])
    with pytest.raises(PrimeDenominatorError):
        modular_rank_certificate(m, [2])
    with pytest.raises(ValueError):
        modular_rank_certificate(m, [4])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.lists(st.lists(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
                                                  min_size=3, max_size=3), min_size=1, max_size=3))
def test_modular_certificate_reduces_each_entry(p, rows):
    """The rank of the entrywise image mod p, refused exactly when p divides an entry's denominator."""
    m = DenseMatrix(QQ, rows)
    if any(x.denominator % p == 0 for row in rows for x in row):
        with pytest.raises(PrimeDenominatorError):
            modular_rank_certificate(m, [p])
    else:
        assert modular_rank_certificate(m, [p]) == DenseMatrix(GF(p), rows).rank()


def test_modular_certificate_is_lower_bound():
    rng = XorShift64Star(17)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = random_matrix(QQ, rng, n, n, lo=-6, hi=6)
        assert modular_rank_certificate(m, [2, 3, 5]) <= m.rank()


# ---------------------------------------------------------------------------
# matrix operations


def test_inverse_identity():
    ident = DenseMatrix.identity(QQ, 3)
    assert ident.inverse() == ident


def test_inverse_round_trip_gf101():
    f = GF(101)
    rng = XorShift64Star(3)
    ident = DenseMatrix.identity(f, 4)
    for _ in range(50):
        a = random_invertible(f, rng, 4)
        assert a * a.inverse() == ident


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        DenseMatrix(QQ, [[1, 2], [2, 4]]).inverse()


def test_kernel_of_zero_matrix():
    k = DenseMatrix.zeros(QQ, 2, 2).kernel_basis()
    assert k.cols == 2


def test_kernel_dimension_matches_rank():
    rng = XorShift64Star(9)
    for field in (QQ, GF(5), QQI):
        for _ in range(20):
            m = random_matrix(field, rng, 3, 5)
            k = m.kernel_basis()
            assert k.cols == 5 - m.rank()
            if k.cols:
                assert (m * k).is_zero()


def test_column_space_basis():
    m = DenseMatrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    b = m.column_space_basis()
    assert b.cols == m.rank() == 2
    assert hstack([b, m]).rank() == 2


def test_solve_right():
    a = DenseMatrix(QQ, [[1, 1], [0, 1], [1, 0]])
    x = DenseMatrix(QQ, [[2], [3]])
    b = a * x
    assert a * a.solve_right(b) == b
    with pytest.raises(ValueError):
        a.solve_right(DenseMatrix(QQ, [[1], [0], [0]]))


def test_direct_sum_and_pad():
    a = DenseMatrix(QQ, [[1, 2], [3, 4]])
    b = DenseMatrix.identity(QQ, 1)
    s = a.direct_sum(b)
    assert s.shape == (3, 3) and s.entry(2, 2) == 1 and s.entry(0, 2) == 0
    p = a.pad(4, 4)
    assert p.shape == (4, 4) and p.entry(1, 1) == 4 and p.entry(3, 3) == 0


@pytest.mark.parametrize("field", [QQ, QQI, GF(3)])
def test_direct_sum_of_many_blocks_matches_chained_sums(field):
    rng = XorShift64Star(7)
    shapes = [(2, 3), (0, 2), (3, 0), (1, 1), (0, 0), (2, 2)]
    blocks = [random_matrix(field, rng, r, c).scale(Fraction(1, 2)) for r, c in shapes]
    for shift in range(len(blocks)):  # each block, the empty ones too, in each position
        order = blocks[shift:] + blocks[:shift]
        for k in range(5):
            first, others = order[0], order[1:k + 1]
            total, chained = first.direct_sum(*others), first
            for b in others:
                chained = chained.direct_sum(b)
            assert total == chained
            expected, r, c = {}, 0, 0
            for b in (first, *others):
                expected.update({(i + r, j + c): v for (i, j), v in b.nonzeros().items()})
                r, c = r + b.rows, c + b.cols
            assert total.shape == (r, c) and total.nonzeros() == expected


@pytest.mark.parametrize("pos", range(4))
def test_direct_sum_refuses_a_block_over_another_field(pos):
    blocks = [DenseMatrix.identity(QQ, 2)] * 3
    blocks.insert(pos, DenseMatrix.identity(GF(3), 2))
    with pytest.raises(FieldMismatch):
        blocks[0].direct_sum(*blocks[1:])


def test_stacking():
    a = DenseMatrix(QQ, [[1, 2]])
    b = DenseMatrix(QQ, [[3, 4]])
    assert vstack([a, b]).shape == (2, 2)
    assert hstack([a, b]).shape == (1, 4)


def test_scalar_multiplication():
    a = DenseMatrix(QQ, [[1, 2], [3, 4]])
    assert a.scale(Fraction(1, 2)) == Fraction(1, 2) * a
    f = GF(5)
    m = DenseMatrix.identity(f, 2)
    assert (m * 3).entry(0, 0) == 3


# ---------------------------------------------------------------------------
# text format


def test_text_roundtrip_rational():
    m = DenseMatrix(QQ, [[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    text = m.to_text()
    assert text.splitlines()[0] == "2 2 rational"
    assert DenseMatrix.from_text(text) == m


def test_text_roundtrip_gf():
    m = DenseMatrix(GF(7), [[1, 6], [0, 3]])
    assert DenseMatrix.from_text(m.to_text()) == m


def test_text_roundtrip_gaussian_signs():
    m = DenseMatrix(
        QQI,
        [
            [GaussianRational(Fraction(-1, 2), Fraction(3, 4)), GaussianRational(0, -1)],
            [GaussianRational(5), GaussianRational(Fraction(2, 3), Fraction(-7, 9))],
        ],
    )
    text = m.to_text()
    assert "i" in text
    assert DenseMatrix.from_text(text) == m


@pytest.mark.parametrize("text", ["", "2", "2 2", "2 2 rational\n1 2 3", "1 1 gaussian\n1/2",
                                  "1 1 rational\n1 2", "-1 2 rational", "1 1 rational 1/0",
                                  "1 1 gaussian\n1/0 i", "1 1 gaussian\n1+1/0 i"])
def test_malformed_text_raises_value_error(text):
    with pytest.raises(ValueError):
        DenseMatrix.from_text(text)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, QQI, GF(7)]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32))
def test_truncated_text_raises_value_error(field, rows, cols, seed):
    text = random_matrix(field, XorShift64Star(seed), rows, cols).to_text()
    for prefix in token_prefixes(text):
        with pytest.raises(ValueError):
            DenseMatrix.from_text(prefix)


def test_immutability_and_hash():
    a = DenseMatrix(QQ, [[1, 2], [3, 4]])
    b = DenseMatrix(QQ, [[1, 2], [3, 4]])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(TypeError):
        a.row(0)[0] = 5  # rows are tuples
    copy = a.row_lists()
    copy[0][0] = 5  # a mutable copy, not a view
    ops = [lambda: a + b, lambda: a - b, lambda: -a, lambda: a.scale(2), lambda: a * b,
           lambda: a.transpose(), lambda: a.direct_sum(b), lambda: a.pad(3, 3),
           lambda: a.submatrix([1], [0, 0]), lambda: a.inverse(), lambda: a.kernel_basis(),
           lambda: a.rref(), lambda: a.rank(), lambda: hstack([a, b]), lambda: vstack([a, b])]
    for op in ops:
        op()
        assert a.row_lists() == b.row_lists() == [[1, 2], [3, 4]]


# ---------------------------------------------------------------------------
# kernel fast paths: zero skipping and uncoerced results


FIELDS = [QQ, GF(7), QQI]


@st.composite
def scalars(draw, field, density):
    """A field element that is nonzero with probability about density / 4."""
    if draw(st.integers(0, 3)) >= density:
        return field.zero
    if field == QQI:
        re, im = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
        return GaussianRational(Fraction(re, draw(st.integers(1, 3))), im)
    num = draw(st.integers(-5, 5).filter(bool))
    return field.coerce(Fraction(num, draw(st.integers(1, 4)) if field == QQ else 1))


@st.composite
def matrices(draw, field, rows, cols):
    density = draw(st.integers(0, 4))  # 0: all zero ... 4: no zero entries
    if not rows:  # a list of no rows cannot carry a column count
        return DenseMatrix.zeros(field, 0, cols)
    return DenseMatrix(field, [[draw(scalars(field, density)) for _ in range(cols)]
                               for _ in range(rows)])


@st.composite
def kernel_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    r, k, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (field, draw(matrices(field, r, k)), draw(matrices(field, r, k)),
            draw(matrices(field, k, c)), draw(matrices(field, k, k)))


def reference_product(a, b):
    """Schoolbook product over every index, zeros included."""
    zero = a.field.zero
    return [[sum((a.entry(i, t) * b.entry(t, j) for t in range(a.cols)), zero)
             for j in range(b.cols)] for i in range(a.rows)]


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernels_match_entrywise_reference(case):
    field, a, b, c, sq = case
    rows_a, rows_b = a.row_lists(), b.row_lists()
    two = field.coerce(2)
    assert (a + b).row_lists() == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(rows_a, rows_b)]
    assert (a - b).row_lists() == [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(rows_a, rows_b)]
    assert (-a).row_lists() == [[-x for x in ra] for ra in rows_a]
    assert a.scale(two).row_lists() == [[two * x for x in ra] for ra in rows_a]
    assert (a * c).row_lists() == reference_product(a, c)
    assert (a * c).shape == (a.rows, c.cols)
    rsel, csel = range(a.rows - 1, -1, -2), [j for j in range(a.cols) if j % 2 == 0]
    assert a.submatrix(rsel, csel).row_lists() == [[rows_a[i][j] for j in csel] for i in rsel]
    assert a.submatrix(rsel, csel).shape == (len(rsel), len(csel))
    for m, x in ((a, c), (sq, c), (c, c.transpose())):
        assert m.rank() == rank_by_minors(m)
        kernel = m.kernel_basis()
        assert kernel.shape == (m.cols, m.cols - m.rank())
        assert (m * kernel).is_zero()
        assert m * m.solve_right(m * x) == m * x
    if sq.rank() == sq.rows:
        assert sq * sq.inverse() == DenseMatrix.identity(field, sq.rows)
    else:
        with pytest.raises(SingularMatrixError):
            sq.inverse()


def assert_field_elements(m, field):
    kind = {QQ: Fraction, QQI: GaussianRational}.get(field, FpElement)
    for row in m.row_lists():
        for x in row:
            assert type(x) is kind
            assert kind is not FpElement or x.p == field.p


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_kernel_results_hold_field_elements(case):
    field, a, b, c, sq = case
    results = [a + b, a - b, -a, a.scale(3), 3 * a, a * 2, a * c, a.transpose(), a.direct_sum(c),
               a.pad(a.rows + 1, a.cols + 2), a.rref()[0], a.kernel_basis(), a.column_space_basis(),
               a.solve_right(a * c), hstack([a, b]), vstack([a, b]), a.map_entries(lambda x: x * 2),
               a.submatrix(range(a.rows), [0, 0][:a.cols]),
               DenseMatrix.identity(field, 3), DenseMatrix.zeros(field, 2, 3),
               DenseMatrix.diagonal(field, [1, 0, -2]), DenseMatrix.elementary(field, 2, 3, 1, 2, 5),
               DenseMatrix.from_text(a.to_text())]
    if sq.rank() == sq.rows:
        results.append(sq.inverse())
    for m in results:
        assert_field_elements(m, field)


CANONICAL_FIELDS = [QQ, GF(2), GF(7), QQI]


@st.composite
def canonical_cases(draw):
    field = draw(st.sampled_from(CANONICAL_FIELDS))
    r, k, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (field, draw(matrices(field, r, k)), draw(matrices(field, r, k)),
            draw(matrices(field, k, c)), draw(matrices(field, k, k)))


def assert_canonical(m):
    """m equals, and hashes like, the matrix its dense entries build."""
    twin = DenseMatrix(m.field, m.row_lists()) if m.rows else DenseMatrix.zeros(m.field, 0, m.cols)
    assert twin.shape == m.shape
    assert m == twin and hash(m) == hash(twin)


def late_common_factor_cases():
    """Kernel results whose rows share a factor with their denominator only afterwards."""
    z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    w = GaussianRational(Fraction(3, 4), -1)
    q = DenseMatrix(QQ, [["1/2", "1/6", "5/3"], ["1/4", 0, "-2/9"]])
    qi = DenseMatrix(QQI, [[z, w, 0], [w, 0, z], [z * 2, w * 2, 0]])
    assert q.transpose().transpose() == q and qi.transpose().transpose() == qi
    assert DenseMatrix(QQ, [["1/2", "1/6"]]).submatrix([0], [0]) == DenseMatrix(QQ, [["1/2"]])
    results = [DenseMatrix(QQ, [["1/2", "1/6"]]).submatrix([0], [0]),  # 3/6 before it is reduced
               q.transpose(), q.scale(Fraction(3, 2)), q.scale(Fraction(-4, 9)), q.submatrix([1, 0], [2, 1]),
               qi.transpose(), qi.scale(Fraction(2, 3)), qi.scale(w), qi.kernel_basis(), qi.rref()[0],
               qi.submatrix([0, 1], [0, 1]).inverse(), qi.submatrix([0, 1], [1, 2]).kernel_basis()]
    for p in (2, 7):
        a = DenseMatrix(GF(p), [[1, 2, 0, 3], [0, 0, 5, 1]])
        results += [-a, a.scale(p - 1), -a + a.scale(p - 1), a.scale(p), a.transpose().kernel_basis()]
    return results


@settings(max_examples=150, deadline=None)
@given(canonical_cases())
def test_kernel_results_are_canonical(case):
    """A stored zero would make equal matrices compare unequal."""
    field, a, b, c, sq = case
    e01 = DenseMatrix.elementary(field, 2, 2, 0, 1)
    minus_one = field.characteristic - 1  # -1, or p - 1: sums that cancel mod p
    p = field.characteristic  # 0, or a value that vanishes mod p
    built = [DenseMatrix.from_entries(field, 2, 3, {(1, 2): 1, (0, 2): 0, (1, 0): p, (0, 0): minus_one}),
             DenseMatrix.from_entries(field, 3, 2, {(2, 1): p}), DenseMatrix.diagonal(field, [0, p, 3]),
             DenseMatrix.elementary(field, 2, 3, 1, 2, p)]
    cancelled = [a - a, a + (-a), a + a.scale(minus_one), a.scale(field.characteristic),
                 sq * sq.transpose() - (sq * sq.transpose()).transpose().transpose()]
    for m in cancelled:
        assert m.is_zero() and m == DenseMatrix.zeros(field, *m.shape)
    assert e01 * e01 == DenseMatrix.zeros(field, 2, 2)
    assert (a + b) - b == a and (a - b) + b == a and -(-a) == a
    rsel, csel = range(a.rows - 1, -1, -1), [j for j in range(a.cols)][::-1] * 2
    results = [a + b, a - b, -a, a.scale(2), a * c, (a + b) * c - b * c, a.transpose(),
               a.submatrix(rsel, csel), a.direct_sum(c), a.pad(a.rows + 1, a.cols + 2),
               hstack([a, b]), vstack([a, b]), a.kernel_basis(), a.rref()[0], e01 * e01, *cancelled, *built,
               a.scale(minus_one), a.scale(Fraction(2, 3)), (a + b).scale(Fraction(-6, 5)), a.solve_right(a * c)]
    if sq.rank() == sq.rows:
        results += [sq.inverse(), sq * sq.inverse()]
    for m in results + late_common_factor_cases():
        assert_canonical(m)


# ---------------------------------------------------------------------------
# sums of products and the text format against boxed references


@st.composite
def sparse_matrices(draw, field, rows, cols, least=1):
    """A rows-by-cols matrix with `least` (1 or 2) to two nonzero entries in each row."""
    entries = {}
    for i in range(rows):
        for j in draw(st.lists(st.integers(0, cols - 1), min_size=least, max_size=2, unique=True)):
            entries[(i, j)] = draw(scalars(field, 4))
    return DenseMatrix.from_entries(field, rows, cols, entries)


@st.composite
def thin_matrices(draw, field, rows, cols):
    """A rows-by-cols matrix with at most one nonzero entry in each row."""
    entries = {}
    for i in range(rows):
        if draw(st.booleans()):
            entries[(i, draw(st.integers(0, cols - 1)))] = draw(scalars(field, 4))
    return DenseMatrix.from_entries(field, rows, cols, entries)


@st.composite
def product_sum_cases(draw):
    """(A, B) pairs for each accumulator of the product kernel:
      - small: 1 to 3 small matrices of any density (mostly the dense one),
      - wide: 1 to 3 with one or two nonzeros per row (mostly the hypersparse
        one, as they average 1 to 4 flops per row and term),
      - mid: 1 or 2 with two nonzeros in every row (the per-row one: at least
        4 flops per row and term, and under ncols / 4 a row even on Q(i)'s
        real forms; over GF(2) a drawn entry can vanish),
      - tall: 1 to 4 with at most one nonzero per row (the hypersparse one)."""
    field = draw(st.sampled_from(CANONICAL_FIELDS))
    kind = draw(st.sampled_from(["small", "wide", "mid", "tall"]))
    if kind == "tall":
        r, c = draw(st.integers(8, 40)), draw(st.integers(8, 40))
        return field, [(draw(thin_matrices(field, r, k)), draw(thin_matrices(field, k, c)))
                       for k in draw(st.lists(st.integers(1, 24), min_size=1, max_size=4))]
    if kind == "mid":
        r, c = draw(st.integers(1, 4)), draw(st.integers(72, 96))
        return field, [(draw(sparse_matrices(field, r, k, 2)), draw(sparse_matrices(field, k, c, 2)))
                       for k in draw(st.lists(st.integers(8, 24), min_size=1, max_size=2))]
    wide = kind == "wide"
    make = sparse_matrices if wide else matrices
    r, c = (draw(st.integers(1, 4)), draw(st.integers(48, 64))) if wide else (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(8, 24)) if wide else draw(st.integers(0, 4))
        pairs.append((draw(make(field, r, k)), draw(make(field, k, c))))
    return field, pairs


@settings(max_examples=160, deadline=None)
@given(product_sum_cases())
def test_product_sum_matches_entrywise_reference(case):
    field, pairs = case
    got = product_sum(pairs)
    refs = [reference_product(a, b) for a, b in pairs]
    assert got.shape == (pairs[0][0].rows, pairs[0][1].cols)
    assert got.row_lists() == [[sum(xs, field.zero) for xs in zip(*rows)] for rows in zip(*refs)]
    assert_canonical(got)
    a, b = pairs[0]
    assert product_sum([(a, b)]) == a * b
    rest = product_sum(pairs[1:]) if len(pairs) > 1 else DenseMatrix.zeros(field, *got.shape)
    assert product_sum([*pairs, (-a, b)]) == rest  # the first term cancels


@pytest.mark.parametrize("field", [QQ, GF(7), QQI])
def test_product_sum_rows_over_differing_denominators(field):
    # row 0 cancels to zero across the terms; row 1 goes over the lcm of dens 2, 3 and 5
    a1 = DenseMatrix(field, [["1/2", 1, 0], [1, 0, "1/3"]])
    a2 = DenseMatrix(field, [["-1/2", -1, 0], [0, "1/5", 0]])
    a3 = DenseMatrix(field, [[0, 0, 0], ["2/3", 0, "1/2"]])
    c = DenseMatrix(field, [["1/5", 0, 1], [0, "1/3", 0], [1, 0, "-1/2"]])
    ident = DenseMatrix.identity(field, 3)
    pairs = [(a1, ident), (a2, ident), (a3, c)]
    got = product_sum(pairs)
    assert got == a1 + a2 + a3 * c
    assert got.row_lists() == [[sum(xs, field.zero) for xs in zip(*rows)]
                               for rows in zip(*[reference_product(a, b) for a, b in pairs])]
    assert got._data[0] == [] and got._den[0] == 1
    assert_canonical(got)
    assert product_sum([(a1, ident), (-a1, ident)]) == DenseMatrix.zeros(field, 2, 3)


@pytest.mark.parametrize("field", [QQ, GF(7), QQI])
@pytest.mark.parametrize("a_nonzeros", [12, 13])
def test_product_sum_either_side_of_the_hypersparse_rule(field, a_nonzeros):
    # Two 4x4 by 4x32 terms, each B with one entry a row.  The flops estimate
    # is a_nonzeros + 12: at most 3 * rows * terms = 24 only for 12, so 12 sums
    # in the (row, column) dict and 13 in the per-row one; 4 * 25 < 4 * 32
    # keeps both off the dense list.  Over Q(i) B1 is imaginary, whose real
    # form has as many nonzeros a row, so the estimate is the same.
    unit = GaussianRational(0, 1) if field == QQI else 1
    a1 = DenseMatrix.from_entries(field, 4, 4, {divmod(e, 4): Fraction(e % 4 + 1, e // 4 + 2) for e in range(a_nonzeros)})
    a2 = DenseMatrix.from_entries(field, 4, 4, {divmod(e, 4): Fraction(-1, e % 3 + 1) for e in range(12)})
    b1 = DenseMatrix.from_entries(field, 4, 32, {(t, 7 * t % 32): unit * Fraction(-1, t + 1) for t in range(4)})
    b2 = DenseMatrix.from_entries(field, 4, 32, {(t, (7 * t + 7) % 32): Fraction(t + 2, 3) for t in range(4)})
    pairs = [(a1, b1), (a2, b2)]
    got = product_sum(pairs)
    assert got.row_lists() == [[sum(xs, field.zero) for xs in zip(*rows)]
                               for rows in zip(*[reference_product(a, b) for a, b in pairs])]
    assert got == a1 * b1 + a2 * b2
    assert_canonical(got)


def test_product_sum_rejects_mismatched_terms():
    a, b = DenseMatrix(QQ, [[1, 2]]), DenseMatrix(QQ, [[1], [2]])
    with pytest.raises(FieldMismatch):
        product_sum([(a, b), (DenseMatrix(GF(7), [[1, 2]]), DenseMatrix(GF(7), [[1], [2]]))])
    with pytest.raises(FieldMismatch):
        product_sum([(a, DenseMatrix(GF(7), [[1], [2]]))])
    with pytest.raises(DimensionMismatch):
        product_sum([(a, a)])  # inner dimensions differ
    with pytest.raises(DimensionMismatch):
        product_sum([(a, b), (b, a)])  # 1x1 and 2x2 products
    with pytest.raises(DimensionMismatch):
        product_sum([(a, b), (DenseMatrix(QQ, [[1]]), DenseMatrix(QQ, [[1, 1]]))])  # 1x1 and 1x2


def reference_text(m):
    """The text format as written through ``row_lists``: every entry boxed and formatted."""
    f = m.field
    lines = [f"{m.rows} {m.cols} {f.tag}"] + [" ".join(f.format_scalar(a) for a in row) for row in m.row_lists()]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(product_sum_cases())
def test_text_matches_boxed_reference(case):
    _, pairs = case
    for m in [m for pair in pairs for m in pair] + [product_sum(pairs)]:
        text = m.to_text()
        assert text == reference_text(m)
        assert DenseMatrix.from_text(text) == m


@settings(max_examples=100, deadline=None)
@given(canonical_cases())
def test_from_entries_matches_dense_constructor(case):
    """`a` comes from DenseMatrix(field, dense rows); every zero is given too."""
    field, a, _, _, _ = case
    entries = {(i, j): x for i, row in enumerate(a.row_lists()) for j, x in enumerate(row)}
    for given in (entries, dict(reversed(entries.items())), {k: x for k, x in entries.items() if x}):
        built = DenseMatrix.from_entries(field, a.rows, a.cols, given)
        assert built.shape == a.shape and built == a
    assert DenseMatrix.from_entries(field, a.rows, a.cols, {}) == DenseMatrix.zeros(field, a.rows, a.cols)
    nonzeros = a.nonzeros()
    assert nonzeros == {k: x for k, x in entries.items() if x}
    assert all(type(x) is type(field.one) for x in nonzeros.values())
    assert DenseMatrix.from_entries(field, a.rows, a.cols, nonzeros) == a


def test_from_entries_coerces_its_values():
    built = DenseMatrix.from_entries(QQ, 2, 2, {(0, 1): "1/2", (1, 0): 3})
    assert built == DenseMatrix(QQ, [[0, "1/2"], [3, 0]])
    built = DenseMatrix.from_entries(GF(7), 1, 2, {(0, 0): Fraction(1, 2), (0, 1): 14})
    assert built == DenseMatrix(GF(7), [[4, 0]])
    assert DenseMatrix.from_entries(QQI, 1, 1, {(0, 0): (1, -2)}).entry(0, 0) == GaussianRational(1, -2)
    half = DenseMatrix.from_entries(QQI, 1, 2, {(0, 0): (Fraction(1, 2), 3), (0, 1): ("1/3", -1)})
    assert half.row(0) == (GaussianRational(Fraction(1, 2), 3), GaussianRational(Fraction(1, 3), -1))
    with pytest.raises(TypeError):
        DenseMatrix.from_entries(QQ, 1, 1, {(0, 0): 0.5})


FIRST_DRAWS = {  # XorShift64Star(seed).below(n), three times: draws for bounds up to 2**64 must not change
    0: {
        7: [3, 2, 0],
        4294967311: [3479813707, 4202570395, 610324016],
        9223372036854775809: [973819730272012410, 6108091081255984487, 9038174178950858617],
        18446744073709551557: [973819730272012410, 6108091081255984487, 12125365036566318712],
        18446744073709551616: [973819730272012410, 6108091081255984487, 12125365036566318712],
    },
    1: {
        7: [5, 1, 4],
        4294967311: [1392822004, 3478036955, 137581708],
        9223372036854775809: [5180492295206395165, 5599127315341312413, 1036278371763004928],
        18446744073709551557: [5180492295206395165, 12380297144915551517, 13389498078930870103],
        18446744073709551616: [5180492295206395165, 12380297144915551517, 13389498078930870103],
    },
    12345: {
        7: [4, 0, 5],
        4294967311: [3704094333, 4266971955, 1691892606],
        9223372036854775809: [1412386850724336324, 2204759546661399375, 3884182425906045667],
        18446744073709551557: [10977518812293740004, 13893246733018840292, 1412386850724336324],
        18446744073709551616: [10977518812293740004, 13893246733018840292, 1412386850724336324],
    },
}


@pytest.mark.parametrize("seed", sorted(FIRST_DRAWS))
def test_below_draws_stay_pinned_up_to_two_to_the_64(seed):
    for n, draws in FIRST_DRAWS[seed].items():
        rng = XorShift64Star(seed)
        assert [rng.below(n) for _ in draws] == draws


@pytest.mark.parametrize("n", [2**64 + 13, 2**80 - 65])
def test_below_draws_bounds_beyond_one_word(n):
    rng = XorShift64Star(5)
    draws = [rng.below(n) for _ in range(200)]
    assert all(0 <= x < n for x in draws)
    assert max(draws) >= n // 2  # the draws reach the top half, beyond one word for 2**80 - 65


def random_scalar(field, rng, lo=-4, hi=4):
    """A small random element of `field`, boxed: the draws random_matrix makes per entry."""
    if field.kind == "gaussian":
        return field.coerce((rng.randint(lo, hi), rng.randint(lo, hi)))
    if field.kind == "gf":
        return field.coerce(rng.below(field.p))
    return field.coerce(rng.randint(lo, hi))


@pytest.mark.parametrize("field", [QQ, QQI, GF(2), GF(7), GF(1000003)])
def test_random_matrix_matches_boxed_draws(field):
    for seed, rows, cols, lo, hi in [(1, 3, 3, -4, 4), (7, 5, 2, -6, 6), (11, 0, 3, -4, 4),
                                     (12, 2, 0, -4, 4), (13, 4, 6, 0, 0), (14, 1, 5, -1, 9)]:
        rng, ref_rng = XorShift64Star(seed), XorShift64Star(seed)
        m = random_matrix(field, rng, rows, cols, lo, hi)
        ref = [[random_scalar(field, ref_rng, lo, hi) for _ in range(cols)] for _ in range(rows)]
        assert m.shape == (rows, cols)
        assert m == (DenseMatrix(field, ref) if rows else DenseMatrix.zeros(field, 0, cols))
        assert_canonical(m)
        assert rng.next_u64() == ref_rng.next_u64()  # the stream is left in the same state


@pytest.mark.parametrize("index", [(2, 0), (0, 3), (-1, 0), (0, -1), (5, 5)])
def test_from_entries_rejects_out_of_range_index(index):
    with pytest.raises(IndexError):
        DenseMatrix.from_entries(QQ, 2, 3, {(0, 0): 1, index: 1})
    with pytest.raises(IndexError):
        DenseMatrix.from_entries(QQ, 2, 3, {index: 0})  # a zero value is checked too


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes_survive(field, rows, cols):
    m = DenseMatrix.zeros(field, rows, cols)
    assert m.shape == (rows, cols)
    assert m.transpose().shape == (cols, rows)
    assert m.transpose().transpose() == m
    for mat in (m, m.transpose()):
        back = DenseMatrix.from_text(mat.to_text())
        assert back.shape == mat.shape and back == mat


# ---------------------------------------------------------------------------
# integer kernels against boxed references


BIG_PRIME = 1000003
INT_KERNEL_FIELDS = [QQ, QQI, GF(2), GF(7), GF(BIG_PRIME)]


def reference_rref(m):
    """Textbook Gauss-Jordan on boxed field elements: (RREF rows, pivot columns)."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        below = [i for i in range(r, m.rows) if rows[i][c] != m.field.zero]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        inv = m.field.one / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m.rows):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_kernel(m):
    """Columns e_f - sum_r rref[r][f] e_pivot(r), one per free column f."""
    rows, pivots = reference_rref(m)
    vecs = []
    for f in (j for j in range(m.cols) if j not in pivots):
        vec = [m.field.zero] * m.cols
        vec[f] = m.field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][f]
        vecs.append(vec)
    return [[vec[i] for vec in vecs] for i in range(m.cols)]


@st.composite
def int_kernel_matrices(draw, field, rows, cols):
    """Dense, sparse (each entry kept with probability 1/4) or structured
    (diagonal, bidiagonal, scaled permutation) matrices; in the last, most
    pivots have no row to clear."""
    big = draw(st.booleans())
    if field.characteristic == 0:
        nums = st.integers(-10**6, 10**6) if big else st.integers(-5, 5)
        dens = st.integers(1, 10**4) if big else st.integers(1, 4)
        entry = st.builds(Fraction, nums, dens)
        if field == QQI:
            entry = st.builds(GaussianRational, entry, entry)
    else:
        entry = st.integers(0, field.p - 1) if big else st.integers(-2, 2)
    if not rows:
        return DenseMatrix.zeros(field, 0, cols)
    shape = draw(st.sampled_from(["dense", "sparse", "diagonal", "bidiagonal", "permutation"]))
    if shape == "dense":
        keep = lambda i, j: True
    elif shape == "sparse":
        keep = lambda i, j: draw(st.integers(0, 3)) == 0
    elif shape == "diagonal":
        keep = lambda i, j: i == j
    elif shape == "bidiagonal":
        off = draw(st.sampled_from([-1, 1]))
        keep = lambda i, j: j - i in (0, off)
    else:
        perm = draw(st.permutations(range(max(rows, cols))))
        keep = lambda i, j: perm[i] == j
    data = [[draw(entry) if keep(i, j) else 0 for j in range(cols)] for i in range(rows)]
    for i in range(1, rows) if shape in ("dense", "sparse") else ():
        if draw(st.integers(0, 3)) == 0:  # forced rank deficiency: a row copies a combination
            k, s = draw(st.integers(0, i - 1)), draw(st.integers(-3, 3))
            data[i] = [x + s * y for x, y in zip(data[i - 1], data[k])]
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        data[i] = [0] * cols
    if cols:
        for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            for row in data:
                row[j] = 0
    return DenseMatrix(field, data)


@st.composite
def int_kernel_cases(draw):
    field = draw(st.sampled_from(INT_KERNEL_FIELDS))
    rows, cols, out = draw(st.integers(0, 9)), draw(st.integers(1, 9)), draw(st.integers(0, 9))
    return draw(int_kernel_matrices(field, rows, cols)), draw(int_kernel_matrices(field, cols, out))


@settings(max_examples=200, deadline=None)
@given(int_kernel_cases())
def test_int_kernels_match_boxed_reference(case):
    m, other = case
    field = m.field
    rows, pivots = reference_rref(m)
    rref, rref_pivots = m.rref()
    assert rref.row_lists() == rows and list(rref_pivots) == pivots
    assert m.rank() == len(pivots)
    kernel = m.kernel_basis()
    assert kernel.shape == (m.cols, m.cols - len(pivots))
    assert kernel.row_lists() == reference_kernel(m)
    assert (m * other).row_lists() == reference_product(m, other)
    assert (m.transpose() * m).row_lists() == reference_product(m.transpose(), m)
    k = min(m.rows, m.cols)
    sq = m.submatrix(range(k), range(k))
    aug = hstack([sq, DenseMatrix.identity(field, k)])
    rows, pivots = reference_rref(aug)
    if pivots == list(range(k)):
        assert sq.inverse().row_lists() == [row[k:] for row in rows]
    else:
        with pytest.raises(SingularMatrixError):
            sq.inverse()
    for result in (rref, kernel, m * other):
        assert_field_elements(result, field)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda shape: st.lists(
    st.lists(st.integers(-9, 9) | st.just(0), min_size=shape[1], max_size=shape[1]),
    min_size=shape[0], max_size=shape[0])))
@example([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [2, 0, 0, 0]])  # no pivot has a row to clear
def test_integer_elimination_stays_fraction_free(rows):
    """Every nonzero entry left is a minor of the input up to sign, as in Bareiss' elimination."""
    nrows, ncols = len(rows), len(rows[0])
    minors = {abs(det_laplace([[rows[i][j] for j in cs] for i in rs]))
              for k in range(1, min(nrows, ncols) + 1)
              for rs in combinations(range(nrows), k) for cs in combinations(range(ncols), k)}
    for reduced in (False, True):
        work = [list(row) for row in rows]
        pivots = _eliminate_int(work, reduced)
        assert len(pivots) == rank_by_minors(DenseMatrix(QQ, rows))
        assert {abs(a) for row in work for a in row if a} <= minors


def test_pivot_rows_with_nothing_to_clear_stay_unchanged():
    """A scaled permutation has no row to clear at any pivot, so no row changes
    and its entries stay at 9 bits.  Were every pivot taken into the Bareiss
    sequence, each pivot row would be scaled by the one before, to 2050 bits."""
    n = 300
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][7 * i % n] = i + 2
    for reduced in (False, True):
        work = [list(row) for row in rows]
        assert len(_eliminate_int(work, reduced)) == n
        assert sorted(work) == sorted(rows)
