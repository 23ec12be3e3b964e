from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankstability import (
    GF,
    QQ,
    QQI,
    DenseMatrix,
    FpElement,
    GaussianRational,
    PrimeDenominatorError,
    SingularMatrixError,
    XorShift64Star,
    modular_rank_certificate,
)
from rankstability.exactfield import _eliminate_int, field_from_tag, hstack, vstack
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
    two = field.from_int(2)
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
               hstack([a, b]), vstack([a, b]), a.kernel_basis(), a.rref()[0], e01 * e01, *cancelled, *built]
    if sq.rank() == sq.rows:
        results += [sq.inverse(), sq * sq.inverse()]
    for m in results:
        assert_canonical(m)


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


def test_from_entries_coerces_its_values():
    built = DenseMatrix.from_entries(QQ, 2, 2, {(0, 1): "1/2", (1, 0): 3})
    assert built == DenseMatrix(QQ, [[0, "1/2"], [3, 0]])
    built = DenseMatrix.from_entries(GF(7), 1, 2, {(0, 0): Fraction(1, 2), (0, 1): 14})
    assert built == DenseMatrix(GF(7), [[4, 0]])
    assert DenseMatrix.from_entries(QQI, 1, 1, {(0, 0): (1, -2)}).entry(0, 0) == GaussianRational(1, -2)
    with pytest.raises(TypeError):
        DenseMatrix.from_entries(QQ, 1, 1, {(0, 0): 0.5})


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
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):  # forced rank deficiency: a row copies a combination
        if draw(st.integers(0, 3)) == 0:
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
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_integer_elimination_stays_fraction_free(rows):
    """The last pivot is the determinant up to sign, as in Bareiss' elimination."""
    det = det_laplace([[Fraction(x) for x in row] for row in rows])
    for reduced in (False, True):
        work = [list(row) for row in rows]
        pivots = _eliminate_int(work, reduced)
        assert len(pivots) == rank_by_minors(DenseMatrix(QQ, rows))
        if det:
            assert abs(work[-1][pivots[-1]]) == abs(det)
