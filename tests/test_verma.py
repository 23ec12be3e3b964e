from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankstability import (
    GF,
    QQI,
    AlmostRep,
    DenseMatrix,
    QQ,
    UEAElement,
    VermaModule,
    adjoint_rep,
    build_sl,
    build_truncation,
    casimir,
    central_character_value,
    check_highest_weight_structure,
    check_near_scalar,
    epsilon_bound,
    evaluate_uea,
    irreducible_sl2,
    direct_sum_rep,
    rep_distance_certificate,
    separation_certificate,
    weyl_twist,
)
from rankstability.exactfield import hstack
from rankstability.prng import XorShift64Star, random_unimodular
from rankstability.rankmetric import strict_distance
from rankstability.verma import (
    _Span,
    parse_weight,
    reordered_sl2_casimir,
    sl2_lowest_weight_intertwiner,
    truncation_monomials,
    weyl_twist_scan,
)

SL2 = build_sl(2)
SL3 = build_sl(3)
HALF = (Fraction(1, 2),)


def module(weight=HALF):
    return VermaModule(SL2, weight)


# ---------------------------------------------------------------------------
# module action


def test_act_h_gives_weight():
    lam = Fraction(1, 2)
    mod = module()
    for k in range(6):
        out = mod.act(1, (k,))
        assert out == {(k,): lam - 2 * k}


def test_act_e_classical_formula():
    lam = Fraction(1, 2)
    mod = module()
    assert mod.act(2, (0,)) == {}
    for k in range(1, 7):
        out = mod.act(2, (k,))
        assert out == {(k - 1,): k * (lam - k + 1)}


def test_act_f_is_free():
    mod = module()
    for k in range(5):
        assert mod.act(0, (k,)) == {(k + 1,): Fraction(1)}


def test_act_weight_length_checked():
    with pytest.raises(Exception):
        VermaModule(SL2, (Fraction(1), Fraction(2)))


def test_sl3_action_stays_ordered():
    mod = VermaModule(SL3, (Fraction(1, 2), Fraction(1, 3)))
    # y2 . y1 v0 needs one straightening step: y2 y1 = y1 y2 + [y2, y1]
    out = mod.act(1, (1, 0, 0))
    assert out == {(1, 1, 0): QQ.one, (0, 0, 1): QQ.one}


# ---------------------------------------------------------------------------
# truncations


def test_truncation_monomial_count():
    assert len(truncation_monomials(1, 4)) == 5
    assert len(truncation_monomials(3, 6)) == comb(9, 3) == 84


def test_truncation_h_matrix_is_weight_diagonal():
    lam = Fraction(1, 2)
    rep = build_truncation(SL2, HALF, 6)
    h = rep.images[1]
    for k in range(7):
        assert h.entry(k, k) == lam - 2 * k


def test_truncation_defect_only_on_top_monomial():
    rep = build_truncation(SL2, HALF, 4)
    e, f, h = rep.images[2], rep.images[0], rep.images[1]
    defect = e * f - f * e - h
    # single violation: the top monomial column, coefficient -(n+1)(lam-n)
    n, lam = 4, Fraction(1, 2)
    assert defect.rank() == 1
    assert defect.entry(n, n) == -(n + 1) * (lam - n)


def test_truncation_at_integral_weight_equals_simple_quotient():
    rep = build_truncation(SL2, (Fraction(4),), 4)
    assert rep.meta["pointwise_defect"].value == 0
    assert rep.images == irreducible_sl2(4).images


def test_truncation_exact_below_boundary():
    lam = HALF
    n = 5
    rep = build_truncation(SL2, lam, n)
    mod = module()
    monos = truncation_monomials(1, n)
    for j, mono in enumerate(monos):
        exact = mod.act(0, mono)
        col = rep.images[0].column(j)
        got = {m: col[i] for i, m in enumerate(monos) if col[i]}
        if sum(mono) <= n - 1:
            assert got == exact
    # h and the raising generator act exactly on all of the truncation
    for gen in (1, 2):
        for j, mono in enumerate(monos):
            exact = mod.act(gen, mono)
            col = rep.images[gen].column(j)
            got = {m: col[i] for i, m in enumerate(monos) if col[i]}
            assert got == exact


def test_truncation_matches_closed_forms_small():
    # hand-derivable matrices for one-variable monomials f^k, k = 0..n:
    # h is diag(lam - 2k), f the subdiagonal shift (truncated at the top),
    # e the superdiagonal k(lam - k + 1)
    lam = Fraction(1, 2)
    for n in (2, 3, 4, 5):
        rep = build_truncation(SL2, (lam,), n)
        f_img, h_img, e_img = rep.images
        dim = n + 1
        for i in range(dim):
            for j in range(dim):
                assert h_img.entry(i, j) == (lam - 2 * i if i == j else 0)
                assert f_img.entry(i, j) == (1 if i == j + 1 else 0)
                expect = (j) * (lam - j + 1) if i == j - 1 else 0
                assert e_img.entry(i, j) == expect


def test_structure_checks():
    assert check_highest_weight_structure(build_truncation(SL2, HALF, 4)).passed
    assert check_highest_weight_structure(build_truncation(SL2, (Fraction(0),), 3)).passed
    rep3 = build_truncation(SL3, (Fraction(1, 2), Fraction(1, 3)), 4)
    report = check_highest_weight_structure(rep3)
    assert report.passed and report.dim == comb(7, 3)


def test_structure_check_failures():
    report = check_highest_weight_structure(direct_sum_rep([2, 1]))
    assert (report.generated_dim, report.dim) == (3, 5)
    assert report.cartan_diagonal and report.annihilates_highest and not report.passed

    rep = build_truncation(SL2, HALF, 4)
    y, h, x = rep.images
    off = DenseMatrix.elementary(QQ, rep.dim, rep.dim, 0, 1)
    report = check_highest_weight_structure(AlmostRep(SL2, QQ, rep.dim, (y, h + off, x)))
    assert not report.cartan_diagonal and report.annihilates_highest and not report.passed

    off = DenseMatrix.elementary(QQ, rep.dim, rep.dim, 1, 0)
    report = check_highest_weight_structure(AlmostRep(SL2, QQ, rep.dim, (y, h, x + off)))
    assert report.cartan_diagonal and not report.annihilates_highest and not report.passed


def _krylov_dim(rep):
    """Dimension of the smallest subspace holding e_0 that every negative generator maps into itself."""
    ys = [rep.images[y] for y in rep.algebra.negative_indices]
    span = DenseMatrix.from_entries(rep.field, rep.dim, 1, {(0, 0): rep.field.one})
    while True:
        grown = hstack([span] + [y * span for y in ys]).column_space_basis()
        if grown.cols == span.cols:
            return span.cols
        span = grown


def _conjugate(rep, seed):
    conj, inv = random_unimodular(rep.field, XorShift64Star(seed), rep.dim)
    return AlmostRep(rep.algebra, rep.field, rep.dim, tuple(conj * img * inv for img in rep.images))


@pytest.mark.parametrize("field", [QQ, QQI, GF(7)], ids=["Q", "Q(i)", "GF(7)"])
def test_structure_check_matches_krylov_oracle(field):
    """generated_dim is the Krylov dimension of e_0, and the highest vector is killed
    exactly when column 0 of every positive image is zero."""
    sl2 = build_truncation(SL2, HALF, 5, field)
    sl3 = build_truncation(SL3, (Fraction(1, 2), Fraction(1, 3)), 3, field)
    reps = [
        sl2,
        build_truncation(SL2, (Fraction(0),), 3, field),
        build_truncation(SL3, (Fraction(1), Fraction(2)), 2, field),
        sl3,
        weyl_twist(sl2),
        weyl_twist(irreducible_sl2(3, field)),
        _conjugate(sl2, 1),
        _conjugate(sl3, 2),
        _conjugate(weyl_twist(sl2), 3),
        direct_sum_rep([2, 1], field),
        adjoint_rep(build_sl(2), field),
        adjoint_rep(SL3, field),
    ]
    proper = 0
    for rep in reps:
        report = check_highest_weight_structure(rep)
        assert report.generated_dim == _krylov_dim(rep)
        assert report.annihilates_highest == all(
            not any(rep.images[x].column(0)) for x in rep.algebra.positive_indices
        )
        proper += report.generated_dim < rep.dim
    assert proper >= 4


def test_defect_bound_certified_on_build():
    for n in (2, 3, 5, 9):
        rep = build_truncation(SL2, HALF, n)
        assert rep.meta["pointwise_defect"].value <= epsilon_bound(SL2, n)


# ---------------------------------------------------------------------------
# enveloping algebra words


def test_uea_element_degree_and_order():
    omega = casimir(SL2)
    assert omega.degree == 2
    assert omega.is_pbw_ordered()
    assert not reordered_sl2_casimir().is_pbw_ordered()


def test_evaluate_single_generator_and_unit():
    rep = build_truncation(SL2, HALF, 3)
    single = UEAElement({(0,): 1})
    assert evaluate_uea(rep, single) == rep.images[0]
    unit = UEAElement({(): Fraction(5, 2)})
    assert evaluate_uea(rep, unit) == DenseMatrix.identity(QQ, rep.dim).scale(Fraction(5, 2))
    for empty in (UEAElement({}), UEAElement({(0,): 0})):
        assert evaluate_uea(rep, empty) == DenseMatrix.zeros(QQ, rep.dim, rep.dim)


def test_evaluate_word_is_matrix_product():
    rep = build_truncation(SL2, HALF, 3)
    fe = UEAElement({(0, 2): 1})
    assert evaluate_uea(rep, fe) == rep.images[0] * rep.images[2]
    y, h, x = rep.images
    mixed = UEAElement({(0, 1, 2): Fraction(2, 3), (2, 0): -1, (1,): 4, (): Fraction(-1, 2)})
    expected = (y * h * x).scale(Fraction(2, 3)) - x * y + h.scale(4) - DenseMatrix.identity(QQ, rep.dim).scale(Fraction(1, 2))
    assert evaluate_uea(rep, mixed) == expected


# ---------------------------------------------------------------------------
# central characters


def test_sl2_character_values():
    omega = casimir(SL2)
    assert central_character_value(SL2, omega, HALF) == Fraction(5, 4)
    assert central_character_value(SL2, omega, (Fraction(0),)) == 0


def test_act_element_sums_scaled_words():
    module = VermaModule(SL2, HALF)
    element = UEAElement({(2, 0): 3, (1,): -1, (): 2})
    vec = {(1,): Fraction(1), (2,): Fraction(-1, 2)}
    expected = {}
    for word, coeff in element.terms.items():
        for mono, c in module.act_word(word, vec).items():
            expected[mono] = expected.get(mono, 0) + coeff * c
    assert module.act_element(element, vec) == {m: c for m, c in expected.items() if c}


def test_casimir_acts_by_its_character():
    module = VermaModule(SL2, HALF)
    omega = casimir(SL2)
    chi = central_character_value(SL2, omega, HALF)
    for mono in [(0,), (1,), (3,)]:
        assert module.act_element(omega, {mono: Fraction(1)}) == {mono: chi}


def test_sl2_linkage():
    omega = casimir(SL2)
    rng = XorShift64Star(21)
    for _ in range(20):
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        linked = (-lam - 2,)
        assert central_character_value(SL2, omega, (lam,)) == central_character_value(
            SL2, omega, linked
        )


def test_sl2_unlinked_characters_differ():
    omega = casimir(SL2)
    rng = XorShift64Star(22)
    found = 0
    while found < 20:
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        mu = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if mu == lam or mu == -lam - 2:
            continue
        found += 1
        assert central_character_value(SL2, omega, (lam,)) != central_character_value(
            SL2, omega, (mu,)
        )


def test_sl3_character_closed_form_and_linkage():
    omega = casimir(SL3)
    a, b = Fraction(1, 2), Fraction(1, 3)
    chi = central_character_value(SL3, omega, (a, b))
    assert chi == Fraction(2, 3) * (a * a + a * b + b * b) + 2 * (a + b)
    # both simple-reflection shifted weights give the same character
    for linked in ((-a - 2, a + b + 1), (a + b + 1, -b - 2)):
        assert central_character_value(SL3, omega, linked) == chi


def test_casimir_is_central_through_straightening():
    for alg, weight in ((SL2, HALF), (SL3, (Fraction(1, 2), Fraction(1, 3)))):
        omega = casimir(alg)
        mod = VermaModule(alg, weight)

        def act_elem(vec):
            out = {}
            for word, coeff in omega.terms.items():
                for mono, c in mod.act_word(word, vec).items():
                    cur = out.get(mono, QQ.zero)
                    s = cur + coeff * c
                    if s:
                        out[mono] = s
                    elif mono in out:
                        del out[mono]
            return out

        probes = [mod.zero_monomial]
        for a in range(alg.m):
            mono = [0] * alg.m
            mono[a] = 2
            probes.append(tuple(mono))
        for mono in probes:
            vec = {mono: QQ.one}
            for gen in range(alg.dim):
                assert mod.act_vector(gen, act_elem(vec)) == act_elem(mod.act_vector(gen, vec))


def test_casimir_acts_by_character_on_highest_vector():
    omega = casimir(SL2)
    mod = module()
    out = mod.act_word((0, 2), mod.highest_weight_vector())  # f e v0 = 0
    assert out == {}
    vec = mod.highest_weight_vector()
    total = {}
    for word, coeff in omega.terms.items():
        for mono, c in mod.act_word(word, vec).items():
            total[mono] = total.get(mono, QQ.zero) + coeff * c
    assert total == {(0,): Fraction(5, 4)}


# ---------------------------------------------------------------------------
# near-scalar action


def test_near_scalar_ordered_casimir_exact():
    for n in (4, 8):
        rep = build_truncation(SL2, HALF, n)
        report = check_near_scalar(rep, casimir(SL2))
        assert report.exact_scalar
        assert report.character == Fraction(5, 4)


def test_near_scalar_reordered_element_visible_but_bounded():
    n = 4
    rep = build_truncation(SL2, HALF, n)
    report = check_near_scalar(rep, reordered_sl2_casimir())
    assert report.deviation.value == Fraction(1, n + 1)
    assert report.deviation.value <= report.bound == 3 * epsilon_bound(SL2, n)


def test_near_scalar_sl3():
    rep = build_truncation(SL3, (Fraction(1, 2), Fraction(1, 3)), 4)
    report = check_near_scalar(rep, casimir(SL3))
    assert report.deviation.value <= 3 * epsilon_bound(SL3, 4)


# ---------------------------------------------------------------------------
# separation and distance certificates


def test_separation_distinct_characters():
    rep_a = build_truncation(SL2, HALF, 8)
    rep_b = build_truncation(SL2, (Fraction(1, 3),), 8)
    cert = separation_certificate(rep_a, rep_b)
    assert cert.separated
    assert cert.distance.value == 1  # both evaluations are exactly scalar
    assert cert.rank_lower == 1 - 6 * epsilon_bound(SL2, 8)
    assert cert.strict_distance_bound == Fraction(1, 6) * cert.rank_lower


def test_separation_linked_is_inconclusive():
    rep_a = build_truncation(SL2, HALF, 6)
    rep_b = build_truncation(SL2, (Fraction(-5, 2),), 6)
    assert not separation_certificate(rep_a, rep_b).separated


def test_separation_equal_weight_refuses():
    rep_a = build_truncation(SL2, HALF, 6)
    rep_b = build_truncation(SL2, HALF, 6)
    cert = separation_certificate(rep_a, rep_b)
    assert cert.verdict.startswith("inconclusive")


def test_rep_distance_certified_cases():
    rep = build_truncation(SL2, HALF, 48)
    for partition in ([48], [0] * 49, [1] * 24 + [0]):
        psi = direct_sum_rep(partition)
        cert = rep_distance_certificate(rep, psi)
        assert cert.certified
        assert cert.kernel_dim == 0
        assert cert.flexible_bound == Fraction(5, 36)


def test_rep_distance_vacuous_at_small_n():
    rep = build_truncation(SL2, HALF, 6)
    cert = rep_distance_certificate(rep, direct_sum_rep([6]))
    assert cert.verdict == "bound vacuous at this n; increase n"


def test_rep_distance_integral_weight_inconclusive():
    rep = build_truncation(SL2, (Fraction(3),), 8)
    cert = rep_distance_certificate(rep, direct_sum_rep([3, 3, 0]))
    assert cert.verdict.startswith("inconclusive")
    assert cert.kernel_dim > 0


def test_rep_distance_unknown_summands_inconclusive():
    # irreducible_sl2 records no partition, so a shared character cannot be
    # traced to a summand: L(2) is the quotient of the weight-2 Verma module
    rep = build_truncation(SL2, (2,), 2)
    cert = rep_distance_certificate(rep, irreducible_sl2(2))
    assert cert.verdict == "inconclusive (unknown summands share the character)"
    assert cert.kernel_dim == 3
    assert cert.flexible_bound is None and cert.basis_max_distance is None


def test_rep_distance_dimension_window():
    rep = build_truncation(SL2, HALF, 8)
    with pytest.raises(ValueError):
        rep_distance_certificate(rep, direct_sum_rep([1]))


# ---------------------------------------------------------------------------
# diagram flip


def test_weyl_twist_involution():
    rep = build_truncation(SL2, HALF, 4)
    assert weyl_twist(weyl_twist(rep)).images == rep.images


def test_weyl_twist_images():
    rep = build_truncation(SL2, HALF, 4)
    tw = weyl_twist(rep)
    assert tw.images[0] == -rep.images[2]
    assert tw.images[1] == -rep.images[1]
    assert tw.images[2] == -rep.images[0]


def test_weyl_twist_integral_case_is_isomorphic():
    d = 3
    rep = irreducible_sl2(d)
    tw = weyl_twist(rep)
    j = sl2_lowest_weight_intertwiner(d)
    j_inv = j.inverse()
    for a, b in zip(rep.images, tw.images):
        assert strict_distance(a, j * b * j_inv).value == 0


def test_weyl_twist_scan_reports_without_asserting():
    rep = build_truncation(SL2, HALF, 3)
    scan = weyl_twist_scan(rep, trials=3, seed=1)
    assert len(scan["samples"]) == 4
    assert Fraction(scan["min"]) >= 0


def test_parse_weight():
    assert parse_weight(QQ, "1/2,1/3") == (Fraction(1, 2), Fraction(1, 3))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=n, max_size=n),
    min_size=1, max_size=8)))
def test_span_dimension_is_rank(field, vectors):
    """After each insert the span's dimension is the rank of the vectors so far."""
    span = _Span(field)
    for k, vec in enumerate(vectors):
        coeffs = [field.coerce(x) for x in vec]
        sparse = {i: a for i, a in enumerate(coeffs) if a}
        span.insert(sparse)
        assert sparse == {i: a for i, a in enumerate(coeffs) if a}
        assert span.dim == DenseMatrix(field, vectors[: k + 1]).rank()
