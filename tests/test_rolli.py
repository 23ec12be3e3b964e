from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankstability import (
    DenseMatrix,
    GF,
    QQ,
    ReducedWord,
    XorShift64Star,
    exact_defect,
    phi_eval,
    preset_tau,
    pullback,
    witness_word,
    word_reduce,
)
from rankstability.rolli import (
    ExplicitRep,
    MonomialRep,
    TauFamily,
    WORD_A,
    WORD_B,
    _pattern_rank,
    certificate_battery,
    rep_distance_certificate,
    trivial_rep,
)
from rankstability.prng import random_invertible


# ---------------------------------------------------------------------------
# reduced words


def test_word_reduce_cancellation():
    assert word_reduce("aA").is_identity
    assert word_reduce("abBa") == word_reduce("aa")
    assert word_reduce("ab") * word_reduce("Ba") == word_reduce("aa")


def test_pairs_view_alternating():
    assert word_reduce("aabbb").b_exponents() == (3,)


def test_interior_exponents_nonzero():
    with pytest.raises(ValueError):
        ReducedWord((("a", 1), ("a", 2)))
    with pytest.raises(ValueError):
        ReducedWord((("a", 0),))


def test_word_power_and_inverse():
    w = word_reduce("ab")
    assert (w * w.inverse()).is_identity
    assert w.power(3) == word_reduce("ababab")
    assert w.power(-2) == (w * w).inverse()


letters = st.lists(st.sampled_from("aAbB"), max_size=12)


@settings(max_examples=80, deadline=None)
@given(letters, letters, letters)
def test_word_multiplication_associative(l1, l2, l3):
    w1, w2, w3 = word_reduce(l1), word_reduce(l2), word_reduce(l3)
    assert (w1 * w2) * w3 == w1 * (w2 * w3)


def free_reduce(letters) -> str:
    """Letter-by-letter free reduction: cancel each letter against its inverse."""
    out = []
    for ch in letters:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def spell(item) -> str:
    if isinstance(item, str):
        return item
    gen, exp = item
    return (gen if exp > 0 else gen.upper()) * abs(exp)


syllable_lists = st.lists(
    st.one_of(st.sampled_from("aAbB"), st.tuples(st.sampled_from("ab"), st.integers(-3, 3))),
    max_size=16,
)


@settings(max_examples=200, deadline=None)
@given(syllable_lists)
def test_word_reduce_matches_free_reduction(items):
    word = word_reduce(items)
    assert "".join(map(spell, word.syllables)) == free_reduce("".join(map(spell, items)))


@settings(max_examples=80, deadline=None)
@given(letters)
def test_word_inverse_cancels(ls):
    w = word_reduce(ls)
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


# ---------------------------------------------------------------------------
# tau families


@pytest.mark.parametrize(
    "kind,field",
    [
        ("diag_involution", QQ),
        ("diag_involution", GF(5)),
        ("transposition", QQ),
        ("transposition", GF(5)),
        ("transposition", GF(2)),
        ("transvection", QQ),
        ("transvection", GF(5)),
        ("transvection", GF(2)),
    ],
)
def test_preset_invariants(kind, field):
    tau = preset_tau(kind, 6, field)
    ident = DenseMatrix.identity(field, 6)
    assert tau.tau(0) == ident
    assert tau.tau(3) * tau.tau(-3) == ident
    assert (tau.tau(2) - ident).rank() == 1
    assert tau.tau(10**6) == ident  # identity outside the support


def test_diag_preset_needs_odd_characteristic():
    with pytest.raises(ValueError):
        preset_tau("diag_involution", 6, GF(2))


def test_phi_depends_only_on_b_exponents():
    tau = preset_tau("diag_involution", 6)
    assert phi_eval(word_reduce("aaaaa"), tau) == DenseMatrix.identity(QQ, 6)
    for m in (1, 3, -2):
        w = ReducedWord((("b", m),))
        assert phi_eval(w, tau) == tau.tau(m)


def test_witness_word_shape_and_products():
    assert witness_word(1) == word_reduce("ab")
    tau = preset_tau("diag_involution", 4)
    img = phi_eval(witness_word(4), tau)
    assert img == -DenseMatrix.identity(QQ, 4)
    assert (img - DenseMatrix.identity(QQ, 4)).rank() == 4


def test_witness_value_transposition():
    n = 5
    tau = preset_tau("transposition", n)
    img = phi_eval(witness_word(n - 1), tau)
    assert (img - DenseMatrix.identity(QQ, n)).rank() == n - 1


# ---------------------------------------------------------------------------
# exact defect


def test_exact_defect_diag_attains_three():
    tau = preset_tau("diag_involution", 12)
    result = exact_defect(tau)
    assert result.defect.value == Fraction(3, 12)
    # attained already by tau(1) tau(2) - tau(3)
    probe = tau.tau(1) * tau.tau(2) - tau.tau(3)
    assert probe.rank() == 3


def test_exact_defect_transvection():
    tau = preset_tau("transvection", 8)
    result = exact_defect(tau)
    assert result.defect.value <= Fraction(3, 8)
    probe = tau.tau(1) * tau.tau(2) - tau.tau(3)
    assert probe.rank() <= 3


def test_exact_defect_zero_pair_contributes_nothing():
    tau = preset_tau("diag_involution", 5)
    for k in (1, 3):
        assert (tau.tau(k) * tau.tau(0) - tau.tau(k)).is_zero()


def rank_one_family(field, n, bound, seed):
    """tau(j) = I + u v^T for 0 < j <= bound, tau(-j) its Sherman-Morrison inverse.

    u and v are sparse, so that the moved coordinates of different tau(j) differ.
    """
    rng = XorShift64Star(seed)
    ident = DenseMatrix.identity(field, n)
    mapping = {}

    def sparse():
        return [rng.randint(-2, 2) if rng.below(3) == 0 else 0 for _ in range(n)]

    for j in range(1, bound + 1):
        while True:
            u = DenseMatrix(field, [[x] for x in sparse()])
            v = DenseMatrix(field, [sparse()])
            denom = field.one + (v * u).entry(0, 0)
            if denom:
                break
        mapping[j] = ident + u * v
        mapping[-j] = ident - (u * v).scale(field.one / denom)
    return TauFamily(field, n, mapping)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, GF(3)]), st.integers(3, 6), st.integers(1, 3), st.integers(0, 2**32))
def test_exact_defect_matches_dense_brute_force(field, n, bound, seed):
    tau = rank_one_family(field, n, bound, seed)
    window = range(-(2 * bound + 1), 2 * bound + 2)
    brute = max(
        (tau.tau(m) * tau.tau(q) - tau.tau(m + q)).rank() for m in window for q in window
    )
    result = exact_defect(tau)
    assert result.defect.value == Fraction(brute, n)
    m, q = result.witness_pair
    assert (tau.tau(m) * tau.tau(q) - tau.tau(m + q)).rank() == brute


def test_exact_defect_keeps_scanning_after_a_row_of_two():
    # tau(j) = I - 2 E_cc on coordinate c(j). Every pair (-4, q) has rank at
    # most 2, because c(4) = c(1); the pair (-3, 1) reaches 3.
    n = 3
    ident = DenseMatrix.identity(QQ, n)
    mapping = {}
    for j, c in {1: 0, 2: 1, 3: 2, 4: 0}.items():
        mapping[j] = mapping[-j] = ident - DenseMatrix.elementary(QQ, n, n, c, c, 2)
    tau = TauFamily(QQ, n, mapping)
    assert max((tau.tau(-4) * tau.tau(q) - tau.tau(q - 4)).rank() for q in tau.support) == 2
    result = exact_defect(tau)
    assert result.defect.numerator == 3
    assert result.witness_pair == (-3, 1)


def principal_block_defect(tau):
    """(defect numerator, witness pair) by dense ranks of principal blocks.

    Every tau(j) is the identity outside moved(j), so each pattern's matrix
    is zero outside the principal block on the union S of the moved sets of
    its terms, and its rank is the rank of that block.  Same enumeration
    order and early exits as exact_defect.
    """
    support = sorted(tau.support)
    best, pair = 0, (0, 0)

    def blocks(*js):
        coords = sorted(frozenset().union(*map(tau.moved, js)))
        return [tau.tau(j).submatrix(coords, coords) for j in js]

    for m in support:
        for q in support:
            tm, tq, tmq = blocks(m, q, m + q)
            r = (tm * tq - tmq).rank()
            if r > best:
                best, pair = r, (m, q)
        if best == 3:
            break
    for u in support:
        tu, ident = blocks(u, 0)
        r = (tu - ident).rank()
        if r > best:
            best, pair = r, (u, tau.support_bound * 2 + 1)
    if best < 2:
        for u in support:
            for s in support:
                if s == u or (s - u) in tau.support:
                    continue
                tu, ts = blocks(u, s)
                r = (tu - ts).rank()
                if r > best:
                    best, pair = r, (u, s - u)
    return best, pair


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3)]), st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32))
def test_exact_defect_matches_principal_blocks(field, n, bound, seed):
    tau = rank_one_family(field, n, bound, seed)
    result = exact_defect(tau)
    assert (result.defect.numerator, result.witness_pair) == principal_block_defect(tau)


@st.composite
def dense_rank_one_families(draw):
    """tau(j) = I + u v^T with dense u, v at n <= 3, so that factors of
    different j are often parallel, or dependent without being parallel."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    n, bound = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vectors = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    ident = DenseMatrix.identity(field, n)
    mapping = {}
    for j in range(1, bound + 1):
        u = DenseMatrix(field, [[x] for x in draw(vectors)])
        v = DenseMatrix(field, [draw(vectors)])
        denom = field.one + (v * u).entry(0, 0)
        if not denom:  # tau(j) would be singular
            v = v.scale(0)
            denom = field.one
        mapping[j] = ident + u * v
        mapping[-j] = ident - (u * v).scale(field.one / denom)
    return TauFamily(field, n, mapping)


@settings(max_examples=200, deadline=None)
@given(dense_rank_one_families())
def test_exact_defect_of_dense_factors_matches_principal_blocks(tau):
    result = exact_defect(tau)
    assert (result.defect.numerator, result.witness_pair) == principal_block_defect(tau)
    # every pattern, including those that cannot change the maximum
    for m in tau.support:
        for q in tau.support:
            dense = (tau.tau(m) * tau.tau(q) - tau.tau(m + q)).rank()
            assert _pattern_rank(tau, ((m, 1), (q, 1), (m + q, -1)), product=True) == dense
            assert _pattern_rank(tau, ((m, 1), (q, -1))) == (tau.tau(m) - tau.tau(q)).rank()


def row0_family(field, n):
    """tau(+-j) = I +- E_{0,j} for 0 < j < n: defect 1, so every pair is scanned."""
    ident = DenseMatrix.identity(field, n)
    mapping = {}
    for j in range(1, n):
        e = DenseMatrix.elementary(field, n, n, 0, j)
        mapping[j], mapping[-j] = ident + e, ident - e
    return TauFamily(field, n, mapping)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_row0_family_matches_dense_brute_force(field, n):
    tau = row0_family(field, n)
    bound = n - 1
    window = range(-(2 * bound + 1), 2 * bound + 2)
    brute = max(
        (tau.tau(m) * tau.tau(q) - tau.tau(m + q)).rank() for m in window for q in window
    )
    result = exact_defect(tau)
    assert brute == 1 and result.defect.value == Fraction(brute, n)
    m, q = result.witness_pair
    assert (tau.tau(m) * tau.tau(q) - tau.tau(m + q)).rank() == brute
    assert (brute, result.witness_pair) == principal_block_defect(tau)


def dense_validation_error(field, n, mapping):
    """The message TauFamily raises for a symmetric family, by dense ranks and products."""
    ident = DenseMatrix.identity(field, n)
    for j, mat in sorted(mapping.items()):
        if (mat - ident).rank() > 1:
            return f"tau({j}) is not within rank one of the identity"
    for j in sorted(mapping):
        if j > 0 and mapping[j] * mapping[-j] != ident:
            return f"tau({j}) and tau({-j}) are not inverse"
    return None


@st.composite
def inverse_pairs(draw):
    """(field, n, D, M): D = u v^T, 1 + tr D = 0 in some cases, and M the
    Sherman-Morrison inverse of I + D, a perturbed copy of it, or arbitrary."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    n = draw(st.integers(1, 5))
    small = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    u, v = draw(small), draw(small)
    k = draw(st.integers(0, n - 1))
    if draw(st.booleans()) and field.coerce(u[k]):  # force v^T u = -1
        rest = sum(field.coerce(v[i] * u[i]) for i in range(n) if i != k)
        v[k] = (-field.one - rest) / field.coerce(u[k])
    ident = DenseMatrix.identity(field, n)
    d = DenseMatrix(field, [[x] for x in u]) * DenseMatrix(field, [v])
    denom = field.one + (DenseMatrix(field, [v]) * DenseMatrix(field, [[x] for x in u])).entry(0, 0)
    kind = draw(st.sampled_from(["inverse", "perturbed", "arbitrary"]))
    if kind == "arbitrary" or not denom:
        m = DenseMatrix(field, draw(st.lists(small, min_size=n, max_size=n)))
    else:
        m = ident - d.scale(field.one / denom)
        if kind == "perturbed":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            m = m + DenseMatrix.elementary(field, n, n, i, j, draw(st.integers(1, 2)))
    return field, n, d, m


@settings(max_examples=300, deadline=None)
@given(inverse_pairs(), st.sampled_from([1, -1]), st.integers(1, 3))
def test_validation_matches_dense_checks(case, sign, j):
    field, n, d, m = case
    ident = DenseMatrix.identity(field, n)
    mapping = {sign * j: ident + d, -sign * j: m}
    expected = dense_validation_error(field, n, mapping)
    assert (expected is None) == (d.rank() <= 1 and (ident + d) * m == ident)
    if expected is None:
        tau = TauFamily(field, n, mapping)
        assert tau.tau(sign * j) == ident + d and tau.tau(-sign * j) == m
    else:
        with pytest.raises(ValueError) as err:
            TauFamily(field, n, mapping)
        assert str(err.value) == expected


def dense_moved(tau, j):
    delta = tau.tau(j) - DenseMatrix.identity(tau.field, tau.n)
    return {i for i in range(tau.n) if any(delta.row(i)) or any(delta.column(i))}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3)]), st.integers(2, 6), st.integers(1, 3), st.integers(0, 2**32))
def test_moved_matches_dense_rows_and_columns(field, n, bound, seed):
    tau = rank_one_family(field, n, bound, seed)
    for j in range(-bound - 1, bound + 2):
        assert tau.moved(j) == dense_moved(tau, j)
    for kind in ("transposition", "transvection"):
        tau = preset_tau(kind, n, field)
        assert all(tau.moved(j) == dense_moved(tau, j) for j in tau.support)


def test_moved_coordinates_of_presets():
    tau = preset_tau("transvection", 6)
    assert tau.moved(2) == {1, 2} and tau.moved(-2) == {1, 2}
    assert tau.moved(0) == tau.moved(6) == frozenset()
    assert preset_tau("diag_involution", 6).moved(-4) == {3}


@pytest.mark.parametrize("n", [4, 6, 9, 16, 33, 64])
def test_defect_bound_across_sizes(n):
    for kind in ("diag_involution", "transposition", "transvection"):
        tau = preset_tau(kind, n)
        assert exact_defect(tau).defect.value <= Fraction(3, n)


def test_phi_near_identity_on_generators():
    tau = preset_tau("transposition", 9)
    ident = DenseMatrix.identity(QQ, 9)
    assert (phi_eval(WORD_A, tau) - ident).rank() == 0
    assert (phi_eval(WORD_B, tau) - ident).rank() <= 1


# ---------------------------------------------------------------------------
# multiplicativity away from boundary cancellation


def _no_boundary_merge(w1: ReducedWord, w2: ReducedWord) -> bool:
    if not w1.syllables or not w2.syllables:
        return True
    return w1.syllables[-1][0] != w2.syllables[0][0]


@pytest.mark.parametrize("kind", ["diag_involution", "transposition", "transvection"])
def test_multiplicative_without_cancellation_exhaustive_short(kind):
    n = 5
    tau = preset_tau(kind, n)
    words = []
    for a_exp in range(-3, 4):
        for b_exp in range(-3, 4):
            words.append(ReducedWord.from_pairs([(a_exp, b_exp)]))
    for w1 in words:
        img1 = phi_eval(w1, tau)
        for w2 in words:
            if not _no_boundary_merge(w1, w2):
                continue
            assert phi_eval(w1 * w2, tau) == img1 * phi_eval(w2, tau)


@pytest.mark.parametrize("kind", ["diag_involution", "transposition"])
def test_multiplicative_without_cancellation_sampled_long(kind):
    n = 6
    tau = preset_tau(kind, n)
    rng = XorShift64Star(13)
    alphabet = "aAbB"
    checked = 0
    while checked < 150:
        w1 = word_reduce([alphabet[rng.below(4)] for _ in range(rng.below(7))])
        w2 = word_reduce([alphabet[rng.below(4)] for _ in range(rng.below(7))])
        if not _no_boundary_merge(w1, w2):
            continue
        checked += 1
        assert phi_eval(w1 * w2, tau) == phi_eval(w1, tau) * phi_eval(w2, tau)


# ---------------------------------------------------------------------------
# distance-from-representation chain


def test_chain_against_trivial_rep():
    n = 12
    tau = preset_tau("diag_involution", n)
    report = rep_distance_certificate(tau, trivial_rep(QQ, n))
    assert report.passed
    assert report.witness_value == 1
    assert report.eps_lower >= Fraction(1, 6) - Fraction(1, 6 * n)
    assert report.final_bound == Fraction(1, 6) - Fraction(1, 6 * n)


def test_chain_against_explicit_pair():
    n = 8
    tau = preset_tau("diag_involution", n)
    rng = XorShift64Star(31)
    a = random_invertible(QQ, rng, n, lo=-2, hi=2)
    b = random_invertible(QQ, rng, n, lo=-2, hi=2)
    report = rep_distance_certificate(tau, ExplicitRep(a, b))
    assert report.passed
    # the fixed-space bound from the proof is reproduced numerically
    assert report.fixed_dim >= report.target_dim - report.rank_a - report.rank_b


def test_chain_rejects_witness_exponent_zero():
    # the chain builds its witness word through witness_word
    with pytest.raises(ValueError, match="at least 1"):
        witness_word(0)


def test_chain_monomial_and_conjugates():
    n = 10
    tau = preset_tau("diag_involution", n)
    reports = certificate_battery(tau, seed=3, conjugates=4)
    assert len(reports) == 6
    for name, rep in reports:
        assert rep.passed
        assert rep.eps_lower >= rep.final_bound


def test_chain_transposition_gf2():
    n = 12
    tau = preset_tau("transposition", n, GF(2))
    report = rep_distance_certificate(tau, trivial_rep(GF(2), n))
    assert report.passed
    assert report.witness_value == Fraction(n - 1, n)
    assert report.final_bound == (Fraction(n - 1, n) - Fraction(1, n)) / 6
    assert report.eps_lower >= (1 - Fraction(2, n)) / 6


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_monomial_rep_images_follow_perm_and_scale(field):
    perm_a, scale_a = (2, 0, 4, 1, 3), [1, -1, 2, 3, -3]
    perm_b, scale_b = (4, 3, 2, 1, 0), [2, 1, 1, -1, 4]
    mono = MonomialRep(field, perm_a, scale_a, perm_b, scale_b)
    for img, perm, scale in ((mono.image_a(), perm_a, scale_a), (mono.image_b(), perm_b, scale_b)):
        for i in range(5):
            for j in range(5):
                # e_j goes to scale[j] * e_perm[j]
                assert img.entry(i, j) == field.coerce(scale[j] if i == perm[j] else 0)


def test_monomial_rep_rejects_bad_data():
    with pytest.raises(ValueError):
        MonomialRep(QQ, (0, 0, 1), [1, 1, 1], (0, 1, 2), [1, 1, 1])
    with pytest.raises(ValueError):
        MonomialRep(QQ, (0, 1, 2), [1, 1, 1], (1, 2, 0), [1, 0, 1])


def test_monomial_rep_matches_explicit():
    n = 5
    perm = tuple((j + 2) % n for j in range(n))
    scale = [1, -1, 2, -1, 1]
    mono = MonomialRep(QQ, perm, scale, tuple(range(n)), [1] * n)
    explicit = ExplicitRep(mono.image_a(), mono.image_b())
    rng = XorShift64Star(17)
    alphabet = "aAbB"
    for _ in range(25):
        w = word_reduce([alphabet[rng.below(4)] for _ in range(rng.below(8))])
        assert mono.eval(w) == explicit.eval(w)


# ---------------------------------------------------------------------------
# pullbacks


def _f3_images():
    return {
        "g1": word_reduce("a"),
        "g2": word_reduce("b"),
        "g3": ReducedWord.identity(),
    }


def test_pullback_requires_surjectivity_witness():
    tau = preset_tau("diag_involution", 5)
    with pytest.raises(ValueError):
        pullback({"g1": word_reduce("a")}, tau)
    with pytest.raises(ValueError):
        pullback({"g1": word_reduce("a"), "g2": word_reduce("aa")}, tau)


def test_pullback_identity_map_matches_phi():
    tau = preset_tau("diag_involution", 5)
    ev = pullback({"g1": word_reduce("a"), "g2": word_reduce("b")}, tau)
    for word in (
        [("g1", 1), ("g2", 2)],
        [("g2", -1), ("g1", 3), ("g2", 1)],
    ):
        assert ev.eval(word) == phi_eval(ev.substitute(word), tau)


def test_pullback_collapsing_free_generator():
    tau = preset_tau("diag_involution", 6)
    ev = pullback(_f3_images(), tau)
    # words inserting g3 anywhere evaluate as if g3 were deleted
    w_with = [("g1", 1), ("g3", 4), ("g2", 2)]
    w_without = [("g1", 1), ("g2", 2)]
    assert ev.eval(w_with) == ev.eval(w_without)


def test_pullback_substitution_matches_direct_on_random_words():
    tau = preset_tau("transposition", 6)
    images = {"g1": word_reduce("a"), "g2": word_reduce("b"), "g3": word_reduce("ba")}
    ev = pullback(images, tau)
    rng = XorShift64Star(41)
    names = ["g1", "g2", "g3"]
    for _ in range(50):
        word = [
            (names[rng.below(3)], rng.randint(-3, 3))
            for _ in range(rng.below(6))
        ]
        expanded = ReducedWord.identity()
        for name, exp in word:
            expanded = expanded * images[name].power(exp)
        assert ev.eval(word) == phi_eval(expanded, tau)
