"""Independent-oracle checks for the two central engines.

The free-group defect is compared against a brute-force enumeration over
actual word pairs, and the straightening recursion is checked against the
module axiom, both without going through the code paths under test.
"""

from fractions import Fraction
from math import comb

from rankstability import (
    GF,
    QQ,
    ReducedWord,
    XorShift64Star,
    build_sl,
    exact_defect,
    field_from_tag,
    phi_eval,
    preset_tau,
)
from rankstability.exactfield import DenseMatrix
from rankstability.rolli import TauFamily
from rankstability.verma import VermaModule, build_truncation, parse_weight

import pytest

from conftest import deltas


# ---------------------------------------------------------------------------
# word-pair defect oracle


def _word_pool(rng, count, max_exp):
    pool = [ReducedWord.identity()]
    while len(pool) < count:
        pairs = []
        for _ in range(1 + rng.below(3)):
            pairs.append((rng.randint(-max_exp, max_exp), rng.randint(-max_exp, max_exp)))
        pool.append(ReducedWord.from_pairs(pairs))
    return pool


@pytest.mark.parametrize("kind,n", [
    ("diag_involution", 5),
    ("transposition", 6),
    ("transvection", 6),
])
def test_exact_defect_dominates_and_is_attained_on_word_pairs(kind, n):
    tau = preset_tau(kind, n)
    claimed = exact_defect(tau).defect.value
    rng = XorShift64Star(271)
    pool = _word_pool(rng, 60, n + 2)
    images = {w: phi_eval(w, tau) for w in pool}
    observed = Fraction(0)
    for w1 in pool:
        for w2 in pool:
            d = Fraction((images[w1] * images[w2] - phi_eval(w1 * w2, tau)).rank(), n)
            observed = max(observed, d)
            assert d <= claimed
    # the enumerated maximum is realized by genuine word pairs
    assert observed == claimed


def test_exact_defect_out_of_support_sums_are_covered():
    # cross pattern tau(m) - tau(s) with m, s in the support but s - m outside,
    # realized by a join whose cancellation runs through out-of-support exponents
    n = 6
    tau = preset_tau("transvection", n)
    big = tau.support_bound + 4
    m, s = 5, -5
    w1 = ReducedWord.from_pairs([(0, m), (1, big)])        # b^5 a b^big
    w2 = ReducedWord.from_pairs([(0, -big), (-1, s - m)])  # b^-big a^-1 b^(s-m)
    prod = w1 * w2
    assert prod.b_exponents() == (s,)
    direct = phi_eval(w1, tau) * phi_eval(w2, tau) - phi_eval(prod, tau)
    assert direct == tau.tau(m) - tau.tau(s)
    defect = Fraction(direct.rank(), n)
    assert 0 < defect <= exact_defect(tau).defect.value


# ---------------------------------------------------------------------------
# custom tau families


def _elem(field, n, i, j, v=1):
    return DenseMatrix.elementary(field, n, n, i, j, v)


def test_custom_tau_family_accepted_and_certified():
    n = 7
    field = QQ
    ident = DenseMatrix.identity(field, n)
    mapping = {
        1: ident + _elem(field, n, 3, 0),
        -1: ident - _elem(field, n, 3, 0),
        2: ident + _elem(field, n, 5, 1, Fraction(2, 3)),
        -2: ident - _elem(field, n, 5, 1, Fraction(2, 3)),
    }
    tau = TauFamily(field, n, deltas(mapping), preset="custom")
    result = exact_defect(tau)
    assert result.defect.value <= Fraction(3, n)


def test_custom_tau_family_validation():
    n = 5
    ident = DenseMatrix.identity(QQ, n)
    with pytest.raises(ValueError):  # asymmetric support
        TauFamily(QQ, n, deltas({1: ident + _elem(QQ, n, 2, 0)}))
    with pytest.raises(ValueError):  # not mutually inverse
        TauFamily(QQ, n, deltas({
            1: ident + _elem(QQ, n, 2, 0),
            -1: ident + _elem(QQ, n, 2, 0),
        }))
    with pytest.raises(ValueError, match="not within rank one"):  # too far from the identity
        far = ident + _elem(QQ, n, 2, 0) + _elem(QQ, n, 3, 1)
        TauFamily(QQ, n, deltas({1: far, -1: far.inverse()}))
    with pytest.raises(ValueError, match="not within rank one"):  # rank 2 on a full product support
        far = ident + DenseMatrix.from_entries(QQ, n, n, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 2})
        TauFamily(QQ, n, deltas({1: far, -1: far.inverse()}))
    with pytest.raises(ValueError):  # tau(0) is fixed
        TauFamily(QQ, n, deltas({0: ident}))


def test_tau_gf2_transposition_involution():
    tau = preset_tau("transposition", 8, GF(2))
    for k in (1, 4, 7):
        assert tau.tau(k) == tau.tau(-k)
        assert tau.tau(k) * tau.tau(k) == DenseMatrix.identity(GF(2), 8)


# ---------------------------------------------------------------------------
# module-axiom oracle for the straightening engine


def _random_monomial(rng, m, max_deg):
    mono = [0] * m
    for _ in range(rng.below(max_deg + 1)):
        mono[rng.below(m)] += 1
    return tuple(mono)


@pytest.mark.parametrize("r,weight", [
    (2, (Fraction(1, 2),)),
    (3, (Fraction(1, 2), Fraction(1, 3))),
    (3, (Fraction(-3, 7), Fraction(2, 5))),
])
def test_module_axiom_exact(r, weight):
    # g1.(g2.v) - g2.(g1.v) == [g1, g2].v on the untruncated module
    alg = build_sl(r)
    mod = VermaModule(alg, weight)
    rng = XorShift64Star(500 + r)
    for _ in range(40):
        g1 = rng.below(alg.dim)
        g2 = rng.below(alg.dim)
        mono = _random_monomial(rng, alg.m, 4)
        vec = {mono: QQ.one}
        lhs = mod.act_vector(g1, mod.act_vector(g2, vec))
        rhs = mod.act_vector(g2, mod.act_vector(g1, vec))
        diff = dict(lhs)
        for k, v in rhs.items():
            s = diff.get(k, QQ.zero) - v
            if s:
                diff[k] = s
            elif k in diff:
                del diff[k]
        expect = {}
        for k, c in alg.bracket_table(g1, g2).items():
            for mono2, v in mod.act(k, mono).items():
                s = expect.get(mono2, QQ.zero) + c * v
                if s:
                    expect[mono2] = s
                elif mono2 in expect:
                    del expect[mono2]
        assert diff == expect


@pytest.mark.parametrize("r,weight", [
    (2, (Fraction(1, 2),)),
    (3, (Fraction(1, 2), Fraction(1, 3))),
])
def test_negative_action_shifts_weight_by_root(r, weight):
    alg = build_sl(r)
    mod = VermaModule(alg, weight)
    rng = XorShift64Star(777)
    for _ in range(30):
        mono = _random_monomial(rng, alg.m, 4)
        a = rng.below(alg.m)
        out = mod.act(a, mono)
        for mono2 in out:
            for t in range(alg.ell):
                expected = mod.monomial_weight(mono, t) - alg.root_on_coroot[a][t]
                assert mod.monomial_weight(mono2, t) == expected


def test_positive_action_raises_weight_by_root():
    alg = build_sl(3)
    mod = VermaModule(alg, (Fraction(1, 2), Fraction(1, 3)))
    rng = XorShift64Star(778)
    for _ in range(30):
        mono = _random_monomial(rng, alg.m, 4)
        a = rng.below(alg.m)
        gen = alg.m + alg.ell + a
        out = mod.act(gen, mono)
        for mono2 in out:
            for t in range(alg.ell):
                expected = mod.monomial_weight(mono, t) + alg.root_on_coroot[a][t]
                assert mod.monomial_weight(mono2, t) == expected


def test_casimir_commutes_on_random_deeper_vectors():
    from rankstability.verma import casimir

    alg = build_sl(3)
    weight = (Fraction(1, 2), Fraction(1, 3))
    mod = VermaModule(alg, weight)
    omega = casimir(alg)
    rng = XorShift64Star(999)

    def act_omega(vec):
        out = {}
        for word, coeff in omega.terms.items():
            for mono, c in mod.act_word(word, vec).items():
                s = out.get(mono, QQ.zero) + coeff * c
                if s:
                    out[mono] = s
                elif mono in out:
                    del out[mono]
        return out

    for _ in range(10):
        mono = _random_monomial(rng, alg.m, 3)
        vec = {mono: QQ.one}
        for gen in range(alg.dim):
            assert mod.act_vector(gen, act_omega(vec)) == act_omega(mod.act_vector(gen, vec))


# ---------------------------------------------------------------------------
# truncation defects at sizes the minor oracle cannot reach


@pytest.mark.parametrize("r, weight, tag, n, defect", [
    (2, "1/2", "rational", 128, "1/129"),
    (2, "1/2", "rational", 256, "1/257"),
    (3, "1/2,1/3", "rational", 9, "55/220"),
    (3, "1/2,1/3", "rational", 12, "91/455"),
    (3, "1/5,-2/7", "gf101", 3, "10/20"),
    (3, "1/5,-2/7", "gf101", 7, "36/120"),
    (3, "1/5,-2/7", "gf101", 10, "66/286"),
    (3, "1/2,1/3", "gaussian", 6, "28/84"),
    (3, "1/2,1/3", "rational", 16, "153/969"),
])
def test_truncation_defect_counts_top_degree_monomials(r, weight, tag, n, defect):
    # An observed formula, not a theorem, pinned for these weights only (the
    # integral sl3 weight (1, 2) reads 2/5 at n = 3): defect * dim is the count
    # C(n+m-1, m-1) of degree-n monomials in the m negative root vectors.
    alg, field = build_sl(r), field_from_tag(tag)
    rep = build_truncation(alg, parse_weight(field, weight), n, field)
    got = rep.meta["pointwise_defect"]
    assert str(got) == defect
    assert got.value * rep.dim == comb(n + alg.m - 1, alg.m - 1)
