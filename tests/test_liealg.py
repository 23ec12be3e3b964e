from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankstability import (
    GF,
    DenseMatrix,
    QQ,
    QQI,
    adjoint_rep,
    build_sl,
    complexify,
    direct_sum_rep,
    irreducible_sl2,
    pointwise_defect,
    sampled_defect,
)
from rankstability.liealg import AlmostRep, almostrep_from_text, almostrep_to_text
from rankstability.verma import build_truncation

from conftest import token_prefixes


def defining_rep(r, field=QQ):
    alg = build_sl(r)
    return AlmostRep(
        alg, field, r, tuple(alg.realization(i, field) for i in range(alg.dim)), {"tag": "defining"}
    )


# ---------------------------------------------------------------------------
# Chevalley basis


def test_sl2_basis_shape():
    alg = build_sl(2)
    assert (alg.m, alg.ell, alg.dim) == (1, 1, 3)
    # (f, h, e) = (E21, E11-E22, E12)
    assert alg.matrices[0] == ((0, 0), (1, 0))
    assert alg.matrices[1] == ((1, 0), (0, -1))
    assert alg.matrices[2] == ((0, 1), (0, 0))
    assert alg.bracket_table(2, 0) == {1: 1}  # [e, f] = h


def test_sl2_defining_relations():
    alg = build_sl(2)
    h, e, f = alg.index_of("h"), alg.index_of("e"), alg.index_of("f")
    assert alg.bracket_coords(h, e) == {e: 2}
    assert alg.bracket_coords(h, f) == {f: -2}


def test_sl3_basis_shape_and_brackets():
    alg = build_sl(3)
    assert (alg.m, alg.ell, alg.dim) == (3, 2, 8)
    assert alg.root_pairs == [(1, 2), (2, 3), (1, 3)]
    # [y1, y2] = [E21, E32] = -E31 = -y3
    assert alg.bracket_table(0, 1) == {2: -1}
    # [x1, x2] = [E12, E23] = E13 = x3
    x1, x2, x3 = alg.index_of("x1"), alg.index_of("x2"), alg.index_of("x3")
    assert alg.bracket_table(x1, x2) == {x3: 1}


def test_sl3_cartan_matrix():
    alg = build_sl(3)
    cartan = [[alg.root_on_coroot[a][t] for t in range(2)] for a in range(2)]
    assert cartan == [[2, -1], [-1, 2]]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_root_values_match_closed_form(r):
    # alpha_a(h_t) for the root e_i - e_j on the coroot E_tt - E_{t+1,t+1}
    alg = build_sl(r)

    def delta(u, v):
        return 1 if u == v else 0

    expected = tuple(
        tuple((delta(i, t) - delta(i, t + 1)) - (delta(j, t) - delta(j, t + 1)) for t in range(1, r))
        for i, j in alg.root_pairs
    )
    assert alg.root_on_coroot == expected


def test_linear_independence_of_basis():
    for r in (2, 3):
        alg = build_sl(r)
        rows = [
            [entry for row in mat for entry in row] for mat in alg.matrices
        ]
        assert DenseMatrix(QQ, rows).rank() == alg.dim


def test_trace_check_rejected():
    alg = build_sl(2)
    with pytest.raises(ValueError):
        alg.coordinates_of([[1, 0], [0, 0]])


def test_jacobi_identity_all_triples():
    # cyclic sum of [[a, b], c] vanishes, computed through coordinate brackets
    for r in (2, 3):
        alg = build_sl(r)
        for i, j, k in combinations(range(alg.dim), 3):
            total = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                part = alg.bracket_coords(alg.bracket_table(a, b), {c: 1})
                for idx, coeff in part.items():
                    total[idx] = total.get(idx, 0) + coeff
            assert all(v == 0 for v in total.values())


# ---------------------------------------------------------------------------
# defects


def test_defining_rep_has_zero_defect():
    for r in (2, 3):
        rep = defining_rep(r)
        assert pointwise_defect(rep).pointwise.value == 0


def test_adjoint_rep_has_zero_defect():
    rep = adjoint_rep(build_sl(3))
    assert pointwise_defect(rep).pointwise.value == 0


def test_truncation_defect_value():
    rep = build_truncation(build_sl(2), (Fraction(1, 2),), 4)
    report = pointwise_defect(rep)
    assert report.pointwise.value == Fraction(1, 5)
    assert report.worst_pair == ("y1", "x1")
    assert report.uniform_bound == 9 * Fraction(1, 5)


def test_sampled_defect_frozen_values():
    rep = build_truncation(build_sl(2), (Fraction(1, 2),), 4)
    sd = sampled_defect(rep, 100, seed=1)
    assert sd.pointwise.value == Fraction(1, 5)
    assert Fraction(1, 5) <= sd.pointwise.value <= Fraction(4, 5)
    assert sampled_defect(defining_rep(2), 50, seed=1).pointwise.value == 0
    zero_map = AlmostRep(
        build_sl(2), QQ, 3, tuple(DenseMatrix.zeros(QQ, 3, 3) for _ in range(3)), {}
    )
    assert sampled_defect(zero_map, 20, seed=2).pointwise.value == 0


def test_sampled_defect_within_scaled_pointwise():
    rep = build_truncation(build_sl(2), (Fraction(1, 2),), 4)
    pw = pointwise_defect(rep)
    sd = sampled_defect(rep, 60, seed=9)
    assert sd.pointwise.value <= pw.uniform_bound


# ---------------------------------------------------------------------------
# complexification


def test_complexify_preserves_entries_and_defect():
    rep = build_truncation(build_sl(2), (Fraction(1, 2),), 4)
    crep = complexify(rep)
    assert crep.field == QQI
    for a, b in zip(rep.images, crep.images):
        assert all(
            b.entry(i, j).re == a.entry(i, j) and not b.entry(i, j).im
            for i in range(a.rows)
            for j in range(a.cols)
        )
    base = pointwise_defect(rep).pointwise.value
    assert pointwise_defect(crep).pointwise.value == base
    assert pointwise_defect(crep).pointwise.value <= 4 * base


def test_complexify_zero_defect_stays_zero():
    rep = defining_rep(2)
    assert pointwise_defect(complexify(rep)).pointwise.value == 0


def test_complexified_sampled_defect_bound():
    rep = build_truncation(build_sl(2), (Fraction(1, 2),), 4)
    crep = complexify(rep)
    sd = sampled_defect(crep, 100, seed=5)
    assert sd.pointwise.value <= 4 * Fraction(1, 5)


def test_complexify_requires_rational():
    rep = complexify(defining_rep(2))
    with pytest.raises(Exception):
        complexify(rep)


# ---------------------------------------------------------------------------
# standard representations


def test_irreducible_sl2_small():
    triv = irreducible_sl2(0)
    assert triv.dim == 1 and all(img.is_zero() for img in triv.images)
    d1 = irreducible_sl2(1)
    assert d1.dim == 2
    assert pointwise_defect(d1).pointwise.value == 0
    assert d1.images == defining_rep(2).images


def test_irreducible_sl2_adjoint_match():
    d2 = irreducible_sl2(2)
    assert pointwise_defect(d2).pointwise.value == 0
    adj = adjoint_rep(build_sl(2))
    h_weights = sorted(d2.images[1].entry(i, i) for i in range(3))
    adj_weights = sorted(adj.images[1].entry(i, i) for i in range(3))
    assert h_weights == adj_weights == [-2, 0, 2]


def test_direct_sum_rep():
    single = direct_sum_rep([1])
    assert single.dim == 2
    pair = direct_sum_rep([1, 1])
    assert pair.dim == 4
    assert pointwise_defect(pair).pointwise.value == 0
    mixed = direct_sum_rep([2, 0])
    assert mixed.dim == 4
    weights = sorted(mixed.images[1].entry(i, i) for i in range(4))
    assert weights == [-2, 0, 0, 2]


@pytest.mark.parametrize("partition", [[0] * 5, [12, 3, 0, 3]])
def test_direct_sum_rep_matches_chained_blocks(partition):
    rep = direct_sum_rep(partition)
    assert rep.dim == sum(d + 1 for d in partition)
    for idx, image in enumerate(rep.images):
        chained = irreducible_sl2(partition[0]).images[idx]
        for d in partition[1:]:
            chained = chained.direct_sum(irreducible_sl2(d).images[idx])
        assert image == chained


def test_irreducible_sl2_meta_is_per_call():
    first = irreducible_sl2(3)
    first.meta["tag"] = "changed"
    first.meta["extra"] = 1
    assert irreducible_sl2(3).meta == {"tag": "irreducible_sl2", "d": 3}


@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)])
def test_cached_sl2_images_match_written_matrices(field):
    f = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    h = [[3, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -3]]
    e = [[0, 3, 0, 0], [0, 0, 4, 0], [0, 0, 0, 3], [0, 0, 0, 0]]
    written = tuple(DenseMatrix(field, m) for m in (f, h, e))
    for _ in range(2):  # the second call reads the cache
        assert irreducible_sl2(3, field).images == written
        assert direct_sum_rep([3], field).images == written


# ---------------------------------------------------------------------------
# serialization


def test_almostrep_text_roundtrip():
    rep = build_truncation(build_sl(2), (Fraction(1, 2),), 3)
    text = almostrep_to_text(rep)
    back = almostrep_from_text(text)
    assert back.dim == rep.dim
    assert back.images == rep.images
    assert back.meta["weight"] == rep.meta["weight"]
    assert back.meta["n"] == 3


@pytest.mark.parametrize("text", ["", "{}", "[]", '{"algebra": "sl2", "dim": 2}',
                                  '{"algebra": "sl2", "dim": 1}\n\n1 1 rational\n0',
                                  '{"algebra": "sl2", "dim": 1, "lambda": ["1/0"]}'
                                  + '\n\n1 1 rational\n0' * 3])
def test_almostrep_malformed_text_raises_value_error(text):
    with pytest.raises(ValueError):
        almostrep_from_text(text)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(2, 4), st.integers(-5, 5), st.integers(1, 3))
def test_almostrep_truncated_text_raises_value_error(field, n, num, den):
    rep = build_truncation(build_sl(2), (Fraction(num, den),), n, field)
    text = almostrep_to_text(rep)
    for prefix in token_prefixes(text):
        with pytest.raises(ValueError):
            almostrep_from_text(prefix)
