"""Every malformed-input check of the library raises its own error.

One row per check: the call, the exception it must raise and a fragment of
its message, named after the public function or class that performs it.  A
check that is deleted, or that changes its error type or wording, fails here.
"""

from fractions import Fraction

import pytest

from rankstability.compress import (
    CompressionFrame,
    align_compressions,
    compress,
    corner_frame,
    random_frame,
)
from rankstability.errors import DimensionMismatch, FieldMismatch
from rankstability.exactfield import GF, QQ, DenseMatrix, hstack, modular_rank_certificate, vstack
from rankstability.liealg import AlmostRep, ChevalleyBasis, build_sl, direct_sum_rep, irreducible_sl2
from rankstability.prng import XorShift64Star
from rankstability.rankmetric import flexible_distance, strict_distance
from rankstability.rolli import (
    WORD_A,
    WORD_B,
    ConjugatedRep,
    ExplicitRep,
    ReducedWord,
    TauFamily,
    preset_tau,
    pullback,
    rep_distance_certificate as chain_certificate,
    trivial_rep,
    word_reduce,
)
from rankstability.verma import (
    build_truncation,
    casimir,
    check_near_scalar,
    rep_distance_certificate,
    separation_certificate,
    weyl_twist,
)

GF3 = GF(3)
SL2 = build_sl(2)
SL3 = build_sl(3)
HALF = (Fraction(1, 2),)


def eye(n, field=QQ):
    return DenseMatrix.identity(field, n)


def zeros(rows, cols, field=QQ):
    return DenseMatrix.zeros(field, rows, cols)


CHECKS = [
    # rankmetric
    ("strict_distance non-square", lambda: strict_distance(zeros(2, 3), zeros(2, 3)),
     DimensionMismatch, "strict distance needs square matrices"),
    ("strict_distance dimension zero", lambda: strict_distance(zeros(0, 0), zeros(0, 0)),
     DimensionMismatch, "undefined in dimension zero"),
    ("flexible_distance non-square", lambda: flexible_distance(zeros(2, 3), eye(2)),
     DimensionMismatch, "flexible distance needs square matrices"),
    ("flexible_distance dimension zero", lambda: flexible_distance(eye(2), zeros(0, 0)),
     DimensionMismatch, "undefined in dimension zero"),
    # DenseMatrix operands
    ("add a non-matrix", lambda: eye(2) + 1, TypeError, "expected a matrix"),
    ("add across fields", lambda: eye(2) + eye(2, GF3), FieldMismatch, "rational vs gf3"),
    ("subtract across shapes", lambda: eye(2) - eye(3), DimensionMismatch, "(2, 2) - (3, 3)"),
    ("multiply across shapes", lambda: zeros(2, 3) * zeros(2, 3), DimensionMismatch, "(2, 3) * (2, 3)"),
    ("pad smaller", lambda: eye(3).pad(2, 2), DimensionMismatch, "pad target is smaller"),
    ("inverse non-square", lambda: zeros(2, 3).inverse(), DimensionMismatch, "non-square"),
    ("solve_right row counts", lambda: eye(2).solve_right(zeros(3, 1)), DimensionMismatch, "X ="),
    ("hstack row counts", lambda: hstack([eye(2), zeros(3, 2)]), DimensionMismatch, "row counts differ"),
    ("hstack fields", lambda: hstack([eye(2), eye(2, GF3)]), FieldMismatch, "mixed fields"),
    ("vstack column counts", lambda: vstack([eye(2), zeros(2, 3)]), DimensionMismatch, "column counts differ"),
    ("vstack fields", lambda: vstack([eye(2), eye(2, GF3)]), FieldMismatch, "mixed fields"),
    ("modular rank over GF(3)", lambda: modular_rank_certificate(eye(2, GF3), [5]),
     FieldMismatch, "needs a rational matrix"),
    ("modular rank without primes", lambda: modular_rank_certificate(eye(2), []),
     ValueError, "no primes supplied"),
    # compress
    ("frame with k = 0", lambda: CompressionFrame(zeros(3, 0), zeros(0, 3)), ValueError, "k = 0"),
    ("frame projection shape", lambda: CompressionFrame(zeros(3, 2), zeros(3, 3)),
     DimensionMismatch, "does not match inclusion"),
    ("random_frame k > n", lambda: random_frame(QQ, 3, 4, XorShift64Star(1)), ValueError, "need 1 <= k <= n"),
    ("compress ambient dimension", lambda: compress(eye(4), corner_frame(QQ, 3, 2)),
     DimensionMismatch, "does not fit ambient dimension"),
    ("align across frame sizes", lambda: align_compressions(corner_frame(QQ, 3, 2), corner_frame(QQ, 4, 2), []),
     DimensionMismatch, "frames must share"),
    # liealg
    ("sl_1", lambda: ChevalleyBasis(1), ValueError, "r >= 2"),
    ("AlmostRep image count", lambda: AlmostRep(SL2, QQ, 2, (eye(2), eye(2))), DimensionMismatch, "need 3 images"),
    ("AlmostRep image size", lambda: AlmostRep(SL2, QQ, 2, (eye(2), eye(2), eye(3))),
     DimensionMismatch, "image dimensions disagree"),
    ("AlmostRep image field", lambda: AlmostRep(SL2, QQ, 2, (eye(2), eye(2), eye(2, GF3))),
     FieldMismatch, "image field disagrees"),
    ("irreducible_sl2 negative weight", lambda: irreducible_sl2(-1), ValueError, "nonnegative integer"),
    ("direct_sum_rep empty", lambda: direct_sum_rep([]), ValueError, "empty partition"),
    # rolli
    ("ReducedWord generator", lambda: ReducedWord((("c", 1),)), ValueError, "unknown generator"),
    ("word_reduce letter", lambda: word_reduce("abx"), ValueError, "unknown letter"),
    ("TauFamily shape", lambda: TauFamily(QQ, 2, {1: eye(3), -1: eye(3)}), DimensionMismatch, "has shape"),
    ("TauFamily field", lambda: TauFamily(QQ, 2, {1: eye(2, GF3), -1: eye(2, GF3)}),
     FieldMismatch, "mixed fields"),
    ("preset_tau kind", lambda: preset_tau("bogus", 3), ValueError, "unknown preset"),
    ("ExplicitRep shapes", lambda: ExplicitRep(eye(2), eye(3)), DimensionMismatch, "square of equal size"),
    ("ExplicitRep fields", lambda: ExplicitRep(eye(2), eye(2, GF3)), FieldMismatch, "different fields"),
    ("ConjugatedRep conjugator size", lambda: ConjugatedRep(eye(3), trivial_rep(QQ, 2)),
     DimensionMismatch, "conjugator dimension mismatch"),
    ("chain across fields", lambda: chain_certificate(preset_tau("diag_involution", 3), trivial_rep(GF3, 3)),
     FieldMismatch, "different fields"),
    ("Pullback generator", lambda: pullback({"x": WORD_A, "y": WORD_B}, preset_tau("transvection", 3))
     .substitute([("z", 1)]), ValueError, "unknown generator"),
    # verma
    ("truncation degree", lambda: build_truncation(SL2, HALF, 1), ValueError, "at least 2"),
    ("casimir of sl_4", lambda: casimir(build_sl(4)), ValueError, "sl_2 and sl_3 only"),
    ("near-scalar on a non-truncation", lambda: check_near_scalar(irreducible_sl2(2), casimir(SL2)),
     ValueError, "meta n missing"),
    ("separation across algebras",
     lambda: separation_certificate(build_truncation(SL2, HALF, 2), build_truncation(SL3, HALF * 2, 2)),
     ValueError, "common algebra"),
    ("separation across degrees",
     lambda: separation_certificate(build_truncation(SL2, HALF, 2), build_truncation(SL2, HALF, 3)),
     DimensionMismatch, "same degree"),
    ("separation across fields",
     lambda: separation_certificate(build_truncation(SL2, HALF, 2),
                                    build_truncation(SL2, (GF3.coerce("1/2"),), 2, GF3)),
     FieldMismatch, "common field"),
    ("repdist across algebras", lambda: rep_distance_certificate(build_truncation(SL3, HALF * 2, 2),
                                                                 direct_sum_rep([9])),
     ValueError, "different algebras"),
    ("repdist across fields", lambda: rep_distance_certificate(build_truncation(SL2, HALF, 2),
                                                               direct_sum_rep([2], GF3)),
     FieldMismatch, "different fields"),
    ("repdist on a non-truncation", lambda: rep_distance_certificate(irreducible_sl2(2), irreducible_sl2(2)),
     ValueError, "meta n missing"),
    ("weyl_twist of sl_3", lambda: weyl_twist(build_truncation(SL3, HALF * 2, 2)), ValueError, "sl_2 only"),
]


@pytest.mark.parametrize("call, error, fragment", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_malformed_input_is_refused(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert fragment in str(exc.value)
