"""Pinned `to_json()` dicts of every report class, built from small computations.

The golden digests reach only the reports that an `rsl` command prints; this
file pins the rest too (`AlignmentReport`, `DefectReport`, `MapDistance`,
`DefectResult`, `RepDistanceReport` and `NearScalarReport`), including the
renamed keys, the omitted fields and the `None` branches.
"""

import json
from fractions import Fraction

import pytest

from rankstability.compress import (
    align_compressions,
    corner_frame,
    random_frame,
    verify_mult_defect,
    verify_rank_lower,
)
from rankstability.exactfield import QQ, DenseMatrix, field_from_tag
from rankstability.liealg import build_sl, direct_sum_rep, irreducible_sl2, pointwise_defect
from rankstability.prng import XorShift64Star, random_matrix
from rankstability.rankmetric import flexible_distance, map_distance
from rankstability.rolli import exact_defect, preset_tau, trivial_rep
from rankstability.rolli import rep_distance_certificate as chain_certificate
from rankstability.verma import (
    build_truncation,
    casimir,
    check_highest_weight_structure,
    check_near_scalar,
    rep_distance_certificate,
    separation_certificate,
)

SL2 = build_sl(2)


def _trunc(weight, n):
    return build_truncation(SL2, (Fraction(weight),), n, QQ)


def _compression_reports():
    gf7 = field_from_tag("gf7")
    rng = XorShift64Star(1)
    m1, m2 = random_matrix(gf7, rng, 5, 5), random_matrix(gf7, rng, 5, 5)
    f1, f2 = random_frame(gf7, 5, 3, rng), random_frame(gf7, 5, 3, rng)
    return (verify_rank_lower(m1, f1), verify_mult_defect(m1, m2, corner_frame(gf7, 5, 3)),
            align_compressions(f1, f2, [m1, m2])[1])


def _rd(num, den, value):
    return {"num": num, "den": den, "value": value}


CASES = {
    "RankDistance": (
        lambda: flexible_distance(DenseMatrix.identity(QQ, 3), DenseMatrix(QQ, [[1, 2], [3, 4]])),
        _rd(3, 2, "3/2"),
    ),
    "MapDistance strict": (
        lambda: map_distance(irreducible_sl2(2), irreducible_sl2(2), "strict"),
        {"mode": "strict", "per_element": [_rd(0, 3, "0")] * 3, "pointwise": _rd(0, 3, "0"),
         "uniform_bound": "0"},
    ),
    "MapDistance flexible": (
        lambda: map_distance(_trunc("1/2", 4), direct_sum_rep([4]), "flexible"),
        {"mode": "flexible", "per_element": [_rd(0, 5, "0"), _rd(5, 5, "1"), _rd(4, 5, "4/5")],
         "pointwise": _rd(5, 5, "1"), "uniform_bound": "3"},
    ),
    "DefectReport": (
        lambda: pointwise_defect(_trunc("1/2", 4)),
        {"pointwise": _rd(1, 5, "1/5"), "uniform_bound": "9/5", "worst_pair": ["y1", "x1"]},
    ),
    "DefectResult": (
        lambda: exact_defect(preset_tau("diag_involution", 6)),
        {"defect": _rd(3, 6, "1/2"), "bound": "1/2", "witness_pair": [-6, 1]},
    ),
    "ChainReport": (
        lambda: chain_certificate(preset_tau("diag_involution", 6), trivial_rep(QQ, 6)),
        {"n": 6, "N": 6, "witness_exponent": 6, "witness_value": "1", "eps_lower": "1",
         "delta": "1/6", "rank_a": 0, "rank_b": 0, "fixed_dim": 6, "rank_witness": 0,
         "final_bound": "5/36",
         "checks": [["rank_a <= 2*eps*n", True], ["rank_b <= (2*eps + delta)*n", True],
                    ["fixed_dim >= N - rank_a - rank_b", True], ["rank_w <= N - fixed_dim", True],
                    ["c*n - 2*eps*n <= rank_w", True], ["eps >= (c - delta)/6", True]]},
    ),
    "CompressionReport rank_lower": (
        lambda: _compression_reports()[0],
        {"law": "rank_lower", "n": 5, "k": 3, "lhs": 3, "rhs": 1, "pass": True},
    ),
    "CompressionReport mult_defect": (
        lambda: _compression_reports()[1],
        {"law": "mult_defect", "n": 5, "k": 3, "lhs": 2, "rhs": 2, "pass": True},
    ),
    "AlignmentReport": (
        lambda: _compression_reports()[2],
        {"n": 5, "k": 3, "intersection_dim": 1, "ranks": [3, 3], "bound": 8},
    ),
    "StructureReport": (
        lambda: check_highest_weight_structure(_trunc("1/2", 4)),
        {"cartan_diagonal": True, "annihilates_highest": True, "generated_dim": 5, "dim": 5,
         "pass": True},
    ),
    "NearScalarReport": (
        lambda: check_near_scalar(_trunc("1/2", 4), casimir(SL2)),
        {"deviation": _rd(0, 5, "0"), "bound": "3/2", "degree": 2, "character": "5/4",
         "exact_scalar": True},
    ),
    "NearScalarReport int character": (
        lambda: check_near_scalar(_trunc(0, 4), casimir(SL2), 0),
        {"deviation": _rd(0, 5, "0"), "bound": "3/2", "degree": 2, "character": "0",
         "exact_scalar": True},
    ),
    "SeparationReport separated": (
        lambda: separation_certificate(_trunc("1/2", 16), _trunc("1/3", 16)),
        {"verdict": "separated", "chi_a": "5/4", "chi_b": "7/9", "distance": _rd(17, 17, "1"),
         "rank_lower": "1/4", "strict_distance_bound": "1/24"},
    ),
    "SeparationReport inconclusive": (
        lambda: separation_certificate(_trunc("1/2", 4), _trunc("-5/2", 4)),
        {"verdict": "inconclusive (linked or same character)", "chi_a": "5/4", "chi_b": "5/4",
         "distance": None, "rank_lower": None, "strict_distance_bound": None},
    ),
    "RepDistanceReport certified": (
        lambda: rep_distance_certificate(_trunc("1/2", 9), direct_sum_rep([9])),
        {"verdict": "certified", "kernel_dim": 0, "flexible_bound": "1/54",
         "basis_max_distance": _rd(10, 10, "1"), "characters": ["5/4"]},
    ),
    "RepDistanceReport vacuous": (
        lambda: rep_distance_certificate(_trunc("1/2", 8), direct_sum_rep([8])),
        {"verdict": "bound vacuous at this n; increase n", "kernel_dim": 0,
         "flexible_bound": "0", "basis_max_distance": None, "characters": ["5/4"]},
    ),
    "RepDistanceReport inconclusive": (
        lambda: rep_distance_certificate(_trunc(2, 4), direct_sum_rep([2, 0, 0])),
        {"verdict": "inconclusive (character matches a summand)", "kernel_dim": 3,
         "flexible_bound": None, "basis_max_distance": None, "characters": ["8"]},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_to_json_is_pinned(name):
    build, expected = CASES[name]
    # compared as JSON text, so that True and 1 or "0" and 0 differ
    assert json.dumps(build().to_json(), sort_keys=True) == json.dumps(expected, sort_keys=True)
