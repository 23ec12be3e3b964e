"""Every certified inequality downstream of the elimination kernels can fire.

Each test plants a fault in one DenseMatrix kernel (for the free-group
defect, in the rank-one pattern rank of ``rolli``), runs an rsl command
through ``cli.main`` and expects exit 3 with the guard's diagnostic dump:
one ``--- key ---`` header per entry of the BoundViolation's details.  The
near-scalar check has no rsl command and is called directly.
"""

from fractions import Fraction

import pytest

from rankstability import rolli
from rankstability.cli import main
from rankstability.errors import BoundViolation
from rankstability.exactfield import QQ, DenseMatrix, vstack
from rankstability.liealg import build_sl, direct_sum_rep
from rankstability.verma import (
    build_truncation,
    casimir,
    central_character_value,
    check_near_scalar,
    evaluate_uea,
)

TRUE_RANK = DenseMatrix.rank
SL2 = build_sl(2)


def run_violation(capsys, argv, keys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("BOUND VIOLATION: ")
    for key in keys:
        assert f"--- {key} ---" in err
    return err


def test_rank_lower_guard_fires(capsys, monkeypatch):
    # a compression (3x3 at n=4, k=3) that claims rank 0 falls below rank(M) - 2
    monkeypatch.setattr(DenseMatrix, "rank", lambda m: 0 if m.shape == (3, 3) else TRUE_RANK(m))
    err = run_violation(capsys, ["compress", "check", "--n", "4", "--k", "3", "--trials", "1"],
                        ["matrix", "iota", "proj"])
    assert "fell below" in err


def test_mult_defect_guard_fires(capsys, monkeypatch):
    # every 3x3 matrix claims full rank: the defect 3 exceeds n - k = 1
    monkeypatch.setattr(DenseMatrix, "rank", lambda m: 3 if m.shape == (3, 3) else TRUE_RANK(m))
    err = run_violation(capsys, ["compress", "check", "--n", "4", "--k", "3", "--trials", "1"],
                        ["m1", "m2", "iota"])
    assert "multiplicative defect 3 exceeded n-k = 1" in err


def test_alignment_guard_fires(capsys, monkeypatch):
    # a kernel of [iota1 | -iota2] that claims u = v makes A the identity,
    # which cannot align two random full frames within 4(n-k) = 0
    def lying_kernel(m):
        ident = DenseMatrix.identity(m.field, m.cols // 2)
        return vstack([ident, ident])

    monkeypatch.setattr(DenseMatrix, "kernel_basis", lying_kernel)
    err = run_violation(capsys, ["compress", "check", "--n", "3", "--k", "3", "--trials", "1"],
                        ["matrix", "A"])
    assert "exceeded 4(n-k) = 0" in err


def test_exact_defect_guard_fires(capsys, monkeypatch):
    # every defect pattern claims rank 4, a defect of 1 > 3/4
    monkeypatch.setattr(rolli, "_pattern_rank", lambda tau, terms, product=False: 4)
    err = run_violation(capsys, ["rolli", "defect", "--preset", "diag_involution", "--n", "4"],
                        ["preset"])
    assert "exceeded 3/n = 3/4" in err


@pytest.mark.parametrize("preset, field", [("diag_involution", "rational"), ("transposition", "gf2")])
def test_distance_chain_guard_fires(capsys, monkeypatch, preset, field):
    # a joint fixed space of dimension 0 breaks dim >= N - rank_a - rank_b
    monkeypatch.setattr(DenseMatrix, "kernel_basis", lambda m: DenseMatrix.zeros(m.field, m.cols, 0))
    err = run_violation(capsys, ["rolli", "certify", "--preset", preset, "--n", "4",
                                 "--field", field, "--conjugates", "1"], ["report"])
    assert "fixed_dim >= N - rank_a - rank_b" in err


def test_truncation_defect_guard_fires(capsys, monkeypatch):
    # every bracket defect claims full rank: 1 > 2m^2/n = 1/2 at n = 4
    monkeypatch.setattr(DenseMatrix, "rank", lambda m: m.rows)
    err = run_violation(capsys, ["verma", "build", "--lambda", "1/2", "--n", "4"], ["weight", "n"])
    assert "exceeded 2m^2/n = 1/2" in err


def test_near_scalar_guard_fires(monkeypatch):
    rep = build_truncation(SL2, (Fraction(1, 2),), 8, QQ)
    monkeypatch.setattr(DenseMatrix, "rank", lambda m: m.rows)
    with pytest.raises(BoundViolation, match="near-scalar deviation") as exc:
        check_near_scalar(rep, casimir(SL2))
    assert set(exc.value.details) == {"degree", "n"}


def test_separation_guard_fires(capsys, monkeypatch):
    # rank 0 everywhere: the truncations build, then the Casimir images seem equal
    monkeypatch.setattr(DenseMatrix, "rank", lambda m: 0)
    err = run_violation(capsys, ["verma", "separate", "--lambda", "1/2", "--mu", "1/3", "--n", "16"],
                        ["n"])
    assert "separation rank 0/17 below 1 - 2(R+1)eps = 1/4" in err


def shifted_casimir(d):
    """Omega on L(d) less chi(1/2) I: the matrix `verma repdist --lambda 1/2` ranks for its
    first battery case, the partition [d] with d = n."""
    omega, psi = casimir(SL2), direct_sum_rep([d])
    chi = central_character_value(SL2, omega, (Fraction(1, 2),))
    return evaluate_uea(psi, omega) - DenseMatrix.identity(QQ, psi.dim).scale(chi)


def test_common_eigenspace_guard_fires(capsys, monkeypatch):
    # a shifted Casimir that claims rank 0, so dim W = N despite unlinked characters
    shifted = shifted_casimir(16)
    monkeypatch.setattr(DenseMatrix, "rank", lambda m: 0 if m == shifted else TRUE_RANK(m))
    err = run_violation(capsys, ["verma", "repdist", "--lambda", "1/2", "--n", "16", "--battery", "1"],
                        ["kernel_dim"])
    assert "common eigenspace is nonzero" in err


def test_basis_distance_guard_fires(capsys, monkeypatch):
    # rank 0 everywhere but the shifted Casimir, whose true rank keeps dim W = 0:
    # every basis distance reads 0, below the bound 5/36 at n = 48
    shifted = shifted_casimir(48)
    monkeypatch.setattr(DenseMatrix, "rank", lambda m: TRUE_RANK(m) if m == shifted else 0)
    err = run_violation(capsys, ["verma", "repdist", "--lambda", "1/2", "--n", "48", "--battery", "1"],
                        ["n", "N"])
    assert "fell below the certified bound 5/36" in err
