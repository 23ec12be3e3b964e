"""The four benchmark workloads: the rsl command lists one pass runs.

Every workload is closed-loop: one caller runs the commands of a pass back
to back through ``rankstability.cli.main``, then starts the next pass.
``{seed}`` is replaced by the benchmark's ``--seed``.  The sizes are scaled
down from the acceptance sizes so that a pass takes one to three seconds and
a run holds several passes; the layer each workload stresses still does most
of its work (see NOTES.md).  Seeded commands draw many random cases per pass
(40 repdist partitions, 12 + 10 conjugates), so that the work of a pass, and
with it wall_s, varies little from seed to seed.  Weights stay at the
acceptance values so that every seed certifies.
"""

DEFAULT_SEED = 1

WORKLOADS = {
    # liealg.pointwise_defect on mostly-zero Fraction matrices, Bareiss rank,
    # Verma straightening; almost no kernel_basis.
    "sl3-truncation": {
        "full": [
            "verma defect --algebra sl3 --lambda 1/2,1/3 --n 5,6",
            "verma build --algebra sl3 --lambda 1/2,1/3 --n 4",
        ],
        "smoke": [
            "verma defect --algebra sl3 --lambda 1/2,1/3 --n 2,3",
            "verma build --algebra sl3 --lambda 1/2,1/3 --n 2",
        ],
    },
    # kernel_basis (Fraction Gauss-Jordan), conjugated-rep products and
    # TauFamily validation; never touches verma.
    "free-group-certify": {
        "full": [
            "rolli certify --preset diag_involution --n 20 --conjugates 12 --seed {seed}",
            "rolli defect --preset transvection --n 24",
            "rolli certify --preset transposition --n 12 --field gf2 --conjugates 10 --seed {seed}",
        ],
        "smoke": [
            "rolli certify --preset diag_involution --n 6 --conjugates 2 --seed {seed}",
            "rolli defect --preset transvection --n 6",
            "rolli certify --preset transposition --n 6 --field gf2 --conjugates 2 --seed {seed}",
        ],
    },
    # The verma certificate path: evaluate_uea, stacked-kernel dimension and
    # flexible_distance on padded, unequal-size matrices.
    "sl2-distance": {
        "full": [
            "verma repdist --lambda 1/2 --n 32 --battery 40 --seed {seed}",
            "verma separate --lambda 1/2 --mu 1/3 --n 48",
        ],
        "smoke": [
            "verma repdist --lambda 1/2 --n 12 --battery 4 --seed {seed}",
            "verma separate --lambda 1/2 --mu 1/3 --n 12",
        ],
    },
    # Thousands of small, fully dense random matrices over GF(7) and Q; the
    # only workload for the compress layer and the GF(p) path.
    "small-dense-gf": {
        "full": [
            "compress check --n 8 --k 7 --trials 40 --field gf7 --seed {seed}",
            "compress check --n 6 --k 4 --trials 40 --field rational --seed {seed}",
            "field selftest --trials 25 --seed {seed}",
        ],
        "smoke": [
            "compress check --n 4 --k 3 --trials 3 --field gf7 --seed {seed}",
            "compress check --n 3 --k 2 --trials 3 --field rational --seed {seed}",
            "field selftest --trials 3 --seed {seed}",
        ],
    },
}


def commands(workload: str, seed: int, smoke: bool = False) -> list:
    """The argv lists of one pass of ``workload`` at ``seed``."""
    size = "smoke" if smoke else "full"
    return [line.format(seed=seed).split() for line in WORKLOADS[workload][size]]
