"""Truncated highest-weight almost-representations and their certificates.

The universal highest-weight module of weight lambda is free over the
enveloping algebra of the negative part, so its elements are combinations of
ordered monomials y_1^{r_1} ... y_m^{r_m} v_0.  A generator acts by commuting
past the leading letters (straightening), with h acting diagonally by the
monomial weight and x killing v_0.

Truncating to the span D_n of monomials of total degree at most n and
compressing the action linearly (components of degree n+1 are dropped) gives
a finite almost-representation of dimension C(n+m, m) whose pointwise defect
is supported on the top-degree layer and is at most 2 m^2 / n, where m is the
number of positive roots.  Central elements act near-scalar on it, which is
what the separation and distance certificates exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb

from .errors import BoundViolation, DimensionMismatch, FieldMismatch
from .exactfield import QQ, DenseMatrix, ExactField, product_sum
from .liealg import AlmostRep, ChevalleyBasis, pointwise_defect
from .prng import XorShift64Star, random_unimodular
from .rankmetric import RankDistance, map_distance, report_json

__all__ = [
    "VermaModule",
    "truncation_monomials",
    "epsilon_bound",
    "build_truncation",
    "check_highest_weight_structure",
    "UEAElement",
    "casimir",
    "reordered_sl2_casimir",
    "evaluate_uea",
    "central_character_value",
    "check_near_scalar",
    "separation_certificate",
    "rep_distance_certificate",
    "weyl_twist",
    "weyl_twist_scan",
    "sl2_lowest_weight_intertwiner",
    "parse_weight",
]


def parse_weight(field: ExactField, text: str) -> tuple:
    return tuple(field.coerce(part.strip()) for part in text.split(","))


class VermaModule:
    """Exact action of a Chevalley basis on the highest-weight module M(lambda).

    Results of act() are memoized per (generator, monomial); the returned
    dictionaries are shared and must be treated as immutable.
    """

    def __init__(self, algebra: ChevalleyBasis, weight, field: ExactField = QQ):
        if len(weight) != algebra.ell:
            raise DimensionMismatch(
                f"weight needs {algebra.ell} coordinates, got {len(weight)}"
            )
        self.algebra = algebra
        self.field = field
        self.weight = tuple(field.coerce(w) for w in weight)
        self.zero_monomial = (0,) * algebra.m
        self._memo: dict = {}

    def monomial_weight(self, mono, t: int):
        """Value of the monomial's weight on the t-th coroot."""
        alg = self.algebra
        shift = 0
        for a, ra in enumerate(mono):
            if ra:
                shift += ra * alg.root_on_coroot[a][t]
        return self.weight[t] - shift

    def act(self, gen: int, mono: tuple) -> dict:
        key = (gen, mono)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        alg = self.algebra
        kind, pos = alg.classify(gen)
        if kind == "h":
            w = self.monomial_weight(mono, pos)
            out = {mono: w} if w else {}
        else:
            first = None
            for a, ra in enumerate(mono):
                if ra:
                    first = a
                    break
            if kind == "y":
                if first is None or pos <= first:
                    lifted = list(mono)
                    lifted[pos] += 1
                    out = {tuple(lifted): self.field.one}
                else:
                    out = self._commute_past(gen, mono, first)
            else:  # kind == "x"
                if first is None:
                    out = {}
                else:
                    out = self._commute_past(gen, mono, first)
        self._memo[key] = out
        return out

    def _commute_past(self, gen: int, mono: tuple, first: int) -> dict:
        # gen . y_first . rest  =  y_first . gen . rest  +  [gen, y_first] . rest
        rest = list(mono)
        rest[first] -= 1
        rest = tuple(rest)
        inner = self.act(gen, rest)
        out = self.act_vector(first, inner)
        for k, c in self.algebra.bracket_table(gen, first).items():
            out = _merge(out, self.act(k, rest), c)
        return out

    def act_vector(self, gen: int, vec: dict) -> dict:
        out: dict = {}
        for mono, coeff in vec.items():
            out = _merge(out, self.act(gen, mono), coeff)
        return out

    def act_word(self, word, vec: dict) -> dict:
        """Apply a product of generators, rightmost factor first."""
        for gen in reversed(word):
            vec = self.act_vector(gen, vec)
        return vec

    def act_element(self, element: "UEAElement", vec: dict) -> dict:
        """Apply a sum of scaled words of the enveloping algebra."""
        out: dict = {}
        for word, coeff in element.terms.items():
            out = _merge(out, self.act_word(word, vec), self.field.coerce(coeff))
        return out

    def highest_weight_vector(self) -> dict:
        return {self.zero_monomial: self.field.one}


def _merge(acc: dict, extra: dict, scale=None) -> dict:
    out = dict(acc)
    for mono, coeff in extra.items():
        c = coeff if scale is None else scale * coeff
        cur = out.get(mono)
        s = c if cur is None else cur + c
        if s:
            out[mono] = s
        elif cur is not None:
            del out[mono]
    return out


def truncation_monomials(m: int, n: int) -> list:
    """All exponent tuples of length m with total degree <= n, degree-major order."""
    monos = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            for d in range(remaining + 1):
                monos.append(tuple(prefix + [d]))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d, slots - 1)

    rec([], n, m)
    monos.sort(key=lambda t: (sum(t), t))
    return monos


def epsilon_bound(algebra: ChevalleyBasis, n: int) -> Fraction:
    """Defect bound 2 m^2 / n for the degree-n truncation."""
    return Fraction(2 * algebra.m**2, n)


def build_truncation(
    algebra: ChevalleyBasis,
    weight,
    n: int,
    field: ExactField = QQ,
) -> AlmostRep:
    """The degree-n truncated highest-weight almost-representation.

    Columns are exact module actions with the degree-(n+1) components
    dropped, so the map agrees with the true module on monomials of degree
    below n (and on all of D_n for the non-negative part).  The pointwise
    defect is computed and certified against 2 m^2 / n.
    """
    if n < 2:
        raise ValueError("truncation degree must be at least 2")
    module = VermaModule(algebra, weight, field)
    monos = truncation_monomials(algebra.m, n)
    index = {mono: i for i, mono in enumerate(monos)}
    dim = len(monos)
    images = []
    for gen in range(algebra.dim):
        entries = {
            (index[out_mono], j): coeff
            for j, mono in enumerate(monos)
            for out_mono, coeff in module.act(gen, mono).items()
            if out_mono in index
        }
        images.append(DenseMatrix.from_entries(field, dim, dim, entries))
    rep = AlmostRep(
        algebra,
        field,
        dim,
        tuple(images),
        {"tag": "verma_truncation", "weight": module.weight, "n": n},
    )
    del module, entries  # the action memo and the last entries are not needed for the defect
    report = pointwise_defect(rep)
    bound = epsilon_bound(algebra, n)
    if report.pointwise.value > bound:
        raise BoundViolation(
            f"truncation defect {report.pointwise} exceeded 2m^2/n = {bound}",
            details={"weight": [str(w) for w in rep.meta["weight"]], "n": n},
        )
    rep.meta["pointwise_defect"] = report.pointwise
    return rep


@dataclass(frozen=True)
class StructureReport:
    cartan_diagonal: bool
    annihilates_highest: bool
    generated_dim: int
    dim: int

    @property
    def passed(self) -> bool:
        return self.cartan_diagonal and self.annihilates_highest and self.generated_dim == self.dim

    def to_json(self) -> dict:
        return {**report_json(self), "pass": self.passed}


class _Span:
    """Incremental span of vectors, kept as echelon rows, for spanning checks.

    Vectors are {index: coefficient} dicts of nonzeros only, as `_merge`
    leaves them; insert() reads its argument and does not change it.
    """

    def __init__(self, field: ExactField):
        self.field = field
        self.rows: list = []  # (pivot index, its normalized row), sorted by pivot

    def insert(self, vec: dict) -> bool:
        for pivot, row in self.rows:
            if pivot in vec:
                vec = _merge(vec, row, -vec[pivot])
        if not vec:
            return False
        pivot = min(vec)
        inv = self.field.one / vec[pivot]
        self.rows.append((pivot, {k: inv * a for k, a in vec.items()}))
        self.rows.sort(key=lambda t: t[0])
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)


def check_highest_weight_structure(rep: AlmostRep) -> StructureReport:
    """Diagonal Cartan action, killed highest vector, and cyclic generation.

    The third check grows the span of the highest-weight vector under the
    negative generators until it stabilizes and compares with the full space.
    """
    alg = rep.algebra
    diag = all(i == j for t in alg.cartan_indices for i, j in rep.images[t].nonzeros())
    kills = all(j != 0 for x in alg.positive_indices for _, j in rep.images[x].nonzeros())

    columns = []  # per negative generator, {j: {i: entry}} over its nonzeros
    for y in alg.negative_indices:
        cols: dict = {}
        for (i, j), a in rep.images[y].nonzeros().items():
            cols.setdefault(j, {})[i] = a
        columns.append(cols)

    span = _Span(rep.field)
    v0 = {0: rep.field.one}
    span.insert(v0)
    queue = [v0]
    while queue:
        vec = queue.pop()
        for cols in columns:
            w: dict = {}
            for j, c in vec.items():
                if j in cols:
                    w = _merge(w, cols[j], c)
            if w and span.insert(w):
                queue.append(w)
    return StructureReport(diag, kills, span.dim, rep.dim)


# ---------------------------------------------------------------------------
# Enveloping-algebra words


class UEAElement:
    """A finite combination of generator words in the enveloping algebra.

    Words are tuples of basis indices, applied rightmost-first; a word whose
    indices are nondecreasing in the basis order y < h < x is an ordered
    monomial.  Almost-representations only extend multiplicatively up to the
    defect, so equal elements written through different words may evaluate to
    different matrices; that discrepancy is itself one of the certified
    quantities.
    """

    def __init__(self, terms: dict, field: ExactField = QQ):
        self.field = field
        self.terms = {
            tuple(word): field.coerce(c) for word, c in terms.items() if field.coerce(c)
        }

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def is_pbw_ordered(self) -> bool:
        return all(all(w[i] <= w[i + 1] for i in range(len(w) - 1)) for w in self.terms)

    def __repr__(self):
        return f"UEAElement({len(self.terms)} terms, degree {self.degree})"


def casimir(algebra: ChevalleyBasis, field: ExactField = QQ) -> UEAElement:
    """The quadratic central element, written in ordered form.

    For sl_2 the normalization is h^2 + 2h + 4 f e, whose character at
    weight lambda is lambda^2 + 2 lambda.  For sl_3 it is the trace-form
    Casimir 2 sum_a y_a x_a + sum_a h_(root a) + sum dual-metric h_s h_t.
    """
    if algebra.r == 2:
        f, h, e = 0, 1, 2
        return UEAElement({(h, h): 1, (h,): 2, (f, e): 4}, field)
    if algebra.r == 3:
        m, ell = algebra.m, algebra.ell
        terms: dict = {}
        for a in range(m):
            terms[(a, m + ell + a)] = 2
        # sum over positive roots of the coroot h_alpha = h_i + ... + h_{j-1}
        for a, (i, j) in enumerate(algebra.root_pairs):
            for t in range(i, j):
                key = (m + t - 1,)
                terms[key] = terms.get(key, 0) + 1
        # dual Gram metric of [[2,-1],[-1,2]] is (1/3)[[2,1],[1,2]]
        third = Fraction(1, 3)
        terms[(m, m)] = 2 * third
        terms[(m + 1, m + 1)] = 2 * third
        terms[(m, m + 1)] = 2 * third
        return UEAElement(terms, field)
    raise ValueError("quadratic central element available for sl_2 and sl_3 only")


def reordered_sl2_casimir(field: ExactField = QQ) -> UEAElement:
    """The sl_2 element h^2 - 2h + 4 e f, equal to the ordered Casimir.

    Writing the product as e f makes the evaluation exit the truncation at
    top degree, so the near-scalar deviation becomes visible.
    """
    f, h, e = 0, 1, 2
    return UEAElement({(h, h): 1, (h,): -2, (e, f): 4}, field)


def evaluate_uea(rep: AlmostRep, element: UEAElement) -> DenseMatrix:
    """Extend the almost-action multiplicatively over each word and sum."""
    ident = DenseMatrix.identity(rep.field, rep.dim)
    terms = []
    for word, coeff in element.terms.items():  # (coeff * all letters but the last, the last)
        prefix = rep.images[word[0]] if len(word) > 1 else ident
        for g in word[1:-1]:
            prefix = prefix * rep.images[g]
        terms.append((prefix.scale(coeff), rep.images[word[-1]] if word else ident))
    return product_sum(terms) if terms else DenseMatrix.zeros(rep.field, rep.dim, rep.dim)


def central_character_value(
    algebra: ChevalleyBasis, element: UEAElement, weight, field: ExactField = QQ
):
    """Coefficient of the highest-weight vector in element . v_0, by straightening."""
    module = VermaModule(algebra, weight, field)
    vec = module.act_element(element, module.highest_weight_vector())
    return vec.get(module.zero_monomial, field.zero)


@dataclass(frozen=True)
class NearScalarReport:
    deviation: RankDistance
    bound: Fraction
    degree: int
    character: object

    @property
    def exact_scalar(self) -> bool:
        return self.deviation.numerator == 0

    def to_json(self) -> dict:
        # str() here too: a caller may pass an int character
        return {**report_json(self), "character": str(self.character),
                "exact_scalar": self.exact_scalar}


def check_near_scalar(rep: AlmostRep, element: UEAElement, character=None) -> NearScalarReport:
    """Certify rk(extended(z) - chi I) <= (deg z + 1) * 2 m^2 / n."""
    n = rep.meta.get("n")
    if n is None:
        raise ValueError("near-scalar check needs a truncation (meta n missing)")
    alg = rep.algebra
    eps = epsilon_bound(alg, n)
    if character is None:
        character = central_character_value(alg, element, rep.meta["weight"], rep.field)
    deg = element.degree
    dev = evaluate_uea(rep, element) - DenseMatrix.identity(rep.field, rep.dim).scale(character)
    rd = RankDistance(dev.rank(), rep.dim)
    bound = (deg + 1) * eps
    if rd.value > bound:
        raise BoundViolation(
            f"near-scalar deviation {rd} exceeded (R+1)*eps = {bound}",
            details={"degree": deg, "n": n},
        )
    return NearScalarReport(rd, bound, deg, character)


@dataclass(frozen=True)
class SeparationReport:
    verdict: str
    character_a: object = dc_field(metadata={"json": "chi_a"})
    character_b: object = dc_field(metadata={"json": "chi_b"})
    distance: RankDistance | None
    rank_lower: Fraction | None
    strict_distance_bound: Fraction | None

    @property
    def separated(self) -> bool:
        return self.verdict == "separated"

    to_json = report_json


def separation_certificate(rep_a: AlmostRep, rep_b: AlmostRep) -> SeparationReport:
    """Certify that two truncations with distinct characters stay rank-separated.

    When the quadratic characters differ, the evaluations of the central
    element differ by an almost-full-rank matrix:

        rk(ext_a(z) - ext_b(z)) >= 1 - 2(R+1) eps_n,

    and the closed-form strict-distance lower bound

        (C(R+ell, ell) * R)^-1 * (1 - 2(R+1) eps_n)

    holds against every conjugation of rep_b.  Equal characters (same or
    linked weights) yield an inconclusive verdict, never a false certificate.
    """
    if rep_a.algebra is not rep_b.algebra:
        raise ValueError("separation needs a common algebra")
    if rep_a.dim != rep_b.dim or rep_a.meta.get("n") != rep_b.meta.get("n"):
        raise DimensionMismatch("separation needs truncations at the same degree")
    if rep_a.field != rep_b.field:
        raise FieldMismatch("separation needs a common field")
    alg = rep_a.algebra
    field = rep_a.field
    n = rep_a.meta["n"]
    omega = casimir(alg, field)
    chi_a = central_character_value(alg, omega, rep_a.meta["weight"], field)
    chi_b = central_character_value(alg, omega, rep_b.meta["weight"], field)
    if chi_a == chi_b:
        return SeparationReport(
            "inconclusive (linked or same character)", chi_a, chi_b, None, None, None
        )
    eps = epsilon_bound(alg, n)
    deg = omega.degree
    diff = evaluate_uea(rep_a, omega) - evaluate_uea(rep_b, omega)
    rd = RankDistance(diff.rank(), rep_a.dim)
    lower = 1 - 2 * (deg + 1) * eps
    if rd.value < lower:
        raise BoundViolation(
            f"separation rank {rd} below 1 - 2(R+1)eps = {lower}",
            details={"n": n},
        )
    closed = Fraction(1, comb(deg + alg.ell, alg.ell) * deg) * lower
    return SeparationReport("separated", chi_a, chi_b, rd, lower, closed)


@dataclass(frozen=True)
class RepDistanceReport:
    verdict: str
    kernel_dim: int | None
    flexible_bound: Fraction | None
    basis_max_distance: RankDistance | None
    characters: tuple

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    to_json = report_json


def rep_distance_certificate(rep: AlmostRep, psi: AlmostRep) -> RepDistanceReport:
    """Lower-bound the flexible distance from a truncation to a true representation.

    For psi a direct sum of simples none of whose characters matches the
    truncation weight, the common eigenspace

        W = intersection of ker(ext_psi(z_i) - chi_lambda(z_i) I)

    over the central generators is zero; the certificate computes W exactly
    and emits the closed-form bound

        (C(R+ell, ell) R ell)^-1 * (1 - ell (R+m+1) eps_n)

    on the flexible distance, cross-checked against dim(g) times the
    basis-maximum flexible distance.  A matching character on any summand
    gives an inconclusive verdict.
    """
    if rep.algebra is not psi.algebra:
        raise ValueError("representations of different algebras")
    if rep.field != psi.field:
        raise FieldMismatch("representations over different fields")
    n = rep.meta.get("n")
    if n is None:
        raise ValueError("first argument must be a truncation (meta n missing)")
    alg = rep.algebra
    field = rep.field
    k, N = rep.dim, psi.dim
    eps = epsilon_bound(alg, n)
    if not (k <= N <= (1 + eps * alg.dim) * k):
        raise ValueError(
            f"target dimension {N} outside the flexible window [{k}, (1+eps*dim g)*{k}]"
        )

    omega = casimir(alg, field)
    chi = central_character_value(alg, omega, rep.meta["weight"], field)
    deg = omega.degree

    partition = psi.meta.get("partition")
    inconclusive = False
    if partition is not None and alg.r == 2:
        for d in set(partition):
            chi_d = central_character_value(alg, omega, (d,), field)
            if chi_d == chi:
                inconclusive = True
                break

    shifted = evaluate_uea(psi, omega) - DenseMatrix.identity(field, N).scale(chi)
    kernel_dim = shifted.kernel_basis().cols

    if inconclusive:
        return RepDistanceReport(
            "inconclusive (character matches a summand)", kernel_dim, None, None, (chi,)
        )
    if partition is None and kernel_dim > 0:
        return RepDistanceReport(
            "inconclusive (unknown summands share the character)", kernel_dim, None, None, (chi,)
        )
    if kernel_dim != 0:
        raise BoundViolation(
            "common eigenspace is nonzero despite unlinked characters",
            details={"kernel_dim": kernel_dim},
        )

    ell, m = alg.ell, alg.m
    bound = Fraction(1, comb(deg + ell, ell) * deg * ell) * (
        1 - ell * (deg + m + 1) * eps
    )
    if bound <= 0:
        return RepDistanceReport(
            "bound vacuous at this n; increase n", kernel_dim, bound, None, (chi,)
        )
    basis_max = map_distance(rep, psi, "flexible").pointwise
    if basis_max.value * alg.dim < bound:
        raise BoundViolation(
            f"basis distance {basis_max} times dim(g) fell below the certified bound {bound}",
            details={"n": n, "N": N},
        )
    return RepDistanceReport("certified", kernel_dim, bound, basis_max, (chi,))


# ---------------------------------------------------------------------------
# The sl_2 diagram flip (exploratory)


def weyl_twist(rep: AlmostRep) -> AlmostRep:
    """Precompose an sl_2 almost-representation with h -> -h, e -> -f, f -> -e.

    Applied to a truncation this produces (a compression of) the lowest
    weight module of weight -lambda.  For nonintegral weights nothing is
    asserted about its distance from the original; the scan below only
    gathers data.
    """
    if rep.algebra.r != 2:
        raise ValueError("the diagram flip is implemented for sl_2 only")
    f_img, h_img, e_img = rep.images
    images = (-e_img, -h_img, -f_img)
    meta = dict(rep.meta)
    meta["twisted"] = not meta.get("twisted", False)
    return AlmostRep(rep.algebra, rep.field, rep.dim, images, meta)


def weyl_twist_scan(rep: AlmostRep, trials: int, seed: int) -> dict:
    """Empirical flexible distances between rep and conjugated flips.

    Reports the basis-maximum flexible distance for the identity conjugator
    and `trials` random invertible conjugators, and their minimum.  No bound
    is claimed in either direction.
    """
    twisted = weyl_twist(rep)
    rng = XorShift64Star(seed)
    samples = [("identity", map_distance(rep, twisted, "flexible").pointwise.value)]
    for t in range(trials):
        conj, inv = random_unimodular(rep.field, rng, rep.dim)
        images = tuple(conj * img * inv for img in twisted.images)
        samples.append((f"conjugate_{t}", map_distance(rep, images, "flexible").pointwise.value))
    best = min(v for _, v in samples)
    return {
        "samples": [(name, str(v)) for name, v in samples],
        "min": str(best),
        "trials": trials,
    }


def sl2_lowest_weight_intertwiner(d: int, field: ExactField = QQ) -> DenseMatrix:
    """The weight-reversing matrix conjugating the flipped L(d) back to L(d).

    J v_k = c_k v_{d-k} with c_0 = 1 and c_{k+1} = -(d-k)(k+1) c_k.
    """
    n = d + 1
    coeffs = [field.one]
    for k in range(d):
        coeffs.append(coeffs[-1] * (-(d - k) * (k + 1)))
    return DenseMatrix.from_entries(field, n, n, {(d - k, k): c for k, c in enumerate(coeffs)})
