"""Free-group almost-representations from symmetric integer families.

A reduced word in F_2 = <a, b> is an alternating product
a^{n_1} b^{m_1} ... a^{n_k} b^{m_k} (only the outermost exponents may be
zero).  Given a symmetric family tau: Z -> GL_n with tau(0) = I,
tau(-j) = tau(j)^(-1) and rank(tau(j) - I) <= 1, the map

    phi(w) = tau(m_1) tau(m_2) ... tau(m_k)

depends only on the b-exponents.  Joining two reduced words either
concatenates the tau-product or, after cancellation, replaces a middle pair
tau(m) tau(q) by tau(m+q); the multiplicative defect of phi is therefore the
exact maximum of rk(tau(m) tau(q) - tau(m+q)) over integer pairs, which a
finite membership-pattern enumeration computes.  It never exceeds 3/n.  Each
tau(j) is validated and scanned through I + u v^T: Sherman-Morrison checks
tau(-j), and each pattern is ranked on a core of at most 2x2.

The witness word a b a b^2 ... a b^t accumulates tau(1)...tau(t); presets are
chosen so that product is far from the identity, which pushes every true
representation at least (c - 1/n)/6 away in the flexible metric, c being the
witness value.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import BoundViolation, DimensionMismatch, FieldMismatch
from .exactfield import QQ, DenseMatrix, ExactField, vstack
from .prng import XorShift64Star, random_unimodular
from .rankmetric import RankDistance, flexible_distance, report_json

__all__ = [
    "ReducedWord",
    "word_reduce",
    "WORD_A",
    "WORD_B",
    "TauFamily",
    "preset_tau",
    "phi_eval",
    "exact_defect",
    "witness_word",
    "default_witness_exponent",
    "FreeGroupRep",
    "ExplicitRep",
    "MonomialRep",
    "ConjugatedRep",
    "trivial_rep",
    "rep_distance_certificate",
    "certificate_battery",
    "Pullback",
    "pullback",
]


# ---------------------------------------------------------------------------
# Reduced words


@dataclass(frozen=True)
class ReducedWord:
    """Alternating-exponent normal form; syllables are (generator, exponent).

    Stored as a tuple of (gen, exp) with gen in {"a", "b"}, adjacent
    generators distinct and all exponents nonzero.  The empty tuple is the
    identity.
    """

    syllables: tuple

    def __post_init__(self):
        prev = None
        for gen, exp in self.syllables:
            if gen not in ("a", "b"):
                raise ValueError(f"unknown generator {gen!r}")
            if exp == 0:
                raise ValueError("zero exponent in normal form")
            if gen == prev:
                raise ValueError("adjacent syllables share a generator")
            prev = gen

    @classmethod
    def identity(cls) -> "ReducedWord":
        return cls(())

    @classmethod
    def from_pairs(cls, pairs) -> "ReducedWord":
        """Build from an alternating exponent list [(n_1, m_1), ...]."""
        sylls = []
        for n_i, m_i in pairs:
            if n_i:
                sylls.append(("a", n_i))
            if m_i:
                sylls.append(("b", m_i))
        return _reduce_syllables(sylls)

    def b_exponents(self) -> tuple:
        return tuple(exp for gen, exp in self.syllables if gen == "b")

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return _reduce_syllables(list(self.syllables) + list(other.syllables))

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple((g, -e) for g, e in reversed(self.syllables)))

    def power(self, k: int) -> "ReducedWord":
        if k < 0:
            return self.inverse().power(-k)
        out = ReducedWord.identity()
        for _ in range(k):
            out = out * self
        return out

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __str__(self):
        if not self.syllables:
            return "1"
        return " ".join(f"{g}^{e}" if e != 1 else g for g, e in self.syllables)


def _reduce_syllables(sylls) -> ReducedWord:
    # Adjacent stack entries never share a generator, so a syllable can only
    # merge with the top, and a cancellation exposes nothing new to merge.
    stack: list = []
    for gen, exp in sylls:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if exp:
            stack.append((gen, exp))
    return ReducedWord(tuple(stack))


_LETTERS = {"a": ("a", 1), "A": ("a", -1), "b": ("b", 1), "B": ("b", -1)}


def word_reduce(letters) -> ReducedWord:
    """Reduce a letter sequence; accepts 'abA' strings or (gen, exp) pairs."""
    sylls = []
    for item in letters:
        if isinstance(item, str) and item in _LETTERS:
            sylls.append(_LETTERS[item])
        elif isinstance(item, tuple):
            sylls.append(item)
        else:
            raise ValueError(f"unknown letter {item!r}")
    return _reduce_syllables(sylls)


WORD_A = ReducedWord((("a", 1),))
WORD_B = ReducedWord((("b", 1),))


# ---------------------------------------------------------------------------
# Symmetric families


class TauFamily:
    """Symmetric map Z -> GL_n with identity outside a finite support.

    Required properties, validated on construction: tau(-j) is the inverse of
    tau(j), and every tau(j) sits within normalized rank 1/n of the identity.
    """

    def __init__(self, field: ExactField, n: int, mapping: dict, preset: str = "custom"):
        self.field = field
        self.n = n
        self.preset = preset
        self._map: dict[int, DenseMatrix] = {}
        for j, mat in mapping.items():
            if j == 0:
                raise ValueError("tau(0) is fixed to the identity; do not supply it")
            if mat.shape != (n, n):
                raise DimensionMismatch(f"tau({j}) has shape {mat.shape}")
            if mat.field != field:
                raise FieldMismatch("mixed fields in tau family")
            self._map[j] = mat
        ident = DenseMatrix.identity(field, n)
        self._identity = ident
        self._witness: dict[int, tuple] = {}
        # j -> (u, v, id of u, id of v) for D_j = tau(j) - I = u v^T != 0: v is the
        # first nonzero row of D_j, u its column through that row's first nonzero
        # entry a, over a; both {coordinate: value} dicts.  Parallel ones share an id.
        self._factors: dict[int, tuple] = {}
        deltas, ids = {}, {}
        for j, mat in sorted(self._map.items()):
            if -j not in self._map:
                raise ValueError(f"support is not symmetric: {j} present, {-j} missing")
            delta = mat - ident
            if delta.rank() > 1:
                raise ValueError(f"tau({j}) is not within rank one of the identity")
            d = deltas[j] = delta.nonzeros()
            if d:
                (i0, j0), a = min(d.items())  # u leads with 1 at i0 and v with a at j0
                u = {i: x / a for (i, c), x in d.items() if c == j0}
                v = {c: x for (i, c), x in d.items() if i == i0}
                keys = (tuple(sorted(u.items())), tuple((c, x / a) for c, x in sorted(v.items())))
                self._factors[j] = (u, v, *[ids.setdefault(key, len(ids)) for key in keys])
        # tr D_j = v^T u.  If 1 + tr D_j != 0, then (I + u v^T)(I - u v^T / (1 + v^T u)) = I
        # (Sherman-Morrison), so tau(j) tau(-j) = I exactly when D_-j = -D_j / (1 + tr D_j).
        # If 1 + tr D_j = 0, then (I + D_j) u = (1 + v^T u) u = 0 with u != 0: tau(j) is singular.
        for j in sorted(j for j in self._map if j > 0):
            den = sum((x for (r, c), x in deltas[j].items() if r == c), field.one)
            if not den or deltas[-j] != {pos: -x / den for pos, x in deltas[j].items()}:
                raise ValueError(f"tau({j}) and tau({-j}) are not inverse")
        self.support = frozenset(self._map)
        self.support_bound = max((abs(j) for j in self.support), default=0)

    def tau(self, j: int) -> DenseMatrix:
        if j == 0:
            return self._identity
        return self._map.get(j, self._identity)

    def moved(self, j: int) -> frozenset:
        """Coordinates i where row i or column i of tau(j) differs from I's: supp(u) | supp(v)."""
        u, v, *_ = self._factors.get(j, ({}, {}))
        return frozenset(u.keys() | v.keys())

    def witness(self, t: int) -> tuple:
        """(w, phi(w), c) for w = witness_word(t) and c = rk(phi(w) - I_n) / n.

        Computed once per exponent: every distance chain against this family
        uses the same phi side.
        """
        hit = self._witness.get(t)
        if hit is None:
            w = witness_word(t)
            phi_w = phi_eval(w, self)
            hit = self._witness[t] = (w, phi_w, Fraction((phi_w - self._identity).rank(), self.n))
        return hit


def preset_tau(kind: str, n: int, field: ExactField = QQ) -> TauFamily:
    """Built-in families: diag_involution, transposition, transvection."""
    if n < 1:
        raise ValueError("n must be positive")
    ident = DenseMatrix.identity(field, n)

    def ident_plus(entries: dict) -> DenseMatrix:
        # I + D from the nonzeros of D: the rows D leaves alone stay I's own
        return ident + DenseMatrix.from_entries(field, n, n, entries)

    mapping: dict[int, DenseMatrix] = {}
    if kind == "diag_involution":
        if field.characteristic == 2:
            raise ValueError("diag_involution needs characteristic != 2")
        for j in range(1, n + 1):
            mapping[j] = mapping[-j] = ident_plus({(j - 1, j - 1): -2})
    elif kind == "transposition":
        for j in range(1, n):
            mapping[j] = mapping[-j] = ident_plus({(j - 1, j - 1): -1, (j, j): -1, (j - 1, j): 1, (j, j - 1): 1})
    elif kind == "transvection":
        for j in range(1, n):
            mapping[j] = ident_plus({(j, j - 1): 1})
            mapping[-j] = ident_plus({(j, j - 1): -1})
    else:
        raise ValueError(f"unknown preset {kind!r}")
    return TauFamily(field, n, mapping, preset=kind)


def phi_eval(word: ReducedWord, tau: TauFamily) -> DenseMatrix:
    """Product of tau over the b-exponents; a-exponents are ignored by design."""
    out = tau.tau(0)
    for m in word.b_exponents():
        out = out * tau.tau(m)
    return out


# ---------------------------------------------------------------------------
# Exact defect enumeration


@dataclass(frozen=True)
class DefectResult:
    defect: RankDistance
    bound: Fraction
    witness_pair: tuple

    to_json = report_json


def exact_defect(tau: TauFamily) -> DefectResult:
    """The exact multiplicative defect of the induced free-group map.

    Enumerates rk(tau(m) tau(q) - tau(m+q)) over all membership patterns of
    (m, q, m+q) relative to the finite support.  Pairs with both inside are
    ranked one by one; any other pattern is a D_u = tau(u) - I, or a
    tau(u) - tau(s) that the pair (u, -s) already ranks.  Certifies the result
    against 3/n.
    """
    support = sorted(tau.support)
    best = 0
    pair = (0, 0)

    for m in support:
        for q in support:
            r = _pattern_rank(tau, ((m, 1), (q, 1), (m + q, -1)), product=True)
            if r > best:
                best = r
                pair = (m, q)
        # tau(m) tau(q) - tau(m+q) = D_m + D_q + D_m D_q - D_{m+q} has rank at
        # most 3 and the pattern below at most 1, so no later pair can replace
        # one that reaches 3.
        if best == 3:
            break

    # One exponent outside the support gives tau(u) - I = D_u, or tau(u) - tau(s)
    # with s - u escaping.  The latter needs no scan: it is (tau(u) tau(-s) - I) tau(s),
    # the pair (u, -s) ranked above, as -s is in the support and u - s is not.
    for u in support:
        r = 1 if u in tau._factors else 0
        if r > best:
            best = r
            pair = (u, tau.support_bound * 2 + 1)

    rd = RankDistance(best, tau.n)
    bound = Fraction(3, tau.n)
    if rd.value > bound:
        raise BoundViolation(
            f"defect {rd} exceeded 3/n = {bound}", details={"preset": tau.preset}
        )
    return DefectResult(rd, bound, pair)


def _basis_rows(vectors, ids) -> list:
    """Rows of [v_1 ... v_k], of rank 1 or 2, that are a basis of its row space:
    i1 with v_1[i1] != 0, and for rank 2 an i2 where v_1 and a y have a nonzero minor."""
    x, i1 = vectors[0], min(vectors[0])
    y = next((v for v, d in zip(vectors, ids) if d != ids[0]), None)
    if y is None:
        return [i1]
    coords = sorted(x.keys() | y.keys())
    return [i1, next(i for i in coords if x[i1] * y.get(i, 0) - x.get(i, 0) * y.get(i1, 0))]


def _span_rank(tau: TauFamily, vectors, ids) -> int:
    d = len(set(ids))  # parallel vectors share an id, so 1 or 2 ids is the rank
    if d < 3 or not vectors[2].keys() <= vectors[0].keys() | vectors[1].keys():
        return d  # or three, one of them nonzero where the other two are zero
    entries = {(a, i): x for a, v in enumerate(vectors) for i, x in v.items()}
    return DenseMatrix.from_entries(tau.field, 3, tau.n, entries).rank()


def _pattern_rank(tau: TauFamily, terms, product: bool = False) -> int:
    """Rank of the sum of sign * D_j over the (j, sign) terms, plus D_j1 D_j2 if `product`.

    With D_j = u_j v_j^T this is U W V^T for U = [u_j] and V = [v_j] over the
    terms with D_j != 0, and W diagonal with the signs (plus v_j1^T u_j2 at
    (1, 2) for the product), so invertible.  If U has full column rank the
    rank is rank(V), and the other way round.  Otherwise rows I and J that are
    bases of the row spaces give U = L U[I], V = L' V[J] with L, L' of full
    column rank, so the rank is that of U[I] W V[J]^T: the pattern on I x J.
    """
    factors = tau._factors
    live = [(factors[j], sign) for j, sign in terms if j in factors]
    if not live:
        return 0
    us, vs, uids, vids = zip(*(f for f, _ in live))
    ru, rv = _span_rank(tau, us, uids), _span_rank(tau, vs, vids)
    if len(live) in (ru, rv):
        return min(ru, rv)
    (u1, v1, *_), (u2, v2, *_) = (factors.get(j, ({}, {})) for j, _ in terms[:2])
    s = sum(v1[i] * x for i, x in u2.items() if i in v1) if product else 0
    block = {(a, b): sum(sign * u.get(i, 0) * v.get(c, 0) for (u, v, *_), sign in live)
             + s * u1.get(i, 0) * v2.get(c, 0)
             for a, i in enumerate(_basis_rows(us, uids)) for b, c in enumerate(_basis_rows(vs, vids))}
    return DenseMatrix.from_entries(tau.field, ru, rv, block).rank()


def witness_word(t: int) -> ReducedWord:
    """The word a b a b^2 a b^3 ... a b^t."""
    if t < 1:
        raise ValueError("witness exponent must be at least 1")
    return ReducedWord.from_pairs([(1, j) for j in range(1, t + 1)])


def default_witness_exponent(tau: TauFamily) -> int:
    """Exponent whose witness accumulates the full product of the preset."""
    if tau.preset == "diag_involution":
        return tau.n
    return tau.n - 1


# ---------------------------------------------------------------------------
# True representations of F_2 and the distance certificate


class FreeGroupRep:
    """A genuine representation of F_2 given by images of a and b."""

    dim: int
    field: ExactField

    def eval(self, word: ReducedWord) -> DenseMatrix:
        raise NotImplementedError

    def image_a(self) -> DenseMatrix:
        return self.eval(WORD_A)

    def image_b(self) -> DenseMatrix:
        return self.eval(WORD_B)


class ExplicitRep(FreeGroupRep):
    def __init__(self, a: DenseMatrix, b: DenseMatrix):
        if a.shape != b.shape or not a.is_square():
            raise DimensionMismatch("generator images must be square of equal size")
        if a.field != b.field:
            raise FieldMismatch("generator images over different fields")
        n = a.rows
        if a.rank() != n or b.rank() != n:
            raise ValueError("generator images must be invertible")
        self.dim = n
        self.field = a.field
        self._gens = {"a": a, "b": b}
        self._powers: dict = {}
        self._evals: dict = {}

    def _power(self, gen: str, k: int) -> DenseMatrix:
        key = (gen, k)
        hit = self._powers.get(key)
        if hit is not None:
            return hit
        if k == 1:
            out = self._gens[gen]
        elif k == -1:
            out = self._gens[gen].inverse()
        elif k > 0:
            out = self._power(gen, k - 1) * self._gens[gen]
        else:
            out = self._power(gen, k + 1) * self._power(gen, -1)
        self._powers[key] = out
        return out

    def eval(self, word: ReducedWord) -> DenseMatrix:
        """The image of `word`, multiplied out once per word and instance."""
        out = self._evals.get(word)
        if out is None:
            for gen, exp in word.syllables:
                m = self._power(gen, exp)
                out = m if out is None else out * m
            out = self._evals[word] = out if out is not None else DenseMatrix.identity(self.field, self.dim)
        return out


class MonomialRep(ExplicitRep):
    """Generator images are monomial matrices.

    Each is given as (perm, scale) and sends e_j to scale[j] * e_perm[j].  A
    zero scale is rejected by ExplicitRep's invertibility check.
    """

    def __init__(self, field: ExactField, perm_a, scale_a, perm_b, scale_b):
        n = len(perm_a)
        images = []
        for perm, scale in ((perm_a, scale_a), (perm_b, scale_b)):
            perm = tuple(perm)
            if sorted(perm) != list(range(n)):
                raise ValueError("not a permutation")
            images.append(DenseMatrix.from_entries(field, n, n, {(perm[j], j): scale[j] for j in range(n)}))
        super().__init__(*images)


class ConjugatedRep(FreeGroupRep):
    """C . inner . C^-1, conjugating once per evaluated word."""

    def __init__(self, conjugator: DenseMatrix, inner: FreeGroupRep, inverse: DenseMatrix | None = None):
        if conjugator.shape != (inner.dim, inner.dim):
            raise DimensionMismatch("conjugator dimension mismatch")
        self.dim = inner.dim
        self.field = inner.field
        self._c = conjugator
        self._c_inv = inverse if inverse is not None else conjugator.inverse()
        self._inner = inner

    def eval(self, word: ReducedWord) -> DenseMatrix:
        return self._c * self._inner.eval(word) * self._c_inv


def trivial_rep(field: ExactField, n: int) -> FreeGroupRep:
    ident_perm = range(n)
    ones = [1] * n
    return MonomialRep(field, ident_perm, ones, ident_perm, ones)


@dataclass(frozen=True)
class ChainReport:
    """Every computable step of the distance argument, checked exactly."""

    n: int
    target_dim: int = dc_field(metadata={"json": "N"})
    witness_exponent: int
    witness_value: Fraction
    eps_lower: Fraction
    delta: Fraction
    rank_a: int
    rank_b: int
    fixed_dim: int
    rank_witness: int
    final_bound: Fraction
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    to_json = report_json


def rep_distance_certificate(tau: TauFamily, psi: FreeGroupRep) -> ChainReport:
    """Certify the distance chain between phi and a true representation psi.

    With w the witness word at default_witness_exponent(tau), c the witness
    value rk(phi(w) - I_n) and eps the maximum flexible distance over
    {a, b, w}, the chain

        rank(psi(a) - I_N) <= 2 eps n
        rank(psi(b) - I_N) <= (2 eps + 1/n) n
        dim ker-intersection >= N - those ranks
        rank(psi(w) - I_N)  <= N - dim ker-intersection
        c n - 2 eps n       <= rank(psi(w) - I_N)

    forces eps >= (c - 1/n)/6.  Each step is evaluated exactly; a violation
    aborts, since every step is a theorem for a true homomorphism.
    """
    if psi.field != tau.field:
        raise FieldMismatch("representation and tau family over different fields")
    n = tau.n
    N = psi.dim
    field = tau.field
    t = default_witness_exponent(tau)
    w, phi_w, c = tau.witness(t)

    phi_a = tau.tau(0)
    phi_b = tau.tau(1)
    psi_a = psi.image_a()
    psi_b = psi.image_b()
    psi_w = psi.eval(w)

    d_a = flexible_distance(phi_a, psi_a)
    d_b = flexible_distance(phi_b, psi_b)
    d_w = flexible_distance(phi_w, psi_w)
    eps = max(d_a.value, d_b.value, d_w.value)
    delta = Fraction(1, n)

    ident_big = DenseMatrix.identity(field, N)
    moved_a, moved_b = psi_a - ident_big, psi_b - ident_big
    rank_a, rank_b = moved_a.rank(), moved_b.rank()
    fixed = vstack([moved_a, moved_b]).kernel_basis().cols
    rank_w = (psi_w - ident_big).rank()

    final = (c - delta) / 6
    checks = (
        ("rank_a <= 2*eps*n", Fraction(rank_a) <= 2 * eps * n),
        ("rank_b <= (2*eps + delta)*n", Fraction(rank_b) <= (2 * eps + delta) * n),
        ("fixed_dim >= N - rank_a - rank_b", fixed >= N - rank_a - rank_b),
        ("rank_w <= N - fixed_dim", rank_w <= N - fixed),
        ("c*n - 2*eps*n <= rank_w", c * n - 2 * eps * n <= rank_w),
        ("eps >= (c - delta)/6", eps >= final),
    )
    report = ChainReport(
        n, N, t, c, eps, delta, rank_a, rank_b, fixed, rank_w, final, checks
    )
    if not report.passed:
        failed = [name for name, ok in checks if not ok]
        raise BoundViolation(
            f"distance chain failed at: {', '.join(failed)}",
            details={"report": report.to_json()},
        )
    return report


def certificate_battery(tau: TauFamily, seed: int, conjugates: int = 20) -> list:
    """Run the chain against the trivial, monomial, and random-conjugate families."""
    field = tau.field
    n = tau.n
    rng = XorShift64Star(seed)
    reports = []
    reports.append(("trivial", rep_distance_certificate(tau, trivial_rep(field, n))))

    cycle = tuple((j + 1) % n for j in range(n))
    reversal = tuple(n - 1 - j for j in range(n))
    if field.characteristic == 2:
        scale = [1] * n
    else:
        scale = [(-1) ** j for j in range(n)]
    monomial = MonomialRep(field, cycle, scale, reversal, [1] * n)
    reports.append(("monomial", rep_distance_certificate(tau, monomial)))

    for i in range(conjugates):
        conj, conj_inv = random_unimodular(field, rng, n)
        rep = ConjugatedRep(conj, monomial, conj_inv)
        reports.append((f"conjugate_{i}", rep_distance_certificate(tau, rep)))
    return reports


# ---------------------------------------------------------------------------
# Pullback through a surjection onto F_2


class Pullback:
    """Evaluator for words of a group mapping onto F_2.

    Generators of the source group are named; each name carries its image as
    a reduced word.  Words are substituted, reduced, and fed through phi.
    """

    def __init__(self, images: dict, tau: TauFamily):
        self.images = {name: word for name, word in images.items()}
        self.tau = tau
        has_a = any(w == WORD_A for w in self.images.values())
        has_b = any(w == WORD_B for w in self.images.values())
        if not (has_a and has_b):
            raise ValueError(
                "surjectivity witness missing: need generators mapping onto a and b"
            )

    def substitute(self, word) -> ReducedWord:
        out = ReducedWord.identity()
        for name, exp in word:
            img = self.images.get(name)
            if img is None:
                raise ValueError(f"unknown generator {name!r}")
            out = out * img.power(exp)
        return out

    def eval(self, word) -> DenseMatrix:
        return phi_eval(self.substitute(word), self.tau)


def pullback(images: dict, tau: TauFamily) -> Pullback:
    return Pullback(images, tau)
