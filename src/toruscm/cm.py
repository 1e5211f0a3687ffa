"""CM abelian varieties: trace/Riemann forms, the period-matrix complex
structure, CM certificates, rational-metric search, the eta-involution
checks, and the simplicity criterion.

The complex structure I of C^g / Phi(O) is R^-1 D R, where R holds the
images sigma_j(a) of the basis for j in Phi and their complex conjugates,
and D = diag(i, .., i, -i, .., -i) = i S; so I = i N, N = R^-1 S R.  As
R^T R is the trace form T = (Tr(a_k a_l)), N = 2 T^-1 R_Phi^T R_Phi - Id
with no elimination over K, and E and G come from the power basis's trace
form T0 too.  I is real, so N's entries are conj-antifixed, and on them
i sigma = phi, the real ring map Re sigma - Im sigma from K with the twisted
product x * y = xy - 2 x^- y^-, x^- = (x - conj x) / 2.  The real values of
I are then expressed in F = Q(entries of I) by their coordinates in the
*-power span of a generator from the entries' moment curve within the
primitive element bound; no field beyond K and F is built.  Every decision
is exact; enclosures only pick which root or embedding a value is.  Every
Q-span question is one `kernel_rows` call, through `_coordinates`.

The certificate searches End^0(T), which each torus computes once
(`ComplexTorusData.end`); it and the metric search share one seeded search.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import polyq
from .boxes import Box
from .exactla import (
    FieldMatrix,
    Singular,
    kernel_rows,
    positive_definite,
    rational_kernel,
)
from .numfield import (
    Embedding,
    FieldElement,
    NumberField,
    _powers,
    exact_sign_imag,
    rationals,
)
from .polyq import RootSet, _factor_at
from .torus import ComplexTorusData, EndAlgebra, _rational_solutions


class BetaNotAdmissible(ValueError):
    pass


class BasisDependent(ValueError):
    pass


class UnsupportedField(ValueError):
    pass


class ConjNotComplexConjugation(ValueError):
    pass


class IncompatiblePolarization(ValueError):
    pass


class SubfieldDataNotClosed(ValueError):
    pass


class NotFoundWithinBudget(LookupError):
    pass


# ---------------------------------------------------------------------------
# Krylov minimal polynomials


def krylov_minpoly(powers):
    """Monic minimal polynomial of u from the rational coordinate vectors of
    u^0 .. u^m, where m bounds its degree.

    With those vectors as columns, the first kernel row is (c_0, .., c_{k-1},
    1, 0, ..): u^k is the first power in the span of the powers before it,
    and every later power is too, so the reduced rows give zeros after k.
    """
    powers = list(powers)
    ker = kernel_rows(list(zip(*powers)), len(powers))
    if not ker:
        raise AssertionError("no dependence found")
    return polyq.poly(ker[0])


def matrix_minpoly(m: FieldMatrix):
    """Minimal polynomial of a rational square matrix M = A / den, A its
    integer block.  A's is the lcm of those of e_0, e_1, .. under A, as they
    span Q^n (Wiedemann, IEEE Trans. Inf. Theory 32, 1986): p <- p q, q that
    of p(A) e_j, until deg p = n, so a cyclic e_0 takes one `krylov_minpoly`.
    p is integral (Gauss), and M's is p(den x) / den^deg p."""
    if not m.is_rational():
        raise ValueError("matrix is not rational")
    n, a, p = m.rows, [row[:: m.field.degree] for row in m.num], [1]
    for j in range(n):
        seq = [e := [int(i == j) for i in range(n)]]
        for c in reversed(p[:-1]):  # p(A) e_j by Horner
            seq = [[sum(map(mul, row, seq[0])) + c * y for row, y in zip(a, e)]]
        if any(seq[0]):
            for _ in range(n + 1 - len(p)):  # deg q <= n - deg p
                seq.append([sum(map(mul, row, seq[-1])) for row in a])
            q = [int(c) for c in krylov_minpoly(seq)]
            p = [sum(x * q[k - i] for i, x in enumerate(p) if 0 <= k - i < len(q))
                 for k in range(len(p) + len(q) - 1)]
        if len(p) == n + 1:
            break
    return polyq.poly(Fraction(c, m.den ** (len(p) - 1 - i)) for i, c in enumerate(p))


def element_minpoly(x: FieldElement):
    """Minimal polynomial over Q of a field element."""
    return krylov_minpoly(p.coords for p in _powers(x.field.one(), x, x.field.degree + 1))


def _coordinates(span, targets):
    """Rational coordinates of each target vector in the Q-span of the
    vectors `span`, or None when those are dependent or a target is outside
    their span: the free columns of [span | targets] must be the target
    columns, whose kernel rows are (-x_j, e_j) (a row is 0 after its free
    column)."""
    n = len(span)
    ker = kernel_rows(list(zip(*span, *targets)), n + len(targets))
    if len(ker) != len(targets) or not all(row[n + j] for j, row in enumerate(ker)):
        return None
    return [[-c for c in row[:n]] for row in ker]


def _combine(zero, coeffs, basis):
    """zero + sum of c * b over the nonzero coefficients c."""
    acc = zero
    for c, b in zip(coeffs, basis):
        if c:
            acc = acc + b * c
    return acc


# ---------------------------------------------------------------------------
# CM input


@dataclass
class CmInput:
    field: NumberField
    basis: list
    phi: list
    beta: FieldElement | None = None
    automorphisms: list | None = None

    def validate(self) -> None:
        k = self.field
        d = k.degree
        if not k.has_conj:
            raise ValueError("CM input needs a field with conjugation")
        if d % 2:
            raise ValueError("CM field must have even degree")
        fault = k.conj_fault  # irreducibility included, decided once per field
        if fault is not None:
            msg = f"conj is not complex conjugation under embedding {fault}"
            raise ConjNotComplexConjugation(msg)
        if len(self.basis) != d:
            raise ValueError("basis must have 2g elements")
        if _coordinates([a.coords for a in self.basis], []) is None:
            raise BasisDependent("basis is linearly dependent over Q")
        embs = k.embeddings()
        if len(self.phi) != d // 2:
            raise ValueError("Phi must pick one embedding per conjugate pair")
        seen = set()
        for idx in self.phi:
            if not 1 <= idx <= d:
                raise ValueError(f"Phi index {idx} is not an embedding index 1..{d}")
            emb = embs[idx - 1]
            if emb.conj_index is None:
                raise ValueError("CM field cannot have real embeddings")
            if idx in seen or emb.conj_index in seen:
                raise ValueError("Phi contains a conjugate pair")
            seen.add(idx)
        if self.beta is not None:
            self.check_beta(self.beta)

    def check_beta(self, beta: FieldElement) -> None:
        """conj(beta) = -beta and Im sigma_j(beta) > 0 on Phi, with conj complex
        conjugation (`conj_fault`; this check is also made without `validate`),
        so each sigma(beta) is nonzero and imaginary: -beta^2 is totally positive."""
        k = self.field
        if not (k.conj(beta) + beta).is_zero():
            raise BetaNotAdmissible("conj(beta) != -beta")
        if k.conj_fault is not None:
            raise BetaNotAdmissible("conj is not complex conjugation")
        for idx in self.phi:
            if exact_sign_imag(beta, k.embeddings()[idx - 1]) != 1:
                raise BetaNotAdmissible("Im sigma_j(beta) <= 0 on Phi")


# ---------------------------------------------------------------------------
# The real value field F, read in K through the twisted product


def _star_powers(gamma: FieldElement, n):
    """[gamma^0, .., gamma^(n-1)] under the twisted product x * y = xy -
    2 x^- y^-, x^- = (x - conj x) / 2, for conj-antifixed gamma: then
    gamma^- = gamma, so x * gamma = xy - (x - conj x) gamma = conj(x) gamma."""
    k = gamma.field
    out = [k.one()]
    for _ in range(n - 1):
        out.append(k.conj(out[-1]) * gamma)
    return out


def _real_value_field(base: Embedding, entries):
    """F = Q(i sigma(x) : x in entries) with a real embedding, and those
    values as F-elements, for conj-antifixed entries of K and sigma = base.

    phi(x) = Re sigma(x) - Im sigma(x) is a ring map from K with the twisted
    product (`_star_powers`) to R, and phi(x) = i sigma(x) on antifixed x, so
    F is phi's image of the *-algebra the entries generate.  (K, *) =
    K+[y]/(y^2 + beta^2), for any antifixed beta != 0, is etale, and a field
    exactly when i is not in K (so at an odd disc(m): `odd_discriminant`).
    Candidates gamma: the distinct nonzero entries b_1 .. b_r, then the moment
    curve x(t) = sum over k < r of t^k b_(k+1) at t = 1, 2, ..; gamma
    generates the algebra when its *-powers span every entry.  Two distinct
    maps of it to C (at most n = [K:Q]) differ on some b_k, so agree at x(t)
    for at most r - 1 values of t; as b_1 = x(0), one of the first
    r + C(n, 2)(r - 1) candidates generates it (Lang, Algebra, V 4).  F is
    then Q[x] modulo the factor at phi(s gamma) of gamma's *-minimal
    polynomial p, scaled to s gamma, and an entry's value is its coordinate
    row at F's generator over s.  s = gcd(gamma's denominator, the lcm of
    p's): each root of p is i tau(gamma) for an embedding tau, and
    i tau(gamma.den gamma) is integral, as gamma.den gamma lies in Z[gen];
    the lcm makes every root of p integral too, so the gcd does.
    """
    k, qq = base.field, rationals()
    if any(not (k.conj(x) + x).is_zero() for x in entries):
        raise AssertionError("I has an entry that is not real")
    basis = list(dict.fromkeys(e for e in entries if not e.is_zero()))
    r, n = len(basis), k.degree
    curve = (_combine(k.zero(), [t**j for j in range(r)], basis) for t in itertools.count(1))
    targets = [e.coords for e in entries]
    for gamma in itertools.islice(itertools.chain(basis, curve), r + math.comb(n, 2) * (r - 1)):
        powers = [x.coords for x in _star_powers(gamma, n + 1)]
        p = krylov_minpoly(powers)
        m = polyq.degree(p)
        sol = _coordinates(powers[:m], targets)
        if sol is None:
            continue
        s = math.gcd(gamma.den, math.lcm(*[c.denominator for c in p]))

        def value(w):
            return (gamma * s).enclosure(base, w) * Box.point(0, 1)  # i sigma(s gamma)

        f = NumberField([c * s ** (m - i) for i, c in enumerate(p)])
        at = f.roots.locate(value)
        factor, root = (f.minpoly if k.odd_discriminant else _factor_at(f.roots, at)), f.gen()
        if factor != f.minpoly:  # (K, *) is not a field: i lies in K
            if polyq.degree(factor) == 1:
                f, at, root = qq, 0, qq.from_rational(-factor[0])
            else:
                f = NumberField(factor)
                at, root = f.roots.locate(value), f.gen()
        row_basis = _powers(f.one(), root * Fraction(1, s), m)
        values = [_combine(f.zero(), x, row_basis) for x in sol]
        return f, f.embeddings()[at], values
    raise AssertionError("no generator of F within the primitive element bound")


# ---------------------------------------------------------------------------
# cm_torus


def _period_n(inp: CmInput) -> FieldMatrix:
    """N = R^-1 S R over K, S = diag(1, .., -1, ..), for R = [R_Phi; conj
    R_Phi], R_Phi = (tau_j(a_k)) = P A^T: row j of P holds the powers tau_j^m
    (m < d) of the automorphism that the base embedding turns into Phi's
    j-th, and A the basis's coordinates.  Phi and its conjugates are every
    embedding, so R^T R = T = (Tr(a_k a_l)) = A T0 A^T, T0 the power basis's
    trace form, and N = T^-1 R^T S R = 2 T^-1 R_Phi^T R_Phi - Id."""
    k, d = inp.field, inp.field.degree
    autos = inp.automorphisms
    if autos is None:
        if d == 2:
            autos = [k.gen(), k.conj(k.gen())]
        else:
            raise UnsupportedField("no automorphisms supplied for a degree>2 field")
    powers = [_powers(k.one(), tau, d + 1) for tau in autos]
    if any(k.dot([k.from_rational(c) for c in k.minpoly], p) for p in powers):
        raise UnsupportedField("supplied automorphism image is not a root of minpoly")
    if len(autos) != d or len({tau.coords for tau in autos}) != d:
        raise UnsupportedField("need the full set of distinct automorphisms (Galois)")
    base = k.embeddings()[inp.phi[0] - 1]
    by_emb = {k.roots.locate(lambda w, t=p[1]: t.enclosure(base, w)) + 1: p[:d] for p in powers}
    if len(by_emb) != d:
        raise UnsupportedField("automorphisms do not separate the embeddings")
    a_t = FieldMatrix(rationals(), [a.coords for a in inp.basis]).transpose()
    t = a_t.transpose() * FieldMatrix(rationals(), k.trace_gram) * a_t
    r_phi = FieldMatrix(k, [by_emb[idx] for idx in inp.phi]) * a_t.lift(k)
    n = (t.inverse().lift(k) * r_phi.transpose() * r_phi).scale(2)
    return n - FieldMatrix.identity(k, d)


def cm_torus(inp: CmInput):
    """Build the CM torus: (ComplexTorusData, E, G) with E, G rational.

    E_kl = Tr(beta a_k conj(a_l)) is the Riemann form, X_beta T0 conj(A)^T
    (rows of X_y: the coordinates of y a_k; T0 = (Tr(x^(i+j)))); G, with
    -beta^2 for beta, the rational Kahler metric; I = i N the complex
    structure, N = 2 T^-1 R_Phi^T R_Phi - Id (`_period_n`), whose d^2 entries
    are conj-antifixed, so F and the values of I are read in K
    (`_real_value_field`).
    The input checks (conj is complex conjugation and conj(beta) = -beta,
    so -beta^2 is totally positive) make E antisymmetric and G = E M_beta
    symmetric, positive definite and, with E, I-compatible, so none of these
    is checked again here.
    """
    inp.validate()
    if inp.beta is None:
        raise BetaNotAdmissible("cm_torus needs beta")
    k, qq = inp.field, rationals()
    d = k.degree
    conj_a = FieldMatrix(qq, [k.conj(a).coords for a in inp.basis]).transpose()
    gram = FieldMatrix(qq, k.trace_gram) * conj_a
    e_m, g_m = (
        FieldMatrix(qq, [(x * a).coords for a in inp.basis]) * gram
        for x in (inp.beta, -(inp.beta * inp.beta))
    )
    n_k = _period_n(inp)
    base = k.embeddings()[inp.phi[0] - 1]
    f, femb, values = _real_value_field(base, [x for row in n_k.entries for x in row])
    i_f = FieldMatrix(f, [values[i * d : i * d + d] for i in range(d)])
    return ComplexTorusData(d // 2, f, i_f, femb), e_m, g_m


# ---------------------------------------------------------------------------
# find_beta


def find_beta(k: NumberField, basis, phi, budget: int) -> FieldElement:
    """First admissible beta among small integer combinations of the
    conj-antisymmetric parts of the basis, ordered by (max|coeff|, lex)."""
    inp = CmInput(k, list(basis), list(phi))
    inp.validate()
    span = [b.coords for b in basis]
    parts = []
    for a in basis:
        v = a - k.conj(a)
        if v.is_zero():
            continue
        half = k.element([c / 2 for c in v.coords])
        (x,) = _coordinates(span, [half.coords])  # the basis spans K
        use = half if all(c.denominator == 1 for c in x) else v
        if any(use == p or use == -p for p in parts):
            continue
        parts.append(use)
    if not parts:
        raise NotFoundWithinBudget("basis has no conj-antisymmetric part")
    shells = (_shell(len(parts), m) for m in range(1, budget + 1))
    for c in itertools.chain.from_iterable(shells):
        beta = _combine(k.zero(), c, parts)
        try:
            inp.check_beta(beta)
            return beta
        except BetaNotAdmissible:
            continue
    raise NotFoundWithinBudget(f"no admissible beta with coordinates up to {budget}")


def _shell(n: int, m: int):
    """Integer n-tuples with max |c| == m, lazily and in lexicographic order."""
    for x in range(-m, m + 1):
        if abs(x) == m:
            rests = itertools.product(range(-m, m + 1), repeat=n - 1)
        else:
            rests = _shell(n - 1, m) if n > 1 else ()
        for rest in rests:
            yield (x,) + rest


# ---------------------------------------------------------------------------
# Endomorphism algebra and certificates


def endomorphism_algebra(t: ComplexTorusData) -> EndAlgebra:
    """End^0(T), computed once per torus (`ComplexTorusData.end`)."""
    return t.end


@dataclass
class CmVerdict:
    verdict: str  # "CM" | "NotCM" | "Inconclusive"
    witness: FieldMatrix | None
    minpoly: tuple | None
    end_dim: int


def _seeded_search(basis, extra, coeff, trials: int, accept):
    """(m, accept(m)) for the first nonzero m with accept(m) truthy among the
    first max(trials, 0) candidates, else (None, None): the basis, `extra`,
    then combinations of the basis with coefficients drawn by coeff().  A
    one-element basis gets no draws: each would be a multiple of it."""
    zero = FieldMatrix.zeros(basis[0].field, basis[0].rows, basis[0].cols)
    draws = (_combine(zero, [coeff() for _ in basis], basis) for _ in itertools.count())
    draws = draws if len(basis) > 1 else ()
    for m in itertools.islice(itertools.chain(basis, extra, draws), max(trials, 0)):
        got = None if m.is_zero() else accept(m)
        if got:
            return m, got
    return None, None


def cm_certificate(t: ComplexTorusData, trials: int = 64, seed: int = 0) -> CmVerdict:
    """One-sided CM certificate search per the endomorphism criterion.

    CM: a rational endomorphism with squarefree minimal polynomial of
    degree 2g.  NotCM: only by the dimension obstruction dim End < 2g.
    Anything else is Inconclusive after `trials` candidates: the basis of
    End, then seeded combinations with coefficients in [-3, 3].
    """
    end = endomorphism_algebra(t)
    n = 2 * t.g
    if end.dim < n:
        return CmVerdict("NotCM", None, None, end.dim)

    def certificate(m):
        mp = matrix_minpoly(m)
        return mp if polyq.degree(mp) == n and polyq.is_squarefree(mp) else None

    rng = random.Random(seed)
    m, mp = _seeded_search(end.basis, (), lambda: rng.randint(-3, 3), trials, certificate)
    return CmVerdict("Inconclusive" if m is None else "CM", m, mp, end.dim)


def rational_kahler_search(t: ComplexTorusData, trials: int = 200, seed: int = 0):
    """Search the rational solution space of {G = G^T, I^T G I = G} for a
    positive definite element.

    Since I^-1 = -I, I^T G I = G is G I = -I^T G: the space is the kernel
    of G -> G I + I^T G over the upper-triangular unknowns G[a, b], a <= b.
    Returns (G or None, solution_space_dimension).  Sampling: the basis,
    (Id + I^T I) / 2 if I is rational (a positive definite solution), the
    basis's sum, then seeded coefficients with numerators in [-8, 8] and
    denominators in [1, 8].  On a line Q.b, b and -b decide the question.
    """
    n = 2 * t.g
    qq = rationals()
    index = {u: c for c, u in enumerate((i, j) for i in range(n) for j in range(i, n))}

    def col(a, b):
        return index[(a, b) if a <= b else (b, a)]

    ker = _rational_solutions(t, -t.I.transpose(), col, len(index))
    if not ker:
        return None, 0
    basis = [
        FieldMatrix(qq, [[flat[col(i, j)] for j in range(n)] for i in range(n)]) for flat in ker
    ]
    i_q = [FieldMatrix(qq, t.I.rational_entries())] if t.I.is_rational() else []
    sym = [(FieldMatrix.identity(qq, n) + i.transpose() * i).scale(Fraction(1, 2)) for i in i_q]
    rng = random.Random(seed)
    g, _ = _seeded_search(
        basis,
        sym + [sum(basis[1:], basis[0]) if len(basis) > 1 else -basis[0]],
        lambda: Fraction(rng.randint(-8, 8), rng.randint(1, 8)),
        trials,
        lambda g: positive_definite(g, qq.embeddings()[0]),
    )
    return g, len(ker)


# ---------------------------------------------------------------------------
# Eta checks: the metric-induced involution against the Rosati involution


@dataclass
class EtaReport:
    eta: FieldMatrix
    commutes_with_i: bool
    rosati_antisymmetric: bool
    involutions_conjugate: bool

    @property
    def passed(self) -> bool:
        return self.commutes_with_i and self.rosati_antisymmetric and self.involutions_conjugate


def check_polarization(t: ComplexTorusData, omega: FieldMatrix) -> FieldMatrix:
    """omega^-1, once omega is checked as a polarization of t: 2g x 2g,
    antisymmetric, nonsingular and I-compatible (I^T omega I = omega)."""
    if (omega.rows, omega.cols) != (2 * t.g, 2 * t.g):
        raise IncompatiblePolarization("polarization is not 2g x 2g")
    if not omega.is_antisymmetric():
        raise IncompatiblePolarization("polarization is not antisymmetric")
    try:
        om_inv = omega.inverse()
    except Singular:
        raise IncompatiblePolarization("polarization is singular")
    om_f = omega.lift(t.field)
    if t.I.transpose() * om_f * t.I != om_f:
        raise IncompatiblePolarization("polarization is not I-compatible")
    return om_inv


def eta_checks(
    t: ComplexTorusData, g_m: FieldMatrix, omega0: FieldMatrix, end: EndAlgebra
) -> EtaReport:
    """Checks (i), (ii), (iv) for eta defined by G(.,.) = omega0(eta., .);
    (iv) always holds: eta = -omega0^-1 G gives eta^-1 rosati(f) eta = G^-1 f^T G."""
    om_inv = check_polarization(t, omega0)
    if not g_m.is_symmetric():
        raise ValueError("G must be symmetric")
    eta = (g_m * om_inv).transpose()
    eta_f = eta.lift(t.field)
    commutes = eta_f * t.I == t.I * eta_f

    def rosati(f):
        return om_inv * f.transpose() * omega0

    anti = rosati(eta) == -eta
    g_inv = g_m.inverse()
    eta_inv = eta.inverse()
    conj_ok = all(g_inv * f.transpose() * g_m == eta_inv * rosati(f) * eta for f in end.basis)
    return EtaReport(eta, commutes, anti, conj_ok)


# ---------------------------------------------------------------------------
# Simplicity criterion


def simplicity_check(inp: CmInput, subfield_data) -> bool:
    """False iff some supplied proper subfield satisfies the two obstruction
    conditions (purely complex quadratic over its real part, and Phi-
    restriction collapse); True otherwise."""
    inp.validate()
    k = inp.field
    embs = k.embeddings()
    phi_embs = [embs[i - 1] for i in inp.phi]
    for u in subfield_data:
        if not isinstance(u, FieldElement) or u.field != k:
            raise SubfieldDataNotClosed("subfield generator is not an element of K")
        basis_l = _powers(k.one(), u, polyq.degree(element_minpoly(u)))
        l_dim = len(basis_l)
        if l_dim in (1, k.degree):
            continue  # Q itself or not proper
        conj_l = [k.conj(b).coords for b in basis_l]
        if _coordinates([b.coords for b in basis_l], conj_l) is None:
            continue  # conj leaves it: not complex quadratic over its real part
        fixed = _fixed_subbasis(k, basis_l)
        if l_dim != 2 * len(fixed):
            continue  # not quadratic over L cap K0
        collapse = True
        for ea, eb in itertools.combinations(phi_embs, 2):
            agree_k0 = all(_values_equal(x, ea, eb) for x in fixed)
            if agree_k0:
                agree_l = all(_values_equal(x, ea, eb) for x in basis_l)
                if not agree_l:
                    collapse = False
                    break
        if collapse:
            return False
    return True


def _fixed_subbasis(k: NumberField, basis_l):
    """Basis of the conj-fixed subspace of span(basis_l): the kernel of
    c -> sum c_i (conj(b_i) - b_i)."""
    ker = rational_kernel(FieldMatrix(k, [[k.conj(b) - b for b in basis_l]]))
    return [_combine(k.zero(), coeffs, basis_l) for coeffs in ker]


def _values_equal(x: FieldElement, ea: Embedding, eb: Embedding) -> bool:
    """Exact equality of sigma_a(x) and sigma_b(x) via root enclosures."""
    mp = element_minpoly(x)
    if polyq.degree(mp) == 1:
        return True
    roots = RootSet(mp)
    at_a = roots.locate(lambda w: x.enclosure(ea, w))
    return at_a == roots.locate(lambda w: x.enclosure(eb, w))
