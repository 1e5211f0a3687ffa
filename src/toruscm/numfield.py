"""Exact arithmetic in Q[x]/(m(x)) with certified complex embeddings.

A field is given by a monic squarefree integer polynomial; an element is its
integer power-basis numerators over one denominator, in lowest terms, and
products go through one kernel, `NumberField.dot`.  An inverse solves y u = 1
on the integer matrix of multiplication by y, by exactla's one row reduction;
the trace reads the same matrix.  `make_field` also accepts a reducible
squarefree m, whose algebra has zero divisors: inverting one raises
`ZeroDivisor`.  `require_irreducible`, run on the field of every torus document
and CM input, raises `ReducibleMinpoly` for such an m.  Embeddings are
certified complex enclosures of the roots of m: real roots isolated by the
counts of one Sturm chain, then refined and tested by exact signs; complex
roots by interval-Newton certification of dyadic boxes seeded with
Durand-Kerner approximations, or else by exact counts.  Boxes are evaluated in
outward-rounded fixed point (:mod:`toruscm.boxes`) and exact points exactly.
No floating-point value ever decides anything; floats only pick where to *try*
a certificate.

`RootSet` holds the isolated boxes of one squarefree polynomial and is the
single place that decides which root a value is (`locate`) and whether a
polynomial vanishes at a root (`vanishes_at`); it backs the embeddings of a
`NumberField`, which refine only on demand, and the factor extraction in
`minpoly_factor_at`.  The loops that wait for a certificate (`locate`,
`vanishes_at` at a complex root, the factor candidates of `minpoly_factor_at`
and the sign test behind `exact_sign`) stop after `MAX_ROUNDS` rounds and
raise `NotConverged`.  Isolation and refinement never raise it: where Newton has
no proof, `_root_count` counts the roots in a rectangle exactly (the
argument principle) and picks the half that keeps the root.  Refinement
leaves an exact-point box as it is.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from . import polyq
from .boxes import Box, Iv, newton_step, poly_eval_box, root_product


class NotSquarefree(ValueError):
    pass


class ConjNotAutomorphism(ValueError):
    pass


class ConjNotInvolution(ValueError):
    pass


class NotRealUnderEmbedding(ValueError):
    pass


class ZeroDivisor(ArithmeticError):
    """Division by an element that is not invertible mod the minpoly."""


class ReducibleMinpoly(ValueError):
    """A document's minpoly is reducible, so Q[x]/(m) is not a field."""


class NotConverged(ArithmeticError):
    """A certificate was not reached within `MAX_ROUNDS` refinement rounds."""


# rounds of a refine-and-retry loop before it gives up; each round at least
# halves a box or an enclosure width
MAX_ROUNDS = 400

# ---------------------------------------------------------------------------
# Root isolation


def _durand_kerner(p, iters=400):
    """Float approximations to all roots of a squarefree polynomial.

    Returns None when the coefficients overflow floats; callers fall back
    to exact subdivision.
    """
    d = polyq.degree(p)
    try:
        cs = [complex(c) / complex(p[-1]) for c in p]
        if not all(cmath.isfinite(x) for x in cs):
            return None
    except (OverflowError, ValueError):
        return None
    zs = [(0.4 + 0.9j) ** k for k in range(1, d + 1)]
    for _ in range(iters):
        moved = 0.0
        for i in range(d):
            num = 0j
            for c in reversed(cs):
                num = num * zs[i] + c
            den = 1 + 0j
            for j in range(d):
                if j != i:
                    den *= zs[i] - zs[j]
            if den == 0:
                den = 1e-30
            step = num / den
            zs[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    return zs


def _certify(p, dp, box: Box) -> Box | None:
    """Interval-Newton proof that box contains exactly one root of p: the
    Newton image, inside the box and holding that root, or None."""
    if box.width() == 0:  # an exact point, evaluated exactly
        return box if poly_eval_box(p, box).contains_zero() else None
    n = newton_step(p, dp, box)
    return n if n is not None and n.inside(box) else None


def _newton_cut(p, dp, box: Box) -> Box | None:
    """The part of a box holding one root of p that a Newton step keeps, if
    it is at most 3/4 as wide (clipped to the box, so no neighbour gets in)."""
    n = newton_step(p, dp, box)
    cut = None if n is None else n.intersect(box)
    return cut if cut is not None and cut.width() <= box.width() * Fraction(3, 4) else None


def _refine_certified(p, dp, box: Box, width: Fraction) -> Box:
    """Shrink a box holding one root of p below `width` (Newton with
    bisection fallback)."""
    while box.width() >= width:
        box = _newton_cut(p, dp, box) or _bisect_certified(p, dp, box)
    return box


def _bisect_certified(p, dp, box: Box) -> Box:
    """A strict half of a box holding one root of p that keeps the root: a
    half of the midpoint cut that interval Newton certifies, else the half
    that the exact count gives the root."""
    for h in _halves(box, Fraction(1, 2)):
        if _certify(p, dp, h) is not None:
            return h
    low, high, n = _cut(p, box)
    return high if n == 0 else low


def _halves(box: Box, frac: Fraction) -> tuple[Box, Box]:
    """The two parts of a box cut across its wider side at `frac` of it."""
    if box.re.width() >= box.im.width():
        m = box.re.lo + box.re.width() * frac
        return Box(Iv(box.re.lo, m), box.im), Box(Iv(m, box.re.hi), box.im)
    m = box.im.lo + box.im.width() * frac
    return Box(box.re, Iv(box.im.lo, m)), Box(box.re, Iv(m, box.im.hi))


def _cut(p, box: Box):
    """(low, high, count of low) for the first cut at k/(2k + 1), k = 1 ..
    d + 1, with no root on low's boundary.  One of these d + 1 lines misses
    the d roots, so the count is None only when a root lies on the part of
    the box's boundary that every low part shares (and keeps)."""
    for k in range(1, polyq.degree(p) + 2):
        low, high = _halves(box, Fraction(k, 2 * k + 1))
        n = _root_count(p, low)
        if n is not None:
            break
    return low, high, n


def _root_count(p, box: Box) -> int | None:
    """Number of roots of squarefree p in the open box, or None when p
    vanishes on its boundary (the argument principle; Wilf, J. ACM 25 (1978)).

    On each edge a -> b, counterclockwise, p(a + t (b - a)) = U(t) + i V(t);
    the count is minus half the sum of the Cauchy indices of V/U on [0, 1],
    and a root on the edge is a root of the squarefree gcd(U, V) in [0, 1].
    """
    re, im = box.re, box.im
    corners = [(re.lo, im.lo), (re.hi, im.lo), (re.hi, im.hi), (re.lo, im.hi)]
    index = 0
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        x, y = polyq.poly([x0, x1 - x0]), polyq.poly([y0, y1 - y0])
        u = v = ()
        for c in reversed(p):  # Horner: (u + iv)(x + iy) + c
            u, v = (
                polyq.psub(polyq.pmul(u, x), polyq.psub(polyq.pmul(v, y), (c,))),
                polyq.psub(polyq.pmul(u, y), polyq.pneg(polyq.pmul(v, x))),
            )
        chain = polyq.sturm_chain(u, v)
        gcd = polyq.sturm_chain(chain[-1])
        if polyq.variations(gcd, 0) != polyq.variations(gcd, 1):
            return None
        index += polyq.variations(chain, 0) - polyq.variations(chain, 1)
    return -index // 4  # `variations` counts twice


def _refine_box_once(p, dp, box: Box) -> Box:
    if box.width() == 0:
        return box  # an exact point cannot shrink further
    # Newton first (a real box has a real image); real boxes fall back to an
    # exact sign bisection, so they never need a Sturm chain after isolation
    if box.im.lo == box.im.hi == 0:
        return _newton_cut(p, dp, box) or _bisect_real(p, box)
    return _refine_certified(p, dp, box, box.width() / 2)


def _bisect_real(p, box: Box) -> Box:
    """Half of a real isolating box that keeps the root, by exact signs
    (interval evaluation can allow zero on both halves near a close root)."""
    lo, m = box.re.lo, box.re.mid()
    at_lo, at_m = polyq.peval(p, lo), polyq.peval(p, m)
    if at_lo == 0:
        return Box.point(lo)
    if at_m == 0:
        return Box.point(m)
    if (at_lo > 0) != (at_m > 0):
        return Box(Iv(lo, m), Iv.point(0))
    return Box(Iv(m, box.re.hi), Iv.point(0))


def _merge_close(zs, tol=1e-9):
    out = []
    for z in zs:
        if out and abs(z - out[-1]) < tol:
            continue
        out.append(z)
    return out


def _min_separation(approx, reals):
    pts = list(approx) + [z.conjugate() for z in approx]
    pts += [complex(b.re.mid()) for b in reals]
    best = 1.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            best = min(best, abs(pts[i] - pts[j]))
    return max(best, 1e-12)


def _certify_around(p, dp, z: complex, sep: float) -> Box | None:
    """A certified box around the float root z, on the dyadic grid: centre
    rounded to 2^-48, radius the powers of two from the largest <= sep/3."""
    re, im = (Fraction(round(Fraction(x) * (1 << 48)), 1 << 48) for x in (z.real, z.imag))
    r = Fraction(2) ** (math.frexp(sep / 3)[1] - 1)
    for _ in range(14):
        n = _certify(p, dp, Box(Iv(re - r, re + r), Iv(im - r, im + r)))
        if n is not None:
            return _refine_certified(p, dp, n, Fraction(1, 1 << 16))
        r /= 2
    return None


def _subdivision_upper_roots(p, count):
    """Boxes strictly above the real axis, one per root with Im > 0: the
    Cauchy box above a floor y > 0, once it counts all `count` upper roots,
    split by counts.  Mahler's bound on sep(p) bounds the floor's halvings
    (Im a >= sep(p) / 2 for an upper root a) and the splits' depth (a box
    with two roots is at least sep(p) / 2 wide)."""
    bound = polyq.cauchy_bound(p)
    floor, n = bound, None
    while n != count:
        floor /= 2
        top = Box(Iv(-bound, bound), Iv(floor, bound))
        n = _root_count(p, top)
    found, queue = [], [(top, count)]
    while queue:
        box, n = queue.pop()
        if n == 1:
            found.append(box)
            continue
        low, high, k = _cut(p, box)  # box's boundary holds no root: k is a count
        queue += [(h, c) for h, c in ((low, k), (high, n - k)) if c]
    found.sort(key=lambda b: (b.re.mid(), b.im.mid()))
    return found


def _isolate_all_roots(p, dp):
    """Boxes for all roots of squarefree p, one root each.

    Returns (real_boxes, upper_boxes): real roots ascending, strictly
    complex roots with Im > 0 ordered by (re, im); the conjugate roots are
    the mirrored upper boxes.  Boxes may still overlap; `RootSet`
    separates them.
    """
    d = polyq.degree(p)
    reals = []
    for a, b in polyq.isolate_real_roots(p):
        box = Box(Iv(a, b), Iv.point(0))  # p changes sign across it: no end is a root
        while box.width() >= Fraction(1, 1 << 8):
            box = _bisect_real(p, box)
        reals.append(box)
    n_upper = (d - len(reals)) // 2
    uppers = []
    seeds = _durand_kerner(p) if n_upper else None
    if seeds is not None:
        approx = _merge_close(
            sorted((z for z in seeds if z.imag > 1e-9), key=lambda z: (z.real, z.imag))
        )
        if len(approx) == n_upper:
            sep = _min_separation(approx, reals)
            # sep <= 2 Im z, so each box lies strictly above the real axis
            uppers = [_certify_around(p, dp, z, sep) for z in approx]
    if len(uppers) < n_upper or None in uppers:
        return reals, _subdivision_upper_roots(p, n_upper)
    return reals, uppers


class RootSet:
    """Certified, pairwise-disjoint boxes for the roots of a squarefree
    rational polynomial.

    Roots are indexed from 0 in embedding order: real roots ascending, then
    each root with Im > 0 followed by its complex conjugate.
    """

    def __init__(self, p):
        self.poly = polyq.poly(p)
        self._dpoly = polyq.pderiv(self.poly)
        reals, uppers = _isolate_all_roots(self.poly, self._dpoly)
        self.nreal = len(reals)
        self.boxes = list(reals)
        for b in uppers:
            self.boxes += [b, b.conj()]
        while any(not a.disjoint(b) for a, b in itertools.combinations(self.boxes, 2)):
            for i in range(len(self.boxes)):
                if self.conj(i) >= i:  # a real or upper box; its conjugate follows
                    self.boxes[i] = _refine_box_once(self.poly, self._dpoly, self.boxes[i])
                    self.boxes[self.conj(i)] = self.boxes[i].conj()

    def is_real(self, i) -> bool:
        return i < self.nreal

    def conj(self, i) -> int:
        """Index of the complex conjugate of root i."""
        if self.is_real(i):
            return i
        return i + 1 if (i - self.nreal) % 2 == 0 else i - 1

    def refine(self, i, width) -> Box:
        """Shrink box i below `width`, or to an exact point; the conjugate's
        box follows along."""
        box = self.boxes[i]
        while box.width() >= width and box.width() > 0:
            box = _refine_box_once(self.poly, self._dpoly, box)
        self.boxes[i] = box
        j = self.conj(i)
        if self.boxes[j].width() > box.width():
            self.boxes[j] = box.conj()
        return box

    def locate(self, value_encloser) -> int:
        """Index of the root equal to a value known to be a root.

        `value_encloser(width)` returns a Box around the value; the answer
        is the only root whose box meets it.
        """
        width = Fraction(1, 1 << 16)
        for _ in range(MAX_ROUNDS):
            v = value_encloser(width)
            hits = [i for i, b in enumerate(self.boxes) if not b.disjoint(v)]
            if len(hits) == 1:
                return hits[0]
            width /= 1 << 4
            for i in range(len(self.boxes)):
                self.refine(i, width)
        raise NotConverged("value enclosure never met exactly one root box")

    def vanishes_at(self, g, i) -> bool:
        """Certified: does the rational polynomial g vanish at root i?"""
        g = polyq.pgcd(g, self.poly)  # roots of g outside this set cannot mislead
        if polyq.degree(g) < 1:
            return False
        if self.is_real(i):
            # root i is the only root of self.poly in [a, b] and g divides the
            # squarefree self.poly, so g(root i) = 0 exactly when g changes
            # sign across [a, b] or vanishes at an end
            box = self.boxes[i]
            return polyq.peval(g, box.re.lo) * polyq.peval(g, box.re.hi) <= 0
        dg = polyq.pderiv(g)
        for _ in range(MAX_ROUNDS):
            box = self.boxes[i]
            if not poly_eval_box(g, box).contains_zero():
                return False
            if _certify(g, dg, box) is not None:  # also settles an exact-point box
                return True
            self.refine(i, box.width() / 2)
        raise NotConverged("root membership test did not converge")


# ---------------------------------------------------------------------------
# Field, element, embedding


class Embedding:
    """A certified complex embedding: a view on one root of the field's
    `RootSet`."""

    def __init__(self, field, roots: RootSet, i):
        self.field = field
        self.roots = roots
        self.index = i + 1  # 1-based
        self.is_real = roots.is_real(i)
        self.conj_index = None if self.is_real else roots.conj(i) + 1

    def enclosure(self, width=None) -> Box:
        if width is not None:
            self.refine(width)
        return self.roots.boxes[self.index - 1]

    def refine(self, width) -> Box:
        return self.roots.refine(self.index - 1, width)

    def __repr__(self):
        return f"Embedding(#{self.index}, ~{self.enclosure().approx():.6g}, real={self.is_real})"


class NumberField:
    """Q[x]/(m) for monic squarefree integer m, with optional conjugation."""

    def __init__(self, minpoly, conj_image=None):
        m = polyq.poly(minpoly)
        if polyq.degree(m) < 1:
            raise ValueError("minpoly must have degree >= 1")
        if m[-1] != 1:
            raise ValueError("minpoly must be monic")
        if any(c.denominator != 1 for c in m):
            raise ValueError("minpoly must have integer coefficients")
        if not polyq.is_squarefree(m):
            raise NotSquarefree("gcd(m, m') is not constant")
        self.minpoly = m
        self.degree = polyq.degree(m)
        self._red = [tuple(-c.numerator for c in m[:-1])]  # x^d mod m, for `_mul_columns`
        self._red = self._mul_columns(self._red[0])  # x^d .. x^(2d - 1) mod m
        self._embeddings = None
        self._roots = None
        self.conj_image = None
        self._conj_powers = None
        if conj_image is not None:
            img = self.element(conj_image)
            if self.evaluate(self.minpoly, img):
                raise ConjNotAutomorphism("minpoly(conj_image) != 0 mod minpoly")
            self._conj_powers = _powers(self.one(), img, self.degree)
            if self.conj(img) != self.gen():
                raise ConjNotInvolution("conj(conj(x)) != x")
            self.conj_image = img.coords

    # -- internal ------------------------------------------------------------

    def _reduce(self, raw):
        """Coordinates of a length-(2d - 1) integer coefficient list mod m."""
        d = self.degree
        out = raw[:d]
        for k in range(d, len(raw)):
            c = raw[k]
            if c:
                row = self._red[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return out

    def _mul_columns(self, num):
        """Integer coordinates of y x^k mod m for k < d, where y has the
        numerators `num` over 1: the columns of the matrix of multiplication
        by y."""
        top = self._red[0]  # x^d
        cols = [tuple(num)]
        for _ in range(self.degree - 1):
            c = cols[-1]
            cols.append(tuple(a + c[-1] * t for a, t in zip((0,) + c[:-1], top)))
        return cols

    # -- public --------------------------------------------------------------

    def dot(self, xs, ys) -> "FieldElement":
        """sum(x * y for x, y in zip(xs, ys)), the one product kernel: the
        unreduced integer numerator products, skipping zeros, summed over one
        running common denominator, then reduced mod m and by one gcd once.
        The empty sum is zero."""
        raw = [0] * (2 * self.degree - 1)
        den = 1
        for x, y in zip(xs, ys):
            q = x.den * y.den
            f = den // q
            if f * q != den:  # den becomes lcm(den, q)
                s = q // math.gcd(den, q)
                raw = [r * s for r in raw]
                den *= s
                f = den // q
            for i, a in enumerate(x.num):
                if a:
                    a *= f
                    for j, c in enumerate(y.num, i):
                        if c:
                            raw[j] += a * c
        return FieldElement(self, self._reduce(raw), den)

    def evaluate(self, p, x: "FieldElement") -> "FieldElement":
        """p(x) for a rational polynomial p (ascending coefficients)."""
        return self.dot([self.from_rational(c) for c in p], _powers(self.one(), x, len(p)))

    def element(self, coords) -> "FieldElement":
        """The element with these power-basis coordinates (rationals, as in
        `from_rational`; missing trailing ones are zero)."""
        pairs = [_rational_pair(c) for c in coords]
        if len(pairs) > self.degree:
            raise ValueError("coordinate vector too long")
        den = math.lcm(*(q for _, q in pairs))
        num = [n * (den // q) for n, q in pairs] + [0] * (self.degree - len(pairs))
        return FieldElement(self, num, den)

    def from_rational(self, r) -> "FieldElement":
        """r (an int, a Fraction or a rational string) as an element."""
        n, q = _rational_pair(r)
        return FieldElement(self, (n,) + (0,) * (self.degree - 1), q)

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def gen(self) -> "FieldElement":
        return self.element([-self.minpoly[0]] if self.degree == 1 else [0, 1])

    @property
    def has_conj(self) -> bool:
        return self.conj_image is not None

    def conj(self, x: "FieldElement") -> "FieldElement":
        if self._conj_powers is None:
            raise ValueError("field has no conjugation")
        return self.dot([self.from_rational(n) for n in x.num], self._conj_powers) / x.den

    def embeddings(self, width=None):
        if self._embeddings is None:
            self._roots = RootSet(self.minpoly)
            self._embeddings = [Embedding(self, self._roots, i) for i in range(self.degree)]
        if width is not None:
            for e in self._embeddings:
                e.refine(width)
        return self._embeddings

    @property
    def roots(self) -> RootSet:
        """The certified root boxes of the minpoly that back `embeddings()`."""
        self.embeddings()
        return self._roots

    def real_embeddings(self):
        return [e for e in self.embeddings() if e.is_real]

    def __eq__(self, other):
        return other is self or (
            isinstance(other, NumberField)
            and self.minpoly == other.minpoly
            and self.conj_image == other.conj_image
        )

    def __hash__(self):
        return hash((self.minpoly, self.conj_image))

    def __repr__(self):
        return f"NumberField(deg {self.degree}, m={[str(c) for c in self.minpoly]})"


_QQ = None


def rationals() -> NumberField:
    """The degree-1 field Q as Q[x]/(x), with trivial conjugation."""
    global _QQ
    if _QQ is None:
        _QQ = NumberField([0, 1], conj_image=[0])
    return _QQ


def _rational_pair(r):
    """(numerator, denominator > 0) of an int, a Fraction or a rational
    string; a float (0.1 is not 1/10) or a bool raises TypeError."""
    if isinstance(r, str):
        r = Fraction(r)
    elif isinstance(r, bool) or not isinstance(r, (int, Fraction)):
        raise TypeError(f"a rational is an int, a Fraction or a string, not {type(r).__name__}")
    return r.numerator, r.denominator


def _powers(one, x, n):
    """[x^0, .., x^(n-1)] with x^0 = one: elements, or square matrices."""
    out = [one]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


class FieldElement:
    """num / den: integer power-basis numerators over one denominator, in
    canonical form (den >= 1, gcd(den, *num) == 1), so equal elements have
    equal (num, den) and zero is (0, .., 0) / 1.  Only this module builds
    elements from (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den: int):
        g = math.gcd(den, *num)  # den > 0
        self.field = field
        self.num = tuple(num) if g == 1 else tuple(n // g for n in num)
        self.den = den // g

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates, as Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def _co(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other
        return self.field.from_rational(other)

    def _add(self, o, sign):
        """self + sign * o."""
        a, b = (1, 1) if self.den == o.den else (self.den, o.den)
        num = [x * b + sign * y * a for x, y in zip(self.num, o.num)]
        return FieldElement(self.field, num, self.den * b)

    def __add__(self, o):
        return self._add(self._co(o), 1)

    __radd__ = __add__

    def __sub__(self, o):
        return self._add(self._co(o), -1)

    def __rsub__(self, o):
        return self._co(o) - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, o):
        o = self._co(o)
        if o.is_rational():  # a scaling
            return FieldElement(self.field, [x * o.num[0] for x in self.num], self.den * o.den)
        return self.field.dot((self,), (o,))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """den / y for y = num / 1, where y u = 1 is the integer system
        [M | -e_0] (M the matrix of multiplication by y), solved by the one
        row reduction: its kernel is the single row (u, 1) exactly when y is
        a unit."""
        n = self.num[0]
        if n and self.is_rational():  # swap numerator and denominator
            return self.field.from_rational(Fraction(self.den, n))
        from .exactla import kernel_rows  # exactla imports this module

        d = self.field.degree
        rows = zip(*self.field._mul_columns(self.num))
        ker = kernel_rows([[*r, -1 if i == 0 else 0] for i, r in enumerate(rows)], d + 1)
        if len(ker) != 1 or ker[0][d] != 1:
            raise ZeroDivisor("element shares a factor with the minpoly")
        return self.field.element(ker[0][:d]) * self.den

    def __truediv__(self, o):
        return self * self._co(o).inverse()

    def __rtruediv__(self, o):
        return self._co(o) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            return self.den == o.denominator and self.num[0] == o.numerator and self.is_rational()
        same = isinstance(o, FieldElement) and self.field == o.field
        return same and (self.num, self.den) == (o.num, o.den)

    def __hash__(self):  # a rational element hashes as the value it equals
        return hash(self.as_rational() if self.is_rational() else (self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def conj(self) -> "FieldElement":
        return self.field.conj(self)

    def enclosure(self, emb: Embedding, width=None) -> Box:
        return poly_eval_box(self.coords, emb.enclosure(width))

    def __repr__(self):
        return f"FieldElement({[str(c) for c in self.coords]})"


# ---------------------------------------------------------------------------
# Spec operations


def make_field(minpoly, conj_image=None) -> NumberField:
    """Build a number field, verifying squarefreeness and the conjugation."""
    return NumberField(minpoly, conj_image)


def embeddings(field: NumberField, width):
    """All d embeddings with enclosures refined below `width`."""
    return field.embeddings(Fraction(width))


def rational_part(x: FieldElement):
    """Split x into (rational, remainder with zero constant coordinate)."""
    return Fraction(x.num[0], x.den), FieldElement(x.field, (0,) + x.num[1:], x.den)


def trace_q(x: FieldElement) -> Fraction:
    """Tr_{K/Q}(x): the diagonal sum of the matrix of multiplication by x."""
    cols = x.field._mul_columns(x.num)
    return Fraction(sum(c[k] for k, c in enumerate(cols)), x.den)


def _is_real_under(x: FieldElement, emb: Embedding) -> bool:
    if emb.is_real:
        return True
    f = x.field
    if f.has_conj:
        diff = f.conj(x) - x  # image is -2i Im(sigma(x))
        return _image_is_zero(diff, emb)
    raise NotRealUnderEmbedding("cannot certify a real image without conj")


def _image_is_zero(x: FieldElement, emb: Embedding) -> bool:
    """Exact zero test for the image of x under one embedding."""
    return x.is_zero() or emb.roots.vanishes_at(polyq.poly(x.num), emb.index - 1)


def _nonzero_sign(x: FieldElement, emb: Embedding, part: str) -> int:
    """Sign of one part ("re" or "im") of an image certified nonzero."""
    width = emb.enclosure().width()
    for _ in range(MAX_ROUNDS):
        s = getattr(x.enclosure(emb), part).sign()
        if s:
            return s
        width /= 1 << 4
        emb.refine(width)
    raise NotConverged("sign of a nonzero image was not resolved")


def exact_sign(x: FieldElement, emb: Embedding) -> int:
    """Sign of the (real) image of x: an exact zero test first, then
    enclosures refined until the sign of the nonzero image shows."""
    if not _is_real_under(x, emb):
        raise NotRealUnderEmbedding("image of x is not real under this embedding")
    if _image_is_zero(x, emb):
        return 0
    return _nonzero_sign(x, emb, "re")


def exact_sign_imag(x: FieldElement, emb: Embedding) -> int:
    """Sign of Im(sigma(x)) for conj-antifixed x (purely imaginary image)."""
    f = x.field
    if f.has_conj and not (f.conj(x) + x).is_zero():
        raise NotRealUnderEmbedding("image of x is not purely imaginary")
    if _image_is_zero(x, emb):
        return 0
    return _nonzero_sign(x, emb, "im")


# ---------------------------------------------------------------------------
# Small-degree exact factor extraction (trial factorization via certified
# enclosures; the cm module uses it to get minimal polynomials of values).


def minpoly_factor_at(mp, value_encloser):
    """Monic rational irreducible factor of mp whose root is the given value.

    `mp` is monic squarefree rational; `value_encloser(width)` returns a Box
    around the target value.  Locates the value's root among certified
    enclosures, then tries conjugation-closed root subsets in ascending
    size; candidate coefficients come from interval products and are
    verified by exact polynomial division, so the answer is exact.
    """
    roots = RootSet(mp)
    return _factor_at(roots, roots.locate(value_encloser))


def require_irreducible(emb: Embedding) -> None:
    """Raise ReducibleMinpoly unless the field's minpoly is its own factor
    at the root that `emb` picks, i.e. unless Q[x]/(m) is a field."""
    m = emb.field.minpoly
    if _factor_at(emb.roots, emb.index - 1) != m:
        raise ReducibleMinpoly(f"minpoly {[str(c) for c in m]} is reducible over Q")


def _factor_at(roots: RootSet, target: int):
    """The factor of `minpoly_factor_at` for root `target` of `roots`."""
    mp = roots.poly
    d = polyq.degree(mp)
    den = math.lcm(*[c.denominator for c in mp])
    den_bound = den**d  # factor coefficient denominators divide this (Gauss)
    for size in range(1, d + 1):
        for subset in itertools.combinations(range(d), size):
            ss = set(subset)
            if target not in ss or {roots.conj(i) for i in ss} != ss:
                continue
            cand = _candidate_factor(roots, subset, den_bound, target)
            if cand is not None:
                return cand
    raise AssertionError("no factor found")


def _candidate_factor(roots: RootSet, subset, den_bound, target):
    """Try to certify prod_{i in subset} (x - root_i) as an exact factor.

    Candidates are rounded from coefficient intervals and confirmed by
    exact polynomial division plus a certified check that the target root
    vanishes, so coarse intervals are safe.  The subset is rejected when a
    coefficient box holds no rational of bounded denominator, or when a
    failed division comes at the guaranteed uniqueness width.
    """
    unique_width = Fraction(1, 2 * den_bound * den_bound)
    for _ in range(MAX_ROUNDS):
        coeffs = root_product([roots.boxes[i] for i in subset])
        cand = []
        for cbox in coeffs[:-1]:
            # limit_denominator returns the closest bounded-denominator
            # rational, so a miss rules out every such rational in the box
            r = cbox.re.mid().limit_denominator(den_bound)
            if not (cbox.im.contains_zero() and cbox.re.contains(r)):
                return None  # a factor has such rational coefficients
            cand.append(r)
        candidate = polyq.poly(cand + [Fraction(1)])
        if polyq.is_zero(polyq.pmod(roots.poly, candidate)) and roots.vanishes_at(
            candidate, target
        ):
            return candidate
        if all(c.re.width() < unique_width for c in coeffs):
            # intervals this tight pin the only possible rational factor
            return None
        for i in subset:
            roots.refine(i, roots.boxes[i].width() / 2)
    raise NotConverged("factor candidate refinement did not converge")
