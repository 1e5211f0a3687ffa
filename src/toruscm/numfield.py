"""L1: exact arithmetic in Q[x]/(m(x)) with certified complex embeddings.

A field is given by a monic squarefree integer polynomial; an element is its
integer power-basis numerators over one denominator, in lowest terms.
Element products go through one kernel, `NumberField.dot`, and the integer
blocks of exactla's matrices through another, `NumberField.matmul`, integer
for a rational left block.  An inverse solves y u = 1 on the integer matrix of
multiplication by y, by exactla's one row reduction; the trace reads it too.
`make_field` also accepts a reducible squarefree m, whose algebra has zero
divisors: inverting one raises `ZeroDivisor`, and `require_irreducible`
(every torus document and CM input) raises `ReducibleMinpoly`.  An embedding
is a view on one root of the field's `RootSet` (L0, :mod:`toruscm.polyq`),
refined on demand.  A rational signs itself; any other sign is an exact zero
test, then enclosures refined until it shows.  No float decides anything.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
from operator import add, lshift, mul

from . import polyq
from .boxes import Box, poly_eval_box
from .polyq import MAX_ROUNDS, NotConverged, RootSet, _factor_at


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
        m = polyq.poly([Fraction(*_rational_pair(c)) for c in minpoly])
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
        """sum(x * y for x, y in zip(xs, ys)), the one element product
        kernel: the unreduced integer numerator products, skipping zeros,
        summed over one running common denominator, then reduced mod m and by
        one gcd once.  The empty sum is zero.  (A packed product, as in
        `matmul`, costs more than this schoolbook sum for one element.)"""
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

    def matmul(self, a, b):
        """The numerator block of a * b for integer blocks a (r x n) and b
        (n x c), whose rows hold the d numerators of each entry in turn: the
        one block product kernel, zero-skipping (`_row_products`).  A rational
        a (any a over Q) is its numerators times b; another packs (Kronecker)
        a nonzero entry into one integer at 2^w, a zero one as 0, and reduces
        mod m once an output entry whose 2d - 1 slots (`_slot_bits` wide, read
        above an offset that makes them nonnegative) are not all zero."""
        d = self.degree
        if d == 1 or not any(any(row[k::d]) for k in range(1, d) for row in a):
            return tuple(map(tuple, _row_products(a if d == 1 else [row[::d] for row in a], b, 0)))
        bits = [max(map(abs, chain(*m)), default=0).bit_length() for m in (a, b)]
        w = _slot_bits(*bits, len(b) * d)
        slots = range(0, (2 * d - 1) * w, w)
        half, mask, zero = 1 << (w - 1), (1 << w) - 1, (0,) * d
        off = sum(half << s for s in slots)  # lifts every slot of a sum into [0, 2^w)

        def packed(m):
            return [[sum(map(lshift, e, slots)) if any(e) else 0 for e in zip(*[iter(row)] * d)]
                    for row in m]

        out = []
        for sums in _row_products(packed(a), packed(b), off):
            row = []
            for p in sums:  # p == off exactly when every slot is 0
                row += zero if p == off else self._reduce([(p >> s & mask) - half for s in slots])
            out.append(tuple(row))
        return tuple(out)

    def evaluate(self, p, x: "FieldElement") -> "FieldElement":
        """p(x) for a rational polynomial p (ascending coefficients)."""
        return self.dot([self.from_rational(c) for c in p], _powers(self.one(), x, len(p)))

    def element(self, coords) -> "FieldElement":
        """The element with these power-basis coordinates (rationals, as in
        `from_rational`; missing trailing ones are zero)."""
        return FieldElement(self, *self.numerators(list(coords)))

    def from_rational(self, r) -> "FieldElement":
        """r (an int, a Fraction or a rational string) as an element."""
        n, q = _rational_pair(r)
        return FieldElement(self, (n,) + (0,) * (self.degree - 1), q)

    def from_numerators(self, num, den: int) -> "FieldElement":
        """num / den for d integer numerators (one entry of an integer block)
        and den > 0."""
        return FieldElement(self, num, den)

    def numerators(self, x):
        """(numerators, den) of x by the one coercion rule: an element of this
        field, or of an equal one, as it is; a rational as `from_rational`
        takes it; a list of rational power-basis coordinates (missing
        trailing ones zero) as `element` takes it; an element of another
        field raises ValueError."""
        if type(x) is int:  # not a bool
            return (x,) + (0,) * (self.degree - 1), 1
        if isinstance(x, FieldElement):
            if x.field is self or x.field == self:
                return x.num, x.den
            raise ValueError("field mismatch")
        if not isinstance(x, list):
            n, q = _rational_pair(x)
            return (n,) + (0,) * (self.degree - 1), q
        pairs = [_rational_pair(c) for c in x]
        if len(pairs) > self.degree:
            raise ValueError("coordinate vector too long")
        den = math.lcm(*(q for _, q in pairs))
        return tuple([n * (den // q) for n, q in pairs] + [0] * (self.degree - len(pairs))), den

    def coerce(self, x) -> "FieldElement":
        """x as an element of this field, by the rule of `numerators`."""
        if isinstance(x, FieldElement) and x.field is self:
            return x
        return FieldElement(self, *self.numerators(x))

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
        y = self.dot([self.from_rational(n) for n in x.num], self._conj_powers)
        return FieldElement(self, y.num, y.den * x.den)

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

    @cached_property
    def irreducible(self) -> bool:
        """Whether m is its own factor at a root (so at all), i.e. Q[x]/(m)
        is a field."""
        return self.degree == 1 or _factor_at(self.roots, 0) == self.minpoly

    @cached_property
    def trace_gram(self):
        """(Tr(x^(i+j))) for i, j < d, the power basis's trace form, as rows."""
        tr = [trace_q(p) for p in _powers(self.one(), self.gen(), 2 * self.degree - 1)]
        return [tr[i : i + self.degree] for i in range(self.degree)]

    @cached_property
    def odd_discriminant(self) -> bool:
        """Whether disc(m) = det(`trace_gram`) is odd.  Then i is not in K: disc K
        divides disc m, so 2 is unramified in K, and it ramifies in Q(i)."""
        from .exactla import FieldMatrix  # exactla imports this module
        return FieldMatrix(rationals(), self.trace_gram).det().num[0] % 2 == 1

    @cached_property
    def conj_fault(self) -> int | None:
        """A CM field's own checks, made once: `require_irreducible`, then
        the first embedding (1-based) where conj is not complex conjugation."""
        require_irreducible(self.embeddings()[0])
        cg = self.conj(self.gen())
        for j, emb in enumerate(self.embeddings()):
            if self.roots.locate(lambda w, e=emb: cg.enclosure(e, w)) != self.roots.conj(j):
                return j + 1
        return None

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
    string in `Fraction`'s syntax (plain digits, after one optional "-", by
    `int`), an exponent past int's digit limit refused before Fraction;
    a float (0.1 is not 1/10) or a bool raises TypeError.  The one
    reader of rationals from outside: JSON values and CLI flags."""
    if isinstance(r, str):
        if r.removeprefix("-").isdecimal():
            return int(r), 1
        head, _, exp = r.lower().rpartition("e")
        exp = exp.strip().lstrip("+-").replace("_", "")
        if head and exp.isdecimal() and int(exp) > sys.get_int_max_str_digits() > 0:
            raise ValueError(f"exponent of {r!r} is past int's digit limit")
        r = Fraction(r)
    elif isinstance(r, bool) or not isinstance(r, (int, Fraction)):
        raise TypeError(f"a rational is an int, a Fraction or a string, not {type(r).__name__}")
    return r.numerator, r.denominator


# the Fractions that `coords` and `as_rational` return, one object per value
# among the recent ones (Fractions are immutable)
_fraction = lru_cache(maxsize=1 << 12)(Fraction)


def _slot_bits(a_bits, b_bits, terms):
    """Width w of a signed Kronecker slot: a sum of `terms` products x * y
    with |x| < 2^a_bits and |y| < 2^b_bits lies strictly between -2^(w-1)
    and 2^(w-1)."""
    return a_bits + b_bits + terms.bit_length() + 1


def _row_products(a, b, off):
    """Rows of a * b plus off for integer rows: a row of a half nonzero or more
    by dot products, a sparser one as a sum of scaled rows of b (Gustavson)."""
    cols = list(zip(*b))
    for row in a:
        if 2 * row.count(0) <= len(row):
            yield [sum(map(mul, row, col), off) for col in cols]
            continue
        acc = [off] * len(cols)
        for x, y in compress(zip(row, b), row):  # the nonzero entries x of the row
            acc = list(map(add, acc, map(mul, y, repeat(x))))
        yield acc


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
        return tuple(_fraction(n, self.den) for n in self.num)

    def _add(self, o, sign):
        """self + sign * o."""
        a, b = (1, 1) if self.den == o.den else (self.den, o.den)
        num = [x * b + sign * y * a for x, y in zip(self.num, o.num)]
        return FieldElement(self.field, num, self.den * b)

    def __add__(self, o):
        return self._add(self.field.coerce(o), 1)

    __radd__ = __add__

    def __sub__(self, o):
        return self._add(self.field.coerce(o), -1)

    def __rsub__(self, o):
        return self.field.coerce(o) - self

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, o):
        o = self.field.coerce(o)
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
        return self * self.field.coerce(o).inverse()

    def __rtruediv__(self, o):
        return self.field.coerce(o) * self.inverse()

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
        return _fraction(self.num[0], self.den)

    def conj(self) -> "FieldElement":
        return self.field.conj(self)

    def enclosure(self, emb: Embedding, width=None) -> Box:
        """sigma(x): num on the root's box, over den once at the precision of
        `width`, so a value at an exact-point root still tightens."""
        return poly_eval_box(self.num, emb.enclosure(width)).over(self.den, width)

    def __repr__(self):
        return f"FieldElement({[str(c) for c in self.coords]})"


# ---------------------------------------------------------------------------
# Spec operations


def make_field(minpoly, conj_image=None) -> NumberField:
    """Build a number field, verifying squarefreeness and the conjugation."""
    return NumberField(minpoly, conj_image)


def trace_q(x: FieldElement) -> Fraction:
    """Tr_{K/Q}(x): the diagonal sum of the matrix of multiplication by x."""
    cols = x.field._mul_columns(x.num)
    return Fraction(sum(c[k] for k, c in enumerate(cols)), x.den)


def _image_is_zero(x: FieldElement, emb: Embedding) -> bool:
    """Exact zero test for the image of x under one embedding."""
    return x.is_zero() or emb.roots.vanishes_at(x.num, emb.index - 1)


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
    """Sign of the (real) image of x: a rational is its own image, signed by
    its numerator (den > 0); otherwise an exact zero test, then enclosures
    refined until the sign of the nonzero image shows."""
    if x.is_rational():
        return (x.num[0] > 0) - (x.num[0] < 0)
    if not emb.is_real:
        if not x.field.has_conj:
            raise NotRealUnderEmbedding("cannot certify a real image without conj")
        if not _image_is_zero(x.field.conj(x) - x, emb):  # the image of -2i Im(sigma(x))
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
# The factor at a root, and irreducibility


def minpoly_factor_at(mp, value_encloser):
    """Monic rational irreducible factor of the monic squarefree rational
    mp at the root that `value_encloser(width)`, a Box, encloses."""
    roots = RootSet(mp)
    return _factor_at(roots, roots.locate(value_encloser))


def require_irreducible(emb: Embedding) -> None:
    """Raise ReducibleMinpoly unless Q[x]/(m) is a field for emb's field."""
    if not emb.field.irreducible:
        m = emb.field.minpoly
        raise ReducibleMinpoly(f"minpoly {[str(c) for c in m]} is reducible over Q")
