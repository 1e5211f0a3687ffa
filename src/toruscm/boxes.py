"""L0: complex boxes with dyadic endpoints, and their fixed-point kernel.

A box is stored once: four integer mantissas (re.lo, re.hi, im.lo, im.hi)
under one exponent e >= 0, with corners m / 2^e.  Comparisons, widths,
intersections and conjugates are integer operations on aligned exponents;
equality compares values.  A rational enters in one place, `Box.of`: dyadic
ends exactly, any other end rounded outward once.  The parts `re` and `im`
are real boxes, which `lo`, `hi` and `mid` read as rationals for code
outside L0.

The kernel behind the root boxes of :mod:`toruscm.polyq` (`poly_eval_box`,
`newton_step` and `root_product`) evaluates integer polynomials in fixed
point at scale 2^prec, prec 64 guard bits past the width of the input (and
past its exponent, so it enters exactly): products shift back with outward
rounding, so the result holds the exact one and tightens as its box
shrinks.  At a point Horner runs on integers with no shift, so a dyadic
point is evaluated exactly.  Division by a denominator, `Box.over`, rounds
outward too.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Box:
    """Complex rectangle with corners m / 2^e, m = (re.lo, re.hi, im.lo,
    im.hi) integers and e >= 0."""

    __slots__ = ("m", "e")

    def __init__(self, m: tuple, e: int):
        self.m, self.e = m, e

    @staticmethod
    def of(re_lo, re_hi, im_lo=0, im_hi=0) -> "Box":
        """The one boundary for rationals: the least box on the grid 2^-e
        that holds [re_lo, re_hi] + i [im_lo, im_hi].  With dyadic ends, e is
        the largest exponent among their denominators and the box is exact;
        otherwise the ends are rounded outward at 2^-e < 2^-64 / D^2, D the
        largest denominator, 64 bits below any width the ends can have."""
        ends = [Fraction(x) for x in (re_lo, re_hi, im_lo, im_hi)]
        if ends[0] > ends[1] or ends[2] > ends[3]:
            raise ValueError("empty interval")
        dens = [x.denominator for x in ends]
        e = max(dens).bit_length() - 1
        if any(d & (d - 1) for d in dens):  # an end that is not dyadic
            e = 2 * e + 66
        m = [s * ((s * x.numerator << e) // x.denominator) for s, x in zip((1, -1, 1, -1), ends)]
        return Box(tuple(m), e)  # lo floored and hi ceiled: s floor(s x 2^e), s = 1, -1

    @staticmethod
    def point(re, im=0) -> "Box":
        return Box.of(re, re, im, im)

    # the real and imaginary parts, as real boxes; lo, hi, mid and sign read
    # a real box as the interval [lo, hi]
    re = property(lambda self: Box(self.m[:2] + (0, 0), self.e))
    im = property(lambda self: Box(self.m[2:] + (0, 0), self.e))
    lo = property(lambda self: Fraction(self.m[0], 1 << self.e))
    hi = property(lambda self: Fraction(self.m[1], 1 << self.e))

    def mid(self) -> Fraction:
        return Fraction(self.m[0] + self.m[1], 2 << self.e)

    def sign(self) -> int | None:
        """Definite sign of [lo, hi], or None if it straddles zero."""
        a, b = self.m[:2]
        return 1 if a > 0 else -1 if b < 0 else 0 if a == b == 0 else None

    def __eq__(self, o):
        if not isinstance(o, Box):
            return NotImplemented
        a, b, _ = _align(self, o)
        return a == b

    def __mul__(self, o: "Box") -> "Box":
        return Box(_mul(self.m, o.m, 0), self.e + o.e)  # exact

    def over(self, den: int, width=None) -> "Box":
        """The box divided by the integer den > 0, rounded outward 64 bits
        past its own exponent and past the rational `width` asked for, so
        a quotient at a point still tightens as it is asked to."""
        if den == 1:
            return self
        e = self.e
        if width:
            e = max(e, width.denominator.bit_length() - width.numerator.bit_length())
        e += 64 + den.bit_length()
        a, b, c, d = (v << e - self.e for v in self.m)
        return Box((a // den, -(-b // den), c // den, -(-d // den)), e)

    def conj(self) -> "Box":
        a, b, c, d = self.m
        return Box((a, b, -d, -c), self.e)

    def is_point(self) -> bool:
        m = self.m
        return m[0] == m[1] and m[2] == m[3]

    def contains_zero(self) -> bool:
        m = self.m
        return m[0] <= 0 <= m[1] and m[2] <= 0 <= m[3]

    def disjoint(self, o: "Box") -> bool:
        a, b, _ = _align(self, o)
        return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]

    def inside(self, o: "Box") -> bool:
        """Containment in the interior of `o`, side by side (or exact point
        equality on a side)."""
        a, b, _ = _align(self, o)
        return all(
            a[i] == a[i + 1] == b[i] == b[i + 1] or b[i] < a[i] and a[i + 1] < b[i + 1]
            for i in (0, 2)
        )

    def intersect(self, o: "Box") -> "Box | None":
        a, b, e = _align(self, o)
        m = (max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3]))
        return Box(m, e) if m[0] <= m[1] and m[2] <= m[3] else None

    def _w(self) -> int:
        m = self.m
        return max(m[1] - m[0], m[3] - m[2])

    def narrower(self, width) -> bool:
        """Whether the box's width is below the rational `width`."""
        return self._w() * width.denominator < width.numerator << self.e

    def within(self, o: "Box", num: int, den: int) -> bool:
        """Whether den times this box's width is at most num times o's."""
        return den * self._w() << o.e <= num * o._w() << self.e

    def width(self) -> Fraction:
        return Fraction(self._w(), 1 << self.e)

    def approx(self) -> complex:
        """The midpoint in floats; a coordinate beyond float range is +-inf."""
        m, s = self.m, 2 << self.e
        return complex(*(_float(a + b, s) for a, b in (m[:2], m[2:])))


def _float(n: int, d: int) -> float:
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _align(x: Box, y: Box):
    """The mantissas of x and y at their common exponent, and that exponent."""
    e = max(x.e, y.e)
    return tuple(v << e - x.e for v in x.m), tuple(v << e - y.e for v in y.m), e


# ---------------------------------------------------------------------------
# Fixed-point kernel on mantissa tuples (re.lo, re.hi, im.lo, im.hi): at
# scale 2^prec, or exact (no shift, the scale growing) when prec is None


def _prec(zs) -> int | None:
    """64 guard bits past the widest box's width, and past every exponent so
    that boxes and their midpoints enter exactly; None (exact) when every
    box is a point."""
    ps = [64 + max(0, z.e + 1 - z._w().bit_length()) for z in zs if not z.is_point()]
    return max(min(ps), 1 + max(z.e for z in zs)) if ps else None


def _fixed(z: Box, prec):
    """(mantissas, their scale, the shift back after a product) of z for the
    kernel: at scale 2^prec, or exact."""
    if prec is None:
        return z.m, z.e, 0
    return tuple(v << prec - z.e for v in z.m), prec, prec


def _span(a, b, c, d):
    """[a, b] * [c, d]."""
    ps = (a * c, a * d, b * c, b * d)
    return min(ps), max(ps)


def _mul(x, y, shift):
    """x * y, each part summed exactly and then shifted back outward."""
    a, b, c, d = x
    e, f, g, h = y
    rl, rh = _span(a, b, e, f)
    if not (c or d or g or h):  # both real: one span
        return rl >> shift, -(-rh >> shift), 0, 0
    il, ih = _span(c, d, g, h)
    sl, sh = _span(a, b, g, h)
    tl, th = _span(c, d, e, f)
    return (rl - ih) >> shift, -((il - rh) >> shift), (sl + tl) >> shift, -((-sh - th) >> shift)


def _horner(coeffs, x, e, shift):
    """(mantissas, scale) of the integer polynomial coeffs at x, x at scale
    2^e: fixed point when shift = e, exact when shift = 0."""
    s, c = shift, coeffs[-1]
    acc = (c << s, c << s, 0, 0)
    for c in reversed(coeffs[:-1]):
        a, b, lo, hi = _mul(acc, x, shift)
        s += e - shift
        acc = a + (c << s), b + (c << s), lo, hi
    return acc, s


def _sq(a, b):
    """[a, b]^2 as a set of squares."""
    return (0 if a <= 0 <= b else min(a * a, b * b)), max(a * a, b * b)


def _div(lo, hi, nlo, nhi, prec):
    """[lo, hi] / [nlo, nhi] at scale 2^prec, outward, for 0 < nlo: one exact
    integer division, so the quotient keeps its relative precision."""
    return (lo << prec) // (nhi if lo >= 0 else nlo), -((-hi << prec) // (nlo if hi >= 0 else nhi))


def poly_eval_box(coeffs, z: Box) -> Box:
    """Horner enclosure of an integer polynomial on a box; exact at a point."""
    return Box(*_horner(coeffs, *_fixed(z, _prec([z]))))


def newton_step(p, dp, z: Box) -> Box | None:
    """A box around the interval-Newton image m - p(m) / p'(z) of a box z of
    positive width, m its midpoint, for integer p; None if p'(z) may
    vanish."""
    prec = _prec([z])
    d, _ = _horner(dp, *_fixed(z, prec))
    if d[0] <= 0 <= d[1] and d[2] <= 0 <= d[3]:
        return None
    rl, rh, il, ih = z.m
    m = tuple(v << prec - z.e - 1 for v in (rl + rh, rl + rh, il + ih, il + ih))
    # p(m) / d = p(m) conj(d) / |d|^2, both at scale 2^(2 prec)
    g = _mul(_horner(p, m, prec, prec)[0], (d[0], d[1], -d[3], -d[2]), 0)
    n = [a + b for a, b in zip(_sq(d[0], d[1]), _sq(d[2], d[3]))]
    q = _div(g[0], g[1], *n, prec) + _div(g[2], g[3], *n, prec)
    return Box((m[0] - q[1], m[1] - q[0], m[2] - q[3], m[3] - q[2]), prec)


def root_product(zs) -> list:
    """Ascending coefficient boxes of prod (x - z) over the boxes zs; exact
    when every box is a point."""
    prec = _prec(zs)
    s = prec or 0
    cs = [(1 << s, 1 << s, 0, 0)]
    for z in zs:
        x, e, shift = _fixed(z, prec)
        k = e - shift  # the growth of the scale, 0 in fixed point
        prods = [_mul(c, x, shift) for c in cs]
        # (x - z) * sum c_k x^k: new c_k = c_(k-1) - z c_k
        cs = [
            ((a[0] << k) - b[1], (a[1] << k) - b[0], (a[2] << k) - b[3], (a[3] << k) - b[2])
            for a, b in zip([(0, 0, 0, 0)] + cs, prods + [(0, 0, 0, 0)])
        ]
        s += k
    return [Box(c, s) for c in cs]
