"""Rational interval and complex-box arithmetic.

Endpoints are `fractions.Fraction`, and every comparison is exact.  The
arithmetic behind the root boxes of :mod:`toruscm.numfield`
(`poly_eval_box`, `newton_step` and `root_product`) runs in fixed point:
boxes move to integer mantissas at scale 2^prec with lo floored and hi
ceiled, products shift back with the same outward rounding, and the result
is a box with power-of-two denominators that contains the exact one.  prec
is 64 guard bits past the width of the input, so enclosures tighten as
their boxes shrink; exact points are evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Iv:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @staticmethod
    def point(x) -> "Iv":
        x = _frac(x)
        return Iv(x, x)

    @staticmethod
    def of(lo, hi) -> "Iv":
        return Iv(_frac(lo), _frac(hi))

    def __neg__(self) -> "Iv":
        return Iv(-self.hi, -self.lo)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def contains(self, x) -> bool:
        return self.lo <= _frac(x) <= self.hi

    def sign(self) -> int | None:
        """Definite sign, or None if the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def intersect(self, o: "Iv") -> "Iv | None":
        lo, hi = max(self.lo, o.lo), min(self.hi, o.hi)
        return Iv(lo, hi) if lo <= hi else None

    def disjoint(self, o: "Iv") -> bool:
        return self.hi < o.lo or o.hi < self.lo

    def inside(self, o: "Iv") -> bool:
        """Containment in the interior of `o` (or exact point equality)."""
        if self.lo == self.hi and o.lo == o.hi:
            return self.lo == o.lo
        return o.lo < self.lo and self.hi < o.hi


@dataclass(frozen=True)
class Box:
    """Complex rectangle re + i*im with rational-interval components."""

    re: Iv
    im: Iv

    @staticmethod
    def point(re, im=0) -> "Box":
        return Box(Iv.point(re), Iv.point(im))

    def __mul__(self, o: "Box") -> "Box":
        return _unfix(_mul(_fix(self, None), _fix(o, None), None), None)  # exact

    def conj(self) -> "Box":
        return Box(self.re, -self.im)

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()

    def disjoint(self, o: "Box") -> bool:
        return self.re.disjoint(o.re) or self.im.disjoint(o.im)

    def inside(self, o: "Box") -> bool:
        return self.re.inside(o.re) and self.im.inside(o.im)

    def intersect(self, o: "Box") -> "Box | None":
        re = self.re.intersect(o.re)
        im = self.im.intersect(o.im)
        return Box(re, im) if re is not None and im is not None else None

    def width(self) -> Fraction:
        return max(self.re.width(), self.im.width())

    def mid(self) -> "Box":
        return Box.point(self.re.mid(), self.im.mid())

    def approx(self) -> complex:
        return complex(self.re.mid()) + 1j * complex(self.im.mid())


# ---------------------------------------------------------------------------
# Fixed-point kernel: a box as integer mantissas (re.lo, re.hi, im.lo, im.hi)
# at scale 2^prec, or as its exact Fraction endpoints when prec is None


def _prec(width: Fraction) -> int | None:
    """64 guard bits past a box's width; None (exact) for a point."""
    if width == 0:
        return None
    return 64 + max(0, width.denominator.bit_length() - width.numerator.bit_length())


def _floor(x, prec):
    return x if prec is None else (x.numerator << prec) // x.denominator


def _ceil(x, prec):
    return x if prec is None else -((-x.numerator << prec) // x.denominator)


def _fix(z: Box, prec) -> tuple:
    return _floor(z.re.lo, prec), _ceil(z.re.hi, prec), _floor(z.im.lo, prec), _ceil(z.im.hi, prec)


def _unfix(m, prec) -> Box:
    s = 1 if prec is None else 1 << prec
    return Box(Iv(Fraction(m[0], s), Fraction(m[1], s)), Iv(Fraction(m[2], s), Fraction(m[3], s)))


def _span(a, b, c, d):
    """[a, b] * [c, d]."""
    ps = (a * c, a * d, b * c, b * d)
    return min(ps), max(ps)


def _mul(x, y, prec):
    """x * y, each part summed exactly and then shifted back outward."""
    a, b, c, d = x
    e, f, g, h = y
    rl, rh = _span(a, b, e, f)
    il, ih = _span(c, d, g, h)
    sl, sh = _span(a, b, g, h)
    tl, th = _span(c, d, e, f)
    if prec is None:
        return rl - ih, rh - il, sl + tl, sh + th
    return (rl - ih) >> prec, -((il - rh) >> prec), (sl + tl) >> prec, -((-sh - th) >> prec)


def _horner(coeffs, x, prec):
    acc = (0, 0, 0, 0)
    for c in reversed(coeffs):
        a, b, lo, hi = _mul(acc, x, prec)
        acc = a + _floor(c, prec), b + _ceil(c, prec), lo, hi
    return acc


def _sq(a, b):
    """[a, b]^2 as a set of squares."""
    return (0 if a <= 0 <= b else min(a * a, b * b)), max(a * a, b * b)


def _div(lo, hi, nlo, nhi, prec):
    """[lo, hi] / [nlo, nhi] at scale 2^prec, outward, for 0 < nlo: one exact
    integer division, so the quotient keeps its relative precision."""
    return (lo << prec) // (nhi if lo >= 0 else nlo), -((-hi << prec) // (nlo if hi >= 0 else nhi))


def poly_eval_box(coeffs, z: Box) -> Box:
    """Horner enclosure of a rational-coefficient polynomial on a box."""
    prec = _prec(z.width())
    return _unfix(_horner(coeffs, _fix(z, prec), prec), prec)


def newton_step(p, dp, z: Box) -> Box | None:
    """A box around the interval-Newton image m - p(m) / p'(z) of a box z of
    positive width, m its midpoint; None if p'(z) may vanish."""
    prec = _prec(z.width())
    d = _horner(dp, _fix(z, prec), prec)
    if d[0] <= 0 <= d[1] and d[2] <= 0 <= d[3]:
        return None
    m = _fix(z.mid(), prec)
    # p(m) / d = p(m) conj(d) / |d|^2, both at scale 2^(2 prec)
    g = _mul(_horner(p, m, prec), (d[0], d[1], -d[3], -d[2]), 0)
    n = [a + b for a, b in zip(_sq(d[0], d[1]), _sq(d[2], d[3]))]
    q = _div(g[0], g[1], *n, prec) + _div(g[2], g[3], *n, prec)
    return _unfix((m[0] - q[1], m[1] - q[0], m[2] - q[3], m[3] - q[2]), prec)


def root_product(zs) -> list:
    """Ascending coefficient boxes of prod (x - z) over the boxes zs."""
    prec = _prec(max(z.width() for z in zs))
    cs = [_fix(Box.point(1), prec)]
    for z in zs:
        x = _fix(z, prec)
        prods = [_mul(c, x, prec) for c in cs]
        # (x - z) * sum c_k x^k: new c_k = c_(k-1) - z c_k
        cs = [
            (a[0] - b[1], a[1] - b[0], a[2] - b[3], a[3] - b[2])
            for a, b in zip([(0, 0, 0, 0)] + cs, prods + [(0, 0, 0, 0)])
        ]
    return [_unfix(c, prec) for c in cs]
