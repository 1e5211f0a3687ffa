"""Exact rational interval and complex-box arithmetic.

Endpoints are `fractions.Fraction`; every operation is outward-exact, so a
box computed from enclosures always contains the true value.  Used for the
certified embedding enclosures in :mod:`toruscm.numfield`.
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

    def __add__(self, o: "Iv") -> "Iv":
        return Iv(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, o: "Iv") -> "Iv":
        return Iv(self.lo - o.hi, self.hi - o.lo)

    def __neg__(self) -> "Iv":
        return Iv(-self.hi, -self.lo)

    def __mul__(self, o: "Iv") -> "Iv":
        c = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Iv(min(c), max(c))

    def scale(self, c) -> "Iv":
        c = _frac(c)
        return Iv(self.lo * c, self.hi * c) if c >= 0 else Iv(self.hi * c, self.lo * c)

    def recip(self) -> "Iv":
        if self.contains_zero():
            raise ZeroDivisionError("interval straddles zero")
        return Iv(1 / self.hi, 1 / self.lo)

    def sq(self) -> "Iv":
        c = (self.lo * self.lo, self.hi * self.hi)
        lo = Fraction(0) if self.contains_zero() else min(c)
        return Iv(lo, max(c))

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def contains(self, x) -> bool:
        return self.lo <= _frac(x) <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo > 0

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

    def dyadic_outward(self, bits: int) -> "Iv":
        """Round endpoints outward onto the 2^-bits grid (caps denominators)."""
        s = 1 << bits
        import math

        return Iv(Fraction(math.floor(self.lo * s), s), Fraction(math.ceil(self.hi * s), s))


@dataclass(frozen=True)
class Box:
    """Complex rectangle re + i*im with rational-interval components."""

    re: Iv
    im: Iv

    @staticmethod
    def point(re, im=0) -> "Box":
        return Box(Iv.point(re), Iv.point(im))

    def __add__(self, o: "Box") -> "Box":
        return Box(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "Box") -> "Box":
        return Box(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "Box":
        return Box(-self.re, -self.im)

    def __mul__(self, o: "Box") -> "Box":
        return Box(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def scale(self, c) -> "Box":
        return Box(self.re.scale(c), self.im.scale(c))

    def conj(self) -> "Box":
        return Box(self.re, -self.im)

    def mag2(self) -> Iv:
        return self.re.sq() + self.im.sq()

    def __truediv__(self, o: "Box") -> "Box":
        m = o.mag2()
        if m.contains_zero():
            raise ZeroDivisionError("denominator box may contain zero")
        num = self * o.conj()
        r = m.recip()
        return Box(num.re * r, num.im * r)

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

    def dyadic_outward(self, bits: int) -> "Box":
        return Box(self.re.dyadic_outward(bits), self.im.dyadic_outward(bits))

    def approx(self) -> complex:
        return complex(self.re.mid()) + 1j * complex(self.im.mid())


def poly_eval_box(coeffs, z: Box) -> Box:
    """Horner evaluation of a rational-coefficient polynomial on a box."""
    acc = Box.point(0)
    for c in reversed(coeffs):
        acc = acc * z + Box.point(c)
    return acc
