"""Dense univariate polynomial arithmetic over Q.

Polynomials are tuples of `Fraction` coefficients in ascending degree with
no trailing zeros; the zero polynomial is the empty tuple.  Includes Sturm
sequences and real-root isolation by the counts of one Sturm chain (the real
half of the root machinery in :mod:`toruscm.numfield`, which refines by signs).
"""

from __future__ import annotations

import math
from fractions import Fraction


def poly(coeffs) -> tuple:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p) -> int:
    return len(p) - 1


def is_zero(p) -> bool:
    return not p


def psub(p, q):
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0) for i in range(n)])


def pneg(p):
    return tuple(-c for c in p)


def pscale(p, c):
    c = Fraction(c)
    return poly([a * c for a in p]) if c else ()


def pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


def pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq, lead = len(q) - 1, q[-1]
    while len(rem) - 1 >= dq and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        k = len(rem) - 1 - dq
        c = rem[-1] / lead
        quo[k] = c
        for j, b in enumerate(q):
            rem[k + j] -= c * b
        rem.pop()
    return poly(quo), poly(rem)


def pmod(p, q):
    return pdivmod(p, q)[1]


def pgcd(p, q):
    """Monic gcd."""
    a, b = poly(p), poly(q)
    while b:
        a, b = b, pmod(a, b)
    if a:
        a = pscale(a, 1 / a[-1])
    return a


def pderiv(p):
    return poly([i * c for i, c in enumerate(p)][1:])


def peval(p, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def is_squarefree(p) -> bool:
    return degree(pgcd(p, pderiv(p))) == 0


def cauchy_bound(p) -> Fraction:
    """All complex roots have modulus < this bound."""
    if degree(p) < 1:
        raise ValueError("need degree >= 1")
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p[:-1]) / lead


def primitive_part(p):
    """Scale by a positive rational to integer coefficients with gcd 1."""
    if not p:
        return p
    den = math.lcm(*[c.denominator for c in p])
    num = math.gcd(*[abs(c.numerator) for c in p if c])
    return pscale(p, Fraction(den, num))


def sturm_chain(p, q=None):
    """Sturm chain of (p, q), with q = p' by default."""
    # positive rescaling of each member keeps sign variations intact and
    # stops the coefficient blowup of the raw remainder sequence
    chain = [primitive_part(poly(p)), primitive_part(pderiv(p) if q is None else poly(q))]
    while chain[-1]:
        chain.append(primitive_part(pneg(pmod(chain[-2], chain[-1]))))
    return chain[:-1]


def variations(chain, x) -> int:
    """Twice the sign variations of the chain at x, a zero counting half: the
    drop from a to b is twice the Cauchy index of q/p on [a, b] for the chain
    of (p, q), an endpoint at a root of p counting half (Eisermann 2012)."""
    signs = [(v > 0) - (v < 0) for v in (peval(f, x) for f in chain)]
    return sum(abs(a - b) for a, b in zip(signs, signs[1:]))


def count_roots(chain, a, b) -> int:
    """Number of distinct real roots in (a, b), for a and b not roots."""
    return (variations(chain, a) - variations(chain, b)) // 2


def _nonroot_point(p, a, b) -> Fraction:
    m = (Fraction(a) + Fraction(b)) / 2
    k = 3
    while peval(p, m) == 0:
        m = Fraction(a) + (Fraction(b) - Fraction(a)) / k
        k += 2
    return m


def isolate_real_roots(p):
    """Disjoint isolating intervals (a, b], one simple real root each and no
    end a root.  p must be squarefree: the chain ends in gcd(p, p')."""
    chain = sturm_chain(p)
    if degree(chain[-1]) > 0:
        raise ValueError("polynomial must be squarefree")
    bound = cauchy_bound(p)
    out = []

    def rec(a, b, n):
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        m = _nonroot_point(p, a, b)
        nl = count_roots(chain, a, m)
        rec(a, m, nl)
        rec(m, b, n - nl)

    rec(-bound, bound, count_roots(chain, -bound, bound))
    out.sort()
    return out

