"""L0: univariate polynomials and certified root isolation, on integers.

A rational polynomial enters as a tuple of `Fraction` coefficients, ascending,
with no trailing zeros (`poly`).  Past that boundary everything runs on
primitive integer polynomials.  Sturm chains are primitive remainder
sequences (Brown, J. ACM 18 (1971)): a member is the negated pseudo-remainder
of the two before it, scaled by a power of |lc| > 0 so its sign is kept, over
its content.  The sign at a/b is that of b^n p(a/b), by homogeneous integer
Horner; variations count a zero as half (Eisermann, Amer. Math. Monthly 119
(2012)).

`RootSet` holds certified, pairwise-disjoint boxes for the roots of one
squarefree polynomial, and is the one place that decides which root a value
is (`locate`) and whether a polynomial vanishes at a root (`vanishes_at`).
Real roots: Sturm counts, then the point m, or [m - 1, m + 1] / 2^k, at a
float Newton iterate that integer signs certify (`_seeded_real`), or, where
floats overflow or miss, at exact Newton steps from the root's binade, found
by bit lengths (`_exact_seed`); where both miss, Newton cuts, bisecting by
signs where Newton fails.
Complex roots: interval Newton seeded by Durand-Kerner, or else exact counts
(`_root_count`, the argument principle on one Sturm chain per line x =
const or y = const, kept per `RootSet`, so a cut costs one new chain).
Boxes are dyadic and evaluated in outward-rounded fixed point
(:mod:`toruscm.boxes`); floats only pick where to *try* a certificate.
`_factor_at` certifies the irreducible factor at a root, trying at most
`MAX_UNIONS` unions of conjugation orbits in ascending size: one whose
trace holds no rational of bounded denominator fails before any root
product, and the union of all orbits is the polynomial made monic.  The
loops that wait for a certificate or a width raise `NotConverged` after
`MAX_ROUNDS` rounds; exact subdivision, real isolation and the separation
of overlapping boxes raise it past Mahler's root separation bound (`_gap`).
Refinement leaves an exact-point box as it is.

Boxes are made dyadic here, never rounded afterwards, which could let a
neighbouring root in: isolation starts from [-2^k, 2^k] (`root_bound`), and
`_cut` takes the first of the d + 1 dyadic cuts of `_cut_point` (at a side's
middle bit length across scales) that misses the roots.
A root is an exact point only at a dyadic value (an integer, for a monic
minpoly); another rational root is held by shrinking boxes, as an
irrational one is, and `_certify` and `vanishes_at` decide it without one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .boxes import Box, newton_step, poly_eval_box, root_product


class NotConverged(ArithmeticError):
    """A certificate was not reached within `MAX_ROUNDS` refinement rounds,
    or root counts contradict the root separation bound."""


# rounds of a refine-and-retry loop before it gives up; each round at least
# halves a box or an enclosure width
MAX_ROUNDS = 400
MAX_UNIONS = 1 << 16  # orbit unions per `_factor_at` call; Q(zeta17)'s degree-16 F needs 2^15

# the width below which real boxes are built, and the width to which a
# certified complex box is refined once and `locate` first asks for
REAL_WIDTH, SEED_WIDTH = Fraction(1, 1 << 8), Fraction(1, 1 << 16)

# ---------------------------------------------------------------------------
# Polynomials: the rational boundary and the integer core


def poly(coeffs) -> tuple:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p) -> int:
    return len(p) - 1


def pderiv(p):
    return tuple(i * c for i, c in enumerate(p))[1:]


def _primitive(p) -> tuple:
    """The integer polynomial with coprime coefficients that is a positive
    multiple of the rational p (trailing zeros dropped)."""
    den = math.lcm(*[c.denominator for c in p])
    num = [c.numerator * (den // c.denominator) for c in p]
    while num and num[-1] == 0:
        num.pop()
    g = math.gcd(*num) or 1
    return tuple(n // g for n in num)


def _prem(f, g) -> list:
    """A positive multiple of the remainder of f by g, for integer f and g,
    maybe with trailing zeros: each step scales by |lc(g)| over a gcd."""
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    while len(r) > dg:
        lr = r[-1]
        if lr:
            h = math.gcd(lr, lg)
            a, b = abs(lg) // h, lr // h if lg > 0 else -lr // h
            k = len(r) - 1 - dg
            r = [a * c for c in r]
            for j, c in enumerate(g, k):
                r[j] -= b * c
        r.pop()
    return r


def pgcd(p, q):
    """Primitive integer gcd with a positive leading coefficient."""
    a, b = _primitive(p), _primitive(q)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a if not a or a[-1] > 0 else tuple(-c for c in a)


def is_squarefree(p) -> bool:
    return degree(pgcd(p, pderiv(p))) == 0


def root_bound(p) -> int:
    """A power of two above the modulus of every root of the integer p:
    Fujiwara's 2 max_k |c_(n-k) / c_n|^(1/k), the last term halved (Tohoku
    Math. J. 10 (1916)), read from bit lengths."""
    if degree(p) < 1:
        raise ValueError("need degree >= 1")
    top = abs(p[-1]).bit_length() - 1  # |c_(n-k) / c_n| < 2^(len c_(n-k) - top)
    cs = [abs(p[0]) >> 1, *p[1:-1]][::-1]  # c_(n-1), ..., c_1 and the halved |c_0|
    return 2 << max(0, *(-((top - abs(c).bit_length()) // k) for k, c in enumerate(cs, 1)))


def _value(f, a, q=1) -> int:
    """q^n f(a/q) for the integer polynomial f of degree n, by homogeneous
    Horner on integers."""
    acc, qk = 0, 1
    for c in reversed(f):
        acc = acc * a + c * qk
        qk *= q
    return acc


def _sign(f, a, q=1) -> int:
    """Sign of the integer polynomial f at a/q, q > 0."""
    v = _value(f, a, q)
    return (v > 0) - (v < 0)


def sturm_chain(p, q=None):
    """Sturm chain of (p, q), q = p' by default, as primitive integer
    polynomials: a member is minus the remainder of the two before it, up to
    a positive factor (Brown 1971)."""
    chain = [_primitive(p), _primitive(pderiv(p) if q is None else q)]
    while chain[-1]:
        chain.append(_primitive([-c for c in _prem(chain[-2], chain[-1])]))
    return chain[:-1]


def variations(chain, a, q=1) -> int:
    """Twice the sign variations of the chain at a/q, a zero counting half:
    the drop from x to y is twice the Cauchy index of g/f on [x, y] for the
    chain of (f, g), an endpoint at a root of f counting half (Eisermann
    2012)."""
    signs = [_sign(f, a, q) for f in chain]
    return sum(abs(s - t) for s, t in zip(signs, signs[1:]))


def count_roots(chain, a, b, q=1) -> int | None:
    """Number of distinct real roots in (a/q, b/q), or None at an end that is a simple root."""
    va, vb = variations(chain, a, q), variations(chain, b, q)  # odd just at a simple root
    return None if (va | vb) & 1 else (va - vb) // 2


def isolate_real_roots(p):
    """Ascending real boxes (a, b) / 2^e, one simple real root each and no
    end a root: `_cut` splits (-B, B), B = `root_bound`, from the grid 2^-f,
    f the height's bit length, whose step (the floor of a part at 0) is below
    every nonzero root.  p must be squarefree: the chain ends in gcd(p, p')."""
    chain = sturm_chain(p)
    if degree(chain[-1]) > 0:
        raise ValueError("polynomial must be squarefree")
    p, bound = chain[0], root_bound(chain[0])
    f = max(map(abs, p)).bit_length()  # a nonzero root exceeds 1 / (1 + height)
    box = Box((-bound << f, bound << f, 0, 0), f)
    return _split(p, box, count_roots(chain, -bound, bound), _gap(p), {None: chain})


def _split(p, box, n, gap, lines):
    """Boxes holding one root each, in (re, im) order: the parts of `box`,
    which holds n roots of p, under repeated `_cut`.  With `gap` < sep(p) / 2
    a part narrower than `gap` holds at most one root; a count that says
    otherwise raises `NotConverged`, as does a cut whose counts do not add up."""
    found, queue = [], [(box, n)] if n else []
    while queue:
        box, n = queue.pop()
        if n == 1:
            found.append(box)
            continue
        if box.narrower(gap):
            raise NotConverged("a box narrower than the root separation counts several roots")
        low, high, k = _cut(p, box, lines)
        if k is None or not 0 <= k <= n:
            raise NotConverged("the counts of a cut do not add up")
        queue += [(h, c) for h, c in ((low, k), (high, n - k)) if c]
    return sorted(found, key=lambda b: (b.re.mid(), b.im.mid()))


# ---------------------------------------------------------------------------
# Complex roots: Newton certificates, exact counts, refinement


def _durand_kerner(p, iters=400):
    """Float approximations to all roots of a squarefree integer polynomial,
    or None when its coefficients overflow floats (exact subdivision takes
    over); a ratio of finite integer coefficients is finite."""
    d = degree(p)
    try:
        cs = [complex(c) / complex(p[-1]) for c in p]
    except OverflowError:
        return None
    zs = [(0.4 + 0.9j) ** k for k in range(1, d + 1)]
    for _ in range(iters):
        moved = 0.0
        for i in range(d):
            num = _float_eval(cs, zs[i])
            den = math.prod(zs[i] - zs[j] for j in range(d) if j != i) or 1e-30
            step = num / den
            zs[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    return zs


def _certify(p, dp, box: Box) -> Box | None:
    """Interval-Newton proof that box contains exactly one root of p: the
    Newton image, inside the box and holding that root, or None."""
    if box.is_point():  # a dyadic point, evaluated exactly
        return box if poly_eval_box(p, box).contains_zero() else None
    n = newton_step(p, dp, box)
    return n if n is not None and n.inside(box) else None


def _newton_cut(p, dp, box: Box) -> Box | None:
    """The part of a box holding one root of p that a Newton step keeps, if
    it is at most 3/4 as wide (clipped to the box, so no neighbour gets in)."""
    n = newton_step(p, dp, box)
    cut = None if n is None else n.intersect(box)
    return cut if cut is not None and cut.within(box, 3, 4) else None


def _bisect_certified(p, dp, box: Box, lines=None) -> Box:
    """A strict part of a box holding one root of p that keeps the root: a
    part of the first cut that interval Newton certifies, else the part
    that the exact count gives the root."""
    for h in _halves(box, 0, 1):
        if _certify(p, dp, h) is not None:
            return h
    low, high, n = _cut(p, box, lines)
    return high if n == 0 else low


def _halves(box: Box, j: int, s: int) -> tuple[Box, Box]:
    """The two parts of a box cut across its wider side at `_cut_point` j."""
    i = 0 if box.m[1] - box.m[0] >= box.m[3] - box.m[2] else 2  # the wider side
    low, high = [x << s for x in box.m], [x << s for x in box.m]
    low[i + 1] = high[i] = _cut_point(box.m[i], box.m[i + 1], j, s)
    return Box(tuple(low), box.e + s), Box(tuple(high), box.e + s)


def _cut_point(lo, hi, j, s) -> int:
    """The j-th cut of the side [lo, hi] / 2^e, 2^s > 4j, on the grid
    2^-(e + s): at 2^k (1 - j / 2^s), k the middle bit length, if the side
    has one sign (0 may be an end) and spans 3 binades or more, so cuts halve
    the binades between scales (Sagraloff and Mehlhorn, J. Symb. Comput. 73
    (2016)); else at (2^(s-1) - j) / 2^s of it.  Each is strictly inside."""
    small, large = sorted((abs(lo).bit_length(), abs(hi).bit_length()))
    if (lo >= 0 or hi <= 0) and large - small >= 3:
        x = ((1 << s) - j) << (small + large) // 2
        return x if hi > 0 else -x
    return (lo << s) + (hi - lo) * ((1 << s - 1) - j)


def _cut(p, box: Box, lines=None):
    """(low, high, count of low) for the first cut at `_cut_point` j = 0 ..
    d, 2^s > 4d, with no root on low's boundary.  One of these d + 1 lines
    (points, in a real box) misses the d roots, so the count is None only when
    a root lies on the part of the box's boundary that every low part keeps."""
    s = degree(p).bit_length() + 2
    for j in range(degree(p) + 1):
        low, high = _halves(box, j, s)
        n = _root_count(p, low, lines)
        if n is not None:
            break
    return low, high, n


def _line(p, lines, vertical, a, q):
    """The Sturm chains of (U, V) and of gcd(U, V) on a line, kept in
    `lines`: U + iV is q^n p(c + iy) on x = c (vertical) or q^n p(x + ic) on
    y = c, c = a/q in lowest terms, so U and V are integer polynomials."""
    key = (vertical, a, q)
    if key not in lines:
        u, v, qk = [], [], 1
        for coef in reversed(p):  # Horner: (u + iv) z + coef q^k
            if vertical:  # z = a + i q y
                u, v = _lin(a, u, -q, v), _lin(a, v, q, u)
            else:  # z = q x + i a
                u, v = _lin(-a, v, q, u), _lin(a, u, q, v)
            u[0] += coef * qk
            qk *= q
        chain = sturm_chain(u, v)
        lines[key] = chain, sturm_chain(chain[-1])
    return lines[key]


def _lin(s, f, t, g) -> list:
    """s f + t x g, for integer coefficient lists f and g."""
    out = [0] * max(len(f), len(g) + 1)
    for i, c in enumerate(f):
        out[i] = s * c
    for i, c in enumerate(g, 1):
        out[i] += t * c
    return out


def _root_count(p, box: Box, lines=None) -> int | None:
    """Number of roots of squarefree p in the open box, or None when p vanishes
    on its boundary: in a real box, by the Sturm chain kept in `lines` under
    None; else by the argument principle (Wilf, J. ACM 25 (1978)): minus half
    the sum of the Cauchy indices of V/U along the edges, counterclockwise,
    with p = (U + iV) / q^n on each edge's line (`_line`, kept in `lines`); a
    root on an edge is a root of gcd(U, V) there."""
    lines = {} if lines is None else lines
    rl, rh, il, ih = box.m
    q = 1 << box.e
    if il == ih == 0:
        return count_roots(lines[None], rl, rh, q)
    p = _primitive(p)
    index = 0
    edges = ((False, il, rl, rh), (True, rh, il, ih), (False, ih, rh, rl), (True, rl, ih, il))
    for vertical, c, start, end in edges:
        k = min(box.e, (c & -c).bit_length() - 1) if c else box.e  # c / q in lowest terms
        chain, gcd = _line(p, lines, vertical, c >> k, q >> k)
        if variations(gcd, start, q) != variations(gcd, end, q):
            return None
        index += variations(chain, start, q) - variations(chain, end, q)
    return -index // 4  # `variations` counts twice


def _refine_box_once(p, dp, box: Box, lines=None) -> Box:
    """A part of a box holding one root of p: a Newton cut or an exact sign
    bisection for a real box, at most half as wide for a complex one."""
    if box.is_point():
        return box  # an exact point cannot shrink further
    # Newton first (a real box has a real image); real boxes fall back to an
    # exact sign bisection, so they never need a Sturm chain after isolation
    if box.m[2] == box.m[3] == 0:
        return _newton_cut(p, dp, box) or _bisect_real(p, box)
    start = box
    while not box.within(start, 1, 2):
        box = _newton_cut(p, dp, box) or _bisect_certified(p, dp, box, lines)
    return box


def _bisect_real(p, box: Box) -> Box:
    """A part at most 3/4 as wide of a real box holding one root, by exact
    signs (interval evaluation can allow zero on both parts near a close
    root): cut at the point of its middle half with the fewest bits, so a
    dyadic root alone there, such as an integer, becomes an exact point."""
    a, b = box.m[:2]
    m, e = _coarsest(3 * a + b, a + 3 * b), box.e + 2
    a, b = a << 2, b << 2
    at_lo, at_m = _sign(p, a, 1 << e), _sign(p, m, 1 << e)
    if at_lo == 0 or at_m == 0:
        m = a if at_lo == 0 else m
        return Box((m, m, 0, 0), e)
    return Box((a, m, 0, 0) if at_lo != at_m else (m, b, 0, 0), e)


def _coarsest(lo, hi) -> int:
    """The integer in [lo, hi] with the most trailing zeros."""
    if lo <= 0 <= hi:
        return 0
    if hi < 0:
        return -_coarsest(-hi, -lo)
    k = (lo ^ hi).bit_length()  # lo and hi agree above bit k - 1
    return lo if lo & ((1 << k) - 1) == 0 else hi >> k - 1 << k - 1


def _seeded_real(p, dp, box: Box) -> Box | None:
    """The box on the grid 2^-k, k = max(12, e + 2), of the one root of p in
    an isolating interval (a, b) / 2^e in lowest terms, at the point m a
    float Newton iterate from its midpoint picks, or else at the point of
    `_exact_seed`, which may take a finer k from the root's binade, where
    floats overflow or the float's m fails: [m - 1, m + 1] inside it if p has
    opposite nonzero signs at its ends (m if p(m) = 0), else None."""
    t = min(box.e, ((box.m[0] | box.m[1]) & -(box.m[0] | box.m[1])).bit_length() - 1)
    a, b, e = box.m[0] >> t, box.m[1] >> t, box.e - t  # (a, b) / 2^e in lowest terms
    k = max(12, e + 2)

    def grid_box(m, j):
        lo, hi, q = a << j - e, b << j - e, 1 << j
        if not lo < m - 1 < m + 1 < hi or _sign(p, m - 1, q) * _sign(p, m + 1, q) >= 0:
            return None
        return Box((m, m, 0, 0) if _sign(p, m, q) == 0 else (m - 1, m + 1, 0, 0), j)

    try:
        x = (a + b) / (2 << e)
        for _ in range(64):
            step = _float_eval(p, x) / _float_eval(dp, x)
            x -= step
            if abs(step) < max(1e-15 * abs(x), 2.0 ** -(k + 8)):
                break
        found = grid_box(round(x * (1 << k)), k)
    except (OverflowError, ValueError, ZeroDivisionError):  # inf or nan
        found = None
    return found or grid_box(*_exact_seed(p, dp, a, b, e, k))


def _exact_seed(p, dp, a, b, e, k):
    """(m, k') for a grid point m / 2^k' near the root of p in (a, b] / 2^e,
    on integers: the far end h of the binade (2^(j-1), 2^j] / 2^f, or its
    mirror below 0, that holds the root, by bisecting on bit lengths by signs
    at a grid 2^-f below every nonzero root; then the grid k' >= k at 2^-12
    of h, and rounded exact Newton steps m - q^n p / (q^(n-1) p') at m / q."""
    f = e + max(map(abs, p)).bit_length()  # a nonzero root exceeds 1 / (1 + height)
    a, b, q = a << f - e, b << f - e, 1 << f
    s = 1 if a >= 0 or b > 0 and _sign(p, 0) != _sign(p, b, q) else -1
    lo, hi = (max(a, 0), b) if s > 0 else (max(-b, 0), -a)
    at_hi = _sign(p, s * hi, q)
    while (hi - 1).bit_length() > lo.bit_length() + 1:
        t = 1 << (lo.bit_length() + (hi - 1).bit_length()) // 2  # lo < t < hi
        lo, hi = (lo, t) if _sign(p, s * t, q) == at_hi else (t, hi)
    k = max(k, f + 12 - hi.bit_length())
    m, q = (s * hi << k) >> f, 1 << k
    for _ in range(64):
        d = 2 * _value(dp, m, q)
        step = (2 * _value(p, m, q) + d // 2) // d if d else 0
        if not step:
            break
        m -= step
    return m, k


def _float_eval(cs, x):
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _min_separation(approx, reals):
    pts = list(approx) + [z.conjugate() for z in approx] + [b.approx() for b in reals]
    return max(min([1.0] + [abs(a - b) for a, b in itertools.combinations(pts, 2)]), 1e-12)


def _certify_around(p, dp, z: complex, sep: float, lines) -> Box | None:
    """A certified box around the float root z, on the dyadic grid: centre
    rounded to 2^-48, radius the powers of two 2^k from the largest <= sep/3,
    refined below `SEED_WIDTH`."""
    x, y = (round(c * (1 << 48)) << 16 for c in (z.real, z.imag))
    k = math.frexp(sep / 3)[1] - 1  # -56 <= k < 0 below, as 1e-12 <= sep <= 1
    for _ in range(14):
        r = 1 << 64 + k
        n = _certify(p, dp, Box((x - r, x + r, y - r, y + r), 64))
        if n is not None:
            while not n.narrower(SEED_WIDTH):
                n = _refine_box_once(p, dp, n, lines)
            return n
        k -= 1
    return None


def _gap(p) -> Fraction:
    """An exact rational below sep(p) / 2 for squarefree integer p, from
    Mahler's bound sep(p) > sqrt(3) d^(-(d+2)/2) |p|_2^(1-d) (Mahler,
    Michigan Math. J. 11 (1964))."""
    d = degree(p)
    return Fraction(1, 2 * math.isqrt(d ** (d + 2) * sum(c * c for c in p) ** (d - 1) // 3) + 2)


def _subdivision_upper_roots(p, count, lines):
    """Boxes strictly above the real axis, one per root with Im > 0: the
    root bound's box above the highest floor y = bound / 2^e below `gap`,
    split by counts (`_split`), whose exponent cuts reach the floor's binade
    in O(log e) counts.  An upper root a has Im a >= sep(p) / 2 > `gap`, so
    the box holds every upper root; a count that says otherwise raises."""
    bound, gap = root_bound(p), _gap(p)
    e = (bound * gap.denominator // gap.numerator).bit_length()  # 2^e > bound / gap
    box = Box((-bound << e, bound << e, bound, bound << e), e)
    if _root_count(p, box, lines) != count:
        raise NotConverged("the upper roots are not all above the separation bound")
    # a part's boundary holds no root, so `_cut` gives a count
    return _split(p, box, count, gap, lines)


def _isolate_all_roots(p, dp, lines=None):
    """Boxes for all roots of squarefree integer p, one root each.

    Returns (real_boxes, upper_boxes): real roots ascending, each below
    2^-8 wide or an exact point, and strictly complex roots with Im > 0
    ordered by (re, im); the conjugate roots are the mirrored upper boxes.
    Boxes may still overlap; `RootSet` separates them.
    """
    d = degree(p)
    reals = []
    for box in isolate_real_roots(p):  # p changes sign across it: no end is a root
        box = _seeded_real(p, dp, box) or box
        while not box.narrower(REAL_WIDTH):
            box = _refine_box_once(p, dp, box)
        reals.append(box)
    n_upper = (d - len(reals)) // 2
    uppers = []
    seeds = _durand_kerner(p) if n_upper else None
    if seeds is not None:
        approx = []
        for z in sorted((z for z in seeds if z.imag > 1e-9), key=lambda z: (z.real, z.imag)):
            if not approx or abs(z - approx[-1]) >= 1e-9:  # one seed per float cluster
                approx.append(z)
        if len(approx) == n_upper:
            sep = _min_separation(approx, reals)
            # sep <= 2 Im z, so each box lies strictly above the real axis
            uppers = [_certify_around(p, dp, z, sep, lines) for z in approx]
    if len(uppers) < n_upper or None in uppers:
        return reals, _subdivision_upper_roots(p, n_upper, lines)
    return reals, uppers


class RootSet:
    """Certified, pairwise-disjoint boxes for the roots of a squarefree
    rational polynomial, kept as its primitive integer multiple `poly`.

    Roots are indexed from 0 in embedding order: real roots ascending, then
    each root with Im > 0 followed by its complex conjugate.
    """

    def __init__(self, p):
        self.poly = _primitive(p)
        self._dpoly = pderiv(self.poly)
        self._lines = {}  # the Sturm chains of `_line`, for every later count
        reals, uppers = _isolate_all_roots(self.poly, self._dpoly, self._lines)
        self.nreal = len(reals)
        self.boxes = list(reals)
        for b in uppers:
            self.boxes += [b, b.conj()]
        # boxes narrower than gap / 2 lie within sqrt(2) gap < sep(p) of each
        # other only around one root, so two of them that overlap are a fault
        gap = _gap(self.poly) / 2
        while overlaps := [
            (a, b) for a, b in itertools.combinations(self.boxes, 2) if not a.disjoint(b)
        ]:
            if any(a.narrower(gap) and b.narrower(gap) for a, b in overlaps):
                raise NotConverged("two boxes narrower than the root separation overlap")
            for i in range(len(self.boxes)):
                if self.conj(i) >= i:  # a real or upper box; its conjugate follows
                    box = _refine_box_once(self.poly, self._dpoly, self.boxes[i], self._lines)
                    self.boxes[i], self.boxes[self.conj(i)] = box, box.conj()

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
        for _ in range(MAX_ROUNDS):
            if box.is_point() or box.narrower(width):
                break
            box = _refine_box_once(self.poly, self._dpoly, box, self._lines)
        else:
            raise NotConverged(f"root {i} was not refined below the width asked for")
        self.boxes[i] = box
        self.boxes[self.conj(i)] = box.conj()  # a real box is its own conjugate
        return box

    def locate(self, value_encloser) -> int:
        """Index of the root equal to a value known to be a root.

        `value_encloser(width)` returns a Box around the value; the answer
        is the only root whose box meets it.
        """
        width = SEED_WIDTH
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
        g = pgcd(g, self.poly)  # roots of g outside this set cannot mislead
        if degree(g) < 1:
            return False
        if self.is_real(i):
            # root i is the only root of self.poly in [a, b] and g divides the
            # squarefree self.poly, so g(root i) = 0 exactly when g changes
            # sign across [a, b] or vanishes at an end
            box = self.boxes[i]
            q = 1 << box.e
            return _sign(g, box.m[0], q) * _sign(g, box.m[1], q) <= 0
        dg = pderiv(g)
        for _ in range(MAX_ROUNDS):
            box = self.boxes[i]
            if not poly_eval_box(g, box).contains_zero():
                return False
            if _certify(g, dg, box) is not None:  # also settles an exact-point box
                return True
            self.refine(i, box.width() / 2)
        raise NotConverged("root membership test did not converge")


# ---------------------------------------------------------------------------
# The irreducible factor at a root


def _orbit_unions(roots: RootSet, target: int):
    """The unions of conjugation orbits that hold target's orbit, in
    ascending size, one at a time."""
    own = sorted({target, roots.conj(target)})
    d = len(roots.boxes)
    reals = [i for i in range(roots.nreal) if i not in own]
    pairs = [(i, i + 1) for i in range(roots.nreal, d, 2) if i not in own]
    for extra in range(d - len(own) + 1):
        for npairs in range(extra // 2 + 1):
            for rs in itertools.combinations(reals, extra - 2 * npairs):
                for ps in itertools.combinations(pairs, npairs):
                    yield own + list(rs) + [i for pair in ps for i in pair]


def _factor_at(roots: RootSet, target: int):
    """The monic irreducible rational factor of `roots.poly` that vanishes
    at root `target`: the first union of conjugation orbits around it whose
    root product certifies, or else the whole polynomial.  The factor at a
    root is unique, so the order within a size cannot change the answer."""
    den_bound = abs(roots.poly[-1])  # bounds a monic factor's denominators (Gauss)
    for n, subset in enumerate(_orbit_unions(roots, target)):
        if n == MAX_UNIONS:
            raise NotConverged(f"no factor among the first {MAX_UNIONS} orbit unions")
        if len(subset) == len(roots.boxes):  # the last union: no smaller one divides
            return poly([Fraction(c, roots.poly[-1]) for c in roots.poly])
        cand = _candidate_factor(roots, subset, den_bound, target)
        if cand is not None:
            return cand


def _bounded_rational(box: Box, den_bound):
    """The rational of denominator <= den_bound closest to the box's real
    midpoint, if the box holds it; else none of them is in the box."""
    r = box.re.mid().limit_denominator(den_bound)
    return None if box.disjoint(Box.point(r)) else r  # r enters through the boundary


def _candidate_factor(roots: RootSet, subset, den_bound, target):
    """prod_{i in subset} (x - root_i) if it is a factor, else None: rounded
    from coefficient boxes, confirmed by exact division and a certified zero
    at the target; rejected when a box (the trace's first) holds no rational
    of bounded denominator, or when a division fails at the uniqueness width."""
    unique_width = Fraction(1, 2 * den_bound * den_bound)
    for _ in range(MAX_ROUNDS):
        boxes = [roots.boxes[i] for i in subset]
        e = max(b.e for b in boxes)
        lo, hi = (sum(b.m[j] << e - b.e for b in boxes) for j in (0, 1))
        if _bounded_rational(Box((lo, hi, 0, 0), e), den_bound) is None:
            return None  # a factor's trace is such a rational
        coeffs = root_product(boxes)
        cand = []
        for cbox in coeffs[:-1]:
            r = _bounded_rational(cbox, den_bound)
            if r is None:
                return None  # a factor has such rational coefficients
            cand.append(r)
        candidate = poly(cand + [Fraction(1)])
        if not any(_prem(roots.poly, _primitive(candidate))) and roots.vanishes_at(
            candidate, target
        ):
            return candidate
        if all(c.re.width() < unique_width for c in coeffs):
            # intervals this tight pin the only possible rational factor
            return None
        for i in subset:
            roots.refine(i, roots.boxes[i].width() / 2)
    raise NotConverged("factor candidate refinement did not converge")
