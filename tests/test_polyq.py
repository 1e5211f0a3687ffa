"""L0 in `polyq`: integer Sturm chains and counts against sympy, a mutant
that must miscount, one chain per line, Newton before bisection, seeded real
boxes, one `RootSet` per polynomial, and the orbit-union factor search with
its trace test, its whole-set rule and its budget."""

import itertools
import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest

from toruscm import fixtures, polyq
from toruscm.boxes import Box
from toruscm.cm import cm_torus
from toruscm.numfield import NumberField
from toruscm.polyq import RootSet, _line, _root_count, count_roots, sturm_chain


def _squarefree(rng, max_degree, lead=(-3, -2, -1, 1, 2, 3)):
    """A seeded squarefree integer polynomial, ascending, of degree 1 ..
    max_degree; its leading coefficient may be negative."""
    while True:
        p = [rng.randint(-9, 9) for _ in range(rng.randint(1, max_degree))] + [rng.choice(lead)]
        if polyq.is_squarefree(p):
            return p


def _rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 7))


def _sympy_poly(p, var):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(c) for c in reversed(p)], var)


def _q(r):
    import sympy

    return sympy.Rational(r.numerator, r.denominator)


def test_count_roots_matches_sympy_at_rational_ends():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        p = _squarefree(rng, 10)
        chain = sturm_chain(p)
        # primitive integer members
        assert all(type(c) is int for f in chain for c in f)
        assert all(math.gcd(*f) == 1 for f in chain)
        sp = _sympy_poly(p, x)
        a = _rational(rng, -40, 40)
        b = a + _rational(rng, 1, 60)
        if sp.eval(_q(a)) == 0 or sp.eval(_q(b)) == 0:
            continue  # count_roots wants ends that are not roots
        assert count_roots(chain, a, b) == sp.count_roots(_q(a), _q(b)), (p, a, b)
        checked += 1
    assert checked > 150


def _positive_multiple(f, sp_poly):
    """f (ascending integers) is a positive multiple of the sympy Poly."""
    if not f or sp_poly.is_zero:
        return not f and sp_poly.is_zero
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(sp_poly.all_coeffs())]
    k = coeffs[-1] / f[-1]
    return k > 0 and len(coeffs) == len(f) and all(c == k * a for c, a in zip(coeffs, f))


def _gaussian_root_poly(rng):
    """A primitive integer polynomial with seeded roots x + iy of small
    denominators, and those roots."""
    roots = set()
    for _ in range(rng.randint(1, 3)):
        x, y = _rational(rng, -6, 6), Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        roots |= {(x, y), (x, -y)}
    linear = [[-x, 1] for x, y in roots if y == 0]
    pairs = [[x * x + y * y, -2 * x, 1] for x, y in roots if y > 0]
    return polyq._primitive(_product(linear + pairs)), sorted(roots)


def _product(factors):
    """The product of rational polynomials (ascending coefficients), by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = sympy.Poly(1, x)
    for f in factors:
        p *= sympy.Poly([sympy.Rational(str(c)) for c in reversed(f)], x)
    return polyq.poly(Fraction(str(c)) for c in reversed(p.all_coeffs()))


def test_line_chains_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t", real=True)
    rng = random.Random(5)
    on_line = 0
    for _ in range(120):
        p, roots = _gaussian_root_poly(rng)
        vertical = rng.random() < 0.5
        x0, y0 = rng.choice(roots)
        # half the lines pass through a root
        c = (x0 if vertical else y0) if rng.random() < 0.5 else _rational(rng, -8, 8)
        lines = {}
        chain, gcd = _line(p, lines, vertical, c.numerator, c.denominator)
        assert lines == {(vertical, c.numerator, c.denominator): (chain, gcd)}
        z = _q(c) + sympy.I * t if vertical else t + sympy.I * _q(c)
        value = sympy.expand(sum(coef * z**k for k, coef in enumerate(p)))
        u, v = (sympy.Poly(part, t) for part in (sympy.re(value), sympy.im(value)))
        members = list(chain) + [()] * 2
        if u.is_zero:  # the chain of (0, V) is [(), V]
            assert members[0] == () and _positive_multiple(members[1], v)
        else:
            assert _positive_multiple(members[0], u) and _positive_multiple(members[1], v)
        common = sympy.gcd(u, v)
        lo = _rational(rng, -10, 0) - Fraction(1, 3)
        hi = _rational(rng, 1, 10) + Fraction(1, 3)
        if common.degree() > 0 and 0 in (common.eval(_q(lo)), common.eval(_q(hi))):
            continue
        expected = int(common.count_roots(_q(lo), _q(hi))) if common.degree() > 0 else 0
        on_line += expected > 0
        assert count_roots(gcd, lo, hi) == expected
    assert on_line > 20


def test_root_count_matches_sympy_on_seeded_boxes():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(3)
    counted = 0
    for _ in range(80):
        p = _squarefree(rng, 6)
        lines = {}
        for _ in range(3):  # boxes of one polynomial share lines
            x0, y0 = _rational(rng, -6, 4), _rational(rng, -6, 4)
            box = Box.of(x0, x0 + _rational(rng, 1, 8), y0, y0 + _rational(rng, 1, 8))
            n = _root_count(p, box, lines)
            closed = _sympy_poly(p, x).count_roots(
                _q(box.re.lo) + sympy.I * _q(box.im.lo), _q(box.re.hi) + sympy.I * _q(box.im.hi)
            )
            if n is None:  # a root on the boundary
                assert closed > 0
            else:
                assert n == closed
                counted += n > 0
    assert counted > 30


def _signed_prem(f, g):
    """The mutant of `polyq._prem`: each step scales by lc(g), not |lc(g)|."""
    r = list(f)
    dg, lg = len(g) - 1, g[-1]
    while len(r) > dg:
        lr = r[-1]
        if lr:
            h = math.gcd(lr, lg)
            a, b = lg // h, lr // h
            k = len(r) - 1 - dg
            r = [a * c for c in r]
            for j, c in enumerate(g, k):
                r[j] -= b * c
        r.pop()
    return r


def test_chain_scaled_by_signed_lc_miscounts(monkeypatch):
    # even polynomials with a negative leading coefficient: the first
    # division by p' takes one step, so a signed lc flips a member's sign
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2)
    cases = []
    while len(cases) < 20:
        q = _squarefree(rng, 3, lead=(-3, -2, -1))
        p = [c for coef in q for c in (coef, 0)][:-1]  # q(x^2)
        if polyq.is_squarefree(p):
            cases.append(p)
    a, b = Fraction(-50, 3), Fraction(50, 3)

    def counts():
        return [count_roots(sturm_chain(p), a, b) for p in cases]

    truth = [_sympy_poly(p, x).count_roots(_q(a), _q(b)) for p in cases]
    assert counts() == truth
    monkeypatch.setattr(polyq, "_prem", _signed_prem)
    wrong = [p for p, got, want in zip(cases, counts(), truth) if got != want]
    assert wrong and all(p[-1] < 0 for p in wrong)


def test_each_line_gets_one_chain(monkeypatch):
    # near-coincident roots +-i and +-i sqrt(1 + e) are isolated by exact
    # counts; every line of every box they cut gets its chains once
    calls = []
    real = polyq.sturm_chain

    def counted(p, q=None):
        calls.append(1)
        return real(p, q)

    monkeypatch.setattr(polyq, "sturm_chain", counted)
    e = Fraction(1, 1 << 40)
    roots = RootSet(polyq.poly([1 + e, 0, 2 + e, 0, 1]))
    assert len(roots._lines) > 10
    assert len(calls) == 1 + 2 * len(roots._lines)  # the real chain, then 2 per line


@pytest.mark.parametrize("shift", [-1, 1], ids=["undercount", "overcount"])
def test_a_wrong_root_count_raises_at_the_separation_bound(shift, monkeypatch):
    # exact subdivision stops at Mahler's root separation bound: a count off
    # by one raises NotConverged on x^2 + 1 instead of halving without end
    real = polyq._root_count

    def wrong(p, box, lines=None):
        n = real(p, box, lines)
        return None if n is None else n + shift

    monkeypatch.setattr(polyq, "_durand_kerner", lambda p: None)  # no float seeds
    assert len(RootSet([1, 0, 1]).boxes) == 2
    monkeypatch.setattr(polyq, "_root_count", wrong)
    start = time.monotonic()
    with pytest.raises(polyq.NotConverged):
        RootSet([1, 0, 1])
    assert time.monotonic() - start < 5


def _numerator_sign(f, a, q=1):
    """A faulty `_sign` that drops the denominator q: the sign of f(a) in
    place of q^n f(a/q)."""
    acc = 0
    for c in reversed(f):
        acc = acc * a + c
    return (acc > 0) - (acc < 0)


@pytest.mark.parametrize("p", [[-2, 0, 1], [2000, 0, -100, 0, 1]], ids=["x^2-2", "F"])
def test_a_faulty_sign_raises_at_the_separation_bound(p, monkeypatch):
    # with signs that ignore the denominator, bisection keeps two boxes
    # around one root of x^2 - 2 (RootSet's separation loop spun there), and
    # the real isolation of F cuts one interval without end; both stop below
    # Mahler's gap
    monkeypatch.setattr(polyq, "_sign", _numerator_sign)
    start = time.monotonic()
    with pytest.raises(polyq.NotConverged):
        RootSet(p)
    assert time.monotonic() - start < 5


def test_refinement_gives_up_after_max_rounds(monkeypatch):
    roots = RootSet([-2, 0, 1])
    monkeypatch.setattr(polyq, "_refine_box_once", lambda p, dp, box, lines=None: box)
    assert roots.refine(0, roots.boxes[0].width() * 2) == roots.boxes[0]  # already narrow
    with pytest.raises(polyq.NotConverged):
        roots.refine(0, Fraction(1, 1 << 100))


def test_real_roots_take_newton_before_bisection(monkeypatch):
    calls = []
    real = polyq._bisect_real

    def counted(p, box):
        calls.append(box)
        return real(p, box)

    monkeypatch.setattr(polyq, "_bisect_real", counted)
    roots = RootSet([2000, 0, -100, 0, 1])  # the real value field of Q(zeta5)
    assert roots.nreal == 4 and all(b.width() < Fraction(1, 1 << 8) for b in roots.boxes)
    assert len(calls) <= 10


def test_zeta5_cm_torus_builds_nothing_above_the_degree_of_k(monkeypatch):
    # I is read in K = Q(zeta5) and F: no RootSet or NumberField of degree
    # above [K:Q] = 4 is built, such as one for Q(zeta5, i)
    degrees = []
    roots_init, field_init = RootSet.__init__, NumberField.__init__

    def roots_counted(self, p, *rest):
        roots_init(self, p, *rest)
        degrees.append(polyq.degree(self.poly))

    def field_counted(self, minpoly, *rest, **kw):
        field_init(self, minpoly, *rest, **kw)
        degrees.append(self.degree)

    inp = fixtures.zeta5_cm_input()
    monkeypatch.setattr(RootSet, "__init__", roots_counted)
    monkeypatch.setattr(NumberField, "__init__", field_counted)
    cm_torus(inp)
    assert degrees and max(degrees) <= 4


def _closed_unions(roots, target):
    """Brute force: every conj-closed root subset holding target."""
    d = len(roots.boxes)
    return [
        sorted(s)
        for size in range(1, d + 1)
        for s in itertools.combinations(range(d), size)
        if target in s and {roots.conj(i) for i in s} == set(s)
    ]


@pytest.mark.parametrize(
    "factors",
    [
        [[16, 16, 8, 0, -4, 0, 2, 2, 1]],  # L for Q(zeta5): four conjugate pairs
        [[-1, 1], [2, 1], [1, 0, 1], [3, 0, 1]],  # two real roots and two pairs
    ],
    ids=["L_zeta5", "mixed"],
)
def test_factor_search_tries_only_orbit_unions(factors, monkeypatch):
    factors = [polyq.poly(f) for f in factors]
    roots = RootSet(_product(factors))
    tried = []
    real = polyq._candidate_factor

    def counted(roots, subset, den_bound, target):
        tried.append(sorted(subset))
        return real(roots, subset, den_bound, target)

    monkeypatch.setattr(polyq, "_candidate_factor", counted)
    yielded = []  # every tuple the search draws from itertools.combinations

    class Combinations:
        @staticmethod
        def combinations(xs, r):
            for c in itertools.combinations(xs, r):
                yielded.append(c)
                yield c

    monkeypatch.setattr(polyq, "itertools", Combinations)
    orbits = {frozenset({i, roots.conj(i)}) for i in range(len(roots.boxes))}
    for target in range(len(roots.boxes)):
        unions = _closed_unions(roots, target)
        assert len(unions) == 2 ** (len(orbits) - 1)
        sizes = [len(s) for s in polyq._orbit_unions(roots, target)]
        assert sizes == sorted(sizes)
        assert sorted(map(sorted, polyq._orbit_unions(roots, target))) == sorted(unions)
        tried.clear()
        yielded.clear()
        factor = polyq._factor_at(roots, target)
        assert factor in factors and roots.vanishes_at(factor, target)
        assert len(tried) <= len(unions) and all(s in unions for s in tried)
        # one draw per union and at most one per choice of real orbits, never
        # the 2^d - 1 root subsets of a scan
        assert len(yielded) <= 2 * len(unions) < 2 ** len(roots.boxes) - 1


@pytest.mark.parametrize("p", [[5, 0, -5, 0, 1], [2000, 0, -100, 0, 1]], ids=["K", "F"])
def test_seeded_real_roots_take_no_newton_step(p, monkeypatch):
    # the real fields of Q(zeta5): every real box comes from the float seed,
    # certified by integer signs, so no interval-Newton step runs
    calls = []
    real = polyq.newton_step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(polyq, "newton_step", counted)
    roots = RootSet(p)
    assert roots.nreal == 4 and not calls


@pytest.mark.parametrize(
    "p, nreal",
    [
        ([-(10**400), 0, 1], 2),
        ([-(10**401), 0, 0, 1], 1),
        ([-1, 0, 10**400], 2),
        ([-1, 0, 10**250], 2),
    ],
    ids=["2", "3", "1/10^400", "1/10^250"],
)
def test_real_roots_beyond_float_range_take_few_newton_steps(p, nreal, monkeypatch):
    # the float seed overflows; bisecting on bit lengths and exact Newton
    # steps seed the roots 10^200 (an exact point) and -10^200, or 10^(401/3),
    # where some 1300 interval-Newton steps used to run; the roots +-10^-200
    # are seeded on a grid taken from their binade, far finer than 2^-12; at
    # +-10^-125 floats do not overflow but miss, and the exact seed takes
    # over where 834 interval-Newton steps used to run
    calls = []
    real = polyq.newton_step

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(polyq, "newton_step", counted)
    roots = RootSet(p)
    assert roots.nreal == nreal and len(calls) <= 20


@pytest.mark.parametrize(
    "factors, seeded",
    [
        ([[-(10**400), 0, 1]], True),  # floats overflow: an exact seed
        ([[-1, 0, 10**400]], True),  # the same, for roots +-10^-200
        ([[-1, 0, 10**250]], True),  # floats miss the roots +-10^-125: an exact seed
        ([[-1, 3], [-2, 0, 1]], True),  # 1/3 stays a box that is not a point
        ([[0, 1], [-1, 1]], True),  # x^2 - x: exact points 0 and 1
        ([[-3, 1]], True),  # the exact point 3
    ],
    ids=["x^2-10^400", "10^400x^2-1", "10^250x^2-1", "(3x-1)(x^2-2)", "x^2-x", "x-3"],
)
def test_seeded_real_boxes_match_sympy(factors, seeded, monkeypatch):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    seeds = []
    real = polyq._seeded_real

    def recorded(p, dp, box):
        seeds.append(real(p, dp, box))
        return seeds[-1]

    monkeypatch.setattr(polyq, "_seeded_real", recorded)
    p = _product([polyq.poly(f) for f in factors])
    roots = RootSet(p)
    exact = sympy.Poly([int(c) for c in reversed(roots.poly)], x).real_roots()
    assert roots.nreal == len(exact) == len(seeds)
    assert all((s is not None) == seeded for s in seeds)
    boxes = roots.boxes[: roots.nreal]
    assert all(a.disjoint(b) for a, b in itertools.combinations(boxes, 2))
    for box, r in zip(boxes, exact):
        assert box.width() < polyq.REAL_WIDTH and box.im == Box.point(0).im
        r = Fraction(int(r.p), int(r.q)) if r.is_rational else None
        if r is None:  # sqrt 2 and -sqrt 2: a sign change across the box
            assert polyq._sign(roots.poly, *box.re.lo.as_integer_ratio()) * polyq._sign(
                roots.poly, *box.re.hi.as_integer_ratio()
            ) < 0
        else:  # a seeded box is a point exactly at an integer root
            assert box.re.lo <= r <= box.re.hi
            assert not seeded or box.is_point() == (r.denominator == 1)


@pytest.mark.parametrize(
    "p",
    [[2, 10**300, 0, 1], [-1, 0, 0, 10**400], [1, 0, 10**400], [3, 0, 10**300, 0, 1]],
    ids=["a", "b", "c", "d"],
)
def test_the_subdivision_reaches_its_floor_by_exponent_cuts(p, monkeypatch):
    # floats overflow, or lose d's upper root near 1.7 10^-150 i, so the
    # upper roots come from exact subdivision of the box above a floor below
    # the separation bound, found with no search; one halving per count used
    # to take 499, 445 and 666 counts, and 1026 for d; every box holds one
    # root, by sympy's exact count
    sympy = pytest.importorskip("sympy")
    calls = []
    real = polyq._root_count

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(polyq, "_root_count", counted)
    roots = RootSet(p)
    assert len(calls) <= 40
    sp = sympy.Poly(list(reversed(p)), sympy.Symbol("x"))
    assert roots.nreal == len(sp.real_roots()) and len(roots.boxes) == len(p) - 1
    for box in roots.boxes:
        rl, rh, il, ih = (sympy.Rational(m, 2**box.e) for m in box.m)
        assert sp.count_roots(rl + il * sympy.I, rh + ih * sympy.I) == 1


def test_real_isolation_cuts_across_scales_by_exponent(monkeypatch):
    # the roots 10^-150, 10^-149 and 1: the Sturm counts cut a side of one
    # sign at its middle bit length, where one halving per count used to
    # take 500 counts; every real box holds one root, by sympy's exact count
    sympy = pytest.importorskip("sympy")
    calls = []
    real = polyq.count_roots

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(polyq, "count_roots", counted)
    p = _product([[-1, 10**150], [-1, 10**149], [-1, 1]])
    roots = RootSet(p)
    assert len(calls) <= 20
    sp = sympy.Poly([int(c) for c in reversed(roots.poly)], sympy.Symbol("x"))
    assert roots.nreal == 3 == len(roots.boxes)
    for box in roots.boxes:
        lo, hi = (sympy.Rational(m, 2**box.e) for m in box.m[:2])
        assert sp.count_roots(lo, hi) == 1


def test_root_bound_holds_every_root_by_sympy_count():
    # Fujiwara's bound from bit lengths: every root of a seeded squarefree
    # polynomial with coefficients of 1 to 30 digits lies in the closed
    # square [-B, B]^2, by sympy's exact count
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    checked = 0
    while checked < 400:
        d = rng.randint(1, 9)
        p = [rng.choice((-1, 1)) * rng.randint(0, 10 ** rng.randint(0, 30)) for _ in range(d)]
        p.append(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(0, 30)))
        if not polyq.is_squarefree(p):
            continue
        b = polyq.root_bound(p)
        assert sympy.Poly(list(reversed(p)), x).count_roots(-b - b * sympy.I, b + b * sympy.I) == d
        checked += 1


@pytest.mark.parametrize("p", [[5, 0, -5, 0, 1], [2, -6, -1, 3]], ids=["K", "(3x-1)(x^2-2)"])
def test_a_float_seed_that_misses_falls_back(p, monkeypatch):
    # floats that converge 0.01 off each root only pick grid points, and the
    # exact seed is made to miss too (it picks the interval's end): the
    # integer signs refuse every seeded box, and Newton cuts take over
    sympy = pytest.importorskip("sympy")
    real, seed, seeds = polyq._float_eval, polyq._seeded_real, []

    def recorded(p, dp, box):
        seeds.append(seed(p, dp, box))
        return seeds[-1]

    monkeypatch.setattr(polyq, "_float_eval", lambda cs, x: real(cs, x - 0.01))
    monkeypatch.setattr(polyq, "_exact_seed", lambda p, dp, a, b, e, k: (a << k - e, k))
    monkeypatch.setattr(polyq, "_seeded_real", recorded)
    roots = RootSet(p)
    exact = sympy.Poly(list(reversed(p)), sympy.Symbol("x")).real_roots()
    assert roots.nreal == len(exact) == len(seeds) == len(p) - 1
    assert seeds == [None] * len(seeds)
    for box, r in zip(roots.boxes, exact):
        lo, hi = (sympy.Rational(v.numerator, v.denominator) for v in (box.re.lo, box.re.hi))
        assert box.width() < polyq.REAL_WIDTH and lo <= r <= hi


@pytest.mark.parametrize(
    "factors",
    [
        [[16, 16, 8, 0, -4, 0, 2, 2, 1]],  # L for Q(zeta5)
        [[-1, 1], [2, 1], [1, 0, 1], [3, 0, 1]],  # the mixed product above
        [[1, 1, 1, 1, 1]],  # Phi5
        [[5, 0, -5, 0, 1]],  # Q(2 sin 2pi/5)
        [[-1, 3], [-2, 0, 1]],  # a leading coefficient 3: den_bound 3
    ],
    ids=["L_zeta5", "mixed", "Phi5", "K", "(3x-1)(x^2-2)"],
)
def test_root_products_pass_the_trace_test_and_never_take_the_whole_set(factors, monkeypatch):
    factors = [polyq.poly(f) for f in factors]
    monic = [polyq.poly([c / f[-1] for c in f]) for f in factors]
    roots = RootSet(_product(factors))
    den_bound = abs(roots.poly[-1])
    products = []
    real = polyq.root_product

    def recorded(zs):
        products.append(list(zs))
        return real(zs)

    monkeypatch.setattr(polyq, "root_product", recorded)
    for target in range(len(roots.boxes)):
        factor = polyq._factor_at(roots, target)
        assert factor in monic and roots.vanishes_at(factor, target)
    for zs in products:
        assert len(zs) < len(roots.boxes)
        # the trace interval holds a rational of denominator <= den_bound
        lo, hi = sum(z.re.lo for z in zs), sum(z.re.hi for z in zs)
        assert any(math.ceil(lo * q) <= math.floor(hi * q) for q in range(1, den_bound + 1))
    assert products or len(factors) == 1


def test_orbit_union_budget_raises_and_the_cli_exits_2(monkeypatch, capsys):
    from toruscm.cli import run
    from toruscm.numfield import make_field

    monkeypatch.setattr(polyq, "MAX_UNIONS", 1)
    with pytest.raises(polyq.NotConverged, match="orbit unions"):
        make_field([5, 0, -5, 0, 1]).irreducible
    fixture = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "zeta5.json"
    assert run(["torus", "validate", "--torus", str(fixture)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["error"].startswith("NotConverged")
