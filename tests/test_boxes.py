"""The fixed-point kernel of `boxes` against exact complex Fraction arithmetic:
every enclosure holds the exact value and lands on the dyadic grid, and a
dyadic point is evaluated exactly.  Rational boxes enter through `Box.of`,
which rounds non-dyadic ends outward."""

import math
from fractions import Fraction

import pytest

from toruscm import polyq
from toruscm.boxes import Box, newton_step, poly_eval_box, root_product


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    re, im = _cmul(a, (b[0], -b[1]))
    return re / n, im / n


def _peval(p, z):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(p):
        re, im = _cmul(acc, z)
        acc = (re + c, im)
    return acc


def _holds(box, z):
    return box.re.lo <= z[0] <= box.re.hi and box.im.lo <= z[1] <= box.im.hi


def _dyadic(box):
    ends = (box.re.lo, box.re.hi, box.im.lo, box.im.hi)
    return all(e.denominator & (e.denominator - 1) == 0 for e in ends)


def _grid(z):
    """The point z rounded to 2^-40, a dyadic point."""
    return tuple(Fraction(round(c * (1 << 40)), 1 << 40) for c in z)


def _strategies():
    from hypothesis import strategies as st

    # non-dyadic rationals (a denominator with an odd factor), and dyadic
    # ones, whose products at the corners fill the bits below the grid
    odd = st.integers(1, 10**6).map(lambda k: 2 * k + 1)
    den = st.one_of(odd, st.integers(0, 80).map(lambda j: 1 << j))
    centre = st.builds(Fraction, st.integers(-(10**15), 10**15), den)
    # half-width 2^-k, or 2^-k times a non-dyadic factor in [1/2, 1)
    factor = st.one_of(st.just(1), odd.map(lambda a: Fraction(a + 7, 2 * a + 7)))
    half = st.builds(lambda k, f: Fraction(1, 1 << k) * f, st.integers(2, 60), factor)
    ends = st.builds(
        lambda x, y, hx, hy, real: (x - hx, x + hx) + ((0, 0) if real else (y - hy, y + hy)),
        centre, centre, half, half, st.booleans(),
    )
    box = ends.map(lambda r: Box.of(*r))
    coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))
    # rational coefficients enter as integer numerators over one denominator
    poly = st.lists(coeff, min_size=2, max_size=7).map(polyq.poly).filter(
        lambda p: polyq.degree(p) >= 1
    ).map(polyq._primitive)
    return st, box, poly, ends


def _product(points):
    """Ascending exact coefficients of prod (x - z) over the points z."""
    exact = [(Fraction(1), Fraction(0))]
    for z in points:
        shifted = [(Fraction(0), Fraction(0))] + exact
        prods = [_cmul(c, z) for c in exact] + [(Fraction(0), Fraction(0))]
        exact = [(a[0] - b[0], a[1] - b[1]) for a, b in zip(shifted, prods)]
    return exact


def test_box_of_holds_the_rational_box_and_keeps_dyadic_ends():
    hypothesis = pytest.importorskip("hypothesis")
    st, _, _, ends = _strategies()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(ends)
    def check(r):
        box = Box.of(*r)
        assert _dyadic(box)
        assert _holds(box, r[0::2]) and _holds(box, r[1::2])
        assert Box.of(box.re.lo, box.re.hi, box.im.lo, box.im.hi) == box

    check()
    dyadic = Box.of(Fraction(-1, 2), Fraction(3, 4))
    assert (dyadic.re.lo, dyadic.re.hi, dyadic.e) == (Fraction(-1, 2), Fraction(3, 4), 2)
    assert Box.point(16).is_point() and Box.point(16) == Box.point(Fraction(32, 2))
    third = Box.point(Fraction(1, 3))  # not dyadic: a box around it
    assert third.lo < Fraction(1, 3) < third.hi
    assert third.narrower(Fraction(1, 1 << 64))
    with pytest.raises(ValueError, match="empty"):
        Box.of(1, 0)


def _points_in(st, box):
    """A rational point of the box: a corner, the midpoint or between."""
    t = st.builds(Fraction, st.integers(0, 1000), st.just(1000))
    return st.tuples(t, t).map(
        lambda ts: (box.re.lo + ts[0] * box.re.width(), box.im.lo + ts[1] * box.im.width())
    )


def test_poly_eval_box_encloses_the_exact_values():
    hypothesis = pytest.importorskip("hypothesis")
    st, boxes, polys, _ = _strategies()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(boxes, polys, st.data())
    def check(box, p, data):
        enclosure = poly_eval_box(p, box)
        assert _dyadic(enclosure)
        for _ in range(3):
            z = data.draw(_points_in(st, box))
            exact = _peval(p, z)
            assert _holds(enclosure, exact)
            point = _grid(z)
            assert poly_eval_box(p, Box.point(*point)) == Box.point(*_peval(p, point))

    check()


def test_newton_step_encloses_the_exact_image_at_the_midpoint():
    hypothesis = pytest.importorskip("hypothesis")
    st, boxes, polys, _ = _strategies()
    images = []

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(boxes, polys)
    def check(box, p):
        image = newton_step(p, polyq.pderiv(p), box)
        if image is None:  # p' may vanish on the box
            return
        images.append(image)
        m = (box.re.mid(), box.im.mid())
        exact = _cdiv(_peval(p, m), _peval(polyq.pderiv(p), m))
        assert _holds(image, (m[0] - exact[0], m[1] - exact[1]))
        assert _dyadic(image)

    check()
    assert len(images) > 100


def test_root_product_encloses_the_exact_coefficients():
    hypothesis = pytest.importorskip("hypothesis")
    st, boxes, _, _ = _strategies()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(boxes, min_size=1, max_size=4), st.data())
    def check(zs, data):
        points = [data.draw(_points_in(st, z)) for z in zs]
        exact = _product(points)
        got = root_product(zs)
        assert len(got) == len(exact)
        assert all(_holds(box, c) for box, c in zip(got, exact))
        assert all(_dyadic(box) for box in got)
        grid = [_grid(z) for z in points]
        exact_points = root_product([Box.point(*z) for z in grid])
        assert exact_points == [Box.point(*c) for c in _product(grid)]

    check()


def test_approx_reads_a_midpoint_beyond_float_range_as_inf():
    # the roots +-10^400 i lie beyond float range, so the midpoint of a box
    # around one of them reads as inf
    from toruscm.numfield import make_field

    z = polyq.RootSet((10**800, 0, 1)).boxes[0].approx()
    assert math.isinf(abs(z))
    assert "inf" in repr(make_field([10**800, 0, 1]).embeddings()[0])
    assert Box.of(-(10**400), -(10**400), 1, 1).approx() == complex(-math.inf, 1)
