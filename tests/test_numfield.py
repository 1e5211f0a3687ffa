import cmath
import math
import random
from fractions import Fraction

import pytest

from toruscm import numfield, polyq
from toruscm.boxes import Box
from toruscm.exactla import FieldMatrix
from toruscm.numfield import (
    ConjNotAutomorphism,
    ConjNotInvolution,
    Embedding,
    FieldElement,
    NotConverged,
    NotSquarefree,
    RootSet,
    ZeroDivisor,
    exact_sign,
    exact_sign_imag,
    make_field,
    minpoly_factor_at,
    rationals,
    trace_q,
)


def gaussian():
    return make_field([1, 0, 1], conj_image=[0, -1])


def zeta5():
    return make_field([1, 1, 1, 1, 1], conj_image=[-1, -1, -1, -1])


def test_make_field_gaussian_conj():
    f = gaussian()
    assert f.degree == 2
    i = f.gen()
    assert f.conj(i) == -i
    assert f.conj(f.conj(i)) == i


def test_make_field_zeta5():
    f = zeta5()
    xi = f.gen()
    assert xi**5 == f.one()
    assert f.conj(xi) == xi**4


def test_make_field_rejects_square():
    with pytest.raises(NotSquarefree):
        make_field([0, 0, 1])  # x^2 has a double root


def test_make_field_allows_reducible_squarefree():
    f = make_field([0, -1, 1])  # x^2 - x = x(x-1)
    assert f.degree == 2


def test_field_element_truth_is_nonzero():
    f = make_field([-5, 0, 1])
    rng = random.Random(73)
    elems = [f.zero(), f.one(), f.gen(), f.gen() - f.gen()]
    elems += [f.element([rng.choice([0, rng.randint(-3, 3)]) for _ in range(2)]) for _ in range(20)]
    for x in elems:
        assert bool(x) is not x.is_zero()


def test_conj_must_be_automorphism():
    with pytest.raises(ConjNotAutomorphism):
        make_field([1, 0, 1], conj_image=[1, 1])


def test_conj_must_be_involution():
    # xi -> xi^2 is an automorphism of Q(zeta5) of order 4
    with pytest.raises(ConjNotInvolution):
        make_field([1, 1, 1, 1, 1], conj_image=[0, 0, 1, 0])


def test_coerce_is_one_rule_for_elements_and_matrices():
    # FieldMatrix entries and element operands go through NumberField.coerce
    f, other = zeta5(), gaussian()
    x = f.gen()
    for mixed in (lambda: FieldMatrix(f, [[x, other.gen()]]), lambda: x * other.gen()):
        with pytest.raises(ValueError, match="field mismatch"):
            mixed()
    twin = zeta5()  # equal to f, a distinct object
    assert twin is not f and twin == f
    assert FieldMatrix(f, [[twin.gen()]])[0, 0] == x and x * twin.gen() == x * x
    for floating in (lambda: FieldMatrix(f, [[0.5]]), lambda: x * 0.5, lambda: f.coerce(0.5)):
        with pytest.raises(TypeError):
            floating()


def test_embeddings_gaussian():
    f = gaussian()
    embs = f.embeddings(Fraction(1, 1 << 20))
    assert len(embs) == 2
    assert not any(e.is_real for e in embs)
    vals = sorted(e.enclosure().approx().imag for e in embs)
    assert abs(vals[0] + 1) < 1e-5 and abs(vals[1] - 1) < 1e-5
    assert embs[0].conj_index == 2 and embs[1].conj_index == 1


def test_embeddings_zeta5_match_roots_of_unity():
    f = zeta5()
    embs = f.embeddings(Fraction(1, 1 << 20))
    assert len(embs) == 4
    targets = [cmath.exp(2j * cmath.pi * k / 5) for k in range(1, 5)]
    for e in embs:
        z = e.enclosure().approx()
        assert min(abs(z - t) for t in targets) < 1e-5
    # pairwise disjoint enclosures
    for i in range(4):
        for j in range(i + 1, 4):
            assert embs[i].enclosure().disjoint(embs[j].enclosure())


def test_embeddings_sqrt5_real():
    f = make_field([-5, 0, 1])
    embs = f.embeddings(Fraction(1, 1 << 30))
    assert [e.is_real for e in embs] == [True, True]
    # bisection oracle: sqrt(5) in (2.2360679, 2.2360680)
    lo, hi = (e.enclosure().re for e in embs)
    assert abs(float(lo.mid()) + 2.23606797) < 1e-6
    assert abs(float(hi.mid()) - 2.23606797) < 1e-6


def test_embedding_refinement_monotone():
    f = zeta5()
    e = f.embeddings()[0]
    w0 = e.enclosure().width()
    e.refine(w0 / (1 << 12))
    w1 = e.enclosure().width()
    assert w1 < w0
    # still encloses a root: interval evaluation of the minpoly allows zero
    from toruscm.boxes import poly_eval_box

    assert poly_eval_box(f.roots.poly, e.enclosure()).contains_zero()


def test_exact_sign_zero():
    f = make_field([-5, 0, 1])
    assert exact_sign(f.zero(), f.embeddings()[0]) == 0


def test_exact_sign_sqrt5():
    f = make_field([-5, 0, 1])
    neg, pos = f.embeddings()
    assert exact_sign(f.gen(), pos) == 1
    assert exact_sign(f.gen(), neg) == -1


def test_exact_sign_totally_positive_beta_square():
    f = zeta5()
    xi = f.gen()
    beta = xi - xi**4
    val = -(beta * beta)
    for e in f.embeddings():
        assert exact_sign(val, e) == 1
    # numeric cross-check: 2 - 2cos(4 pi k / 5) > 0 at every root
    for k in range(1, 5):
        w = cmath.exp(2j * cmath.pi * k / 5)
        assert (2 - w**2 - w**-2).real > 0


def test_exact_sign_zero_divisor_fallback():
    # x^2 - x splits as x(x-1): gen vanishes at the root 0 only
    f = make_field([0, -1, 1])
    e0, e1 = f.embeddings()
    signs = sorted(exact_sign(f.gen(), e) for e in (e0, e1))
    assert signs == [0, 1]


@pytest.mark.parametrize(
    "minpoly",
    [[1, 0, 1], [-5, 0, 1], [1] * 5, [16, 16, 8, 0, -4, 0, 2, 2, 1]],
    ids=["i-without-conj", "sqrt5", "zeta5", "L8"],
)
def test_a_rational_signs_itself_under_every_embedding(minpoly, monkeypatch):
    # a rational is its own image, so it is real under a non-real embedding
    # too, also in a field without conj (Q(i) here, which used to raise
    # NotRealUnderEmbedding), and its sign needs no enclosure
    f = make_field(minpoly)
    assert not f.has_conj
    embs, calls = f.embeddings(), []
    box, refine = numfield.poly_eval_box, Embedding.refine
    monkeypatch.setattr(numfield, "poly_eval_box", lambda *a: calls.append("box") or box(*a))
    monkeypatch.setattr(Embedding, "refine", lambda *a: calls.append("refine") or refine(*a))
    for e in embs:
        for r in [-3, Fraction(-1, 7), 0, Fraction(5, 2), 10**30 + 1]:
            assert exact_sign(f.from_rational(r), e) == (r > 0) - (r < 0)
    assert calls == []
    # an irrational sign under a real embedding reads boxes, so the counts are live
    for e in f.real_embeddings() if f.degree > 1 else []:
        exact_sign(f.gen(), e)
    assert bool(calls) == (minpoly == [-5, 0, 1])


def test_exact_sign_imag_on_beta():
    f = zeta5()
    xi = f.gen()
    beta = xi - xi**4
    by_index = {e.index: exact_sign_imag(beta, e) for e in f.embeddings()}
    # images are 2i sin(2 pi k/5): positive on the upper-half embeddings
    for e in f.embeddings():
        z = e.enclosure().approx()
        expected = 1 if (z - z.conjugate()).imag > 0 else -1
        assert by_index[e.index] == expected


def test_trace_identity_is_degree():
    for mp in ([1, 0, 1], [1, 1, 1, 1, 1], [-2, 0, 0, 0, 1]):
        f = make_field(mp)
        assert trace_q(f.one()) == len(mp) - 1


def test_trace_zeta5_generator():
    assert trace_q(zeta5().gen()) == -1


def test_trace_gaussian():
    f = gaussian()
    rng = random.Random(7)
    for _ in range(10):
        a, b = Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(rng.randint(-9, 9))
        x = f.element([a, b])
        assert trace_q(x) == 2 * a


def test_trace_linear_and_conj_invariant():
    f = zeta5()
    rng = random.Random(11)
    for _ in range(20):
        x = f.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)])
        y = f.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)])
        assert trace_q(x + y) == trace_q(x) + trace_q(y)
        assert trace_q(f.conj(x)) == trace_q(x)
        assert trace_q(f.conj(x) * f.conj(y)) == trace_q(x * y)


def test_conj_divides_by_the_denominator_without_an_inverse(monkeypatch):
    # conj(num / den) is conj(num) over den: the conjugate of a non-integral
    # element takes no inverse of den, where it used to take one each
    f = zeta5()
    rng = random.Random(13)
    xs = [
        f.element([Fraction(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(4)])
        for _ in range(20)
    ]
    cg = f.conj(f.gen())  # xi^4
    want = [f.evaluate(x.coords, cg) for x in xs]
    calls = []
    real = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda self: calls.append(1) or real(self))
    got = [f.conj(x) for x in xs]
    assert got == want and not calls
    assert sum(x.den > 1 for x in xs) > 10
    assert all(math.gcd(y.den, *y.num) == 1 and f.conj(y) == x for x, y in zip(xs, got))


def test_element_inverse_and_pow():
    f = zeta5()
    xi = f.gen()
    assert xi * xi.inverse() == f.one()
    assert xi ** (-1) == xi**4


@pytest.mark.parametrize("bad", [0.1, 0.5, 2.0, True, False], ids=repr)
def test_rational_constructors_refuse_floats_and_bools(bad):
    # 0.1 would be 3602879701896397/2^55, and True would be 1
    qq, f = rationals(), make_field([5, 0, -5, 0, 1])
    builders = [
        qq.from_rational,
        f.from_rational,
        lambda x: f.element([x, 0]),
        lambda x: f.element([0, 0, 0, x]),
        lambda x: FieldMatrix(qq, [[x]]),
        lambda x: FieldMatrix(f, [[1, x]]),
        lambda x: f.gen() * x,
        lambda x: make_field([x, 0, 1]),
    ]
    for build in builders:
        with pytest.raises(TypeError):
            build(bad)
    # ints, Fractions and rational strings are the accepted spellings
    assert f.element([1, Fraction(1, 10), "1/10", "0.1"]) == f.element([1] + [Fraction(1, 10)] * 3)
    assert qq.from_rational("-3/6") == Fraction(-1, 2)


def test_rational_elements_hash_as_their_value():
    for f in (rationals(), make_field([-5, 0, 1]), zeta5()):
        assert len({f.one(), 1}) == 1 and hash(f.one()) == hash(1)
        assert len({f.zero(), 0, Fraction(0)}) == 1
        half = f.from_rational(Fraction(1, 2))
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert len({half, Fraction(1, 2), f.one() / 2}) == 1
        assert f.from_rational(-7) in {-7} and f.from_rational(Fraction(-7, 3)) in {Fraction(-7, 3)}
    r5 = make_field([-5, 0, 1]).gen()
    assert r5 != 0 and len({r5, r5 * 1, (r5 + 1) - 1}) == 1


def test_canonical_form_survives_every_operation():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # fields with a conjugation, so conj is an operation too
    fields = [
        rationals(),
        gaussian(),
        zeta5(),
        make_field([5, 0, -5, 0, 1], conj_image=[0, 1]),
    ]
    dens = st.sampled_from([1, 2, 3, 9, 10007, 65537, 999983, 2**61 - 1])
    rational = st.builds(Fraction, st.integers(-(10**12), 10**12), dens)

    def canonical(x):
        return x.den >= 1 and math.gcd(x.den, *x.num) == 1 and len(x.num) == x.field.degree

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        f = data.draw(st.sampled_from(fields))
        coords = st.lists(rational, min_size=f.degree, max_size=f.degree)
        x, y = f.element(data.draw(coords)), f.element(data.draw(coords))
        p = data.draw(st.lists(rational, min_size=1, max_size=4))
        results = [x + y, x - y, -x, x * y, f.dot([x, y, x], [y, x, x]), x.conj(), f.evaluate(p, x)]
        results += [x.inverse()] if x else []
        for z in [x, y] + results:
            assert canonical(z)
            assert f.element(z.coords) == z
        # the same value reached two ways has the same (num, den) and hash
        for a, b in [(x * y, y * x), ((x + y) - y, x), (x - x, f.zero()), (-(-x), x)]:
            assert (a.num, a.den, hash(a)) == (b.num, b.den, hash(b))
        if x:
            one = x * x.inverse()
            assert (one.num, one.den, hash(one)) == (f.one().num, f.one().den, hash(1))

    check()


def test_rationals_field():
    qq = rationals()
    assert qq.degree == 1
    e = qq.embeddings()[0]
    assert e.is_real
    assert exact_sign(qq.from_rational(Fraction(-3, 7)), e) == -1


def test_rational_roots_embed_as_exact_points():
    # the first Newton step on an isolating interval lands on these roots
    fields = [(rationals(), 0), (make_field([0, 1], [0]), 0), (make_field([-3, 1]), 3)]
    for f, root in fields:
        assert f.embeddings()[0].enclosure() == Box.point(root)


def test_isolate_real_roots_rejects_a_square():
    with pytest.raises(ValueError, match="squarefree"):
        polyq.isolate_real_roots(polyq.poly([0, 0, -1, 1]))  # x^2 (x - 1)


def _point_encloser(v, widths):
    def enclose(width):
        widths.append(width)
        return Box.of(v - width / 2, v + width / 2)

    return enclose


def test_locate_refines_between_close_rational_roots():
    a = Fraction(1, 3)
    b = a + Fraction(1, 1 << 22)  # closer than 2^-20
    roots = RootSet(polyq.poly([a * b, -a - b, 1]))  # (x - a)(x - b)
    widths = []
    assert roots.locate(_point_encloser(a, widths)) == 0
    assert len(widths) > 1  # the first enclosure met both root boxes
    assert roots.locate(_point_encloser(b, [])) == 1
    assert roots.boxes[0].disjoint(roots.boxes[1])


def test_locate_raises_not_converged_when_encloser_ignores_width():
    roots = RootSet([-2, 0, 1])
    with pytest.raises(NotConverged):
        roots.locate(lambda width: Box.of(-2, 2, -1, 1))


@pytest.mark.parametrize(
    "p, g, g_roots",
    [
        # (x^2-2)(x^2-3) against x^2-2
        ([6, 0, -5, 0, 1], [-2, 0, 1], [2**0.5, -(2**0.5)]),
        # (x^2+2)(x^2+3) against x^2+2
        ([6, 0, 5, 0, 1], [2, 0, 1], [1j * 2**0.5, -1j * 2**0.5]),
    ],
)
def test_vanishes_at(p, g, g_roots):
    roots = RootSet(p)
    # read the roots of g off the boxes: the two upper roots of (x^2+2)(x^2+3)
    # tie on real part 0, so their order is not fixed
    expected = [any(abs(b.approx() - z) < 0.1 for z in g_roots) for b in roots.boxes]
    assert sum(expected) == 2
    assert [roots.vanishes_at(polyq.poly(g), i) for i in range(len(roots.boxes))] == expected


def test_vanishes_at_exact_point_root():
    # x^2 - 1: the Sturm intervals (-2, 0] and (0, 2] have the roots -1 and 1
    # as midpoints, where the first Newton step lands exactly
    intervals = polyq.isolate_real_roots(polyq.poly([-1, 0, 1]))
    assert [(b.re.lo, b.re.hi) for b in intervals] == [(-2, 0), (0, 2)]
    roots = RootSet([-1, 0, 1])
    for i in range(2):
        roots.refine(i, Fraction(1, 1 << 30))
    assert [b.width() for b in roots.boxes] == [0, 0]
    x_plus_1, x_minus_1 = polyq.poly([1, 1]), polyq.poly([-1, 1])
    assert [roots.vanishes_at(x_plus_1, i) for i in range(2)] == [True, False]
    assert [roots.vanishes_at(x_minus_1, i) for i in range(2)] == [False, True]


def test_minpoly_factor_at_keeps_an_exact_point_root():
    # (x - 16)(x^2 - c): the wide first enclosures make `locate` refine every
    # box; the subset {-sqrt(c), 16} then needs more rounds
    c = Fraction(257258, 1001)
    quad = polyq.poly([-c, 0, 1])
    mp = polyq.poly([16 * c, -c, -16, 1])  # (x - 16) quad
    own = RootSet(mp)

    def encloser(width):
        if width > Fraction(1, 1 << 32):
            return Box.of(-100, 100)  # meets every root box
        return own.refine(0, width)  # -sqrt(c)

    assert minpoly_factor_at(mp, encloser) == quad
    # Newton does not land on 16, so its exact point box is built on purpose,
    # beside the wide isolating interval of -sqrt(c): the rounds that reject
    # {-sqrt(c), 16} refine both boxes, and must leave the point alone
    roots = RootSet(mp)
    roots.boxes[0] = polyq.isolate_real_roots(mp)[0]
    roots.boxes[1] = Box.point(16)
    asked, refine = [], roots.refine
    roots.refine = lambda i, width: asked.append(i) or refine(i, width)
    assert polyq._candidate_factor(roots, [0, 1], abs(roots.poly[-1]), 0) is None
    assert asked.count(1) > 1 and roots.boxes[1] == Box.point(16)
    assert polyq._factor_at(roots, 0) == quad


def test_bisect_certified_keeps_the_root_when_no_half_certifies():
    from toruscm.polyq import _bisect_certified, _certify

    # x^2 + 2x + 2 has the root -1 + i; neither half of many of these
    # certified boxes certifies, and a half can allow 0 in its value box
    # without holding the root: the exact count must still pick a half
    p, dp = (2, 2, 1), (2, 2)

    def keeps_root(box):
        return box.re.lo <= -1 <= box.re.hi and box.im.lo <= 1 <= box.im.hi

    boxes = [Box.of(Fraction(-31, 20), Fraction(-11, 20), Fraction(1, 2), Fraction(3, 2))]
    rng = random.Random(1)
    for _ in range(3000):
        x0, y0 = Fraction(rng.randint(-40, -1), 20), Fraction(rng.randint(0, 20), 20)
        dx, dy = Fraction(rng.randint(1, 30), 20), Fraction(rng.randint(1, 30), 20)
        boxes.append(Box.of(x0, x0 + dx, y0, y0 + dy))
    certified = [b for b in boxes if keeps_root(b) and _certify(p, dp, b)]
    assert certified[0] is boxes[0] and len(certified) > 10
    for box in certified:
        half = _bisect_certified(p, dp, box)
        assert keeps_root(half)
        assert _is_strict_half(half, box)


def _is_strict_half(part, box):
    """part is box cut across one side, which it shortens."""

    def cut(a, b):
        inside = b.lo <= a.lo and a.hi <= b.hi
        return inside and (a.lo == b.lo or a.hi == b.hi) and a.width() < b.width()

    return (part.im == box.im and cut(part.re, box.re)) or (
        part.re == box.re and cut(part.im, box.im)
    )


def _gaussian_rational_roots(rng):
    """A seeded rational polynomial with distinct known roots (x, y) = x + iy:
    real roots and conjugate pairs with small denominators."""
    roots = set()
    for _ in range(rng.randint(1, 3)):
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
        roots |= {(x, y), (x, -y)}
    linear = [[-x, 1] for x, y in roots if y == 0]
    pairs = [[x * x + y * y, -2 * x, 1] for x, y in roots if y > 0]  # x + iy and x - iy
    return _product(linear + pairs), roots


def test_root_count_matches_known_roots_on_seeded_boxes():
    from toruscm.polyq import _root_count

    rng = random.Random(7)
    on_boundary = 0
    for _ in range(400):
        p, roots = _gaussian_rational_roots(rng)
        near = rng.choice(sorted(roots))
        x0, y0 = (c - Fraction(rng.randint(0, 6), rng.randint(1, 3)) for c in near)
        dx, dy = (Fraction(rng.randint(1, 12), rng.randint(1, 3)) for _ in range(2))
        box = Box.of(x0, x0 + dx, y0, y0 + dy)
        re, im = box.re, box.im
        inside = sum(re.lo < x < re.hi and im.lo < y < im.hi for x, y in roots)
        closed = sum(re.lo <= x <= re.hi and im.lo <= y <= im.hi for x, y in roots)
        if closed > inside:  # a root on the boundary
            on_boundary += 1
            assert _root_count(p, box) is None
        else:
            assert _root_count(p, box) == inside
    assert on_boundary > 100


def test_root_count_halves_a_box_with_a_zero_of_re_p_at_a_corner():
    from toruscm.polyq import _cut, _root_count

    # Re(z^2 + 1) = 0 at the corner 3/4 + 5/4 i; the count must still be
    # defined there, on the box and on every part that keeps the corner
    p = polyq.poly([1, 0, 1])
    box = Box.of(Fraction(-1, 2), Fraction(3, 4), Fraction(1, 2), Fraction(5, 4))
    assert _root_count(p, box) == 1
    for _ in range(40):
        low, high, n = _cut(p, box)
        assert n is not None and _is_strict_half(low, box)
        box = low if n else high
        assert box.re.lo <= 0 <= box.re.hi and box.im.lo <= 1 <= box.im.hi
    assert box.width() < Fraction(1, 1 << 10)


def test_refine_leaves_an_exact_point_box():
    roots = RootSet([0, -1, 1])  # x^2 - x
    point = roots.refine(0, Fraction(1, 1 << 30))
    assert point.width() == 0
    assert roots.refine(0, point.width() / 2) == point


# the degree-8 field Q(zeta5, i), Q(zeta5), a real
# quartic and Q(sqrt(-(10^27 + 57))), whose |p'|^2 ~ 4 10^27 asks for a
# Newton quotient with relative precision
_CM_FIELD_POLYS = {
    "L_zeta5": [16, 16, 8, 0, -4, 0, 2, 2, 1],
    "zeta5": [1, 1, 1, 1, 1],
    "real_quartic": [2000, 0, -100, 0, 1],
    "disc27": [10**27 + 57, 0, 1],
}


@pytest.mark.parametrize("coeffs", _CM_FIELD_POLYS.values(), ids=_CM_FIELD_POLYS.keys())
def test_newton_certifies_every_complex_root_of_the_cm_fields(coeffs, monkeypatch):
    subdivisions = []
    exact_counts = polyq._subdivision_upper_roots

    def counted(p, count, lines):
        subdivisions.append(count)
        return exact_counts(p, count, lines)

    monkeypatch.setattr(polyq, "_subdivision_upper_roots", counted)
    p = tuple(coeffs)
    reals, uppers = polyq._isolate_all_roots(p, polyq.pderiv(p))
    assert subdivisions == []
    assert len(reals) + 2 * len(uppers) == polyq.degree(p)


@pytest.mark.parametrize("coeffs", _CM_FIELD_POLYS.values(), ids=_CM_FIELD_POLYS.keys())
def test_isolated_root_boxes_have_power_of_two_denominators(coeffs):
    roots = RootSet(coeffs)
    ends = [e for b in roots.boxes for e in (b.re.lo, b.re.hi, b.im.lo, b.im.hi)]
    assert all(e.denominator & (e.denominator - 1) == 0 for e in ends)


# -- sympy oracle ------------------------------------------------------------

_EPS = Fraction(1, 1 << 32)


def _sympy_root_boxes(p, eps=_EPS):
    """Closed rectangles from sympy's exact isolation, one per root of p,
    refined below eps."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x)
    reals, cplx = sp.intervals(all=True, eps=sympy.Rational(eps.numerator, eps.denominator))

    def q(r):
        r = sympy.Rational(r)
        return Fraction(int(r.p), int(r.q))

    out = [Box.of(q(a), q(b)) for (a, b), _ in reals]
    for (c0, c1), _ in cplx:
        (x0, y0), (x1, y1) = (sympy.re(c0), sympy.im(c0)), (sympy.re(c1), sympy.im(c1))
        out.append(Box.of(q(x0), q(x1), q(y0), q(y1)))
    return out


def _monic_factors():
    from hypothesis import strategies as st

    factor = st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(lambda cs: cs + [1])
    return st.lists(factor, min_size=1, max_size=3).map(
        lambda fs: [polyq.poly(f) for f in fs]
    ).filter(lambda fs: sum(len(f) - 1 for f in fs) <= 6)


def _product(factors):
    """The product of rational polynomials (ascending coefficients), by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = sympy.Poly(1, x)
    for f in factors:
        p *= sympy.Poly([sympy.Rational(str(c)) for c in reversed(f)], x)
    return polyq.poly(Fraction(str(c)) for c in reversed(p.all_coeffs()))


def test_rootset_boxes_match_sympy_isolation():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")

    def agree(p, width):
        roots = RootSet(p)
        for i in range(roots.nreal):  # as built: real boxes end below 2^-8
            assert roots.boxes[i].im == Box.point(0).im
            assert roots.boxes[i].width() < Fraction(1, 1 << 8)
        oracle = _sympy_root_boxes(p, width)  # finer than the roots' spacing
        agree_boxes(roots, oracle)
        for i in range(len(roots.boxes)):
            roots.refine(i, width)
        agree_boxes(roots, oracle)

    def agree_boxes(roots, oracle):
        p, boxes = roots.poly, roots.boxes
        assert len(boxes) == polyq.degree(p)
        for i in range(len(boxes)):
            if not roots.is_real(i):  # each upper root is followed by its conjugate
                assert (boxes[i].im.sign() == 1) == (roots.conj(i) == i + 1)
                assert boxes[roots.conj(i)] == boxes[i].conj()
            for j in range(i + 1, len(boxes)):
                assert boxes[i].disjoint(boxes[j])
        for b in boxes:
            assert sum(not b.disjoint(r) for r in oracle) == 1

    x = sympy.Symbol("x")

    def sympy_real_roots(p):  # exact, ascending, as the real embeddings are
        return sympy.Poly([int(c) for c in reversed(p)], x).real_roots()

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(_monic_factors())
    def check(factors):
        p = _product(factors)
        hypothesis.assume(polyq.is_squarefree(p))
        agree(p, _EPS)
        roots = RootSet(p)  # real boxes as built, 2^-8 wide or exact points
        exact = sympy_real_roots(p)
        assert len(exact) == roots.nreal
        for f in factors:
            of_f = set(sympy_real_roots(f))
            for i, r in enumerate(exact):
                assert roots.vanishes_at(f, i) == (r in of_f)

    check()
    # x^4 + (2 + e) x^2 + (1 + e) has the roots +-i and +-i sqrt(1 + e), about
    # e / 2 apart: too close for Durand-Kerner, so the exact counts isolate them
    for k in (24, 30, 40):
        e = Fraction(1, 1 << k)
        agree(polyq.poly([1 + e, 0, 2 + e, 0, 1]), Fraction(1, 1 << (k + 8)))
    # a rational root of denominator 3 has no point box and is held by
    # shrinking dyadic boxes; a dyadic root may become a point; vanishes_at
    # decides both as sympy's root boxes of each factor say
    third = polyq.poly([-1, 3])
    for factors in ([third, polyq.poly([-2, 0, 1])], [polyq.poly([-1, 2]), polyq.poly([1, 0, 1])]):
        p = _product(factors)
        agree(p, _EPS)
        roots = RootSet(p)
        for i in range(len(roots.boxes)):
            target = roots.refine(i, _EPS)
            for f in factors:
                owns = any(not target.disjoint(r) for r in _sympy_root_boxes(f))
                assert roots.vanishes_at(f, i) == owns
        assert third not in factors or not any(b.is_point() for b in roots.boxes)


def test_minpoly_factor_at_matches_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    x = sympy.Symbol("x")

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(_monic_factors(), st.data())
    def check(factors, data):
        p = _product(factors)
        hypothesis.assume(polyq.is_squarefree(p))
        i = data.draw(st.integers(0, polyq.degree(p) - 1))
        encloser_roots = RootSet(p)
        got = minpoly_factor_at(p, lambda w: encloser_roots.refine(i, w))
        target = encloser_roots.refine(i, _EPS)
        sp = sympy.Poly([int(c) for c in reversed(p)], x)
        owners = []
        for f, _ in sympy.factor_list(sp)[1]:
            coeffs = polyq.poly(reversed([int(c) for c in f.all_coeffs()]))
            if any(not target.disjoint(r) for r in _sympy_root_boxes(coeffs)):
                owners.append(coeffs)
        assert owners == [got]

    check()


# Q, Q(i), Q(2 sin 2pi/5), Q(zeta5), Q(zeta7)
_ORACLE_MINPOLYS = [[0, 1], [1, 0, 1], [5, 0, -5, 0, 1], [1] * 5, [1] * 7]


def _seeded_element(rng, f):
    """A seeded element with some zero coordinates (all zero one time in four)."""
    if rng.random() < 0.25:
        return f.zero()
    # small denominators, and odd large ones that share no factor
    dens = [1, 2, 3, 4, 1, 2, 3, 4, 10007, 65537, 999983]
    coords = [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(f.degree)]
    return f.element([c if rng.random() < 0.6 else 0 for c in coords])


def _sympy_product_oracle(f):
    """(a, b) -> coordinates of rem(a * b, m) computed by sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def expr(coords):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coords))

    m = expr(f.minpoly)

    def rem(a, b):
        r = sympy.Poly(sympy.rem(sympy.expand(expr(a.coords) * expr(b.coords)), m, x), x)
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(r.all_coeffs())]
        return cs + [Fraction(0)] * (f.degree - len(cs))

    return rem


@pytest.mark.parametrize(
    "minpoly",
    # Q(i), Q(zeta5), Q(2 sin 2pi/5), Q(2^(1/4)), Q(zeta7)
    [[1, 0, 1], [1] * 5, [5, 0, -5, 0, 1], [-2, 0, 0, 0, 1], [1] * 7],
    ids=lambda m: "x^%d: %s" % (len(m) - 1, ",".join(map(str, m))),
)
def test_trace_matches_sympy_characteristic_polynomial(minpoly):
    # Tr(x) is minus the y^(d-1) coefficient of res_t(m(t), y - x(t)), the
    # characteristic polynomial of x
    sympy = pytest.importorskip("sympy")
    t, y = sympy.symbols("t y")
    f = make_field(minpoly)
    m = sum(c * t**i for i, c in enumerate(minpoly))
    rng = random.Random(len(minpoly) * 100 + minpoly[0])
    for _ in range(12):
        x = _seeded_element(rng, f)
        xt = sum(sympy.Rational(c.numerator, c.denominator) * t**i for i, c in enumerate(x.coords))
        charpoly = sympy.Poly(sympy.resultant(m, y - xt, t), y).all_coeffs()
        assert len(charpoly) == f.degree + 1 and charpoly[0] == 1
        want = -charpoly[1]
        assert trace_q(x) == Fraction(int(want.p), int(want.q))


def _sum_coords(rows, degree):
    return tuple(sum((r[i] for r in rows), Fraction(0)) for i in range(degree))


@pytest.mark.parametrize("minpoly", _ORACLE_MINPOLYS, ids=lambda m: f"deg{len(m) - 1}")
def test_field_products_match_sympy_remainders(minpoly):
    f = make_field(minpoly)
    rem = _sympy_product_oracle(f)
    rng = random.Random(len(minpoly))
    zero = (Fraction(0),) * f.degree
    for _ in range(12):
        a, b = _seeded_element(rng, f), _seeded_element(rng, f)
        assert (a * b).coords == tuple(rem(a, b))
    assert f.dot([], []).coords == zero
    zs = [f.zero()] * 3
    assert f.dot(zs, [_seeded_element(rng, f) for _ in zs]).coords == zero
    for n in range(1, 5):
        xs = [_seeded_element(rng, f) for _ in range(n)]
        ys = [_seeded_element(rng, f) for _ in range(n)]
        want = _sum_coords([rem(x, y) for x, y in zip(xs, ys)], f.degree)
        assert f.dot(xs, ys).coords == want
    a = [[_seeded_element(rng, f) for _ in range(3)] for _ in range(2)]
    b = [[_seeded_element(rng, f) for _ in range(2)] for _ in range(3)]
    got = FieldMatrix(f, a) * FieldMatrix(f, b)
    for i in range(2):
        for j in range(2):
            want = _sum_coords([rem(a[i][k], b[k][j]) for k in range(3)], f.degree)
            assert got[i, j].coords == want


# Q(i), Q(sqrt 5), Q(2 sin 2pi/5), Q(zeta5), the degree-8 field Q(zeta5, i),
# Q(zeta13)
_INVERSE_MINPOLYS = [
    [1, 0, 1],
    [-5, 0, 1],
    [5, 0, -5, 0, 1],
    [1] * 5,
    [16, 16, 8, 0, -4, 0, 2, 2, 1],
    [1] * 13,
]


@pytest.mark.parametrize("minpoly", _INVERSE_MINPOLYS, ids=lambda m: ",".join(map(str, m)))
def test_inverse_matches_sympy_invert(minpoly):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def expr(coords):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(coords))

    f = make_field(minpoly)
    m = expr(f.minpoly)
    rng = random.Random(sum(minpoly))
    xs = [a for a in (_seeded_element(rng, f) for _ in range(40)) if a][:12]
    assert len(xs) == 12 and not all(a.is_rational() for a in xs)
    for a in xs:
        inv = a.inverse()
        want = sympy.Poly(sympy.invert(expr(a.coords), m, x), x).all_coeffs()[::-1]
        want = [Fraction(int(c.p), int(c.q)) for c in want]
        assert inv.coords == tuple(want + [Fraction(0)] * (f.degree - len(want)))
        assert a * inv == f.one()


@pytest.mark.parametrize(
    "minpoly, zero_divisors",
    # x^2 - 1 = (x - 1)(x + 1) and (x^2 + 1)(x^2 - 2), with one factor each
    [([-1, 0, 1], [[-1, 1], [1, 1]]), ([-2, 0, -1, 0, 1], [[1, 0, 1], [-2, 0, 1]])],
    ids=["x^2-1", "(x^2+1)(x^2-2)"],
)
def test_inverse_of_a_zero_divisor_raises(minpoly, zero_divisors):
    f = make_field(minpoly)
    for coords in zero_divisors + [[0]]:
        with pytest.raises(ZeroDivisor):
            f.element(coords).inverse()
    unit = f.element([2, 1])  # x + 2: -2 is no root of the minpoly
    assert unit * unit.inverse() == f.one()


def test_rational_matrix_products_match_fraction_matmul():
    rng = random.Random(7)
    qq = rationals()

    def rand(r, c):
        return [[Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(c)] for _ in range(r)]

    for rows, inner, cols in [(1, 3, 2), (3, 1, 4), (2, 5, 3), (4, 2, 1)]:
        a, b = rand(rows, inner), rand(inner, cols)
        want = [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)] for r in a]
        got = FieldMatrix(qq, a) * FieldMatrix(qq, b)
        assert got.rational_entries() == want
