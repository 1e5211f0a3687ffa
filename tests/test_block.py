"""FieldMatrix as one integer block under one denominator: products,
kernels, solves, inverses and determinants against a plain-Fraction oracle
over Q, Q(sqrt 5), Q(zeta5) and the degree-8 L of the Q(zeta5) pipeline;
the Kronecker slot width at its boundary, with a one-bit-narrower mutant;
counts of coercions and element constructions; and the positive-definite
verdict and LDL pivots against sympy's leading minors."""

import itertools
import random
from fractions import Fraction

import pytest

from toruscm import numfield
from toruscm.exactla import FieldMatrix, Inconsistent, Singular, positive_definite
from toruscm.numfield import FieldElement, NumberField, make_field, rationals

# Q, Q(sqrt 5), Q(zeta5) and L = Q(sigma(K), i) for K = Q(zeta5)
FIELDS = [[0, 1], [-5, 0, 1], [1] * 5, [16, 16, 8, 0, -4, 0, 2, 2, 1]]
IDS = ["Q", "sqrt5", "zeta5", "L8"]

# odd, pairwise coprime denominators, so the entries of a matrix rarely share one
DENS = [1, 1, 2, 3, 7, 10007, 65537]


class Oracle:
    """Q[x]/(m) on coordinate tuples of Fractions: schoolbook products
    reduced by long division, Laplace determinants, ranks from minors."""

    def __init__(self, minpoly):
        self.m = [Fraction(c) for c in minpoly]
        self.d = len(minpoly) - 1
        self.zero = (Fraction(0),) * self.d
        self.one = (Fraction(1),) + self.zero[1:]

    def mul(self, a, b):
        raw = [Fraction(0)] * (2 * self.d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                raw[i + j] += x * y
        for k in range(len(raw) - 1, self.d - 1, -1):  # x^k = -x^(k-d) (m - x^d)
            c, raw[k] = raw[k], 0
            for i, mc in enumerate(self.m[:-1]):
                raw[k - self.d + i] -= c * mc
        return tuple(raw[: self.d])

    def add(self, a, b, sign=1):
        return tuple(x + sign * y for x, y in zip(a, b))

    def matmul(self, a, b):
        out = []
        for row in a:
            acc_row = []
            for col in zip(*b):
                acc = self.zero
                for x, y in zip(row, col):
                    acc = self.add(acc, self.mul(x, y))
                acc_row.append(acc)
            out.append(acc_row)
        return out

    def det(self, a):
        if not a:
            return self.one
        acc = self.zero
        for j in range(len(a)):
            minor = [r[:j] + r[j + 1 :] for r in a[1:]]
            acc = self.add(acc, self.mul(a[0][j], self.det(minor)), 1 if j % 2 == 0 else -1)
        return acc

    def rank(self, a):
        rows, cols = len(a), len(a[0]) if a else 0
        for k in range(min(rows, cols), 0, -1):
            for rs in itertools.combinations(range(rows), k):
                for cs in itertools.combinations(range(cols), k):
                    if any(self.det([[a[r][c] for c in cs] for r in rs])):
                        return k
        return 0


def _coords(m):
    return [[tuple(e.coords) for e in row] for row in m.entries]


def _entry(rng, f):
    """A sparse element with mixed denominators, zero one time in three."""
    if rng.random() < 1 / 3:
        return f.zero()
    return f.element([Fraction(rng.randint(-9, 9), rng.choice(DENS)) for _ in range(f.degree)])


def _matrix(rng, f, r, c, zero_row=False):
    rows = [[_entry(rng, f) for _ in range(c)] for _ in range(r)]
    if zero_row and r > 1:
        rows[rng.randrange(r)] = [0] * c
    return FieldMatrix(f, rows)


# (rows, inner, cols): empty, a row times a column, a column times a row,
# wide and tall
SHAPES = [(0, 0, 0), (1, 4, 1), (4, 1, 3), (2, 5, 3), (5, 2, 4), (3, 3, 3)]


@pytest.mark.parametrize("minpoly", FIELDS, ids=IDS)
def test_products_match_the_fraction_oracle(minpoly):
    f, o = make_field(minpoly), Oracle(minpoly)
    rng = random.Random(len(minpoly))
    for r, n, c in SHAPES * 3:
        a = _matrix(rng, f, r, n, zero_row=True)
        b = _matrix(rng, f, n, c, zero_row=True)
        got = a * b
        assert (got.rows, got.cols) == (r, c if r else 0)
        assert _coords(got) == o.matmul(_coords(a), _coords(b))
        # one denominator in lowest terms, so equal products compare equal
        assert got == FieldMatrix(f, got.entries) and hash(got) == hash(FieldMatrix(f, got.entries))


@pytest.mark.parametrize("minpoly", FIELDS, ids=IDS)
def test_kernels_match_the_fraction_oracle(minpoly):
    f, o = make_field(minpoly), Oracle(minpoly)
    rng = random.Random(3 + len(minpoly))
    for r, n in [(1, 4), (2, 4), (3, 3), (4, 2), (3, 5)]:
        a = _matrix(rng, f, r, n, zero_row=True)
        if r > 2 and rng.random() < 0.5:  # a dependent row
            rows = list(a.entries)
            rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
            a = FieldMatrix(f, rows)
        ker = a.kernel()
        rank = o.rank(_coords(a))
        assert a.rank() == rank and ker.rows == n - rank
        if ker.rows:
            assert ker.cols == n and o.rank(_coords(ker)) == ker.rows
            zero = [[o.zero] * ker.rows for _ in range(r)]
            assert o.matmul(_coords(a), _coords(ker.transpose())) == zero
    assert FieldMatrix.identity(f, 3).kernel().rows == 0


@pytest.mark.parametrize("minpoly", FIELDS, ids=IDS)
def test_solve_inverse_and_det_match_the_fraction_oracle(minpoly):
    f, o = make_field(minpoly), Oracle(minpoly)
    rng = random.Random(7 + len(minpoly))
    singular = 0
    for n in [1, 2, 3, 3, 4] * 2:
        a = _matrix(rng, f, n, n, zero_row=rng.random() < 0.3)
        b = _matrix(rng, f, n, 2)
        det = o.det(_coords(a))
        assert tuple(a.det().coords) == det
        if not any(det):
            singular += 1
            with pytest.raises(Singular):
                a.inverse()
            with pytest.raises((Singular, Inconsistent)):
                a.solve(b)
            continue
        ident = [[o.one if i == j else o.zero for j in range(n)] for i in range(n)]
        assert o.matmul(_coords(a), _coords(a.inverse())) == ident
        assert o.matmul(_coords(a), _coords(a.solve(b))) == _coords(b)
    assert singular  # the zero rows make some systems singular
    empty = FieldMatrix.identity(f, 0)
    assert empty.det() == f.one() and empty.inverse() == empty


def _boundary(f, n, sign):
    """n x n matrices whose entries all have every coordinate 2^k - 1, times
    sign for the second: the middle slot of each packed output sums n * d
    products of the largest operands, past half the range of a slot one bit
    narrower than `_slot_bits` gives (n * d = 3d is no power of two)."""
    top = (1 << 20) - 1
    a = FieldMatrix(f, [[f.element([top] * f.degree)] * n for _ in range(n)])
    b = FieldMatrix(f, [[f.element([sign * top] * f.degree)] * n for _ in range(n)])
    return a, b


@pytest.mark.parametrize("minpoly", FIELDS[1:], ids=IDS[1:])
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_slots_at_the_packed_width_boundary(minpoly, sign, monkeypatch):
    f, o = make_field(minpoly), Oracle(minpoly)
    a, b = _boundary(f, 3, sign)
    want = o.matmul(_coords(a), _coords(b))
    assert _coords(a * b) == want
    # a 1 x 3 row of the same entries over the denominator 2
    half = FieldMatrix(f, [[x / 2 for x in a.row(0)]])
    assert _coords(half * b) == o.matmul(_coords(half), _coords(b))
    real = numfield._slot_bits
    monkeypatch.setattr(numfield, "_slot_bits", lambda *args: real(*args) - 1)
    assert _coords(a * b) != want


def _counting(monkeypatch):
    counts = {"coerce": 0, "element": 0}
    coerce, init = NumberField.coerce, FieldElement.__init__

    def counted_coerce(self, x):
        counts["coerce"] += 1
        return coerce(self, x)

    def counted_init(self, *args):
        counts["element"] += 1
        init(self, *args)

    monkeypatch.setattr(NumberField, "coerce", counted_coerce)
    monkeypatch.setattr(FieldElement, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("minpoly", [[0, 1], [1] * 5], ids=["Q", "zeta5"])
def test_block_operations_coerce_and_build_nothing(minpoly, monkeypatch):
    f = make_field(minpoly)
    rng = random.Random(11)
    n = 6
    a, b = _matrix(rng, f, n, n), _matrix(rng, f, n, n)
    counts = _counting(monkeypatch)
    prod = a * b
    ident = FieldMatrix.identity(f, n)
    big = FieldMatrix.block([[a, ident], [FieldMatrix.zeros(f, n, n), -b.transpose()]])
    sums = (a + b - ident).scale(Fraction(-2, 3))
    assert counts == {"coerce": 1, "element": 1}  # the one scalar of `scale`
    assert big.rows == 2 * n and sums.is_zero() is False and prod.is_symmetric() is False
    assert counts == {"coerce": 1, "element": 1}
    # elements are built when an entry is read, and only then
    prod[0, 0]
    assert counts["element"] == 2
    prod.entries
    assert counts["element"] == 2 + n * n


@pytest.mark.parametrize("minpoly", [[0, 1], [-5, 0, 1]], ids=["Q", "sqrt5"])
def test_positive_definite_matches_sympy_leading_minors(minpoly):
    sympy = pytest.importorskip("sympy")
    f = make_field(minpoly)
    rng = random.Random(13)
    cases = [[[1]], [[0]], [[-2]], [[1, 1], [1, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 2]]]
    for _ in range(40):
        n = rng.randint(1, 4)
        lower = [[_entry(rng, f) if j < i else f.one() if j == i else f.zero()
                  for j in range(n)] for i in range(n)]
        diag = [rng.choice([2, 1, Fraction(1, 3), 0, -1]) for _ in range(n)]
        if rng.random() < 0.5:  # positive definite by construction, or not
            diag = [abs(x) or 1 for x in diag]
        low = FieldMatrix(f, lower)
        d = FieldMatrix(f, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
        cases.append(low * d * low.transpose())
    gen = sympy.sqrt(5)
    seen = set()
    for m in cases:
        m = m if isinstance(m, FieldMatrix) else FieldMatrix(f, m)
        for emb in f.real_embeddings():
            root = -gen if (f.degree == 2 and emb.index == 1) else gen  # ascending roots

            def value(e):
                return sum(sympy.Rational(c.numerator, c.denominator) * root**i
                           for i, c in enumerate(e.coords))

            sm = sympy.Matrix([[value(e) for e in row] for row in m.entries])
            minors = [sympy.Integer(1)] + [sm[:k, :k].det() for k in range(1, m.rows + 1)]
            want = all(sympy.simplify(x).is_positive for x in minors[1:])
            cert = positive_definite(m, emb)
            assert bool(cert) == want
            # pivot k is minor k / minor k-1, up to the first that is not positive
            for k, p in enumerate(cert.pivots):
                assert sympy.simplify(value(p) - minors[k + 1] / minors[k]) == 0
            seen.add((want, m.rows == 1, any(sympy.simplify(x) == 0 for x in minors[1:])))
    assert {w for w, _, _ in seen} == {True, False}
    assert any(one for _, one, _ in seen) and any(zero for _, _, zero in seen)


def test_rational_matrices_lift_and_read_back():
    qq, f = rationals(), make_field([1] * 5)
    m = FieldMatrix(qq, [[Fraction(1, 2), 3], [0, Fraction(-5, 6)]])
    lifted = m.lift(f)
    assert lifted.field is f and lifted.is_rational()
    assert lifted.rational_entries() == m.rational_entries()
    assert m.lift(qq) is m and lifted.lift(qq) == m
    # entries read as from the element rows, negative indices and bounds included
    for i, j in itertools.product(range(-2, 2), repeat=2):
        assert lifted[i, j] == lifted.entries[i][j] and lifted[i, j].field is f
    for i, j in [(0, 2), (2, 0), (0, -3)]:
        with pytest.raises(IndexError):
            lifted[i, j]
    irrational = FieldMatrix(f, [[f.gen()]])
    assert not irrational.is_rational()
    with pytest.raises(ValueError):
        irrational.rational_entries()
