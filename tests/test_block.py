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

from toruscm import exactla, numfield
from toruscm.exactla import (
    FieldMatrix,
    Inconsistent,
    Singular,
    _rref,
    positive_definite,
    rational_kernel,
)
from toruscm.numfield import FieldElement, NumberField, make_field, rationals
from toruscm.torus import _rational_solutions

# Q, Q(sqrt 5), Q(zeta5) and the degree-8 field Q(zeta5, i)
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


def _masked(rng, f, r, c, keep, bits=0, rational=False):
    """An r x c matrix, zero where keep(i, j) is false and elsewhere a nonzero
    entry, with `bits`-bit numerators if bits, and only its rational
    coordinate if rational."""

    def entry():
        if bits:
            num = [rng.getrandbits(bits) - (1 << bits - 1) for _ in range(f.degree)]
            x = f.element([Fraction(n, rng.choice(DENS)) for n in num])
        else:
            x = _entry(rng, f) or f.element([rng.choice([-2, -1, 1, 3])] * f.degree)
        return (f.from_rational(x.coords[0]) if rational else x) or f.one()

    return FieldMatrix(f, [[entry() if keep(i, j) else 0 for j in range(c)] for i in range(r)])


def _signed_permutation(rng, f, n):
    perm = rng.sample(range(n), n)
    rows = [[rng.choice([1, -1]) * (j == perm[i]) for j in range(n)] for i in range(n)]
    return FieldMatrix(f, rows)


def _sparse_pairs(rng, f):
    """(name, a, b) with a * b a 6 x c product of sparse or dense shapes."""
    n, full = 6, lambda i, j: True
    yield "zero rows and columns", _masked(rng, f, n, n, lambda i, j: i % 3 and j % 2), _masked(
        rng, f, n, 4, lambda i, j: i != 1 and j != 2
    )
    yield "permutation on the left", _signed_permutation(rng, f, n), _masked(rng, f, n, 5, full)
    yield "permutation on the right", _masked(rng, f, n, n, full), _signed_permutation(rng, f, n)
    yield "zero on the left", FieldMatrix.zeros(f, n, n), _masked(rng, f, n, 4, full)
    yield "zero on the right", _masked(rng, f, n, n, full), FieldMatrix.zeros(f, n, 3)
    yield "one nonzero per row", _masked(rng, f, n, n, lambda i, j: j == 2 * i % n), _masked(
        rng, f, n, n, lambda i, j: j == (i + 1) % n
    )
    # a's support is columns 0-2 and b's rows 3-5: every product term is zero
    yield "supports that miss", _masked(rng, f, n, n, lambda i, j: j < 3), _masked(
        rng, f, n, 4, lambda i, j: i >= 3
    )
    # row i of a has i nonzero entries: both sides of the half-nonzero rule
    yield "every row density", _masked(rng, f, n, n, lambda i, j: j < i), _masked(
        rng, f, n, n, lambda i, j: (i + j) % 3 == 0
    )
    yield "dense", _masked(rng, f, n, n, full), _masked(rng, f, n, 5, full)
    # a rational left factor is one integer product, with no packing
    yield "rational on the left", _masked(rng, f, n, n, full, rational=True), _masked(
        rng, f, n, 5, full
    )
    yield "rational with zero rows on the left", _masked(
        rng, f, n, n, lambda i, j: i % 2, rational=True
    ), _masked(rng, f, n, 4, full)
    yield "rational 300-bit numerators on the left", _masked(
        rng, f, n, n, full, 300, rational=True
    ), _masked(rng, f, n, 4, full, 300)
    yield "300-bit numerators", _masked(rng, f, n, n, lambda i, j: j <= i, 300), _masked(
        rng, f, n, 4, full, 300
    )


@pytest.mark.parametrize("minpoly", FIELDS, ids=IDS)
def test_sparse_and_dense_products_match_the_fraction_oracle(minpoly, monkeypatch):
    f, o = make_field(minpoly), Oracle(minpoly)
    rng = random.Random(23 + len(minpoly))
    calls = []
    real = NumberField._reduce
    monkeypatch.setattr(NumberField, "_reduce", lambda f, raw: calls.append(1) or real(f, raw))
    for name, a, b in _sparse_pairs(rng, f):
        calls.clear()
        got = a * b
        assert not (a.is_rational() and calls), name  # a rational left factor reduces nothing
        assert (got.rows, got.cols) == (a.rows, b.cols), name
        assert _coords(got) == o.matmul(_coords(a), _coords(b)), name
        assert got == FieldMatrix(f, got.entries), name
    assert name == "300-bit numerators" and max(map(abs, a.num[-1])).bit_length() > 300


def test_a_signed_permutation_reduces_only_the_nonzero_entries(monkeypatch):
    # the mirror map is a signed permutation: on the left it is rational, so
    # its product with M over Q(zeta5) reduces nothing; on the right the
    # product is packed and reduces one output entry per nonzero entry of M,
    # not all 64
    f, o = make_field([1] * 5), Oracle([1] * 5)
    rng = random.Random(29)
    m, perm = _matrix(rng, f, 8, 8), _signed_permutation(rng, f, 8)
    nnz = sum(map(bool, itertools.chain(*m.entries)))
    calls = []
    real = NumberField._reduce
    monkeypatch.setattr(NumberField, "_reduce", lambda f, raw: calls.append(1) or real(f, raw))
    got = perm * m
    assert len(calls) == 0
    assert _coords(got) == o.matmul(_coords(perm), _coords(m))
    got = m * perm
    assert len(calls) == nnz < 64
    assert _coords(got) == o.matmul(_coords(m), _coords(perm))


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


@pytest.mark.parametrize("minpoly", FIELDS, ids=IDS)
def test_solve_with_negative_pivots_and_a_fractional_right_side(minpoly):
    # over Q, X's block is read off the reduced rows over their pivots, which
    # may be negative, and b.den > 1 enters the denominator
    f, o = make_field(minpoly), Oracle(minpoly)
    rng = random.Random(19 + len(minpoly))
    negative = 0
    for n in [1, 2, 3, 4] * 2:
        a = -_matrix(rng, f, n, n)
        if not any(o.det(_coords(a))):
            continue
        b = _matrix(rng, f, n, 3, zero_row=True).scale(Fraction(1, 65521))
        assert b.is_zero() or b.den > 1
        if f.degree == 1:  # the fraction-free pivots of [a | b]
            red, piv, _ = _rref([r + s for r, s in zip(a.num, b.num)], n)
            negative += any(red[r][c] < 0 for r, c in enumerate(piv))
        x, inv = a.solve(b), a.inverse()
        assert o.matmul(_coords(a), _coords(x)) == _coords(b)
        ident = [[o.one if i == j else o.zero for j in range(n)] for i in range(n)]
        assert o.matmul(_coords(a), _coords(inv)) == ident
        # lowest terms, so the results equal the same matrices read entry by entry
        assert x == FieldMatrix(f, x.entries) and inv == FieldMatrix(f, inv.entries)
    assert negative > 2 or f.degree > 1


def _fraction_rref(rows, ncols):
    """The reduced rows of Gauss-Jordan on Fractions, each pivot one,
    pivoting in the first ncols columns."""
    a, r = [[Fraction(x) for x in row] for row in rows], 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[r])]
        r += 1
    return a[:r]


# integer entries for `_rref` over Q: columns with no unit, with -1 as the
# only unit, and with several unit candidates
PIVOT_ENTRIES = {
    "no unit": [0, 0, 2, -2, 3, -3, 4, 6, -9],
    "minus one": [0, -1, -1, 2, 3, -5],
    "several units": [0, 1, -1, 1, 4, -6],
}


@pytest.mark.parametrize("case", PIVOT_ENTRIES)
def test_unit_and_least_pivots_match_the_fraction_oracle(case):
    # over Q the pivot is a least |entry| of its column, the first +-1 if
    # any, and a unit pivot clears its column unscaled; RREF is unique, so
    # the rows over their pivots, the kernel, the solve and the det all
    # equal the oracle's
    o, qq, choices = Oracle([0, 1]), rationals(), PIVOT_ENTRIES[case]
    rng = random.Random(31 + len(case))
    minus = 0
    for n, extra in [(2, 1), (3, 2), (4, 1), (5, 2), (6, 3)] * 4:
        rows = [[rng.choice(choices) for _ in range(n + extra)] for _ in range(n)]
        if case == "no unit":
            assert all(abs(x) != 1 for row in rows for x in row[:n])
        red, piv, _ = _rref(rows, n)
        minus += sum(row[c] == -1 for row, c in zip(red, piv))
        want = _fraction_rref(rows, n)
        assert [[Fraction(x, row[c]) for x in row] for row, c in zip(red, piv)] == want
        assert not any(x for row in red[len(piv) :] for x in row[:n])
        a = FieldMatrix(qq, [row[:n] for row in rows])
        b = FieldMatrix(qq, [row[n:] for row in rows]).scale(Fraction(1, 3))
        assert a.det() == o.det(_coords(a))[0] and a.rank() == len(want)
        ker = a.kernel()
        assert ker.rows == n - len(want)
        if ker.rows:
            assert o.matmul(_coords(a), _coords(ker.transpose())) == [[o.zero] * ker.rows] * n
        else:
            assert o.matmul(_coords(a), _coords(a.solve(b))) == _coords(b)
    assert minus > 0 or case != "minus one"


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


def _unit_lower(rng, f, n):
    """A random unit lower-triangular n x n matrix."""
    return FieldMatrix(f, [[_entry(rng, f) if j < i else int(i == j) for j in range(n)]
                           for i in range(n)])


def _ldl(low, diag):
    """low D low^T for D = diag(diag): its LDL pivots are diag when low is
    unit lower-triangular."""
    n = len(diag)
    d = FieldMatrix(low.field, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return low * d * low.transpose()


def _refused(*args):
    raise AssertionError("called on the integer path")


def test_positive_definite_over_q_signs_integers_and_builds_only_its_pivots(monkeypatch):
    qq = rationals()
    rng = random.Random(17)
    diags = [[Fraction(rng.randint(1, 9), rng.choice(DENS)) for _ in range(6)] for _ in range(3)]
    cases = [_ldl(_unit_lower(rng, qq, len(d)), d) for d in diags + [[2, Fraction(1, 3), -1, 5]]]
    emb = qq.embeddings()[0]
    counts = _counting(monkeypatch)
    monkeypatch.setattr(exactla, "exact_sign", _refused)
    verdicts = []
    for m in cases:
        before = counts["element"]
        cert = positive_definite(m, emb)
        assert counts["element"] - before == len(cert.pivots)
        verdicts.append(bool(cert))
    assert verdicts == [True, True, True, False] and counts["coerce"] == 0


def _sylvester_by_elements(t, c, col, ncols):
    """The kernel of X -> X I - C X from rows of elements summed entry by
    entry: an oracle for the integer rows."""
    n = 2 * t.g
    rows = []
    for i, j in itertools.product(range(n), repeat=2):
        row = [t.field.zero()] * ncols
        for k in range(n):
            row[col(i, k)] += t.I[k, j]
            row[col(k, j)] -= c[i, k]
        rows.append(row)
    return rational_kernel(FieldMatrix(t.field, rows))


def test_sylvester_rows_build_no_element(tau_i, tau_2pow14, zeta5_mirror, zeta5_cm, monkeypatch):
    tori = [tau_i[0], tau_2pow14[0], zeta5_mirror["pair"].left.torus, zeta5_cm["torus"]]
    systems = []
    for t in tori:
        n = 2 * t.g
        index = {u: c for c, u in enumerate((i, j) for i in range(n) for j in range(i, n))}
        # End^0(T) and the metric search's system, as `end` and `cm` pose them
        systems.append((t, t.I, lambda a, b, n=n: a * n + b, n * n))
        systems.append((t, -t.I.transpose(), lambda a, b, ix=index: ix[min(a, b), max(a, b)],
                        len(index)))
        # C = P I P^-1 with den(C) != den(I): the solutions are P End^0(T)
        frac = [[Fraction(j, 3 + i) for j in range(n)] for i in range(n)]
        p = FieldMatrix.identity(t.field, n) + FieldMatrix(t.field, frac)
        systems.append((t, p * t.I * p.inverse(), lambda a, b, n=n: a * n + b, n * n))
    want = [_sylvester_by_elements(*s) for s in systems]
    counts = _counting(monkeypatch)
    got = [_rational_solutions(*s) for s in systems]
    assert counts == {"coerce": 0, "element": 0}
    assert all(c.den != t.I.den for t, c, _, _ in systems[2::3])
    # the RREF basis is canonical, so the integer rows give the same bases
    assert got == want and [len(k) for k in got] == [2, 1, 2, 1, 0, 1, 4, 2, 4, 4, 2, 4]


@pytest.mark.parametrize("minpoly", [[0, 1], [-5, 0, 1]], ids=["Q", "sqrt5"])
def test_positive_definite_matches_sympy_leading_minors(minpoly):
    sympy = pytest.importorskip("sympy")
    f = make_field(minpoly)
    zeta5 = make_field([1] * 5, conj_image=[-1] * 4)
    rng = random.Random(13)
    cases = [[[1]], [[0]], [[-2]], [[1, 1], [1, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 2]]]
    for _ in range(40):
        n = rng.randint(1, 4)
        low = _unit_lower(rng, f, n)
        diag = [rng.choice([2, 1, Fraction(1, 3), 0, -1]) for _ in range(n)]
        if rng.random() < 0.5:  # positive definite by construction, or not
            diag = [abs(x) or 1 for x in diag]
        cases.append(_ldl(low, diag))
    # the first pivot that is not positive, at every position k of a 4 x 4
    stops = []
    for k, bad in itertools.product(range(4), [0, Fraction(-2, 3)]):
        diag = [Fraction(rng.randint(1, 5), rng.choice(DENS[2:5])) for _ in range(4)]
        diag[k] = bad
        stops.append((_ldl(_unit_lower(rng, f, 4), diag), diag[: k + 1]))
        cases.append(stops[-1][0])
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
            if f.degree == 1:  # the same matrix over Q(zeta5) takes the element path
                lifted = positive_definite(m.lift(zeta5), zeta5.embeddings()[0])
                pivots = [[p.as_rational() for p in c.pivots] for c in (lifted, cert)]
                assert bool(lifted) == bool(cert) and pivots[0] == pivots[1]
    assert {w for w, _, _ in seen} == {True, False}
    assert any(one for _, one, _ in seen) and any(zero for _, _, zero in seen)
    for m, pivots in stops:
        for emb in f.real_embeddings():
            cert = positive_definite(m, emb)
            assert not cert and cert.pivots == [f.from_rational(p) for p in pivots]
    # matrices with entry denominators > 1 (rational ones over Q)
    assert sum(m.den > 1 for m in cases if isinstance(m, FieldMatrix)) > 20


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
    with pytest.raises(ValueError):
        irrational.lift(make_field([1, 0, 1]))
