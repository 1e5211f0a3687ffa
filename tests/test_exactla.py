import itertools
import math
import random
from fractions import Fraction

import pytest

from toruscm.exactla import (
    FieldMatrix,
    Inconsistent,
    Singular,
    _hnf,
    hnf,
    int_hnf_with_transform,
    kernel_rows,
    positive_definite,
    rational_kernel,
    row_lattice_index,
    saturate_integer_solutions,
    snf,
)
from toruscm.numfield import ZeroDivisor, make_field, rationals

QQ = rationals()


def qmat(rows):
    return FieldMatrix(QQ, rows)


def frac_det(rows):
    """Independent oracle: Laplace-expansion determinant over Fractions."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    out = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = Fraction(rows[0][j]) * frac_det(minor)
        out += term if j % 2 == 0 else -term
    return out


def test_solve_identity():
    a = FieldMatrix.identity(QQ, 3)
    b = qmat([[1], [2], [3]])
    assert a.solve(b) == b


def test_kernel_of_ones():
    a = qmat([[1, 1], [1, 1]])
    k = a.kernel()
    assert k.rows == 1
    v = [k[0, 0].as_rational(), k[0, 1].as_rational()]
    assert v[0] == -v[1] and v[0] != 0


def test_rational_kernel_splits_irrational_rows():
    f5 = make_field([-5, 0, 1])
    r5 = f5.gen()
    # sqrt5 * x + y = 0 over Q forces x = y = 0
    assert rational_kernel(FieldMatrix(f5, [[r5, f5.one()]])) == []
    # (1 + sqrt5) (x + 2y) = 0: both coordinates give x + 2y = 0
    row = [f5.one() + r5, (f5.one() + r5) * f5.from_rational(2)]
    assert rational_kernel(FieldMatrix(f5, [row])) == [[Fraction(-2), Fraction(1)]]
    # no nonzero coordinate row: the kernel is all of Q^3
    zero = FieldMatrix.zeros(f5, 2, 3)
    assert rational_kernel(zero) == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def _sparse_entry(rng):
    x = rng.choice([0, 0, 0, rng.randint(-4, 4)])
    return Fraction(x, rng.randint(1, 3)) if rng.random() < 0.5 else x  # ints and Fractions


# odd, pairwise coprime denominators up to 2^31 - 1: no entry is dyadic, and
# no factor is shared for the elimination to cancel by luck
_BIG_DENS = [1, 3, 7, 10007, 65537, 999983, 2**31 - 1]

# the fields of the elimination oracle, each with the sympy generator that is
# the root its power basis uses (2 sin(2 pi / 5) = sqrt((5 + sqrt 5) / 2))
_SYMPY_FIELDS = [
    ([0, 1], None),
    ([-5, 0, 1], "sqrt(5)"),
    ([5, 0, -5, 0, 1], "sqrt((5 + sqrt(5)) / 2)"),
]


def _big_element(rng, f):
    """A sparse element of f with large, coprime, non-dyadic denominators."""
    big = [Fraction(rng.randint(-(10**6), 10**6), rng.choice(_BIG_DENS)) for _ in range(f.degree)]
    return f.element([c if rng.random() < 0.6 else 0 for c in big])


def _seeded_systems(rng, f, count):
    """(rows, ncols) over f in every shape the elimination meets: no rows,
    wide, tall and square, some with a zero row or a row depending on two
    others."""
    for k in range(count):
        m, n = [(0, 3), (2, 5), (5, 3), (4, 4), (3, 3), (1, 1)][k % 6]
        rows = [[_big_element(rng, f) for _ in range(n)] for _ in range(m)]
        rows = [[x if rng.random() < 0.7 else f.zero() for x in row] for row in rows]
        if m > 2 and rng.random() < 0.5:
            c = _big_element(rng, f)
            rows[-1] = [a + c * b for a, b in zip(rows[0], rows[1])]
        if m > 1 and rng.random() < 0.3:
            rows[1] = [f.zero()] * n
        yield rows, n


def _sympy_domain(f, gen):
    """(sympy's domain for f, the map of elements of f into it)."""
    sympy = pytest.importorskip("sympy")
    qq = sympy.QQ
    if gen is None:
        return qq, lambda e: qq(e.as_rational().numerator, e.as_rational().denominator)
    k = qq.algebraic_field(sympy.sympify(gen))
    assert [int(c) for c in k.mod.to_list()] == [int(c) for c in reversed(f.minpoly)]
    return k, lambda e: k([qq(c.numerator, c.denominator) for c in reversed(e.coords)])


def _check_rank_and_kernel(f, gen, rows, n):
    """rank, kernel_rows and kernel of rows over f against sympy's rref: the
    basis vector of free column c is 1 there, minus the rref column c at the
    pivots, and 0 elsewhere."""
    from sympy.polys.matrices import DomainMatrix

    k, to_k = _sympy_domain(f, gen)
    elems = FieldMatrix(f, rows).entries
    red, piv = DomainMatrix([[to_k(e) for e in row] for row in elems], (len(rows), n), k).rref()
    red = red.to_list()
    want = []
    for fc in (c for c in range(n) if c not in piv):
        v = [k.zero] * n
        v[fc] = k.one
        for r, pc in enumerate(piv):
            v[pc] = -red[r][fc]
        want.append(v)
    got = FieldMatrix(f, kernel_rows(rows, n))
    assert [[to_k(e) for e in row] for row in got.entries] == want
    if rows:
        assert FieldMatrix(f, rows).rank() == len(piv)
        assert FieldMatrix(f, rows).kernel() == got


def _check_square(f, gen, a, b):
    """det, inverse and solve of a X = b over f against sympy."""
    from sympy.polys.matrices import DomainMatrix

    k, to_k = _sympy_domain(f, gen)

    def dm(m):
        return DomainMatrix([[to_k(e) for e in row] for row in m.entries], (m.rows, m.cols), k)

    det = dm(a).det()
    assert to_k(a.det()) == det
    if det == k.zero:
        consistent = dm(a).hstack(dm(b)).rank() == dm(a).rank()
        with pytest.raises(Singular if consistent else Inconsistent):
            a.solve(b)
        with pytest.raises(Singular):
            a.inverse()
        return
    inv = dm(a).inv()
    assert dm(a.inverse()).to_list() == inv.to_list()
    x = a.solve(b)
    assert dm(x).to_list() == (inv * dm(b)).to_list() and a * x == b


def test_kernel_rows_matches_sympy_nullspace_on_rational_rows():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    for _ in range(40):
        m, n = rng.randint(0, 6), rng.randint(1, 8)
        rows = [[_sparse_entry(rng) for _ in range(n)] for _ in range(m)]
        ker = kernel_rows(rows, n)
        want = sympy.Matrix(m, n, lambda i, j: sympy.Rational(str(rows[i][j]))).nullspace()
        assert len(ker) == len(want)
        for v in ker:
            assert len(v) == n and all(type(x) is Fraction for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        _check_rank_and_kernel(QQ, None, rows, n)
    for rows, n in _seeded_systems(random.Random(62), QQ, 36):
        _check_rank_and_kernel(QQ, None, rows, n)
        # the same rows as Fractions give the same Fraction basis
        ker = kernel_rows([[e.as_rational() for e in row] for row in rows], n)
        assert ker == kernel_rows(rows, n) and all(type(x) is Fraction for v in ker for x in v)


def test_kernel_rows_matches_sympy_nullspace_over_q_sqrt5():
    sympy = pytest.importorskip("sympy")
    f5 = make_field([-5, 0, 1])
    rng = random.Random(67)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        coords = [[(_sparse_entry(rng), _sparse_entry(rng)) for _ in range(n)] for _ in range(m)]
        rows = [[f5.element(c) for c in row] for row in coords]
        if rng.random() < 0.5 and m > 1:  # a dependent row, so kernels grow
            rows[-1] = [a * (f5.gen() + 1) for a in rows[0]]
            coords[-1] = [tuple(e.coords) for e in rows[-1]]
        ker = kernel_rows(rows, n)
        want = sympy.Matrix(
            m, n, lambda i, j: sympy.Rational(str(coords[i][j][0]))
            + sympy.Rational(str(coords[i][j][1])) * sympy.sqrt(5)
        ).nullspace()
        assert len(ker) == len(want)
        for v in ker:
            assert all(sum((a * x for a, x in zip(row, v)), f5.zero()).is_zero() for row in rows)
        _check_rank_and_kernel(f5, "sqrt(5)", rows, n)
    # and seeded systems over Q(sqrt 5) and over Q(2 sin 2pi/5), which contains it
    for minpoly, gen in _SYMPY_FIELDS[1:]:
        f = make_field(minpoly)
        for rows, n in _seeded_systems(random.Random(68), f, 18):
            _check_rank_and_kernel(f, gen, rows, n)


def test_field_matrix_over_a_reducible_algebra_raises_zero_divisor():
    f = make_field([0, -1, 1])  # Q[x]/(x^2 - x) = Q x Q: x is a zero divisor
    m = FieldMatrix(f, [[f.gen(), 0], [0, 1]])
    for op in (m.kernel, m.rank, m.det):
        with pytest.raises(ZeroDivisor):
            op()


def test_row_lattice_index_is_the_absolute_determinant():
    rng = random.Random(71)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 4)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if frac_det(m) == 0:
            continue
        assert row_lattice_index(m, n) == abs(frac_det(m))
        checked += 1


def test_det_matches_oracle():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        # many zeros, so pivots move and some matrices are singular
        m = [[rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(n)] for _ in range(n)]
        assert qmat(m).det().as_rational() == frac_det(m)
    f5 = make_field([-5, 0, 1])
    r5 = f5.gen()
    assert FieldMatrix(f5, [[0, r5], [1, 0]]).det() == -r5
    assert FieldMatrix(f5, [[r5, 1], [1, r5]]).det() == f5.from_rational(4)
    assert FieldMatrix(f5, [[r5, 5], [1, r5]]).det().is_zero()
    assert FieldMatrix.identity(f5, 0).det() == f5.one()
    # det, inverse and solve of seeded square systems; half the right-hand
    # sides are a * x0, so singular systems are consistent as often as not
    rng = random.Random(31)
    for minpoly, gen in _SYMPY_FIELDS:
        f = make_field(minpoly)
        for rows, n in _seeded_systems(rng, f, 30):
            if len(rows) != n:
                continue
            a = FieldMatrix(f, rows)
            b = FieldMatrix(f, [[_big_element(rng, f) for _ in range(2)] for _ in range(n)])
            _check_square(f, gen, a, a * b if rng.random() < 0.5 else b)


def test_commutation_solution_space():
    # unknown 2x2 rational M with M I = I M for I = [[0,-1],[1,0]]
    i_m = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    rows = []
    for i in range(2):
        for j in range(2):
            row = [Fraction(0)] * 4
            for k in range(2):
                row[i * 2 + k] += i_m[k][j]
                row[k * 2 + j] -= i_m[i][k]
            rows.append(row)
    ker = qmat(rows).kernel()
    assert ker.rows == 2
    # span contains Id and I
    stack = [ker.row(0), ker.row(1)]
    for target in ([1, 0, 0, 1], [0, -1, 1, 0]):
        aug = FieldMatrix(QQ, stack + [[Fraction(t) for t in target]])
        assert aug.rank() == 2


def test_solve_substitution_random():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        a = qmat(rows)
        if a.rank() < n:
            continue
        b = qmat([[Fraction(rng.randint(-5, 5))] for _ in range(n)])
        x = a.solve(b)
        assert a * x == b


def test_inconsistent_raises():
    a = qmat([[1, 1], [1, 1]])
    b = qmat([[1], [2]])
    with pytest.raises(Inconsistent):
        a.solve(b)


def test_snf_scaled_identity():
    res = snf([[2, 0], [0, 2]])
    assert res.diag == [2, 2]


def test_row_lattice_index_diag():
    assert row_lattice_index([[2, 0], [0, 1]], 2) == 2


def _pivot(row):
    return max(j for j, x in enumerate(row) if x)  # rightmost nonzero


def _coset_count_oracle(rows):
    """Enumerate Z^2 / rowspan by canonical reduction over a box."""
    d = abs(frac_det(rows))
    assert d > 0
    reps = set()
    h = hnf(rows)

    def reduce(v):
        v = list(v)
        for row in reversed(h):  # descending pivots for lower-triangular HNF
            piv = _pivot(row)
            q = v[piv] // row[piv]
            v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)

    for x in range(-4, 5):
        for y in range(-4, 5):
            reps.add(reduce((x, y)))
    return len(reps)


def test_snf_skew_example():
    m = [[1, 1], [1, -1]]
    res = snf(m)
    assert res.diag == [1, 2]
    assert _coset_count_oracle(m) == 2
    assert row_lattice_index(m, 2) == 2


def test_hnf_snf_random_properties():
    rng = random.Random(5)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
        res = snf(m)
        # U M V is the diagonal matrix of res.diag
        um = [[sum(res.u[i][k] * m[k][j] for k in range(r)) for j in range(c)] for i in range(r)]
        umv = [
            [sum(um[i][k] * res.v[k][j] for k in range(c)) for j in range(c)] for i in range(r)
        ]
        for i in range(r):
            for j in range(c):
                want = res.diag[i] if i == j and i < len(res.diag) else 0
                assert umv[i][j] == want
        assert abs(frac_det(res.u)) == 1 and abs(frac_det(res.v)) == 1
        for i in range(len(res.diag) - 1):
            if res.diag[i + 1] == 0:
                continue
            assert res.diag[i] != 0 and res.diag[i + 1] % res.diag[i] == 0
        if r == c:
            assert abs(frac_det(m)) == abs(
                frac_det([[res.diag[i] if i == j else 0 for j in range(c)] for i in range(r)])
            )


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_int_hnf_with_transform_properties():
    rng = random.Random(17)
    for trial in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice([1, 9, 1000])
        m = [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]
        if trial % 4 == 0 and r > 1:
            m[-1] = [3 * x for x in m[0]]  # rank-deficient
        h, u, piv = int_hnf_with_transform(m)
        assert _matmul(u, m) == h and abs(frac_det(u)) == 1
        k = len(hnf(m))
        assert h[:k] == hnf(m) and not any(x for row in h[k:] for x in row)
        assert piv == [_pivot(row) for row in h[:k]] + [None] * (r - k)


def _low_rank(rng, r, c):
    """An r x c product of a r x k and a k x c factor, k < min(r, c)."""
    k = rng.randint(0, min(r, c) - 1)
    a = [[rng.randint(-10, 10) for _ in range(k)] for _ in range(r)]
    b = [[rng.randint(-10, 10) for _ in range(c)] for _ in range(k)]
    return _matmul(a, b) if k else [[0] * c for _ in range(r)]


def test_snf_matches_sympy_smith_normal_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(31)
    for trial in range(40):
        r = rng.randint(1, 6)
        c = rng.choice([x for x in range(1, 7) if x != r] if trial % 4 else [r])
        if trial % 2:
            m = _low_rank(rng, r, c)
        else:
            m = [[rng.randint(-1000, 1000) for _ in range(c)] for _ in range(r)]
        res = snf(m)
        d = smith_normal_form(sympy.Matrix(m), domain=sympy.ZZ)
        assert res.diag == [abs(int(d[i, i])) for i in range(min(r, c))]
        umv = _matmul(_matmul(res.u, m), res.v)
        assert umv == [[res.diag[i] if i == j else 0 for j in range(c)] for i in range(r)]
        assert abs(frac_det(res.u)) == 1 and abs(frac_det(res.v)) == 1


def _in_row_lattice(h, v):
    v = list(v)
    for row in reversed(h):  # descending pivots
        piv = _pivot(row)
        if v[piv] % row[piv] == 0:
            q = v[piv] // row[piv]
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def test_hnf_preserves_row_lattice():
    rng = random.Random(9)
    for _ in range(20):
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        h = hnf(m)
        for row in m:
            assert _in_row_lattice(h, row)
        # lower-triangular echelon: rightmost-nonzero pivots strictly increase
        pivots = [_pivot(row) for row in h]
        assert pivots == sorted(set(pivots))
        for r, row in enumerate(h):
            assert row[pivots[r]] > 0
            for rr in range(r + 1, len(h)):
                assert 0 <= h[rr][pivots[r]] < row[pivots[r]]


def test_saturate_integer_kernel():
    # sqrt5 * (M x) is integral only where M x = 0: the saturated integer kernel
    f5 = make_field([-5, 0, 1])
    m = [[1, 2, 3], [2, 4, 6]]
    basis = saturate_integer_solutions(FieldMatrix(f5, [[f5.gen() * x for x in r] for r in m]))
    assert len(basis) == 2 and row_lattice_index(basis + [[1, 0, 0]], 3) == 1  # saturated
    for v in basis:
        assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in m)


def test_hnf_mod_is_the_bounded_canonical_hnf():
    rng = random.Random(73)
    for _ in range(40):
        n, d = rng.randint(1, 5), rng.choice([1, 2, 6, 12, 30, 360, 2**40 * 3])
        rows = [[rng.randint(-3 * d, 3 * d) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        h, piv = _hnf(rows, n, d)
        assert piv == list(range(n)) and not any(map(any, h[n:]))
        h = h[:n]
        assert len(h) == n
        for i, row in enumerate(h):
            assert all(0 <= x < d or (j == i and x == d) for j, x in enumerate(row))
            assert row[i] > 0 and d % row[i] == 0 and not any(row[i + 1 :])
            assert all(h[k][i] < row[i] for k in range(i + 1, n))
        scaled = [[d * int(i == j) for j in range(n)] for i in range(n)]
        assert h == hnf(rows + scaled)


def test_saturate_halving_condition():
    cond = qmat([[Fraction(1, 2), 0]])
    basis = saturate_integer_solutions(cond)
    assert basis == [[2, 0], [0, 1]]


def test_saturate_irrational_coefficient():
    f5 = make_field([-5, 0, 1])
    cond = FieldMatrix(f5, [[f5.gen(), f5.one()]])
    basis = saturate_integer_solutions(cond)
    assert basis == [[0, 1]]


def test_saturate_identity_chiral_conditions():
    # g=1, G=Id, B=0: conditions (a-m)/2 integral componentwise
    rows = [
        [Fraction(1, 2), 0, Fraction(-1, 2), 0],
        [0, Fraction(1, 2), 0, Fraction(-1, 2)],
    ]
    basis = saturate_integer_solutions(qmat(rows))
    assert len(basis) == 4
    assert row_lattice_index(basis, 4) == 4


def _satisfies(cond: FieldMatrix, v):
    """Every functional of `cond` takes an integer value at v."""
    for row in cond.entries:
        acc = cond.field.zero()
        for c, x in zip(row, v):
            if x:
                acc = acc + c * cond.field.from_rational(x)
        if not acc.is_rational() or acc.as_rational().denominator != 1:
            return False
    return True


def _brute_force_lattice(cond: FieldMatrix, bound=4):
    box = itertools.product(range(-bound, bound + 1), repeat=cond.cols)
    return [list(v) for v in box if _satisfies(cond, v)]


def test_saturate_matches_brute_force():
    f5 = make_field([-5, 0, 1])
    s = f5.gen()
    cases = [
        FieldMatrix(f5, [[Fraction(1, 2), 0, Fraction(1, 2), 0]]),
        FieldMatrix(f5, [[s, 1, 0, 0], [0, Fraction(1, 3), 0, 0]]),
        FieldMatrix(f5, [[s * Fraction(1, 2), Fraction(1, 2), 0, 1]]),
    ]
    for cond in cases:
        basis = saturate_integer_solutions(cond)
        brute = _brute_force_lattice(cond)
        h = hnf(basis) if basis else []
        for v in brute:
            if any(v):
                assert _in_row_lattice(h, v)
        for row in basis:
            if max(abs(x) for x in row) <= 4:
                assert row in brute or [-x for x in row] in brute


def test_saturate_matches_smith_and_brute_force_oracles():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    f5 = make_field([-5, 0, 1])
    rng = random.Random(79)

    def q():
        return Fraction(rng.choice([0, 0, rng.randint(-6, 6)]), rng.randint(1, 6))

    for trial in range(36):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        if trial % 3:
            rows = [[q() for _ in range(n)] for _ in range(m)]
            cond = qmat(rows)
        else:
            cond = FieldMatrix(f5, [[f5.element([q(), q()]) for _ in range(n)] for _ in range(m)])
        basis = saturate_integer_solutions(cond)
        assert hnf(basis) == basis
        assert all(_satisfies(cond, v) for v in basis)
        if n <= 4:
            brute = {tuple(v) for v in _brute_force_lattice(cond, bound=2)}
            for v in itertools.product(range(-2, 3), repeat=n):
                assert _in_row_lattice(basis, v) == (v in brute)
        if trial % 3:
            den = math.lcm(*(x.denominator for row in rows for x in row))
            a = sympy.Matrix(m, n, lambda i, j: int(rows[i][j] * den))
            d = smith_normal_form(a, domain=sympy.ZZ)
            inv = [abs(int(d[i, i])) if i < m else 0 for i in range(n)]
            want = math.prod(den // math.gcd(den, x) for x in inv)
            assert row_lattice_index(basis, n) == want


def test_positive_definite_identity():
    cert = positive_definite(FieldMatrix.identity(QQ, 4), QQ.embeddings()[0])
    assert cert.positive
    assert [p.as_rational() for p in cert.pivots] == [1, 1, 1, 1]


def test_positive_definite_counterexample():
    cert = positive_definite(qmat([[1, 2], [2, 1]]), QQ.embeddings()[0])
    assert not cert.positive
    assert [p.as_rational() for p in cert.pivots] == [1, -3]


def test_positive_definite_section4_block():
    f = make_field([-5, 0, 1])
    pos = f.embeddings()[1]
    s = f.gen()
    fifth = f.from_rational(Fraction(1, 5))
    m = FieldMatrix(
        f,
        [
            [5 + s * fifth * 2, 2 - s * fifth],
            [2 - s * fifth, 3 - s * fifth * 2],
        ],
    )
    assert positive_definite(m, pos).positive


def test_positive_definite_vs_minor_oracle():
    rng = random.Random(21)
    emb = QQ.embeddings()[0]
    for _ in range(30):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        sym = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        cert = positive_definite(qmat(sym), emb)
        minors = [frac_det([row[: k + 1] for row in sym[: k + 1]]) for k in range(n)]
        assert cert.positive == all(d > 0 for d in minors)
