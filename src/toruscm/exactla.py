"""Exact linear algebra over Q and over a NumberField.

A FieldMatrix is one integer block under one denominator (FLINT's
`fmpq_mat`): rows of numerators, d per entry over a field of degree d, and
one positive denominator, in lowest terms.  A product is one call of the
field's packed, zero-skipping block kernel, `NumberField.matmul` (integer
entries over Q, Kronecker-packed ones otherwise, zero entries skipped), and
one gcd; entries become FieldElements only where a caller reads them.  One
row reduction, `_rref`, backs every rank, kernel, solve, inverse and
determinant, and every field inverse (`FieldElement.inverse` solves its
integer multiplication matrix by `kernel_rows`): integer rows (a block over
Q as it is, other rational rows scaled) are reduced fraction-free by
cross-multiplication and content division; over a larger field each pivot
row is divided by its pivot.  One integer row reduction, `_hnf`, gives the
Hermite form, the Hermite form with its transform (on [M | Id]) and, in
alternating row and column passes, the Smith form; a lattice index is the
product of the HNF diagonal.  Integrality conditions are saturated on
integer blocks by the same `_hnf` modulo the lcm D of their denominators,
which keeps every entry below D, because the solution lattice contains
D*Z^n.  Positive definiteness is certified by exact LDL pivots: over Q by
Bareiss's fraction-free steps on the block, each pivot signed by an integer
leading minor; over a larger field on elements, each signed through a
designated embedding.  No floating point is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .numfield import (
    Embedding,
    FieldElement,
    NotRealUnderEmbedding,
    NumberField,
    exact_sign,
)


class Inconsistent(ValueError):
    pass


class Singular(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


# ---------------------------------------------------------------------------
# FieldMatrix


def _pair(x):
    """(numerators, den) of an element, or of an int or a Fraction."""
    return (x.num, x.den) if isinstance(x, FieldElement) else ((x.numerator,), x.denominator)


def _block(pairs):
    """(num, den) of rows of (numerators, den) pairs, each in lowest terms,
    so the block over the lcm of their denominators is too."""
    den = math.lcm(*(q for row in pairs for _, q in row))
    return tuple(tuple([c * (den // q) for n, q in row for c in n]) for row in pairs), den


class FieldMatrix:
    """A matrix over a NumberField as one integer block under one
    denominator: `num` holds its rows of numerators, where an entry is the d
    power-basis numerators of its element (d the degree, so one int over Q),
    and `den` > 0 is shared by all, in lowest terms (gcd(den, every
    numerator) == 1), so equal matrices have equal blocks.  Entries become
    FieldElements only where a caller reads them (`entries`, `m[i, j]`,
    `row`), and are not kept."""

    __slots__ = ("field", "rows", "cols", "num", "den")

    def __init__(self, field: NumberField, entries):
        pairs = [[field.numerators(e) for e in row] for row in entries]
        if pairs and any(len(r) != len(pairs[0]) for r in pairs):
            raise ValueError("ragged rows")
        self._set(field, *_block(pairs))

    def _set(self, field, num, den):
        self.field, self.num, self.den = field, num, den
        self.rows = len(num)
        self.cols = len(num[0]) // field.degree if num else 0
        return self

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def _of(field, num, den=1) -> "FieldMatrix":
        """The matrix of a block in lowest terms, taken as it is."""
        return object.__new__(FieldMatrix)._set(field, num, den)

    @staticmethod
    def _lowest(field, num, den) -> "FieldMatrix":
        """The matrix of a block, divided by one gcd into lowest terms."""
        g = math.gcd(den, *chain.from_iterable(num)) if den > 1 else 1
        if g > 1:
            num, den = tuple(tuple(x // g for x in row) for row in num), den // g
        return FieldMatrix._of(field, num, den)

    @staticmethod
    def identity(field: NumberField, n: int) -> "FieldMatrix":
        zero = (0,) * field.degree
        one = (1,) + zero[1:]
        return FieldMatrix._of(field, tuple(zero * i + one + zero * (n - 1 - i) for i in range(n)))

    @staticmethod
    def zeros(field: NumberField, r: int, c: int) -> "FieldMatrix":
        return FieldMatrix._of(field, ((0,) * (c * field.degree),) * r)

    @staticmethod
    def block(blocks) -> "FieldMatrix":
        """Assemble from a 2D list of conforming FieldMatrix blocks."""
        den = math.lcm(*(b.den for brow in blocks for b in brow))
        scaled = [[b._times(den // b.den) for b in brow] for brow in blocks]
        num = tuple(sum(parts, ()) for brow in scaled for parts in zip(*brow))
        return FieldMatrix._of(blocks[0][0].field, num, den)

    # -- basics ---------------------------------------------------------------

    def row(self, i):
        el, d, row = self.field.from_numerators, self.field.degree, self.num[i]
        return [el(row[k : k + d], self.den) for k in range(0, len(row), d)]

    @property
    def entries(self):
        return tuple(tuple(self.row(i)) for i in range(self.rows))

    def __getitem__(self, ij):
        i, j = ij
        d = self.field.degree
        k = range(0, self.cols * d, d)[j]  # a negative or too large j as in a list
        return self.field.from_numerators(self.num[i][k : k + d], self.den)

    def transpose(self) -> "FieldMatrix":
        d, num = self.field.degree, self.num
        if d > 1:  # regroup the entries of each column into a row
            num = [[row[k : k + d] for k in range(0, len(row), d)] for row in num]
            return FieldMatrix._of(self.field, tuple(sum(col, ()) for col in zip(*num)), self.den)
        return FieldMatrix._of(self.field, tuple(zip(*num)), self.den)

    def _times(self, k: int):
        """The block with every numerator times the integer k."""
        return self.num if k == 1 else tuple(tuple(x * k for x in row) for row in self.num)

    def __add__(self, o: "FieldMatrix") -> "FieldMatrix":
        return self._entrywise(o, 1)

    def __sub__(self, o: "FieldMatrix") -> "FieldMatrix":
        return self._entrywise(o, -1)

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix._of(self.field, self._times(-1), self.den)

    def __mul__(self, o):
        if isinstance(o, FieldMatrix):
            if self.cols != o.rows:
                raise ValueError("dimension mismatch")
            if self.field != o.field:
                raise ValueError("field mismatch")
            num = self.field.matmul(self.num, o.num)
            return FieldMatrix._lowest(self.field, num, self.den * o.den)
        return self.scale(o)

    def scale(self, c) -> "FieldMatrix":
        c = self.field.coerce(c)
        if not c.is_rational():
            return FieldMatrix(self.field, [[e * c for e in r] for r in self.entries])
        return FieldMatrix._lowest(self.field, self._times(c.num[0]), self.den * c.den)

    def __eq__(self, o):
        return (
            isinstance(o, FieldMatrix)
            and self.field == o.field
            and (self.den, self.num) == (o.den, o.num)
        )

    def __hash__(self):
        return hash((self.field, self.den, self.num))

    def _entrywise(self, o: "FieldMatrix", sign) -> "FieldMatrix":
        """self + sign * o, over the lcm of the two denominators."""
        if self.rows != o.rows or self.cols != o.cols or self.field != o.field:
            raise ValueError("matrix mismatch")
        den = math.lcm(self.den, o.den)
        a, b = den // self.den, sign * (den // o.den)
        num = (tuple([a * x + b * y for x, y in zip(r, s)]) for r, s in zip(self.num, o.num))
        return FieldMatrix._lowest(self.field, tuple(num), den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self == -self.transpose()

    def _coordinate_rows(self):
        """Per row of the block, its integer row of each power-basis
        coordinate."""
        d = self.field.degree
        return [[row[k::d] for k in range(d)] for row in self.num]

    def is_rational(self) -> bool:
        return not any(any(c) for coords in self._coordinate_rows() for c in coords[1:])

    def rational_entries(self):
        if not self.is_rational():
            raise ValueError("element is not rational")
        return [[Fraction(x, self.den) for x in coords[0]] for coords in self._coordinate_rows()]

    def lift(self, field: NumberField) -> "FieldMatrix":
        """A rational matrix over another field: its block, each numerator
        padded with zeros to the field's degree."""
        if self.field == field:
            return self
        if not self.is_rational():
            raise ValueError("element is not rational")
        d, pad = self.field.degree, (0,) * (field.degree - 1)
        num = tuple(tuple(c for x in row[::d] for c in (x, *pad)) for row in self.num)
        return FieldMatrix._of(field, num, self.den)

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols} over deg-{self.field.degree})"

    # -- elimination ------------------------------------------------------------

    def _elimination(self):
        """(rows, ring) for `_rref`: the integer block over Q, else the
        entries over their field."""
        return (self.num, None) if self.field.degree == 1 else (self.entries, self.field)

    def rank(self) -> int:
        rows, ring = self._elimination()
        return len(_rref(rows, self.cols, ring)[1])

    def kernel(self) -> "FieldMatrix":
        """Basis (as rows) of the right kernel; 0 x 0 matrix if trivial."""
        return FieldMatrix(self.field, kernel_rows(self._elimination()[0], self.cols))

    def solve(self, b: "FieldMatrix") -> "FieldMatrix":
        """Solve self * X = b exactly (raises Inconsistent / Singular).  Over
        Q row r of X is the right part of reduced row r over its pivot p_r:
        the block over lcm(p_r) * b.den, scaled by den."""
        if b.rows != self.rows:
            raise ValueError("dimension mismatch")
        (rows, ring), (rhs, _) = self._elimination(), b._elimination()
        red, piv, _ = _rref([a + c for a, c in zip(rows, rhs)], self.cols, ring)
        if any(x for row in red[len(piv) :] for x in row[self.cols :]):
            raise Inconsistent("no solution")
        if len(piv) < self.cols:
            raise Singular("solution space is not unique")
        if ring:  # each pivot row is divided by its pivot
            return FieldMatrix(ring, [r[self.cols :] for r in red[: self.cols]])
        ps = [r[c] for r, c in zip(red, piv)]
        den = math.lcm(*ps)
        num = (tuple([y * (den // p * self.den) for y in r[self.cols :]]) for r, p in zip(red, ps))
        return FieldMatrix._lowest(self.field, tuple(num), den * b.den)

    def inverse(self) -> "FieldMatrix":
        if self.rows != self.cols:
            raise ValueError("not square")
        try:
            return self.solve(FieldMatrix.identity(self.field, self.rows))
        except Inconsistent as exc:  # singular: a zero row of A meets a nonzero row of Id
            raise Singular(str(exc))

    def det(self) -> FieldElement:
        if self.rows != self.cols:
            raise ValueError("not square")
        rows, ring = self._elimination()
        _, piv, (up, down) = _rref(rows, self.cols, ring)
        if len(piv) < self.rows:
            return self.field.zero()
        if ring is None:  # the integer block's determinant is den^n det
            det = Fraction(math.prod(down), math.prod(up) * self.den**self.rows)
            return self.field.from_rational(det)
        one = ring.one()
        return math.prod(down, start=one) / math.prod(up, start=one)


# ---------------------------------------------------------------------------
# Row reduction over a field


def _primitive(row, down):
    """The int row divided by the gcd g of its entries; g goes to `down`."""
    g = math.gcd(*row) or 1
    down.append(g)
    return row if g == 1 else [x // g for x in row]


def _rref(rows, ncols, ring=None):
    """Reduced row echelon form of a copy of `rows`, pivoting in the first
    `ncols` columns (later columns ride along, as in an augmented system).

    Integer rows (`ring` None: a rational system) are reduced fraction-free:
    a pivot p clears its column from every other row as p * row - f * pivot
    row, and each row is divided by the gcd of its entries, which bounds
    coefficient growth.  Rows of elements of `ring`, a field of degree > 1,
    where such rows would grow exponentially, divide a pivot row by its
    pivot at once.  Returns (rows, piv, (up, down)): row r spans the
    reduced row, with its pivot at column piv[r] (over `ring`, one; over Q
    an int left for the caller to divide out); the row operations and those
    divisions multiply the determinant by prod(up) / prod(down).  A
    zero-divisor pivot raises ZeroDivisor.
    """
    up, down = [], []
    work = [list(row) if ring else _primitive(list(row), down) for row in rows]
    m = len(work)
    piv = []
    for c in range(ncols):
        r = len(piv)
        if r == m:
            break
        sel = next((i for i in range(r, m) if work[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            work[r], work[sel] = work[sel], work[r]
            down.append(-1)
        prow = work[r]
        p = prow[c]
        if ring is not None:
            down.append(p)
            inv = p.inverse()
            prow = work[r] = [x * inv if x else x for x in prow]
        for i in range(m):
            f = work[i][c]
            if i == r or not f:
                continue
            if ring is None:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                up.append(a)
                work[i] = _primitive([a * x - b * y for x, y in zip(work[i], prow)], down)
            else:
                work[i] = [x - f * y if y else x for x, y in zip(work[i], prow)]
        piv.append(c)
    return work, piv, (up, down + [work[r][c] for r, c in enumerate(piv)])


def kernel_rows(rows, ncols):
    """Basis rows of {v : row . v = 0 for every row}, one per free column.

    With no rows every column is free.  Rational rows (ints, Fractions,
    elements of Q) become int rows, each scaled by the lcm of its
    denominators, and give Fraction entries; rows over a field of degree > 1
    give FieldElements plus the Fractions 0 and 1 at the free columns.
    """
    ring = None
    if set(map(type, chain.from_iterable(rows))) - {int}:  # not int rows already
        ring = next((e.field for row in rows for e in row if isinstance(e, FieldElement)), None)
        ring = ring if ring is not None and ring.degree > 1 else None
        if ring is None:  # each row times the lcm of its denominators
            rows = [_block([[_pair(e) for e in row]])[0][0] for row in rows]
    red, piv, _ = _rref(rows, ncols, ring)
    basis = []
    for fc in (c for c in range(ncols) if c not in piv):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(piv):  # over `ring` each pivot is one
            v[pc] = -red[r][fc] if ring else Fraction(-red[r][fc], red[r][pc])
        basis.append(v)
    return basis


def rational_kernel(conditions: FieldMatrix):
    """Basis rows (Fractions) of {x in Q^cols : conditions * x = 0}.

    Each row over the field splits into one integer row per power-basis
    coordinate of its block; zero coordinate rows are dropped.
    """
    rows = [r for coords in conditions._coordinate_rows() for r in coords if any(r)]
    return kernel_rows(rows, conditions.cols)


# ---------------------------------------------------------------------------
# Integer lattice algorithms


def _xgcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a


def _hnf(rows, ncols, mod=0):
    """Row-style lower-triangular HNF of a copy of the int `rows`, pivoting
    in the first `ncols` columns (later columns ride along, as in an
    augmented system).  Columns are taken from the right: xgcd steps gather
    a column's gcd into one pivot row, made positive, and that column's
    entries in the earlier pivot rows are reduced into [0, pivot).  Returns
    (rows, piv): the pivot rows by ascending pivot column piv (the row's
    rightmost nonzero in the first `ncols`), then the rows zero there.

    A modulus d > 0 (no columns riding along) gives the HNF of the rows and
    d*Z^ncols with every entry kept below d (Cohen, GTM 138, §2.4.2): each
    column's pivot row starts as d*e_col, so every column has a pivot, which
    divides d, and row operations are taken mod d, which the d*e_j still to
    come allow.  No pivot is lost to the mod: one that gathers an entry q in
    [1, d) ends at most q, and one that gathers none stays d*e_col.  Rows
    zero mod d are dropped, and the others end zero.
    """
    a = [list(map(int, row)) for row in rows]
    if mod:
        scaled = [[mod * (i == j) for j in range(ncols)] for i in range(ncols)]
        a = scaled + [r for r in ([x % mod for x in row] for row in a) if any(r)]
    used, piv = [], []
    for col in range(ncols - 1, -1, -1):
        cand = [i for i, row in enumerate(a) if row[col] and i not in used]
        if not cand:
            continue
        i0 = cand[0]
        for i in cand[1:]:
            p, q = a[i0][col], a[i][col]
            x, y, g = _xgcd(p, q)
            pp, qq = p // g, q // g
            if mod:
                a[i0], a[i] = (
                    [(x * r0 + y * ri) % mod for r0, ri in zip(a[i0], a[i])],
                    [(pp * ri - qq * r0) % mod for r0, ri in zip(a[i0], a[i])],
                )
            else:
                a[i0], a[i] = (
                    [x * r0 + y * ri for r0, ri in zip(a[i0], a[i])],
                    [-qq * r0 + pp * ri for r0, ri in zip(a[i0], a[i])],
                )
        if a[i0][col] < 0:
            a[i0] = [-v for v in a[i0]]
        for r in used:
            q = a[r][col] // a[i0][col]
            if q:
                a[r] = [(v - q * w) % mod if mod else v - q * w for v, w in zip(a[r], a[i0])]
        used.append(i0)
        piv.append(col)
    rest = [row for i, row in enumerate(a) if i not in used]
    return [a[i] for i in reversed(used)] + rest, piv[::-1]


def int_hnf_with_transform(mat):
    """Row-style lower-triangular HNF: returns (H, U, pivot_cols) with
    U unimodular, U*M = [H rows; zero rows], pivots positive, entries below
    a pivot reduced into [0, pivot); pivot_cols is None on the zero rows.
    One `_hnf` on [M | Id]."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    rows, piv = _hnf([list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(mat)], n)
    return [r[:n] for r in rows], [r[n:] for r in rows], piv + [None] * (m - len(piv))


def hnf(mat):
    """Canonical row HNF (zero rows dropped)."""
    rows, piv = _hnf(mat, len(mat[0]) if mat else 0)
    return rows[: len(piv)]


@dataclass
class SnfResult:
    diag: list
    u: list
    v: list


def snf(mat) -> SnfResult:
    """Smith normal form U*M*V = diag, U and V unimodular, the diagonal
    positive with d1 | d2 | ... and then zeros.

    Row passes (`_hnf` on [A | U]) and column passes (on [A^T | V^T])
    alternate until A is diagonal; where a later d_j does not divide an
    earlier d_i, column i is added to column j and the next row pass puts
    gcd(d_i, d_j) there.  The loop ends: after two passes A is a triangular
    block of fixed |det|, and each pass that does not finish settles the
    last unsettled diagonal entry (alone in its row and column) or lowers it
    to a proper divisor, as the column addition lowers d_j.  Finally the
    nonzero diagonal is reversed.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [list(map(int, row)) for row in mat]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    vt = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        rows, _ = _hnf([r + s for r, s in zip(a, u)], n)
        u = [r[n:] for r in rows]
        cols, _ = _hnf([[r[j] for r in rows] + s for j, s in enumerate(vt)], m)
        vt = [c[m:] for c in cols]
        a = [[c[i] for c in cols] for i in range(m)]
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        d = [a[i][i] for i in range(min(m, n)) if a[i][i]]
        bad = next(((i, j) for j in range(len(d)) for i in range(j) if d[i] % d[j]), None)
        if bad is None:
            break
        i, j = bad
        for row in a:
            row[j] += row[i]
        vt[j] = [x + y for x, y in zip(vt[j], vt[i])]
    k = len(d)
    u = u[:k][::-1] + u[k:]
    vt = vt[:k][::-1] + vt[k:]
    return SnfResult(d[::-1] + [0] * (min(m, n) - k), u, [list(c) for c in zip(*vt)])


def row_lattice_index(basis_rows, n):
    """Index [Z^n : L] for L spanned by basis_rows; inf if rank < n.

    At full rank the row HNF is lower triangular, so the index is the
    product of its diagonal.
    """
    rows = hnf(basis_rows)
    return math.prod(row[i] for i, row in enumerate(rows)) if len(rows) == n else math.inf


# ---------------------------------------------------------------------------
# Saturation of field-linear integrality conditions


def saturate_integer_solutions(conditions: FieldMatrix):
    """Sublattice of Z^n where each field-linear functional takes Z values.

    The irrational power-basis coordinates must vanish: x = y V with V a
    rational kernel basis, an integer block over dv, whose free coordinates
    are y.  What is left says R y in Z^t for R = [V^T ; C V^T] (x itself
    and the rational coordinates C), an integer block over dv * den that
    one gcd brings to the lcm D of R's denominators.  So the solutions y
    form D * dual(M), M spanned by D*Z^s and the rows of D*R.  Both M and
    the solutions contain D*Z^s, so each gets its HNF modulo D, and the dual
    is one exact inverse of a triangular matrix.  Returns basis rows,
    possibly empty, in canonical HNF: a row of V is 1 at its free column, 0
    at the other free columns, and has its rightmost nonzero there, so
    x = y V keeps y's pivots and the reduced entries beneath them.
    """
    n = conditions.cols
    coords = conditions._coordinate_rows()
    v = kernel_rows([r for c in coords for r in c[1:] if any(r)], n)
    s = len(v)
    if not s:
        return []
    w, dv = _block([[_pair(x) for x in row] for row in v])
    cols = list(zip(*w))
    r = [[conditions.den * x for x in col] for col in cols]
    r += [[sum(a * b for a, b in zip(c[0], row) if a and b) for row in w] for c in coords]
    den = dv * conditions.den
    g = math.gcd(den, *chain.from_iterable(r))
    den //= g
    m, _ = _hnf([[x // g for x in row] for row in r], s, den)
    # den * M^-1 is integral because den*Z^s lies in M; its columns span the solutions
    inv = [[0] * s for _ in range(s)]
    for i in range(s):
        inv[i][i] = den // m[i][i]
        for j in range(i - 1, -1, -1):
            inv[i][j] = -sum(inv[i][k] * m[k][j] for k in range(j + 1, i + 1)) // m[j][j]
    y = _hnf(list(zip(*inv)), s, den)[0][:s]
    return [[sum(a * b for a, b in zip(row, col) if a and b) // dv for col in cols] for row in y]


# ---------------------------------------------------------------------------
# Positive definiteness


@dataclass
class PositivityCertificate:
    positive: bool
    pivots: list

    def __bool__(self):
        return self.positive


def positive_definite(m: FieldMatrix, embedding: Embedding) -> PositivityCertificate:
    """Exact LDL pivot certificate for symmetric positive definiteness.
    Over Q the loop is fraction-free on the integer block (Bareiss): pivot k
    is D_k / (D_(k-1) den), D_k the k-th leading minor of the block, signed
    by D_k, and each update divides exactly by D_(k-1).  Over a larger field
    it runs on the elements, each pivot signed under `embedding`."""
    if m.rows != m.cols:
        raise NotSymmetric("matrix is not square")
    if not m.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    ring = m.field if m.field.degree > 1 else None
    a = [list(row) for row in (m.entries if ring else m.num)]
    if ring and not embedding.is_real:
        if not ring.has_conj:
            raise NotRealUnderEmbedding("entries not certifiably real")
        if any(e.conj() != e for row in a for e in row):
            raise NotRealUnderEmbedding("entry not fixed by conj")
    n, prev, pivots = m.rows, 1, []
    for k in range(n):
        p = a[k][k]
        pivots.append(p if ring else m.field.from_numerators((p,), prev * m.den))
        if (exact_sign(p, embedding) if ring else p) <= 0:
            return PositivityCertificate(False, pivots)
        pinv = p.inverse() if ring else None
        for row in a[k + 1 :]:
            f, rest = row[k], zip(row[k + 1 :], a[k][k + 1 :])
            if ring is None:
                row[k + 1 :] = [(p * x - f * y) // prev for x, y in rest]
            elif f:
                f = f * pinv
                row[k + 1 :] = [x - f * y for x, y in rest]
        prev = p
    return PositivityCertificate(True, pivots)
