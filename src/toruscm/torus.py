"""Complex torus data, its endomorphism algebra, induced generalized Kahler
pairs, and their exact invariants: rationality of IJ and the
denominator-free charge-lattice isometry identity.

Data is checked where it enters: `ComplexTorusData` checks I, and
`KahlerData` checks (G, B) against its torus once, when it is built; both
are frozen, so checked data cannot be swapped out.  End^0(T) is the cached
`ComplexTorusData.end`, from the one Sylvester kernel, which the metric
search of `cm` shares.  IJ is read off (G, B) in one place, `KahlerData.ij`,
once per metric; J, q(., IJ.) and the rationality verdict derive from it.
The pair's axioms and the charge isometry follow from checked data and are
held by the tests; `GksPair.verify` checks both for a report that states
them.  The eigenspace projector (1 + IJ)/2 is the pairing lattice's `p_plus`
(:mod:`toruscm.valattice`)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dfield
from functools import cached_property

from .exactla import FieldMatrix, kernel_rows, positive_definite
from .numfield import Embedding, NumberField, rationals


class IncompatibleMetric(ValueError):
    pass


class NotPositiveDefinite(ValueError):
    pass


def q_matrix(fld: NumberField, two_g: int) -> FieldMatrix:
    """The pseudo-Euclidean pairing [[0, -Id], [-Id, 0]] on Gamma + Gamma*."""
    n, zero = 2 * two_g, (0,) * fld.degree
    minus = (-1,) + zero[1:]  # one integer block: -1 at (i, i + 2g) and (i + 2g, i)
    cols = [*range(two_g, n), *range(two_g)]
    return FieldMatrix._of(fld, tuple(zero * j + minus + zero * (n - 1 - j) for j in cols))


@dataclass(frozen=True)
class EndAlgebra:
    basis: tuple  # rational FieldMatrix over Q
    dim: int


@dataclass(frozen=True)
class ComplexTorusData:
    """A complex torus of dimension g >= 1: I on Gamma_Q with I^2 = -Id,
    checked when built."""

    g: int
    field: NumberField
    I: FieldMatrix
    embedding: Embedding

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("g must be >= 1")
        n = 2 * self.g
        if self.I.rows != n or self.I.cols != n:
            raise ValueError("I must be 2g x 2g")
        if not self.embedding.is_real:
            raise ValueError("designated embedding must be real")
        if self.I * self.I != -FieldMatrix.identity(self.field, n):
            raise ValueError("I^2 != -Id")

    @cached_property
    def end(self) -> EndAlgebra:
        """End^0(T), the rational solutions of M I = I M: the kernel of
        M -> M I - I M over the n^2 entries, with M[a, b] the unknown a * n + b."""
        n = 2 * self.g
        ker = _rational_solutions(self, self.I, lambda a, b: a * n + b, n * n)
        basis = tuple(
            FieldMatrix(rationals(), [flat[i * n : (i + 1) * n] for i in range(n)]) for flat in ker
        )
        return EndAlgebra(basis, len(basis))


def _rational_solutions(t: ComplexTorusData, c: FieldMatrix, col, ncols: int):
    """Rational kernel of the Sylvester operator X -> X I - C X, with X[a, b]
    the unknown col(a, b) among ncols: one integer row per entry (i, j) and
    power-basis coordinate, read off the blocks of I and C over the lcm of
    their denominators."""
    n, d = 2 * t.g, t.field.degree
    den = math.lcm(t.I.den, c.den)
    i_num, c_num = (m._times(den // m.den) for m in (t.I, c))
    rows = []
    for i, j, k in itertools.product(range(n), range(n), range(d)):
        row = [0] * ncols
        for kk in range(n):
            row[col(i, kk)] += i_num[kk][j * d + k]
            row[col(kk, j)] -= c_num[i][kk * d + k]
        if any(row):
            rows.append(row)
    return kernel_rows(rows, ncols)


@dataclass(frozen=True)
class KahlerData:
    """A Kahler metric G and a B-field on a torus, checked when built."""

    torus: ComplexTorusData
    G: FieldMatrix
    B: FieldMatrix

    def __post_init__(self):
        t = self.torus
        n = 2 * t.g
        if self.G.rows != n or self.B.rows != n or self.G.cols != n or self.B.cols != n:
            raise ValueError("G and B must be 2g x 2g")
        if not self.G.is_symmetric():
            raise IncompatibleMetric("G is not symmetric")
        if not self.B.is_antisymmetric():
            raise IncompatibleMetric("B is not antisymmetric")
        if t.I.transpose() * self.G * t.I != self.G:
            raise IncompatibleMetric("G(I., I.) != G")
        if not positive_definite(self.G, t.embedding):
            raise NotPositiveDefinite("G is not positive definite")

    @cached_property
    def ij(self) -> FieldMatrix:
        """IJ = [[G^-1 B, -G^-1], [B G^-1 B - G, -B G^-1]] of the pair induced
        by (T, G, B).

        With omega = G I, I omega^-1 = G^-1 and I^T omega = G, so the complex
        structure drops out of the product of the B-transformed pair.
        """
        g_inv = self.G.inverse()
        g_inv_b = g_inv * self.B
        return FieldMatrix.block(
            [[g_inv_b, -g_inv], [self.B * g_inv_b - self.G, -(self.B * g_inv)]]
        )


@dataclass
class GksPair:
    calI: FieldMatrix
    calJ: FieldMatrix
    q: FieldMatrix
    kahler: KahlerData = dfield(repr=False)

    @property
    def ij(self) -> FieldMatrix:
        return self.kahler.ij

    def metric(self) -> FieldMatrix:
        return self.q * self.ij

    def verify(self) -> None:
        t = self.kahler.torus
        ident = FieldMatrix.identity(t.field, 4 * t.g)
        if self.calI * self.calI != -ident or self.calJ * self.calJ != -ident:
            raise ValueError("generalized structures must square to -Id")
        if not self.calI * self.calJ == self.ij == self.calJ * self.calI:
            raise ValueError("structures do not commute to IJ")
        # with m^2 = -Id, m^T q m = q is the same as q m being antisymmetric
        for m in (self.calI, self.calJ):
            if not (self.q * m).is_antisymmetric():
                raise ValueError("structure does not preserve q")
        gm = self.metric()
        if not gm.is_symmetric():
            raise ValueError("q(., IJ.) is not symmetric")
        if not positive_definite(gm, t.embedding):
            raise NotPositiveDefinite("q(., IJ.) is not positive definite")
        if not charge_isometry_check(self.kahler):
            raise ValueError("charge-lattice isometry identity fails")


def induce_gks(k: KahlerData) -> GksPair:
    """The B-transformed pair (I, J) induced by (T, G, B); J = -I (IJ)
    because I^2 = -Id."""
    t = k.torus
    fld = t.field
    n = 2 * t.g
    i_m, b_m = t.I, k.B
    cal_i = FieldMatrix.block(
        [
            [i_m, FieldMatrix.zeros(fld, n, n)],
            [b_m * i_m + i_m.transpose() * b_m, -i_m.transpose()],
        ]
    )
    return GksPair(cal_i, -(cal_i * k.ij), q_matrix(fld, n), k)


def ij_rational(p: GksPair) -> bool:
    """True iff IJ preserves the rational lattice (all entries rational)."""
    return p.ij.is_rational()


def charge_isometry_check(k: KahlerData) -> bool:
    """Denominator-free isometry identity of the charge-lattice map."""
    g_m, b_m = k.G, k.B
    fld = g_m.field
    n = g_m.rows
    g_inv = g_m.inverse()  # G is positive definite
    ident = FieldMatrix.identity(fld, n)
    m = FieldMatrix.block(
        [
            [-g_inv, g_inv],
            [ident - b_m * g_inv, ident + b_m * g_inv],
        ]
    )
    target = FieldMatrix.block(
        [
            [g_inv, FieldMatrix.zeros(fld, n, n)],
            [FieldMatrix.zeros(fld, n, n), -g_inv],
        ]
    ).scale(2)
    return m.transpose() * q_matrix(fld, n) * m == target
