"""Complex torus data, induced generalized Kahler pairs, and their exact
invariants: rationality of IJ, eigenspace graph decomposition, and the
denominator-free charge-lattice isometry identity."""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from fractions import Fraction

from .exactla import FieldMatrix, Singular, positive_definite
from .numfield import Embedding, NumberField


class IncompatibleMetric(ValueError):
    pass


class NotPositiveDefinite(ValueError):
    pass


class NotInvolution(ValueError):
    pass


def q_matrix(fld: NumberField, two_g: int) -> FieldMatrix:
    """The pseudo-Euclidean pairing [[0, -Id], [-Id, 0]] on Gamma + Gamma*."""
    n = 2 * two_g
    rows = [[0] * n for _ in range(n)]
    for i in range(two_g):
        rows[i][two_g + i] = -1
        rows[two_g + i][i] = -1
    return FieldMatrix(fld, rows)


@dataclass
class ComplexTorusData:
    g: int
    field: NumberField
    I: FieldMatrix
    embedding: Embedding

    def __post_init__(self):
        n = 2 * self.g
        if self.I.rows != n or self.I.cols != n:
            raise ValueError("I must be 2g x 2g")
        if not self.embedding.is_real:
            raise ValueError("designated embedding must be real")
        if self.I * self.I != -FieldMatrix.identity(self.field, n):
            raise ValueError("I^2 != -Id")


@dataclass
class KahlerData:
    G: FieldMatrix
    B: FieldMatrix

    def validate_for(self, t: ComplexTorusData) -> None:
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


@dataclass
class GksPair:
    g: int
    field: NumberField
    embedding: Embedding
    calI: FieldMatrix
    calJ: FieldMatrix
    q: FieldMatrix
    induced_from: tuple | None = dfield(default=None, repr=False)

    def composition(self) -> FieldMatrix:
        return self.calI * self.calJ

    def metric(self) -> FieldMatrix:
        return self.q * self.composition()

    def verify(self) -> None:
        n = 4 * self.g
        ident = FieldMatrix.identity(self.field, n)
        if self.calI * self.calI != -ident or self.calJ * self.calJ != -ident:
            raise ValueError("generalized structures must square to -Id")
        if self.calI * self.calJ != self.calJ * self.calI:
            raise ValueError("structures do not commute")
        for m in (self.calI, self.calJ):
            if m.transpose() * self.q * m != self.q:
                raise ValueError("structure does not preserve q")
        gm = self.metric()
        if not gm.is_symmetric():
            raise ValueError("q(., IJ.) is not symmetric")
        if not positive_definite(gm, self.embedding):
            raise NotPositiveDefinite("q(., IJ.) is not positive definite")


def complex_structure_from_period(
    t1: FieldMatrix, t2: FieldMatrix, embedding: Embedding, g: int | None = None
) -> ComplexTorusData:
    """Complex structure of the torus with period matrix (1  T1 + T2 i)."""
    fld = t2.field
    g = g if g is not None else t2.rows
    try:
        t2inv = t2.inverse()
    except Singular:
        raise Singular("T2 is singular")
    a = t1 * t2inv
    top = [(-a), (-(a * t1) - t2)]
    bot = [t2inv, t2inv * t1]
    i_mat = FieldMatrix.block([top, bot])
    return ComplexTorusData(g, fld, i_mat, embedding)


def induce_gks(t: ComplexTorusData, k: KahlerData) -> GksPair:
    """The B-transformed pair (I, J) induced by (T, G, B)."""
    k.validate_for(t)
    fld = t.field
    n = 2 * t.g
    zero = FieldMatrix.zeros(fld, n, n)
    i_m, g_m, b_m = t.I, k.G, k.B
    omega = g_m * i_m
    omega_inv = omega.inverse()
    cal_i = FieldMatrix.block(
        [
            [i_m, zero],
            [b_m * i_m + i_m.transpose() * b_m, -i_m.transpose()],
        ]
    )
    cal_j = FieldMatrix.block(
        [
            [omega_inv * b_m, -omega_inv],
            [omega + b_m * omega_inv * b_m, -(b_m * omega_inv)],
        ]
    )
    g_inv = g_m.inverse()
    alt = FieldMatrix.block(
        [
            [-(i_m * g_inv * b_m), i_m * g_inv],
            [g_m * i_m - b_m * i_m * g_inv * b_m, b_m * i_m * g_inv],
        ]
    )
    if cal_j != alt:
        raise AssertionError("two forms of J disagree")
    pair = GksPair(t.g, fld, t.embedding, cal_i, cal_j, q_matrix(fld, n), (t, k))
    pair.verify()
    return pair


@dataclass
class EigenspaceGraphs:
    p_plus: FieldMatrix
    p_minus: FieldMatrix
    graph_plus: FieldMatrix
    graph_minus: FieldMatrix


def eigenspace_graphs(p: GksPair) -> EigenspaceGraphs:
    """Projectors onto the (+1/-1) eigenspaces of IJ and their graph maps."""
    n = 4 * p.g
    comp = p.composition()
    ident = FieldMatrix.identity(p.field, n)
    if comp * comp != ident:
        raise NotInvolution("(IJ)^2 != Id")
    half = Fraction(1, 2)
    p_plus = (ident + comp).scale(half)
    p_minus = (ident - comp).scale(half)
    graphs = []
    for proj, sign in ((p_plus, 1), (p_minus, -1)):
        s = _graph_from_projector(proj, p.g)
        graph = FieldMatrix.block([[FieldMatrix.identity(p.field, 2 * p.g)], [s]])
        if comp * graph != graph.scale(sign):
            raise AssertionError("graph vector is not an eigenvector")
        graphs.append(s)
    out = EigenspaceGraphs(p_plus, p_minus, graphs[0], graphs[1])
    if p.induced_from is not None:
        _, k = p.induced_from
        if out.graph_plus != -k.G + k.B or out.graph_minus != k.G + k.B:
            raise AssertionError("graphs disagree with -G+B / G+B")
    return out


def _graph_from_projector(proj: FieldMatrix, g: int) -> FieldMatrix:
    """Write the column space of a rank-2g projector as a graph over Gamma_R."""
    n = 4 * g
    top = FieldMatrix(proj.field, [proj.row(i) for i in range(2 * g)])
    bot = FieldMatrix(proj.field, [proj.row(i) for i in range(2 * g, n)])
    cols = top.pivot_columns()
    if len(cols) < 2 * g:
        raise ValueError("projector top block has deficient rank")
    x = FieldMatrix(proj.field, [[top[i, j] for j in cols] for i in range(2 * g)])
    y = FieldMatrix(proj.field, [[bot[i, j] for j in cols] for i in range(2 * g)])
    return y * x.inverse()


def ij_rational(p: GksPair) -> bool:
    """True iff IJ preserves the rational lattice (all entries rational)."""
    return p.composition().is_rational()


def charge_isometry_check(k: KahlerData) -> bool:
    """Denominator-free isometry identity of the charge-lattice map."""
    g_m, b_m = k.G, k.B
    fld = g_m.field
    n = g_m.rows
    try:
        g_inv = g_m.inverse()
    except Singular:
        raise Singular("G is singular")
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
