"""Mirror maps between generalized complex tori: verification, the
period-normal-form construction, psi extraction, isogeny certificates, and
the cyclotomic end-to-end example.

Data is checked where it enters: rho and A in `construct_mirror`, a pair's
sides and phi when the frozen `MirrorPair`, of frozen sides and map, is
built.  That every construction meets the mirror-map axioms is held by the
tests; `verify_mirror` checks them for a report that states them."""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import FieldMatrix, Singular, positive_definite, row_lattice_index
from .numfield import NumberField, rationals
from .torus import (
    ComplexTorusData,
    GksPair,
    KahlerData,
    ij_rational,
    induce_gks,
    q_matrix,
)


class DimensionMismatch(ValueError):
    pass


class RhoNotNegativeDefinite(ValueError):
    pass


class GraphConditionFails(ValueError):
    pass


class SingularGamma(ValueError):
    pass


@dataclass(frozen=True)
class MirrorMap:
    phi: tuple  # 4g x 4g integer rows, stored as tuples

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(map(tuple, self.phi)))

    def size(self) -> int:
        return len(self.phi)

    def as_field_matrix(self, fld: NumberField) -> FieldMatrix:
        return FieldMatrix(fld, self.phi)

    def unimodular(self) -> bool:
        return row_lattice_index(self.phi, len(self.phi)) == 1

    def q_compatible(self) -> bool:
        """phi^T q phi = q over Q, with q from `torus.q_matrix`; False when
        phi is not square of even size."""
        n = len(self.phi)
        if n % 2 or any(len(r) != n for r in self.phi):
            return False
        phi, q = self.as_field_matrix(rationals()), q_matrix(rationals(), n // 2)
        return phi.transpose() * q * phi == q


@dataclass(frozen=True)
class MirrorSide:
    torus: ComplexTorusData
    kahler: KahlerData
    gks: GksPair


@dataclass(frozen=True)
class MirrorPair:
    """Two sides and a map, checked when built: the sides share g and field,
    and phi has 4g rows of 4g entries."""

    left: MirrorSide
    right: MirrorSide
    map: MirrorMap

    def __post_init__(self):
        tl, tr = self.left.torus, self.right.torus
        n = 4 * tl.g
        if tr.g != tl.g or self.map.size() != n or any(len(r) != n for r in self.map.phi):
            raise DimensionMismatch("mirror map size does not match the pair")
        if tl.field != tr.field:
            raise DimensionMismatch("sides live over different fields")


@dataclass
class MirrorReport:
    unimodular: bool
    q_compatible: bool
    i_conjugated: bool
    j_conjugated: bool

    @property
    def ok(self) -> bool:
        return self.unimodular and self.q_compatible and self.i_conjugated and self.j_conjugated

    def as_dict(self) -> dict:
        return {
            "unimodular": self.unimodular,
            "q_compatible": self.q_compatible,
            "i_conjugated": self.i_conjugated,
            "j_conjugated": self.j_conjugated,
            "ok": self.ok,
        }


def verify_mirror(pair: MirrorPair) -> MirrorReport:
    """Exact per-condition check of the mirror-map axioms."""
    gl, gr = pair.left.gks, pair.right.gks
    phi = pair.map.as_field_matrix(pair.left.torus.field)
    # I' = phi J phi^-1 and J' = phi I phi^-1, cleared of the inverse
    return MirrorReport(
        pair.map.unimodular(),
        pair.map.q_compatible(),
        gr.calI * phi == phi * gl.calJ,
        gr.calJ * phi == phi * gl.calI,
    )


def construct_mirror(a_m: FieldMatrix, rho_rows, embedding=None) -> MirrorPair:
    """The constructive mirror for a torus with period matrix (1  A i).

    `rho_rows` is a symmetric negative definite integer matrix; both sides
    get B = 0 and the block metric from the construction; the block
    permutation-with-signs map exchanges the structures.
    """
    fld = a_m.field
    g = a_m.rows
    if embedding is None:
        reals = fld.real_embeddings()
        if not reals:
            raise ValueError("field needs a real embedding")
        embedding = reals[-1]
    qq = rationals()
    rho_q = FieldMatrix(qq, rho_rows)
    if not rho_q.is_symmetric():
        raise RhoNotNegativeDefinite("rho is not symmetric")
    if rho_q.den != 1:
        raise RhoNotNegativeDefinite("rho must be integral")
    if not positive_definite(-rho_q, qq.embeddings()[0]):
        raise RhoNotNegativeDefinite("rho is not negative definite")
    try:
        a_inv = a_m.inverse()
    except Singular:
        raise Singular("A is singular")
    rho, rho_inv = rho_q.lift(fld), rho_q.inverse().lift(fld)
    zero = FieldMatrix.zeros(fld, g, g)

    left_t = ComplexTorusData(
        g, fld, FieldMatrix.block([[zero, -a_m], [a_inv, zero]]), embedding
    )
    bottom = -(a_m.transpose() * rho * a_m)
    b_zero = FieldMatrix.zeros(fld, 2 * g, 2 * g)
    left_k = KahlerData(left_t, FieldMatrix.block([[-rho, zero], [zero, bottom]]), b_zero)
    right_t = ComplexTorusData(
        g,
        fld,
        FieldMatrix.block([[zero, -(rho * a_m)], [a_inv * rho_inv, zero]]),
        embedding,
    )
    right_k = KahlerData(right_t, FieldMatrix.block([[-rho_inv, zero], [zero, bottom]]), b_zero)
    phi = [[0] * (4 * g) for _ in range(4 * g)]
    for i in range(g):
        phi[i][2 * g + i] = 1
        phi[g + i][g + i] = -1
        phi[2 * g + i][i] = 1
        phi[3 * g + i][3 * g + i] = -1
    return MirrorPair(
        MirrorSide(left_t, left_k, induce_gks(left_k)),
        MirrorSide(right_t, right_k, induce_gks(right_k)),
        MirrorMap(phi),
    )


def psi_maps(pair: MirrorPair):
    """Extract psi+- from phi on the graph vectors and verify their
    defining identities: graph compatibility, the G-isometry, and the
    conjugation (psi- conjugates I to I'; psi+ conjugates I to -I')."""
    fld = pair.left.torus.field
    two_g = 2 * pair.left.torus.g
    phi = pair.map.phi
    blocks = {
        (bi, bj): FieldMatrix(
            fld, [row[bj * two_g : (bj + 1) * two_g] for row in phi[bi * two_g : (bi + 1) * two_g]]
        )
        for bi in (0, 1)
        for bj in (0, 1)
    }
    out = []
    gl, bl = pair.left.kahler.G, pair.left.kahler.B
    gr, br = pair.right.kahler.G, pair.right.kahler.B
    for sign in (1, -1):  # psi+: graph(-G+B); psi-: graph(G+B)
        s = bl - gl.scale(sign)
        sp = br - gr.scale(sign)
        psi = blocks[(0, 0)] + blocks[(0, 1)] * s
        bottom = blocks[(1, 0)] + blocks[(1, 1)] * s
        if bottom != sp * psi:
            raise GraphConditionFails("phi does not respect the graph decomposition")
        if psi.transpose() * gr * psi != gl:
            raise GraphConditionFails("psi is not a G-isometry")
        out.append(psi)
    psi_plus, psi_minus = out
    il, ir = pair.left.torus.I, pair.right.torus.I
    if ir * psi_minus != psi_minus * il:
        raise GraphConditionFails("psi- does not conjugate I to I'")
    if ir * psi_plus != -(psi_plus * il):
        raise GraphConditionFails("psi+ does not anti-conjugate I")
    return psi_plus, psi_minus


@dataclass
class IsogenyResult:
    found: bool
    reason: str
    psi_used: str | None = None
    n: int | None = None
    gamma: list | None = None  # integer rows


def isogeny_from_mirror(pair: MirrorPair) -> IsogenyResult:
    """Integral isogeny n*psi- when IJ is rational (hypothesis of the
    mirror-isogeny proposition); reports HypothesisNotMet otherwise.

    `psi_maps` proves I' psi- = psi- I.  Rational IJ makes G and B rational,
    so psi- = phi_00 + phi_01 (B + G) is rational too."""
    if not ij_rational(pair.left.gks):
        return IsogenyResult(False, "HypothesisNotMet: IJ is not defined over Q")
    _, psi_minus = psi_maps(pair)  # rational: gamma is its constant numerators over n = den
    gamma = [list(row[:: psi_minus.field.degree]) for row in psi_minus.num]
    return IsogenyResult(True, "ok", "-", psi_minus.den, gamma)


def verify_isogeny_certificate(
    t: ComplexTorusData, t_prime: ComplexTorusData, gamma: FieldMatrix
) -> bool:
    """Exact check of I' = gamma^-1 I gamma (an integral multiple of gamma
    is then an isogeny)."""
    if t.field != t_prime.field:
        raise DimensionMismatch("tori live over different fields")
    gamma = gamma.lift(t.field)
    if gamma.rows != gamma.cols:
        raise ValueError("not square")
    if gamma.rank() < gamma.rows:
        raise SingularGamma("gamma is singular")
    # I' = gamma^-1 I gamma, cleared of the inverse
    return gamma * t_prime.I == t.I * gamma


def section4_demo() -> dict:
    """End-to-end reproduction of the cyclotomic mirror counterexample."""
    from . import valattice
    from .cm import cm_certificate
    from .fixtures import zeta5_mirror_data

    data = zeta5_mirror_data()
    pair = data["pair"]
    report = verify_mirror(pair)
    left_g = pair.left.kahler.G
    target = data["metric_block_target"]
    block = FieldMatrix(
        left_g.field, [[left_g[2 + i, 2 + j] for j in range(2)] for i in range(2)]
    )
    metric_ok = block == target
    rational = ij_rational(pair.left.gks)
    cm_left = cm_certificate(pair.left.torus, trials=64, seed=1)
    cm_right = cm_certificate(pair.right.torus, trials=64, seed=1)
    lat_l = valattice.build_pairing_lattice(pair.left.torus, pair.left.kahler)
    lat_r = valattice.build_pairing_lattice(pair.right.torus, pair.right.kahler)
    ch_l = valattice.chiral_sublattice(lat_l)
    ch_r = valattice.chiral_sublattice(lat_r)
    from .jsonio import encode_matrix

    return {
        "metric_block": encode_matrix(block),
        "metric_block_verified": metric_ok,
        "ij_rational": rational,
        "cm_left": cm_left.verdict,
        "cm_right": cm_right.verdict,
        "mirror": report.as_dict(),
        "mirror_verified": report.ok,
        "va_rational_left": valattice.va_rational(ch_l),
        "va_rational_right": valattice.va_rational(ch_r),
        "chiral_rank_left": ch_l.rank,
        "chiral_rank_right": ch_r.rank,
        "module_count_left": valattice.encode_count(valattice.module_count(ch_l)),
        "module_count_right": valattice.encode_count(valattice.module_count(ch_r)),
    }
