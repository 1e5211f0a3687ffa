"""The lattice side of the toroidal vertex algebra: the pairing lattice
Lambda = Gamma + Gamma* with its (z, zbar)-decomposition, the chiral
sublattice and rationality verdict, module count, and the mode
supercommutator table.

The z-side projector is (1 + IJ)/2 with IJ read off the checked metric,
`KahlerData.ij`, so a lattice and the pair induced by the same metric share
one IJ; no generalized Kahler pair is induced here."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactla import FieldMatrix, rational_kernel, saturate_integer_solutions
from .numfield import FieldElement, _rational_pair
from .torus import ComplexTorusData, KahlerData, q_matrix


class ModeParityMismatch(ValueError):
    pass


@dataclass
class PairingLattice:
    n: int  # 4g
    q: FieldMatrix
    p_plus: FieldMatrix

    @property
    def field(self):
        return self.q.field


@dataclass
class ChiralReport:
    basis: list  # integer rows spanning Lambda_ch
    n: int
    rank: int
    index: object  # positive int or math.inf
    rational: bool
    zpart_rank: int
    zbarpart_rank: int


def build_pairing_lattice(t: ComplexTorusData, k: KahlerData) -> PairingLattice:
    """Lattice data of V(T, G, B): q and the projector P+ = (1 + IJ)/2 onto
    the z-side, with IJ read off the metric by `KahlerData.ij`."""
    n = 4 * t.g
    p_plus = (FieldMatrix.identity(t.field, n) + k.ij).scale(Fraction(1, 2))
    return PairingLattice(n, q_matrix(t.field, 2 * t.g), p_plus)


def chiral_sublattice(lat: PairingLattice) -> ChiralReport:
    """Saturate the integrality conditions q(P+ lambda, e_i) in Z.

    Since q is unimodular this is exactly lambda_z in Lambda.  The saturated
    basis is a canonical HNF, lower triangular at full rank, so the index is
    the product of its diagonal (inf below full rank).  If lambda_z
    is in Lambda then so is lambda_zbar = lambda - lambda_z, so Lambda_ch is
    the sum of its z and zbar parts and the zbar part rank is the rest.
    """
    conditions = lat.q * lat.p_plus
    basis = saturate_integer_solutions(conditions)
    rank = len(basis)
    rational = rank == lat.n
    index = math.prod(row[i] for i, row in enumerate(basis)) if rational else math.inf
    zr = _part_rank(lat)
    return ChiralReport(basis, lat.n, rank, index, rational, zr, rank - zr)


def _part_rank(lat: PairingLattice) -> int:
    """Rank of Lambda_ch meet the z side, the +1 eigenspace: a lambda there is
    its own z part, so lies in Lambda_ch, and the rank is that of the
    rational kernel of P- = 1 - P+."""
    p_minus = FieldMatrix.identity(lat.field, lat.n) - lat.p_plus
    return len(rational_kernel(p_minus))


def va_rational(report: ChiralReport) -> bool:
    """Rationality of the lattice vertex algebra: maximal chiral rank."""
    return report.rank == report.n


def module_count(report: ChiralReport):
    """|Lambda / Lambda_ch|, the number of irreducible modules: the chiral
    index, already read off the HNF basis; inf when the rank drops."""
    return report.index


def encode_count(c) -> object:
    return "inf" if c == math.inf else c


def _side_of(lat: PairingLattice, h: FieldMatrix) -> str | None:
    img = lat.p_plus * h
    if img == h:
        return "z"
    if img.is_zero():
        return "zbar"
    return None


def _as_column(lat: PairingLattice, h) -> FieldMatrix:
    if isinstance(h, FieldMatrix):
        return h
    return FieldMatrix(lat.field, [[x] for x in h])


def supercommutator(lat: PairingLattice, kind: str, h, mode_a, hp, mode_b) -> FieldElement:
    """Structure constants of the mode algebra; a mode is an int, a
    Fraction or a rational string, read by `numfield._rational_pair`.

    Bosonic: [h_n, h'_m] = n delta_{n,-m} q(h, h') with the sign flipped on
    the zbar side; fermionic: {f_r, f'_s} = delta_{r,-s} q(f, f'), same
    flip.  Mixed z/zbar pairs vanish.
    """
    if kind not in ("boson", "fermion"):
        raise ValueError("kind must be 'boson' or 'fermion'")
    ma, mb = (Fraction(*_rational_pair(m)) for m in (mode_a, mode_b))
    for m in (ma, mb):
        if kind == "boson" and m.denominator != 1:
            raise ModeParityMismatch("bosonic modes must be integers")
        if kind == "fermion" and (m.denominator != 2 or m.numerator % 2 == 0):
            raise ModeParityMismatch("fermionic modes must be half-integers")
    hv = _as_column(lat, h)
    hpv = _as_column(lat, hp)
    side_a, side_b = _side_of(lat, hv), _side_of(lat, hpv)
    if side_a is None or side_b is None:
        raise ValueError("vectors must lie in Lambda_z or Lambda_zbar")
    zero = lat.field.zero()
    if side_a != side_b:
        return zero
    if ma + mb != 0:
        return zero
    qval = (hv.transpose() * lat.q * hpv)[0, 0]
    if side_a == "zbar":
        qval = -qval
    if kind == "boson":
        return qval * lat.field.from_rational(ma)
    return qval
