import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from toruscm.exactla import FieldMatrix, hnf, rational_kernel, snf
from toruscm.jsonio import decode_torus
from toruscm.numfield import make_field, rationals
from toruscm.torus import ComplexTorusData, KahlerData
from toruscm.valattice import (
    ModeParityMismatch,
    PairingLattice,
    build_pairing_lattice,
    chiral_sublattice,
    module_count,
    supercommutator,
    va_rational,
)

QQ = rationals()
QEMB = QQ.embeddings()[0]
ROOT = pathlib.Path(__file__).resolve().parent.parent


def qmat(rows):
    return FieldMatrix(QQ, rows)


def square_torus():
    return ComplexTorusData(1, QQ, qmat([[0, -1], [1, 0]]), QEMB)


def kahler(a, c=0):
    return KahlerData(square_torus(), qmat([[a, 0], [0, a]]), qmat([[0, c], [-c, 0]]))


def brute_force_chiral(lat: PairingLattice, bound=4):
    """Membership enumeration of Lambda_ch within [-bound, bound]^n."""
    n = lat.n
    cond = lat.q * lat.p_plus
    deg = lat.field.degree
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=n):
        ok = True
        for row in cond.entries:
            acc = lat.field.zero()
            for c, x in zip(row, v):
                if x:
                    acc = acc + c * lat.field.from_rational(x)
            if any(acc.coords[k] != 0 for k in range(1, deg)):
                ok = False
                break
            if acc.coords[0].denominator != 1:
                ok = False
                break
        if ok and any(v):
            out.append(list(v))
    return out


def spans_equal(basis_a, basis_b, n):
    if not basis_a and not basis_b:
        return True
    return hnf(basis_a) == hnf(basis_b)


def test_pplus_identity_case():
    t = square_torus()
    lat = build_pairing_lattice(t, kahler(1))
    half = Fraction(1, 2)
    ident = FieldMatrix.identity(QQ, 2).scale(half)
    expected = FieldMatrix.block([[ident, -ident], [-ident, ident]])
    assert lat.p_plus == expected
    # graph eigenvector: P+ (v, -v) = (v, -v)
    v = qmat([[1], [0], [-1], [0]])
    assert lat.p_plus * v == v


def test_pplus_section4_irrational(zeta5_mirror):
    side = zeta5_mirror["pair"].left
    lat = build_pairing_lattice(side.torus, side.kahler)
    assert not lat.p_plus.is_rational()


def test_chiral_identity_fixture():
    t = square_torus()
    lat = build_pairing_lattice(t, kahler(1))
    rep = chiral_sublattice(lat)
    assert rep.rank == 4 and rep.index == 4 and rep.rational
    assert rep.zpart_rank == 2 and rep.zbarpart_rank == 2
    # oracle: brute force enumeration, equal Z-spans via HNF
    brute = brute_force_chiral(lat)
    assert spans_equal(rep.basis, brute, 4)
    # the lattice is {(a, m) : a = m mod 2}
    for v in brute:
        assert (v[0] - v[2]) % 2 == 0 and (v[1] - v[3]) % 2 == 0


def test_chiral_scaled_metric_fixture():
    t = square_torus()
    lat = build_pairing_lattice(t, kahler(2))
    rep = chiral_sublattice(lat)
    brute = brute_force_chiral(lat)
    assert spans_equal(rep.basis, brute, 4)
    assert rep.rank == 4
    # coset-count oracle for the module count
    assert module_count(rep) == _coset_count(rep.basis, 4)
    assert module_count(rep) == 16


def test_chiral_with_b_field():
    t = square_torus()
    lat = build_pairing_lattice(t, kahler(1, Fraction(1, 2)))
    rep = chiral_sublattice(lat)
    brute = brute_force_chiral(lat)
    assert spans_equal(rep.basis, brute, 4)
    assert rep.rational == (rep.rank == 4)


def _coset_count(basis, n):
    reps = set()
    h = hnf(basis)

    def reduce(v):
        v = list(v)
        for row in reversed(h):
            piv = max(j for j, x in enumerate(row) if x)
            q = v[piv] // row[piv]
            v = [a - q * b for a, b in zip(v, row)]
        return tuple(v)

    for v in itertools.product(range(4), repeat=n):
        reps.add(reduce(v))
    return len(reps)


def test_chiral_section4_not_maximal(zeta5_mirror):
    for side_name in ("left", "right"):
        side = getattr(zeta5_mirror["pair"], side_name)
        lat = build_pairing_lattice(side.torus, side.kahler)
        rep = chiral_sublattice(lat)
        assert rep.rank < 8
        assert rep.index == math.inf
        assert not va_rational(rep)
        assert module_count(rep) == math.inf


def test_chiral_rank_matches_rationality_cross_check(zeta5_mirror):
    # Rationality equivalence: va_rational == ij_rational on fixtures
    from toruscm.torus import ij_rational, induce_gks

    t = square_torus()
    for a, c in ((1, 0), (2, Fraction(1, 2)), (3, Fraction(2, 3))):
        k = kahler(a, c)
        lat = build_pairing_lattice(t, k)
        assert va_rational(chiral_sublattice(lat)) == ij_rational(induce_gks(k)) is True
    side = zeta5_mirror["pair"].left
    lat = build_pairing_lattice(side.torus, side.kahler)
    rational = ij_rational(induce_gks(side.kahler))
    assert va_rational(chiral_sublattice(lat)) == rational is False


def test_chiral_stable_under_unimodular_basis_change():
    t = square_torus()
    lat = build_pairing_lattice(t, kahler(2, Fraction(1, 2)))
    rep = chiral_sublattice(lat)
    u = [
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 2, 1, 0],
        [1, 0, -1, 1],
    ]
    uf = qmat(u)
    assert uf.det() in (1, -1)
    ufi = uf.inverse()
    lat2 = PairingLattice(
        lat.n,
        uf.transpose() * lat.q * uf,
        ufi * lat.p_plus * uf,
    )
    rep2 = chiral_sublattice(lat2)
    assert rep2.rank == rep.rank
    assert module_count(rep2) == module_count(rep)


def random_rational_kahler(rng, g):
    """Rational (G, B) on the product of g square tori, B != 0: G averages
    M M^T + Id with its I-conjugate, so it is positive and I-compatible."""
    n = 2 * g
    zero, ident = FieldMatrix.zeros(QQ, g, g), FieldMatrix.identity(QQ, g)
    t = ComplexTorusData(g, QQ, FieldMatrix.block([[zero, -ident], [ident, zero]]), QEMB)
    m = qmat([[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
              for _ in range(n)])
    g0 = m * m.transpose() + FieldMatrix.identity(QQ, n)
    b = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b[i][j] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            b[j][i] = -b[i][j]
    b[0][1], b[1][0] = Fraction(1, 2), Fraction(-1, 2)
    return t, KahlerData(t, (g0 + t.I.transpose() * g0 * t.I).scale(Fraction(1, 2)), qmat(b))


def test_module_count_is_the_smith_product_on_rational_lattices():
    # the count is the index read off the HNF diagonal; the Smith form of
    # the same basis is an independent product
    rng = random.Random(2031)
    counts = []
    for g in (1, 1, 2, 2, 3, 3):
        t, k = random_rational_kahler(rng, g)
        rep = chiral_sublattice(build_pairing_lattice(t, k))
        assert va_rational(rep)
        counts.append(module_count(rep))
        assert counts[-1] == math.prod(snf(rep.basis).diag)
    assert max(counts) > 1


def cube_root_kahler():
    """g = 2 over Q(2^(1/3)) with unequal part ranks: B - G has irrational
    parts a (E12 + E34) and a^2 (E22 + E44), a = 2^(1/3), and B + G is minus
    its transpose, so Lambda & V+ has rank 2 and Lambda & V- rank 0."""
    f = make_field([-2, 0, 0, 1])
    a, z = f.gen(), f.zero()
    h, a2 = a * Fraction(1, 2), a * a
    zero, ident = FieldMatrix.zeros(f, 2, 2), FieldMatrix.identity(f, 2)
    i_m = FieldMatrix.block([[zero, -ident], [ident, zero]])
    t = ComplexTorusData(2, f, i_m, f.real_embeddings()[0])
    g_m = FieldMatrix(f, [[5, -h, 0, 0], [-h, 5 - a2, 0, 0], [0, 0, 5, -h], [0, 0, -h, 5 - a2]])
    b_m = FieldMatrix(f, [[z, h, z, z], [-h, z, z, z], [z, z, z, h], [z, z, -h, z]])
    return t, KahlerData(t, g_m, b_m)


def test_part_ranks_match_two_sided_kernels():
    # oracle: the z part rank from the combinations P- kills and the zbar
    # part rank from those P+ kills, two kernels; the report derives zbar
    # as rank - z because Lambda_ch = (Lambda_ch & V+) + (Lambda_ch & V-)
    rng = random.Random(4242)
    sides = [random_rational_kahler(rng, g) for g in (1, 1, 2, 2, 3, 3)]
    sides.append(cube_root_kahler())
    docs = [ROOT / "tests" / "data" / "g3_rational_seed1.json"]
    docs += [ROOT / "fixtures" / f"{name}.json" for name in ("tau_i", "tau_2pow14", "zeta5")]
    for path in docs:
        got = decode_torus(json.loads(path.read_text(encoding="utf-8")))
        sides.append((got["torus"], got["kahler"]))
    for t, k in sides:
        lat = build_pairing_lattice(t, k)
        rep = chiral_sublattice(lat)
        columns = FieldMatrix(lat.field, rep.basis).transpose()
        p_minus = FieldMatrix.identity(lat.field, lat.n) - lat.p_plus
        z = len(rational_kernel(p_minus * columns))
        zbar = len(rational_kernel(lat.p_plus * columns))
        assert (rep.zpart_rank, rep.zbarpart_rank) == (z, zbar)
        assert z + zbar == rep.rank
        if k.G.is_rational() and k.B.is_rational():
            assert rep.rank == lat.n and z == zbar == lat.n // 2
    rep = chiral_sublattice(build_pairing_lattice(*cube_root_kahler()))
    assert (rep.rank, rep.zpart_rank, rep.zbarpart_rank) == (2, 2, 0)


def test_supercommutator_table():
    t = square_torus()
    lat = build_pairing_lattice(t, kahler(1))
    h = [1, 0, -1, 0]  # q(h, h) = 2 on the z side
    assert supercommutator(lat, "boson", h, 3, h, -3).as_rational() == 6
    assert supercommutator(lat, "boson", h, 3, h, 2).as_rational() == 0
    hb = [1, 0, 1, 0]  # zbar side, q(hb, hb) = -2
    assert (
        supercommutator(lat, "fermion", hb, Fraction(1, 2), hb, Fraction(-1, 2)).as_rational()
        == 2
    )
    assert supercommutator(lat, "boson", h, 1, hb, -1).as_rational() == 0


def test_supercommutator_parity_errors():
    t = square_torus()
    lat = build_pairing_lattice(t, kahler(1))
    h = [1, 0, -1, 0]
    with pytest.raises(ModeParityMismatch):
        supercommutator(lat, "boson", h, Fraction(1, 2), h, Fraction(-1, 2))
    with pytest.raises(ModeParityMismatch):
        supercommutator(lat, "fermion", h, 1, h, -1)


def test_supercommutator_graded_antisymmetry():
    t = square_torus()
    k = kahler(2, Fraction(1, 2))
    lat = build_pairing_lattice(t, k)
    rng = random.Random(3)
    # z-side vectors: (v, (-G+B)v)
    s = k.B - k.G
    for _ in range(10):
        v1 = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        v2 = [Fraction(rng.randint(-3, 3)) for _ in range(2)]

        def graph_vec(v):
            col = qmat([[x] for x in v])
            bottom = s * col
            return [v[0], v[1], bottom[0, 0].as_rational(), bottom[1, 0].as_rational()]

        h1, h2 = graph_vec(v1), graph_vec(v2)
        n, m = rng.randint(-3, 3), 0
        m = -n
        a = supercommutator(lat, "boson", h1, n, h2, m)
        b = supercommutator(lat, "boson", h2, m, h1, n)
        assert (a + b).is_zero()
        r = Fraction(2 * rng.randint(-2, 2) + 1, 2)
        fa = supercommutator(lat, "fermion", h1, r, h2, -r)
        fb = supercommutator(lat, "fermion", h2, -r, h1, r)
        assert fa == fb
