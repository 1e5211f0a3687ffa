import dataclasses
import random
from fractions import Fraction

import pytest

from toruscm.exactla import FieldMatrix, positive_definite
from toruscm.numfield import make_field, rationals
from toruscm.torus import (
    ComplexTorusData,
    IncompatibleMetric,
    KahlerData,
    NotPositiveDefinite,
    charge_isometry_check,
    ij_rational,
    induce_gks,
    q_matrix,
)
from toruscm.mirror import construct_mirror
from toruscm.valattice import build_pairing_lattice

QQ = rationals()
QEMB = QQ.embeddings()[0]


def qmat(rows):
    return FieldMatrix(QQ, rows)


def random_square_kahler(rng, t):
    """I-compatible G and antisymmetric B on the tau=i torus t.

    Compatibility with I = [[0,-1],[1,0]] forces G to be a positive scalar.
    """
    a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    c = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    return (
        KahlerData(t, qmat([[a, 0], [0, a]]), qmat([[0, c], [-c, 0]])),
        (a, c),
    )


@pytest.fixture(scope="module")
def square_torus():
    return ComplexTorusData(1, QQ, qmat([[0, -1], [1, 0]]), QEMB)


def test_period_tau_i():
    # the torus with period matrix (1  A i), A = 1, is the left side of the mirror
    t = construct_mirror(qmat([[1]]), [[-1]]).left.torus
    assert t.I == qmat([[0, -1], [1, 0]])


def test_period_section4_entries(zeta5_mirror):
    data = zeta5_mirror
    f, a = data["field"], data["A_eff"]
    zero = FieldMatrix.zeros(f, 2, 2)
    i_m = FieldMatrix.block([[zero, -a], [a.inverse(), zero]])  # period (1  A i)
    t = ComplexTorusData(2, f, i_m, data["embedding"])
    assert t.I == data["pair"].left.torus.I
    assert not t.I.is_rational()  # entries genuinely in Q(2 sin(2pi/5))


def test_induce_identity_example(square_torus):
    k = KahlerData(square_torus, FieldMatrix.identity(QQ, 2), FieldMatrix.zeros(QQ, 2, 2))
    pair = induce_gks(k)
    i2 = qmat([[0, -1], [1, 0]])
    zero = FieldMatrix.zeros(QQ, 2, 2)
    assert pair.calJ == FieldMatrix.block([[zero, i2], [i2, zero]])
    ident = FieldMatrix.identity(QQ, 2)
    assert pair.ij == FieldMatrix.block([[zero, -ident], [-ident, zero]])
    assert pair.metric() == FieldMatrix.identity(QQ, 4)


def test_induce_b_zero_block_diagonal(square_torus):
    rng = random.Random(2)
    k, _ = random_square_kahler(rng, square_torus)
    k = KahlerData(square_torus, k.G, FieldMatrix.zeros(QQ, 2, 2))
    pair = induce_gks(k)
    i_m = square_torus.I
    zero = FieldMatrix.zeros(QQ, 2, 2)
    assert pair.calI == FieldMatrix.block([[i_m, zero], [zero, -i_m.transpose()]])


def test_checked_metric_cannot_be_swapped_and_keeps_one_ij(square_torus):
    k = KahlerData(square_torus, FieldMatrix.identity(QQ, 2), FieldMatrix.zeros(QQ, 2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        k.G = qmat([[1, 0], [0, 2]])
    assert induce_gks(k).ij is k.ij is induce_gks(k).ij


def test_induce_rejects_incompatible_metric(square_torus):
    # a metric is checked when it is built, so no pair is ever induced from it
    with pytest.raises(IncompatibleMetric):
        KahlerData(square_torus, qmat([[1, 0], [0, 2]]), FieldMatrix.zeros(QQ, 2, 2))


def test_induce_rejects_indefinite(square_torus):
    with pytest.raises(NotPositiveDefinite):
        KahlerData(square_torus, qmat([[-1, 0], [0, -1]]), FieldMatrix.zeros(QQ, 2, 2))


def test_induce_section4_matches_displayed_blocks(zeta5_mirror):
    pair = zeta5_mirror["pair"]
    f = zeta5_mirror["field"]
    a = zeta5_mirror["A_eff"]
    rho = FieldMatrix(f, zeta5_mirror["rho"])
    zero = FieldMatrix.zeros(f, 2, 2)
    a_inv = a.inverse()
    calI = FieldMatrix.block(
        [
            [zero, -a, zero, zero],
            [a_inv, zero, zero, zero],
            [zero, zero, zero, -a_inv.transpose()],
            [zero, zero, a.transpose(), zero],
        ]
    )
    calJ = FieldMatrix.block(
        [
            [zero, zero, zero, rho.inverse() * a_inv.transpose()],
            [zero, zero, -(a_inv * rho.inverse()), zero],
            [zero, rho * a, zero, zero],
            [-(a.transpose() * rho), zero, zero, zero],
        ]
    )
    assert pair.left.gks.calI == calI
    assert pair.left.gks.calJ == calJ


def test_gks_axioms_random(square_torus):
    rng = random.Random(17)
    q = q_matrix(QQ, 2)
    ident = FieldMatrix.identity(QQ, 4)
    for _ in range(10):
        k, _ = random_square_kahler(rng, square_torus)
        pair = induce_gks(k)
        comp = pair.ij
        assert pair.calI * pair.calI == -ident
        assert pair.calJ * pair.calJ == -ident
        assert pair.calI * pair.calJ == pair.calJ * pair.calI
        assert pair.calI.transpose() * q * pair.calI == q
        assert pair.calJ.transpose() * q * pair.calJ == q
        gm = q * comp
        assert gm.is_symmetric()
        assert positive_definite(gm, QEMB).positive


def random_rational_kahler(rng, g):
    """Rational (T, G, B) with B != 0: I = P^-1 I0 P and G = P^T P for a
    random invertible P, so G is positive definite and I-compatible."""
    n = 2 * g
    while True:
        p = qmat([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        if p.rank() == n:
            break
    zero, ident = FieldMatrix.zeros(QQ, g, g), FieldMatrix.identity(QQ, g)
    i0 = FieldMatrix.block([[zero, -ident], [ident, zero]])
    b = [[0] * n for _ in range(n)]
    for a in range(n):
        for c in range(a + 1, n):
            b[a][c] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b[c][a] = -b[a][c]
    b[0][1], b[1][0] = Fraction(1, 2), Fraction(-1, 2)  # B != 0
    t = ComplexTorusData(g, QQ, p.inverse() * i0 * p, QEMB)
    return t, KahlerData(t, p.transpose() * p, qmat(b))


def test_induced_j_matches_explicit_b_transform_sympy():
    # the paper's J = [[w^-1 B, -w^-1], [w + B w^-1 B, -B w^-1]], w = G I,
    # built by sympy, against calJ = -calI (IJ), and calI calJ against IJ
    sympy = pytest.importorskip("sympy")

    def sym(m):
        def q(e):
            x = e.as_rational()
            return sympy.Rational(x.numerator, x.denominator)

        return sympy.Matrix(m.rows, m.cols, lambda a, b: q(m[a, b]))

    rng = random.Random(2718)
    for g in (1, 2):
        for _ in range(3):
            t, k = random_rational_kahler(rng, g)
            pair = induce_gks(k)
            b = sym(k.B)
            w = sym(k.G) * sym(t.I)
            w_inv = w.inv()
            oracle = sympy.BlockMatrix([[w_inv * b, -w_inv], [w + b * w_inv * b, -b * w_inv]])
            assert sym(pair.calJ) == oracle.as_explicit()
            assert sym(pair.calI) * sym(pair.calJ) == sym(pair.ij)


def test_induced_pair_verifies():
    # induce_gks does not re-check the pair axioms; they hold for every
    # validated (T, G, B), here with B != 0 and with an irrational B
    rng = random.Random(1618)
    cases = [random_rational_kahler(rng, g) for g in (1, 2, 3)]
    f5 = make_field([-5, 0, 1])
    t5 = ComplexTorusData(1, f5, FieldMatrix(f5, [[0, -1], [1, 0]]), f5.embeddings()[1])
    irr = f5.gen() * Fraction(1, 5)
    b5 = FieldMatrix(f5, [[f5.zero(), irr], [-irr, f5.zero()]])
    cases.append((t5, KahlerData(t5, FieldMatrix.identity(f5, 2), b5)))
    for t, k in cases:
        assert not k.B.is_zero()
        induce_gks(k).verify()


def test_verify_rejects_negated_ij():
    # negating J keeps the squares and makes the structures commute to -IJ
    _, k = random_rational_kahler(random.Random(5), 2)
    pair = induce_gks(k)
    with pytest.raises(ValueError, match="commute"):
        dataclasses.replace(pair, calJ=-pair.calJ).verify()


def test_verify_rejects_structures_not_preserving_q():
    # the structures preserve q; they preserve s^T q s for a shear s only if
    # their s-conjugates preserve q, which the shear breaks
    pair = induce_gks(random_rational_kahler(random.Random(6), 1)[1])
    s = FieldMatrix.identity(QQ, 4) + qmat([[0, 0, 0, 0]] * 3 + [[1, 0, 0, 0]])
    with pytest.raises(ValueError, match="preserve q"):
        dataclasses.replace(pair, q=s.transpose() * pair.q * s).verify()


def test_eigenspace_graphs_identity(square_torus):
    k = KahlerData(square_torus, FieldMatrix.identity(QQ, 2), FieldMatrix.zeros(QQ, 2, 2))
    ident = FieldMatrix.identity(QQ, 4)
    p_plus = build_pairing_lattice(square_torus, k).p_plus
    p_minus = ident - p_plus
    assert p_plus - p_minus == induce_gks(k).ij
    # P+ fixes the graph of -G + B = -Id, P- that of G + B = Id
    graphs = ((p_plus, qmat([[-1, 0], [0, -1]])), (p_minus, FieldMatrix.identity(QQ, 2)))
    for proj, s in graphs:
        graph = FieldMatrix.block([[FieldMatrix.identity(QQ, 2)], [s]])
        assert proj * graph == graph
    assert p_plus * p_plus == p_plus
    assert p_minus * p_minus == p_minus
    assert (p_plus * p_minus).is_zero()


@pytest.mark.parametrize("minpoly", [[0, 1], [5, 0, -5, 0, 1]], ids=["Q", "quartic"])
@pytest.mark.parametrize("two_g", [2, 4, 6])
def test_q_matrix_is_the_block_assembly(minpoly, two_g):
    fld = make_field(minpoly)
    zero, ident = FieldMatrix.zeros(fld, two_g, two_g), FieldMatrix.identity(fld, two_g)
    blocks = FieldMatrix.block([[zero, -ident], [-ident, zero]])
    q = q_matrix(fld, two_g)
    assert (q.num, q.den) == (blocks.num, blocks.den) and q == blocks
    assert q.rows == q.cols == 2 * two_g


def test_q_positive_on_c_plus(square_torus):
    # q((e1,-e1),(e1,-e1)) = 2 = +2 G(e1,e1) for G = Id
    q = q_matrix(QQ, 2)
    v = qmat([[1], [0], [-1], [0]])
    assert (v.transpose() * q * v)[0, 0].as_rational() == 2


def test_q_signs_on_eigenspaces_random(square_torus):
    rng = random.Random(23)
    for _ in range(6):
        k, _ = random_square_kahler(rng, square_torus)
        pair = induce_gks(k)
        for graph, sign in ((k.B - k.G, 1), (k.B + k.G, -1)):
            rows = []
            for col in range(2):
                v = [QQ.zero()] * 4
                v[col] = QQ.one()
                for i in range(2):
                    v[2 + i] = graph[i, col]
                rows.append(v)
            basis = FieldMatrix(QQ, rows)
            gram = basis * pair.q * basis.transpose()
            cert = positive_definite(gram.scale(sign), QEMB)
            assert cert.positive
            # and the restriction is +-2G exactly
            assert gram == pair.kahler.G.scale(2 * sign)


def test_eigenspace_section4(zeta5_mirror):
    side = zeta5_mirror["pair"].left
    assert not (side.kahler.B - side.kahler.G).is_rational()
    assert not build_pairing_lattice(side.torus, side.kahler).p_plus.is_rational()


def test_ij_rational_cases(square_torus, zeta5_mirror):
    k = KahlerData(square_torus, FieldMatrix.identity(QQ, 2), FieldMatrix.zeros(QQ, 2, 2))
    assert ij_rational(induce_gks(k))
    assert not ij_rational(zeta5_mirror["pair"].left.gks)
    # rational G, irrational B entry
    f5 = make_field([-5, 0, 1])
    emb = f5.embeddings()[1]
    t5 = ComplexTorusData(1, f5, FieldMatrix(f5, [[0, -1], [1, 0]]), emb)
    root_fifth = f5.gen() * Fraction(1, 5)  # 1/sqrt5 = sqrt5/5
    b = FieldMatrix(f5, [[f5.zero(), root_fifth], [-root_fifth, f5.zero()]])
    k5 = KahlerData(t5, FieldMatrix.identity(f5, 2), b)
    assert not ij_rational(induce_gks(k5))


def test_charge_isometry_trivial_and_random(square_torus):
    k = KahlerData(square_torus, FieldMatrix.identity(QQ, 2), FieldMatrix.zeros(QQ, 2, 2))
    assert charge_isometry_check(k)
    rng = random.Random(31)
    for _ in range(20):
        k, _ = random_square_kahler(rng, square_torus)
        assert charge_isometry_check(k)


def test_charge_isometry_section4(zeta5_mirror):
    assert charge_isometry_check(zeta5_mirror["pair"].left.kahler)
    assert charge_isometry_check(zeta5_mirror["pair"].right.kahler)


def test_torus_rejects_bad_i():
    with pytest.raises(ValueError):
        ComplexTorusData(1, QQ, qmat([[0, 1], [1, 0]]), QEMB)


def test_a_built_torus_cannot_be_changed():
    # the I^2 = -Id check and the cached End^0(T) hold for the torus's lifetime
    t = ComplexTorusData(1, QQ, qmat([[0, -1], [1, 0]]), QEMB)
    end = t.end
    for name in [f.name for f in dataclasses.fields(t)] + ["end"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, getattr(t, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.I = FieldMatrix.identity(QQ, 2)
    assert t.I == qmat([[0, -1], [1, 0]]) and t.end is end
