"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact (no tolerances); the stated runtime budgets are
asserted with a wall clock.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from toruscm.cm import cm_certificate, endomorphism_algebra, eta_checks, rational_kahler_search
from toruscm.exactla import FieldMatrix, hnf, positive_definite
from toruscm.fixtures import tau_2pow14_torus, tau_i_torus
from toruscm.mirror import (
    construct_mirror,
    isogeny_from_mirror,
    section4_demo,
    verify_isogeny_certificate,
    verify_mirror,
)
from toruscm.numfield import make_field, rationals
from toruscm.torus import (
    ComplexTorusData,
    KahlerData,
    charge_isometry_check,
    ij_rational,
    induce_gks,
    q_matrix,
)
from toruscm.valattice import build_pairing_lattice, chiral_sublattice, module_count, va_rational

QQ = rationals()
QEMB = QQ.embeddings()[0]


def _report(num, label, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[PASS] criterion {num}: {label}{suffix}")


def _square_samples(count, seed):
    """Seeded random rational (I-compatible G, antisymmetric B) on tau=i."""
    rng = random.Random(seed)
    t, _, _ = tau_i_torus()
    out = []
    for _ in range(count):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        out.append((t, KahlerData(
            t,
            FieldMatrix(QQ, [[a, 0], [0, a]]),
            FieldMatrix(QQ, [[0, c], [-c, 0]]),
        )))
    return out


@pytest.fixture(scope="module")
def sample_set(zeta5_mirror):
    """Criterion 3/4/8 sample set: 50 rational samples plus the cyclotomic
    torus, and irrational variants for the equivalence check."""
    samples = _square_samples(50, seed=20250809)
    left = zeta5_mirror["pair"].left
    samples.append((left.torus, left.kahler))
    return samples


def test_criterion_1_section4_golden(zeta5_mirror):
    start = time.monotonic()
    report = section4_demo()
    elapsed = time.monotonic() - start
    # independent exact equality: displayed block vs the Q(sqrt5) targets
    left_g = zeta5_mirror["pair"].left.kahler.G
    block = FieldMatrix(
        left_g.field, [[left_g[2 + i, 2 + j] for j in range(2)] for i in range(2)]
    )
    assert block == zeta5_mirror["metric_block_target"]
    assert report["metric_block_verified"] is True
    assert report["ij_rational"] is False
    assert report["va_rational_left"] is False
    assert report["va_rational_right"] is False
    assert report["cm_left"] == "CM" and report["cm_right"] == "CM"
    assert report["mirror_verified"] is True
    assert elapsed < 5.0
    _report(1, "section4 demo matches the pinned exact values", elapsed)


def test_criterion_2_metric_iff_cm(zeta5_mirror):
    # tau = i
    start = time.monotonic()
    t, _, _ = tau_i_torus()
    g, dim = rational_kahler_search(t)
    assert g is not None
    g_f = g.lift(t.field)
    assert g.is_symmetric()
    assert t.I.transpose() * g_f * t.I == g_f
    assert positive_definite(g, QEMB).positive
    t_tau = time.monotonic() - start
    assert t_tau < 1.0

    # the cyclotomic torus
    start = time.monotonic()
    t5 = zeta5_mirror["pair"].left.torus
    g5, dim5 = rational_kahler_search(t5, trials=200, seed=0)
    assert g5 is not None and dim5 >= 1
    g5_f = g5.lift(t5.field)
    assert g5.is_symmetric()
    assert t5.I.transpose() * g5_f * t5.I == g5_f
    assert positive_definite(g5, QEMB).positive
    t_z5 = time.monotonic() - start
    assert t_z5 < 1.0

    # 2^(1/4): solution space exactly {0}, NotCM by dimension obstruction
    start = time.monotonic()
    t2, _ = tau_2pow14_torus()
    g2, dim2 = rational_kahler_search(t2)
    assert g2 is None and dim2 == 0
    verdict = cm_certificate(t2)
    assert verdict.verdict == "NotCM" and verdict.end_dim == 1
    t_2p = time.monotonic() - start
    assert t_2p < 1.0
    _report(2, "rational metric iff CM on all three fixtures", t_tau + t_z5 + t_2p)


def test_criterion_3_gks_axioms(sample_set):
    start = time.monotonic()
    for t, k in sample_set:
        pair = induce_gks(k)
        n = 4 * t.g
        ident = FieldMatrix.identity(t.field, n)
        q = q_matrix(t.field, 2 * t.g)
        assert pair.calI * pair.calI == -ident
        assert pair.calJ * pair.calJ == -ident
        assert pair.calI * pair.calJ == pair.calJ * pair.calI
        assert pair.calI.transpose() * q * pair.calI == q
        assert pair.calJ.transpose() * q * pair.calJ == q
        metric = pair.metric()
        assert metric.is_symmetric()
        assert positive_definite(metric, t.embedding).positive
        # P+- = (1 +- IJ)/2 fixes the graph of -+G+B and has rank 2g
        p_plus = build_pairing_lattice(t, k).p_plus
        p_minus = ident - p_plus
        assert p_plus - p_minus == pair.calI * pair.calJ
        top = FieldMatrix.identity(t.field, 2 * t.g)
        for proj, s in ((p_plus, k.B - k.G), (p_minus, k.B + k.G)):
            graph = FieldMatrix.block([[top], [s]])
            assert proj * graph == graph
            assert proj.rank() == 2 * t.g
    _report(3, f"GKS axioms exact on {len(sample_set)} samples", time.monotonic() - start)


def test_criterion_4_rationality_equivalence(sample_set, zeta5_mirror):
    start = time.monotonic()
    extra = []
    # irrational metric on the 2^(1/4) torus
    extra.append(tau_2pow14_torus())
    # rational G, irrational B over Q(sqrt5) on a lifted square torus
    f5 = make_field([-5, 0, 1])
    emb5 = f5.embeddings()[1]
    t5 = ComplexTorusData(1, f5, FieldMatrix(f5, [[0, -1], [1, 0]]), emb5)
    irr = f5.gen() * Fraction(1, 5)
    extra.append(
        (
            t5,
            KahlerData(
                t5,
                FieldMatrix.identity(f5, 2),
                FieldMatrix(f5, [[f5.zero(), irr], [-irr, f5.zero()]]),
            ),
        )
    )
    checked = 0
    for t, k in list(sample_set) + extra:
        pair = induce_gks(k)
        lat = build_pairing_lattice(t, k)
        rep = chiral_sublattice(lat)
        gb_rational = k.G.is_rational() and k.B.is_rational()
        assert va_rational(rep) == ij_rational(pair) == gb_rational
        checked += 1
    _report(4, f"va_rational == ij_rational == rational(G,B) on {checked} samples",
            time.monotonic() - start)


def test_criterion_5_chiral_oracle():
    start = time.monotonic()
    t, _, _ = tau_i_torus()
    cases = [
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(1, 2)),
    ]
    for a, c in cases:
        k = KahlerData(
            t,
            FieldMatrix(QQ, [[a, 0], [0, a]]),
            FieldMatrix(QQ, [[0, c], [-c, 0]]),
        )
        lat = build_pairing_lattice(t, k)
        rep = chiral_sublattice(lat)
        brute = _brute_force_chiral(lat)
        assert hnf(rep.basis) == hnf(brute)
    # module count for (G=Id, B=0) equals the enumerated coset count
    k = KahlerData(t, FieldMatrix.identity(QQ, 2), FieldMatrix.zeros(QQ, 2, 2))
    rep = chiral_sublattice(build_pairing_lattice(t, k))
    assert _coset_count(rep.basis, 4) == 4
    assert module_count(rep) == 4
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(5, "saturation equals brute force on [-4,4]^4; module count 4", elapsed)


def _brute_force_chiral(lat, bound=4):
    cond = lat.q * lat.p_plus
    deg = lat.field.degree
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=lat.n):
        if not any(v):
            continue
        ok = True
        for row in cond.entries:
            acc = lat.field.zero()
            for cf, x in zip(row, v):
                if x:
                    acc = acc + cf * lat.field.from_rational(x)
            if any(acc.coords[j] != 0 for j in range(1, deg)) or acc.coords[0].denominator != 1:
                ok = False
                break
        if ok:
            out.append(list(v))
    return out


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


def test_criterion_6_mirror_suite():
    start = time.monotonic()
    rng = random.Random(612)
    count = 0
    for g, reps in ((1, 10), (2, 7), (3, 3)):
        for _ in range(reps):
            a = _random_invertible(rng, g)
            rho = _random_negdef(rng, g)
            pair = construct_mirror(a, rho)
            assert verify_mirror(pair).ok
            assert ij_rational(pair.left.gks)
            res = isogeny_from_mirror(pair)
            assert res.found
            gamma = FieldMatrix(QQ, res.gamma)
            assert verify_isogeny_certificate(pair.right.torus, pair.left.torus, gamma)
            count += 1
    elapsed = time.monotonic() - start
    assert count >= 20
    assert elapsed < 10.0
    _report(6, f"{count} random mirrors verified with isogenies", elapsed)


def _random_invertible(rng, g):
    while True:
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g)]
            for _ in range(g)
        ]
        m = FieldMatrix(QQ, rows)
        if m.rank() == g:
            return m


def _random_negdef(rng, g):
    lower = [
        [rng.randint(1, 3) if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(g)]
        for i in range(g)
    ]
    return [
        [-sum(lower[i][k] * lower[j][k] for k in range(g)) for j in range(g)]
        for i in range(g)
    ]


def test_criterion_7_eta_suite(gaussian_cm, zeta5_cm):
    start = time.monotonic()
    for bundle in (gaussian_cm, zeta5_cm):
        t = bundle["torus"]
        end = endomorphism_algebra(t)
        rep = eta_checks(t, bundle["G"], bundle["E"], end)
        assert rep.commutes_with_i
        assert rep.rosati_antisymmetric
        assert rep.involutions_conjugate
    _report(7, "eta checks (i), (ii), (iv) pass on both CM fixtures",
            time.monotonic() - start)


def test_criterion_8_charge_isometry(sample_set):
    start = time.monotonic()
    for _, k in sample_set:
        assert charge_isometry_check(k)
    _report(8, f"charge-lattice isometry identity exact on {len(sample_set)} samples",
            time.monotonic() - start)
