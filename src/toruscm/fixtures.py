"""Builders of the shipped fixtures: the square elliptic curve, the 2^(1/4)
torus, the cyclotomic mirror pair and the CM inputs.  The documents in the
repository's `fixtures/` directory are their `jsonio` encodings, which the
tests hold byte for byte."""

from __future__ import annotations

from fractions import Fraction

from .exactla import FieldMatrix
from .numfield import NumberField, make_field, rationals
from .torus import ComplexTorusData, KahlerData
from .cm import CmInput


def tau_i_torus():
    """The square elliptic curve over Q with G = Id, B = 0."""
    qq = rationals()
    emb = qq.embeddings()[0]
    t = ComplexTorusData(1, qq, FieldMatrix(qq, [[0, -1], [1, 0]]), emb)
    k = KahlerData(t, FieldMatrix.identity(qq, 2), FieldMatrix.zeros(qq, 2, 2))
    pol = FieldMatrix(qq, [[0, 1], [-1, 0]])
    return t, k, pol


def gaussian_cm_input() -> CmInput:
    """Q(i) with basis {1, i}, Phi = {i -> +i}, beta = i."""
    k = make_field([1, 0, 1], conj_image=[0, -1])
    basis = [k.one(), k.gen()]
    phi_idx = _embedding_near(k, 0.0, 1.0)
    return CmInput(k, basis, [phi_idx], k.gen())


def tau_2pow14_torus():
    """g = 1 torus with period 2^(1/4) i: no complex multiplication."""
    f = make_field([-2, 0, 0, 0, 1], conj_image=[0, 1])
    emb = f.real_embeddings()[-1]  # the positive fourth root of 2
    t = f.gen()
    half = f.from_rational(Fraction(1, 2))
    torus = ComplexTorusData(
        1, f, FieldMatrix(f, [[f.zero(), -t], [t * t * t * half, f.zero()]]), emb
    )
    k = KahlerData(
        torus,
        FieldMatrix(f, [[f.one(), f.zero()], [f.zero(), t * t]]),
        FieldMatrix.zeros(f, 2, 2),
    )
    return torus, k


def quartic_sin_field() -> NumberField:
    """Q(2 sin(2 pi / 5)): x^4 - 5x^2 + 5, totally real."""
    return make_field([5, 0, -5, 0, 1], conj_image=[0, 1])


def zeta5_field() -> NumberField:
    return make_field([1, 1, 1, 1, 1], conj_image=[-1, -1, -1, -1])


def zeta5_cm_input() -> CmInput:
    """The cyclotomic CM datum: O = Z[xi], Phi = {xi -> w, xi -> w^2},
    beta = xi - xi^(-1)."""
    k = zeta5_field()
    basis = [
        k.one(),
        k.element([-1, 0, -1, -1]),  # xi + xi^-1
        k.element([1, 2, 1, 1]),  # xi - xi^-1
        k.element([0, 0, 1, -1]),  # xi^2 - xi^-2
    ]
    import math

    phi = [
        _embedding_near(k, math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5)),
        _embedding_near(k, math.cos(4 * math.pi / 5), math.sin(4 * math.pi / 5)),
    ]
    beta = k.element([1, 2, 1, 1])
    autos = [k.gen(), k.gen() ** 2, k.gen() ** 3, k.gen() ** 4]
    return CmInput(k, basis, phi, beta, autos)


def _embedding_near(k: NumberField, re: float, im: float) -> int:
    best = None
    for e in k.embeddings(Fraction(1, 1 << 20)):
        dist = abs(e.enclosure().approx() - (re + 1j * im))
        if best is None or dist < best[0]:
            best = (dist, e.index)
    return best[1]


def zeta5_mirror_data() -> dict:
    """The cyclotomic mirror pair with rho = diag(-2, -1): Z and A from the
    embedding matrix expressed in Q(2 sin(2 pi/5)), the induced pair, and
    the exact target for the irrational metric block."""
    from .mirror import construct_mirror

    f = quartic_sin_field()
    emb = f.real_embeddings()[-1]  # 2 sin(72 deg), the largest root
    s = f.gen()
    sqrt5 = s * s * 2 - 5
    s2 = s * s * s - s * 3  # 2 sin(36 deg) = sqrt(5)/s
    z = FieldMatrix(f, [[f.one(), s * s - 3], [f.one(), 2 - s * s]])
    a = FieldMatrix(f, [[s, s2], [s2, -s]])
    a_eff = z.inverse() * a
    rho = [[-2, 0], [0, -1]]
    pair = construct_mirror(a_eff, rho, embedding=emb)
    fifth = f.from_rational(Fraction(1, 5))
    target = FieldMatrix(
        f,
        [
            [5 + sqrt5 * fifth * 2, 2 - sqrt5 * fifth],
            [2 - sqrt5 * fifth, 3 - sqrt5 * fifth * 2],
        ],
    )
    return {
        "field": f,
        "embedding": emb,
        "Z": z,
        "A": a,
        "A_eff": a_eff,
        "rho": rho,
        "pair": pair,
        "metric_block_target": target,
    }
