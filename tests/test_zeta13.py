"""Degree-12 cyclotomic pipeline (g = 6) on Q(zeta13) with the CM type
{zeta -> zeta^j : j < 13/2}: `find_beta` at budget 3, `cm_torus`, End^0,
the CM certificate and the rational metric search."""

import math

from toruscm import polyq
from toruscm.cm import (
    CmInput,
    cm_certificate,
    cm_torus,
    endomorphism_algebra,
    find_beta,
    rational_kahler_search,
)
from toruscm.fixtures import _embedding_near
from toruscm.numfield import make_field


def test_zeta13_cm_pipeline():
    k = make_field([1] * 13, conj_image=[-1] * 12)
    phi = [
        _embedding_near(k, math.cos(2 * math.pi * j / 13), math.sin(2 * math.pi * j / 13))
        for j in range(1, 7)
    ]
    basis = [k.gen() ** j for j in range(12)]
    beta = find_beta(k, basis, phi, 3)
    inp = CmInput(k, basis, phi, beta, [k.gen() ** j for j in range(1, 13)])
    torus, _, _ = cm_torus(inp)
    assert torus.g == 6 and torus.field.degree == 12
    assert endomorphism_algebra(torus).dim == 12
    verdict = cm_certificate(torus, trials=64, seed=3)
    assert verdict.verdict == "CM"
    assert polyq.degree(verdict.minpoly) == 12 and polyq.is_squarefree(verdict.minpoly)
    found, dim = rational_kahler_search(torus, trials=300, seed=0)
    # rational compatible forms correspond to the totally real sextic subfield
    assert found is not None and dim == 6
