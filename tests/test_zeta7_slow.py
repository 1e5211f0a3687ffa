"""Degree-6 cyclotomic stress test (g = 3): the full CM pipeline on Q(zeta7).

The complex structure is read in K and its real value field F of degree 6;
the test takes about 0.1 s, despite the file's name."""

import math

from toruscm import polyq
from toruscm.cm import (
    CmInput,
    cm_certificate,
    cm_torus,
    endomorphism_algebra,
    rational_kahler_search,
)
from toruscm.exactla import positive_definite
from toruscm.fixtures import _embedding_near
from toruscm.numfield import make_field, rationals


def test_zeta7_cm_pipeline(mult_matrix):
    k = make_field([1] * 7, conj_image=[-1] * 6)
    phi = [
        _embedding_near(k, math.cos(2 * math.pi * j / 7), math.sin(2 * math.pi * j / 7))
        for j in (1, 2, 3)
    ]
    basis = [k.gen() ** j for j in range(6)]
    beta = k.element([1, 2, 0, 2, 0, 2])
    inp = CmInput(k, basis, phi, beta, [k.gen() ** j for j in range(1, 7)])
    torus, e_m, g_m = cm_torus(inp)
    assert torus.g == 3 and torus.field.degree == 6
    # the identities cm_torus leaves to its checked input
    assert e_m.is_antisymmetric() and g_m.is_symmetric()
    assert e_m * mult_matrix(beta, basis) == g_m
    for form in (e_m, g_m):
        lifted = form.lift(torus.field)
        assert torus.I.transpose() * lifted * torus.I == lifted
    assert positive_definite(g_m, rationals().embeddings()[0]).positive
    end = endomorphism_algebra(torus)
    assert end.dim == 6
    verdict = cm_certificate(torus, trials=64, seed=3)
    assert verdict.verdict == "CM"
    assert polyq.degree(verdict.minpoly) == 6 and polyq.is_squarefree(verdict.minpoly)
    found, dim = rational_kahler_search(torus, trials=300, seed=0)
    # rational compatible forms correspond to the totally real cubic subfield
    assert found is not None and dim == 3
