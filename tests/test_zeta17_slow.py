"""Degree-16 cyclotomic pipeline (g = 8) on Q(zeta17) with the CM type
{zeta -> zeta^j : j < 17/2}: `find_beta` at budget 3, `cm_torus`, End^0,
the CM certificate and the rational metric search.

Opt-in with TORUSCM_SLOW=1: the two Sylvester kernels, of End^0 and of the
metric search, take tens of seconds at this degree."""

import math
import os

import pytest

from toruscm import cm, polyq
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

pytestmark = pytest.mark.skipif(
    os.environ.get("TORUSCM_SLOW") != "1",
    reason="set TORUSCM_SLOW=1: End^0's and the metric search's Sylvester kernels "
    "take tens of seconds at degree 16",
)


def test_zeta17_cm_pipeline(monkeypatch):
    k = make_field([1] * 17, conj_image=[-1] * 16)
    phi = [
        _embedding_near(k, math.cos(2 * math.pi * j / 17), math.sin(2 * math.pi * j / 17))
        for j in range(1, 9)
    ]
    basis = [k.gen() ** j for j in range(16)]
    beta = find_beta(k, basis, phi, 3)
    inp = CmInput(k, basis, phi, beta, [k.gen() ** j for j in range(1, 17)])
    factors = []
    monkeypatch.setattr(cm, "_factor_at", lambda *args: factors.append(args))
    torus, _, _ = cm_torus(inp)
    assert torus.g == 8
    # (K, *) is a field, as i is not in K (disc(m) = 17^15 is odd), so F has
    # degree 16, and no orbit union of its roots is tried
    assert k.odd_discriminant and factors == []
    f_minpoly = [17, 0, -680, 0, 6188, 0, -19448, 0, 24310, 0, -12376, 0, 2380, 0, -136, 0, 1]
    assert list(torus.field.minpoly) == f_minpoly
    assert endomorphism_algebra(torus).dim == 16
    verdict = cm_certificate(torus, trials=64, seed=3)
    assert verdict.verdict == "CM"
    assert polyq.degree(verdict.minpoly) == 16 and polyq.is_squarefree(verdict.minpoly)
    _, dim = rational_kahler_search(torus, trials=300, seed=0)
    # rational compatible forms correspond to the totally real octic subfield
    assert dim == 8
