import pathlib
from fractions import Fraction

import pytest

from toruscm import fixtures
from toruscm.exactla import FieldMatrix
from toruscm.numfield import rationals


@pytest.fixture(scope="session")
def tau_i():
    return fixtures.tau_i_torus()


@pytest.fixture(scope="session")
def tau_2pow14():
    return fixtures.tau_2pow14_torus()


@pytest.fixture(scope="session")
def zeta5_mirror():
    return fixtures.zeta5_mirror_data()


@pytest.fixture(scope="session")
def gaussian_cm():
    from toruscm.cm import cm_torus

    inp = fixtures.gaussian_cm_input()
    torus, e_m, g_m = cm_torus(inp)
    return {"input": inp, "torus": torus, "E": e_m, "G": g_m}


@pytest.fixture(scope="session")
def zeta5_cm():
    from toruscm.cm import cm_torus

    inp = fixtures.zeta5_cm_input()
    torus, e_m, g_m = cm_torus(inp)
    return {"input": inp, "torus": torus, "E": e_m, "G": g_m}


@pytest.fixture(scope="session")
def mult_matrix():
    """Multiplication by x in a Q-basis of its field, by sympy's solve on the
    coordinate columns: column j holds the coordinates of x * b_j."""
    sympy = pytest.importorskip("sympy")

    def columns(xs):
        return sympy.Matrix([[sympy.Rational(str(c)) for c in x.coords] for x in xs]).T

    def mult(x, basis):
        m = columns(basis).solve(columns([x * b for b in basis]))
        return FieldMatrix(rationals(), [[Fraction(str(c)) for c in row] for row in m.tolist()])

    return mult


@pytest.fixture(scope="session")
def fixture_dir():
    """The shipped `fixtures/` directory; tests read it and never write to it."""
    return pathlib.Path(__file__).resolve().parent.parent / "fixtures"
