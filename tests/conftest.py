import json
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


@pytest.fixture(scope="session")
def document_sides(fixture_dir):
    """(name, KahlerData) for every metric a shipped fixture or test data
    document holds: each torus document's, both sides of a mirror pair, and
    both sides of the mirror that `prop44_g1.json`'s input constructs."""
    from toruscm import jsonio
    from toruscm.mirror import construct_mirror

    data = fixture_dir.parent / "tests" / "data"
    sides = []
    for path in sorted([*fixture_dir.glob("*.json"), *data.glob("*.json")]):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "left" in doc:
            pair = jsonio.decode_pair(doc)
        elif "rho" in doc:
            pair = construct_mirror(jsonio.decode_matrix(rationals(), doc["A"]), doc["rho"])
        else:
            sides.append((path.name, jsonio.decode_torus(doc)["kahler"]))
            continue
        sides += [(f"{path.name}:left", pair.left.kahler), (f"{path.name}:right", pair.right.kahler)]
    return sides
