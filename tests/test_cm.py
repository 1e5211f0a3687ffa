import math
import random
from fractions import Fraction

import pytest

from toruscm import cm, polyq
from toruscm.cm import (
    BetaNotAdmissible,
    CmInput,
    IncompatiblePolarization,
    NotFoundWithinBudget,
    cm_certificate,
    check_polarization,
    cm_torus,
    element_minpoly,
    endomorphism_algebra,
    eta_checks,
    find_beta,
    matrix_minpoly,
    rational_kahler_search,
    simplicity_check,
)
from toruscm.exactla import FieldMatrix, positive_definite
from toruscm.fixtures import (
    _embedding_near,
    gaussian_cm_input,
    tau_2pow14_torus,
    tau_i_torus,
    zeta5_cm_input,
)
from toruscm.numfield import exact_sign, make_field, rationals, trace_q
from toruscm.torus import ComplexTorusData

QQ = rationals()
QEMB = QQ.embeddings()[0]


def test_cm_torus_gaussian(gaussian_cm):
    e_m, g_m = gaussian_cm["E"], gaussian_cm["G"]
    assert e_m == FieldMatrix(QQ, [[0, 2], [-2, 0]])
    assert g_m == FieldMatrix(QQ, [[2, 0], [0, 2]])
    t = gaussian_cm["torus"]
    assert t.field.degree == 1  # the value field collapses to Q
    assert [[x.as_rational() for x in row] for row in t.I.entries] == [[0, -1], [1, 0]]



def _sqrt_minus_d_input(d):
    """Q(sqrt(-d)) with basis {1, x} and beta = x."""
    k = make_field([d, 0, 1], conj_image=[0, -1])
    return CmInput(k, [k.one(), k.gen()], [_embedding_near(k, 0.0, math.sqrt(d))], k.gen())


def _seeded_cm_input(seed):
    """Q(sqrt(-D)) for a seeded D, with a seeded basis and `find_beta`'s beta."""
    rng = random.Random(seed)
    d = rng.randint(1, 500)
    k = make_field([d, 0, 1], conj_image=[0, -1])
    basis = [k.zero()] * 2
    while basis[0].coords[0] * basis[1].coords[1] == basis[0].coords[1] * basis[1].coords[0]:
        basis = [k.element([rng.randint(-3, 3), rng.randint(-3, 3)]) for _ in range(2)]
    phi = [_embedding_near(k, 0.0, math.sqrt(d))]
    return CmInput(k, basis, phi, find_beta(k, basis, phi, 3))


@pytest.mark.parametrize("d", [10**15 + 37, 10**30 + 57])
def test_cm_torus_large_discriminant(d):
    # Q(sqrt(-d)) with basis {1, x} and beta = x: F = Q(sqrt(d)) has a
    # generator of height far beyond any fixed rounding bound
    t, _, _ = cm_torus(_sqrt_minus_d_input(d))
    f = t.field
    assert list(f.minpoly) == [-d, 0, 1]
    s = f.gen()
    assert t.I == FieldMatrix(f, [[f.zero(), s], [-s / d, f.zero()]])


def _cyclotomic_input(n, minpoly=None):
    """Q(zeta_n) with the power basis, Phi = {zeta -> zeta^u : u < n/2, u
    prime to n}, the automorphisms zeta -> zeta^u and `find_beta`'s beta at
    budget 3; the minpoly defaults to a prime n's 1 + x + .. + x^(n - 1)."""
    m = minpoly or [1] * n
    k = make_field(m, conj_image=list((make_field(m).gen() ** (n - 1)).coords))
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    phi = [
        _embedding_near(k, math.cos(2 * math.pi * u / n), math.sin(2 * math.pi * u / n))
        for u in units
        if 2 * u < n
    ]
    basis = [k.gen() ** j for j in range(k.degree)]
    return CmInput(k, basis, phi, find_beta(k, basis, phi, 3), [k.gen() ** u for u in units])


@pytest.mark.parametrize(
    "p, minpoly", [(5, [5, 0, -10, 0, 1]), (7, [-7, 0, 35, 0, -21, 0, 1])], ids=["zeta5", "zeta7"]
)
def test_value_field_generator_is_scaled_by_the_gcd_rule(p, minpoly):
    # s gamma is integral for s = gamma's denominator and for s = the lcm of
    # its minimal polynomial's denominators, so for their gcd: F's minimal
    # polynomial has 4 and 6 bits, where the lcm alone gave
    # x^4 - 6250x^2 + 1953125 and a sextic of 71 bits
    t, _, _ = cm_torus(_cyclotomic_input(p))
    assert list(t.field.minpoly) == minpoly


@pytest.mark.parametrize("d, c, minpoly", [(3, 3, [-3, 0, 1]), (2, 2, [-2, 0, 1])])
def test_value_field_generator_is_scaled_by_its_denominator_in_k(d, c, minpoly):
    # Q(sqrt -d) with basis {1, 1 + c sqrt -d} and beta = sqrt -d: gamma's
    # denominator in K's power basis gives F = Q(sqrt d) at its own height,
    # where its denominator in the degree-4 field Q(sqrt -d, i) gave x^2 - c^2 d
    k = make_field([d, 0, 1], conj_image=[0, -1])
    basis = [k.one(), 1 + c * k.gen()]
    inp = CmInput(k, basis, [_embedding_near(k, 0.0, math.sqrt(d))], k.gen())
    t, _, _ = cm_torus(inp)
    assert list(t.field.minpoly) == minpoly


def test_value_field_generator_within_the_primitive_element_bound(monkeypatch):
    # K = Q(sqrt -2, sqrt -3) = Q[x]/(x^4 + 10x^2 + 1), conj x = -x and
    # sigma(x) = i(sqrt 2 + sqrt 3): neither sqrt -2 nor sqrt -3 generates
    # F = Q(sqrt 2, sqrt 3); the moment curve's first point x does, the third
    # candidate of at most r + C(n, 2)(r - 1) = 2 + 6 (r = 2 nonzero
    # entries, n = [K:Q] = 4)
    k = make_field([1, 0, 10, 0, 1], conj_image=[0, -1])
    base = k.embeddings()[_embedding_near(k, 0.0, math.sqrt(2) + math.sqrt(3)) - 1]
    x = k.gen()
    root2, root3 = -(x**3 + 9 * x) / 2, (x**3 + 11 * x) / 2
    assert root2 * root2 == -2 and root3 * root3 == -3
    minpolys = _calls(monkeypatch, "krylov_minpoly")
    f, femb, values = cm._real_value_field(base, [root2, root3, k.zero()])
    assert list(f.minpoly) == [1, 0, -10, 0, 1] and len(minpolys) == 3
    assert femb.is_real and values[0] + values[1] == f.gen() and values[2] == f.zero()
    assert values[0] * values[0] == f.from_rational(2) and values[1] * values[1] == f.from_rational(3)
    assert exact_sign(values[0], femb) == -1  # i sigma(sqrt -2) = -sqrt 2


@pytest.mark.parametrize(
    "make, f_degree",
    [
        pytest.param("gaussian_cm", 1, id="gaussian"),
        pytest.param("zeta5_cm", 4, id="zeta5"),
        pytest.param(lambda: _sqrt_minus_d_input(10**15 + 37), 2, id="disc15"),
        pytest.param(lambda: _sqrt_minus_d_input(10**30 + 57), 2, id="disc30"),
        # i lies in K: (K, *) is not a field, and F is a proper quotient
        pytest.param(lambda: _cyclotomic_input(8, [1, 0, 0, 0, 1]), 2, id="zeta8"),
        pytest.param(lambda: _cyclotomic_input(12, [1, 0, -1, 0, 1]), 1, id="zeta12"),
        *(
            pytest.param(lambda s=s: _seeded_cm_input(s), None, id=f"seed{s}")
            for s in range(1, 5)
        ),
    ],
)
def test_cm_torus_identities(make, f_degree, request, mult_matrix):
    # cm_torus checks none of these: each follows from the checked input
    if isinstance(make, str):  # a session fixture
        data = request.getfixturevalue(make)
        inp, t, e_m, g_m = data["input"], data["torus"], data["E"], data["G"]
    else:
        inp = make()
        t, e_m, g_m = cm_torus(inp)
    assert 2 * t.g == inp.field.degree
    assert f_degree is None or t.field.degree == f_degree
    # E is antisymmetric and G symmetric: Tr(conj x) = Tr(x) and conj(beta) = -beta
    assert e_m.is_antisymmetric() and g_m.is_symmetric()
    # G = E M_beta: column l of M_beta holds the coordinates of beta a_l
    assert e_m * mult_matrix(inp.beta, inp.basis) == g_m
    # E and G are I-compatible: I multiplies sigma_j by i on Phi, and
    # sigma_j(beta) is imaginary
    for form in (e_m, g_m):
        lifted = form.lift(t.field)
        assert t.I.transpose() * lifted * t.I == lifted
    # G(x, x) = sum over sigma of sigma(-beta^2) |sigma(x)|^2 > 0
    assert positive_definite(g_m, QEMB).positive
    # multiplication by the generator of K commutes with I exactly
    m_gen = mult_matrix(inp.field.gen(), inp.basis).lift(t.field)
    assert m_gen * t.I == t.I * m_gen


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(zeta5_cm_input, id="zeta5"),
        pytest.param(lambda: _sqrt_minus_d_input(7), id="sqrt-7"),
    ],
)
def test_cm_torus_solves_once_over_q_and_never_over_k_or_l(make, monkeypatch):
    # I = i N with N = 2 T^-1 R_Phi^T R_Phi - Id over K: the one solve is the
    # rational T^-1, and none runs over K or F
    inp = make()
    fields = []
    solve = FieldMatrix.solve

    def counted(self, b):
        fields.append(self.field)
        return solve(self, b)

    monkeypatch.setattr(FieldMatrix, "solve", counted)
    cm_torus(inp)
    assert fields == [QQ]


def _zeta7_input():
    """Q(zeta7) with the power basis, Phi = {zeta -> zeta^j : j = 1, 2, 3}."""
    k = make_field([1] * 7, conj_image=[-1] * 6)
    phi = [
        _embedding_near(k, math.cos(2 * math.pi * j / 7), math.sin(2 * math.pi * j / 7))
        for j in (1, 2, 3)
    ]
    autos = [k.gen() ** j for j in range(1, 7)]
    return CmInput(k, [k.gen() ** j for j in range(6)], phi, k.element([1, 2, 0, 2, 0, 2]), autos)


TRACE_FORM_INPUTS = [
    pytest.param(zeta5_cm_input, id="zeta5"),
    pytest.param(lambda: _sqrt_minus_d_input(7), id="sqrt-7"),
    pytest.param(gaussian_cm_input, id="gaussian"),  # i in K: M is reducible
    pytest.param(_zeta7_input, id="zeta7"),
]


@pytest.mark.parametrize("make", TRACE_FORM_INPUTS)
def test_period_n_and_the_forms_match_the_entrywise_definitions(make):
    # the oracle: R = (tau_j(a_k)) over K for j in Phi, then its conjugate
    # rows, and N = R^-1 S R by an elimination over K; E and G entry by entry
    inp = make()
    k, basis, beta = inp.field, inp.basis, inp.beta
    d = k.degree
    base = k.embeddings()[inp.phi[0] - 1]
    autos = inp.automorphisms or [k.gen(), k.conj(k.gen())]
    tau = {k.roots.locate(lambda w, t=t: t.enclosure(base, w)) + 1: t for t in autos}
    r_phi = [[k.evaluate(a.coords, tau[j]) for a in basis] for j in inp.phi]
    r = FieldMatrix(k, r_phi + [[k.conj(x) for x in row] for row in r_phi])
    s = FieldMatrix(k, [[(i == j) * (1 if i < d // 2 else -1) for j in range(d)] for i in range(d)])
    assert cm._period_n(inp) == r.solve(s * r)
    t = FieldMatrix(QQ, [[trace_q(a * b) for b in basis] for a in basis])
    assert r.transpose() * r == t.lift(k)
    _, e_m, g_m = cm_torus(inp)
    conj = [k.conj(a) for a in basis]
    assert e_m == FieldMatrix(QQ, [[trace_q(beta * a * c) for c in conj] for a in basis])
    assert g_m == FieldMatrix(QQ, [[trace_q(-(beta * beta) * a * c) for c in conj] for a in basis])


def test_cm_torus_zeta5_matches_fixture_numerically(zeta5_cm, zeta5_mirror):
    ours = zeta5_cm["torus"]
    ref = zeta5_mirror["pair"].left.torus
    w = Fraction(1, 1 << 40)
    for i in range(4):
        for j in range(4):
            a = ours.I[i, j].enclosure(ours.embedding, w)
            b = ref.I[i, j].enclosure(ref.embedding, w)
            assert abs(a.re.mid() - b.re.mid()) < Fraction(1, 1 << 30)


def test_cm_torus_requires_admissible_beta():
    k = make_field([1, 0, 1], conj_image=[0, -1])
    basis = [k.one(), k.gen()]
    phi = [_embedding_near(k, 0.0, 1.0)]
    # beta = -i has Im sigma(beta) < 0
    with pytest.raises(BetaNotAdmissible):
        cm_torus(CmInput(k, basis, phi, -k.gen()))


def test_check_beta_rejects_zero_by_the_phi_test():
    # with conj complex conjugation, conj(beta) = -beta leaves only beta = 0
    # short of -beta^2 totally positive, and the Phi test rejects it
    k = make_field([1, 0, 1], conj_image=[0, -1])
    inp = CmInput(k, [k.one(), k.gen()], [_embedding_near(k, 0.0, 1.0)])
    with pytest.raises(BetaNotAdmissible, match="Phi"):
        inp.check_beta(k.zero())
    inp.check_beta(k.gen())


def test_check_beta_alone_reads_the_conj_fault():
    # on Q(sqrt 2), conj sqrt 2 -> -sqrt 2 is no complex conjugation and
    # -sqrt(2)^2 < 0; check_beta raises without validate
    k = make_field([-2, 0, 1], conj_image=[0, -1])
    inp = CmInput(k, [k.one(), k.gen()], [])
    with pytest.raises(BetaNotAdmissible, match="complex conjugation"):
        inp.check_beta(k.gen())


def test_find_beta_gaussian():
    k = make_field([1, 0, 1], conj_image=[0, -1])
    beta = find_beta(k, [k.one(), k.gen()], [_embedding_near(k, 0.0, 1.0)], 1)
    assert beta == k.gen()


def test_find_beta_zeta5(zeta5_cm):
    inp = zeta5_cm["input"]
    beta = find_beta(inp.field, inp.basis, inp.phi, 3)
    # lies in the span of the antisymmetric generators xi-xi^-1, xi^2-xi^-2
    k = inp.field
    assert (k.conj(beta) + beta).is_zero()
    CmInput(k, inp.basis, inp.phi, beta, inp.automorphisms).validate()


def test_phi_with_conjugate_pair_rejected(zeta5_cm):
    inp = zeta5_cm["input"]
    k = inp.field
    emb = k.embeddings()[inp.phi[0] - 1]
    bad = CmInput(k, inp.basis, [inp.phi[0], emb.conj_index], inp.beta, inp.automorphisms)
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("index", [0, 3, -1])
def test_phi_index_outside_1_to_d_rejected(index):
    k = make_field([1, 0, 1], conj_image=[0, -1])
    basis = [k.one(), k.gen()]
    with pytest.raises(ValueError, match=f"Phi index {index} is not an embedding index 1..2"):
        CmInput(k, basis, [index]).validate()
    with pytest.raises(ValueError, match=f"Phi index {index} "):
        find_beta(k, basis, [index], 3)


def test_endomorphism_algebra_tau_i():
    t, _, _ = tau_i_torus()
    end = endomorphism_algebra(t)
    assert end.dim == 2
    stack = [
        [e.as_rational() for row in b.entries for e in row] for b in end.basis
    ]
    for target in ([1, 0, 0, 1], [0, -1, 1, 0]):  # Id and I in the span
        aug = FieldMatrix(QQ, stack + [[Fraction(x) for x in target]])
        assert aug.rank() == 2


def test_endomorphism_algebra_2pow14():
    t, _ = tau_2pow14_torus()
    end = endomorphism_algebra(t)
    assert end.dim == 1


def test_endomorphism_algebra_zeta5(zeta5_mirror):
    t = zeta5_mirror["pair"].left.torus
    end = endomorphism_algebra(t)
    assert end.dim >= 4


def test_cm_certificate_tau_i():
    t, _, _ = tau_i_torus()
    v = cm_certificate(t)
    assert v.verdict == "CM"
    assert list(v.minpoly) == [1, 0, 1]


def test_cm_certificate_2pow14_dimension_obstruction():
    t, _ = tau_2pow14_torus()
    v = cm_certificate(t)
    assert v.verdict == "NotCM" and v.end_dim == 1


def test_cm_certificate_zeta5(zeta5_mirror):
    for side in ("left", "right"):
        t = getattr(zeta5_mirror["pair"], side).torus
        v = cm_certificate(t, trials=64, seed=1)
        assert v.verdict == "CM"
        assert polyq.degree(v.minpoly) == 4 and polyq.is_squarefree(v.minpoly)


def test_cm_certificate_never_notcm_on_construction(gaussian_cm, zeta5_cm):
    for bundle in (gaussian_cm, zeta5_cm):
        assert cm_certificate(bundle["torus"]).verdict != "NotCM"


def test_cm_witness_is_the_first_basis_element(zeta5_mirror):
    for t in (zeta5_mirror["pair"].left.torus, tau_i_torus()[0]):
        assert cm_certificate(t, trials=64, seed=1).witness == endomorphism_algebra(t).basis[0]


def _product_over_2pow14(first, second):
    """The torus first x second, with I block-diagonal over the field of the
    2^(1/4) curve."""
    e, _ = tau_2pow14_torus()
    f = e.field
    z = FieldMatrix.zeros(f, 2, 2)
    return ComplexTorusData(
        2, f, FieldMatrix.block([[first.I.lift(f), z], [z, second.I.lift(f)]]), e.embedding
    )


def _calls(monkeypatch, name):
    """A list that grows by one per call of cm.<name>."""
    calls = []
    fn = getattr(cm, name)
    monkeypatch.setattr(cm, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_cm_certificate_spends_exactly_its_budget(monkeypatch):
    # End(E x E) = M_2(Q) has dimension 2g, but no element of degree 4 with
    # a squarefree minimal polynomial, so every trial is spent
    e, _ = tau_2pow14_torus()
    t = _product_over_2pow14(e, e)
    minpolys = _calls(monkeypatch, "matrix_minpoly")
    for trials, spent in ((9, 9), (0, 0), (-3, 0)):
        minpolys.clear()
        v = cm_certificate(t, trials=trials)
        assert (v.verdict, v.witness, v.minpoly, v.end_dim) == ("Inconclusive", None, None, 4)
        assert len(minpolys) == spent


def test_product_without_cm_has_no_rational_metric(monkeypatch):
    # Theorem 1 on E_i x E: no CM (dim End = 3 < 4), and the rational
    # I-invariant forms are the multiples of E_i's metric, none definite;
    # on that line Q.b the search tries b and -b and stops
    t = _product_over_2pow14(tau_i_torus()[0], tau_2pow14_torus()[0])
    v = cm_certificate(t)
    assert (v.verdict, v.end_dim) == ("NotCM", 3)
    checks = _calls(monkeypatch, "positive_definite")
    assert rational_kahler_search(t, trials=7) == (None, 1)
    assert len(checks) == 2
    assert rational_kahler_search(t) == (None, 1)
    assert len(checks) == 4
    assert rational_kahler_search(t, trials=1) == (None, 1)
    assert len(checks) == 5


def _e_i_power(g):
    """E_i^g: I block-diagonal in [[0, -1], [1, 0]] over Q."""
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    for b in range(0, 2 * g, 2):
        rows[b][b + 1], rows[b + 1][b] = -1, 1
    return ComplexTorusData(g, QQ, FieldMatrix(QQ, rows), QEMB)


def test_cm_certificate_finds_a_witness_on_e_i_squared():
    # End^0(E_i x E_i) = M_2(Q(i)), of dimension 8: no basis element is a
    # witness, and a seeded draw finds one of degree 4, squarefree
    t = _e_i_power(2)
    v = cm_certificate(t)
    assert (v.verdict, v.end_dim) == ("CM", 8)
    assert polyq.degree(v.minpoly) == 4 and polyq.is_squarefree(v.minpoly)
    assert matrix_minpoly(v.witness) == v.minpoly
    assert v.witness.lift(t.field) * t.I == t.I * v.witness.lift(t.field)


def test_kahler_search_tries_the_symmetrized_identity_on_a_rational_i(monkeypatch):
    # E_i^3 has CM, but its 9 basis elements are not definite and 200 trials
    # of seeded draws missed a metric; with I rational, (Id + I^T I) / 2 = Id
    # is the tenth candidate, right after the basis
    t = _e_i_power(3)
    assert cm_certificate(t).verdict == "CM"
    checks = _calls(monkeypatch, "positive_definite")
    g, dim = rational_kahler_search(t)
    assert dim == 9 and g == FieldMatrix.identity(QQ, 6) and len(checks) == 10


def test_matrix_minpoly_of_mult_by_xi(zeta5_cm, mult_matrix):
    inp = zeta5_cm["input"]
    m = mult_matrix(inp.field.gen(), inp.basis)
    assert list(matrix_minpoly(m)) == [1, 1, 1, 1, 1]


# Q(zeta5), Q(2 sin 2pi/5) and the degree-8 field Q(zeta5, i)
_SPAN_MINPOLYS = [[1] * 5, [5, 0, -5, 0, 1], [16, 16, 8, 0, -4, 0, 2, 2, 1]]


@pytest.mark.parametrize("minpoly", _SPAN_MINPOLYS, ids=lambda m: ",".join(map(str, m)))
def test_coordinates_and_mult_matrix_match_sympy_solve(minpoly):
    sympy = pytest.importorskip("sympy")
    f = make_field(minpoly)
    d = f.degree
    rng = random.Random(sum(minpoly) + d)

    def element():
        return f.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)])

    def columns(xs):
        return sympy.Matrix([[sympy.Rational(str(x.coords[i])) for x in xs] for i in range(d)])

    def as_sympy(rows):
        return sympy.Matrix([[sympy.Rational(str(c)) for c in row] for row in rows])

    for _ in range(4):
        basis = [element() for _ in range(d)]
        assert columns(basis).rank() == d
        x = element()
        want = columns(basis).solve(columns([x * b for b in basis]))
        got = cm._coordinates([b.coords for b in basis], [(x * b).coords for b in basis])
        assert as_sympy(zip(*got)) == want
        # a proper subspace: combinations of it are inside, the next basis
        # element is not, and a combination makes the span dependent
        span = basis[: rng.randint(1, d - 1)]
        inside = [sum((b * rng.randint(-3, 3) for b in span), f.zero()) for _ in range(3)]
        coords = cm._coordinates([b.coords for b in span], [t.coords for t in inside])
        assert len(coords) == len(inside)
        for t, c in zip(inside, coords):
            sol, params = columns(span).gauss_jordan_solve(columns([t]))
            assert params.shape[0] == 0 and as_sympy([c]).T == sol
        outside = [t.coords for t in inside] + [basis[len(span)].coords]
        assert cm._coordinates([b.coords for b in span], outside) is None
        assert cm._coordinates([b.coords for b in span + inside[:1]], []) is None
        dependent = basis[:-1] + [basis[0] * 2 - basis[1]]
        assert cm._coordinates([b.coords for b in dependent], [x.coords]) is None


def test_rational_kahler_search_tau_i():
    t, _, _ = tau_i_torus()
    g, dim = rational_kahler_search(t)
    assert g is not None and dim >= 1
    assert g.is_symmetric()
    assert t.I.transpose() * g.lift(t.field) * t.I == g.lift(t.field)
    assert positive_definite(g, QEMB).positive


def test_rational_kahler_search_2pow14_empty():
    t, _ = tau_2pow14_torus()
    g, dim = rational_kahler_search(t)
    assert g is None and dim == 0


def test_rational_kahler_search_zeta5(zeta5_mirror):
    t = zeta5_mirror["pair"].left.torus
    g, dim = rational_kahler_search(t, trials=200, seed=0)
    assert g is not None and dim >= 1
    g_f = g.lift(t.field)
    assert t.I.transpose() * g_f * t.I == g_f
    assert positive_definite(g, QEMB).positive


def test_kahler_search_finds_trace_form(zeta5_cm):
    # the trace metric itself lies in the rational solution space
    t = zeta5_cm["torus"]
    g_m = zeta5_cm["G"]
    g_f = g_m.lift(t.field)
    assert t.I.transpose() * g_f * t.I == g_f


def test_kahler_search_succeeds_on_cm_torus_outputs(gaussian_cm, zeta5_cm):
    # forward direction of the metric/CM equivalence, on construction output
    for bundle in (gaussian_cm, zeta5_cm):
        t = bundle["torus"]
        g, dim = rational_kahler_search(t, trials=200, seed=0)
        assert g is not None and dim >= 1
        g_f = g.lift(t.field)
        assert t.I.transpose() * g_f * t.I == g_f
        assert positive_definite(g, QEMB).positive


def test_eta_tau_i_known_value():
    t, k, pol = tau_i_torus()
    end = endomorphism_algebra(t)
    rep = eta_checks(t, FieldMatrix.identity(QQ, 2), pol, end)
    assert rep.passed
    # solving G = eta^T omega0 for G=Id, omega0=[[0,1],[-1,0]] gives -I
    assert rep.eta == FieldMatrix(QQ, [[0, 1], [-1, 0]])


def test_check_polarization_names_the_failed_check(zeta5_cm):
    t, e_m = zeta5_cm["torus"], zeta5_cm["E"]
    assert check_polarization(t, e_m) == e_m.inverse()
    swap = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    cases = {
        "not 2g x 2g": FieldMatrix(QQ, [[0, 1], [-1, 0]]),
        "not antisymmetric": FieldMatrix.identity(QQ, 4),
        "singular": FieldMatrix.zeros(QQ, 4, 4),
        "not I-compatible": FieldMatrix(QQ, swap),
    }
    for failure, omega in cases.items():
        with pytest.raises(IncompatiblePolarization, match=f"polarization is {failure}"):
            check_polarization(t, omega)


def test_eta_is_multiplication_by_minus_beta(gaussian_cm, zeta5_cm, mult_matrix):
    for bundle in (gaussian_cm, zeta5_cm):
        t = bundle["torus"]
        end = endomorphism_algebra(t)
        rep = eta_checks(t, bundle["G"], bundle["E"], end)
        assert rep.passed
        inp = bundle["input"]
        assert rep.eta == mult_matrix(-inp.beta, inp.basis)


def test_simplicity_zeta5(zeta5_cm):
    inp = zeta5_cm["input"]
    k = inp.field
    subfields = [k.one(), k.element([-1, 0, -1, -1])]  # Q and Q(sqrt5)
    assert simplicity_check(inp, subfields) is True


def zeta12_input():
    k = make_field([1, 0, -1, 0, 1], conj_image=[0, 1, 0, -1])
    autos = [
        k.gen(),
        k.element([0, -1, 0, 1]),  # xi -> xi^5
        k.element([0, -1, 0, 0]),  # xi -> xi^7
        k.element([0, 1, 0, -1]),  # xi -> xi^11
    ]
    phi = [
        _embedding_near(k, math.cos(math.pi / 6), math.sin(math.pi / 6)),
        _embedding_near(k, math.cos(5 * math.pi / 6), math.sin(5 * math.pi / 6)),
    ]
    basis = [k.one(), k.gen(), k.gen() ** 2, k.gen() ** 3]
    return CmInput(k, basis, phi, None, autos)


def test_simplicity_zeta12_fails_via_gaussian_subfield():
    inp = zeta12_input()
    k = inp.field
    subfields = [
        k.element([0, 0, 0, 1]),  # i = xi^3
        k.element([0, 2, 0, -1]),  # xi + xi^-1 = sqrt3
        k.element([0, 0, 1, 0]),  # xi^2, generating Q(sqrt-3)
    ]
    assert simplicity_check(inp, subfields) is False


def test_element_minpoly():
    k = make_field([1, 1, 1, 1, 1], conj_image=[-1, -1, -1, -1])
    mp = element_minpoly(k.gen() + k.conj(k.gen()))  # 2cos(2pi/5): x^2+x-1
    assert list(mp) == [-1, 1, 1]


def _matrix_at(p, rows):
    """p(M) by Horner over Fractions."""
    n = len(rows)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        acc = [
            [sum(acc[i][k] * rows[k][j] for k in range(n)) + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return acc


def _block_diag(a, b):
    return [r + [0] * len(b) for r in a] + [[0] * len(a) + r for r in b]


def test_matrix_minpoly_matches_sympy_factorization():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(41)

    def entry(density):
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < density else 0

    def rand(n, density=0.7):
        return [[entry(density) for _ in range(n)] for _ in range(n)]

    a = rand(2)
    jordan = [[2, 1, 0], [0, 2, 1], [0, 0, 2]]
    cases = [rand(n) for n in (1, 2, 3, 4, 5) for _ in range(2)] + [rand(4, 0.3)]
    cases += [
        [[3 if i == j else 0 for j in range(3)] for i in range(3)],  # scalar
        _block_diag(a, a),
        [[0] * 3 for _ in range(3)],
        _block_diag(jordan, [[2]]),  # (x - 2)^3
    ]
    for rows in cases:
        rows = [[Fraction(e) for e in r] for r in rows]
        p = matrix_minpoly(FieldMatrix(QQ, rows))
        assert p[-1] == 1
        assert all(e == 0 for r in _matrix_at(p, rows) for e in r)
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x)
        for f, _ in sympy.factor_list(sp)[1]:
            q = sympy.quo(sp, f).all_coeffs()
            q = [Fraction(int(c.p), int(c.q)) for c in reversed(q)]
            assert any(e != 0 for r in _matrix_at(q, rows) for e in r)


@pytest.mark.parametrize(
    "minpoly, conj",
    [([1, 1, 1, 1, 1], [-1, -1, -1, -1]), ([-2, 0, 0, 0, 1], None), ([-5, 0, 1], None)],
    ids=["zeta5", "2^(1/4)", "sqrt5"],
)
def test_element_minpoly_matches_sympy(minpoly, conj):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    k = make_field(minpoly, conj_image=conj)
    rng = random.Random(43)
    # gen^2 lies in a proper subfield of Q(2^(1/4)) and of Q(sqrt5)
    elements = [k.one(), k.from_rational(Fraction(-3, 2)), k.gen(), k.gen() * k.gen()]
    for _ in range(6):
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(k.degree)]
        elements.append(k.element(coords))
    if conj is not None:
        elements.append(k.gen() + k.conj(k.gen()))
    for u in elements:
        p = element_minpoly(u)
        assert p[-1] == 1
        acc = k.zero()
        for c in reversed(p):
            acc = acc * u + c
        assert acc.is_zero()
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)], x)
        assert sp.is_irreducible


def test_find_beta_budget_exhaustion():
    k = make_field([1, 0, 1], conj_image=[0, -1])
    with pytest.raises(NotFoundWithinBudget):
        find_beta(k, [k.one(), k.gen()], [_embedding_near(k, 0.0, 1.0)], 0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_find_beta_shells_match_sorted_order(n, budget):
    import itertools

    from toruscm.cm import _shell

    lazy = [c for m in range(1, budget + 1) for c in _shell(n, m)]
    eager = sorted(
        itertools.product(range(-budget, budget + 1), repeat=n),
        key=lambda c: (max(abs(x) for x in c), c),
    )
    assert lazy == [c for c in eager if any(c)]


def test_find_beta_memory_is_bounded(zeta5_cm):
    import tracemalloc

    inp = zeta5_cm["input"]
    k = inp.field
    xi = k.gen()
    # three distinct conj-antisymmetric parts; budget 40 spans 81^3 > 5e5 tuples
    basis = [k.one(), xi, xi**2, xi**3 + xi]
    tracemalloc.start()
    try:
        beta = find_beta(k, basis, inp.phi, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (k.conj(beta) + beta).is_zero()
    assert peak < 5 * 1024 * 1024
