"""The four benchmark workloads.

Each workload is a class; ``Workload(seed, root, lib)`` is its set-up, and
the instance offers:

- ``inputs``: a list of job inputs as plain Python data (ints, Fractions,
  JSON text), generated from the seed.  Job ``i`` runs ``inputs[i % len]``.
- ``cycle``: the length of one job mix; ``inputs`` holds whole cycles, and
  a run measures whole cycles only.
- ``job(inp)``: one pipeline run on one input.  It builds every library
  object (fields, matrices) afresh, so a job never inherits refined
  embeddings or other state from an earlier job, and its call counts do
  not depend on what ran before it.
- ``check(inp, out)``: ``None`` when the output is exactly right, else a
  one-line reason.  Checks run outside the timed window.

``lib`` is the namespace of freshly imported ``toruscm`` modules.
Job mixes are fixed cycles rather than random draws, so every run does the
same share of each job kind and the median job lands inside one kind.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction

# ---------------------------------------------------------------------------
# Exact helpers over plain Fractions, independent of the library


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def _positive_definite(m):
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(_det([row[:k] for row in m[:k]]) > 0 for k in range(1, len(m) + 1))


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(p, q):
    p = _poly_trim(p)
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p = _poly_trim(p)
    return p


def _squarefree(p):
    """gcd(p, p') is a constant (p given low degree first)."""
    a = _poly_trim([Fraction(c) for c in p])
    b = _poly_trim([i * c for i, c in enumerate(a)][1:])
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def _annihilates(p, m):
    """p(M) == 0 by Horner's rule over Fractions."""
    n = len(m)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(list(p)):
        acc = _mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    return all(x == 0 for row in acc for x in row)


def _rational_rows(fm):
    return [[e.as_rational() for e in row] for row in fm.entries]


def _coords(fm):
    return [[tuple(e.coords) for e in row] for row in fm.entries]


def _random_negdef(rng, g):
    """-L L^T for a random integral lower-triangular L (criterion-6 generator)."""
    lower = [
        [rng.randint(1, 3) if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(g)]
        for i in range(g)
    ]
    return [[-sum(lower[i][k] * lower[j][k] for k in range(g)) for j in range(g)] for i in range(g)]


# ---------------------------------------------------------------------------
# section4: the paper's cyclotomic counterexample


# The displayed metric block of the paper for rho = diag(-2, -1), written in
# the power basis of Q(s), s = 2 sin(2 pi / 5): 5 + 2 sqrt5/5, 2 - sqrt5/5,
# 3 - 2 sqrt5/5 with sqrt5 = 2 s^2 - 5.
PINNED_BLOCK = [
    [(3, 0, Fraction(4, 5), 0), (3, 0, Fraction(-2, 5), 0)],
    [(3, 0, Fraction(-2, 5), 0), (5, 0, Fraction(-4, 5), 0)],
]
PAPER_RHO = [[-2, 0], [0, -1]]
# A rho for which -(A^T rho A) is rational: IJ is rational, the chiral
# lattice has full rank, and the module count goes through the Smith form.
RATIONAL_RHO = [[-4, 4], [4, -8]]


# Q(s) with s^4 = 5 s^2 - 5, elements as coordinate 4-tuples
def _qs_mul(x, y):
    raw = [Fraction(0)] * 7
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            raw[i + j] += a * b
    for k in (6, 5, 4):
        c, raw[k] = raw[k], 0
        raw[k - 2] += 5 * c
        raw[k - 4] -= 5 * c
    return tuple(raw[:4])


def _qs_sum(xs):
    return tuple(map(sum, zip(*xs)))


def _qs_neg(x):
    return tuple(-c for c in x)


class Section4:
    pool = 8
    cycle = 1

    def __init__(self, seed, root, lib):
        self.lib = lib
        data = lib.fixtures.zeta5_mirror_data()
        self.a_eff = _coords(data["A_eff"])
        self.emb_index = data["embedding"].index
        rng = random.Random(seed)
        fixed = [PAPER_RHO, RATIONAL_RHO]
        self.inputs = fixed + [_random_negdef(rng, 2) for _ in range(self.pool - len(fixed))]

    def job(self, rho):
        lib = self.lib
        f = lib.fixtures.quartic_sin_field()
        emb = f.embeddings()[self.emb_index - 1]
        a = lib.exactla.FieldMatrix(f, [[f.element(c) for c in row] for row in self.a_eff])
        pair = lib.mirror.construct_mirror(a, rho, embedding=emb)
        report = lib.mirror.verify_mirror(pair)
        sides = []
        for side in (pair.left, pair.right):
            verdict = lib.cm.cm_certificate(side.torus, trials=64, seed=1)
            lat = lib.valattice.build_pairing_lattice(side.torus, side.kahler)
            ch = lib.valattice.chiral_sublattice(lat)
            count = lib.valattice.module_count(ch)
            sides.append((verdict.verdict, ch.rank, ch.n, ch.index, count))
        g_left = pair.left.kahler.G
        return {
            "block": [[tuple(g_left[2 + i, 2 + j].coords) for j in range(2)] for i in range(2)],
            "mirror_ok": report.ok,
            "ij_rational": lib.torus.ij_rational(pair.left.gks),
            "sides": sides,
        }

    def check(self, rho, out):
        block = [[tuple(map(Fraction, c)) for c in row] for row in PINNED_BLOCK]
        if rho == PAPER_RHO and out["block"] != block:
            return "metric block differs from the paper's"
        # independent: the block is -(A^T rho A) over Q(s)
        a = self.a_eff
        expect = [
            [
                _qs_neg(_qs_sum(_qs_mul(_qs_mul(a[k][i], (rho[k][l], 0, 0, 0)), a[l][j])
                                for k in range(2) for l in range(2)))
                for j in range(2)
            ]
            for i in range(2)
        ]
        if out["block"] != expect:
            return "metric block differs from -(A^T rho A)"
        rational = all(c[1:] == (0, 0, 0) for row in expect for c in row)
        if not out["mirror_ok"]:
            return "mirror does not verify"
        if out["ij_rational"] != rational:
            return f"ij_rational is {out['ij_rational']} for a {'rational' if rational else 'irrational'} metric"
        rank = 8 if rational else 4
        for verdict, got_rank, n, index, count in out["sides"]:
            if (verdict, got_rank, n) != ("CM", rank, 8):
                return f"side (verdict, chiral rank, n) = {(verdict, got_rank, n)}, expected rank {rank}"
            # the module count comes from the Smith form, the index from a determinant
            if count != index or (count == math.inf) == rational:
                return f"module count {count} for chiral index {index}"
        return None


# ---------------------------------------------------------------------------
# mirror_suite: criterion-6 random mirrors over Q


class MirrorSuite:
    per_g = 16
    cycle = 3

    def __init__(self, seed, root, lib):
        self.lib = lib
        qq = lib.numfield.rationals()
        rng = random.Random(seed)
        by_g = {}
        for g in (1, 2, 3):
            by_g[g] = []
            while len(by_g[g]) < self.per_g:
                rows = [
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g)]
                    for _ in range(g)
                ]
                if lib.exactla.FieldMatrix(qq, rows).rank() == g:
                    by_g[g].append((rows, _random_negdef(rng, g)))
        # g = 1, 2, 3 in equal shares: job i has g = 1 + i % 3
        self.inputs = [by_g[1 + i % 3][i // 3] for i in range(3 * self.per_g)]

    def job(self, inp):
        lib = self.lib
        rows, rho = inp
        qq = lib.numfield.rationals()
        pair = lib.mirror.construct_mirror(lib.exactla.FieldMatrix(qq, rows), rho)
        report = lib.mirror.verify_mirror(pair)
        rational = lib.torus.ij_rational(pair.left.gks)
        res = lib.mirror.isogeny_from_mirror(pair)
        cert = res.found and lib.mirror.verify_isogeny_certificate(
            pair.right.torus, pair.left.torus, lib.exactla.FieldMatrix(qq, res.gamma)
        )
        return {
            "mirror_ok": report.ok,
            "ij_rational": rational,
            "certified": cert,
            "gamma": res.gamma,
            "I_left": _rational_rows(pair.left.torus.I),
            "I_right": _rational_rows(pair.right.torus.I),
        }

    def check(self, inp, out):
        if not (out["mirror_ok"] and out["ij_rational"]):
            return "mirror does not verify or IJ is irrational"
        if not out["certified"]:
            return "isogeny certificate fails"
        gamma = out["gamma"]
        # independent: gamma is a nonsingular integer matrix with I' gamma = gamma I
        if _det(gamma) == 0:
            return "gamma is singular"
        if _mat_mul(out["I_right"], gamma) != _mat_mul(gamma, out["I_left"]):
            return "gamma does not intertwine I and I'"
        return None


# ---------------------------------------------------------------------------
# cm_pipeline: Q(zeta5) with admissible betas, plus imaginary quadratics


ZETA5_MINPOLY = [1, 1, 1, 1, 1]
ZETA5_CONJ = [-1, -1, -1, -1]
XI_MINUS_XI_INV = (1, 2, 1, 1)  # xi - xi^-1 in the power basis
XI2_MINUS_XI2_INV = (0, 0, 1, -1)  # xi^2 - xi^-2
QUADRATIC_D = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)
FIND_BETA_BUDGET = 2


class CmPipeline:
    zeta5_count = 18
    quadratic_count = 6
    cycle = 4

    def __init__(self, seed, root, lib):
        self.lib = lib
        base = lib.fixtures.zeta5_cm_input()
        self.basis = [tuple(b.coords) for b in base.basis]
        self.phi = list(base.phi)
        self.autos = [tuple(a.coords) for a in base.automorphisms]
        rng = random.Random(seed)
        admissible = {}
        zeta5 = []
        while len(zeta5) < self.zeta5_count:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if (a, b) not in admissible:
                beta = base.field.element(
                    [a * x + b * y for x, y in zip(XI_MINUS_XI_INV, XI2_MINUS_XI2_INV)]
                )
                try:
                    base.check_beta(beta)
                    admissible[(a, b)] = tuple(beta.coords)
                except lib.cm.BetaNotAdmissible:
                    admissible[(a, b)] = None
            if admissible[(a, b)] is not None:
                zeta5.append(("zeta5", admissible[(a, b)]))
        quadratic = []
        for _ in range(self.quadratic_count):
            d = rng.choice(QUADRATIC_D)
            quadratic.append(("quadratic", d, rng.random() < 0.5))
        # three Q(zeta5) jobs, then one quadratic job
        self.inputs = []
        for i in range(self.quadratic_count):
            self.inputs += zeta5[3 * i : 3 * i + 3] + [quadratic[i]]

    def _quadratic_input(self, d, with_beta):
        lib = self.lib
        k = lib.numfield.make_field([d, 0, 1], conj_image=[0, -1])
        upper = [e.index for e in k.embeddings() if not e.is_real and e.enclosure().im.lo > 0]
        inp = lib.cm.CmInput(k, [k.one(), k.gen()], upper)
        if with_beta:
            inp.beta = k.gen()
        else:
            inp.beta = lib.cm.find_beta(k, inp.basis, inp.phi, FIND_BETA_BUDGET)
        return inp

    def job(self, inp):
        lib = self.lib
        if inp[0] == "zeta5":
            k = lib.numfield.make_field(ZETA5_MINPOLY, conj_image=ZETA5_CONJ)
            cm_inp = lib.cm.CmInput(
                k,
                [k.element(c) for c in self.basis],
                list(self.phi),
                k.element(inp[1]),
                [k.element(c) for c in self.autos],
            )
        else:
            cm_inp = self._quadratic_input(inp[1], inp[2])
        t, e_m, g_m = lib.cm.cm_torus(cm_inp)
        end = lib.cm.endomorphism_algebra(t)
        verdict = lib.cm.cm_certificate(t)
        found, dim = lib.cm.rational_kahler_search(t)
        eta = lib.cm.eta_checks(t, g_m, e_m, end)
        return {
            "I": t.I,
            "g": t.g,
            "verdict": verdict.verdict,
            "witness": _rational_rows(verdict.witness) if verdict.witness else None,
            "minpoly": verdict.minpoly,
            "metric": _rational_rows(found) if found is not None else None,
            "eta": eta.passed,
            "notes": {"cm.kahler_search.found": int(found is not None)},
        }

    def check(self, inp, out):
        if out["verdict"] != "CM":
            return f"verdict {out['verdict']}"
        mp = out["minpoly"]
        if len(mp) - 1 != 2 * out["g"] or not _squarefree(mp) or not _annihilates(mp, out["witness"]):
            return "minimal polynomial is not a squarefree annihilator of degree 2g"
        m = out["metric"]
        if m is None or m != _transpose(m) or not _positive_definite(m):
            return "no positive definite symmetric metric found"
        i_m = out["I"]
        g_f = self.lib.exactla.FieldMatrix(i_m.field, m)
        if i_m.transpose() * g_f * i_m != g_f:
            return "metric is not I-compatible"
        if not out["eta"]:
            return "eta checks fail"
        return None


# ---------------------------------------------------------------------------
# va_chiral_cli: the CLI on JSON torus documents


def _enc(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rational_doc(rng, g):
    """A rational (G, B) on the product of g square tori, as a JSON torus doc."""
    n = 2 * g
    i_m = [[-1 if j == i + g else (1 if i == j + g else 0) for j in range(n)] for i in range(n)]
    m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
    g0 = _mat_mul(m, _transpose(m))
    for i in range(n):
        g0[i][i] += 1
    rot = _mat_mul(_mat_mul(_transpose(i_m), g0), i_m)
    g_m = [[(x + y) / 2 for x, y in zip(r0, r1)] for r0, r1 in zip(g0, rot)]
    b_m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            b_m[i][j], b_m[j][i] = c, -c

    def enc(mat):
        return [[[_enc(x)] for x in row] for row in mat]

    doc = {
        "g": g,
        "field": {"minpoly": ["0", "1"], "conj": ["0"]},
        "embedding": 1,
        "I": enc(i_m),
        "G": enc(g_m),
        "B": enc(b_m),
    }
    return json.dumps(doc, sort_keys=True)


# Ranks and indices of the shipped fixtures, pinned at the commit that
# introduced this benchmark.
FIXTURE_PINS = {
    "zeta5.json": {"rank": 4, "index": "inf", "rational": False},
    "tau_2pow14.json": {"rank": 2, "index": "inf", "rational": False},
    "tau_i.json": {"rank": 4, "index": 4, "rational": True},
}
# One cycle of document kinds.  The shares put the median job well inside
# the g = 2 documents and the tail percentile inside the g = 3 documents.
CLI_CYCLE = (1, 2, 2, 2, 2, 3, 3, 3, 3, "zeta5.json", "tau_2pow14.json", "tau_i.json")


def _doc_is_rational(doc):
    """rational(G, B): every entry of G and B has zero irrational coordinates."""
    return all(
        all(Fraction(c) == 0 for c in entry[1:])
        for key in ("G", "B")
        if doc.get(key) is not None
        for row in doc[key]
        for entry in row
    )


class VaChiralCli:
    # enough cycles that a run seldom meets a document twice: a few g = 3
    # documents make HNF coefficients grow and cost three times the others
    cycles = 6
    cycle = len(CLI_CYCLE)

    def __init__(self, seed, root, lib):
        self.lib = lib
        fixtures = {}
        for name in FIXTURE_PINS:
            with open(os.path.join(root, "fixtures", name), encoding="utf-8") as fh:
                fixtures[name] = json.dumps(json.load(fh), sort_keys=True)
        rng = random.Random(seed)
        self.inputs = []
        for _ in range(self.cycles):
            for kind in CLI_CYCLE:
                if isinstance(kind, int):
                    self.inputs.append((f"g{kind}", _rational_doc(rng, kind)))
                else:
                    self.inputs.append((kind, fixtures[kind]))

    def _run(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = self.lib.cli.run(argv)
        return rc, buf.getvalue()

    def job(self, inp):
        _, doc = inp
        rc_gks, gks = self._run(["gks", "rationality", "--torus", doc])
        rc_va, va = self._run(["va", "chiral", "--torus", doc])
        return {
            "rc": (rc_gks, rc_va),
            "gks": json.loads(gks),
            "va": json.loads(va),
            "notes": {"cli.exit_nonzero": int(rc_gks != 0) + int(rc_va != 0)},
        }

    def check(self, inp, out):
        kind, doc_text = inp
        if out["rc"] != (0, 0):
            return f"exit codes {out['rc']}"
        doc = json.loads(doc_text)
        rational = _doc_is_rational(doc)
        va = out["va"]
        if out["gks"].get("ij_rational") != rational or va.get("rational") != rational:
            return f"rationality {out['gks'].get('ij_rational')}/{va.get('rational')} != {rational}"
        if kind in FIXTURE_PINS:
            got = {k: va.get(k) for k in ("rank", "index", "rational")}
            if got != FIXTURE_PINS[kind]:
                return f"{kind}: {got} != pinned {FIXTURE_PINS[kind]}"
        elif va.get("rank") != 4 * doc["g"] or not isinstance(va.get("index"), int):
            return f"rank {va.get('rank')} / index {va.get('index')} for a rational document"
        return None


WORKLOADS = {
    "section4": Section4,
    "mirror_suite": MirrorSuite,
    "cm_pipeline": CmPipeline,
    "va_chiral_cli": VaChiralCli,
}
