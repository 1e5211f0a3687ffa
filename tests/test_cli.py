import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from toruscm import fixtures, jsonio, torus, valattice
from toruscm.cli import run
from toruscm.exactla import FieldMatrix
from toruscm.numfield import make_field, rationals

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_torus_validate_ok(capsys, fixture_dir):
    code, out = invoke(capsys, ["torus", "validate", "--torus", str(fixture_dir / "tau_i.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["g"] == 1


def test_torus_validate_bad_i_exits_2(capsys, fixture_dir):
    doc = json.load(open(fixture_dir / "tau_i.json"))
    doc["I"] = [[["0"], ["1"]], [["1"], ["0"]]]  # I^2 != -Id
    code, out = invoke(capsys, ["torus", "validate", "--torus", json.dumps(doc)])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False and "I^2" in rep["error"]


def _tau_i_document():
    t, k, pol = fixtures.tau_i_torus()
    return jsonio.encode_torus(t, k, polarization=pol, cm=fixtures.gaussian_cm_input())


def _zeta5_document():
    left = fixtures.zeta5_mirror_data()["pair"].left
    return jsonio.encode_torus(left.torus, left.kahler, cm=fixtures.zeta5_cm_input())


def _prop44_g1_document():
    # the g = 1 construction input A = 1, rho = -1 of `mirror construct`
    return {"A": jsonio.encode_matrix(FieldMatrix(rationals(), [[1]])), "rho": [[-1]]}


@pytest.mark.parametrize(
    "name, build",
    [
        ("tau_i.json", _tau_i_document),
        ("tau_2pow14.json", lambda: jsonio.encode_torus(*fixtures.tau_2pow14_torus())),
        ("zeta5.json", _zeta5_document),
        ("prop44_g1.json", _prop44_g1_document),
    ],
    ids=["tau_i", "tau_2pow14", "zeta5", "prop44_g1"],
)
def test_shipped_fixture_is_its_builders_encoding(fixture_dir, name, build):
    # the CLI writes a document the same way: sorted keys, indent 2
    text = (fixture_dir / name).read_text(encoding="utf-8")
    assert text == json.dumps(build(), sort_keys=True, indent=2) + "\n"


def test_malformed_json_exits_2(capsys):
    code, out = invoke(capsys, ["torus", "validate", "--torus", '{"g": 1}'])
    assert code == 2


# Q[x]/(x^2 - x) at its root 1: G = (1 + x) Id is 2 Id there, but the
# algebra is not a field
REDUCIBLE_TORUS = {
    "g": 1,
    "field": {"minpoly": ["0", "-1", "1"], "conj": None},
    "embedding": 2,
    "I": [[["0"], ["-1"]], [["1"], ["0"]]],
    "G": [[["1", "1"], ["0"]], [["0"], ["1", "1"]]],
    "B": None,
}


@pytest.mark.parametrize("cmd", [["va", "chiral"], ["gks", "rationality"], ["torus", "validate"]])
def test_reducible_minpoly_exits_2(capsys, cmd):
    code, out = invoke(capsys, cmd + ["--torus", json.dumps(REDUCIBLE_TORUS)])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False and rep["error"].startswith("ReducibleMinpoly")


def test_reducible_cm_field_exits_2(capsys):
    # (x^2 + 1)(x^2 + 4) with x -> -x: an involution, but not a field
    doc = {
        "field": {"minpoly": ["4", "0", "5", "0", "1"], "conj": ["0", "-1"]},
        "basis": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
        "phi": [1, 3],
        "beta": None,
        "automorphisms": None,
    }
    code, out = invoke(capsys, ["cm", "build", "--input", json.dumps(doc)])
    assert code == 2
    assert json.loads(out)["error"].startswith("ReducibleMinpoly")


# one bad (G, B) on tau_i each, and the error every command reports for it
BAD_METRICS = [
    ({"G": [[["1"], ["1"]], [["0"], ["1"]]]}, "IncompatibleMetric: G is not symmetric"),
    ({"B": [[["0"], ["1"]], [["1"], ["0"]]]}, "IncompatibleMetric: B is not antisymmetric"),
    ({"G": [[["1"], ["0"]], [["0"], ["2"]]]}, "IncompatibleMetric: G(I., I.) != G"),
    ({"G": [[["-1"], ["0"]], [["0"], ["-1"]]]}, "NotPositiveDefinite: G is not positive definite"),
    ({"G": [[["1"]]]}, "ValueError: G and B must be 2g x 2g"),
]

TORUS_COMMANDS = (
    ["torus", "validate"],
    ["gks", "induce"],
    ["gks", "rationality"],
    ["cm", "certificate"],
    ["cm", "metric-search"],
    ["va", "chiral"],
    ["va", "commutator", "--kind", "boson", "--h", "[0, 0, 0, 0]", "--mode-a", "1"]
    + ["--hp", "[0, 0, 0, 0]", "--mode-b", "-1"],
)


def _malformed_tori(fixture_dir):
    good = json.load(open(fixture_dir / "tau_i.json"))
    bad = [[1], dict(good, embedding=None), dict(good, field=["0", "1"])]
    bad.append(dict(good, I=[[["0"], ["-1"]], 3]))
    bad.append(dict(good, G=None, B=[[1, 2], [3]]))
    bad += [dict(good, embedding=e) for e in (1.5, True)]
    bad += [dict(good, g=1.5), dict(good, g="3/2"), dict(good, g=0, I=[], G=[], B=[])]
    bad += [dict(good, **change) for change, _ in BAD_METRICS]
    bad.append(dict(good, polarization=[[["0"]]]))
    return [json.dumps(d) for d in bad]


@pytest.mark.parametrize("change, error", BAD_METRICS)
def test_bad_metric_exits_2_with_the_failed_check(capsys, fixture_dir, change, error):
    doc = dict(json.load(open(fixture_dir / "tau_i.json")), **change)
    for cmd in TORUS_COMMANDS:
        code, out = invoke(capsys, cmd + ["--torus", json.dumps(doc)])
        assert code == 2, cmd
        assert json.loads(out) == {"ok": False, "error": error}, cmd


@pytest.mark.parametrize("change, error", BAD_METRICS)
@pytest.mark.parametrize("side", ["left", "right"])
def test_pair_with_a_bad_metric_exits_2(capsys, side, change, error):
    pair = json.load(open(GOLDEN / "mirror_construct_a1_rho_minus1.json"))
    pair[side] = dict(pair[side], **change)
    for cmd in (["mirror", "verify"], ["mirror", "isogeny"]):
        code, out = invoke(capsys, cmd + ["--pair", json.dumps(pair)])
        assert code == 2, cmd
        assert json.loads(out) == {"ok": False, "error": error}, cmd


def _mismatched_pairs():
    pair = json.load(open(GOLDEN / "mirror_construct_a1_rho_minus1.json"))
    g2 = json.load(open(GOLDEN.parent / "data" / "mirror_g2_seed2.json"))
    return {
        "phi 2x2": dict(pair, phi=[[1, 0], [0, 1]]),
        "phi 4x3": dict(pair, phi=[row[:3] for row in pair["phi"]]),
        "g 1 and 2": dict(pair, right=g2["right"]),
    }


@pytest.mark.parametrize("case", sorted(_mismatched_pairs()))
def test_mismatched_pair_exits_2_where_it_enters(capsys, case):
    doc = json.dumps(_mismatched_pairs()[case])
    want = {"ok": False, "error": "DimensionMismatch: mirror map size does not match the pair"}
    for cmd in (["mirror", "verify"], ["mirror", "isogeny"]):
        code, out = invoke(capsys, cmd + ["--pair", doc])
        assert code == 2, cmd
        assert json.loads(out) == want, cmd


def test_malformed_documents_exit_2_without_traceback(capsys, fixture_dir):
    argvs = []
    for doc in _malformed_tori(fixture_dir):
        for cmd in TORUS_COMMANDS:
            argvs.append(cmd + ["--torus", doc])
    argvs += [
        ["cm", "build", "--input", "[]"],
        ["cm", "build", "--input", "[1]"],
        ["mirror", "verify", "--pair", "[]"],
        ["mirror", "isogeny", "--pair", "[]"],
        ["mirror", "construct", "--A", '[["1"]]', "--rho", "[[null]]"],
        ["mirror", "construct", "--A", "[1]", "--rho", "[[-1]]"],
        ["mirror", "construct", "--A", '[["1"]]', "--rho", "[[-1.5]]"],
        ["mirror", "construct", "--A", '[["1"]]', "--rho", '[["-3/2"]]'],
        ["mirror", "construct", "--A", "[]", "--rho", "[]"],
    ]
    cm = dict(json.load(open(fixture_dir / "tau_i.json"))["cm"], phi=[1.5])
    argvs.append(["cm", "build", "--input", json.dumps(cm)])
    pair = json.load(open(GOLDEN / "mirror_construct_a1_rho_minus1.json"))
    pair["phi"][0][2] = 1.5  # truncated, it would be the valid entry 1
    for cmd in (["mirror", "verify"], ["mirror", "isogeny"]):
        argvs.append(cmd + ["--pair", json.dumps(pair)])
    deep = "[" * 100_000 + "]" * 100_000
    argvs += [
        ["torus", "validate", "--torus", deep],
        ["mirror", "construct", "--A", deep, "--rho", "[[-1]]"],
        ["va", "chiral", "--torus", str(fixture_dir)],
        ["demo", "section4", "--out", str(fixture_dir)],
    ]
    for argv in argvs:
        code, out = invoke(capsys, argv)
        assert code == 2, argv
        rep = json.loads(out)
        assert rep["ok"] is False and rep["error"], argv


def test_cm_build_budget_exhaustion_exits_2(capsys, fixture_dir):
    doc = json.load(open(fixture_dir / "tau_i.json"))
    doc["cm"]["beta"] = None
    code, out = invoke(capsys, ["cm", "build", "--input", json.dumps(doc), "--budget", "0"])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False and rep["error"].startswith("NotFoundWithinBudget")



def test_cm_build_without_beta_checks_the_field_once(capsys, fixture_dir, monkeypatch):
    # find_beta and cm_torus both validate the input; the field's own
    # checks (irreducibility, conj is complex conjugation) are made once
    from toruscm import numfield

    calls = []
    check = numfield.require_irreducible

    def counted(emb):
        calls.append(emb.field)
        return check(emb)

    monkeypatch.setattr(numfield, "require_irreducible", counted)
    doc = json.load(open(fixture_dir / "zeta5.json"))
    doc["cm"]["beta"] = None
    code, out = invoke(capsys, ["cm", "build", "--input", json.dumps(doc)])
    assert code == 0 and json.loads(out)["torus"]["g"] == 2
    assert len(calls) == 1


def test_cm_build_rejects_a_conj_that_is_not_complex_conjugation(capsys):
    # Q(zeta8) with x -> -x: an involutive automorphism, but not complex
    # conjugation under any embedding
    doc = {
        "field": {"minpoly": ["1", "0", "0", "0", "1"], "conj": ["0", "-1"]},
        "basis": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
        "phi": [1, 3],
        "beta": None,
        "automorphisms": None,
    }
    code, out = invoke(capsys, ["cm", "build", "--input", json.dumps(doc), "--budget", "2"])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False
    assert rep["error"].startswith("ConjNotComplexConjugation: conj is not complex conjugation")


GAUSSIAN_FIELD = {"minpoly": ["1", "0", "1"], "conj": ["0", "-1"]}
ZETA5_FIELD = {"minpoly": ["1", "1", "1", "1", "1"], "conj": ["-1", "-1", "-1", "-1"]}


@pytest.mark.parametrize(
    "field, basis, phi, beta",
    [
        # Q(i): 2 + 2x = 2 (1 + x), with and without beta
        (GAUSSIAN_FIELD, [["1", "1"], ["2", "2"]], [1], ["0", "1"]),
        (GAUSSIAN_FIELD, [["1", "1"], ["2", "2"]], [1], None),
        # Q(zeta5): the last element is the sum of the first three
        (ZETA5_FIELD, [["1"], ["0", "1"], ["0", "0", "1"], ["1", "1", "1"]], [1, 3], None),
    ],
    ids=["gaussian-beta", "gaussian", "zeta5"],
)
def test_cm_build_with_a_q_dependent_basis_exits_2(capsys, field, basis, phi, beta):
    doc = {"field": field, "basis": basis, "phi": phi, "beta": beta, "automorphisms": None}
    code, out = invoke(capsys, ["cm", "build", "--input", json.dumps(doc), "--budget", "2"])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False
    assert rep["error"] == "BasisDependent: basis is linearly dependent over Q"


def test_gks_induce_and_rationality(capsys, fixture_dir):
    code, out = invoke(capsys, ["gks", "induce", "--torus", str(fixture_dir / "tau_i.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] and len(doc["calI"]) == 4

    code, out = invoke(
        capsys,
        ["gks", "rationality", "--torus", str(fixture_dir / "tau_i.json"), "--expect", "true"],
    )
    assert code == 0
    code, out = invoke(
        capsys,
        ["gks", "rationality", "--torus", str(fixture_dir / "tau_i.json"), "--expect", "false"],
    )
    assert code == 1  # expectation mismatch

    code, out = invoke(
        capsys,
        ["gks", "rationality", "--torus", str(fixture_dir / "zeta5.json"), "--expect", "false"],
    )
    assert code == 0


def test_gks_induce_exits_2_when_the_charge_isometry_fails(capsys, fixture_dir, monkeypatch):
    # the "verified" of `gks induce` covers the charge-lattice isometry identity
    monkeypatch.setattr(torus, "charge_isometry_check", lambda k: False)
    code, out = invoke(capsys, ["gks", "induce", "--torus", str(fixture_dir / "tau_i.json")])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False and "charge-lattice isometry" in rep["error"]


def test_cm_build_from_fixture_block(capsys, fixture_dir):
    code, out = invoke(capsys, ["cm", "build", "--input", str(fixture_dir / "tau_i.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["E"] == [[["0"], ["2"]], [["-2"], ["0"]]]
    assert doc["G"] == [[["2"], ["0"]], [["0"], ["2"]]]


def test_cm_certificate_cli(capsys, fixture_dir):
    code, out = invoke(
        capsys,
        [
            "cm",
            "certificate",
            "--torus",
            str(fixture_dir / "tau_i.json"),
            "--expect",
            "CM",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "CM" and doc["minpoly"] == ["1", "0", "1"]

    code, out = invoke(
        capsys,
        [
            "cm",
            "certificate",
            "--torus",
            str(fixture_dir / "tau_2pow14.json"),
            "--expect",
            "NotCM",
        ],
    )
    assert code == 0
    assert json.loads(out)["end_dim"] == 1


def test_cm_metric_search_cli(capsys, fixture_dir):
    code, out = invoke(
        capsys,
        ["cm", "metric-search", "--torus", str(fixture_dir / "tau_2pow14.json")],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False and doc["solution_dim"] == 0


def test_mirror_roundtrip_cli(capsys, tmp_path):
    code, out = invoke(capsys, ["mirror", "construct", "--A", '[["1"]]', "--rho", "[[-1]]"])
    assert code == 0
    pair_doc = json.loads(out)
    assert pair_doc["report"]["ok"]
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(pair_doc))

    code, out = invoke(capsys, ["mirror", "verify", "--pair", str(p)])
    assert code == 0
    assert json.loads(out)["ok"]

    code, out = invoke(capsys, ["mirror", "isogeny", "--pair", str(p)])
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] and doc["gamma"] == [[1, 0], [0, -1]]

    # break the map: identity phi fails conjugation, exit 1
    pair_doc["phi"] = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    p.write_text(json.dumps(pair_doc))
    code, out = invoke(capsys, ["mirror", "verify", "--pair", str(p)])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_mirror_verify_singular_phi_exits_1(capsys, tmp_path):
    # a singular phi gets the per-condition report, not a solver error
    code, out = invoke(capsys, ["mirror", "construct", "--A", '[["1"]]', "--rho", "[[-1]]"])
    assert code == 0
    pair_doc = json.loads(out)
    pair_doc["phi"][1] = pair_doc["phi"][0]
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(pair_doc))
    code, out = invoke(capsys, ["mirror", "verify", "--pair", str(p)])
    assert code == 1
    rep = json.loads(out)
    assert rep["ok"] is False and rep["unimodular"] is False and rep["q_compatible"] is False
    assert set(rep) == {"unimodular", "q_compatible", "i_conjugated", "j_conjugated", "ok"}


def test_va_chiral_cli(capsys, fixture_dir):
    code, out = invoke(capsys, ["va", "chiral", "--torus", str(fixture_dir / "tau_i.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 4 and doc["index"] == 4


def test_va_commutator_cli(capsys, fixture_dir):
    code, out = invoke(
        capsys,
        [
            "va",
            "commutator",
            "--torus",
            str(fixture_dir / "tau_i.json"),
            "--kind",
            "boson",
            "--h",
            '["1", "0", "-1", "0"]',
            "--mode-a",
            "3",
            "--hp",
            '["1", "0", "-1", "0"]',
            "--mode-b",
            "-3",
        ],
    )
    assert code == 0
    assert json.loads(out)["coefficient"] == "6"


def test_va_commutator_fermion_half_modes(capsys, fixture_dir):
    # negative half-integer modes must survive argparse
    for mode_args in (
        ["--mode-a", "1/2", "--mode-b", "-1/2"],
        ["--mode-a=1/2", "--mode-b=-1/2"],
    ):
        code, out = invoke(
            capsys,
            [
                "va",
                "commutator",
                "--torus",
                str(fixture_dir / "tau_i.json"),
                "--kind",
                "fermion",
                "--h",
                '["1", "0", "-1", "0"]',
                *mode_args,
                "--hp",
                '["1", "0", "-1", "0"]',
            ],
        )
        assert code == 0
        assert json.loads(out)["coefficient"] == "2"


def test_demo_section4_cli(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = invoke(capsys, ["demo", "section4", "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["ij_rational"] is False and doc["cm_left"] == "CM"
    assert json.loads(out_path.read_text()) == doc


def test_demo_section4_with_an_unwritable_out_prints_only_the_error(capsys, tmp_path):
    out_path = tmp_path / "missing" / "report.json"
    code, out = invoke(capsys, ["demo", "section4", "--out", str(out_path)])
    assert code == 2
    assert json.loads(out) == {"ok": False, "error": f"no such file: {out_path}"}


def test_outputs_deterministic(capsys, fixture_dir):
    _, out1 = invoke(capsys, ["va", "chiral", "--torus", str(fixture_dir / "tau_i.json")])
    _, out2 = invoke(capsys, ["va", "chiral", "--torus", str(fixture_dir / "tau_i.json")])
    assert out1 == out2
    _, d1 = invoke(
        capsys, ["cm", "certificate", "--torus", str(fixture_dir / "tau_i.json"), "--seed", "5"]
    )
    _, d2 = invoke(
        capsys, ["cm", "certificate", "--torus", str(fixture_dir / "tau_i.json"), "--seed", "5"]
    )
    assert d1 == d2


@pytest.fixture
def counts(monkeypatch):
    """Counters on the metric check, the IJ computation, induce_gks (under
    every module name that binds it) and End^0(T)."""
    from toruscm import cli, mirror, torus

    got = {"checks": 0, "ij": 0, "induce_gks": 0, "end": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            got[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    kahler = torus.KahlerData
    monkeypatch.setattr(kahler, "__post_init__", counting("checks", kahler.__post_init__))
    monkeypatch.setattr(kahler.ij, "func", counting("ij", kahler.ij.func))
    end = torus.ComplexTorusData.end
    monkeypatch.setattr(end, "func", counting("end", end.func))
    induce = counting("induce_gks", torus.induce_gks)
    for mod in (torus, cli, mirror):
        monkeypatch.setattr(mod, "induce_gks", induce)
    return got


def _mirror_commands():
    pair = str(GOLDEN / "mirror_construct_a1_rho_minus1.json")
    return [
        ["mirror", "construct", "--A", '[["1"]]', "--rho", "[[-1]]"],
        ["mirror", "verify", "--pair", pair],
        ["mirror", "isogeny", "--pair", pair],
    ]


# (checks, IJs, induce_gks calls, End^0(T)s): one check per metric a
# command reads, one IJ per metric whose IJ it needs (IJ's rationality is
# read off G and B), and End^0(T) only for the CM certificate
EXPECTED_COUNTS = {
    "torus validate": (1, 0, 0, 0),
    "gks induce": (1, 1, 1, 0),
    "gks rationality": (1, 0, 0, 0),
    "cm certificate": (1, 0, 0, 1),
    "cm metric-search": (1, 0, 0, 0),
    "va chiral": (1, 1, 0, 0),
    "va commutator": (1, 1, 0, 0),
    "mirror construct": (2, 2, 2, 0),
    "mirror verify": (2, 2, 2, 0),
    "mirror isogeny": (2, 2, 2, 0),
}


def test_each_metric_is_checked_once_per_command(capsys, fixture_dir, counts):
    torus_doc = str(fixture_dir / "tau_i.json")
    argvs = [cmd + ["--torus", torus_doc] for cmd in TORUS_COMMANDS] + _mirror_commands()
    seen = {}
    for argv in argvs:
        before = dict(counts)
        code, _ = invoke(capsys, argv)
        assert code == 0, argv
        seen[" ".join(argv[:2])] = tuple(counts[k] - before[k] for k in counts)
    assert seen == EXPECTED_COUNTS


def test_va_chiral_eliminates_for_the_z_part_only_below_full_rank(capsys, fixture_dir, monkeypatch):
    # at full rank the z part rank is n/2, so P- is not eliminated
    calls = []
    part_rank = valattice._part_rank
    monkeypatch.setattr(valattice, "_part_rank", lambda lat: calls.append(lat) or part_rank(lat))
    seeded = GOLDEN.parent / "data" / "g3_rational_seed1.json"
    for path, want in [(fixture_dir / "tau_i.json", 0), (seeded, 0), (fixture_dir / "zeta5.json", 1)]:
        calls.clear()
        code, out = invoke(capsys, ["va", "chiral", "--torus", str(path)])
        assert code == 0 and json.loads(out)["rational"] == (want == 0)
        assert len(calls) == want, path.name


def test_section4_checks_and_derives_each_side_once(counts):
    from toruscm.mirror import section4_demo

    section4_demo()
    assert (counts["checks"], counts["ij"], counts["end"]) == (2, 2, 2)


def test_a_cm_pipeline_job_builds_end_once(counts):
    from toruscm import cm, fixtures

    t, e_m, g_m = cm.cm_torus(fixtures.zeta5_cm_input())
    end = cm.endomorphism_algebra(t)
    assert cm.cm_certificate(t).verdict == "CM"
    assert cm.rational_kahler_search(t)[0] is not None
    assert cm.eta_checks(t, g_m, e_m, end).passed
    assert counts["end"] == 1


def _run_in_fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "toruscm.cli", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("failing", ["usage", "document"])
def test_one_process_runs_each_argv_as_a_fresh_process_does(capsys, fixture_dir, failing):
    # the parser is built once per process; a failed parse must not leave
    # state behind that changes the next run
    tau_i = str(fixture_dir / "tau_i.json")
    bad = dict(json.load(open(tau_i)), G=None, B=[[1, 2], [3]])
    fail = {
        "usage": ["torus", "validate", "--expect", "true"],
        "document": ["torus", "validate", "--torus", json.dumps(bad)],
    }[failing]
    succeed = ["torus", "validate", "--torus", tau_i]
    for argv in (fail, succeed, fail):
        assert invoke(capsys, argv) == _run_in_fresh_process(argv), argv
    assert invoke(capsys, fail)[0] == 2 and invoke(capsys, succeed)[0] == 0


# One table of spellings for every rational read from outside the library,
# (spelling, value) with value None where the spelling is refused: a string
# in Fraction's syntax or a JSON integer; floats, bools and null are refused.
RATIONAL_SPELLINGS = [
    ("3", 3),
    ("-12", -12),
    ("+3", 3),
    (" 3 ", 3),
    ("1_0", 10),
    ("1e3", 1000),
    ("1.5", Fraction(3, 2)),
    ("3/1", 3),
    (3, 3),
    ("²", None),
    ("", None),
    ("-", None),
    ("0x10", None),
    ("3/0", None),
    ("9" * 5000, None),
    ("1e999999", None),
    ("1E-999999", None),
    (1.5, None),
    (True, None),
    (None, None),
]


def _library_refuses(spelling, call):
    # a value of the wrong type is a TypeError, a string outside the syntax a
    # ValueError or ZeroDivisionError; the CLI turns each into exit 2
    with pytest.raises((ValueError, ZeroDivisionError) if isinstance(spelling, str) else TypeError):
        call()


@pytest.mark.parametrize(
    "spelling, value", RATIONAL_SPELLINGS, ids=[ascii(s)[:12] for s, _ in RATIONAL_SPELLINGS]
)
def test_every_outside_rational_is_read_by_one_rule(capsys, fixture_dir, spelling, value):
    enc = jsonio.encode_rational
    integral = value is not None and value.denominator == 1
    # make_field: v is the coefficient of x in x^2 + v x - 1, which must be
    # an integer
    if value is None:
        _library_refuses(spelling, lambda: make_field([-1, spelling, 1]))
    elif integral:
        assert make_field([-1, spelling, 1]).minpoly[1] == value
    else:
        with pytest.raises(ValueError, match="integer coefficients"):
            make_field([-1, spelling, 1])
    # a JSON matrix entry over Q: I = [[0, -1/v], [v, 0]] squares to -Id
    # only if the entry is read as v
    doc = {
        "g": 1,
        "field": {"minpoly": ["0", "1"], "conj": None},
        "embedding": 1,
        "I": [["0", enc(Fraction(-1) / value) if value else "0"], [spelling, "0"]],
    }
    code, out = invoke(capsys, ["torus", "validate", "--torus", json.dumps(doc)])
    assert code == (0 if value is not None else 2)
    assert value is not None or "I^2" not in json.loads(out)["error"]
    # a JSON minpoly coefficient: in x^2 + v x - 1, 1/x = x + v, so
    # I = [[0, -x - v], [x, 0]] squares to -Id only if it is read as v
    doc["field"]["minpoly"] = ["-1", spelling, "1"]
    doc["I"] = [[["0"], [enc(-value) if integral else "0", "-1"]], [["0", "1"], ["0"]]]
    code, out = invoke(capsys, ["torus", "validate", "--torus", json.dumps(doc)])
    assert code == (0 if integral else 2)
    if not integral:
        error = json.loads(out)["error"]
        assert ("integer coefficients" in error) == (value is not None) and "I^2" not in error
    # a mode: [h_n, h_-n] = 2n for bosons, {f_r, f_-r} = 2 for fermions
    kind = "boson" if value is None or integral else "fermion"
    coefficient = None if value is None else 2 * value if integral else 2
    lat = valattice.build_pairing_lattice(*fixtures.tau_i_torus()[:2])
    h = [1, 0, -1, 0]  # on the z side, q(h, h) = 2
    if value is None:
        _library_refuses(spelling, lambda: valattice.supercommutator(lat, kind, h, spelling, h, 0))
    else:
        c = valattice.supercommutator(lat, kind, h, spelling, h, -value)
        assert c.as_rational() == coefficient
    if isinstance(spelling, str):  # a flag is a string
        argv = ["va", "commutator", "--torus", str(fixture_dir / "tau_i.json"), "--kind", kind]
        argv += ["--h", json.dumps(h), "--mode-a", spelling, "--hp", json.dumps(h)]
        code, out = invoke(capsys, argv + ["--mode-b", enc(-value) if value else "0"])
        assert code == (0 if value is not None else 2)
        assert value is None or json.loads(out)["coefficient"] == enc(coefficient)
