import json

import pytest

from toruscm.cli import run


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


def _malformed_tori(fixture_dir):
    good = json.load(open(fixture_dir / "tau_i.json"))
    bad = [[1], dict(good, embedding=None), dict(good, field=["0", "1"])]
    bad.append(dict(good, I=[[["0"], ["-1"]], 3]))
    return [json.dumps(d) for d in bad]


def test_malformed_documents_exit_2_without_traceback(capsys, fixture_dir):
    argvs = []
    for doc in _malformed_tori(fixture_dir):
        for cmd in (
            ["torus", "validate"],
            ["gks", "induce"],
            ["gks", "rationality"],
            ["cm", "certificate"],
            ["cm", "metric-search"],
            ["va", "chiral"],
            ["va", "commutator", "--kind", "boson", "--h", "[0, 0, 0, 0]", "--mode-a", "1"]
            + ["--hp", "[0, 0, 0, 0]", "--mode-b", "-1"],
        ):
            argvs.append(cmd + ["--torus", doc])
    argvs += [
        ["cm", "build", "--input", "[]"],
        ["cm", "build", "--input", "[1]"],
        ["mirror", "verify", "--pair", "[]"],
        ["mirror", "isogeny", "--pair", "[]"],
        ["mirror", "construct", "--A", '[["1"]]', "--rho", "[[null]]"],
        ["mirror", "construct", "--A", "[1]", "--rho", "[[-1]]"],
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
