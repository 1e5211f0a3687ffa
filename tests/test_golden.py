"""CLI reports on the shipped fixtures and `tests/data`, compared byte for byte.

`tests/golden/<case>.json` holds the stdout of each command below.  A change
that means to alter a report regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and says why in CHANGES.md.
"""

import pathlib
from fractions import Fraction

import pytest

from toruscm.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _fixture(name):
    return str(ROOT / "fixtures" / f"{name}.json")


def _cases():
    cases = {}
    for name in ("tau_i", "tau_2pow14", "zeta5"):
        cases[f"torus_validate_{name}"] = ["torus", "validate", "--torus", _fixture(name)]
        cases[f"va_chiral_{name}"] = ["va", "chiral", "--torus", _fixture(name)]
        cases[f"gks_induce_{name}"] = ["gks", "induce", "--torus", _fixture(name)]
        cases[f"gks_rationality_{name}"] = ["gks", "rationality", "--torus", _fixture(name)]
        cases[f"cm_certificate_{name}"] = [
            "cm", "certificate", "--torus", _fixture(name), "--seed", "1"
        ]
        cases[f"cm_metric_search_{name}"] = ["cm", "metric-search", "--torus", _fixture(name)]
    for name in ("tau_i", "zeta5"):
        cases[f"cm_build_{name}"] = ["cm", "build", "--input", _fixture(name), "--budget", "2"]
    # fermionic modes are half-integers, so the README's 3 and -3 become 3/2 and -3/2
    for kind, mode in (("boson", 3), ("fermion", Fraction(3, 2))):
        cases[f"va_commutator_tau_i_{kind}"] = [
            "va", "commutator", "--torus", _fixture("tau_i"), "--kind", kind,
            "--h", '["1","0","-1","0"]', "--mode-a", str(mode),
            "--hp", '["1","0","-1","0"]', "--mode-b", str(-mode),
        ]
    cases["mirror_construct_a1_rho_minus1"] = ["mirror", "construct", "--A", '[["1"]]', "--rho", "[[-1]]"]
    # pair documents: the g = 1 construction above and a seeded g = 2 one
    pairs = {
        "a1_rho_minus1": GOLDEN / "mirror_construct_a1_rho_minus1.json",
        "g2_seed2": ROOT / "tests" / "data" / "mirror_g2_seed2.json",
    }
    for name, path in pairs.items():
        cases[f"mirror_verify_{name}"] = ["mirror", "verify", "--pair", str(path)]
        cases[f"mirror_isogeny_{name}"] = ["mirror", "isogeny", "--pair", str(path)]
    cases["demo_section4"] = ["demo", "section4"]
    # a rational g = 3 document whose saturation once made integer kernels grow
    data = str(ROOT / "tests" / "data" / "g3_rational_seed1.json")
    cases["va_chiral_g3_rational_seed1"] = ["va", "chiral", "--torus", data]
    cases["torus_validate_g3_rational_seed1"] = ["torus", "validate", "--torus", data]
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_report_matches_golden(case, capsys):
    code = run(CASES[case])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        if code != 0:
            raise SystemExit(f"{case}: exit {code}")
        (GOLDEN / f"{case}.json").write_text(buf.getvalue(), encoding="utf-8")
        print(case)
