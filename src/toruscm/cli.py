"""Command-line front end: subcommand dispatch over the library modules,
deterministic JSON reports on stdout.

Exit codes: 0 success, 1 failed verification or --expect mismatch,
2 malformed input, exhausted search budget or non-converged certificate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio, mirror, valattice
from .cm import cm_certificate, rational_kahler_search
from .exactla import FieldMatrix
from .numfield import rationals
from .torus import KahlerData, induce_gks


def _load_json(arg: str):
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(arg, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _decode(arg: str, decode):
    """Load a JSON document and decode it.  A document nested too deep for
    the parser raises RecursionError, and one of the wrong shape TypeError
    or AttributeError inside the decoder; each becomes a ValueError, so it
    exits 2 like any other malformed input."""
    try:
        return decode(_load_json(arg))
    except (RecursionError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed document: {type(exc).__name__}: {exc}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _fail(msg: str) -> int:
    _emit({"ok": False, "error": msg})
    return 2


def _expect_check(report: dict, key: str, expect) -> int:
    if expect is None:
        return 0
    return 0 if str(report.get(key)).lower() == str(expect).lower() else 1


def _torus_bundle(arg: str) -> dict:
    return _decode(arg, jsonio.decode_torus)


def _need_kahler(bundle: dict):
    if bundle["kahler"] is None:
        raise ValueError("torus document has no metric G")
    return bundle["kahler"]


def _encode_chiral(report) -> dict:
    return {
        "basis": jsonio.encode_int_matrix(report.basis),
        "rank": report.rank,
        "index": valattice.encode_count(report.index),
        "rational": report.rational,
        "zpart_rank": report.zpart_rank,
        "zbarpart_rank": report.zbarpart_rank,
    }


def _merge_mode_flags(argv):
    """Join '--mode-a -1/2' into '--mode-a=-1/2' so argparse does not read
    negative fractions as option flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--mode-a", "--mode-b") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_mode_flags(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not hasattr(args, "cmd"):
        parser.print_help()
        return 2
    try:
        return args.cmd(args)
    except FileNotFoundError as exc:
        return _fail(f"no such file: {exc.filename}")
    except (OSError, ValueError, LookupError, ArithmeticError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


@functools.cache  # parse_args does not mutate the parser
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="toruscm", description=__doc__)
    sub = p.add_subparsers()

    t = sub.add_parser("torus", help="torus document operations")
    tsub = t.add_subparsers()
    tv = tsub.add_parser("validate", help="schema and invariant validation")
    tv.add_argument("--torus", required=True)
    tv.set_defaults(cmd=_cmd_torus_validate)

    g = sub.add_parser("gks", help="induced generalized Kahler structures")
    gsub = g.add_subparsers()
    gi = gsub.add_parser("induce")
    gi.add_argument("--torus", required=True)
    gi.set_defaults(cmd=_cmd_gks_induce)
    gr = gsub.add_parser("rationality")
    gr.add_argument("--torus", required=True)
    gr.add_argument("--expect", default=None)
    gr.set_defaults(cmd=_cmd_gks_rationality)

    c = sub.add_parser("cm", help="complex multiplication operations")
    csub = c.add_subparsers()
    cb = csub.add_parser("build")
    cb.add_argument("--input", required=True, help="CM block or torus doc with a cm block")
    cb.add_argument("--budget", type=int, default=3, help="beta search bound if beta absent")
    cb.set_defaults(cmd=_cmd_cm_build)
    cc = csub.add_parser("certificate")
    cc.add_argument("--torus", required=True)
    cc.add_argument("--trials", type=int, default=64)
    cc.add_argument("--seed", type=int, default=0)
    cc.add_argument("--expect", default=None)
    cc.set_defaults(cmd=_cmd_cm_certificate)
    cs = csub.add_parser("metric-search")
    cs.add_argument("--torus", required=True)
    cs.add_argument("--trials", type=int, default=200)
    cs.add_argument("--seed", type=int, default=0)
    cs.add_argument("--expect", default=None)
    cs.set_defaults(cmd=_cmd_cm_metric_search)

    m = sub.add_parser("mirror", help="mirror maps and isogenies")
    msub = m.add_subparsers()
    mc = msub.add_parser("construct")
    mc.add_argument("--A", required=True, dest="a")
    mc.add_argument("--rho", required=True)
    mc.set_defaults(cmd=_cmd_mirror_construct)
    mv = msub.add_parser("verify")
    mv.add_argument("--pair", required=True)
    mv.set_defaults(cmd=_cmd_mirror_verify)
    mi = msub.add_parser("isogeny")
    mi.add_argument("--pair", required=True)
    mi.add_argument("--expect", default=None)
    mi.set_defaults(cmd=_cmd_mirror_isogeny)

    v = sub.add_parser("va", help="lattice vertex algebra reports")
    vsub = v.add_subparsers()
    vc = vsub.add_parser("chiral")
    vc.add_argument("--torus", required=True)
    vc.add_argument("--expect", default=None, help="expected rationality")
    vc.set_defaults(cmd=_cmd_va_chiral)
    vk = vsub.add_parser("commutator")
    vk.add_argument("--torus", required=True)
    vk.add_argument("--kind", choices=("boson", "fermion"), required=True)
    vk.add_argument("--h", required=True)
    vk.add_argument("--mode-a", required=True)
    vk.add_argument("--hp", required=True)
    vk.add_argument("--mode-b", required=True)
    vk.set_defaults(cmd=_cmd_va_commutator)

    d = sub.add_parser("demo", help="end-to-end paper examples")
    dsub = d.add_subparsers()
    ds = dsub.add_parser("section4")
    ds.add_argument("--out", default=None)
    ds.set_defaults(cmd=_cmd_demo_section4)
    return p


def _cmd_torus_validate(args) -> int:
    bundle = _torus_bundle(args.torus)
    t = bundle["torus"]
    _emit(
        {
            "ok": True,
            "g": t.g,
            "field_degree": t.field.degree,
            "has_metric": bundle["kahler"] is not None,
        }
    )
    return 0


def _cmd_gks_induce(args) -> int:
    pair = induce_gks(_need_kahler(_torus_bundle(args.torus)))
    pair.verify()
    _emit(
        {
            "calI": jsonio.encode_matrix(pair.calI),
            "calJ": jsonio.encode_matrix(pair.calJ),
            "metric": jsonio.encode_matrix(pair.metric()),
            "verified": True,
        }
    )
    return 0


def _cmd_gks_rationality(args) -> int:
    k = _need_kahler(_torus_bundle(args.torus))
    report = {"ij_rational": k.ij.is_rational()}
    _emit(report)
    return _expect_check(report, "ij_rational", args.expect)


def _cmd_cm_build(args) -> int:
    from .cm import cm_torus, find_beta

    inp = _decode(args.input, lambda doc: jsonio.decode_cm_input(doc.get("cm", doc)))
    if inp.beta is None:
        inp.beta = find_beta(inp.field, inp.basis, inp.phi, args.budget)
    torus, e_m, g_m = cm_torus(inp)
    k = KahlerData(
        torus, g_m.lift(torus.field), FieldMatrix.zeros(torus.field, 2 * torus.g, 2 * torus.g)
    )
    _emit(
        {
            "torus": jsonio.encode_torus(torus, k, polarization=e_m.lift(torus.field)),
            "E": jsonio.encode_matrix(e_m),
            "G": jsonio.encode_matrix(g_m),
        }
    )
    return 0


def _cmd_cm_certificate(args) -> int:
    bundle = _torus_bundle(args.torus)
    verdict = cm_certificate(bundle["torus"], trials=args.trials, seed=args.seed)
    report = {
        "verdict": verdict.verdict,
        "witness": jsonio.encode_matrix(verdict.witness) if verdict.witness else None,
        "minpoly": [jsonio.encode_rational(c) for c in verdict.minpoly]
        if verdict.minpoly
        else None,
        "end_dim": verdict.end_dim,
    }
    _emit(report)
    return _expect_check(report, "verdict", args.expect)


def _cmd_cm_metric_search(args) -> int:
    bundle = _torus_bundle(args.torus)
    g_m, dim = rational_kahler_search(bundle["torus"], trials=args.trials, seed=args.seed)
    report = {
        "found": g_m is not None,
        "G": jsonio.encode_matrix(g_m) if g_m is not None else None,
        "solution_dim": dim,
    }
    _emit(report)
    return _expect_check(report, "found", args.expect)


def _cmd_mirror_construct(args) -> int:
    a_m = _decode(args.a, lambda raw: jsonio.decode_matrix(rationals(), raw))
    rho = _decode(args.rho, lambda raw: [[jsonio.decode_int(v) for v in row] for row in raw])
    pair = mirror.construct_mirror(a_m, rho)
    doc = jsonio.encode_pair(pair)
    doc["report"] = mirror.verify_mirror(pair).as_dict()
    _emit(doc)
    return 0


def _cmd_mirror_verify(args) -> int:
    pair = _decode(args.pair, jsonio.decode_pair)
    report = mirror.verify_mirror(pair)
    _emit(report.as_dict())
    return 0 if report.ok else 1


def _cmd_mirror_isogeny(args) -> int:
    pair = _decode(args.pair, jsonio.decode_pair)
    res = mirror.isogeny_from_mirror(pair)
    report = {
        "found": res.found,
        "reason": res.reason,
        "psi": res.psi_used,
        "n": res.n,
        "gamma": jsonio.encode_int_matrix(res.gamma) if res.gamma else None,
    }
    _emit(report)
    return _expect_check(report, "found", args.expect)


def _cmd_va_chiral(args) -> int:
    bundle = _torus_bundle(args.torus)
    lat = valattice.build_pairing_lattice(bundle["torus"], _need_kahler(bundle))
    report = _encode_chiral(valattice.chiral_sublattice(lat))
    _emit(report)
    return _expect_check(report, "rational", args.expect)


def _cmd_va_commutator(args) -> int:
    bundle = _torus_bundle(args.torus)
    lat = valattice.build_pairing_lattice(bundle["torus"], _need_kahler(bundle))
    f = lat.field
    h = _decode(args.h, lambda raw: [jsonio.decode_element(f, x) for x in raw])
    hp = _decode(args.hp, lambda raw: [jsonio.decode_element(f, x) for x in raw])
    coeff = valattice.supercommutator(lat, args.kind, h, args.mode_a, hp, args.mode_b)
    report = {
        "coefficient": jsonio.encode_rational(coeff.as_rational())
        if coeff.is_rational()
        else jsonio.encode_element(coeff)
    }
    _emit(report)
    return 0


def _cmd_demo_section4(args) -> int:
    report = mirror.section4_demo()
    if args.out:  # written first, so a bad path prints only the error document
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    _emit(report)
    expected = (
        report["metric_block_verified"]
        and not report["ij_rational"]
        and report["cm_left"] == "CM"
        and report["cm_right"] == "CM"
        and report["mirror_verified"]
        and not report["va_rational_left"]
        and not report["va_rational_right"]
    )
    return 0 if expected else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
