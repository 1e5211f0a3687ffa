"""JSON encodings: rationals as "p/q" strings, fields, elements, matrices,
torus documents, CM blocks, and mirror-pair documents.  A decoded torus
document is checked here, once: I by `ComplexTorusData`, (G, B) by
`KahlerData`, a polarization by `check_polarization`; nothing re-checks them."""

from __future__ import annotations

from fractions import Fraction

from .cm import CmInput, check_polarization
from .exactla import FieldMatrix
from .numfield import FieldElement, NumberField, _rational_pair, make_field, require_irreducible
from .torus import ComplexTorusData, KahlerData


def encode_rational(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def decode_rational(raw) -> Fraction:
    """A JSON integer or string, read by `numfield._rational_pair`."""
    return Fraction(*_rational_pair(raw))


def decode_int(raw) -> int:
    x = decode_rational(raw)
    if x.denominator != 1:
        raise ValueError(f"not an integer: {raw!r}")
    return x.numerator


def encode_field(f: NumberField) -> dict:
    return {
        "minpoly": [encode_rational(c) for c in f.minpoly],
        "conj": [encode_rational(c) for c in f.conj_image] if f.has_conj else None,
    }


def decode_field(doc: dict) -> NumberField:
    return make_field(doc["minpoly"], doc.get("conj"))


def encode_element(e: FieldElement) -> list:
    return [encode_rational(c) for c in e.coords]


def decode_element(f: NumberField, raw) -> FieldElement:
    return f.coerce(raw)


def encode_matrix(m: FieldMatrix) -> list:
    return [[encode_element(e) for e in row] for row in m.entries]


def decode_matrix(f: NumberField, raw) -> FieldMatrix:
    """Each entry, a rational or a coordinate list, goes into the block by
    the one coercion rule, with no element built."""
    return FieldMatrix(f, raw)


def encode_int_matrix(rows) -> list:
    return [[int(v) for v in row] for row in rows]


def encode_torus(
    t: ComplexTorusData,
    k: KahlerData | None = None,
    polarization: FieldMatrix | None = None,
    cm: CmInput | None = None,
) -> dict:
    doc = {
        "g": t.g,
        "field": encode_field(t.field),
        "embedding": t.embedding.index,
        "I": encode_matrix(t.I),
        "G": encode_matrix(k.G) if k else None,
        "B": encode_matrix(k.B) if k else None,
    }
    if polarization is not None:
        doc["polarization"] = encode_matrix(polarization)
    if cm is not None:
        doc["cm"] = encode_cm_input(cm)
    return doc


def decode_torus(doc: dict) -> dict:
    """Torus document -> {torus, kahler, polarization, cm} (absent -> None)."""
    f = decode_field(doc["field"])
    embs = f.embeddings()
    idx = decode_int(doc["embedding"])
    if not 1 <= idx <= len(embs):
        raise ValueError("embedding index out of range")
    require_irreducible(embs[idx - 1])
    torus = ComplexTorusData(decode_int(doc["g"]), f, decode_matrix(f, doc["I"]), embs[idx - 1])
    kahler = None
    if doc.get("G") is None and doc.get("B") is not None:
        raise ValueError("B given without G")
    if doc.get("G") is not None:
        g_m = decode_matrix(f, doc["G"])
        if doc.get("B") is not None:
            b_m = decode_matrix(f, doc["B"])
        else:
            b_m = FieldMatrix.zeros(f, 2 * torus.g, 2 * torus.g)
        kahler = KahlerData(torus, g_m, b_m)
    pol = None
    if doc.get("polarization") is not None:
        pol = decode_matrix(f, doc["polarization"])
        check_polarization(torus, pol)
    cm = decode_cm_input(doc["cm"]) if doc.get("cm") else None
    return {"torus": torus, "kahler": kahler, "polarization": pol, "cm": cm}


def encode_cm_input(inp: CmInput) -> dict:
    return {
        "field": encode_field(inp.field),
        "basis": [encode_element(b) for b in inp.basis],
        "phi": list(inp.phi),
        "beta": encode_element(inp.beta) if inp.beta is not None else None,
        "automorphisms": (
            [encode_element(a) for a in inp.automorphisms]
            if inp.automorphisms is not None
            else None
        ),
    }


def decode_cm_input(doc: dict) -> CmInput:
    f = decode_field(doc["field"])
    basis = [decode_element(f, b) for b in doc["basis"]]
    beta = decode_element(f, doc["beta"]) if doc.get("beta") is not None else None
    autos = None
    if doc.get("automorphisms") is not None:
        autos = [decode_element(f, a) for a in doc["automorphisms"]]
    return CmInput(f, basis, [decode_int(i) for i in doc["phi"]], beta, autos)


def encode_pair(pair) -> dict:
    return {
        "left": encode_torus(pair.left.torus, pair.left.kahler),
        "right": encode_torus(pair.right.torus, pair.right.kahler),
        "phi": encode_int_matrix(pair.map.phi),
    }


def decode_pair(doc: dict):
    from .mirror import MirrorMap, MirrorPair, MirrorSide
    from .torus import induce_gks

    sides = []
    for key in ("left", "right"):
        k = decode_torus(doc[key])["kahler"]
        if k is None:
            raise ValueError(f"{key} side needs G (and B) for a mirror pair")
        sides.append(MirrorSide(k.torus, k, induce_gks(k)))
    phi = [[decode_int(v) for v in row] for row in doc["phi"]]
    return MirrorPair(sides[0], sides[1], MirrorMap(phi))
