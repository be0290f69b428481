import json
from fractions import Fraction
from pathlib import Path

import pytest

from opfield import jsonio, operads
from opfield.algebras import DgAlgebra, PresymplecticComplex, heisenberg
from opfield.cherns import grid_torus, band_annulus
from opfield.complexes import ChainComplex
from opfield.errors import StructuralError
from opfield.exact import RationalMatrix

from support import matrix_algebra, truncated_poisson_algebra

DATA = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data"


def test_complex_roundtrip():
    c = ChainComplex({-1: 2, 0: 3, 2: 1},
                     {0: RationalMatrix(2, 3, {(0, 1): Fraction(1, 2), (1, 2): -2})})
    doc = jsonio.complex_to_json(c)
    assert jsonio.complex_from_json(doc) == c
    assert jsonio.complex_to_json(jsonio.complex_from_json(doc)) == doc


def test_algebra_roundtrip_as_and_pois():
    for a in (matrix_algebra(2), truncated_poisson_algebra(),
              heisenberg(PresymplecticComplex(ChainComplex({0: 2}),
                                              {(0, 1): 1, (1, 0): -1}))):
        doc = jsonio.algebra_to_json(a)
        b = jsonio.algebra_from_json(doc)
        assert b.kind == a.kind
        assert b.carrier == a.carrier
        assert b.structure == a.structure
        assert jsonio.algebra_to_json(b) == doc


def test_surface_roundtrip():
    for s in (grid_torus(), band_annulus(3)):
        doc = jsonio.surface_to_json(s)
        t = jsonio.surface_from_json(doc)
        assert jsonio.surface_to_json(t) == doc


def test_theory_roundtrip():
    doc = json.loads((DATA / "toy3_theory.json").read_text())
    ft = jsonio.theory_from_json(doc)
    assert jsonio.theory_to_json(ft) == doc


def test_sniff_type():
    assert jsonio.sniff_type({"dims": {}}) == "complex"
    assert jsonio.sniff_type({"kind": "As", "carrier": {}}) == "algebra"
    assert jsonio.sniff_type({"carrier": {}, "omega": []}) == "presymplectic"
    assert jsonio.sniff_type({"vertices": 3, "triangles": []}) == "surface"
    assert jsonio.sniff_type({"objects": [], "algebras": {}}) == "theory"
    with pytest.raises(StructuralError):
        jsonio.sniff_type({"something": 1})


def test_missing_fields_are_reported():
    with pytest.raises(StructuralError):
        jsonio.algebra_from_json({"kind": "As"})
    with pytest.raises(StructuralError):
        jsonio.presymplectic_from_json({"carrier": {"dims": {}}})


def test_tensor_arity_mismatch_reported():
    doc = {"kind": "uLie", "carrier": {"dims": {"0": 2}},
           "bracket": [[0, 1, "1"]], "unit": [[1, "1"]]}
    with pytest.raises(StructuralError) as err:
        jsonio.algebra_from_json(doc)
    assert "2 inputs" in str(err.value) or "expected 2" in str(err.value)


def test_rationals_serialize_canonically():
    c = ChainComplex({0: 1, 1: 1}, {1: RationalMatrix(1, 1, {(0, 0): Fraction(4, 6)})})
    doc = jsonio.complex_to_json(c)
    assert doc["d"]["1"] == [[0, 0, "2/3"]]


def test_dumps_is_stable():
    doc = {"b": 1, "a": {"z": "2/3", "y": [1, 2]}}
    assert jsonio.dumps(doc) == jsonio.dumps(json.loads(jsonio.dumps(doc)))
    assert jsonio.dumps(doc).endswith("\n")


def one_entry_complex(value) -> dict:
    return {"dims": {"0": 1, "1": 1}, "d": {"1": [[0, 0, value]]}}


@pytest.mark.parametrize("value,expected", [
    ("+3", Fraction(3)), (" 3 ", Fraction(3)), ("1.5", Fraction(3, 2)), ("1e2", Fraction(100)),
    ("1_000", Fraction(1000)), ("٣", Fraction(3)), ("6/4", Fraction(3, 2)),
    ("3/04", Fraction(3, 4)), ("-0", None), (3, Fraction(3)), ("-7/21", Fraction(-1, 3)),
])
def test_matrix_values_parse_to_their_rational(value, expected):
    c = jsonio.complex_from_json(one_entry_complex(value))
    assert c.d(1).entries == ({} if expected is None else {(0, 0): expected})


@pytest.mark.parametrize("value,message", [
    ("1/0", "Fraction(1, 0)"), ("1/00", "Fraction(1, 0)"),
    ("abc", "Invalid literal for Fraction: 'abc'"),
    ("1/2/3", "Invalid literal for Fraction: '1/2/3'"),
    ("2 / 3", "Invalid literal for Fraction: '2 / 3'"),
    ("0x10", "Invalid literal for Fraction: '0x10'"),
    (True, "cannot interpret True as a rational number"),
    (1.5, "cannot interpret 1.5 as a rational number"),
    (None, "cannot interpret None as a rational number"),
])
def test_matrix_values_that_are_not_rationals_are_located(value, message):
    with pytest.raises(StructuralError) as err:
        jsonio.complex_from_json(one_entry_complex(value))
    assert str(err.value) == f"d.1[0]: {message}"
