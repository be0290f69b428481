import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opfield import algebras, cli, complexes, exact, jsonio
from opfield.cherns import SurfaceDiagram, build_bcs, collar_inclusion, pairing
from opfield.cli import main
from opfield.envelope import TruncatedEnvelope, ccr, filtration_dim
from support import jacobi_failing_theory_doc, matrix_algebra, sl2_with_unit

DATA = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data"


def run_cli(args, env=None, module="opfield.cli"):
    proc = subprocess.run([sys.executable, "-m", module, *args],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


def test_validate_complex_ok(capsys):
    assert main(["validate", str(DATA / "circle_complex.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"type": "complex", "valid": True}


def test_validate_all_shipped_files():
    for path in sorted(DATA.glob("*.json")):
        code, out = run_cli(["validate", str(path)])
        assert code == 0, (path.name, out)


def test_homology_verb(capsys):
    assert main(["homology", str(DATA / "circle_complex.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"homology": {"0": 1, "1": 1}}


def test_cs_homology_matches_spec_table(capsys):
    assert main(["cs", "homology", str(DATA / "torus9.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {"-1": 1, "0": 2, "1": 1}
    assert main(["cs", "homology", str(DATA / "tetra_sphere.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {"-1": 1, "0": 0, "1": 1}
    assert main(["cs", "homology", str(DATA / "disk1.json")]) == 0
    assert json.loads(capsys.readouterr().out) == {"-1": 1}


def test_ccr_verb_commutator_entry(capsys):
    assert main(["ccr", str(DATA / "plane_presymplectic.json"), "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["commutators"]["[e1,e2]"] == "1"
    assert out["dim"] == 6


def test_envelope_dims_verb(capsys):
    assert main(["envelope-dims", "--algebra", str(DATA / "abelian_line_algebra.json"),
                 "--n", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stages"][6] == {"0": 7}


def test_dimension_reports_compute_no_stage_differentials(capsys, monkeypatch):
    # stage dimensions are counted from PBW monomials; only homology reads
    # the stage differentials
    def no_differentials(self, word):
        raise RuntimeError(f"stage differential computed for {word}")

    monkeypatch.setattr(TruncatedEnvelope, "_d_word", no_differentials)
    jobs = [
        (["quantize", str(DATA / "toy3_theory.json"), "--n", "3"],
         {"causality": "ok", "stage_dims": {"c": {"0": 35}, "c1": {"0": 10}, "c2": {"0": 10}},
          "truncation": 3}),
        (["ccr", str(DATA / "plane_presymplectic.json"), "--n", "5"],
         {"commutators": {"[e1,e2]": "1"}, "dim": 21, "stage_dims": {"0": 21}, "truncation": 5}),
        (["envelope-dims", "--algebra", str(DATA / "abelian_line_algebra.json"), "--n", "4"],
         {"stages": [{"0": 1}, {"0": 2}, {"0": 3}, {"0": 4}, {"0": 5}], "truncation": 4}),
    ]
    for argv, report in jobs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == jsonio.dumps(report), argv


def test_ccr_stage_differentials_slide_without_insertion(capsys, monkeypatch):
    # CCR brackets are central: stage differentials slide one letter into
    # place, with no generator insertion, and brackets are read from the
    # structure constants without evaluating the bracket operation
    def refuse(*args):
        raise RuntimeError("CCR stage assembly left the one-letter slide")

    monkeypatch.setattr(TruncatedEnvelope, "_insert", refuse)
    monkeypatch.setattr(algebras.DgAlgebra, "apply_generator", refuse)
    jobs = [
        (["cs", "quantize", str(DATA / "annulus3.json"), "--n", "3"],
         {"homology": {"-1": 3, "-2": 0, "-3": 0, "0": 4, "1": 0, "2": 0, "3": 0},
          "stage_dims": {"-1": 1830, "-2": 1056, "-3": 220, "0": 1392, "1": 444, "2": 48,
                         "3": 1},
          "truncation": 3}),
        (["cs", "quantize", str(DATA / "torus9.json"), "--n", "2"],
         {"homology": {"-1": 3, "-2": 0, "0": 7, "1": 3, "2": 0},
          "stage_dims": {"-1": 504, "-2": 153, "0": 568, "1": 252, "2": 36},
          "truncation": 2}),
    ]
    for argv, report in jobs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == jsonio.dumps(report), argv


def test_torus_quantized_at_three_has_the_homology_of_sym_three(capsys):
    # H(Sym^{<=3} V) = Sym^{<=3} H(V) with H(V) = {-1: 1, 0: 2, 1: 1}: in
    # degree 0 the words 1, a, b, a^2, ab, b^2, xy, a^3, ..., b^3, axy, bxy
    surface = jsonio.surface_from_json(json.loads((DATA / "torus9.json").read_text()))
    stage_dims = filtration_dim(algebras.heisenberg(pairing(surface)), 3)
    assert main(["cs", "quantize", str(DATA / "torus9.json"), "--n", "3"]) == 0
    assert capsys.readouterr().out == jsonio.dumps({
        "homology": {"-1": 6, "-2": 0, "-3": 0, "0": 13, "1": 6, "2": 0, "3": 0},
        "stage_dims": {str(k): v for k, v in stage_dims.items()},
        "truncation": 3})


def test_homotopy_check_w_runs_on_ranks_only(tmp_path, capsys, monkeypatch):
    # quasi-isomorphisms are decided by mapping-cone ranks, and homology
    # reports by ranks: no canonical elimination or homology representatives
    f = collar_inclusion()
    diagram = SurfaceDiagram({"small": f.source, "large": f.target},
                             {"collar": ("small", "large", f)})
    collar = tmp_path / "collar.json"
    collar.write_text(jsonio.dumps(jsonio.theory_to_json(build_bcs(diagram))))
    surface = jsonio.surface_from_json(json.loads((DATA / "torus9.json").read_text()))
    stage = tmp_path / "torus9-stage-n2.json"
    stage.write_text(jsonio.dumps(jsonio.complex_to_json(ccr(pairing(surface), 2).stage_complex())))

    def refuse(*args):
        raise RuntimeError("a homology report left the rank path")

    monkeypatch.setattr(exact, "rref", refuse)
    for name in ("rref", "kernel_basis", "homology"):
        monkeypatch.setattr(complexes, name, refuse)
    jobs = [
        (["check-w", str(collar), "--mode", "homotopy", "--w", "collar", "--n", "2"], 0,
         {"mode": "homotopy", "reports": [{"morphism": "collar", "ok": True, "witness": ""}]}),
        (["check-w", str(DATA / "toy3_theory.json"), "--mode", "homotopy",
          "--w", "id_c,id_c1,f1", "--n", "3"], 1,
         {"mode": "homotopy", "reports": [
             {"morphism": "id_c", "ok": True, "witness": ""},
             {"morphism": "id_c1", "ok": True, "witness": ""},
             {"morphism": "f1", "ok": False,
              "witness": "stage 1: homology dims differ in degree 0: 3 != 5"}]}),
        (["homology", str(stage)], 0,
         {"homology": {"-1": 3, "-2": 0, "0": 7, "1": 3, "2": 0}}),
        (["homology", str(stage), "--degree", "0"], 0, {"homology": {"0": 7}}),
        (["cs", "homology", str(DATA / "torus9.json")], 0, {"-1": 1, "0": 2, "1": 1}),
        (["cs", "quantize", str(DATA / "annulus3.json"), "--n", "3"], 0,
         {"homology": {"-1": 3, "-2": 0, "-3": 0, "0": 4, "1": 0, "2": 0, "3": 0},
          "stage_dims": {"-1": 1830, "-2": 1056, "-3": 220, "0": 1392, "1": 444, "2": 48,
                         "3": 1},
          "truncation": 3}),
    ]
    for argv, code, report in jobs:
        assert main(argv) == code, argv
        assert capsys.readouterr().out == jsonio.dumps(report), argv


def test_check_causality_verb(capsys):
    assert main(["check-causality", str(DATA / "toy3_theory.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["causality"] == "ok"
    assert out["orth_pairs"] == [["f1", "f2"]]


def test_quantize_verb(capsys):
    assert main(["quantize", str(DATA / "toy3_theory.json"), "--n", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["causality"] == "ok"
    assert out["stage_dims"]["c1"] == {"0": 10}


def test_check_w_verb(capsys):
    assert main(["check-w", str(DATA / "toy3_theory.json"),
                 "--mode", "strict", "--w", "id_c"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reports"][0]["ok"] is True


def test_check_w_failure_exits_one(capsys):
    # f1 is an inclusion, not an isomorphism
    assert main(["check-w", str(DATA / "toy3_theory.json"),
                 "--mode", "strict", "--w", "f1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["reports"][0]["ok"] is False


def test_cs_pairing_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "pairing.json"
    assert main(["cs", "pairing", str(DATA / "torus9.json"), "--out", str(out_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    assert report["homology_pairing"]["0,0"] in ([["0", "-1"], ["1", "0"]],
                                                 [["0", "1"], ["-1", "0"]])
    # the emitted presymplectic object re-parses to an equal value
    emitted = json.loads(out_path.read_text())["presymplectic"]
    p = jsonio.presymplectic_from_json(emitted)
    assert jsonio.presymplectic_to_json(p) == emitted
    # and it feeds back into the ccr verb
    pre_path = tmp_path / "pre.json"
    pre_path.write_text(jsonio.dumps(emitted))
    assert main(["ccr", str(pre_path), "--n", "2"]) == 0


def test_homology_single_degree(capsys):
    assert main(["homology", str(DATA / "circle_complex.json"), "--degree", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == {"homology": {"1": 1}}


def test_check_w_stagewise_after_quantization(capsys):
    assert main(["check-w", str(DATA / "toy3_theory.json"),
                 "--mode", "strict", "--w", "id_c", "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reports"][0]["ok"] is True


def test_check_w_stagewise_witness_names_the_first_failing_stage(capsys):
    # f1 and f2 include two-generator algebras into a four-generator one:
    # stage 0 is the ground field on both sides, stage 1 differs
    witnesses = {"homotopy": "stage 1: homology dims differ in degree 0: 3 != 5",
                 "strict": "stage 1: degree 0: dims 3 -> 5 differ"}
    for mode, witness in witnesses.items():
        assert main(["check-w", str(DATA / "toy3_theory.json"),
                     "--mode", mode, "--w", "f1,f2", "--n", "3"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["reports"] == [{"morphism": m, "ok": False, "witness": witness}
                                  for m in ("f1", "f2")]


def test_check_w_refuses_theories_whose_complexes_are_not_complexes(tmp_path, capsys):
    # homology ranks are cleared, which is only right when d.d = 0; each
    # check-w input below passes validate
    def algebra(dims, d, bracket=()):
        return {"kind": "uLie", "carrier": {"dims": dims, "d": d},
                "bracket": list(bracket), "unit": [[0, "1"]]}

    def theory(a, b, action):
        return {"kind": "uLie", "objects": ["a", "b"],
                "morphisms": [{"name": "f", "src": "a", "tgt": "b"}], "compose": [],
                "orth": [], "algebras": {"a": a, "b": b}, "actions": {"f": action}}

    line = [[0, 0, "1"]]
    chain = algebra({"0": 1, "1": 1, "2": 1}, {"1": line, "2": line})  # d_1 d_2 != 0
    # x = e1 in degree 0 and y = e2 in degree 1, dy = x and [x, y] = y:
    # d[x, y] = dy = x, but [dx, y] + [x, dy] = [x, x] = 0
    leibniz = algebra({"0": 2, "1": 1}, {"1": [[1, 0, "1"]]}, [[1, 2, 2, "1"], [2, 1, 2, "-1"]])
    flat = algebra({"0": 1, "1": 1}, {})
    cases = [
        (theory(chain, chain, {"0": line, "1": line, "2": line}),
         ["algebra a: carrier: d_1 . d_2 != 0", "algebra b: carrier: d_1 . d_2 != 0"]),
        (theory(leibniz, leibniz, {"0": [[0, 0, "1"], [1, 1, "1"]], "1": line}),
         [f"algebra {obj}: bracket: differential is not a derivation at basis tuple {key}"
          for obj in "ab" for key in ((1, 2), (2, 1), (2, 2))]),
    ]
    for doc, issues in cases:
        path = tmp_path / "theory.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"type": "theory", "valid": True}
        for mode in ("homotopy", "strict"):
            for n in ([], ["--n", "2"]):
                assert main(["check-w", str(path), "--mode", mode, "--w", "f", *n]) == 1
                assert json.loads(capsys.readouterr().out) == {"valid": False, "issues": issues}
    # an action that is not a chain map is refused too, as by validate
    path.write_text(json.dumps(theory(algebra({"0": 1, "1": 1}, {"1": line}), flat,
                                      {"0": line, "1": line})))
    assert main(["check-w", str(path), "--mode", "homotopy", "--w", "f"]) == 1
    assert json.loads(capsys.readouterr().out)["issues"][0].startswith("action f: chain map")


def test_invalid_surface_exits_two_with_error(tmp_path, capsys):
    doc = {"vertices": 3, "triangles": [[0, 1, 2]], "boundary_edges": [[0, 1]]}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert list(out) == ["error"] and out["error"]


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["validate", str(bad)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert "error" in out
    assert "bad.json:1:" in out["error"]


def test_missing_file_exits_two(capsys):
    assert main(["validate", "no_such_file.json"]) == 2


def test_malformed_matrix_entries_exit_two_with_location(tmp_path, capsys):
    def line(triplets):
        return {"dims": {"0": 1, "1": 1}, "d": {"1": triplets}}

    cases = [
        (line([[0, 5, "1"]]), "d.1[0]: entry index (0, 5) out of range for 1x1"),
        (line([[0, 0, "1"], [0, 0, 0.5]]), "d.1[1]: cannot interpret 0.5 as a rational number"),
        ({"dims": {"0": -1, "1": 1}}, "dims.0: dimension -1 is not a nonnegative integer"),
        ({"dims": {"0": 1, "1": True}}, "dims.1: dimension True is not a nonnegative integer"),
        ({"dims": {"x": 1}}, "dims.x: degree 'x' is not an integer"),
        ({"dims": {"0": 1, "00": 1}}, "dims.00: degree 0 is already given by dims.0"),
        ({"dims": {"0": 1, "1": 1}, "d": {"x": []}}, "d.x: degree 'x' is not an integer"),
        ({"dims": [1, 1]}, "dims: expected an object keyed by degree"),
        ({"dims": {"0": 1}, "d": [[0, 0, "1"]]}, "d: expected an object keyed by degree"),
        ({"dims": {"0": 1}, "d": {"1": 5}}, "d.1: expected a list of [row, col, value] triplets"),
        (line([[0, 0, True]]), "d.1[0]: cannot interpret True as a rational number"),
        (line([[0, False, "1"]]), "d.1[0]: index False is not an integer"),
        (line([[0, 0.0, "1"]]), "d.1[0]: index 0.0 is not an integer"),
        (line([[0, 0, "1"], [0, 0, "0"]]), "d.1[1]: entry (0, 0) is already given by d.1[0]"),
    ]
    for doc, message in cases:
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        for command in ("homology", "validate"):
            assert main([command, str(path)]) == 2
            assert json.loads(capsys.readouterr().out) == {"error": message}


def test_out_of_range_tensor_indices_are_located(tmp_path, capsys):
    # validate and the other commands refuse the input with exit code 2 and
    # the same message; neither prints a traceback
    doc = json.loads((DATA / "abelian_line_algebra.json").read_text())
    cases = [("bracket", [[0, 9, 0, "1"]], "bracket[0]: input index 9 >= dim 2"),
             ("bracket", [[0, 1, 7, "1"]], "bracket[0]: output index 7 >= dim 2"),
             ("bracket", [[0, True, 0, "1"]], "bracket[0]: index True is not an integer"),
             ("bracket", [[0, 1, 0, "1"], [1, 0, 0, "-1"], [0, 1, 0, "2"]],
              "bracket[2]: entry (0, 1, 0) is already given by bracket[0]"),
             ("unit", [[1, "1"], [1, "0"]], "unit[1]: entry (1) is already given by unit[0]"),
             ("carrier", 5, "carrier: complex document needs a 'dims' field")]
    for key, rows, message in cases:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps({**doc, key: rows}))
        assert main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": message}
        assert main(["envelope-dims", "--algebra", str(path), "--n", "2"]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": message}


def test_float_rationals_in_tensors_and_omega_exit_two(tmp_path, capsys):
    doc = json.loads((DATA / "plane_presymplectic.json").read_text())
    doc["omega"][0] = [0, 1, 0.5]
    path = tmp_path / "presymplectic.json"
    path.write_text(json.dumps(doc))
    assert main(["ccr", str(path), "--n", "2"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "omega[0]: cannot interpret 0.5 as a rational number"}
    doc["omega"] = [[0, 1, "1"], [1, 0, "-1"], [0, 1, "1"]]
    path.write_text(json.dumps(doc))
    assert main(["ccr", str(path), "--n", "2"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "omega[2]: entry (0, 1) is already given by omega[0]"}
    doc = json.loads((DATA / "abelian_line_algebra.json").read_text())
    doc["unit"] = [[1, 0.5]]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert main(["envelope-dims", "--algebra", str(path), "--n", "2"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "unit[0]: cannot interpret 0.5 as a rational number"}


def test_misshapen_fields_are_located(tmp_path, capsys):
    # validate and the other command refuse the input with exit code 2 and
    # the same message; neither prints a traceback
    cases = [  # (shipped file, field, value, command, message)
        ("abelian_line_algebra", "bracket", 5, ["envelope-dims", "--n", "2", "--algebra"],
         "bracket: expected a list"),
        ("plane_presymplectic", "omega", 3, ["ccr", "--n", "2"], "omega: expected a list"),
        ("toy3_theory", "actions", {"nope": {}}, ["check-w", "--w", "f1"],
         "actions.nope: no such morphism"),
        ("toy3_theory", "actions", 5, ["quantize", "--n", "2"],
         "actions: expected an object keyed by name"),
        ("toy3_theory", "algebras", {"c": 5}, ["quantize", "--n", "2"],
         "algebras.c: algebra document needs a 'kind' field"),
        ("toy3_theory", "morphisms", [{"name": "f1"}], ["check-causality"],
         "morphisms[0]: expected an object with names 'name', 'src' and 'tgt'"),
        ("toy3_theory", "orth", [["f1"]], ["check-causality"],
         "orth[0]: expected a list of 2 names"),
        ("torus9", "triangles", [[0, 1]], ["cs", "homology"],
         "triangles[0]: expected a list of 3 integers"),
        ("torus9", "vertex_order", 5, ["cs", "pairing"],
         "vertex_order: expected a list of integers"),
        ("disk1", "vertices", -1, ["cs", "homology"],
         "vertices: expected a nonnegative integer"),
    ]
    for stem, field, value, command, message in cases:
        doc = json.loads((DATA / f"{stem}.json").read_text())
        doc[field] = value
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2, message
        assert json.loads(capsys.readouterr().out) == {"error": message}
        assert main([*command, str(path)]) == 2, message
        assert json.loads(capsys.readouterr().out) == {"error": message}
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": f"{path}: expected a JSON object"}


def test_invalid_complex_exits_one(tmp_path, capsys):
    doc = {"dims": {"0": 1, "1": 1, "2": 1},
           "d": {"1": [[0, 0, "1"]], "2": [[0, 0, "1"]]}}
    path = tmp_path / "bad_complex.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False


def test_planted_causality_violation_exits_one(tmp_path, capsys):
    doc = json.loads((DATA / "toy3_theory.json").read_text())
    # corrupt the big algebra's pairing so the two blocks fail to commute
    doc["algebras"]["c"]["bracket"].append([0, 2, 4, "1"])
    doc["algebras"]["c"]["bracket"].append([2, 0, 4, "-1"])
    path = tmp_path / "violating.json"
    path.write_text(json.dumps(doc))
    assert main(["check-causality", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["causality"] == "violated"
    assert out["violations"]


def test_causality_on_a_bracket_that_is_not_antisymmetric(tmp_path, capsys):
    # [x0, x2] = 1 without the partner [x2, x0] = -1: validate does not check
    # antisymmetry, so each order of the orthogonal pair is contracted on its
    # own and only (f1, f2) fails; reading (f2, f1) as the graded transpose of
    # (f1, f2) would report a violation there too
    doc = json.loads((DATA / "toy3_theory.json").read_text())
    doc["algebras"]["c"]["bracket"].append([0, 2, 4, "1"])
    path = tmp_path / "lopsided.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["check-causality", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out == {"causality": "violated", "violations": [
        "orthogonal pair ('f1', 'f2') fails on basis pair (0, 0): 4: 1"]}


def test_quantize_on_a_target_that_fails_jacobi(tmp_path, capsys):
    # the generator images commute, so the linear check passes; the target
    # fails Jacobi, so quantized causality is checked on every monomial pair
    # and fails from n = 3 on
    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps(jacobi_failing_theory_doc()))
    assert main(["quantize", str(path), "--n", "2"]) == 0
    assert capsys.readouterr().out == jsonio.dumps(
        {"causality": "ok", "stage_dims": {"c": {"0": 10}, "c1": {"0": 3}, "c2": {"0": 3}},
         "truncation": 2})
    assert main(["quantize", str(path), "--n", "3"]) == 3
    assert capsys.readouterr().out == jsonio.dumps({"internal_error": (
        "quantization broke causality: orthogonal pair ('f1', 'f2') fails on basis pair "
        "((0, 0), (0,)): (0,): 1, (1,): 1; orthogonal pair ('f2', 'f1') fails on basis pair "
        "((0,), (0, 0)): (0,): -1, (1,): -1")})


@pytest.mark.parametrize("name, exc, verb, message", [
    ("_load", ValueError("bad value"), "validate", "ValueError: bad value"),
    ("homology_dims", KeyError("nope"), "homology", "KeyError: 'nope'"),
])
def test_unexpected_exceptions_exit_three_with_one_report(capsys, monkeypatch, name, exc, verb,
                                                          message):
    # any exception a command lets out becomes one internal_error report
    def boom(*args):
        raise exc

    monkeypatch.setattr(cli, name, boom)
    assert main([verb, str(DATA / "circle_complex.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == jsonio.dumps({"internal_error": message})
    assert captured.err == ""


def test_unwritable_out_path_exits_two_with_one_report(capsys, tmp_path):
    out = tmp_path / "missing" / "report.json"
    assert main(["homology", str(DATA / "circle_complex.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().out == jsonio.dumps(
        {"error": f"{out}: cannot write the report: No such file or directory"})


def with_zero_entries(adoc):
    """An algebra document with explicit "0" rows in every structure map: one
    on each input tuple that has entries, at an output it does not reach yet,
    and one on the first input tuple that has none, all before the others."""
    total = sum(adoc["carrier"]["dims"].values())
    out = dict(adoc)
    for key, arity in (("bracket", 2), ("mu", 2), ("pbracket", 2), ("unit", 0)):
        if key not in adoc:
            continue
        rows = adoc[key]
        taken = {tuple(row[:-1]) for row in rows}
        inputs = sorted({tuple(row[:-2]) for row in rows})
        if arity:
            inputs.append(next(t for t in itertools.product(range(total), repeat=arity)
                               if t not in inputs))
        zeros = [[*t, next(k for k in range(total) if t + (k,) not in taken), "0"]
                 for t in inputs]
        out[key] = zeros + rows
    return out


def test_explicit_zero_coefficients_change_no_report(tmp_path, capsys):
    # structure maps keep no zero entries, so "0" rows leave every report as it is
    theory = json.loads((DATA / "toy3_theory.json").read_text())
    zero_theory = {**theory, "algebras": {obj: with_zero_entries(adoc)
                                          for obj, adoc in theory["algebras"].items()}}
    jobs = [(["validate"], theory, zero_theory), (["check-causality"], theory, zero_theory)]
    for a in (theory["algebras"]["c"], jsonio.algebra_to_json(sl2_with_unit()),
              jsonio.algebra_to_json(matrix_algebra(2))):
        jobs.append((["validate"], a, with_zero_entries(a)))
        if a["kind"] == "uLie":
            jobs.append((["envelope-dims", "--n", "3", "--algebra"], a, with_zero_entries(a)))
    for argv, doc, zero_doc in jobs:
        assert zero_doc != doc
        reports = []
        for d in (doc, zero_doc):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(d))
            code = main(argv + [str(path)])
            reports.append((code, capsys.readouterr().out))
        assert reports[0][0] == 0, (argv, reports[0])
        assert reports[1] == reports[0], argv


def test_cli_determinism_on_shipped_examples():
    jobs = [
        ["validate", str(DATA / "circle_complex.json")],
        ["homology", str(DATA / "circle_complex.json")],
        ["envelope-dims", "--algebra", str(DATA / "abelian_line_algebra.json"), "--n", "4"],
        ["ccr", str(DATA / "plane_presymplectic.json"), "--n", "2"],
        ["check-causality", str(DATA / "toy3_theory.json")],
        ["quantize", str(DATA / "toy3_theory.json"), "--n", "2"],
        ["check-w", str(DATA / "toy3_theory.json"), "--mode", "strict", "--w", "id_c,f1"],
        ["cs", "homology", str(DATA / "tetra_sphere.json")],
        ["cs", "homology", str(DATA / "torus9.json")],
        ["cs", "homology", str(DATA / "disk1.json")],
        ["cs", "homology", str(DATA / "annulus2.json")],
        ["cs", "pairing", str(DATA / "annulus3.json")],
        ["cs", "quantize", str(DATA / "disk1.json"), "--n", "2"],
    ]
    for job in jobs:
        code1, out1 = run_cli(job)
        code2, out2 = run_cli(job)
        assert (code1, out1) == (code2, out2), job
        assert out1.endswith(b"\n")


def test_package_runs_as_a_module():
    for job, code in ((["cs", "homology", str(DATA / "torus9.json")], 0),
                      (["cs", "homology", str(DATA / "no_such_file.json")], 2)):
        result = run_cli(job, module="opfield")
        assert result == run_cli(job) and result[0] == code, job


def test_reports_do_not_depend_on_hash_seed(tmp_path):
    # elimination tie-breaks and the normal-form caches walk sets and dicts;
    # the reports must not
    surface = jsonio.surface_from_json(json.loads((DATA / "torus9.json").read_text()))
    stage = tmp_path / "stage.json"
    stage.write_text(jsonio.dumps(jsonio.complex_to_json(ccr(pairing(surface), 2).stage_complex())))
    jobs = [  # (argv, exit code)
        (["cs", "quantize", str(DATA / "annulus2.json"), "--n", "3"], 0),
        (["cs", "pairing", str(DATA / "torus9.json")], 0),
        (["homology", str(stage), "--degree", "0"], 0),
        (["quantize", str(DATA / "toy3_theory.json"), "--n", "3"], 0),
        (["check-causality", str(DATA / "toy3_theory.json")], 0),
        (["ccr", str(DATA / "plane_presymplectic.json"), "--n", "5"], 0),
        (["envelope-dims", "--algebra", str(DATA / "abelian_line_algebra.json"), "--n", "4"], 0),
        (["check-w", str(DATA / "toy3_theory.json"), "--mode", "homotopy", "--w", "f1,f2",
          "--n", "3"], 1),
    ]
    for job, expected in jobs:
        outputs = set()
        for seed in ("0", "1", "2"):
            code, out = run_cli(job, env={**os.environ, "PYTHONHASHSEED": seed})
            assert code == expected, (job, out)
            outputs.add(out)
        assert len(outputs) == 1, job
