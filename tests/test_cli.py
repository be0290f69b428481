import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from opfield import jsonio
from opfield.cherns import pairing
from opfield.cli import main
from opfield.envelope import TruncatedEnvelope, ccr
from support import matrix_algebra, sl2_with_unit

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


def test_invalid_surface_reports_and_exits_one(tmp_path, capsys):
    doc = {"vertices": 3, "triangles": [[0, 1, 2]], "boundary_edges": [[0, 1]]}
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["issues"]


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
    cases = [
        ([[0, 5, "1"]], "d.1[0]: entry index (0, 5) out of range for 1x1"),
        ([[0, 0, "1"], [0, 0, 0.5]], "d.1[1]: cannot interpret 0.5 as a rational number"),
    ]
    for triplets, message in cases:
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"dims": {"0": 1, "1": 1}, "d": {"1": triplets}}))
        assert main(["homology", str(path)]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": message}


def test_out_of_range_tensor_indices_are_located(tmp_path, capsys):
    # validate reports a structural defect as a failed check; other commands
    # refuse the input with exit code 2; neither prints a traceback
    doc = json.loads((DATA / "abelian_line_algebra.json").read_text())
    cases = [([[0, 9, 0, "1"]], "bracket[0]: input index 9 >= dim 2"),
             ([[0, 1, 7, "1"]], "bracket[0]: output index 7 >= dim 2")]
    for bracket, message in cases:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps({**doc, "bracket": bracket}))
        assert main(["validate", str(path)]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "type": "algebra", "valid": False, "issues": [message]}
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
    doc = json.loads((DATA / "abelian_line_algebra.json").read_text())
    doc["unit"] = [[1, 0.5]]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert main(["envelope-dims", "--algebra", str(path), "--n", "2"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "unit[0]: cannot interpret 0.5 as a rational number"}


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
