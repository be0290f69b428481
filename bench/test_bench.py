"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# cheap operation kinds, one instance of each is a tiny but complete pass
TINY = {
    "cs_quantize": {"cs quantize annulus2 --n 3", "cs quantize annulus3 --n 2"},
    "cs_classes": {"homology annulus2-stage-n3 --degree 0", "homology annulus2-stage-n3",
                   "cs pairing annulus2", "cs pairing tetra", "cs pairing torus9",
                   "check-w toy3 --mode homotopy --n 3"},
    "theory_checks": {"validate heisenberg annulus2", "validate heisenberg annulus2 changed",
                      "validate collar", "validate collar-incompatible",
                      "check-causality two-disks", "quantize toy3 --n 9"},
}


def tiny(workload, tmp_path):
    lib, op_sets, times = run.setup(workload, 7, tmp_path / "inputs", run.Results(), reps=1)
    assert len(op_sets) == run.INPUT_SETS
    assert [op.label for op in op_sets[0]] == [op.label for op in op_sets[1]]
    chosen, seen = [], set()
    for op in op_sets[0]:
        if op.label in TINY[workload] and op.label not in seen:
            seen.add(op.label)
            chosen.append(op)
    assert seen == TINY[workload]
    return lib, chosen, times


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, tmp_path):
    lib, ops, times = tiny(workload, tmp_path)
    for trace, spec_key in ((False, "end_to_end"), (True, "per_layer")):
        results = run.Results()
        metrics = run.collect(lib, [ops], 7, 0, trace, results, times,
                              tmp_path / "trace.json", min_ops=1)
        assert results.failures == []
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        assert {name: unit for name, (_, unit) in metrics.items()} == want
        assert all(isinstance(v, (int, float)) for v, _ in metrics.values())
    assert metrics["cli.ops"][0] == len(ops)
    # quantize toy3 checks quantized causality from inside the fieldtheory layer
    assert (metrics["fieldtheory.monomial_pairs"][0] > 0) == (workload == "theory_checks")
    assert metrics["trace.overhead_ratio"][0] > 0
    assert workload in [m["name"] for m in SPEC["workloads"]]


def corrupt(text: str) -> str:
    """Flip the first boolean of a report (its verdict), or change its first digit."""
    if re.search(r"true|false", text):
        return re.sub(r"true|false", lambda m: "false" if m.group() == "true" else "true",
                      text, count=1)
    i = re.search(r"\d", text).start()
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checker_accepts_correct_and_counts_corrupted_reports(workload, tmp_path):
    lib, ops, _ = tiny(workload, tmp_path)
    results = run.Results()
    run.run_pass(lib, ops, "order", results)
    assert results.failures == [] and len(results.samples) == len(ops)

    def corrupting_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = lib.cli.main(argv)
        sys.stdout.write(corrupt(buf.getvalue()))
        return rc

    results = run.Results()
    run.run_pass(SimpleNamespace(cli=SimpleNamespace(main=corrupting_main)), ops, "order", results)
    assert len(results.failures) == len(ops) == results.attempted == len(results.timed_ops)
    assert results.samples == []


def test_raising_operation_counts_as_failed():
    def raising_main(argv):
        raise RuntimeError("boom")

    results = run.Results()
    op = workloads.Op("x", [], oracle.expect_equal(0, {}), 0)
    run.run_pass(SimpleNamespace(cli=SimpleNamespace(main=raising_main)), [op], "order", results)
    assert results.failures == ["x: RuntimeError: boom"]


def test_ops_per_s_counts_the_time_of_failed_operations():
    ref = run.REFERENCE_PROBE_S
    results = run.Results()
    results.add("ok", None, run.Sample("ok", 1.0, ref))
    results.add("bad", "wrong report", run.Sample("bad", 3.0, ref))
    metrics = run.end_to_end(results, [run.Sample("setup", 1.0, ref)])
    assert metrics["ops_per_s"][0] == 0.25
    assert metrics["verified_ratio"][0] == 0.5


def test_normalized_time_rescales_by_the_reference_probe():
    ref = run.REFERENCE_PROBE_S
    samples = [run.Sample("a", 2.0, 2 * ref), run.Sample("a", 1.0, ref)]
    assert run.normalized(samples) == [1.0, 1.0]


def test_oracle_topology_and_symmetric_counts():
    surfaces = workloads.surfaces()
    assert oracle.betti(surfaces["torus9"]) == {-1: 1, 0: 2, 1: 1}
    assert oracle.betti(surfaces["tetra"]) == {-1: 1, 0: 0, 1: 1}
    assert oracle.betti(surfaces["band4"]) == {-1: 1, 0: 1, 1: 0}
    assert oracle.generator_dims(surfaces["torus9"]) == {-1: 18, 0: 27, 1: 9}
    # the annulus2 stage at n = 3, as reported by `cs quantize`
    assert oracle.sym_dims(oracle.generator_dims(surfaces["annulus2"]), 3) == \
        {0: 84, -1: 168, -2: 105, -3: 20}


def test_golden_cases_cover_every_shipped_file():
    used = {a for cases in run.golden.CASES.values() for argv in cases for a in argv}
    shipped = {f"{run.golden.D}{p.name}" for p in (run.ROOT / run.golden.D).glob("*.json")}
    assert shipped <= used
    for workload in workloads.WORKLOADS:
        assert len(run.golden.cases(workload)) == len(run.golden.CASES[workload])
