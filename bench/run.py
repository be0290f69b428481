"""opfield benchmark: verified CLI workloads, timed end to end, with a traced mode.

Usage (from the repository root):

    python3 bench/run.py --workload cs_quantize --seed 1 --seconds 15 --trace 0

One process, one closed-loop client: each operation calls
``opfield.cli.main`` in-process and the next one starts when it returns.
A run sets up (imports the package and writes the seeded inputs) several
times and reports the median, checks the shipped examples against reports
recorded in ``golden.json``, then runs whole passes of the workload's
operation mix, reshuffled each pass, until ``--seconds`` of (normalized)
operation time are used and at least MIN_OPS operations are done.  Every
report is compared with an answer computed independently of the library; a
mismatch, an exception or a wrong exit code counts as a failed operation, and
a run with any failed operation exits with code 1 after its result line.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced and one
traced pass and reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
INPUT_SETS = 2         # passes alternate between independently drawn input sets
REFERENCE_PROBE_S = 0.003  # the probe's undisturbed time on the machine the benchmark was built on
MIN_OPS = 100          # p90 then has at least ten samples above it
HARD_CAP_S = 120.0     # never start a pass after this much measuring


def import_library() -> SimpleNamespace:
    """Import opfield from this checkout afresh, dropping any earlier import."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "opfield" or m.startswith("opfield.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{layer: importlib.import_module(f"opfield.{layer}")
                             for layer in tracing.LAYERS})
    if Path(lib.cli.__file__).resolve().parent != ROOT / "src" / "opfield":
        raise ImportError(f"opfield was imported from {lib.cli.__file__}, not from {src}")
    return lib


def probe() -> float:
    """Time a fixed piece of pure-Python rational arithmetic (a few ms).

    The machine the benchmark was built on is shared: for seconds to minutes
    at a time everything runs up to twice as slow, and this probe slows by
    about the same factor as the library (see README.md)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


@dataclass
class Sample:
    label: str
    seconds: float      # measured wall time
    probe: float        # mean probe time just before and just after


class Results:
    def __init__(self):
        self.timed_ops: List[Sample] = []  # every timed operation, failed ones too
        self.samples: List[Sample] = []    # the verified ones among them
        self.probes: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []

    def timed(self, label: str, work):
        """Run ``work()`` between two probes; return its result and the Sample."""
        before = probe()
        t0 = time.perf_counter()
        out = work()
        dt = time.perf_counter() - t0
        after = probe()
        self.probes += [before, after]
        return out, Sample(label, dt, (before + after) / 2)

    def add(self, label: str, reason: Optional[str], sample: Optional[Sample] = None) -> None:
        """Count one attempted operation; ``sample`` is None for untimed ones."""
        self.attempted += 1
        if sample is not None:
            self.timed_ops.append(sample)
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
        elif sample is not None:
            self.samples.append(sample)


def normalized(samples: List[Sample]) -> List[float]:
    """Wall times rescaled to the reference probe time: a sample taken while the
    probe ran 1.8x slower than the reference counts 1/1.8 of its wall time."""
    return [s.seconds * REFERENCE_PROBE_S / s.probe for s in samples]


def setup(workload: str, seed: int, workdir: Path, results: Results, reps: int = SETUP_REPS):
    """Import and generate ``reps`` times.

    Returns the last library, its INPUT_SETS operation lists (one per input
    set, each a full pass of the mix) and the set-up samples."""
    samples = []
    lib = op_sets = None
    for rep in range(reps):
        rep_dir = workdir / f"setup{rep}"
        (lib, op_sets), sample = results.timed("setup", lambda: _setup_once(workload, seed, rep_dir))
        samples.append(sample)
        if rep + 1 < reps:
            shutil.rmtree(rep_dir)
    return lib, op_sets, samples


def _setup_once(workload: str, seed: int, rep_dir: Path):
    lib = import_library()
    return lib, [workloads.build(workload, lib, seed, rep_dir / f"set{i}", i)
                 for i in range(INPUT_SETS)]


def run_op(lib, op, results: Results) -> Sample:
    """Run one CLI call and check its report; record it, timed, in ``results``.

    A failed operation is timed up to the point where it failed."""
    buf = io.StringIO()
    gc.collect()

    def call():
        try:
            with contextlib.redirect_stdout(buf):
                return lib.cli.main(op.argv), None
        except SystemExit as exc:
            return None, f"exited with {exc.code!r}"
        except Exception:  # a raising operation is a failed one; keep measuring
            return None, traceback.format_exc().strip().splitlines()[-1]
    (rc, reason), sample = results.timed(op.label, call)
    if reason is None:
        reason = op.check(rc, buf.getvalue())
    results.add(op.label, reason, sample)
    return sample


def run_pass(lib, ops, order_seed: str, results: Results, tracer=None) -> List[Sample]:
    """Run one pass in the seeded order; return the samples of all its operations."""
    order = list(ops)
    random.Random(order_seed).shuffle(order)
    done = []
    for op in order:
        if tracer is None:
            done.append(run_op(lib, op, results))
        else:
            with tracer.operation(op.label):
                done.append(run_op(lib, op, results))
    return done


def measure(lib, op_sets, seed: int, seconds: float, results: Results,
            min_ops: int = MIN_OPS) -> None:
    """Whole passes, cycling through the input sets, until ``min_ops`` are
    done and another pass would take the (normalized) time spent in
    operations past ``seconds``.

    A vertex order's cost varies by up to 2x, so drawing more of them per run
    steadies the medians.  Counting normalized rather than wall-clock time
    keeps the number of passes, and so the mix of samples, the same whether
    or not the machine is busy."""
    passes = done = 0
    busy = 0.0
    start = time.perf_counter()
    while True:
        ops = op_sets[passes % len(op_sets)]
        busy += sum(normalized(run_pass(lib, ops, f"order:{seed}:{passes}", results)))
        passes += 1
        done += len(ops)
        if done >= min_ops and busy + busy / passes > seconds:
            return
        if time.perf_counter() - start > HARD_CAP_S:
            return


def check_golden(lib, workload: str, results: Results) -> None:
    for argv, want_rc, want_out in golden.cases(workload):
        label = "golden " + " ".join(argv)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = lib.cli.main(golden.resolve(argv))
        except Exception:  # reported as a failed golden case
            results.add(label, traceback.format_exc().strip().splitlines()[-1])
            continue
        same = rc == want_rc and buf.getvalue() == want_out
        results.add(label, None if same else f"report differs from the one recorded (exit {rc})")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(results: Results, setup_samples: List[Sample]) -> dict:
    lat = normalized(results.samples)
    busy = sum(normalized(results.timed_ops))
    return {
        "ops_per_s": (len(results.samples) / busy if busy else 0.0, "1/s"),
        "latency_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else 0.0, "s"),
        "verified_ratio": ((results.attempted - len(results.failures)) / results.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (statistics.median(normalized(setup_samples)), "s"),
    }


def collect(lib, op_sets, seed: int, seconds: float, trace: bool, results: Results,
            setup_samples: List[Sample], trace_path: Path, min_ops: int = MIN_OPS) -> dict:
    """Run the measured part; return ``{metric: (value, unit)}``.

    Untraced: whole passes for ``seconds`` (at least ``min_ops`` operations),
    end-to-end metrics.  Traced: one untraced and one traced pass of the first
    input set in the same order, per-layer metrics, spans written to
    ``trace_path``."""
    if not trace:
        measure(lib, op_sets, seed, seconds, results, min_ops)
        return end_to_end(results, setup_samples)
    ops = op_sets[0]
    order_seed = f"order:{seed}:0"
    untraced = run_pass(lib, ops, order_seed, results)
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        traced = run_pass(lib, ops, order_seed, results, tracer)
    finally:
        tracer.uninstall()
    order = list(ops)
    random.Random(order_seed).shuffle(order)
    tracer.dump(trace_path, [op.label for op in order])
    ratio = sum(normalized(traced)) / sum(normalized(untraced))
    scale = sum(normalized(traced)) / sum(s.seconds for s in traced)
    values = tracer.metrics(sum(op.nbytes for op in ops), ratio, scale)
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER}


def describe(ops) -> str:
    return "; ".join(f"{k} x{v}" for k, v in sorted(Counter(op.label for op in ops).items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opfield").is_dir():
        sys.exit(f"no opfield package under {ROOT / 'src'}: run from a checkout of the repository")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = Results()
    try:
        lib, op_sets, setup_samples = setup(args.workload, args.seed, workdir, results)
        print(f"# {args.workload} seed {args.seed}: one pass = {len(op_sets[0])} operations: "
              f"{describe(op_sets[0])}")
        check_golden(lib, args.workload, results)
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        metrics = collect(lib, op_sets, args.seed, args.seconds, bool(args.trace), results,
                          setup_samples, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    by_label: Dict[str, List[Sample]] = {}
    for sample in results.samples:
        by_label.setdefault(sample.label, []).append(sample)
    print(f"# probe median {statistics.median(results.probes) * 1e3:.2f} ms, "
          f"reference {REFERENCE_PROBE_S * 1e3:.2f} ms")
    print("#  normalized   wall-clock  (median seconds)   count  operation")
    for label, samples in sorted(by_label.items()):
        print(f"# {statistics.median(normalized(samples)):10.4f}  "
              f"{statistics.median(s.seconds for s in samples):10.4f}  {len(samples):22d}  {label}")
    for failure in results.failures:
        print(f"# FAILED {failure}")
    print(f"# {len(results.samples)} timed operations, {results.attempted} attempted "
          f"(including {len(golden.cases(args.workload))} untimed golden reports), "
          f"{len(results.failures)} failed")
    print(json.dumps({
        "correct": not results.failures,
        "attempted": results.attempted,
        "failed": len(results.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if results.failures else 0


if __name__ == "__main__":
    sys.exit(main())
