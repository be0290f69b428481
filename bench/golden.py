"""Reports of the shipped examples, recorded byte for byte.

Identical input must give byte-identical reports, so each run replays the
cases of its workload on the shipped data files (at their own vertex order)
and compares exit code and standard output with ``golden.json``.  The cases
are untimed.  ``python3 bench/golden.py`` re-records the file from the
current checkout; do that only when a report is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from typing import List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
D = "src/opfield/data/"
SURFACES = ["annulus2", "annulus3", "disk1", "tetra_sphere", "torus9"]

CASES = {
    "cs_quantize": [["cs", "quantize", f"{D}{s}.json", "--n", "2"] for s in SURFACES]
    + [["cs", "quantize", f"{D}annulus2.json", "--n", "3"]],
    "cs_classes": [["cs", verb, f"{D}{s}.json"] for s in SURFACES for verb in ("homology", "pairing")]
    + [["homology", f"{D}circle_complex.json"],
       ["homology", f"{D}circle_complex.json", "--degree", "1"],
       ["check-w", f"{D}toy3_theory.json", "--mode", "homotopy", "--w", "f1,f2", "--n", "3"],
       ["check-w", f"{D}toy3_theory.json", "--mode", "strict", "--w", "id_c,f1"]],
    "theory_checks": [["validate", str(p.relative_to(ROOT))]
                      for p in sorted((ROOT / D).glob("*.json"))]
    + [["check-causality", f"{D}toy3_theory.json"],
       ["quantize", f"{D}toy3_theory.json", "--n", "3"],
       ["ccr", f"{D}plane_presymplectic.json", "--n", "3"],
       ["envelope-dims", "--algebra", f"{D}abelian_line_algebra.json", "--n", "4"]],
}


def resolve(argv: List[str]) -> List[str]:
    return [str(ROOT / a) if a.startswith(D) else a for a in argv]


def cases(workload: str) -> List[Tuple[List[str], int, str]]:
    recorded = json.loads(GOLDEN.read_text())
    return [(c["argv"], c["exit"], c["stdout"]) for c in recorded[workload]]


def record() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from opfield.cli import main

    out = {}
    for workload, argvs in CASES.items():
        out[workload] = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(resolve(argv))
            out[workload].append({"argv": argv, "exit": rc, "stdout": buf.getvalue()})
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
