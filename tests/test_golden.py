"""Every recorded report in ``bench/golden.json`` replays byte for byte.

Each case runs through ``opfield.cli.main`` with its data paths resolved
against the repository root, as ``bench/golden.py`` does, and must give the
recorded exit code and standard output.  The bench files are only read.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from opfield.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA_PREFIX = "src/opfield/data/"
CASES = [(workload, case)
         for workload, cases in sorted(json.loads((ROOT / "bench" / "golden.json").read_text()).items())
         for case in cases]


@pytest.mark.parametrize("workload,case", CASES,
                         ids=[f"{w}:{' '.join(c['argv'])}" for w, c in CASES])
def test_golden_report_replays(workload, case):
    argv = [str(ROOT / a) if a.startswith(DATA_PREFIX) else a for a in case["argv"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert (rc, buf.getvalue()) == (case["exit"], case["stdout"])
