"""Answers known without running opfield, and the checks that compare reports to them.

Everything here is computed from the input documents with elementary
combinatorics, so a defect in the library cannot make its own report look
right:

* the Chern-Simons complex of a surface has one generator per triangle
  (degree -1), per interior edge (degree 0) and per interior vertex (degree +1);
* its homology is relative cohomology H^(1-d)(M, bd M), whose Betti numbers
  follow from the Euler characteristic and the number of boundary circles;
* a PBW filtration stage of a CCR algebra has the dimensions of the truncated
  graded-symmetric algebra Sym^{<=n} V (polynomial on even generators,
  exterior on odd ones), and its homology is Sym^{<=n} H(V) in characteristic 0.

A check returns ``None`` when the report is right and a short reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

Check = Callable[[int, str], Optional[str]]


# -- surfaces -------------------------------------------------------------------

def _edges(triangles) -> set:
    return {frozenset((t[i], t[(i + 1) % 3])) for t in triangles for i in range(3)}


def generator_dims(surface: dict) -> Dict[int, int]:
    """Dimensions of the relative-cochain complex by degree (zeros dropped)."""
    edges = _edges(surface["triangles"])
    boundary = {frozenset(e) for e in surface.get("boundary_edges", [])}
    boundary_vertices = {v for e in boundary for v in e}
    dims = {-1: len(surface["triangles"]),
            0: len(edges - boundary),
            1: surface["vertices"] - len(boundary_vertices)}
    return {d: k for d, k in dims.items() if k}


def boundary_circles(surface: dict) -> int:
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for a, b in surface.get("boundary_edges", []):
        parent[find(a)] = find(b)
    return len({find(v) for v in parent})


def betti(surface: dict) -> Dict[int, int]:
    """Relative Betti numbers of a connected oriented surface, by CS degree.

    Degree d carries H^(1-d)(M, bd M): H^2 = 1; H^1 = 2g + b - 1 with boundary,
    2g without; H^0 = 1 only for a closed surface.
    """
    faces = len(surface["triangles"])
    edges = len(_edges(surface["triangles"]))
    chi = surface["vertices"] - edges + faces
    b = boundary_circles(surface)
    genus = (2 - b - chi) // 2
    return {-1: 1, 0: 2 * genus + max(b - 1, 0), 1: 0 if b else 1}


# -- truncated graded-symmetric algebras --------------------------------------

def sym_counts_by_length(degrees: Dict[int, int], n: int) -> Dict[tuple, int]:
    """Number of graded-symmetric monomials keyed by (length, degree), length <= n."""
    counts = {(0, 0): 1}
    for deg, k in sorted(degrees.items()):
        for _ in range(k):
            new = dict(counts)
            for (length, d), c in counts.items():
                top = 1 if deg % 2 else n - length
                for m in range(1, min(top, n - length) + 1):
                    key = (length + m, d + m * deg)
                    new[key] = new.get(key, 0) + c
            counts = new
    return counts


def sym_dims(degrees: Dict[int, int], n: int) -> Dict[int, int]:
    """Per-degree dimension of Sym^{<=n} on generators with the given degrees."""
    out: Dict[int, int] = {}
    for (_, d), c in sym_counts_by_length(degrees, n).items():
        out[d] = out.get(d, 0) + c
    return {d: c for d, c in out.items() if c}


def algebra_generator_dims(algebra: dict) -> Dict[int, int]:
    """Carrier dimensions of a unital algebra document minus its unit direction."""
    dims = {int(d): int(k) for d, k in algebra["carrier"]["dims"].items()}
    offset, unit_index = 0, int(algebra["unit"][0][0])
    for d in sorted(dims):
        if offset <= unit_index < offset + dims[d]:
            dims[d] -= 1
            break
        offset += dims[d]
    return {d: k for d, k in dims.items() if k}


def _keyed(dims: Dict[int, int]) -> Dict[str, int]:
    return {str(d): c for d, c in sorted(dims.items())}


# -- report checks ----------------------------------------------------------------

def _parse(rc: int, text: str, want_rc: int):
    if rc != want_rc:
        return None, f"exit code {rc}, expected {want_rc}: {text[:200]!r}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"report is not JSON: {exc}"


def expect_equal(want_rc: int, want: dict) -> Check:
    def check(rc: int, text: str) -> Optional[str]:
        doc, err = _parse(rc, text, want_rc)
        if err:
            return err
        if doc != want:
            return f"report {json.dumps(doc, sort_keys=True)[:300]} != expected {json.dumps(want, sort_keys=True)[:300]}"
        return None
    return check


def cs_quantize(surface: dict, n: int) -> Check:
    stage = sym_dims(generator_dims(surface), n)
    homology = sym_dims(betti(surface), n)
    return expect_equal(0, {
        "truncation": n,
        "stage_dims": _keyed(stage),
        "homology": {str(d): homology.get(d, 0) for d in sorted(stage)},
    })


def stage_homology(surface: dict, n: int, degree: Optional[int]) -> Check:
    """``homology STAGE [--degree k]`` on the serialized CCR stage of ``surface``."""
    stage = sym_dims(generator_dims(surface), n)
    homology = sym_dims(betti(surface), n)
    degrees = sorted(stage) if degree is None else [degree]
    return expect_equal(0, {"homology": {str(d): homology.get(d, 0) for d in degrees}})


def _rank(rows: List[List[Fraction]]) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cs_pairing(surface: dict) -> Check:
    """The pairing report: cochain dimensions, graded antisymmetry of omega, and
    a homology pairing of the right shape whose even block has rank 2g and whose
    degree (1, -1) block is nonzero exactly for closed surfaces (Poincare-Lefschetz
    duality)."""
    dims = generator_dims(surface)
    h = betti(surface)
    genus2 = h[0] - max(boundary_circles(surface) - 1, 0)

    def check(rc: int, text: str) -> Optional[str]:
        doc, err = _parse(rc, text, 0)
        if err:
            return err
        if doc.get("valid") is not True:
            return "pairing reported invalid"
        carrier = doc["presymplectic"]["carrier"]
        got = {int(d): k for d, k in carrier["dims"].items()}
        if got != dims:
            return f"cochain dims {got} != {dims}"
        degree_of = []
        for d in sorted(got):
            degree_of += [d] * got[d]
        omega = {(i, j): Fraction(v) for i, j, v in doc["presymplectic"]["omega"]}
        for (i, j), v in omega.items():
            sign = -1 if degree_of[i] * degree_of[j] % 2 else 1
            if omega.get((j, i), 0) != -sign * v:
                return f"omega not graded antisymmetric at ({i}, {j})"
        blocks = doc["homology_pairing"]
        want_keys = {f"{d},{-d}" for d in got if d >= 0}
        if set(blocks) != want_keys:
            return f"pairing blocks {sorted(blocks)} != {sorted(want_keys)}"
        for key, matrix in blocks.items():
            a, b = (int(x) for x in key.split(","))
            if len(matrix) != h.get(a, 0) or any(len(r) != h.get(b, 0) for r in matrix):
                return f"block {key} has the wrong shape"
        even = [[Fraction(x) for x in row] for row in blocks.get("0,0", [])]
        if any(even[i][j] != -even[j][i] for i in range(len(even)) for j in range(len(even))):
            return "degree-0 homology pairing is not antisymmetric"
        if _rank(even) != genus2:
            return f"degree-0 homology pairing has rank {_rank(even)}, expected {genus2}"
        top = [[Fraction(x) for x in row] for row in blocks.get("1,-1", [])]
        if _rank(top) != h[1]:
            return "degree (1,-1) homology pairing has the wrong rank"
        return None
    return check


def theory_quantize(generators: Dict[str, Dict[int, int]], n: int) -> Check:
    return expect_equal(0, {
        "truncation": n,
        "causality": "ok",
        "stage_dims": {obj: _keyed(sym_dims(g, n)) for obj, g in sorted(generators.items())},
    })


def rejected(want_type: str, reason: Optional[str] = None) -> Check:
    """``validate`` must exit 1 with issues (and one naming ``reason``, if given)."""
    def check(rc: int, text: str) -> Optional[str]:
        doc, err = _parse(rc, text, 1)
        if err:
            return err
        if doc.get("type") != want_type or doc.get("valid") is not False or not doc.get("issues"):
            return f"expected an invalid {want_type} with issues, got {text[:200]!r}"
        if reason and not any(reason in issue for issue in doc["issues"]):
            return f"no issue mentions {reason!r}"
        return None
    return check


def w_fails_at_stage(morphisms: Sequence[str], stage: int) -> Check:
    def check(rc: int, text: str) -> Optional[str]:
        doc, err = _parse(rc, text, 1)
        if err:
            return err
        reports = doc.get("reports", [])
        if doc.get("mode") != "homotopy" or [r.get("morphism") for r in reports] != list(morphisms):
            return f"unexpected W report {text[:200]!r}"
        for r in reports:
            if r["ok"] is not False or not r["witness"].startswith(f"stage {stage}: "):
                return f"{r['morphism']} should fail at stage {stage}: {r!r}"
        return None
    return check
