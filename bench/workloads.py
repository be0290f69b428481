"""Seeded input generator and operation lists for the three workloads.

A workload is one pass: a fixed multiset of CLI operations.  The seed picks
the vertex order of every surface (one fresh order per operation instance)
and, in ``run.py``, the order of operations in each pass; it never changes
the mix.  The library only ever sees the files written here, and each
operation carries its expected answer from :mod:`oracle`, which never calls
the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

import oracle

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "opfield" / "data"

WORKLOADS = ("cs_quantize", "cs_classes", "theory_checks")


@dataclass
class Op:
    label: str                        # operation kind, e.g. "cs quantize torus9 --n 2"
    argv: List[str]                   # arguments for opfield.cli.main
    check: oracle.Check               # compares (exit code, report) with the known answer
    nbytes: int                       # bytes of input documents the operation parses


# -- surfaces (built here, not by the library) -------------------------------

def _shipped(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


def band_annulus(rings: int) -> dict:
    """Annulus of ``rings`` concentric 3-vertex rings (the library's band_annulus)."""
    tris = []
    for i in range(rings - 1):
        for j in range(3):
            v, r = 3 * i + j, 3 * i + (j + 1) % 3
            d, dr = 3 * (i + 1) + j, 3 * (i + 1) + (j + 1) % 3
            tris += [[v, r, dr], [v, dr, d]]
    last = 3 * (rings - 1)
    boundary = [[j, (j + 1) % 3] for j in range(3)] + \
        [[last + j, last + (j + 1) % 3] for j in range(3)]
    return {"vertices": 3 * rings, "triangles": tris, "boundary_edges": boundary}


OCTAHEDRON = {"vertices": 6, "boundary_edges": [], "triangles": [
    [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1], [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]]}
DISK = {"vertices": 3, "triangles": [[0, 1, 2]], "boundary_edges": [[0, 1], [1, 2], [0, 2]]}

# Large-annulus vertex order for the incompatible collar.  For this order
# `validate` accepts only two small-annulus orders, the restriction of this one
# and its reverse (all 720 were tried); every other order gives a theory whose
# action does not intertwine the brackets, although build_bcs accepts it.
INCOMPATIBLE_LARGE_ORDER = [1, 6, 7, 4, 0, 8, 3, 2, 5]


def surfaces() -> Dict[str, dict]:
    return {
        "annulus2": _shipped("annulus2"),
        "annulus3": _shipped("annulus3"),
        "tetra": _shipped("tetra_sphere"),
        "torus9": _shipped("torus9"),
        "band4": band_annulus(4),
        "octa": OCTAHEDRON,
    }


def with_order(surface: dict, order: List[int]) -> dict:
    doc = {k: v for k, v in surface.items() if k != "vertex_order"}
    doc["vertex_order"] = list(order)
    return doc


class Generator:
    """Writes one workload's input files into ``workdir``."""

    def __init__(self, lib, seed: int, workdir: Path, workload: str, input_set: int):
        self.lib = lib
        self.rng = random.Random(f"{workload}:{seed}:{input_set}")
        self.workdir = workdir
        self.surfaces = surfaces()
        self.count = 0
        workdir.mkdir(parents=True, exist_ok=True)

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:03d}-{stem}.json"
        path.write_text(text)
        return str(path)

    def ordered(self, name: str) -> dict:
        s = self.surfaces[name]
        return with_order(s, self.rng.sample(range(s["vertices"]), s["vertices"]))

    def surface_file(self, name: str, surface: dict) -> str:
        return self.write(name, json.dumps(surface, sort_keys=True))

    # library-built inputs -------------------------------------------------------
    def _surface_obj(self, surface: dict):
        return self.lib.jsonio.surface_from_json(surface)

    def stage_file(self, name: str, surface: dict, n: int) -> str:
        lib = self.lib
        stage = lib.envelope.ccr(lib.cherns.pairing(self._surface_obj(surface)), n).stage_complex()
        return self.write(f"stage-{name}-n{n}", lib.jsonio.dumps(lib.jsonio.complex_to_json(stage)))

    def heisenberg_doc(self, surface: dict) -> dict:
        lib = self.lib
        return lib.jsonio.algebra_to_json(
            lib.algebras.heisenberg(lib.cherns.pairing(self._surface_obj(surface))))

    def theory_file(self, stem: str, surfaces: Dict[str, dict], maps: Dict[str, tuple]) -> str:
        """Chern-Simons theory of a surface diagram; ``maps`` is name -> (src, tgt, vertex map)."""
        lib = self.lib
        objs = {k: self._surface_obj(s) for k, s in surfaces.items()}
        morphisms = {m: (src, tgt, lib.cherns.SurfaceMorphism(objs[src], objs[tgt], vm))
                     for m, (src, tgt, vm) in maps.items()}
        ft = lib.cherns.build_bcs(lib.cherns.SurfaceDiagram(objs, morphisms))
        return self.write(stem, lib.jsonio.dumps(lib.jsonio.theory_to_json(ft)))

    def collar(self, compatible: bool = True):
        """Theory of the inclusion of a 2-ring annulus as the first rings of a 3-ring one.

        A compatible collar orders the small annulus by restricting the large
        order to the image; the incompatible one uses any other order that is
        not its reverse.
        """
        if compatible:
            large_order = self.rng.sample(range(9), 9)
        else:
            large_order = INCOMPATIBLE_LARGE_ORDER
        small_order = [v for v in large_order if v < 6]
        if not compatible:
            forbidden = (small_order, small_order[::-1])
            while small_order in forbidden:
                small_order = self.rng.sample(range(6), 6)
        small = with_order(band_annulus(2), small_order)
        large = with_order(band_annulus(3), large_order)
        path = self.theory_file("collar" if compatible else "collar-incompatible",
                                {"small": small, "large": large},
                                {"collar": ("small", "large", list(range(6)))})
        gens = {"small": oracle.generator_dims(small), "large": oracle.generator_dims(large)}
        return path, gens

    def two_disks(self):
        """Two disjoint triangles in the octahedron, with vertex orders
        compatible along both inclusions."""
        disk_order = self.rng.sample(range(3), 3)
        f1 = [0, 1, 2]
        f2 = self.rng.choice([[5, 4, 3], [4, 3, 5], [3, 5, 4]])  # rotations of one triangle
        octa_order = self.rng.sample(range(6), 6)
        for image in (f1, f2):
            slots = sorted(octa_order.index(v) for v in image)
            for slot, d in zip(slots, disk_order):
                octa_order[slot] = image[d]
        disk = with_order(DISK, disk_order)
        octa = with_order(OCTAHEDRON, octa_order)
        path = self.theory_file("two-disks", {"disk": disk, "sphere": octa},
                                {"f1": ("disk", "sphere", f1), "f2": ("disk", "sphere", f2)})
        gens = {"disk": oracle.generator_dims(disk), "sphere": oracle.generator_dims(octa)}
        return path, gens

    def toy3(self) -> str:
        return self.write("toy3", (DATA / "toy3_theory.json").read_text())


def _size(path: str) -> int:
    return Path(path).stat().st_size


# -- the workloads -------------------------------------------------------------------
#
# Multiplicities keep every listed kind in every pass while a pass of at
# least 50 operations stays near 6-13 s, so two passes make a run of over
# 100 operations that fits the time budget even on a machine running at half
# speed, and they put the
# median and the 90th percentile inside a group of similar operations with
# several instances rather than on the gap between two kinds (README.md).

CS_QUANTIZE_MIX = [("annulus2", 3, 20), ("annulus2", 4, 5), ("annulus3", 2, 12),
                   ("band4", 2, 6), ("tetra", 3, 6), ("torus9", 2, 2)]


def cs_quantize(g: Generator) -> List[Op]:
    ops = []
    for name, n, count in CS_QUANTIZE_MIX:
        for _ in range(count):
            s = g.ordered(name)
            path = g.surface_file(name, s)
            ops.append(Op(f"cs quantize {name} --n {n}", ["cs", "quantize", path, "--n", str(n)],
                          oracle.cs_quantize(s, n), _size(path)))
    return ops


# (surface, truncation, degrees asked for (None: all), stage files per pass).
# The torus9 queries take half of a pass and their cost depends on the vertex
# order, so each gets a stage file of its own: six drawn orders a run, not two.
CS_STAGE_MIX = [("torus9", 2, (-1,), 1), ("torus9", 2, (1,), 1), ("torus9", 2, (None,), 1),
                ("tetra", 3, (-1, 0, 1, None), 2), ("annulus3", 2, (-1, 0, None), 2),
                ("annulus2", 3, (-1, 0, None), 2)]
CS_PAIRING_MIX = [("torus9", 7), ("tetra", 4), ("octa", 4), ("annulus2", 4), ("annulus3", 4),
                  ("band4", 2)]
COLLAR_W_COUNT = 1
TOY3_W_COUNT = 2


def cs_classes(g: Generator) -> List[Op]:
    ops = []
    for name, n, degrees, files in CS_STAGE_MIX:
        for _ in range(files):
            s = g.ordered(name)
            path = g.stage_file(name, s, n)
            for k in degrees:
                argv = ["homology", path] + ([] if k is None else ["--degree", str(k)])
                label = f"homology {name}-stage-n{n}" + ("" if k is None else f" --degree {k}")
                ops.append(Op(label, argv, oracle.stage_homology(s, n, k), _size(path)))
    for name, count in CS_PAIRING_MIX:
        for _ in range(count):
            s = g.ordered(name)
            path = g.surface_file(name, s)
            ops.append(Op(f"cs pairing {name}", ["cs", "pairing", path],
                          oracle.cs_pairing(s), _size(path)))
    for _ in range(COLLAR_W_COUNT):
        path, _ = g.collar()
        ops.append(Op("check-w collar --mode homotopy --n 2",
                      ["check-w", path, "--mode", "homotopy", "--w", "collar", "--n", "2"],
                      oracle.expect_equal(0, {"mode": "homotopy", "reports": [
                          {"morphism": "collar", "ok": True, "witness": ""}]}),
                      _size(path)))
    toy3 = g.toy3()
    for _ in range(TOY3_W_COUNT):
        ops.append(Op("check-w toy3 --mode homotopy --n 3",
                      ["check-w", toy3, "--mode", "homotopy", "--w", "f1,f2", "--n", "3"],
                      oracle.w_fails_at_stage(["f1", "f2"], 1), _size(toy3)))
    return ops


# (surface, valid copies, copies with one bracket coefficient changed)
HEISENBERG_MIX = [("annulus2", 5, 4), ("tetra", 2, 2), ("octa", 2, 2), ("annulus3", 1, 1)]
THEORY_MIX = {"collar validate": 6, "collar quantize 3": 2, "collar-incompatible validate": 6,
              "two-disks check-causality": 8, "two-disks quantize 3": 3,
              "two-disks quantize 4": 1}
TOY3_QUANTIZE_MIX = [(9, 4), (11, 2), (13, 1)]


def _break_bracket(doc: dict, rng: random.Random) -> dict:
    """Change one bracket coefficient (or, if the bracket is zero, add one
    entry without its antisymmetric partner)."""
    doc = json.loads(json.dumps(doc))
    rows = doc["bracket"]
    if rows:
        row = rows[rng.randrange(len(rows))]
        value = Fraction(row[-1]) + 1
        row[-1] = str(value if value else value + 1)
    else:
        unit = doc["unit"][0][0]
        dims = {int(d): k for d, k in doc["carrier"]["dims"].items()}
        start = sum(k for d, k in dims.items() if d < 0)
        i, j = rng.sample([x for x in range(start, start + dims[0]) if x != unit], 2)
        rows.append([i, j, unit, "1"])
    return doc


def theory_checks(g: Generator) -> List[Op]:
    ops = []
    for name, good, bad in HEISENBERG_MIX:
        for broken in [False] * good + [True] * bad:
            doc = g.heisenberg_doc(g.ordered(name))
            if broken:
                doc = _break_bracket(doc, g.rng)
            path = g.write(f"heisenberg-{name}" + ("-changed" if broken else ""),
                           json.dumps(doc, sort_keys=True))
            check = (oracle.rejected("algebra") if broken
                     else oracle.expect_equal(0, {"type": "algebra", "valid": True}))
            ops.append(Op(f"validate heisenberg {name}" + (" changed" if broken else ""),
                          ["validate", path], check, _size(path)))
    valid_theory = oracle.expect_equal(0, {"type": "theory", "valid": True})
    for _ in range(THEORY_MIX["collar validate"]):
        path, _ = g.collar()
        ops.append(Op("validate collar", ["validate", path], valid_theory, _size(path)))
    for _ in range(THEORY_MIX["collar quantize 3"]):
        path, gens = g.collar()
        ops.append(Op("quantize collar --n 3", ["quantize", path, "--n", "3"],
                      oracle.theory_quantize(gens, 3), _size(path)))
    for _ in range(THEORY_MIX["collar-incompatible validate"]):
        path, _ = g.collar(compatible=False)
        ops.append(Op("validate collar-incompatible", ["validate", path],
                      oracle.rejected("theory", "bracket not intertwined"), _size(path)))
    for _ in range(THEORY_MIX["two-disks check-causality"]):
        path, _ = g.two_disks()
        ops.append(Op("check-causality two-disks", ["check-causality", path],
                      oracle.expect_equal(0, {"causality": "ok", "orth_pairs": [["f1", "f2"]]}),
                      _size(path)))
    for n in (3, 4):
        for _ in range(THEORY_MIX[f"two-disks quantize {n}"]):
            path, gens = g.two_disks()
            ops.append(Op(f"quantize two-disks --n {n}", ["quantize", path, "--n", str(n)],
                          oracle.theory_quantize(gens, n), _size(path)))
    toy3 = g.toy3()
    toy3_doc = json.loads(Path(toy3).read_text())
    toy3_gens = {obj: oracle.algebra_generator_dims(a) for obj, a in toy3_doc["algebras"].items()}
    for n, count in TOY3_QUANTIZE_MIX:
        for _ in range(count):
            ops.append(Op(f"quantize toy3 --n {n}", ["quantize", toy3, "--n", str(n)],
                          oracle.theory_quantize(toy3_gens, n), _size(toy3)))
    return ops


BUILDERS: Dict[str, Callable[[Generator], List[Op]]] = {
    "cs_quantize": cs_quantize, "cs_classes": cs_classes, "theory_checks": theory_checks}


def build(workload: str, lib, seed: int, workdir: Path, input_set: int = 0) -> List[Op]:
    """Write the inputs of one pass of ``workload`` and return its operations;
    ``input_set`` numbers independent draws for the same seed."""
    return BUILDERS[workload](Generator(lib, seed, workdir, workload, input_set))
