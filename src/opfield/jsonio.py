"""JSON formats for complexes, algebras, pairings, surfaces and theories.

All rationals serialize as strings ``"p/q"`` (or ``"p"`` for integers); keys
are written sorted so emitted documents are byte-stable.  Every document this
module emits re-parses to an equal value.

Formats:

* complex:       ``{"dims": {"-1": 3}, "d": {"0": [[r, c, "p/q"], ...]}}``
  where key ``"n"`` holds the matrix of ``d_n`` (degree n to n-1) as sparse
  triplets.
* algebra:       ``{"kind": "uLie", "carrier": <complex>,
  "bracket": [[i, j, k, "p/q"], ...], "unit": [[k, "p/q"], ...]}`` with
  tensors indexed against the carrier's per-degree bases flattened in degree
  order (inputs first, output last); associative algebras use ``"mu"``,
  Poisson algebras additionally ``"pbracket"``.
* presymplectic: ``{"carrier": <complex>, "omega": [[i, j, "p/q"], ...]}``.
* surface:       ``{"vertices": n, "vertex_order": [...],
  "triangles": [[a, b, c], ...], "boundary_edges": [[a, b], ...]}``.
* theory:        ``{"kind": "uLie", "objects": [...],
  "morphisms": [{"name", "src", "tgt"}], "compose": [["g", "f", "gf"], ...],
  "orth": [["f1", "f2"], ...], "algebras": {obj: <algebra>},
  "actions": {morph: {"0": [[r, c, "p/q"], ...]}}}``.
"""

from __future__ import annotations

import json
import re
from math import gcd, lcm
from typing import Dict, Tuple

from . import operads
from .algebras import DgAlgebra, PresymplecticComplex, check_index
from .cherns import TriangulatedSurface
from .complexes import ChainComplex, ChainMap
from .errors import StructuralError
from .exact import RationalMatrix, rat, rat_str
from .fieldtheory import FieldTheory, OrthCategory

_TENSOR_KEYS = {
    operads.MU: "mu",
    operads.BRACKET: "bracket",
    operads.PBRACKET: "pbracket",
    operads.ETA: "unit",
}
_TENSOR_NAMES = {v: k for k, v in _TENSOR_KEYS.items()}


def matrix_to_triplets(m: RationalMatrix) -> list:
    out = []
    for (r, c), v in sorted(m._num.items()):
        g = gcd(v, m._den)
        out.append([r, c, str(v // g) if g == m._den else f"{v // g}/{m._den // g}"])
    return out


def _index(value) -> int:
    """An index given as a JSON integer or its string form; floats and
    ``true``/``false`` (whose type is bool, not int) are refused."""
    if type(value) is not int and type(value) is not str:
        raise TypeError(f"index {value!r} is not an integer")
    return int(value)


def _repeated(where: str, rows: list, i: int, key: tuple) -> StructuralError:
    """The error for row ``i`` giving the entry ``key`` (its indices, the
    value left out) that an earlier row gives, naming both rows."""
    given = next(j for j, row in enumerate(rows) if tuple(map(_index, row[:-1])) == key)
    return StructuralError(f"{where}[{i}]: entry ({', '.join(map(str, key))}) "
                           f"is already given by {where}[{given}]")


def _listed(doc: dict, key: str, where: str = "") -> list:
    """``doc[key]``, empty when absent, checked to be a list."""
    rows = doc.get(key, [])
    if not isinstance(rows, list):
        raise StructuralError(f"{where}{key}: expected a list")
    return rows


_NOUNS = {str: "names", int: "integers"}


def _tuples(doc: dict, key: str, size: int, kind: type = str) -> list:
    """``doc[key]``, empty when absent, checked to be a list of lists of
    ``size`` values of type ``kind`` (a bool is not an int)."""
    rows = _listed(doc, key)
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == size
                and all(type(x) is kind for x in row)):
            raise StructuralError(f"{key}[{i}]: expected a list of {size} {_NOUNS[kind]}")
    return rows


_DEGREE = re.compile(r"-?[0-9]+")


def _degrees(obj, path: str) -> list:
    """``(n, path.key, value)`` for each entry of an object keyed by degree."""
    if not isinstance(obj, dict):
        raise StructuralError(f"{path}: expected an object keyed by degree")
    first = {}
    out = []
    for key, value in obj.items():
        if not _DEGREE.fullmatch(key):
            raise StructuralError(f"{path}.{key}: degree {key!r} is not an integer")
        n = int(key)
        given = first.setdefault(n, key)
        if given != key:
            raise StructuralError(f"{path}.{key}: degree {n} is already given by {path}.{given}")
        out.append((n, f"{path}.{key}", value))
    return out


# "p" or "p/q" in ASCII digits, q nonzero: read as ints, every other value by ``rat``
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?").fullmatch


def matrix_from_triplets(rows: int, cols: int, triplets, where: str) -> RationalMatrix:
    """Parse ``[row, col, "p/q"]`` triplets; errors name ``where[i]``."""
    if not isinstance(triplets, list):
        raise StructuralError(f"{where}: expected a list of [row, col, value] triplets")
    entries = {}
    for i, triplet in enumerate(triplets):
        try:
            r, c, v = triplet
            key = (_index(r), _index(c))
            plain = type(v) is str and _PLAIN(v)
            value = (int(plain[1]), int(plain[2] or 1)) if plain else rat(v).as_integer_ratio()
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"{where}[{i}]: {exc}") from None
        if not (0 <= key[0] < rows and 0 <= key[1] < cols):
            raise StructuralError(
                f"{where}[{i}]: entry index {key} out of range for {rows}x{cols}")
        if key in entries:
            raise _repeated(where, triplets, i, key)
        entries[key] = value
    den = lcm(*(q for _, q in entries.values()))
    return RationalMatrix._from_ints(
        rows, cols, {k: p * (den // q) for k, (p, q) in entries.items() if p}, den)


def complex_to_json(c: ChainComplex) -> dict:
    return {
        "dims": {str(n): d for n, d in sorted(c.dims.items())},
        "d": {str(n): matrix_to_triplets(m) for n, m in sorted(c.diffs.items())},
    }


def complex_from_json(doc: dict, where: str = "") -> ChainComplex:
    if not isinstance(doc, dict) or "dims" not in doc:
        prefix = f"{where[:-1]}: " if where else ""
        raise StructuralError(f"{prefix}complex document needs a 'dims' field")
    dims = {}
    for n, path, d in _degrees(doc["dims"], f"{where}dims"):
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise StructuralError(f"{path}: dimension {d!r} is not a nonnegative integer")
        dims[n] = d
    diffs = {}
    for n, path, triplets in _degrees(doc.get("d", {}), f"{where}d"):
        diffs[n] = matrix_from_triplets(dims.get(n - 1, 0), dims.get(n, 0), triplets, path)
    return ChainComplex(dims, diffs)


def algebra_to_json(a: DgAlgebra) -> dict:
    doc = {"kind": a.kind, "carrier": complex_to_json(a.carrier)}
    for gen in a.presentation.alphabet.generators:
        key = _TENSOR_KEYS[gen.name]
        tensor = a.structure[gen.name]
        if gen.arity == 0:
            doc[key] = [[i, rat_str(v)] for i, v in sorted(tensor.items())]
        else:
            rows = []
            for idx, cell in sorted(tensor.items()):
                for out, v in sorted(cell.items()):
                    rows.append(list(idx) + [out, rat_str(v)])
            doc[key] = rows
    return doc


def algebra_from_json(doc: dict, where: str = "") -> DgAlgebra:
    for field in ("kind", "carrier"):
        if not isinstance(doc, dict) or field not in doc:
            prefix = f"{where[:-1]}: " if where else ""
            raise StructuralError(f"{prefix}algebra document needs a {field!r} field")
    kind = doc["kind"]
    carrier = complex_from_json(doc["carrier"], f"{where}carrier.")
    presentation = operads.named_presentation(kind)
    total = carrier.total_dim()
    structure = {}
    for gen in presentation.alphabet.generators:
        key = _TENSOR_KEYS[gen.name]
        tensor: Dict[Tuple[int, ...], dict] = {}
        for r, row in enumerate(_listed(doc, key, where)):
            try:
                *idx, out, v = row
                idx, out, value = tuple(_index(i) for i in idx), _index(out), rat(v)
                if len(idx) != gen.arity:
                    raise StructuralError(f"{len(idx)} inputs, expected {gen.arity}")
                for i in idx:
                    check_index(i, total, "input")
                check_index(out, total, "output")
            except (TypeError, ValueError, ZeroDivisionError, StructuralError) as exc:
                raise StructuralError(f"{where}{key}[{r}]: {exc}") from None
            cell = tensor.setdefault(idx, {})
            if out in cell:
                raise _repeated(f"{where}{key}", doc[key], r, idx + (out,))
            cell[out] = value
        structure[gen.name] = tensor.get((), {}) if gen.arity == 0 else tensor
    return DgAlgebra(carrier, kind, structure)


def presymplectic_to_json(p: PresymplecticComplex) -> dict:
    return {
        "carrier": complex_to_json(p.carrier),
        "omega": [[i, j, rat_str(v)] for (i, j), v in sorted(p.omega.items())],
    }


def presymplectic_from_json(doc: dict) -> PresymplecticComplex:
    if "carrier" not in doc or "omega" not in doc:
        raise StructuralError("presymplectic document needs 'carrier' and 'omega' fields")
    carrier = complex_from_json(doc["carrier"], "carrier.")
    omega = {}
    for r, row in enumerate(_listed(doc, "omega")):
        try:
            i, j, v = row
            key, value = (_index(i), _index(j)), rat(v)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"omega[{r}]: {exc}") from None
        if key in omega:
            raise _repeated("omega", doc["omega"], r, key)
        omega[key] = value
    return PresymplecticComplex(carrier, omega)


def surface_to_json(s: TriangulatedSurface) -> dict:
    return {
        "vertices": s.n_vertices,
        "vertex_order": list(s.vertex_order),
        "triangles": [list(t) for t in s.triangles],
        "boundary_edges": sorted(sorted(e) for e in s.boundary_edge_set),
    }


def surface_from_json(doc: dict) -> TriangulatedSurface:
    if "vertices" not in doc or "triangles" not in doc:
        raise StructuralError("surface document needs 'vertices' and 'triangles' fields")
    if type(doc["vertices"]) is not int:
        raise StructuralError("vertices: expected an integer")
    if doc["vertices"] < 0:
        raise StructuralError("vertices: expected a nonnegative integer")
    order = doc.get("vertex_order")
    if order is not None and not (isinstance(order, list) and all(type(v) is int for v in order)):
        raise StructuralError("vertex_order: expected a list of integers")
    return TriangulatedSurface(
        doc["vertices"],
        [tuple(t) for t in _tuples(doc, "triangles", 3, int)],
        boundary_edges=[tuple(e) for e in _tuples(doc, "boundary_edges", 2, int)],
        vertex_order=order,
    )


def chain_map_components_to_json(f: ChainMap) -> dict:
    return {str(n): matrix_to_triplets(m) for n, m in sorted(f.components.items())}


def theory_to_json(ft: FieldTheory) -> dict:
    if ft.truncation is not None:
        raise StructuralError("quantized theories are reported, not serialized")
    cat = ft.base
    morphisms = [
        {"name": m, "src": src, "tgt": tgt}
        for m, (src, tgt) in sorted(cat.morphisms.items())
        if not cat.is_identity(m)
    ]
    return {
        "kind": ft.kind,
        "objects": sorted(cat.objects),
        "morphisms": morphisms,
        "compose": sorted([g, f, gf] for (g, f), gf in cat._compose.items()),
        "orth": sorted([f1, f2] for f1, f2 in cat.orth),
        "algebras": {obj: algebra_to_json(ft.algebra(obj)) for obj in sorted(cat.objects)},
        "actions": {
            m: chain_map_components_to_json(ft.action[m])
            for m in sorted(cat.morphisms)
            if not cat.is_identity(m)
        },
    }


def theory_from_json(doc: dict) -> FieldTheory:
    for field in ("kind", "objects", "algebras"):
        if field not in doc:
            raise StructuralError(f"theory document needs a {field!r} field")
    objects = _listed(doc, "objects")
    if not all(isinstance(obj, str) for obj in objects):
        raise StructuralError("objects: expected a list of names")
    morphisms = {}
    for i, m in enumerate(_listed(doc, "morphisms")):
        if not (isinstance(m, dict) and all(isinstance(m.get(k), str) for k in ("name", "src", "tgt"))):
            raise StructuralError(f"morphisms[{i}]: expected an object with names "
                                  "'name', 'src' and 'tgt'")
        morphisms[m["name"]] = (m["src"], m["tgt"])
    compose = {(g, f): gf for g, f, gf in _tuples(doc, "compose", 3)}
    cat = OrthCategory(objects, morphisms, compose,
                       orth=[(f1, f2) for f1, f2 in _tuples(doc, "orth", 2)])
    for field in ("algebras", "actions"):
        if not isinstance(doc.get(field, {}), dict):
            raise StructuralError(f"{field}: expected an object keyed by name")
    algebras = {obj: algebra_from_json(adoc, f"algebras.{obj}.")
                for obj, adoc in doc["algebras"].items()}
    actions = {}
    for m, comps in doc.get("actions", {}).items():
        if m not in cat.morphisms:
            raise StructuralError(f"actions.{m}: no such morphism")
        src, tgt = cat.morphisms[m]
        for obj in (src, tgt):
            if obj not in algebras:
                raise StructuralError(f"actions.{m}: object {obj!r} has no algebra")
        a, b = algebras[src], algebras[tgt]
        components = {}
        for n, path, triplets in _degrees(comps, f"actions.{m}"):
            components[n] = matrix_from_triplets(b.carrier.dim(n), a.carrier.dim(n), triplets,
                                                 path)
        actions[m] = ChainMap(a.carrier, b.carrier, components)
    return FieldTheory(cat, doc["kind"], algebras, actions)


def sniff_type(doc: dict) -> str:
    """Classify a parsed JSON document by its top-level fields."""
    if "triangles" in doc:
        return "surface"
    if "objects" in doc and "algebras" in doc:
        return "theory"
    if "omega" in doc:
        return "presymplectic"
    if "kind" in doc and "carrier" in doc:
        return "algebra"
    if "dims" in doc:
        return "complex"
    raise StructuralError("cannot determine document type from its fields")


def dumps(obj: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
