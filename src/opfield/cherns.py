"""Combinatorial linear Chern-Simons theory on triangulated oriented surfaces.

Compactly supported de Rham complexes are modeled by relative simplicial
cochains of a compact triangulated surface with boundary: degree -1 carries
relative 2-cochains, degree 0 relative 1-cochains, degree +1 relative
0-cochains, with differential the negated simplicial coboundary in both
steps.  The presymplectic pairing is the cup product against the fundamental
cycle, twisted by the degree signs (-1, +1, -1) and explicitly
antisymmetrized (the simplicial cup product is not graded-commutative at
cochain level; antisymmetrization preserves the chain-map property and the
homology-level pairing).

Morphisms are injective simplicial orientation-preserving maps whose image
satisfies the star condition, which is exactly what makes extension by zero
of relative cochains a chain map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .algebras import PresymplecticComplex, heisenberg, heisenberg_map
from .complexes import ChainComplex, ChainMap
from .errors import StructuralError
from .exact import RationalMatrix, _add_into
from .fieldtheory import FieldTheory, OrthCategory, orth_closure, quantize

Edge = Tuple[int, int]
Triangle = Tuple[int, int, int]

_HALF = Fraction(1, 2)


def _perm_sign(seq: Sequence[int]) -> int:
    """Parity of the permutation sorting ``seq``; 0 if entries repeat."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class TriangulatedSurface:
    """Oriented triangulated surface, possibly with boundary.

    ``vertex_order`` fixes the global vertex order used for ordered simplices
    and cup products; it defaults to vertex-id order and is part of the
    input data so results are reproducible.
    """

    def __init__(self, vertices: int, triangles: Sequence[Sequence[int]],
                 boundary_edges: Sequence[Sequence[int]] = (),
                 vertex_order: Optional[Sequence[int]] = None):
        self.n_vertices = int(vertices)
        if vertex_order is None:
            vertex_order = list(range(self.n_vertices))
        if sorted(vertex_order) != list(range(self.n_vertices)):
            raise StructuralError("vertex_order must be a permutation of the vertices")
        self.vertex_order = tuple(vertex_order)
        self._rank = {v: i for i, v in enumerate(self.vertex_order)}
        self.triangles: Tuple[Triangle, ...] = tuple(tuple(t) for t in triangles)
        for t in self.triangles:
            if len(set(t)) != 3 or not all(0 <= v < self.n_vertices for v in t):
                raise StructuralError(f"invalid triangle {t}")
        self.declared_boundary: Set[FrozenSet[int]] = {frozenset(e) for e in boundary_edges}
        self._build()
        self._validate()

    # -- ordered-simplex helpers ------------------------------------------------
    def sort_simplex(self, simplex: Sequence[int]) -> Tuple[int, ...]:
        return tuple(sorted(simplex, key=self._rank.__getitem__))

    def triangle_sign(self, t: Triangle) -> int:
        """+1 when the given orientation agrees with the sorted vertex order."""
        return _perm_sign([self._rank[v] for v in t])

    def _build(self) -> None:
        incident: Dict[FrozenSet[int], List[Triangle]] = {}
        for t in self.triangles:
            for k in range(3):
                e = frozenset((t[k], t[(k + 1) % 3]))
                incident.setdefault(e, []).append(t)
        self.edge_triangles = incident
        self.edges: List[Edge] = sorted(
            (self.sort_simplex(tuple(e)) for e in incident),
            key=lambda e: (self._rank[e[0]], self._rank[e[1]]))
        self.boundary_edge_set: Set[FrozenSet[int]] = {
            e for e, ts in incident.items() if len(ts) == 1}
        self.boundary_vertices: Set[int] = {v for e in self.boundary_edge_set for v in e}
        self.sorted_triangles: List[Triangle] = sorted(
            (self.sort_simplex(t) for t in self.triangles),
            key=lambda t: tuple(self._rank[v] for v in t))
        self.orientation: Dict[Triangle, int] = {}
        for t in self.triangles:
            self.orientation[self.sort_simplex(t)] = self.triangle_sign(t)

    def _validate(self) -> None:
        for e, ts in self.edge_triangles.items():
            if len(ts) > 2:
                raise StructuralError(f"edge {sorted(e)} bounds {len(ts)} > 2 triangles")
        if self.declared_boundary != self.boundary_edge_set:
            got = sorted(sorted(e) for e in self.boundary_edge_set)
            raise StructuralError(
                f"boundary_edges must be exactly the edges with one incident triangle; "
                f"computed {got}")
        if len({self.sort_simplex(t) for t in self.triangles}) != len(self.triangles):
            raise StructuralError("duplicate triangles")
        # orientation coherence: shared edges induce opposite orientations
        for e, ts in self.edge_triangles.items():
            if len(ts) != 2:
                continue
            a, b = tuple(e)
            d1 = self._induced_direction(ts[0], a, b)
            d2 = self._induced_direction(ts[1], a, b)
            if d1 == d2:
                raise StructuralError(
                    f"orientations of triangles {ts[0]} and {ts[1]} are incompatible "
                    f"along edge {sorted(e)}")
        self._validate_links()

    def _induced_direction(self, t: Triangle, a: int, b: int) -> int:
        """+1 when the oriented triangle traverses a -> b, -1 for b -> a."""
        for k in range(3):
            if t[k] == a and t[(k + 1) % 3] == b:
                return 1
            if t[k] == b and t[(k + 1) % 3] == a:
                return -1
        raise StructuralError(f"edge ({a}, {b}) not in triangle {t}")

    def _validate_links(self) -> None:
        for v in range(self.n_vertices):
            link: Dict[int, List[int]] = {}
            count = 0
            for t in self.triangles:
                if v in t:
                    a, b = (x for x in t if x != v)
                    link.setdefault(a, []).append(b)
                    link.setdefault(b, []).append(a)
                    count += 1
            if count == 0:
                raise StructuralError(f"vertex {v} has no incident triangle")
            degrees = sorted(len(nbrs) for nbrs in link.values())
            on_boundary = v in self.boundary_vertices
            if on_boundary:
                if degrees.count(1) != 2 or any(d > 2 for d in degrees):
                    raise StructuralError(f"link of boundary vertex {v} is not a simple path")
            else:
                if any(d != 2 for d in degrees):
                    raise StructuralError(f"link of interior vertex {v} is not a cycle")
            # connectivity of the link
            seen = set()
            stack = [next(iter(link))]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(link[x])
            if seen != set(link):
                raise StructuralError(f"link of vertex {v} is disconnected")

    # -- relative cochain bases ---------------------------------------------------
    def relative_vertices(self) -> List[int]:
        return [v for v in self.vertex_order if v not in self.boundary_vertices]

    def relative_edges(self) -> List[Edge]:
        return [e for e in self.edges if frozenset(e) not in self.boundary_edge_set]

    def all_triangles_sorted(self) -> List[Triangle]:
        return list(self.sorted_triangles)


def cs_complex(m: TriangulatedSurface) -> ChainComplex:
    """Relative cochains as a chain complex in degrees -1, 0, 1.

    Degree -1 holds relative 2-cochains, degree 0 relative 1-cochains,
    degree +1 relative 0-cochains; both differentials are the negated
    coboundary.
    """
    verts = m.relative_vertices()
    edges = m.relative_edges()
    tris = m.all_triangles_sorted()
    vidx = {v: i for i, v in enumerate(verts)}
    eidx = {e: i for i, e in enumerate(edges)}
    tidx = {t: i for i, t in enumerate(tris)}
    # d_1 = -delta^0 : C^0(K, bd) -> C^1(K, bd)
    d1_entries = {}
    for e, row in eidx.items():
        a, b = e
        if a in vidx:
            d1_entries[(row, vidx[a])] = Fraction(1)   # -(-f(a))
        if b in vidx:
            d1_entries[(row, vidx[b])] = Fraction(-1)  # -(+f(b))
    # d_0 = -delta^1 : C^1(K, bd) -> C^2(K, bd)
    d0_entries = {}
    for t, row in tidx.items():
        a, b, c = t
        for face, sign in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
            col = eidx.get(face)
            if col is not None:
                d0_entries[(row, col)] = Fraction(-sign)
    dims = {-1: len(tris), 0: len(edges), 1: len(verts)}
    diffs = {}
    if dims[0] and dims[-1]:
        diffs[0] = RationalMatrix(dims[-1], dims[0], d0_entries)
    if dims[1] and dims[0]:
        diffs[1] = RationalMatrix(dims[0], dims[1], d1_entries)
    return ChainComplex(dims, diffs)


_ELL_SIGN = {-1: -1, 0: 1, 1: -1}


def pairing(m: TriangulatedSurface) -> PresymplecticComplex:
    """Antisymmetrized cup-product pairing against the fundamental cycle.

    omega(x, y) = (1/2) [ s(|y|) <x u y, [K, bd]> - (-1)^(|x||y|) s(|x|) <y u x, [K, bd]> ]
    with the degree signs s = (-1, +1, -1) on degrees (-1, 0, +1).  The signs
    are forced by the chain-map condition, and the result is graded
    antisymmetric on the nose.
    """
    carrier = cs_complex(m)
    verts = m.relative_vertices()
    edges = m.relative_edges()
    tris = m.all_triangles_sorted()
    # flattened basis: degree -1 block (triangles), degree 0 (edges), degree +1 (vertices)
    t_off = 0
    e_off = len(tris)
    v_off = len(tris) + len(edges)
    vidx = {v: v_off + i for i, v in enumerate(verts)}
    eidx = {e: e_off + i for i, e in enumerate(edges)}
    tidx = {t: t_off + i for i, t in enumerate(tris)}

    cup: Dict[Tuple[int, int], Fraction] = {}
    for t in tris:
        a, b, c = t
        w = Fraction(m.orientation[t])
        terms = []
        # 1-cochain cup 1-cochain: front edge (a,b), back edge (b,c)
        i = eidx.get((a, b))
        j = eidx.get((b, c))
        if i is not None and j is not None:
            terms.append(((i, j), w))
        # 0-cochain cup 2-cochain: front vertex a
        if a in vidx:
            terms.append(((vidx[a], tidx[t]), w))
        # 2-cochain cup 0-cochain: back vertex c
        if c in vidx:
            terms.append(((tidx[t], vidx[c]), w))
        _add_into(cup, terms)

    basis_degree = {}
    for t, i in tidx.items():
        basis_degree[i] = -1
    for e, i in eidx.items():
        basis_degree[i] = 0
    for v, i in vidx.items():
        basis_degree[i] = 1

    omega: Dict[Tuple[int, int], Fraction] = {}
    for (i, j), value in cup.items():
        di, dj = basis_degree[i], basis_degree[j]
        term = _HALF * _ELL_SIGN[dj] * value
        koszul = -1 if (di * dj) % 2 else 1
        _add_into(omega, (((i, j), term), ((j, i), -koszul * term)))
    return PresymplecticComplex(carrier, omega)


class SurfaceMorphism:
    """Injective simplicial orientation-preserving map with the star condition.

    The image is a subcomplex S of the target; every target simplex having a
    face in S minus its boundary must lie in S (this makes extension by zero
    a chain map), and source boundary edges must land in the boundary of S.
    """

    def __init__(self, source: TriangulatedSurface, target: TriangulatedSurface,
                 vertex_map: Sequence[int]):
        self.source = source
        self.target = target
        self.vertex_map = tuple(int(v) for v in vertex_map)
        if len(self.vertex_map) != source.n_vertices:
            raise StructuralError("vertex map must cover every source vertex")
        if len(set(self.vertex_map)) != len(self.vertex_map):
            raise StructuralError("vertex map must be injective")
        if not all(0 <= v < target.n_vertices for v in self.vertex_map):
            raise StructuralError("vertex map image out of range")
        self._validate()

    def apply(self, simplex: Sequence[int]) -> Tuple[int, ...]:
        return tuple(self.vertex_map[v] for v in simplex)

    def _validate(self) -> None:
        tgt = self.target
        image_tris: Set[Triangle] = set()
        tgt_tris = {tgt.sort_simplex(t) for t in tgt.triangles}
        for t in self.source.triangles:
            image = self.apply(t)
            sorted_image = tgt.sort_simplex(image)
            if sorted_image not in tgt_tris:
                raise StructuralError(f"triangle {t} does not map to a target triangle")
            # orientation-preserving: the mapped oriented triple must agree
            # with the target triangle's orientation class
            if _perm_sign([tgt._rank[v] for v in image]) != tgt.orientation[sorted_image]:
                raise StructuralError(f"orientation not preserved on triangle {t}")
            image_tris.add(sorted_image)
        image_edges = {frozenset(self.apply(e)) for e in self.source.edges}
        image_vertices = set(self.vertex_map)
        # boundary of the image subcomplex S
        s_edge_count: Dict[FrozenSet[int], int] = {}
        for t in image_tris:
            for k in range(3):
                e = frozenset((t[k], t[(k + 1) % 3]))
                s_edge_count[e] = s_edge_count.get(e, 0) + 1
        s_boundary_edges = {e for e, cnt in s_edge_count.items() if cnt == 1}
        s_boundary_vertices = {v for e in s_boundary_edges for v in e}
        interior_tris = image_tris
        interior_edges = image_edges - s_boundary_edges
        interior_vertices = image_vertices - s_boundary_vertices
        # star condition on target triangles and edges
        for t in tgt_tris:
            if t in image_tris:
                continue
            faces_interior = (
                any(v in interior_vertices for v in t)
                or any(frozenset((t[k], t[(k + 1) % 3])) in interior_edges for k in range(3))
            )
            if faces_interior:
                raise StructuralError(
                    f"star condition violated: target triangle {t} has a face in the "
                    f"open image but is not in the image")
        for e in tgt.edges:
            key = frozenset(e)
            if key in image_edges:
                continue
            if any(v in interior_vertices for v in e):
                raise StructuralError(
                    f"star condition violated: target edge {tuple(e)} has a face in the "
                    f"open image but is not in the image")
        # source boundary maps into the boundary of S
        for e in self.source.boundary_edge_set:
            if frozenset(self.apply(tuple(e))) not in s_boundary_edges:
                raise StructuralError(
                    f"source boundary edge {sorted(e)} does not map into the image boundary")

    def compose(self, inner: "SurfaceMorphism") -> "SurfaceMorphism":
        """self after inner."""
        if inner.target is not self.source:
            raise StructuralError("morphisms not composable")
        vm = [self.vertex_map[v] for v in inner.vertex_map]
        return SurfaceMorphism(inner.source, self.target, vm)

    def __eq__(self, other):
        if not isinstance(other, SurfaceMorphism):
            return NotImplemented
        return (self.source is other.source and self.target is other.target
                and self.vertex_map == other.vertex_map)


def extension_by_zero(f: SurfaceMorphism) -> ChainMap:
    """Pushforward of relative cochains along a surface morphism.

    A relative cochain on the source is extended by zero outside the image;
    ordered-simplex bases pick up the parity of the sorting permutation when
    the vertex orders disagree.
    """
    src_c = cs_complex(f.source)
    tgt_c = cs_complex(f.target)
    src, tgt = f.source, f.target

    def build(block_src: list, block_tgt_index: Mapping, sign_of) -> dict:
        entries = {}
        for col, simplex in enumerate(block_src):
            image = f.apply(simplex if isinstance(simplex, tuple) else (simplex,))
            key = tgt.sort_simplex(image)
            if len(key) == 1:
                key = key[0]
            row = block_tgt_index.get(key)
            if row is None:
                raise AssertionError(
                    f"image simplex {key} of relative simplex {simplex} is not relative "
                    f"in the target")
            entries[(row, col)] = Fraction(sign_of(image))
        return entries

    tgt_tris = {t: i for i, t in enumerate(tgt.all_triangles_sorted())}
    tgt_edges = {e: i for i, e in enumerate(tgt.relative_edges())}
    tgt_verts = {v: i for i, v in enumerate(tgt.relative_vertices())}
    comps = {}
    src_tris = src.all_triangles_sorted()
    if src_tris:
        comps[-1] = RationalMatrix(
            len(tgt_tris), len(src_tris),
            build(src_tris, tgt_tris, lambda im: _perm_sign([tgt._rank[v] for v in im])))
    src_edges = src.relative_edges()
    if src_edges:
        comps[0] = RationalMatrix(
            len(tgt_edges), len(src_edges),
            build(src_edges, tgt_edges, lambda im: _perm_sign([tgt._rank[v] for v in im])))
    src_verts = src.relative_vertices()
    if src_verts:
        comps[1] = RationalMatrix(
            len(tgt_verts), len(src_verts),
            build([(v,) for v in src_verts], tgt_verts, lambda im: 1))
    return ChainMap(src_c, tgt_c, comps)


def images_disjoint(f1: SurfaceMorphism, f2: SurfaceMorphism) -> bool:
    return not (set(f1.vertex_map) & set(f2.vertex_map))


@dataclass
class SurfaceDiagram:
    """Finite diagram of surfaces and morphisms feeding the field theories."""

    surfaces: Dict[str, TriangulatedSurface]
    morphisms: Dict[str, Tuple[str, str, SurfaceMorphism]]

    def __post_init__(self):
        for name, (srcname, tgtname, f) in self.morphisms.items():
            if f.source is not self.surfaces[srcname] or f.target is not self.surfaces[tgtname]:
                raise StructuralError(f"morphism {name} endpoints do not match the diagram")


def build_bcs(diagram: SurfaceDiagram) -> FieldTheory:
    """Linear Chern-Simons field theory of a surface diagram.

    Objects carry the Heisenberg algebra of the relative-cochain complex with
    the cup pairing; actions are extensions by zero (identity on the unit
    summand).  Orthogonality is generated by pairs with disjoint images and
    closed under composition.
    """
    morphism_data: Dict[str, Tuple[str, str]] = {}
    maps: Dict[str, SurfaceMorphism] = {}
    for name, (srcname, tgtname, f) in diagram.morphisms.items():
        morphism_data[name] = (srcname, tgtname)
        maps[name] = f
    # close the named morphisms under composition
    compose_table: Dict[Tuple[str, str], str] = {}
    changed = True
    while changed:
        changed = False
        for g in list(maps):
            for f in list(maps):
                if morphism_data[f][1] != morphism_data[g][0]:
                    continue
                if (g, f) in compose_table:
                    continue
                comp = maps[g].compose(maps[f])
                existing = None
                for name, other in maps.items():
                    if (morphism_data[name] == (morphism_data[f][0], morphism_data[g][1])
                            and other == comp):
                        existing = name
                        break
                if existing is None:
                    existing = f"{g}.{f}"
                    maps[existing] = comp
                    morphism_data[existing] = (morphism_data[f][0], morphism_data[g][1])
                    changed = True
                compose_table[(g, f)] = existing
    cat = OrthCategory(sorted(diagram.surfaces), morphism_data, compose_table)
    seeds = []
    names = sorted(maps)
    for i, f1 in enumerate(names):
        for f2 in names[i + 1:]:
            if morphism_data[f1][1] == morphism_data[f2][1] and images_disjoint(maps[f1], maps[f2]):
                seeds.append((f1, f2))
    cat.orth = orth_closure(seeds, cat) if seeds else set()

    algebras = {name: heisenberg(pairing(surf)) for name, surf in diagram.surfaces.items()}
    actions = {}
    for name, (srcname, tgtname) in morphism_data.items():
        actions[name] = heisenberg_map(extension_by_zero(maps[name]),
                                       algebras[srcname], algebras[tgtname])
    return FieldTheory(cat, "uLie", algebras, actions)


def build_acs(diagram: SurfaceDiagram, n_max: int) -> FieldTheory:
    """Quantized Chern-Simons theory: pointwise truncated envelope of build_bcs."""
    return quantize(build_bcs(diagram), n_max)


# ---------------------------------------------------------------------------
# Shipped example surfaces
# ---------------------------------------------------------------------------

def tetrahedron_sphere() -> TriangulatedSurface:
    return TriangulatedSurface(
        4, [(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])


def one_triangle_disk() -> TriangulatedSurface:
    return TriangulatedSurface(
        3, [(0, 1, 2)], boundary_edges=[(0, 1), (1, 2), (0, 2)])


def grid_torus() -> TriangulatedSurface:
    """The standard 9-vertex triangulation of the torus (3x3 grid, wrapped)."""
    tris = []
    for i in range(3):
        for j in range(3):
            v = 3 * i + j
            r = 3 * i + (j + 1) % 3
            d = 3 * ((i + 1) % 3) + j
            dr = 3 * ((i + 1) % 3) + (j + 1) % 3
            tris.append((v, r, dr))
            tris.append((v, dr, d))
    return TriangulatedSurface(9, tris)


def band_annulus(rings: int = 2) -> TriangulatedSurface:
    """Annulus made of ``rings`` concentric triangle rings of 3 vertices each."""
    if rings < 2:
        raise StructuralError("an annulus needs at least two vertex rings")
    tris = []
    for i in range(rings - 1):
        for j in range(3):
            v = 3 * i + j
            r = 3 * i + (j + 1) % 3
            d = 3 * (i + 1) + j
            dr = 3 * (i + 1) + (j + 1) % 3
            tris.append((v, r, dr))
            tris.append((v, dr, d))
    boundary = [(j, (j + 1) % 3) for j in range(3)]
    last = 3 * (rings - 1)
    boundary += [(last + j, last + (j + 1) % 3) for j in range(3)]
    return TriangulatedSurface(3 * rings, tris, boundary_edges=boundary)


def octahedron_sphere() -> TriangulatedSurface:
    return TriangulatedSurface(
        6,
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
         (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4)])


def collar_inclusion(rings_small: int = 2, rings_large: int = 3) -> SurfaceMorphism:
    """Inclusion of a short annulus as the first bands of a longer one."""
    small = band_annulus(rings_small)
    large = band_annulus(rings_large)
    return SurfaceMorphism(small, large, list(range(3 * rings_small)))
