import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from opfield.algebras import GradedBasis, heisenberg, validate_algebra
from opfield.cherns import (SurfaceDiagram, SurfaceMorphism,
                            TriangulatedSurface, band_annulus, build_acs,
                            build_bcs, collar_inclusion, cs_complex,
                            extension_by_zero, grid_torus,
                            octahedron_sphere, one_triangle_disk, pairing,
                            tetrahedron_sphere)
from opfield.complexes import (ChainComplex, homology, homology_dims,
                               is_quasi_iso, validate_complex)
from opfield.envelope import ccr, pbw_add, pbw_scale, pbw_unit
from opfield.errors import StructuralError
from opfield.exact import RationalMatrix, rank
from opfield.fieldtheory import (check_causality, check_w_constancy, quantize,
                                 validate_functor)
from opfield.jsonio import surface_from_json
from support import (reference_cs_diffs, reference_cs_omega,
                     reference_extension_components, reference_solve_many)

DATA = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data"
SHIPPED = ("annulus2", "annulus3", "disk1", "tetra_sphere", "torus9")


# -- surface validation ------------------------------------------------------------

def test_shipped_surfaces_validate():
    for s in (tetrahedron_sphere(), grid_torus(), one_triangle_disk(),
              band_annulus(2), band_annulus(3), octahedron_sphere()):
        assert s.n_vertices > 0


def test_wrong_boundary_declaration_rejected():
    with pytest.raises(StructuralError):
        TriangulatedSurface(3, [(0, 1, 2)], boundary_edges=[(0, 1)])


def test_incoherent_orientation_rejected():
    # two triangles traversing the shared edge in the same direction
    with pytest.raises(StructuralError) as err:
        TriangulatedSurface(4, [(0, 1, 2), (0, 1, 3)],
                            boundary_edges=[(1, 2), (0, 2), (1, 3), (0, 3)])
    assert "incompatible" in str(err.value)


def test_pinched_vertex_link_rejected():
    # two triangles sharing only a vertex: link of that vertex is disconnected
    with pytest.raises(StructuralError) as err:
        TriangulatedSurface(
            5, [(0, 1, 2), (0, 3, 4)],
            boundary_edges=[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    assert "link" in str(err.value)


def test_overused_edge_rejected():
    with pytest.raises(StructuralError) as err:
        TriangulatedSurface(5, [(0, 1, 2), (0, 3, 1), (0, 1, 4)],
                            boundary_edges=[])
    assert "bounds" in str(err.value)


# -- relative cochain complexes ------------------------------------------------------

def test_sphere_homology():
    assert homology_dims(cs_complex(tetrahedron_sphere())) == {-1: 1, 1: 1}


def test_torus_homology():
    assert homology_dims(cs_complex(grid_torus())) == {-1: 1, 0: 2, 1: 1}


def test_disk_homology():
    c = cs_complex(one_triangle_disk())
    assert c.dims == {-1: 1}
    assert homology_dims(c) == {-1: 1}


def test_annulus_homology():
    for rings in (2, 3):
        assert homology_dims(cs_complex(band_annulus(rings))) == {-1: 1, 0: 1}


def test_cs_complexes_are_complexes():
    for s in (tetrahedron_sphere(), grid_torus(), band_annulus(3)):
        assert validate_complex(cs_complex(s)) == []


def _reordered(s, rng):
    order = list(range(s.n_vertices))
    rng.shuffle(order)
    return TriangulatedSurface(s.n_vertices, s.triangles,
                               [tuple(e) for e in s.boundary_edge_set], order)


def _at_four_orders(s, seed):
    """``s`` at its own vertex order and at three seeded random orders."""
    rng = Random(seed)
    return [s] + [_reordered(s, rng) for _ in range(3)]


def _nonzero(blocks):
    return {n: m for n, m in blocks.items() if not m.is_zero()}


def test_cs_matrices_match_reference_formulas():
    surfaces = [surface_from_json(json.loads((DATA / f"{name}.json").read_text()))
                for name in SHIPPED]
    surfaces += [octahedron_sphere(), band_annulus(4)]
    for seed, s in enumerate(surfaces):
        for m in _at_four_orders(s, seed):
            assert cs_complex(m).diffs == _nonzero(reference_cs_diffs(m)), m.vertex_order
            assert pairing(m).omega == reference_cs_omega(m), m.vertex_order


def test_extension_by_zero_matches_reference_formulas():
    collar = collar_inclusion()
    morphisms = [(collar.source, collar.target, collar.vertex_map),
                 (one_triangle_disk(), octahedron_sphere(), (0, 1, 2))]
    for seed, (src, tgt, vertex_map) in enumerate(morphisms):
        for s, t in zip(_at_four_orders(src, 10 + seed), _at_four_orders(tgt, 20 + seed)):
            f = SurfaceMorphism(s, t, vertex_map)
            expected = _nonzero(reference_extension_components(f))
            assert extension_by_zero(f).components == expected, (s.vertex_order, t.vertex_order)


# -- the pairing -----------------------------------------------------------------------

def test_pairing_is_presymplectic_everywhere():
    for s in (tetrahedron_sphere(), grid_torus(), one_triangle_disk(),
              band_annulus(2), octahedron_sphere()):
        assert pairing(s).validate() == []


def test_disjoint_supports_pair_to_zero():
    s = octahedron_sphere()
    p = pairing(s)
    edges = s.cochains[0]
    off = len(s.cochains[-1])
    eidx = {e: off + i for i, e in enumerate(edges)}
    # (0,1) touches only the top; (3,5) only the bottom
    assert p.pair({eidx[(0, 1)]: Fraction(1)}, {eidx[(3, 5)]: Fraction(1)}) == 0


def _torus_cocycles(p):
    """The two hand-built 1-cocycles dual to the fundamental cycles."""
    t = grid_torus()
    edges = t.cochains[0]
    off = len(t.cochains[-1])
    eidx = {e: off + i for i, e in enumerate(edges)}

    def cochain(spec):
        return {eidx[e]: Fraction(c) for e, c in spec.items()}

    a_star = cochain({(0, 6): 1, (1, 7): 1, (2, 8): 1, (1, 6): 1, (2, 7): 1, (0, 8): 1})
    b_star = cochain({(0, 2): -1, (3, 5): -1, (6, 8): -1, (2, 3): 1, (5, 6): 1, (0, 8): -1})
    return a_star, b_star


def test_torus_dual_cocycles_pair_to_one():
    p = pairing(grid_torus())
    a_star, b_star = _torus_cocycles(p)
    assert p.basis.differential(a_star) == {}
    assert p.basis.differential(b_star) == {}
    assert p.pair(a_star, b_star) == 1
    assert p.pair(b_star, a_star) == -1


def test_torus_homology_pairing_is_unimodular():
    p = pairing(grid_torus())
    dim, reps = homology(p.carrier, 0)
    off = p.basis.offsets[0]
    classes = [{off + i: c for i, c in enumerate(r) if c} for r in reps]
    m = RationalMatrix.from_rows([[p.pair(x, y) for y in classes] for x in classes])
    assert dim == 2 and rank(m) == 2
    assert m.entry(0, 0) == 0 and m.entry(1, 1) == 0
    assert m.entry(0, 1) == -m.entry(1, 0)
    assert abs(m.entry(0, 1)) == 1


def test_sphere_degree_zero_pairing_is_empty():
    p = pairing(tetrahedron_sphere())
    dim, _ = homology(p.carrier, 0)
    assert dim == 0


# -- morphisms and extension by zero -----------------------------------------------------

def test_collar_extension_is_chain_map_and_quasi_iso():
    ext = extension_by_zero(collar_inclusion())
    assert ext.commutes() == []
    assert is_quasi_iso(ext)


def test_extension_functorial_under_composition():
    small, mid, large = band_annulus(2), band_annulus(3), band_annulus(4)
    f = SurfaceMorphism(small, mid, list(range(6)))
    g = SurfaceMorphism(mid, large, list(range(9)))
    gf = g.compose(f)
    assert extension_by_zero(gf) == extension_by_zero(g).compose(extension_by_zero(f))


def test_disk_into_octahedron_star_condition():
    disk = one_triangle_disk()
    octa = octahedron_sphere()
    f = SurfaceMorphism(disk, octa, [0, 1, 2])
    ext = extension_by_zero(f)
    assert ext.commutes() == []


def test_inner_band_inclusion_is_legal():
    # the middle-band inclusion keeps all image vertices on the image
    # boundary, so the star condition holds and extension by zero works
    small, large = band_annulus(2), band_annulus(4)
    f = SurfaceMorphism(small, large, [3, 4, 5, 6, 7, 8])
    ext = extension_by_zero(f)
    assert ext.commutes() == []


def test_non_simplicial_map_rejected():
    disk = one_triangle_disk()
    octa = octahedron_sphere()
    with pytest.raises(StructuralError):
        SurfaceMorphism(disk, octa, [0, 1, 5])  # (0, 1, 5) is not a face


def test_orientation_reversing_map_rejected():
    disk = one_triangle_disk()
    octa = octahedron_sphere()
    with pytest.raises(StructuralError) as err:
        SurfaceMorphism(disk, octa, [0, 2, 1])
    assert "orientation" in str(err.value)


# -- field theories ------------------------------------------------------------------------

def test_single_torus_theory():
    diagram = SurfaceDiagram({"torus": grid_torus()}, {})
    ft = build_bcs(diagram)
    assert validate_functor(ft) == []
    assert check_causality(ft) == []
    assert validate_algebra(ft.algebra("torus")) == []
    a = ft.algebra("torus")
    assert a.carrier.dims == {-1: 18, 0: 28, 1: 9}


def test_two_disks_into_sphere_causality():
    disk = one_triangle_disk()
    octa = octahedron_sphere()
    diagram = SurfaceDiagram(
        {"disk": disk, "sphere": octa},
        {"f1": ("disk", "sphere", SurfaceMorphism(disk, octa, [0, 1, 2])),
         "f2": ("disk", "sphere", SurfaceMorphism(disk, octa, [5, 4, 3]))})
    ft = build_bcs(diagram)
    assert ("f1", "f2") in ft.base.orth
    assert validate_functor(ft) == []
    assert check_causality(ft) == []
    qft = build_acs(diagram, 2)
    assert check_causality(qft) == []


def test_collar_theory_homotopy_w_constant():
    f = collar_inclusion()
    diagram = SurfaceDiagram({"small": f.source, "large": f.target},
                             {"collar": ("small", "large", f)})
    ft = build_bcs(diagram)
    assert validate_functor(ft) == []
    assert all(r.ok for r in check_w_constancy(ft, ["collar"], "homotopy"))
    qft = build_acs(diagram, 2)
    assert all(r.ok for r in check_w_constancy(qft, ["collar"], "homotopy"))
    qft = quantize(ft, 3, check=False)
    assert all(r.ok for r in check_w_constancy(qft, ["collar"], "homotopy"))


def test_small_heisenberg_algebras_fully_validate():
    for surf in (one_triangle_disk(), band_annulus(2), tetrahedron_sphere()):
        assert validate_algebra(heisenberg(pairing(surf))) == []


# -- quantized Chern-Simons relations ---------------------------------------------------------

def _torus_env(n=2):
    return ccr(pairing(grid_torus()), n)


def test_generator_blocks_and_degrees():
    env = _torus_env()
    degs = env.gen_degree
    assert degs[:18] == [-1] * 18      # triangle generators (curvature)
    assert degs[18:45] == [0] * 27     # edge generators (connection)
    assert degs[45:] == [1] * 9        # vertex generators (ghost)


def test_differential_relations_on_generators():
    t = grid_torus()
    env = _torus_env()
    tris = t.cochains[-1]
    edges = t.cochains[0]
    tidx = {tri: i for i, tri in enumerate(tris)}
    eidx = {e: i for i, e in enumerate(edges)}
    # d C = 0
    for ptri in range(18):
        assert env.differential(env.generator(ptri)) == {}
    # d A(alpha) = C(-delta alpha): computed from the triangle incidences
    for e, col in eidx.items():
        expected = {}
        for tri, row in tidx.items():
            a, b, c = tri
            coeff = {(b, c): 1, (a, c): -1, (a, b): 1}.get(e)
            if coeff:
                expected[(row,)] = Fraction(-coeff)
        assert env.differential(env.generator(18 + col)) == expected
    # d B(beta) = A(-delta beta)
    for v in range(9):
        expected = {}
        for e, col in eidx.items():
            if v == e[0]:
                expected[(18 + col,)] = Fraction(1)
            elif v == e[1]:
                expected[(18 + col,)] = Fraction(-1)
        assert env.differential(env.generator(45 + v)) == expected


def test_a_field_commutator_is_the_intersection_pairing():
    from opfield.algebras import heisenberg_embedding

    p = pairing(grid_torus())
    env = ccr(p, 2)
    embed = heisenberg_embedding(p, env.source)
    a_star, b_star = _torus_cocycles(p)
    x = env.from_source_element(embed(a_star))
    y = env.from_source_element(embed(b_star))
    assert env.commutator(x, y) == pbw_unit()


def test_curvature_ghost_commutator_matches_cup_formula():
    t = grid_torus()
    p = pairing(t)
    env = ccr(p, 2)
    tris = t.cochains[-1]
    tri0 = tris[0]
    v_first, v_last = tri0[0], tri0[2]
    sign = Fraction(t.orientation[tri0])
    for v in range(9):
        comm = env.commutator(env.generator(0), env.generator(45 + v))
        cup = sign * ((1 if v == v_last else 0) + (1 if v == v_first else 0))
        expected = pbw_scale(-Fraction(1, 2) * cup, pbw_unit()) if cup else {}
        assert comm == expected, v


def test_quantized_torus_d_squared_and_leibniz():
    env = _torus_env()
    stage = env.stage_complex()
    assert validate_complex(stage) == []
    rng = Random(61)
    words = env.monomials(1)
    for _ in range(60):
        w1 = rng.choice(words)
        w2 = rng.choice(words)
        if len(w1) + len(w2) > 2:
            continue
        x, y = {w1: Fraction(1)}, {w2: Fraction(1)}
        sign = -1 if env.word_degree(w1) % 2 else 1
        lhs = env.differential(env.multiply(x, y))
        rhs = pbw_add(env.multiply(env.differential(x), y),
                      pbw_scale(sign, env.multiply(x, env.differential(y))))
        assert lhs == rhs


# -- homology of the quantized algebra is the CCR algebra of homology -------------------------

def _homology_coords(stage, n, cycles):
    """Coordinates of cycle classes in the canonical H_n representative basis."""
    dim, reps = homology(stage, n)
    reps_matrix = RationalMatrix.from_columns(reps, rows=stage.dim(n)) if reps \
        else RationalMatrix.zero(stage.dim(n), 0)
    system = reps_matrix.hstack(stage.d(n + 1))
    out = []
    for x in reference_solve_many(system, cycles):
        assert x is not None, "class is not expressible: not a cycle?"
        out.append(tuple(x[:dim]))
    return out


@pytest.mark.parametrize("surface_name,surface", [
    ("sphere", tetrahedron_sphere()),
    ("torus", grid_torus()),
])
def test_quantized_homology_is_ccr_of_homology(surface_name, surface):
    from opfield.algebras import PresymplecticComplex, heisenberg_embedding

    n = 2
    p = pairing(surface)
    env = ccr(p, n)
    embed = heisenberg_embedding(p, env.source)
    stage, _, windex = env.stage(n)

    # homology presymplectic complex (zero differential) with induced pairing
    classes = []
    hdims = {}
    for deg in sorted(p.carrier.support):
        dim, reps = homology(p.carrier, deg)
        off = p.basis.offsets[deg]
        hdims[deg] = dim
        for r in reps:
            classes.append({off + i: c for i, c in enumerate(r) if c})
    hdims = {d: k for d, k in hdims.items() if k}
    h_complex = ChainComplex(hdims)
    h_basis = GradedBasis(h_complex)
    # class order matches flattened degree order by construction
    omega_bar = {}
    for i, x in enumerate(classes):
        for j, y in enumerate(classes):
            v = p.pair(x, y)
            if v:
                omega_bar[(i, j)] = v
    h_pre = PresymplecticComplex(h_complex, omega_bar)
    env_h = ccr(h_pre, n)
    stage_h = env_h.stage_complex(n)

    # per-degree dimensions agree
    for deg in set(stage_h.dims) | set(homology_dims(stage)):
        assert stage_h.dim(deg) == homology_dims(stage).get(deg, 0), deg

    # the monomial-to-class map: products of class representatives
    def rep_of_word(word):
        out = pbw_unit()
        for pos in word:
            gen_class = env.from_source_element(embed(classes[pos]))
            out = env.multiply(out, gen_class)
        return out

    def stage_vector(x, deg):
        vec = [Fraction(0)] * stage.dim(deg)
        for w, c in x.items():
            wdeg, local = windex[w]
            assert wdeg == deg
            vec[local] = c
        return tuple(vec)

    # structure constants match: class(rep(u) rep(v)) = class(rep(u * v))
    h_words = env_h.monomials()
    discrepancies = {}
    for u in h_words:
        for v in h_words:
            if len(u) + len(v) > n:
                continue
            product = env_h.multiply({u: Fraction(1)}, {v: Fraction(1)})
            lhs = env.multiply(rep_of_word(u), rep_of_word(v))
            rhs = {}
            for w, c in product.items():
                rhs = pbw_add(rhs, pbw_scale(c, rep_of_word(w)))
            diff = pbw_add(lhs, pbw_scale(-1, rhs))
            if not diff:
                continue
            deg = env.element_degree(diff)
            discrepancies.setdefault(deg, []).append(((u, v), stage_vector(diff, deg)))
    # the discrepancy must be a boundary
    for deg, cases in discrepancies.items():
        sols = reference_solve_many(stage.d(deg + 1), [z for _, z in cases])
        for (pair, _), x in zip(cases, sols):
            assert x is not None, pair

    # and the map is injective: classes of monomials are independent per degree
    by_degree = {}
    for w in h_words:
        by_degree.setdefault(env_h.word_degree(w), []).append(w)
    for deg, words in by_degree.items():
        cycles = [stage_vector(rep_of_word(w), deg) for w in words]
        coords = _homology_coords(stage, deg, cycles)
        m = RationalMatrix.from_columns(coords, rows=len(coords[0]) if coords else 0)
        assert rank(m) == len(words)
