"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria with stated runtime budgets assert them.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from opfield import jsonio, operads
from opfield.algebras import (DgAlgebra, PresymplecticComplex, heisenberg,
                              heisenberg_embedding)
from opfield.cherns import (SurfaceDiagram, build_bcs, collar_inclusion,
                            cs_complex, grid_torus, one_triangle_disk,
                            pairing, tetrahedron_sphere)
from opfield.complexes import (ChainComplex, ChainMap, homology_dim,
                               homology_dims, is_quasi_iso, tensor,
                               validate_complex)
from opfield.envelope import (adjunction_roundtrip, ccr, envelope,
                              envelope_map, filtration_dim, pbw_add,
                              pbw_scale, pbw_unit)
from opfield.exact import RationalMatrix
from opfield.fieldtheory import (FieldTheory, OrthCategory, check_causality,
                                 check_w_constancy, quantize)
from opfield.operads import apply_morphism, check_relations, named_presentation, phi_ulie_to_as

from support import (basis_elements, evaluate, gl_with_unit, matrix_algebra,
                     random_as_algebra, random_complex, random_presymplectic,
                     truncated_poisson_algebra, dual_numbers)

DATA = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data"


def report(number, text):
    print(f"[acceptance {number:2d}] PASS - {text}")


def symplectic_plane():
    return PresymplecticComplex(ChainComplex({0: 2}), {(0, 1): 1, (1, 0): -1})


def test_criterion_01_presentation_soundness():
    start = time.perf_counter()
    rng = Random(101)

    As, Lie, uLie, Pois = (named_presentation(k) for k in ("As", "Lie", "uLie", "Pois"))
    mat2 = matrix_algebra(2)
    assert check_relations(As, mat2) == []

    gl2u = gl_with_unit(2)
    gl2 = DgAlgebra(gl2u.carrier, "Lie",
                    {operads.BRACKET: dict(gl2u.structure[operads.BRACKET])})
    assert check_relations(Lie, gl2) == []
    assert check_relations(uLie, gl2u) == []

    for _ in range(3):
        p = random_presymplectic(rng, {-1: 1, 0: 2, 1: 1})
        assert check_relations(uLie, heisenberg(p)) == []

    pois = truncated_poisson_algebra()
    assert check_relations(Pois, pois) == []

    # planted single-constant defects, one per presentation
    bad_mu = dict(mat2.structure[operads.MU])
    bad_mu[(1, 2)] = {0: Fraction(2)}
    assert check_relations(As, DgAlgebra(
        mat2.carrier, "As", {operads.MU: bad_mu,
                             operads.ETA: dict(mat2.structure[operads.ETA])}))

    bad_bracket = dict(gl2.structure[operads.BRACKET])
    bad_bracket[(0, 1)] = {1: Fraction(3)}
    assert check_relations(Lie, DgAlgebra(gl2.carrier, "Lie",
                                          {operads.BRACKET: bad_bracket}))

    h = heisenberg(symplectic_plane())
    bad_h = dict(h.structure[operads.BRACKET])
    bad_h[(0, 2)] = {0: Fraction(1)}  # [e1, unit] != 0
    assert check_relations(uLie, DgAlgebra(
        h.carrier, "uLie", {operads.BRACKET: bad_h,
                            operads.ETA: dict(h.structure[operads.ETA])}))

    bad_pb = dict(pois.structure[operads.PBRACKET])
    bad_pb[(1, 2)] = {2: Fraction(7)}  # {x, y} corrupted
    assert check_relations(Pois, DgAlgebra(
        pois.carrier, "Pois", {operads.MU: dict(pois.structure[operads.MU]),
                               operads.ETA: dict(pois.structure[operads.ETA]),
                               operads.PBRACKET: bad_pb}))

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"presentation soundness took {elapsed:.2f}s"
    report(1, f"presentation soundness, defects detected ({elapsed:.2f}s < 5s)")


def test_criterion_02_phi_well_definedness():
    rng = Random(202)
    phi = phi_ulie_to_as()
    ulie = named_presentation("uLie")
    checked = 0
    for _ in range(50):
        a = random_as_algebra(rng)
        assert a.basis.total <= 4
        basis = basis_elements(a)
        for rel in ulie.relations:
            diff = apply_morphism(phi, rel.lhs) - apply_morphism(phi, rel.rhs)
            n = rel.arity or 0
            combos = [()]
            for _ in range(n):
                combos = [c + (i,) for c in combos for i in range(len(basis))]
            for combo in combos:
                assert evaluate(diff, a, [basis[i] for i in combo]) == {}
                checked += 1
    report(2, f"phi images of all uLie relations vanish in 50 random algebras "
              f"({checked} evaluations, exact zero)")


def test_criterion_03_pbw_filtration_oracle():
    start = time.perf_counter()
    h = heisenberg(symplectic_plane())
    env = envelope(h, 6)
    for n in range(7):
        assert dict(env.stage_complex(n).dims) == filtration_dim(h, n)
    assert sum(env.stage_complex(6).dims.values()) == 28

    odd = DgAlgebra(ChainComplex({-1: 1, 0: 1}), "uLie",
                    {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})
    for n in range(1, 7):
        env_o = envelope(odd, n)
        assert len(env_o.monomials()) == 2
        assert sum(filtration_dim(odd, n).values()) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"filtration oracle took {elapsed:.2f}s"
    report(3, f"PBW counts equal filtration oracle, 28 at n=6; odd total 2 "
              f"({elapsed:.2f}s < 1s)")


def test_criterion_04_ccr_relations():
    env = ccr(symplectic_plane(), 2)
    e1, e2 = env.generator(0), env.generator(1)
    assert pbw_add(env.multiply(e1, e2), pbw_scale(-1, env.multiply(e2, e1))) == pbw_unit()

    rng = Random(404)
    p = random_presymplectic(rng, {-1: 1, 0: 2, 1: 1})
    assert sum(p.carrier.dims.values()) == 4
    env4 = ccr(p, 2)
    h = heisenberg(p)
    unit_idx = h.unit_direction()[0]
    pairs = 0
    for i in range(4):
        for j in range(4):
            gi = env4.gens[i]
            gj = env4.gens[j]
            pi = gi if gi < unit_idx else gi - 1
            pj = gj if gj < unit_idx else gj - 1
            omega = p.pair_basis(pi, pj)
            expected = {(): omega} if omega else {}
            assert env4.commutator(env4.generator(i), env4.generator(j)) == expected
            pairs += 1
    assert pairs == 16
    report(4, "CCR identities hold exactly (plane and all 16 random-complex pairs)")


def test_criterion_05_adjunction_roundtrip():
    abelian = DgAlgebra(ChainComplex({0: 2}), "uLie",
                        {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})
    env = envelope(abelian, 3)
    a = dual_numbers()
    images = [{1: Fraction(1)}]
    images_rt, kappa = adjunction_roundtrip(env, a, images=images)
    assert images_rt == images
    images_rt2, kappa_rt = adjunction_roundtrip(env, a, kappa=kappa)
    assert images_rt2 == images and kappa_rt == kappa
    report(5, "adjunction roundtrips are identities on the dual-numbers example")


def test_criterion_06_quantization_preserves_causality():
    ft = jsonio.theory_from_json(json.loads((DATA / "toy3_theory.json").read_text()))
    assert check_causality(ft) == []
    qft = quantize(ft, 3, check=False)
    assert check_causality(qft) == []
    report(6, "toy 3-object theory passes causality before and after quantize at n=3")


def test_criterion_07_w_constancy_preservation():
    # strict part: invertible action stays stagewise invertible for n <= 4
    a = heisenberg(symplectic_plane())
    cat = OrthCategory(["a", "b"], {"f": ("a", "b")}, {})
    rot = ChainMap(a.carrier, a.carrier, {0: RationalMatrix.from_rows(
        [[0, -1, 0], [1, 0, 0], [0, 0, 1]])})
    lft = FieldTheory(cat, "uLie", {"a": a, "b": a}, {"f": rot})
    assert all(r.ok for r in check_w_constancy(lft, ["f"], "strict"))
    qft = quantize(lft, 4)
    assert all(r.ok for r in check_w_constancy(qft, ["f"], "strict"))

    # homotopy part: the annulus collar inclusion, stagewise at n = 2
    f = collar_inclusion()
    diagram = SurfaceDiagram({"small": f.source, "large": f.target},
                             {"collar": ("small", "large", f)})
    bcs = build_bcs(diagram)
    assert all(r.ok for r in check_w_constancy(bcs, ["collar"], "homotopy"))
    acs = quantize(bcs, 2, check=False)
    assert all(r.ok for r in check_w_constancy(acs, ["collar"], "homotopy"))
    report(7, "W-constancy preserved: strict stages n<=4, homotopy collar stages n<=2")


def test_criterion_08_stagewise_quasi_isos():
    # acyclic-augmented -> unit-only quasi-isomorphism
    carrier = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix(2, 1, {(0, 0): 1})})
    v = DgAlgebra(carrier, "uLie", {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})
    w = DgAlgebra(ChainComplex({0: 1}), "uLie",
                  {operads.BRACKET: {}, operads.ETA: {0: Fraction(1)}})
    rho = ChainMap(v.carrier, w.carrier, {0: RationalMatrix(1, 2, {(0, 1): 1})})
    em = envelope_map(rho, v, w, 4)
    for n in range(5):
        assert is_quasi_iso(em.stage_chain_map(n)), n

    # the non-quasi-iso line inclusion fails at stage 2 with a dimension witness
    line = DgAlgebra(ChainComplex({0: 2}), "uLie",
                     {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})
    plane2 = DgAlgebra(ChainComplex({0: 3}), "uLie",
                       {operads.BRACKET: {}, operads.ETA: {2: Fraction(1)}})
    incl = ChainMap(line.carrier, plane2.carrier,
                    {0: RationalMatrix(3, 2, {(0, 0): 1, (2, 1): 1})})
    em2 = envelope_map(incl, line, plane2, 2)
    stage2 = em2.stage_chain_map(2)
    assert homology_dim(stage2.source, 0) == 3
    assert homology_dim(stage2.target, 0) == 6
    assert not is_quasi_iso(stage2)
    report(8, "envelope stages of a quasi-iso are quasi-isos (n<=4); "
              "line-into-plane fails at stage 2 with dims 3 vs 6")


def test_criterion_09_chern_simons_homology():
    start = time.perf_counter()
    assert homology_dims(cs_complex(tetrahedron_sphere())) == {-1: 1, 1: 1}
    assert homology_dims(cs_complex(grid_torus())) == {-1: 1, 0: 2, 1: 1}
    assert homology_dims(cs_complex(one_triangle_disk())) == {-1: 1}
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"CS homology took {elapsed:.2f}s"
    report(9, f"CS homology (1,0,1)/(1,2,1)/(1,0,0) ({elapsed:.2f}s < 2s)")


def test_criterion_10_quantized_chern_simons_relations():
    t = grid_torus()
    p = pairing(t)
    env = ccr(p, 2)
    embed = heisenberg_embedding(p, env.source)

    tris = t.cochains[-1]
    edges = t.cochains[0]
    tidx = {tri: i for i, tri in enumerate(tris)}
    eidx = {e: i for i, e in enumerate(edges)}

    # d C = 0 on every 2-cochain generator
    for ptri in range(18):
        assert env.differential(env.generator(ptri)) == {}
    # d A(alpha) = C(-delta alpha) on every 1-cochain generator
    for e, col in eidx.items():
        expected = {}
        for tri, row in tidx.items():
            a, b, c = tri
            coeff = {(b, c): 1, (a, c): -1, (a, b): 1}.get(e)
            if coeff:
                expected[(row,)] = Fraction(-coeff)
        assert env.differential(env.generator(18 + col)) == expected
    # d B(beta) = A(-delta beta) on every 0-cochain generator
    for v in range(9):
        expected = {}
        for e, col in eidx.items():
            if v == e[0]:
                expected[(18 + col,)] = Fraction(1)
            elif v == e[1]:
                expected[(18 + col,)] = Fraction(-1)
        assert env.differential(env.generator(45 + v)) == expected

    # [A(a*), A(b*)] = +1 with the shipped orientation
    a_star = {18 + eidx[e]: Fraction(1)
              for e in ((0, 6), (1, 7), (2, 8), (1, 6), (2, 7), (0, 8))}
    b_spec = {(0, 2): -1, (3, 5): -1, (6, 8): -1, (2, 3): 1, (5, 6): 1, (0, 8): -1}
    b_star = {18 + eidx[e]: Fraction(c) for e, c in b_spec.items()}
    x = {(k,): v for k, v in a_star.items()}
    y = {(k,): v for k, v in b_star.items()}
    comm = env.commutator(x, y)
    assert comm == pbw_unit()

    # d squared zero and Leibniz on the full truncated algebra
    stage = env.stage_complex()
    assert validate_complex(stage) == []
    gens = env.monomials(1)
    for w1 in gens:
        for w2 in gens:
            if len(w1) + len(w2) > 2:
                continue
            xx, yy = {w1: Fraction(1)}, {w2: Fraction(1)}
            sign = -1 if env.word_degree(w1) % 2 else 1
            lhs = env.differential(env.multiply(xx, yy))
            rhs = pbw_add(env.multiply(env.differential(xx), yy),
                          pbw_scale(sign, env.multiply(xx, env.differential(yy))))
            assert lhs == rhs
    report(10, "torus n=2: differential relations, [A(a*),A(b*)] = 1, d^2 = 0, Leibniz")


def test_criterion_11_complex_module_properties():
    start = time.perf_counter()
    rng = Random(1111)
    complexes = [random_complex(rng, max_total=12) for _ in range(100)]
    for c in complexes:
        assert validate_complex(c) == []
        chi = c.euler_characteristic()
        assert chi == sum((-1) ** n * d for n, d in homology_dims(c).items())
    for k in range(0, 100, 2):
        c, d = complexes[k], complexes[k + 1]
        t = tensor(c, d)
        hc, hd, ht = homology_dims(c), homology_dims(d), homology_dims(t)
        degrees = {p + q for p in hc for q in hd} | set(ht)
        for n in degrees:
            assert ht.get(n, 0) == sum(hc.get(p, 0) * hd.get(n - p, 0) for p in hc)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"complex properties took {elapsed:.2f}s"
    report(11, f"Euler and Kunneth identities on 100 random complexes "
               f"({elapsed:.2f}s < 30s)")


def test_criterion_12_cli_determinism():
    jobs = [
        ["validate", str(DATA / "circle_complex.json")],
        ["validate", str(DATA / "plane_presymplectic.json")],
        ["validate", str(DATA / "abelian_line_algebra.json")],
        ["validate", str(DATA / "toy3_theory.json")],
        ["homology", str(DATA / "circle_complex.json")],
        ["envelope-dims", "--algebra", str(DATA / "abelian_line_algebra.json"), "--n", "4"],
        ["ccr", str(DATA / "plane_presymplectic.json"), "--n", "2"],
        ["check-causality", str(DATA / "toy3_theory.json")],
        ["quantize", str(DATA / "toy3_theory.json"), "--n", "2"],
        ["check-w", str(DATA / "toy3_theory.json"), "--mode", "homotopy", "--w", "f1,f2"],
        ["cs", "homology", str(DATA / "tetra_sphere.json")],
        ["cs", "homology", str(DATA / "torus9.json")],
        ["cs", "homology", str(DATA / "disk1.json")],
        ["cs", "homology", str(DATA / "annulus2.json")],
        ["cs", "homology", str(DATA / "annulus3.json")],
        ["cs", "pairing", str(DATA / "torus9.json")],
        ["cs", "quantize", str(DATA / "annulus2.json"), "--n", "2"],
    ]
    for job in jobs:
        runs = [subprocess.run([sys.executable, "-m", "opfield.cli", *job],
                               capture_output=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout, job
        assert runs[0].returncode == runs[1].returncode, job
    report(12, f"byte-identical CLI reports across repeated runs ({len(jobs)} commands)")
