import json
from fractions import Fraction
from pathlib import Path

import pytest

from opfield import operads
from opfield.algebras import DgAlgebra, PresymplecticComplex, heisenberg, heisenberg_map
from opfield.cherns import (SurfaceDiagram, SurfaceMorphism, build_bcs, octahedron_sphere,
                            one_triangle_disk)
from opfield.complexes import ChainComplex, ChainMap
from opfield.envelope import TruncatedEnvelope, pbw_unit
from opfield.errors import StructuralError
from opfield.exact import RationalMatrix
from opfield.fieldtheory import (FieldTheory, OrthCategory, OrthFunctor, _constancy_defect,
                                 _monomial_violations, check_causality, check_w_constancy,
                                 dequantize, orth_closure, pullback_theory,
                                 quantize, validate_functor)
from opfield.jsonio import theory_from_json

from support import jacobi_failing_theory_doc, matrix_algebra, truncated_polynomial

DATA = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data"


def plane(omega=1):
    return PresymplecticComplex(ChainComplex({0: 2}), {(0, 1): omega, (1, 0): -omega})


def block_theory():
    """Three objects c1, c2 -> c with block-diagonal Heisenberg algebras."""
    a1 = heisenberg(plane())
    a2 = heisenberg(plane())
    ac = heisenberg(PresymplecticComplex(
        ChainComplex({0: 4}), {(0, 1): 1, (1, 0): -1, (2, 3): 1, (3, 2): -1}))
    cat = OrthCategory(["c", "c1", "c2"], {"f1": ("c1", "c"), "f2": ("c2", "c")},
                       {}, orth=[("f1", "f2")])
    act1 = ChainMap(a1.carrier, ac.carrier,
                    {0: RationalMatrix(5, 3, {(0, 0): 1, (1, 1): 1, (4, 2): 1})})
    act2 = ChainMap(a2.carrier, ac.carrier,
                    {0: RationalMatrix(5, 3, {(2, 0): 1, (3, 1): 1, (4, 2): 1})})
    return FieldTheory(cat, "uLie", {"c1": a1, "c2": a2, "c": ac},
                       {"f1": act1, "f2": act2})


# -- orthogonal categories ---------------------------------------------------------

def test_category_validation_passes_on_composable_chain():
    cat = OrthCategory(["a", "b", "c"],
                       {"f": ("a", "b"), "g": ("b", "c"), "gf": ("a", "c")},
                       {("g", "f"): "gf"})
    assert cat.validate() == []


def test_missing_composite_is_reported():
    cat = OrthCategory(["a", "b", "c"], {"f": ("a", "b"), "g": ("b", "c")}, {})
    assert any("no entry" in issue for issue in cat.validate())


def test_orth_requires_common_target():
    with pytest.raises(StructuralError):
        OrthCategory(["a", "b"], {"f": ("a", "b"), "g": ("b", "a")}, {},
                     orth=[("f", "g")])


def test_orth_closure_empty():
    cat = OrthCategory(["a"], {}, {})
    assert orth_closure([], cat) == set()


def test_orth_closure_adds_symmetry_only():
    cat = block_theory().base
    closed = orth_closure([("f1", "f2")], cat)
    assert closed == {("f1", "f2"), ("f2", "f1")}


def test_orth_closure_adds_postcomposition():
    cat = OrthCategory(
        ["a", "b", "c"],
        {"f1": ("a", "b"), "f2": ("a", "b"), "g": ("b", "c"),
         "gf1": ("a", "c"), "gf2": ("a", "c")},
        {("g", "f1"): "gf1", ("g", "f2"): "gf2"})
    closed = orth_closure([("f1", "f2")], cat)
    assert ("gf1", "gf2") in closed
    assert orth_closure(closed, cat) == closed  # idempotent


def test_stability_validation_detects_missing_pairs():
    cat = OrthCategory(
        ["a", "b", "c"],
        {"f1": ("a", "b"), "f2": ("a", "b"), "g": ("b", "c"),
         "gf1": ("a", "c"), "gf2": ("a", "c")},
        {("g", "f1"): "gf1", ("g", "f2"): "gf2"},
        orth=[("f1", "f2")])
    assert any("composition-stable" in issue for issue in cat.validate())


# -- causality ----------------------------------------------------------------------

def test_all_brackets_zero_passes_vacuously():
    a = DgAlgebra(ChainComplex({0: 2}), "uLie",
                  {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})
    cat = OrthCategory(["c"], {"e": ("c", "c")}, {("e", "e"): "e"}, orth=[("e", "e")])
    ft = FieldTheory(cat, "uLie", {"c": a}, {"e": ChainMap.identity(a.carrier)})
    assert validate_functor(ft) == []
    assert check_causality(ft) == []


def test_block_diagonal_heisenberg_passes():
    ft = block_theory()
    assert validate_functor(ft) == []
    assert check_causality(ft) == []


def test_planted_noncommuting_images_are_witnessed():
    # x -> E12 and y -> E21 do not commute in 2x2 matrices
    mat = matrix_algebra(2)
    line = DgAlgebra(ChainComplex({0: 2}), "As", {
        operads.MU: {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
                     (1, 0): {1: Fraction(1)}},
        operads.ETA: {0: Fraction(1)},
    })  # Q[x]/(x^2)
    cat = OrthCategory(["c", "c1", "c2"], {"f1": ("c1", "c"), "f2": ("c2", "c")},
                       {}, orth=[("f1", "f2")])
    act1 = ChainMap(line.carrier, mat.carrier,
                    {0: RationalMatrix(4, 2, {(0, 0): 1, (3, 0): 1, (1, 1): 1})})
    act2 = ChainMap(line.carrier, mat.carrier,
                    {0: RationalMatrix(4, 2, {(0, 0): 1, (3, 0): 1, (2, 1): 1})})
    ft = FieldTheory(cat, "As", {"c1": line, "c2": line, "c": mat},
                     {"f1": act1, "f2": act2})
    assert validate_functor(ft) == []
    violations = check_causality(ft)
    assert violations
    assert violations[0].pair == ("f1", "f2")


# -- quantization --------------------------------------------------------------------

def test_quantize_single_object_gives_weyl_truncation():
    a = heisenberg(plane())
    cat = OrthCategory(["c"], {}, {})
    ft = FieldTheory(cat, "uLie", {"c": a}, {})
    qft = quantize(ft, 2)
    env = qft.envelopes["c"]
    assert len(env.monomials()) == 6
    e1, e2 = env.generator(0), env.generator(1)
    assert env.commutator(e1, e2) == pbw_unit()


def test_quantize_block_theory_passes_causality():
    lft = block_theory()
    qft = quantize(lft, 3)
    assert qft.truncation == 3
    assert qft.action["f1"] is lft.action["f1"]
    assert qft.envelopes["c"].source is lft.algebra("c")
    assert validate_functor(qft) == []
    assert check_causality(qft) == []


def test_quantize_abelian_theory_is_commutative():
    a = DgAlgebra(ChainComplex({0: 3}), "uLie",
                  {operads.BRACKET: {}, operads.ETA: {2: Fraction(1)}})
    cat = OrthCategory(["c"], {}, {})
    qft = quantize(FieldTheory(cat, "uLie", {"c": a}, {}), 3)
    env = qft.envelopes["c"]
    for i in range(2):
        for j in range(2):
            assert env.commutator(env.generator(i), env.generator(j)) == {}


def test_quantize_requires_ulie():
    mat = matrix_algebra(2)
    cat = OrthCategory(["c"], {}, {})
    ft = FieldTheory(cat, "As", {"c": mat}, {})
    with pytest.raises(StructuralError):
        quantize(ft, 2)


def crossed_theory():
    """block_theory with f2 sending x -> e1 + e2, y -> -e0: a unital Lie map
    whose image does not commute with f1's first block."""
    ft = block_theory()
    act2 = ChainMap(ft.algebra("c2").carrier, ft.algebra("c").carrier,
                    {0: RationalMatrix(5, 3, {(1, 0): 1, (2, 0): 1, (0, 1): -1, (4, 2): 1})})
    return FieldTheory(ft.base, "uLie", ft.assignment, {"f1": ft.action["f1"], "f2": act2})


# (pair, (u, v), graded commutator of their images) for every failing monomial
# pair at truncation 3
CROSSED_VIOLATIONS_N3 = [
    (("f1", "f2"), ((0,), (0,)), {(): 1}),
    (("f1", "f2"), ((0,), (0, 0)), {(1,): 2, (2,): 2}),
    (("f1", "f2"), ((0,), (0, 1)), {(0,): -1}),
    (("f1", "f2"), ((1,), (1,)), {(): 1}),
    (("f1", "f2"), ((1,), (0, 1)), {(1,): 1, (2,): 1}),
    (("f1", "f2"), ((1,), (1, 1)), {(0,): -2}),
    (("f1", "f2"), ((0, 0), (0,)), {(0,): 2}),
    (("f1", "f2"), ((0, 1), (0,)), {(1,): 1}),
    (("f1", "f2"), ((0, 1), (1,)), {(0,): 1}),
    (("f1", "f2"), ((1, 1), (1,)), {(1,): 2}),
    (("f2", "f1"), ((0,), (0,)), {(): -1}),
    (("f2", "f1"), ((0,), (0, 0)), {(0,): -2}),
    (("f2", "f1"), ((0,), (0, 1)), {(1,): -1}),
    (("f2", "f1"), ((1,), (1,)), {(): -1}),
    (("f2", "f1"), ((1,), (0, 1)), {(0,): -1}),
    (("f2", "f1"), ((1,), (1, 1)), {(1,): -2}),
    (("f2", "f1"), ((0, 0), (0,)), {(1,): -2, (2,): -2}),
    (("f2", "f1"), ((0, 1), (0,)), {(0,): 1}),
    (("f2", "f1"), ((0, 1), (1,)), {(1,): -1, (2,): -1}),
    (("f2", "f1"), ((1, 1), (1,)), {(0,): 2}),
]


def test_quantized_causality_failure_is_witnessed_on_monomial_pairs():
    lft = crossed_theory()
    assert validate_functor(lft) == []
    qft = quantize(lft, 3, check=False)
    found = [(v.pair, v.witness, v.discrepancy) for v in check_causality(qft)]
    assert found == CROSSED_VIOLATIONS_N3
    with pytest.raises(AssertionError, match="quantization broke causality"):
        quantize(lft, 3)


def odd_crossed_theory():
    """Heisenberg algebra of b (degree -1), p, q (degree 0) and a (degree 1),
    with omega(a, b) = omega(p, q) = 1, on four objects; f1 is the identity,
    f2 the pairing-preserving b -> b/2, p -> p + q, a -> 2a, f3 the map
    b -> -b, q -> q + p, a -> -a.  The orthogonal images contain odd
    generators that do not graded-commute, and f3 is orthogonal to itself."""
    carrier = ChainComplex({-1: 1, 0: 2, 1: 1})
    h = heisenberg(PresymplecticComplex(carrier, {(3, 0): 1, (0, 3): 1, (1, 2): 1, (2, 1): -1}))
    maps = {"f1": {-1: [[1]], 0: [[1, 0], [0, 1]], 1: [[1]]},
            "f2": {-1: [[Fraction(1, 2)]], 0: [[1, 0], [1, 1]], 1: [[2]]},
            "f3": {-1: [[-1]], 0: [[1, 1], [0, 1]], 1: [[-1]]}}
    cat = OrthCategory(["c", "c1", "c2", "c3"],
                       {f: (f"c{f[1]}", "c") for f in maps}, {},
                       orth=[("f1", "f2"), ("f3", "f1"), ("f3", "f3")])
    actions = {f: heisenberg_map(ChainMap(carrier, carrier, {n: RationalMatrix.from_rows(rows)
                                                             for n, rows in comps.items()}), h, h)
               for f, comps in maps.items()}
    return FieldTheory(cat, "uLie", {obj: h for obj in cat.objects}, actions)


def per_order_monomial_violations(qft):
    """Reference: every ordered orthogonal pair evaluated on its own."""
    n = qft.truncation
    out = []
    for f1, f2 in sorted(qft.base.orth):
        env_c = qft.envelopes[qft.base.target(f1)]
        words1 = qft.envelopes[qft.base.source(f1)].monomials(n - 1)
        images1 = qft.envelope_maps[f1].apply_words(words1)
        images2 = [(v, y) for v, y in qft.envelope_maps[f2].apply_words(
            qft.envelopes[qft.base.source(f2)].monomials(n - 1)).items() if v]
        for u in words1[1:]:
            for v, y in images2:
                if len(u) + len(v) > n:
                    continue
                comm = env_c.commutator(images1[u], y)
                if comm:
                    out.append(((f1, f2), (u, v), comm))
    return out


def toy3_theory():
    return theory_from_json(json.loads((DATA / "toy3_theory.json").read_text()))


def two_disks_theory():
    """Chern-Simons theory of two disjoint triangles in the octahedron."""
    disk, octa = one_triangle_disk(), octahedron_sphere()
    return build_bcs(SurfaceDiagram(
        {"disk": disk, "sphere": octa},
        {"f1": ("disk", "sphere", SurfaceMorphism(disk, octa, [0, 1, 2])),
         "f2": ("disk", "sphere", SurfaceMorphism(disk, octa, [5, 4, 3]))}))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mirrored_causality_matches_per_order_check(n):
    # every target satisfies the uLie relations, so a pair is settled by its
    # generator images unless they fail to commute, as in the crossed
    # theories from n = 2 on; at n = 1 no monomial pair fits
    odd = odd_crossed_theory()
    assert validate_functor(odd) == []
    for lft in (crossed_theory(), toy3_theory(), two_disks_theory(), odd):
        assert all(operads.check_relations(a.presentation, a) == [] for a in lft.assignment.values())
        qft = quantize(lft, n, check=False)
        found = [(v.pair, v.witness, v.discrepancy) for v in check_causality(qft)]
        assert found == per_order_monomial_violations(qft)
        assert found == [] or n > 1
    if n == 1:
        return
    # the sign (-1)^(|u||v|) is exercised: odd-odd witnesses fail on the mirrored pairs
    env = qft.envelopes["c"]
    odd_pairs = {v.pair for v in check_causality(qft)
                 if env.word_degree(v.witness[0]) * env.word_degree(v.witness[1]) % 2}
    assert {("f1", "f2"), ("f2", "f1"), ("f1", "f3"), ("f3", "f1"), ("f3", "f3")} <= odd_pairs


def test_causality_falls_back_to_the_exhaustive_check_when_jacobi_fails():
    lft = theory_from_json(jacobi_failing_theory_doc())
    a_c = lft.algebra("c")
    assert {v.relation for v in operads.check_relations(a_c.presentation, a_c)} == {"Jacobi"}
    assert check_causality(lft) == []
    for n in (1, 2, 3, 4):
        qft = quantize(lft, n, check=False)
        assert _monomial_violations(qft, "f1", "f2", min(2, n)) == ([], [])
        found = [(v.pair, v.witness, v.discrepancy) for v in check_causality(qft)]
        assert found == per_order_monomial_violations(qft)
        assert bool(found) == (n >= 3)


def test_quantized_toy3_computes_only_generator_commutators(monkeypatch):
    calls = []
    commutator = TruncatedEnvelope.commutator

    def counted(self, x, y):
        calls.append((x, y))
        return commutator(self, x, y)

    monkeypatch.setattr(TruncatedEnvelope, "commutator", counted)
    qft = quantize(toy3_theory(), 13)
    generator_pairs = sum(len(qft.envelopes[qft.base.source(f1)].gens)
                          * len(qft.envelopes[qft.base.source(f2)].gens)
                          for f1, f2 in qft.base.orth if f1 <= f2)
    assert generator_pairs == 4
    assert 0 < len(calls) <= generator_pairs


# -- dequantization ------------------------------------------------------------------

def test_dequantize_matrix_theory():
    mat = matrix_algebra(2)
    cat = OrthCategory(["c"], {}, {})
    ft = FieldTheory(cat, "As", {"c": mat}, {})
    lft = dequantize(ft)
    assert lft.kind == "uLie"
    assert lft.algebra("c").structure[operads.BRACKET][(1, 2)] \
        == {0: Fraction(1), 3: Fraction(-1)}
    assert validate_functor(lft) == []


def test_dequantize_commutative_theory_is_abelian():
    cat = OrthCategory(["c"], {}, {})
    ft = FieldTheory(cat, "As", {"c": truncated_polynomial(3)}, {})
    assert dequantize(ft).algebra("c").structure[operads.BRACKET] == {}


def test_unit_of_adjunction_on_generators():
    # quantizing and taking commutators of generators returns the bracket
    lft = block_theory()
    qft = quantize(lft, 2)
    for obj in lft.base.objects:
        v = lft.algebra(obj)
        env = qft.envelopes[obj]
        for i_pos, i in enumerate(env.gens):
            for j_pos, j in enumerate(env.gens):
                comm = env.commutator(env.generator(i_pos), env.generator(j_pos))
                bracket = env.from_source_element(v.apply_generator(
                    operads.BRACKET, [v.basis_element(i), v.basis_element(j)]))
                assert comm == bracket


# -- W-constancy ----------------------------------------------------------------------

def test_identities_are_always_w_constant():
    ft = block_theory()
    for mode in ("strict", "homotopy"):
        reports = check_w_constancy(ft, ["id_c", "id_c1"], mode)
        assert all(r.ok for r in reports)


def test_homotopy_mode_reports_homology_mismatch():
    small = DgAlgebra(ChainComplex({0: 2}), "uLie",
                      {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})
    big = DgAlgebra(ChainComplex({0: 3}), "uLie",
                    {operads.BRACKET: {}, operads.ETA: {2: Fraction(1)}})
    cat = OrthCategory(["a", "b"], {"f": ("a", "b")}, {})
    act = ChainMap(small.carrier, big.carrier,
                   {0: RationalMatrix(3, 2, {(0, 0): 1, (2, 1): 1})})
    ft = FieldTheory(cat, "uLie", {"a": small, "b": big}, {"f": act})
    assert validate_functor(ft) == []
    reports = check_w_constancy(ft, ["f"], "homotopy")
    assert not reports[0].ok
    assert "homology dims differ in degree 0" in reports[0].witness


def test_homotopy_mode_reports_a_map_that_is_zero_on_homology():
    # equal homology dimensions, so only the quasi-isomorphism test can fail
    circle = ChainComplex({0: 2, 1: 2}, {1: RationalMatrix.from_rows([[-1, 1], [1, -1]])})
    zero = ChainMap.zero(circle, circle)
    assert _constancy_defect(zero, "homotopy") == "induced homology map not invertible"
    assert _constancy_defect(zero, "strict") == "degree 0: action matrix not invertible"
    assert _constancy_defect(ChainMap.identity(circle), "homotopy") == ""


def quarter_turn(a):
    """x -> y, y -> -x on a Heisenberg plane, fixing the unit: a unital Lie map."""
    return ChainMap(a.carrier, a.carrier, {0: RationalMatrix.from_rows(
        [[0, -1, 0], [1, 0, 0], [0, 0, 1]])})


def rotation_theory():
    """Two objects joined by an invertible pairing-preserving action."""
    a = heisenberg(plane())
    cat = OrthCategory(["a", "b"], {"f": ("a", "b")}, {})
    return FieldTheory(cat, "uLie", {"a": a, "b": a}, {"f": quarter_turn(a)})


def test_strict_constancy_preserved_by_quantization():
    ft = rotation_theory()
    assert all(r.ok for r in check_w_constancy(ft, ["f"], "strict"))
    qft = quantize(ft, 4)
    reports = check_w_constancy(qft, ["f"], "strict")
    assert all(r.ok for r in reports)


def test_strict_mode_fails_on_non_invertible_action():
    ft = rotation_theory()
    sq = ChainMap(ft.algebra("a").carrier, ft.algebra("a").carrier,
                  {0: RationalMatrix(3, 3, {(2, 2): 1})})
    ft2 = FieldTheory(ft.base, "uLie", dict(ft.assignment), {"f": sq})
    reports = check_w_constancy(ft2, ["f"], "strict")
    assert not reports[0].ok


def test_componentwise_quasi_iso_transformation_quantizes_stagewise():
    """A transformation of linear theories whose components are quasi-isos
    stays a componentwise quasi-iso on every filtration stage after
    quantization."""
    from opfield.complexes import is_quasi_iso
    from opfield.envelope import envelope_map

    carrier = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix(2, 1, {(0, 0): 1})})
    big = DgAlgebra(carrier, "uLie", {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})
    small = DgAlgebra(ChainComplex({0: 1}), "uLie",
                      {operads.BRACKET: {}, operads.ETA: {0: Fraction(1)}})
    cat = OrthCategory(["a", "b"], {"f": ("a", "b")}, {})
    ident = ChainMap.identity(big.carrier)
    theory1 = FieldTheory(cat, "uLie", {"a": big, "b": big}, {"f": ident})
    theory2 = FieldTheory(cat, "uLie", {"a": small, "b": small},
                          {"f": ChainMap.identity(small.carrier)})
    component = ChainMap(big.carrier, small.carrier,
                         {0: RationalMatrix(1, 2, {(0, 1): 1})})
    # naturality squares commute (identities on both sides)
    for m in ("f",):
        lhs = component.compose(theory1.action[m])
        rhs = theory2.action[m].compose(component)
        assert lhs == rhs
    assert is_quasi_iso(component)
    n_max = 3
    for obj in cat.objects:
        em = envelope_map(component, theory1.algebra(obj), theory2.algebra(obj), n_max)
        for n in range(n_max + 1):
            assert is_quasi_iso(em.stage_chain_map(n))


# -- invalid actions -------------------------------------------------------------------

@pytest.mark.parametrize("n_max", [None, 2])
def test_identity_action_that_moves_generators_is_reported(n_max):
    a = heisenberg(plane())
    ft = FieldTheory(OrthCategory(["c"], {}, {}), "uLie", {"c": a}, {"id_c": quarter_turn(a)})
    if n_max is not None:
        ft = quantize(ft, n_max)
    assert validate_functor(ft) == ["identity action on c is not the identity"]


@pytest.mark.parametrize("n_max", [None, 2])
def test_wrong_composite_action_is_reported(n_max):
    a = heisenberg(plane())
    cat = OrthCategory(["a", "b", "c"], {"f": ("a", "b"), "g": ("b", "c"), "gf": ("a", "c")},
                       {("g", "f"): "gf"})
    turn = quarter_turn(a)  # turn after turn is -1 on the plane, not the identity
    ft = FieldTheory(cat, "uLie", {"a": a, "b": a, "c": a},
                     {"f": turn, "g": turn, "gf": ChainMap.identity(a.carrier)})
    if n_max is not None:
        ft = quantize(ft, n_max)
    assert validate_functor(ft) == ["functoriality fails: action(gf) != action(g).action(f)"]


def test_constructor_rejects_actions_of_the_other_kind():
    # envelope maps are built by a quantized theory, never passed in
    lft = rotation_theory()
    envelope_map = quantize(lft, 2).envelope_maps["f"]
    for kind, n_max in (("uLie", None), ("As", 2)):
        with pytest.raises(StructuralError, match="action f: expected a chain map"):
            FieldTheory(lft.base, kind, lft.assignment, {"f": envelope_map}, truncation=n_max)


def test_constructor_rejects_algebras_that_are_not_dg_algebras():
    lft = rotation_theory()
    envelopes = quantize(lft, 2).envelopes
    with pytest.raises(StructuralError, match="algebra on a: expected a dg algebra"):
        FieldTheory(lft.base, "As", envelopes, lft.action, truncation=2)


def test_quantized_construction_over_an_associative_algebra_is_refused():
    cat = OrthCategory(["c"], {}, {})
    with pytest.raises(StructuralError, match="envelope expects a unital Lie algebra"):
        FieldTheory(cat, "As", {"c": matrix_algebra(2)}, {}, truncation=2)


def test_quantized_theory_shares_its_linear_data():
    lft = rotation_theory()
    qft = quantize(lft, 2)
    for m in lft.base.morphisms:
        assert qft.action[m] is lft.action[m]
        assert qft.envelope_maps[m].rho is lft.action[m]
    for obj in lft.base.objects:
        assert qft.algebra(obj) is lft.algebra(obj)
        assert qft.envelopes[obj].source is lft.algebra(obj)
        assert qft.envelopes[obj].truncation == 2
    assert lft.envelopes == {} and lft.envelope_maps == {}


# -- pullbacks ------------------------------------------------------------------------

def test_pullback_along_identity():
    ft = block_theory()
    f = OrthFunctor(ft.base, ft.base,
                    {o: o for o in ft.base.objects},
                    {m: m for m in ft.base.morphisms})
    out = pullback_theory(f, ft)
    assert out.assignment == ft.assignment
    assert check_causality(out) == []


def test_pullback_along_full_subcategory():
    ft = block_theory()
    sub = OrthCategory(["c", "c1"], {"f1": ("c1", "c")}, {})
    f = OrthFunctor(sub, ft.base, {"c": "c", "c1": "c1"}, {"f1": "f1"})
    out = pullback_theory(f, ft)
    assert set(out.assignment) == {"c", "c1"}
    assert out.action["f1"] == ft.action["f1"]


def test_pullback_along_constant_functor():
    ft = block_theory()
    point = OrthCategory(["p"], {}, {})
    f = OrthFunctor(point, ft.base, {"p": "c"}, {})
    out = pullback_theory(f, ft)
    assert out.algebra("p") is ft.algebra("c")


def test_non_orthogonality_preserving_functor_rejected():
    base = block_theory().base
    src = OrthCategory(["c", "c1", "c2"],
                       {"f1": ("c1", "c"), "f2": ("c2", "c")}, {},
                       orth=[("f1", "f2")])
    tgt = OrthCategory(["c", "c1", "c2"],
                       {"f1": ("c1", "c"), "f2": ("c2", "c")}, {})  # no orth
    f = OrthFunctor(src, tgt, {o: o for o in src.objects},
                    {"f1": "f1", "f2": "f2"})
    ft = FieldTheory(tgt, "uLie", block_theory().assignment,
                     {m: block_theory().action[m] for m in ("f1", "f2")})
    with pytest.raises(StructuralError):
        pullback_theory(f, ft)
