from fractions import Fraction
from random import Random

import pytest

from opfield import operads
from opfield.algebras import (DgAlgebra, PresymplecticComplex,
                              commutator_functor, heisenberg, heisenberg_map,
                              is_algebra_morphism, validate_algebra)
from opfield.complexes import ChainComplex, ChainMap
from opfield.errors import StructuralError
from opfield.exact import RationalMatrix

from support import (dual_numbers, exterior_line, matrix_algebra,
                     random_presymplectic, truncated_polynomial,
                     truncated_poisson_algebra)


def symplectic_plane():
    return PresymplecticComplex(ChainComplex({0: 2}), {(0, 1): 1, (1, 0): -1})


# -- validation ------------------------------------------------------------------

def test_matrix_algebra_is_valid():
    assert validate_algebra(matrix_algebra(2)) == []


def test_truncated_poisson_algebra_is_valid():
    assert validate_algebra(truncated_poisson_algebra()) == []


def test_dg_exterior_algebra_is_valid():
    assert validate_algebra(exterior_line(1)) == []


def test_planted_jacobi_defect_is_reported():
    g = commutator_functor(matrix_algebra(2))
    bracket = dict(g.structure[operads.BRACKET])
    bracket[(0, 1)] = {1: Fraction(2)}  # [E11, E12] corrupted to 2 E12
    bad = DgAlgebra(g.carrier, "uLie",
                    {operads.BRACKET: bracket, operads.ETA: dict(g.structure[operads.ETA])})
    report = validate_algebra(bad)
    assert any("Jacobi" in line or "antisymmetry" in line for line in report)


def test_non_derivation_differential_is_reported():
    # d(x) = 1 on Q[x]/(x^2) with x in degree 1 would be fine, but placing x
    # in degree 0 cannot carry a differential; instead corrupt the dg
    # exterior algebra by doubling d on the odd generator only in mu's checks
    a = exterior_line(1)
    carrier = ChainComplex({0: 1, 1: 1}, {1: RationalMatrix(1, 1, {(0, 0): Fraction(2)})})
    # same structure constants but a rescaled differential: Leibniz still
    # holds (both sides scale), so instead corrupt the unit into a non-cycle
    b = DgAlgebra(carrier, "As", {operads.MU: dict(a.structure[operads.MU]),
                                  operads.ETA: {1: Fraction(1)}})
    report = validate_algebra(b)
    assert any("unit vector is not a cycle" in line for line in report)


def test_structure_indices_are_checked_against_the_carrier():
    carrier = ChainComplex({0: 2})
    for structure, message in [
        ({operads.BRACKET: {(0, 9): {0: 1}}}, "bracket entry (0, 9): input index 9 >= dim 2"),
        ({operads.BRACKET: {(0, 1): {7: 1}}}, "bracket entry (0, 1): output index 7 >= dim 2"),
        ({operads.BRACKET: {(0,): {1: 1}}}, "bracket entry (0,) has 1 inputs, expected 2"),
        ({operads.ETA: {-1: 1}}, "eta entry (): output index -1 < 0"),
    ]:
        with pytest.raises(StructuralError) as err:
            DgAlgebra(carrier, "uLie", structure)
        assert str(err.value) == message


# -- commutator functor -------------------------------------------------------------

def test_commutator_functor_on_matrices():
    g = commutator_functor(matrix_algebra(2))
    assert g.kind == "uLie"
    assert validate_algebra(g) == []
    # [E12, E21] = E11 - E22
    cell = g.structure[operads.BRACKET][(1, 2)]
    assert cell == {0: Fraction(1), 3: Fraction(-1)}


def test_commutator_functor_on_commutative_input_is_abelian():
    g = commutator_functor(truncated_polynomial(3))
    assert g.structure[operads.BRACKET] == {}


def test_commutator_functor_graded_sign():
    # one odd generator x with x * x = 0: [x, x] = xx + xx = 0
    g = commutator_functor(exterior_line(0))
    assert (1, 1) not in g.structure[operads.BRACKET]
    assert validate_algebra(g) == []


def test_commutator_functor_requires_as():
    with pytest.raises(StructuralError):
        commutator_functor(commutator_functor(matrix_algebra(2)))


def test_commutator_functor_preserves_chain_maps():
    a = matrix_algebra(2)
    ga = commutator_functor(a)
    f = ChainMap.identity(a.carrier)
    assert is_algebra_morphism(f, ga, ga) == []


# -- presymplectic complexes ----------------------------------------------------------

def test_plane_is_presymplectic():
    assert symplectic_plane().validate() == []


def test_antisymmetry_violation_detected():
    p = PresymplecticComplex(ChainComplex({0: 2}), {(0, 1): 1, (1, 0): 1})
    assert any("antisymmetric" in line for line in p.validate())


def test_omega_chain_condition_detected():
    # d(y) = e1 while omega(e2, e1) != 0, so omega(e2, dy) != 0 = omega(de2, y)
    carrier = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix(2, 1, {(0, 0): 1})})
    p = PresymplecticComplex(carrier, {(0, 1): 1, (1, 0): -1})
    assert any("chain map" in line for line in p.validate())


def test_omega_entries_must_have_total_degree_zero():
    with pytest.raises(StructuralError):
        PresymplecticComplex(ChainComplex({0: 1, 1: 1}), {(0, 1): 1})


def test_random_presymplectic_samples_are_valid():
    rng = Random(31)
    for _ in range(10):
        p = random_presymplectic(rng)
        assert p.validate() == []


# -- Heisenberg construction ------------------------------------------------------------

def test_heisenberg_of_zero_pairing_is_abelian():
    p = PresymplecticComplex(ChainComplex({0: 2}), {})
    h = heisenberg(p)
    assert h.structure[operads.BRACKET] == {}
    assert validate_algebra(h) == []


def test_heisenberg_of_plane():
    h = heisenberg(symplectic_plane())
    assert h.carrier.dims == {0: 3}
    assert h.unit_direction() == (2, Fraction(1))
    assert h.structure[operads.BRACKET][(0, 1)] == {2: Fraction(1)}
    assert validate_algebra(h) == []


def test_heisenberg_of_zero_complex_is_ground_field():
    p = PresymplecticComplex(ChainComplex({}), {})
    h = heisenberg(p)
    assert h.carrier.dims == {0: 1}
    assert validate_algebra(h) == []


def test_heisenberg_of_random_presymplectic_is_valid():
    rng = Random(37)
    for _ in range(5):
        h = heisenberg(random_presymplectic(rng))
        assert validate_algebra(h) == []


def _pairing_preserving_rotation():
    """(e1, e2) -> (e2, -e1) preserves omega of the plane."""
    p = symplectic_plane()
    f = ChainMap(p.carrier, p.carrier,
                 {0: RationalMatrix.from_rows([[0, -1], [1, 0]])})
    return p, f


def test_heisenberg_functorial_on_pairing_maps():
    p, f = _pairing_preserving_rotation()
    h = heisenberg(p)
    hf = heisenberg_map(f, h, h)
    assert is_algebra_morphism(hf, h, h) == []
    # H(f . f) = H(f) . H(f) and H(id) = id
    ff = ChainMap(p.carrier, p.carrier, {0: f.component(0) @ f.component(0)})
    assert heisenberg_map(ff, h, h) == hf.compose(hf)
    assert heisenberg_map(ChainMap.identity(p.carrier), h, h) == ChainMap.identity(h.carrier)


def test_heisenberg_map_rejects_unitless_targets():
    p, f = _pairing_preserving_rotation()
    h = heisenberg(p)
    bare = DgAlgebra(p.carrier, "uLie", {operads.BRACKET: {}, operads.ETA: {}})
    with pytest.raises(StructuralError):
        heisenberg_map(f, h, bare)


def test_non_pairing_preserving_map_fails_morphism_check():
    p = symplectic_plane()
    h = heisenberg(p)
    f = ChainMap(p.carrier, p.carrier,
                 {0: RationalMatrix.from_rows([[2, 0], [0, 1]])})  # scales omega
    hf = heisenberg_map(f, h, h)
    assert is_algebra_morphism(hf, h, h) != []


# -- morphism checking ---------------------------------------------------------------

def test_unit_preservation_checked():
    a = dual_numbers()
    f = ChainMap(a.carrier, a.carrier, {0: RationalMatrix.from_rows([[1, 0], [0, 0]])})
    issues = is_algebra_morphism(f, a, a)
    assert issues == []  # kills epsilon: still an algebra map
    g = ChainMap(a.carrier, a.carrier, {0: RationalMatrix.from_rows([[0, 0], [0, 1]])})
    assert is_algebra_morphism(g, a, a) != []  # kills the unit
