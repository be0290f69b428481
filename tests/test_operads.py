from fractions import Fraction
from random import Random

import pytest

from opfield.algebras import element_scale
from opfield.errors import StructuralError
from opfield.operads import (BRACKET, ETA, MU, TreeSum, apply_morphism,
                             check_relations, commutator_sum,
                             format_tree, graft, koszul_sign, leaf,
                             morphism_preserves_pair, named_presentation,
                             node, parse_tree, perm_compose, permute,
                             phi_ulie_to_as, unit_tree, validate_tree)

from support import (basis_elements, element_degree, evaluate, gl_with_unit, matrix_algebra,
                     random_as_algebra)


def mu_tree():
    return node(MU, [leaf(1), leaf(2)])


def elem(i):
    return {i: Fraction(1)}


# -- grafting -----------------------------------------------------------------

def test_graft_unit_is_identity():
    t = node(BRACKET, [leaf(1), leaf(2)])
    assert graft(unit_tree(), [t]) == t
    assert graft(t, [unit_tree(), unit_tree()]) == t


def test_graft_right_unitality_tree():
    t = graft(mu_tree(), [node(ETA, []), unit_tree()])
    assert t == node(MU, [node(ETA, []), leaf(1)])


def test_graft_left_associated_tree():
    t = graft(mu_tree(), [mu_tree(), unit_tree()])
    assert t == node(MU, [node(MU, [leaf(1), leaf(2)]), leaf(3)])


def test_graft_relabels_by_blocks():
    # grafting into the second slot shifts inner labels past the first block
    t = graft(mu_tree(), [unit_tree(), mu_tree()])
    assert t == node(MU, [leaf(1), node(MU, [leaf(2), leaf(3)])])


def test_graft_arity_mismatch():
    with pytest.raises(StructuralError):
        graft(mu_tree(), [unit_tree()])


def test_graft_operadic_associativity():
    rng = Random(4)

    def shape(arity_budget):
        if arity_budget < 2 or rng.random() < 0.4:
            return unit_tree()
        left = rng.randint(1, arity_budget - 1)
        return node(MU, [shape(left), shape(arity_budget - left)])

    def renumber(t, counter=None):
        counter = counter if counter is not None else iter(range(1, t.arity + 1))
        if t.kind == "leaf":
            return leaf(next(counter))
        return node(t.gen, [renumber(ch, counter) for ch in t.children])

    def random_tree(arity_budget):
        t = renumber(shape(arity_budget))
        sigma = list(range(1, t.arity + 1))
        rng.shuffle(sigma)
        return permute(t, tuple(sigma))

    for _ in range(15):
        t = random_tree(rng.randint(1, 3))
        us = [random_tree(rng.randint(1, 2)) for _ in range(t.arity)]
        vs = [random_tree(rng.randint(1, 2)) for _ in range(sum(u.arity for u in us))]
        lhs = graft(graft(t, us), vs)
        pieces = []
        offset = 0
        inner = []
        for u in us:
            chunk = vs[offset:offset + u.arity]
            inner.append(graft(u, chunk))
            offset += u.arity
        rhs = graft(t, inner)
        assert lhs == rhs


# -- permutation action --------------------------------------------------------

def test_permute_identity():
    t = mu_tree()
    assert permute(t, (1, 2)) == t


def test_permute_swap_gives_antisymmetry_tree():
    b = node(BRACKET, [leaf(1), leaf(2)])
    swapped = permute(b, (2, 1))
    assert swapped == node(BRACKET, [leaf(2), leaf(1)])


def test_permute_double_swap():
    t = mu_tree()
    assert permute(permute(t, (2, 1)), (2, 1)) == t


def test_permute_composition_law():
    rng = Random(9)
    t = node(MU, [node(MU, [leaf(1), leaf(2)]), leaf(3)])
    for _ in range(10):
        sigma = list(range(1, 4))
        tau = list(range(1, 4))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        sigma, tau = tuple(sigma), tuple(tau)
        assert permute(permute(t, sigma), tau) == permute(t, perm_compose(sigma, tau))


def test_validate_tree_checks_labels():
    bad = node(MU, [leaf(1), leaf(1)])
    with pytest.raises(StructuralError):
        validate_tree(bad, named_presentation("As").alphabet)


# -- evaluation -----------------------------------------------------------------

def test_evaluate_unit_tree():
    a = matrix_algebra(2)
    x = elem(1)
    assert evaluate(unit_tree(), a, [x]) == x


def test_evaluate_mu_on_matrix_units():
    a = matrix_algebra(2)
    # E11 * E12 = E12 (basis order E11, E12, E21, E22)
    assert evaluate(mu_tree(), a, [elem(0), elem(1)]) == elem(1)


def test_evaluate_bracket_on_gl2():
    g = gl_with_unit(2)
    assert evaluate(node(BRACKET, [leaf(1), leaf(2)]), g, [elem(0), elem(1)]) == elem(1)


def test_koszul_sign_values():
    assert koszul_sign((1, 2), [1, 1]) == 1
    assert koszul_sign((2, 1), [1, 1]) == -1
    assert koszul_sign((2, 1), [1, 0]) == 1
    assert koszul_sign((3, 1, 2), [1, 1, 1]) == 1


def test_equivariance_with_koszul_signs():
    from opfield.algebras import DgAlgebra
    from opfield.complexes import ChainComplex

    # free graded "multiplication" tensor on mixed-degree basis
    rng = Random(13)
    carrier = ChainComplex({0: 1, 1: 2})
    mu = {}
    total = 3
    for i in range(total):
        for j in range(total):
            cell = {k: Fraction(rng.randint(-2, 2)) for k in range(total)}
            cell = {k: v for k, v in cell.items() if v}
            if cell:
                mu[(i, j)] = cell
    a = DgAlgebra(carrier, "As", {MU: mu, ETA: {0: Fraction(1)}})
    t = mu_tree()
    for sigma in [(1, 2), (2, 1)]:
        for i in range(total):
            for j in range(total):
                xs = [elem(i), elem(j)]
                lhs = evaluate(permute(t, sigma), a, xs)
                permuted = [xs[sigma[k] - 1] for k in range(2)]
                degs = [element_degree(a, x) or 0 for x in xs]
                sign = koszul_sign(sigma, degs)
                rhs = element_scale(sign, evaluate(t, a, permuted))
                assert lhs == rhs


# -- presentations and relation checking -----------------------------------------

def test_as_presentation_shape():
    p = named_presentation("As")
    assert len(p.alphabet.generators) == 2
    assert len(p.relations) == 3


def test_ulie_presentation_shape():
    p = named_presentation("uLie")
    assert len(p.alphabet.generators) == 2
    assert len(p.relations) == 3
    assert {r.name for r in p.relations} == {"antisymmetry", "Jacobi", "unit bracket"}


def test_pois_presentation_shape():
    p = named_presentation("Pois")
    assert len(p.alphabet.generators) == 3
    assert len(p.relations) == 8


def test_unknown_presentation():
    with pytest.raises(StructuralError):
        named_presentation("Frob")


def test_matrix_algebra_satisfies_as():
    assert check_relations(named_presentation("As"), matrix_algebra(2)) == []


def test_gl2_satisfies_ulie():
    assert check_relations(named_presentation("uLie"), gl_with_unit(2)) == []


def test_heisenberg_satisfies_ulie():
    from opfield.algebras import PresymplecticComplex, heisenberg
    from opfield.complexes import ChainComplex

    plane = PresymplecticComplex(ChainComplex({0: 2}), {(0, 1): 1, (1, 0): -1})
    assert check_relations(named_presentation("uLie"), heisenberg(plane)) == []


def test_planted_associativity_defect_is_witnessed():
    a = matrix_algebra(2)
    broken = dict(a.structure[MU])
    broken[(1, 2)] = {0: Fraction(1), 3: Fraction(1, 2)}  # E12 * E21 corrupted
    from opfield.algebras import DgAlgebra

    bad = DgAlgebra(a.carrier, "As", {MU: broken, ETA: dict(a.structure[ETA])})
    violations = check_relations(named_presentation("As"), bad)
    assert violations
    assert any(v.relation == "associativity" for v in violations)


# -- tree text format --------------------------------------------------------------

def test_format_and_parse_roundtrip():
    alphabet = named_presentation("As").alphabet
    t = node(MU, [node(ETA, []), node(MU, [leaf(2), leaf(1)])])
    assert parse_tree(format_tree(t), alphabet) == t


def test_parse_slot_spelling():
    alphabet = named_presentation("As").alphabet
    assert parse_tree("mu(eta(), slot(1))", alphabet) == node(MU, [node(ETA, []), leaf(1)])


def test_parse_error_position():
    alphabet = named_presentation("As").alphabet
    with pytest.raises(StructuralError):
        parse_tree("mu(eta(,)", alphabet)


# -- the bracket-to-commutator morphism ----------------------------------------------

def test_phi_preserves_bipointing():
    phi = phi_ulie_to_as()
    assert morphism_preserves_pair(
        phi,
        named_presentation("uLie").distinguished_pair,
        named_presentation("As").distinguished_pair)


def test_phi_unit_image():
    phi = phi_ulie_to_as()
    assert phi[ETA] == TreeSum.of(node(ETA, []))


def test_phi_bracket_image_is_commutator():
    assert phi_ulie_to_as()[BRACKET] == commutator_sum()


def test_phi_bracket_evaluates_to_matrix_commutator():
    a = matrix_algebra(2)
    img = apply_morphism(phi_ulie_to_as(), node(BRACKET, [leaf(1), leaf(2)]))
    # [E11, E12] = E11 E12 - E12 E11 = E12
    assert evaluate(img, a, [elem(0), elem(1)]) == elem(1)


def test_phi_unit_bracket_vanishes_in_unital_algebras():
    a = matrix_algebra(2)
    img = apply_morphism(phi_ulie_to_as(), node(BRACKET, [leaf(1), node(ETA, [])]))
    for i in range(4):
        assert evaluate(img, a, [elem(i)]) == {}


def test_phi_relation_images_vanish_in_random_as_algebras():
    rng = Random(2024)
    phi = phi_ulie_to_as()
    ulie = named_presentation("uLie")
    for _ in range(8):
        a = random_as_algebra(rng)
        basis = basis_elements(a)
        for rel in ulie.relations:
            diff = apply_morphism(phi, rel.lhs) - apply_morphism(phi, rel.rhs)
            n = rel.arity or 0

            def tuples(length, count):
                if length == 0:
                    yield ()
                    return
                for head in range(count):
                    for tail in tuples(length - 1, count):
                        yield (head,) + tail

            for combo in tuples(n, len(basis)):
                value = evaluate(diff, a, [basis[i] for i in combo])
                assert value == {}, (rel.name, combo)
