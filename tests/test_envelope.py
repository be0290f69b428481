import re
from fractions import Fraction
from random import Random

import pytest

from opfield import operads
from opfield.algebras import DgAlgebra, PresymplecticComplex, heisenberg
from opfield.complexes import ChainComplex, ChainMap, validate_complex
from opfield.envelope import (adjunction_roundtrip, ccr, envelope,
                              envelope_map, extend_from_generators,
                              filtration_dim, filtration_dims_by_stage,
                              pbw_add, pbw_scale, pbw_unit,
                              validate_lie_map_into_algebra)
from opfield.errors import StructuralError, TruncationOverflow
from opfield.exact import RationalMatrix

from support import dual_numbers, exterior_line, matrix_algebra, random_presymplectic


def abelian_line():
    """One even generator plus the unit, zero bracket."""
    return DgAlgebra(ChainComplex({0: 2}), "uLie",
                     {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})


def odd_line(degree=-1):
    """One odd generator plus the unit, zero bracket."""
    return DgAlgebra(ChainComplex({degree: 1, 0: 1}), "uLie",
                     {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})


def symplectic_plane():
    return PresymplecticComplex(ChainComplex({0: 2}), {(0, 1): 1, (1, 0): -1})


def heisenberg_plane():
    return heisenberg(symplectic_plane())


# -- construction and dimensions -------------------------------------------------

def test_envelope_requires_basis_vector_unit():
    from support import gl_with_unit

    with pytest.raises(StructuralError):
        envelope(gl_with_unit(2), 2)  # unit is E11 + E22, not a basis vector


def test_envelope_requires_ulie():
    with pytest.raises(StructuralError):
        envelope(matrix_algebra(2), 2)


def test_abelian_envelope_is_truncated_polynomial():
    env = envelope(abelian_line(), 3)
    assert env.monomials() == [(), (0,), (0, 0), (0, 0, 0)]


def test_heisenberg_plane_envelope_dimension():
    env = envelope(heisenberg_plane(), 2)
    assert len(env.monomials()) == 6
    assert filtration_dim(heisenberg_plane(), 2) == {0: 6}


def test_single_odd_generator_envelope():
    env = envelope(odd_line(), 5)
    assert env.monomials() == [(), (0,)]


# -- normal forms ------------------------------------------------------------------

def test_ordered_word_is_its_own_normal_form():
    env = envelope(heisenberg_plane(), 3)
    assert env.normal_form((0, 1, 1)) == {(0, 1, 1): Fraction(1)}


def test_heisenberg_out_of_order_rewrite():
    env = envelope(heisenberg_plane(), 2)
    # e2 e1 = e1 e2 - [e1, e2] = e1 e2 - 1
    assert env.normal_form((1, 0)) == {(0, 1): Fraction(1), (): Fraction(-1)}


def test_odd_square_is_half_bracket():
    env = envelope(odd_line(), 5)
    assert env.normal_form((0, 0)) == {}


def test_truncation_overflow_on_long_words():
    env = envelope(abelian_line(), 2)
    with pytest.raises(TruncationOverflow):
        env.normal_form((0, 0, 0))


# -- multiplication -----------------------------------------------------------------

def test_unit_law():
    env = envelope(abelian_line(), 3)
    x = env.generator(0)
    assert env.multiply(pbw_unit(), x) == x
    assert env.multiply(x, pbw_unit()) == x


def test_ccr_relation_on_the_plane():
    env = ccr(symplectic_plane(), 2)
    e1, e2 = env.generator(0), env.generator(1)
    lhs = pbw_add(env.multiply(e1, e2), pbw_scale(-1, env.multiply(e2, e1)))
    assert lhs == pbw_unit()


def test_polynomial_identity():
    env = envelope(abelian_line(), 2)
    x = env.generator(0)
    xp1 = pbw_add(x, pbw_unit())
    xm1 = pbw_add(x, pbw_scale(-1, pbw_unit()))
    assert env.multiply(xp1, xm1) == {(0, 0): Fraction(1), (): Fraction(-1)}


def test_multiply_overflow_signals():
    env = envelope(abelian_line(), 2)
    x2 = env.normal_form((0, 0))
    with pytest.raises(TruncationOverflow):
        env.multiply(x2, env.generator(0))


def test_associativity_within_truncation():
    env = ccr(symplectic_plane(), 3)
    rng = Random(3)
    gens = [env.generator(0), env.generator(1), pbw_unit()]
    for _ in range(10):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert env.multiply(env.multiply(a, b), c) == env.multiply(a, env.multiply(b, c))


# -- filtration dimensions (independent oracle) ----------------------------------------

def test_filtration_dim_two_even_generators():
    v = heisenberg(PresymplecticComplex(ChainComplex({0: 2}), {}))
    table = filtration_dims_by_stage(v, 6)
    assert table[6] == {0: 28}
    assert [t[0] for t in table] == [1, 3, 6, 10, 15, 21, 28]


def test_filtration_dim_one_odd_generator():
    v = odd_line()
    for n in range(1, 6):
        assert sum(filtration_dim(v, n).values()) == 2


def test_filtration_dim_zero_space():
    v = DgAlgebra(ChainComplex({0: 1}), "uLie",
                  {operads.BRACKET: {}, operads.ETA: {0: Fraction(1)}})
    for n in range(4):
        assert filtration_dim(v, n) == {0: 1}


def test_envelope_counts_match_oracle():
    # stage_dims counts monomials; the stage complex and filtration_dim are
    # two independent countings of the same spaces
    import json
    from pathlib import Path

    from opfield.jsonio import theory_from_json

    from support import sl2_with_unit

    rng = Random(41)
    algebras = [heisenberg_plane(), odd_line(), odd_line(1), abelian_line(), sl2_with_unit(),
                odd_squares_algebra()]
    for _ in range(3):
        algebras.append(heisenberg(random_presymplectic(rng, {-1: 1, 0: 2, 1: 1})))
    algebras += [heisenberg(random_presymplectic(rng)) for _ in range(4)]
    toy3 = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data" / "toy3_theory.json"
    ft = theory_from_json(json.loads(toy3.read_text()))
    algebras += [ft.algebra(obj) for obj in ft.base.objects]
    for v in algebras:
        env = envelope(v, 4)
        for n in range(5):
            assert env.stage_dims(n) == env.stage_complex(n).dims == filtration_dim(v, n), (v, n)


# -- differential: d squared, Leibniz, unit collapse -------------------------------------

def test_unit_collapse():
    env = envelope(heisenberg_plane(), 2)
    assert env.from_source_element({2: Fraction(3)}) == {(): Fraction(3)}


def test_stage_complexes_are_complexes():
    rng = Random(43)
    for _ in range(4):
        v = heisenberg(random_presymplectic(rng, {-1: 1, 0: 2, 1: 1}))
        env = envelope(v, 3)
        for n in range(4):
            assert validate_complex(env.stage_complex(n)) == []


def test_leibniz_rule_on_products():
    rng = Random(47)
    v = heisenberg(random_presymplectic(rng, {-1: 1, 0: 2, 1: 1}))
    env = envelope(v, 3)
    words = [w for w in env.monomials() if len(w) <= 1]
    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) > env.truncation:
                continue
            x = {w1: Fraction(1)}
            y = {w2: Fraction(1)}
            lhs = env.differential(env.multiply(x, y))
            sign = -1 if (env.word_degree(w1) % 2) else 1
            rhs = pbw_add(env.multiply(env.differential(x), y),
                          pbw_scale(sign, env.multiply(x, env.differential(y))))
            assert lhs == rhs, (w1, w2)


def odd_square_algebra():
    """Odd x (degree -1) with [x, x] = 2z for a central even z (degree -2)."""
    carrier = ChainComplex({-2: 1, -1: 1, 0: 1})
    bracket = {(1, 1): {0: Fraction(2)}}
    return DgAlgebra(carrier, "uLie",
                     {operads.BRACKET: bracket, operads.ETA: {2: Fraction(1)}})


def test_odd_square_with_nonzero_bracket():
    from opfield.algebras import validate_algebra

    v = odd_square_algebra()
    assert validate_algebra(v) == []
    env = envelope(v, 3)
    # gens in degree order: position 0 = z (even, -2), position 1 = x (odd, -1)
    assert env.gen_degree == [-2, -1]
    # x * x = (1/2)[x, x] = z
    assert env.normal_form((1, 1)) == {(0,): Fraction(1)}
    # x^3 associates consistently: (x x) x = z x = x (x x)
    x = env.generator(1)
    xx = env.multiply(x, x)
    assert env.multiply(xx, x) == env.multiply(x, xx) == {(0, 1): Fraction(1)}
    # stage dims match the oracle: {1, z, x, z^2, zx} at stage 2
    assert dict(env.stage_complex(2).dims) == filtration_dim(v, 2)
    assert sum(env.stage_complex(2).dims.values()) == 5


def test_differential_with_unit_component():
    # d(c) = unit is a legal degree -1 differential; it collapses to the
    # empty word in the envelope and d squared stays zero
    carrier = ChainComplex({0: 1, 1: 1}, {1: RationalMatrix(1, 1, {(0, 0): 1})})
    v = DgAlgebra(carrier, "uLie", {operads.BRACKET: {}, operads.ETA: {0: Fraction(1)}})
    from opfield.algebras import validate_algebra

    assert validate_algebra(v) == []
    env = envelope(v, 3)
    c = env.generator(0)
    assert env.differential(c) == pbw_unit()
    for n in range(4):
        assert validate_complex(env.stage_complex(n)) == []
    # Leibniz: d(c*c) = (dc)c - c(dc) = c - c = 0, and c*c = 0 anyway
    assert env.multiply(c, c) == {}


# -- confluence ---------------------------------------------------------------------

def _rewrite_with_strategy(env, word, choose):
    """Independent rewriter: resolves one bad adjacent pair chosen by
    ``choose`` per step; returns the resulting normal form."""
    work = [(tuple(word), Fraction(1))]
    out = {}
    while work:
        w, coeff = work.pop()
        bad = []
        for k in range(len(w) - 1):
            a, b = w[k], w[k + 1]
            if a > b or (a == b and env._odd[a]):
                bad.append(k)
        if not bad:
            out[w] = out.get(w, Fraction(0)) + coeff
            continue
        k = choose(bad)
        a, b = w[k], w[k + 1]
        if a > b:
            sign = -1 if (env._odd[a] and env._odd[b]) else 1
            work.append((w[:k] + (b, a) + w[k + 2:], coeff * sign))
            for repl, c in env.bracket_expansion(a, b).items():
                work.append((w[:k] + repl + w[k + 2:], coeff * c))
        else:
            for repl, c in env.bracket_expansion(a, a).items():
                work.append((w[:k] + repl + w[k + 2:], coeff * c / 2))
    return {w: c for w, c in out.items() if c}


def test_normal_form_confluence_on_random_words():
    rng = Random(53)
    v = heisenberg(random_presymplectic(rng, {-1: 1, 0: 2, 1: 1}))
    env = envelope(v, 5)
    k = len(env.gens)
    for _ in range(40):
        word = tuple(rng.randrange(k) for _ in range(rng.randint(0, 5)))
        try:
            reference = env.normal_form(word)
        except TruncationOverflow:
            continue
        for seed in (1, 2, 3):
            chooser = Random(seed)
            assert _rewrite_with_strategy(env, word, chooser.choice) == reference


def test_planted_jacobi_violation_breaks_confluence():
    # antisymmetric but non-Jacobi bracket: [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=0
    bracket = {
        (0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)},
        (0, 2): {0: Fraction(1)}, (2, 0): {0: Fraction(-1)},
    }
    fake = DgAlgebra(ChainComplex({0: 4}), "uLie",
                     {operads.BRACKET: bracket, operads.ETA: {3: Fraction(1)}})
    from opfield.algebras import validate_algebra

    assert any("Jacobi" in line for line in validate_algebra(fake))
    env = envelope(fake, 3)
    word = (2, 1, 0)
    leftmost = env.normal_form(word)
    rightmost = _rewrite_with_strategy(env, word, lambda bad: bad[-1])
    assert leftmost != rightmost


# -- envelope maps and quasi-isomorphisms ----------------------------------------------

def test_envelope_map_of_identity():
    v = heisenberg_plane()
    em = envelope_map(ChainMap.identity(v.carrier), v, v, 3)
    for w, image in em.apply_words(em.source_env.monomials()).items():
        assert image == {w: Fraction(1)}


def acyclic_augmented():
    """(Q ->id Q in degrees 1, 0) plus a unit line."""
    carrier = ChainComplex({0: 2, 1: 1}, {1: RationalMatrix(2, 1, {(0, 0): 1})})
    return DgAlgebra(carrier, "uLie", {operads.BRACKET: {}, operads.ETA: {1: Fraction(1)}})


def unit_only():
    return DgAlgebra(ChainComplex({0: 1}), "uLie",
                     {operads.BRACKET: {}, operads.ETA: {0: Fraction(1)}})


def test_quasi_iso_induces_stage_quasi_isos():
    from opfield.complexes import is_quasi_iso

    v = acyclic_augmented()
    w = unit_only()
    # kill the acyclic pair, keep the unit
    rho = ChainMap(v.carrier, w.carrier, {0: RationalMatrix(1, 2, {(0, 1): 1})})
    em = envelope_map(rho, v, w, 4)
    for n in range(5):
        assert is_quasi_iso(em.stage_chain_map(n)), n


def test_non_quasi_iso_fails_at_stage_two():
    from opfield.complexes import homology_dim, is_quasi_iso

    v = abelian_line()  # Q + unit
    w = DgAlgebra(ChainComplex({0: 3}), "uLie",
                  {operads.BRACKET: {}, operads.ETA: {2: Fraction(1)}})  # Q^2 + unit
    rho = ChainMap(v.carrier, w.carrier, {0: RationalMatrix(3, 2, {(0, 0): 1, (2, 1): 1})})
    em = envelope_map(rho, v, w, 2)
    stage2 = em.stage_chain_map(2)
    assert homology_dim(stage2.source, 0) == 3
    assert homology_dim(stage2.target, 0) == 6
    assert not is_quasi_iso(stage2)


def test_envelope_map_rejects_non_morphisms():
    v = heisenberg_plane()
    # swapping e1, e2 flips the pairing: not bracket-preserving
    rho = ChainMap(v.carrier, v.carrier,
                   {0: RationalMatrix(3, 3, {(0, 1): 1, (1, 0): 1, (2, 2): 1})})
    with pytest.raises(StructuralError):
        envelope_map(rho, v, v, 2)


# -- CCR algebras ------------------------------------------------------------------------

def test_ccr_zero_pairing_is_graded_symmetric():
    p = PresymplecticComplex(ChainComplex({0: 1, 1: 1}), {})
    env = ccr(p, 3)
    # even generator freely polynomial, odd generator squares to zero
    assert dict(env.stage_complex().dims) == filtration_dim(heisenberg(p), 3)
    even, odd = (0, 1) if env.gen_degree[0] == 0 else (1, 0)
    assert env.normal_form((odd, odd)) == {}


def test_ccr_commutators_match_pairing_on_random_complex():
    rng = Random(59)
    p = random_presymplectic(rng, {-1: 1, 0: 2, 1: 1})
    assert p.omega, "sampled pairing should be nonzero"
    env = ccr(p, 2)
    k = len(env.gens)
    assert k == 4
    unit_idx = heisenberg(p).unit_direction()[0]

    def p_index(g):
        return g if g < unit_idx else g - 1

    seen_nonzero = False
    for i in range(k):
        for j in range(k):
            value = env.commutator(env.generator(i), env.generator(j))
            omega_ij = p.pair_basis(p_index(env.gens[i]), p_index(env.gens[j]))
            expected = {(): omega_ij} if omega_ij else {}
            seen_nonzero = seen_nonzero or bool(omega_ij)
            assert value == expected, (i, j)
    assert seen_nonzero


# -- adjunction roundtrips ------------------------------------------------------------------

def test_dual_numbers_adjunction_roundtrip():
    env = envelope(abelian_line(), 3)
    a = dual_numbers()
    images = [{1: Fraction(1)}]  # x -> epsilon
    images_out, kappa = adjunction_roundtrip(env, a, images=images)
    assert images_out == images
    assert kappa[()] == {0: Fraction(1)}
    assert kappa[(0,)] == {1: Fraction(1)}
    assert kappa[(0, 0)] == {}          # epsilon^2 = 0
    assert kappa[(0, 0, 0)] == {}
    # and back: restricting then extending reproduces kappa
    images2, kappa2 = adjunction_roundtrip(env, a, kappa=kappa)
    assert images2 == images and kappa2 == kappa


def test_zero_map_extends_to_unit_augmentation():
    env = envelope(abelian_line(), 2)
    a = dual_numbers()
    _, kappa = adjunction_roundtrip(env, a, images=[{}])
    assert kappa[()] == {0: Fraction(1)}
    assert kappa[(0,)] == {} and kappa[(0, 0)] == {}


def test_heisenberg_matrix_representation_is_rejected():
    env = envelope(heisenberg_plane(), 2)
    a = matrix_algebra(2)
    # e1 -> E12, e2 -> E21: [E12, E21] = E11 - E22 != identity
    images = [{1: Fraction(1)}, {2: Fraction(1)}]
    issues = validate_lie_map_into_algebra(env, a, images)
    assert "bracket not intertwined at basis tuple (0, 1)" in issues
    with pytest.raises(StructuralError):
        extend_from_generators(env, a, images)


def test_stability_condition_enforced():
    env = envelope(abelian_line(), 1)  # truncation 1: need squares to vanish
    a = dual_numbers()
    issues = validate_lie_map_into_algebra(env, a, [{0: Fraction(1)}])  # x -> 1
    assert any("stability" in line for line in issues)


def odd_degree_one_line():
    """One generator x of degree 1 plus the unit in degree 0, zero bracket."""
    return DgAlgebra(ChainComplex({0: 1, 1: 1}), "uLie",
                     {operads.BRACKET: {}, operads.ETA: {0: Fraction(1)}})


def test_odd_generator_goes_to_an_odd_element():
    env = envelope(odd_degree_one_line(), 3)
    theta = [{1: Fraction(1)}]
    assert validate_lie_map_into_algebra(env, exterior_line(), theta) == []
    _, kappa = adjunction_roundtrip(env, exterior_line(), images=theta)
    assert kappa[(0,)] == {1: Fraction(1)}
    # d(theta) = 1 while dx = 0: the differential is not intertwined
    assert validate_lie_map_into_algebra(env, exterior_line(1), theta) == [
        "chain map: degree 1: d.f != f.d"]


@pytest.mark.parametrize("v, images, issue", [
    # x has degree 1, epsilon degree 0: not a graded map
    (odd_degree_one_line(), [{1: Fraction(1)}],
     "generator 0: image has a component in degree 0, not in degree 1"),
    (abelian_line(), [], "generator 0: no image given"),
    (abelian_line(), [{1: Fraction(1)}, {1: Fraction(1)}],
     "image 1: there is no generator 1 (V has 1)"),
    (abelian_line(), [{2: Fraction(1)}], "generator 0: image index 2 outside the target basis"),
], ids=["wrong-degree", "missing", "extra", "outside-basis"])
def test_generator_images_that_are_not_a_graded_map_are_named(v, images, issue):
    env = envelope(v, 3)
    assert validate_lie_map_into_algebra(env, dual_numbers(), images) == [issue]
    with pytest.raises(StructuralError, match=re.escape(issue)):
        extend_from_generators(env, dual_numbers(), images)


# -- generator insertion against the recursive rewriter ---------------------------------
#
# The reference below is the rewriter that normal forms used before generator
# insertion: it resolves the leftmost out-of-order pair with one recursive
# call per rewrite and sums with copying adds.  Insertion must give the same
# normal forms, products and stage matrices.

def _ref_add(x, y):
    out = dict(x)
    for w, c in y.items():
        nc = out.get(w, Fraction(0)) + c
        if nc:
            out[w] = nc
        elif w in out:
            del out[w]
    return out


def _ref_scale(c, x):
    return {w: c * v for w, v in x.items()} if c else {}


def reference_nf(env, word, cache):
    word = tuple(word)
    if word in cache:
        return cache[word]
    result = {word: Fraction(1)}
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if a > b:
            sign = -1 if (env._odd[a] and env._odd[b]) else 1
            acc = _ref_scale(sign, reference_nf(env, word[:k] + (b, a) + word[k + 2:], cache))
            for repl, c in env.bracket_expansion(a, b).items():
                spliced = word[:k] + repl + word[k + 2:]
                acc = _ref_add(acc, _ref_scale(c, reference_nf(env, spliced, cache)))
            result = acc
            break
        if a == b and env._odd[a]:
            acc = {}
            for repl, c in env.bracket_expansion(a, a).items():
                spliced = word[:k] + repl + word[k + 2:]
                acc = _ref_add(acc, _ref_scale(c / 2, reference_nf(env, spliced, cache)))
            result = acc
            break
    cache[word] = result
    return result


def reference_multiply(env, x, y, cache):
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            out = _ref_add(out, _ref_scale(c1 * c2, reference_nf(env, w1 + w2, cache)))
    return out


def reference_stage_entries(env, n):
    """Differential entries of stage n, per degree, from the reference rewriter."""
    cache = {}
    by_degree, index = {}, {}
    for w in env.monomials(n):
        by_degree.setdefault(env.word_degree(w), []).append(w)
    for deg, words in by_degree.items():
        for row, w in enumerate(words):
            index[w] = row
    entries = {}
    for deg, words in by_degree.items():
        for col, w in enumerate(words):
            out, parity = {}, 0
            for j, p in enumerate(w):
                sign = -1 if parity % 2 else 1
                for repl, c in env.dgen_expansion(p).items():
                    nf = reference_nf(env, w[:j] + repl + w[j + 1:], cache)
                    out = _ref_add(out, _ref_scale(sign * c, nf))
                parity += env.gen_degree[p]
            for w2, c in out.items():
                entries.setdefault(deg, {})[(index[w2], col)] = c
    return entries


def odd_squares_algebra():
    """Odd x1, x2 (degree 1) whose brackets are the even generators z11, z12,
    z22 (degree 2): [x_i, x_j] = (1 + [i == j]) z_ij, so x_i x_i = z_ii."""
    carrier = ChainComplex({0: 1, 1: 2, 2: 3})
    z = {(0, 0): 3, (0, 1): 4, (1, 0): 4, (1, 1): 5}
    bracket = {(1 + i, 1 + j): {z[(i, j)]: Fraction(2 if i == j else 1)}
               for i in range(2) for j in range(2)}
    return DgAlgebra(carrier, "uLie", {operads.BRACKET: bracket, operads.ETA: {0: Fraction(1)}})


def _random_heisenbergs():
    """Heisenberg algebras with odd generators in degrees -1 and 1."""
    rng = Random(61)
    return [heisenberg(random_presymplectic(rng, {-1: 2, 0: 2, 1: 2})) for _ in range(3)]


def _insertion_families():
    from opfield.algebras import validate_algebra

    from support import sl2_with_unit

    algebras = _random_heisenbergs()
    algebras += [sl2_with_unit(), odd_squares_algebra(), odd_square_algebra()]
    for v in algebras:
        assert validate_algebra(v) == []
        yield envelope(v, 5)


def test_normal_form_matches_recursive_rewriter_on_random_words():
    rng = Random(67)
    for env in _insertion_families():
        cache = {}
        k = len(env.gens)
        for _ in range(60):
            word = tuple(rng.randrange(k) for _ in range(rng.randint(0, env.truncation)))
            assert env.normal_form(word) == reference_nf(env, word, cache), word


def test_multiply_matches_recursive_rewriter_on_random_elements():
    rng = Random(71)

    def element(env, length, cache):
        out = {}
        for _ in range(2):
            word = tuple(rng.randrange(len(env.gens)) for _ in range(length))
            out = _ref_add(out, _ref_scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                           reference_nf(env, word, cache)))
        return out

    for env in _insertion_families():
        cache = {}
        for _ in range(20):
            l1 = rng.randint(0, env.truncation)
            l2 = rng.randint(0, env.truncation - l1)
            x, y = element(env, l1, cache), element(env, l2, cache)
            assert env.multiply(x, y) == reference_multiply(env, x, y, cache), (x, y)


def test_sl2_normal_forms_are_not_central():
    from support import sl2_with_unit

    env = envelope(sl2_with_unit(), 3)
    # f e = e f - h; h e = e h + 2e
    assert env.normal_form((1, 0)) == {(0, 1): Fraction(1), (2,): Fraction(-1)}
    assert env.normal_form((2, 0)) == {(0, 2): Fraction(1), (0,): Fraction(2)}


# -- central brackets: the one-letter slide against the rewriters -------------------------

SURFACES = ("disk1", "annulus2", "annulus3", "tetra_sphere", "torus9")


def _ccr_case(name, n, seed=None):
    """CCR envelope at truncation n: the seed-th algebra of
    :func:`_random_heisenbergs` for ``name == "heisenberg"``, otherwise a
    shipped surface, at a vertex order drawn from ``seed`` when one is given."""
    import json
    from pathlib import Path

    from opfield.cherns import pairing
    from opfield.jsonio import surface_from_json

    if name == "heisenberg":
        return envelope(_random_heisenbergs()[seed], n)
    path = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data" / f"{name}.json"
    doc = json.loads(path.read_text())
    if seed is not None:
        doc["vertex_order"] = Random(seed).sample(range(doc["vertices"]), doc["vertices"])
    return ccr(pairing(surface_from_json(doc)), n)


def _stage_entries(env):
    return {deg: m.entries for deg, m in env.stage_complex().diffs.items()}


@pytest.mark.parametrize("name, n, seed", (
    [pytest.param(name, 3, None, id=name) for name in ("annulus2", "tetra_sphere")]
    + [pytest.param("annulus3", 3, None, id="annulus3-n3")]
    + [pytest.param(name, n, None, id=f"{name}-n{n}") for name in SURFACES for n in (1, 2)]
    + [pytest.param("torus9", 2, seed, id=f"torus9-n2-order{seed}") for seed in (1, 2, 3)]
    + [pytest.param("heisenberg", 5, i, id=f"heisenberg{i}") for i in range(3)]))
def test_ccr_stage_matrices_match_recursive_rewriter(name, n, seed):
    env = _ccr_case(name, n, seed)
    expected = reference_stage_entries(env, n)
    assert _stage_entries(env) == expected
    # central brackets slide each letter without generator insertion
    assert not env._insert_cache
    # the disk's stage sits in one degree and has no differential
    assert sum(len(e) for e in expected.values()) > 0 or name == "disk1"


def insertion_d_word(env, word):
    """d of a monomial by generator insertion: each letter replaced by its
    differential and the whole word normalized."""
    out, parity = {}, 0
    for j, p in enumerate(word):
        for repl, c in env.dgen_expansion(p).items():
            out = pbw_add(out, pbw_scale(-c if parity % 2 else c,
                                         env.normal_form(word[:j] + repl + word[j + 1:])))
        parity += env.gen_degree[p]
    return out


def test_torus9_stage_slide_matches_generic_insertion():
    # the reference rewriter is too slow at torus9 n=3; generator insertion
    # on the same envelope is the cross-check there
    env = _ccr_case("torus9", 3)
    _, words_by_degree, _ = env.stage()
    words = [w for ws in words_by_degree.values() for w in ws]
    assert len(words) > 4000
    for w in words:
        assert env._d_word(w) == insertion_d_word(env, w), w


def test_slide_halves_an_odd_square():
    # [x, x] = 2 for an odd x does not preserve degree, so no dg Lie algebra
    # has it, but the envelope takes it: x x = 1, and d(x t) = -x d(t) = -1
    # for d t = x; the slide must agree with insertion on every monomial
    carrier = ChainComplex({0: 1, 1: 1, 2: 1}, {2: RationalMatrix(1, 1, {(0, 0): 1})})
    v = DgAlgebra(carrier, "uLie", {operads.BRACKET: {(1, 1): {0: Fraction(2)}},
                                    operads.ETA: {0: Fraction(1)}})
    env = envelope(v, 4)
    assert env.bracket_expansion(0, 0) == {(): Fraction(2)}
    assert env.differential({(0, 1): Fraction(1)}) == {(): Fraction(-1)}
    for w in env.monomials():
        assert env._d_word(w) == insertion_d_word(env, w), w


def test_differential_normalizes_its_input():
    # a hand-built element need not be in normal form: d(x_1 x_0) is read as
    # d of the normal form of x_1 x_0
    env = _ccr_case("heisenberg", 3, 0)
    for word in [(1, 0), (2, 1, 0), (3, 3, 0), (5, 4, 1)]:
        expected = {}
        for w, c in env.normal_form(word).items():
            expected = pbw_add(expected, pbw_scale(c, insertion_d_word(env, w)))
        assert env.differential({word: Fraction(1)}) == expected, word


def test_central_brackets_divide_out_the_unit_coefficient():
    import json
    from pathlib import Path

    from opfield.jsonio import theory_from_json

    # toy3's algebras are Heisenberg algebras: [x_0, x_1] = [x_2, x_3] = 1
    toy3 = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data" / "toy3_theory.json"
    ft = theory_from_json(json.loads(toy3.read_text()))
    one = Fraction(1)
    env = envelope(ft.algebra("c"), 3)
    assert env.bracket_expansion(0, 1) == env.bracket_expansion(2, 3) == {(): one}
    assert env.bracket_expansion(3, 2) == {(): -one}
    assert env.bracket_expansion(0, 2) == {}
    # the unit's coefficient divides out
    plane = PresymplecticComplex(ChainComplex({0: 2}), {(0, 1): 3, (1, 0): -3})
    v = heisenberg(plane)
    v = DgAlgebra(v.carrier, "uLie", {operads.BRACKET: v.structure[operads.BRACKET],
                                      operads.ETA: {2: Fraction(1, 2)}})
    env = envelope(v, 2)
    assert env.bracket_expansion(0, 1) == {(): Fraction(6)}
    assert env.bracket_expansion(1, 0) == {(): Fraction(-6)}
    assert env.bracket_expansion(0, 0) == {}
    assert env.normal_form((1, 0)) == {(0, 1): one, (): Fraction(-6)}


def bracket_off_the_unit():
    """x, y, z (degree 0) and u, w (degree 1) with d u = x, d w = z and
    [x, y] = z, [u, y] = w: a dg Lie algebra whose brackets miss the unit."""
    carrier = ChainComplex({0: 4, 1: 2}, {1: RationalMatrix(4, 2, {(0, 0): 1, (2, 1): 1})})
    bracket = {(0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)},
               (4, 1): {5: Fraction(1)}, (1, 4): {5: Fraction(-1)}}
    return DgAlgebra(carrier, "uLie", {operads.BRACKET: bracket, operads.ETA: {3: Fraction(1)}})


def bracket_on_the_unit():
    """A Heisenberg algebra with one bracket entry keyed by the unit: its unit
    is not central, so it is not a unital Lie algebra, although every
    generator bracket is a multiple of the unit."""
    v = _random_heisenbergs()[0]
    unit, _ = v.unit_direction()
    bracket = {**v.structure[operads.BRACKET], (unit, 0): {unit: Fraction(1)}}
    return DgAlgebra(v.carrier, "uLie", {operads.BRACKET: bracket,
                                         operads.ETA: v.structure[operads.ETA]})


def test_non_central_stage_matrices_match_recursive_rewriter():
    # brackets landing on generators are normalized after the slide
    from opfield.algebras import validate_algebra

    from support import sl2_with_unit

    assert validate_algebra(bracket_off_the_unit()) == []
    algebras = [sl2_with_unit(), odd_squares_algebra(), odd_square_algebra(),
                bracket_off_the_unit(), bracket_on_the_unit()]
    for v in algebras:
        env = envelope(v, 4)
        assert _stage_entries(env) == reference_stage_entries(env, 4), v
    assert _stage_entries(envelope(bracket_off_the_unit(), 4))


def test_reversed_torus9_word_is_wick_ordered():
    import math

    # an even pair p < q of torus9's CCR algebra with s = [x_q, x_p] != 0:
    # x_q^25 x_p^25 = sum_k k! C(25, k)^2 s^k x_p^(25-k) x_q^(25-k)
    env = _ccr_case("torus9", 50)
    even = [p for p in range(len(env.gens)) if not env._odd[p]]
    (q, p), s = next(((q, p), env.bracket_expansion(q, p)[()]) for q in even for p in even
                     if p < q and env.bracket_expansion(q, p))
    assert env.bracket_expansion(q, p) == {(): s}
    expected = {(p,) * (25 - k) + (q,) * (25 - k): math.factorial(k) * math.comb(25, k) ** 2 * s ** k
                for k in range(26)}
    assert env.normal_form((q,) * 25 + (p,) * 25) == expected


def test_long_reversed_word_does_not_recurse():
    import math
    import sys

    env = ccr(symplectic_plane(), 60)
    word = (1,) * 25 + (0,) * 25
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        result = env.normal_form(word)
    finally:
        sys.setrecursionlimit(limit)
    # e2^n e1^m = sum_k (-1)^k k! C(n, k) C(m, k) e1^(m-k) e2^(n-k), as [e1, e2] = 1
    expected = {(0,) * (25 - k) + (1,) * (25 - k): Fraction((-1) ** k * math.factorial(k)
                                                             * math.comb(25, k) ** 2)
                for k in range(26)}
    assert result == expected


# -- truncation stability ------------------------------------------------------------------

def _reference_stability_defects(env, a, images):
    """Every product of N+1 generator images, in lexicographic word order."""
    n = env.truncation
    gens = range(len(env.gens))

    def products(length):
        if length == 0:
            yield a.structure[operads.ETA], ()
            return
        for x, w in products(length - 1):
            for p in gens:
                yield a.apply_generator(operads.MU, [x, images[p]]), w + (p,)

    for x, w in products(n + 1):
        if x:
            return [f"stability fails: product of generator images {w} is nonzero "
                    f"beyond truncation {n}"]
    return []


def test_stability_witness_is_the_first_nonzero_word():
    from opfield.envelope import _stability_defects

    plane = envelope(heisenberg(PresymplecticComplex(ChainComplex({0: 2}), {})), 2)
    line = envelope(abelian_line(), 1)
    cases = [
        # E12 E12 = 0, so the witness is E12 E21 E12, not a word starting (0, 0)
        (plane, matrix_algebra(2), [{1: Fraction(1)}, {2: Fraction(1)}]),
        (plane, matrix_algebra(2), [{2: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]),
        (plane, dual_numbers(), [{}, {0: Fraction(1)}]),
        (line, dual_numbers(), [{0: Fraction(1)}]),
        (line, dual_numbers(), [{1: Fraction(1)}]),
    ]
    witnesses = []
    for env, a, images in cases:
        found = _stability_defects(env, a, images)
        assert found == _reference_stability_defects(env, a, images)
        witnesses.append(found)
    assert witnesses[0] == ["stability fails: product of generator images (0, 1, 0) is "
                            "nonzero beyond truncation 2"]
    assert witnesses[-1] == []


def test_stability_with_many_generators_does_not_enumerate_zero_products():
    from opfield.envelope import _stability_defects

    k, n = 12, 5
    env = envelope(heisenberg(PresymplecticComplex(ChainComplex({0: k}), {})), n)
    # square-zero extension Q + Q^k: every product of two generator images vanishes
    mu = {(0, 0): {0: Fraction(1)}}
    for i in range(1, k + 1):
        mu[(0, i)] = {i: Fraction(1)}
        mu[(i, 0)] = {i: Fraction(1)}
    a = DgAlgebra(ChainComplex({0: k + 1}), "As", {operads.MU: mu, operads.ETA: {0: Fraction(1)}})
    images = [{i + 1: Fraction(1)} for i in range(k)]
    calls = []
    original = a.apply_generator
    a.apply_generator = lambda *args: calls.append(1) or original(*args)
    assert _stability_defects(env, a, images) == []
    # k products of length one, k^2 of length two, none longer (k^(n+1) before)
    assert len(calls) == k + k * k
