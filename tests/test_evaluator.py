"""Cross-check of the sparse tensor evaluator against basis-tuple enumeration.

The reference functions below evaluate every identity on all n^arity basis
tuples (or pairs of basis elements), element by element, the way the checks
worked before they compared structure tensors.  On valid algebras and
theories and on ones with one entry changed, the tensor checks must return
the same violation lists in the same order.
"""

from fractions import Fraction
from random import Random

from opfield import operads
from opfield.algebras import (DgAlgebra, PresymplecticComplex, _derivation_defect,
                              commutator_functor, element_add, element_scale, heisenberg,
                              is_algebra_morphism, push_element)
from opfield.cherns import (SurfaceDiagram, SurfaceMorphism, build_bcs, octahedron_sphere,
                            one_triangle_disk, pairing)
from opfield.complexes import ChainMap
from opfield.exact import _ONE, RationalMatrix
from opfield.fieldtheory import (CausalityViolation, FieldTheory, OrthCategory,
                                 check_causality)
from opfield.operads import RelationViolation, by_output, check_relations, combine, contract

from support import (basis_elements, conjugate_algebra, evaluate, exterior_square_dg,
                     matrix_algebra, random_as_algebra, random_presymplectic,
                     reference_combine, reference_contract, truncated_poisson_algebra)


def _tuples(count, length):
    if length == 0:
        yield ()
        return
    for head in range(count):
        for tail in _tuples(count, length - 1):
            yield (head,) + tail


def reference_check_relations(p, algebra):
    violations = []
    basis = basis_elements(algebra)
    for rel in p.relations:
        for combo in _tuples(len(basis), rel.arity or 0):
            inputs = [basis[i] for i in combo]
            diff = element_add(evaluate(rel.lhs, algebra, inputs),
                               element_scale(-1, evaluate(rel.rhs, algebra, inputs)))
            if diff:
                violations.append(RelationViolation(rel.name, combo, dict(diff)))
    return violations


def reference_derivation_defect(a, gen_name):
    gen = a.presentation.alphabet[gen_name]
    if gen.arity == 0:
        return [f"{gen_name}: unit vector is not a cycle"] if a.differential(a.structure[gen_name]) else []
    issues = []
    for combo in _tuples(a.basis.total, gen.arity):
        args = [a.basis_element(i) for i in combo]
        lhs = a.differential(a.apply_generator(gen_name, args))
        rhs = {}
        sign_parity = 0
        for j, i in enumerate(combo):
            darg = a.differential(a.basis_element(i))
            if darg:
                new_args = list(args)
                new_args[j] = darg
                sign = -1 if sign_parity % 2 else 1
                rhs = element_add(rhs, element_scale(sign, a.apply_generator(gen_name, new_args)))
            sign_parity += a.basis.degree_of(i)
        if element_add(lhs, element_scale(-1, rhs)):
            issues.append(f"{gen_name}: differential is not a derivation at basis tuple {combo}")
    return issues


def reference_is_algebra_morphism(f, source, target):
    issues = [f"chain map: {m}" for m in f.commutes()]

    def push(x):
        return push_element(f, source.basis, target.basis, x)

    for gen in source.presentation.alphabet.generators:
        for combo in _tuples(source.basis.total, gen.arity):
            args = [source.basis_element(i) for i in combo]
            lhs = push(source.apply_generator(gen.name, args))
            rhs = target.apply_generator(gen.name, [push(x) for x in args])
            if element_add(lhs, element_scale(-1, rhs)):
                issues.append(f"{gen.name} not intertwined at basis tuple {combo}")
    return issues


def reference_causality(ft):
    violations = []
    for f1, f2 in sorted(ft.base.orth):
        a_c = ft.algebra(ft.base.target(f1))
        a1, a2 = ft.algebra(ft.base.source(f1)), ft.algebra(ft.base.source(f2))
        r1, r2 = ft.distinguished_pair
        for i in range(a1.basis.total):
            x = push_element(ft.action[f1], a1.basis, a_c.basis, a1.basis_element(i))
            if not x:
                continue
            for j in range(a2.basis.total):
                y = push_element(ft.action[f2], a2.basis, a_c.basis, a2.basis_element(j))
                if not y:
                    continue
                diff = element_add(evaluate(r1, a_c, [x, y]),
                                   element_scale(-1, evaluate(r2, a_c, [x, y])))
                if diff:
                    violations.append(CausalityViolation((f1, f2), (i, j), diff))
    return violations


def reference_presymplectic_issues(p):
    issues = []
    total = p.basis.total
    for i in range(total):
        for j in range(total):
            di, dj = p.basis.degree_of(i), p.basis.degree_of(j)
            sign = -1 if (di * dj) % 2 else 1
            if di + dj == 0 and p.pair_basis(i, j) != -sign * p.pair_basis(j, i):
                issues.append(f"omega not graded-antisymmetric at ({i}, {j})")
    for i in range(total):
        xi = {i: Fraction(1)}
        for j in range(total):
            if p.basis.degree_of(i) + p.basis.degree_of(j) != 1:
                continue
            yj = {j: Fraction(1)}
            sign = -1 if p.basis.degree_of(i) % 2 else 1
            if p.pair(p.basis.differential(xi), yj) + sign * p.pair(xi, p.basis.differential(yj)):
                issues.append(f"omega not a chain map at ({i}, {j})")
    return issues


def _changed_algebra(a, rng):
    """``a`` with one structure constant of one generator moved by a nonzero rational."""
    gen = rng.choice(a.presentation.alphabet.generators)
    total = a.basis.total
    structure = {g.name: dict(a.structure[g.name]) for g in a.presentation.alphabet.generators}
    delta = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
    out = rng.randrange(total)
    if gen.arity == 0:
        unit = dict(structure[gen.name])
        unit[out] = unit.get(out, Fraction(0)) + delta
        structure[gen.name] = unit
    else:
        key = tuple(rng.randrange(total) for _ in range(gen.arity))
        cell = dict(structure[gen.name].get(key, {}))
        cell[out] = cell.get(out, Fraction(0)) + delta
        structure[gen.name][key] = cell
    return DgAlgebra(a.carrier, a.kind, structure)


def _changed_map(f, rng):
    """``f`` with one entry of one nonzero component moved by a nonzero rational."""
    n = rng.choice(sorted(f.components))
    m = f.component(n)
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    entries = dict(m.entries)
    entries[(r, c)] = entries.get((r, c), Fraction(0)) + rng.choice([-1, 1, 2])
    comps = dict(f.components)
    comps[n] = RationalMatrix(m.rows, m.cols, entries)
    return ChainMap(f.source, f.target, comps)


def _samples(seed):
    """Small random algebras of every named kind, some with a differential."""
    rng = Random(seed)
    out = [conjugate_algebra(truncated_poisson_algebra(), rng)]
    g = commutator_functor(random_as_algebra(rng))
    out.append(DgAlgebra(g.carrier, "Lie", {operads.BRACKET: g.structure[operads.BRACKET]}))
    for _ in range(4):
        a = random_as_algebra(rng)
        out.append(a)
        out.append(conjugate_algebra(a, rng))
    for _ in range(3):
        out.append(heisenberg(random_presymplectic(rng)))
    out.append(heisenberg(random_presymplectic(rng, dims={-1: 2, 0: 2, 1: 2})))
    return rng, out


def _assert_same_checks(a):
    assert check_relations(a.presentation, a) == reference_check_relations(a.presentation, a)
    for gen in a.presentation.alphabet.generators:
        assert _derivation_defect(a, gen.name) == reference_derivation_defect(a, gen.name)


def test_relation_and_leibniz_checks_match_enumeration():
    rng, samples = _samples(401)
    for a in samples:
        _assert_same_checks(a)
        for _ in range(3):
            _assert_same_checks(_changed_algebra(a, rng))


def test_changed_samples_produce_witnesses():
    # the comparison above is only meaningful if changes are detected at all
    rng, samples = _samples(403)
    relations = leibniz = 0
    for a in samples:
        b = _changed_algebra(a, rng)
        relations += bool(check_relations(b.presentation, b))
        leibniz += any(_derivation_defect(b, g.name) for g in b.presentation.alphabet.generators)
    assert relations >= len(samples) // 2
    assert leibniz >= 2


def test_morphism_check_matches_enumeration():
    rng, samples = _samples(402)
    for a in samples:
        ident = ChainMap.identity(a.carrier)
        changed = _changed_algebra(a, rng)
        cases = [(ident, a, a), (ident, a, changed), (ident, changed, a),
                 (_changed_map(ident, rng), a, a)]
        for f, source, target in cases:
            assert is_algebra_morphism(f, source, target) == \
                reference_is_algebra_morphism(f, source, target)


def test_presymplectic_checks_match_enumeration():
    rng = Random(406)
    for _ in range(6):
        p = random_presymplectic(rng, dims=rng.choice([None, {-1: 2, 0: 2, 1: 2}]))
        assert p.validate() == reference_presymplectic_issues(p) == []
        pairs = [(i, j) for i in range(p.basis.total) for j in range(p.basis.total)
                 if p.basis.degree_of(i) + p.basis.degree_of(j) == 0]
        omega = dict(p.omega)
        key = rng.choice(pairs)
        omega[key] = omega.get(key, Fraction(0)) + 1
        changed = PresymplecticComplex(p.carrier, omega)
        assert changed.validate() == reference_presymplectic_issues(changed) != []


def _as_theory(a):
    """Two identity actions of an associative algebra, declared orthogonal."""
    base = OrthCategory(["u", "v", "c"], {"f1": ("u", "c"), "f2": ("v", "c")},
                        orth=[("f1", "f2")])
    ident = ChainMap.identity(a.carrier)
    return FieldTheory(base, "As", {"u": a, "v": a, "c": a}, {"f1": ident, "f2": ident})


def test_structure_constant_causality_matches_enumeration():
    rng = Random(405)
    disk, octa = one_triangle_disk(), octahedron_sphere()
    two_disks = build_bcs(SurfaceDiagram(
        {"disk": disk, "sphere": octa},
        {"f1": ("disk", "sphere", SurfaceMorphism(disk, octa, [0, 1, 2])),
         "f2": ("disk", "sphere", SurfaceMorphism(disk, octa, [5, 4, 3]))}))
    sphere = two_disks.algebra("sphere")
    images = [{j for i in range(two_disks.algebra("disk").basis.total)
               for j in push_element(two_disks.action[f], two_disks.algebra("disk").basis,
                                     sphere.basis, {i: Fraction(1)})} for f in ("f1", "f2")]
    bracket = dict(sphere.structure[operads.BRACKET])
    for _ in range(3):  # brackets between the two images, of any degrees
        key = (rng.choice(sorted(images[0])), rng.choice(sorted(images[1])))
        bracket[key] = {rng.randrange(sphere.basis.total): Fraction(rng.choice([-1, 2]))}
    changed = DgAlgebra(sphere.carrier, "uLie", {**sphere.structure, operads.BRACKET: bracket})
    theories = [two_disks,
                FieldTheory(two_disks.base, "uLie", {**two_disks.assignment, "sphere": changed},
                            two_disks.action)]
    # graded-commutative algebras pass only with the Koszul sign of mu(2, 1)
    theories += [_as_theory(a) for a in (exterior_square_dg(), matrix_algebra(2))]
    theories += [_as_theory(random_as_algebra(rng)) for _ in range(4)]
    reports = [check_causality(ft) for ft in theories]
    assert reports == [reference_causality(ft) for ft in theories]
    assert reports[0] == [] and reports[1] != []
    assert reports[2] == [] and reports[3] != []


def test_morphism_check_reports_broken_unit():
    a = heisenberg(random_presymplectic(Random(404)))
    unit_index, _ = a.unit_direction()
    structure = {g.name: dict(a.structure[g.name]) for g in a.presentation.alphabet.generators}
    structure[operads.ETA] = {unit_index: Fraction(2)}
    b = DgAlgebra(a.carrier, a.kind, structure)
    issues = is_algebra_morphism(ChainMap.identity(a.carrier), a, b)
    assert "eta not intertwined at basis tuple ()" in issues
    assert issues == reference_is_algebra_morphism(ChainMap.identity(a.carrier), a, b)


# coefficients as the shared _ONE, as 1 that is not _ONE, as -1 and as other rationals
_COEFFS = [_ONE, _ONE, Fraction(1), Fraction(-1), Fraction(-1), Fraction(2), Fraction(-1, 3)]


def _random_tensor(rng, arity, size):
    tensor = {}
    for _ in range(rng.randint(0, 8)):
        key = tuple(rng.randrange(size) for _ in range(arity))
        tensor[key] = {rng.randrange(size): rng.choice(_COEFFS) for _ in range(rng.randint(1, 3))}
    return tensor


def _ordered(tensor):
    return [(key, list(cell.items())) for key, cell in tensor.items()]


def test_contract_and_combine_match_the_multiplying_reference():
    rng = Random(407)
    nonzero = 0
    for _ in range(300):
        arity = rng.randint(0, 3)
        outer = _random_tensor(rng, arity, 3)
        slots = [None if rng.random() < 0.3 else by_output(_random_tensor(rng, rng.randint(0, 2), 3))
                 for _ in range(arity)]
        result = contract(outer, slots)
        assert _ordered(result) == _ordered(reference_contract(outer, slots))
        terms = [(result, rng.choice(_COEFFS)), (outer, Fraction(-1)),
                 (_random_tensor(rng, arity, 3), rng.choice(_COEFFS))]
        assert _ordered(combine(terms)) == _ordered(reference_combine(terms))
        nonzero += bool(result)
    assert nonzero >= 100


def test_relation_check_multiplies_only_by_coefficients_other_than_one(monkeypatch):
    # the 27-dimensional sphere algebra of the two-disks theory: combination
    # coefficients of one are not multiplied in, and -1 is applied by negation
    a = heisenberg(pairing(octahedron_sphere()))
    products = [0]
    multiply = Fraction.__mul__

    def counted(x, y):
        products[0] += 1
        return multiply(x, y)

    monkeypatch.setattr(Fraction, "__mul__", counted)
    assert check_relations(a.presentation, a) == []
    assert products[0] <= 150
