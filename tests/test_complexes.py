from fractions import Fraction
from random import Random

import pytest

from opfield.complexes import (ChainComplex, ChainMap, homology, homology_dim,
                               homology_dims, is_quasi_iso, mapping_cone, shift,
                               tensor, unit_complex, validate_complex)
from opfield.errors import StructuralError
from opfield.exact import RationalMatrix, rank

from support import random_complex, reference_induced_homology_map


def circle():
    """Cellular circle: two vertices, two oppositely oriented edges."""
    return ChainComplex({0: 2, 1: 2}, {1: RationalMatrix.from_rows([[-1, 1], [1, -1]])})


def acyclic_pair(n=0):
    """Q -> Q with the identity differential in degrees (n+1, n)."""
    return ChainComplex({n: 1, n + 1: 1}, {n + 1: RationalMatrix.identity(1)})


def test_validate_single_term():
    assert validate_complex(unit_complex()) == []


def test_validate_two_term_identity():
    assert validate_complex(acyclic_pair()) == []


def test_validate_rejects_nonzero_d_squared():
    c = ChainComplex({0: 1, 1: 1, 2: 1},
                     {1: RationalMatrix.identity(1), 2: RationalMatrix.identity(1)})
    report = validate_complex(c)
    assert report == ["d_1 . d_2 != 0"]


def test_shape_mismatch_is_structural():
    with pytest.raises(StructuralError):
        ChainComplex({0: 2, 1: 1}, {1: RationalMatrix.identity(1)})


def test_homology_of_point():
    dim, reps = homology(unit_complex(), 0)
    assert dim == 1 and reps == [(Fraction(1),)]


def test_homology_of_acyclic_pair():
    c = acyclic_pair(0)
    assert homology_dim(c, 0) == 0
    assert homology_dim(c, 1) == 0


def test_homology_of_circle():
    # hand elimination of the 2x2 boundary matrix: rank 1
    c = circle()
    assert homology_dims(c) == {0: 1, 1: 1}


def test_induced_map_of_identity():
    c = circle()
    f = ChainMap.identity(c)
    for n in (0, 1):
        m = reference_induced_homology_map(f, n)
        assert m == RationalMatrix.identity(homology_dim(c, n))


def test_induced_map_of_zero():
    c = circle()
    z = ChainMap.zero(c, c)
    for n in (0, 1):
        assert reference_induced_homology_map(z, n).is_zero()


def cylinder():
    """Circle x interval, cellular: two copies of the circle plus a collar."""
    # degrees: 0 -> 4 vertices, 1 -> 6 edges (two circles a1 a2 / b1 b2 and
    # two verticals v1 v2), 2 -> 2 squares
    d1 = RationalMatrix.from_rows([
        # a1  a2  b1  b2  v1  v2      (vertices p1 p2 q1 q2)
        [-1, 1, 0, 0, -1, 0],
        [1, -1, 0, 0, 0, -1],
        [0, 0, -1, 1, 1, 0],
        [0, 0, 1, -1, 0, 1],
    ])
    d2 = RationalMatrix.from_rows([
        # squares s1 (a1 side), s2 (a2 side)
        [1, 0],
        [0, 1],
        [-1, 0],
        [0, -1],
        [-1, 1],
        [1, -1],
    ])
    return ChainComplex({0: 4, 1: 6, 2: 2}, {1: d1, 2: d2})


def test_deformation_retract_inclusion_induces_isos():
    cyl = cylinder()
    assert validate_complex(cyl) == []
    assert homology_dims(cyl) == {0: 1, 1: 1}
    circ = circle()
    # include the circle as the bottom circle (vertices p1 p2, edges a1 a2)
    f = ChainMap(circ, cyl, {
        0: RationalMatrix(4, 2, {(0, 0): 1, (1, 1): 1}),
        1: RationalMatrix(6, 2, {(0, 0): 1, (1, 1): 1}),
    })
    assert f.commutes() == []
    for n in (0, 1):
        m = reference_induced_homology_map(f, n)
        assert m.rows == m.cols == 1 and rank(m) == 1
    assert is_quasi_iso(f)


def test_quasi_iso_fails_on_different_homology():
    f = ChainMap.zero(circle(), unit_complex())
    assert not is_quasi_iso(f)


def test_zero_map_between_acyclic_complexes_is_quasi_iso():
    f = ChainMap.zero(acyclic_pair(), acyclic_pair(5))
    assert is_quasi_iso(f)


def test_tensor_with_unit():
    c = circle()
    t = tensor(unit_complex(), c)
    assert t.dims == c.dims
    assert all(t.d(n) == c.d(n) for n in c.support)


def test_tensor_of_circles_is_torus():
    t = tensor(circle(), circle())
    assert validate_complex(t) == []
    assert homology_dims(t) == {0: 1, 1: 2, 2: 1}


def test_tensor_with_acyclic_is_acyclic():
    rng = Random(3)
    for _ in range(3):
        c = random_complex(rng, max_total=6)
        t = tensor(acyclic_pair(), c)
        assert validate_complex(t) == []
        assert homology_dims(t) == {}


def test_shift_zero_is_identity():
    c = circle()
    assert shift(c, 0) == c


def test_shift_circle():
    s = shift(circle(), 1)
    assert homology_dims(s) == {1: 1, 2: 1}


def test_double_shift_roundtrip():
    c = circle()
    assert shift(shift(c, 3), -3) == c


def test_shift_sign_keeps_complex_valid():
    rng = Random(11)
    c = random_complex(rng)
    s = shift(c, 1)
    assert validate_complex(s) == []
    assert homology_dims(s) == {n + 1: d for n, d in homology_dims(c).items()}


def test_euler_characteristic_identity():
    rng = Random(17)
    for _ in range(30):
        c = random_complex(rng)
        assert validate_complex(c) == []
        chi_dims = c.euler_characteristic()
        chi_homology = sum((-1) ** n * d for n, d in homology_dims(c).items())
        assert chi_dims == chi_homology


def test_kunneth_dimensions():
    rng = Random(23)
    for _ in range(10):
        c = random_complex(rng, max_total=6)
        d = random_complex(rng, max_total=6)
        t = tensor(c, d)
        hc, hd, ht = homology_dims(c), homology_dims(d), homology_dims(t)
        degrees = {p + q for p in hc for q in hd}
        for n in degrees | set(ht):
            expected = sum(hc.get(p, 0) * hd.get(n - p, 0) for p in hc)
            assert ht.get(n, 0) == expected


def test_quasi_iso_two_of_three():
    # inclusion into a sum with an acyclic pair, then projection back: both
    # factors and the composite are quasi-isos
    rng = Random(29)
    for _ in range(10):
        c = random_complex(rng, max_total=6)
        pad = acyclic_pair(rng.randint(-1, 2))
        dims = {n: c.dim(n) + pad.dim(n) for n in set(c.dims) | set(pad.dims)}
        diffs = {}
        for n in set(c.diffs) | set(pad.diffs):
            entries = dict(c.d(n).entries)
            for (r, cc), v in pad.d(n).entries.items():
                entries[(c.dim(n - 1) + r, c.dim(n) + cc)] = v
            diffs[n] = RationalMatrix(dims.get(n - 1, 0), dims.get(n, 0), entries)
        summed = ChainComplex(dims, diffs)
        assert validate_complex(summed) == []
        incl = ChainMap(c, summed, {
            n: RationalMatrix(summed.dim(n), c.dim(n),
                              {(i, i): 1 for i in range(c.dim(n))})
            for n in c.support})
        proj = ChainMap(summed, c, {
            n: RationalMatrix(c.dim(n), summed.dim(n),
                              {(i, i): 1 for i in range(c.dim(n))})
            for n in c.support})
        assert incl.commutes() == [] and proj.commutes() == []
        assert is_quasi_iso(incl) and is_quasi_iso(proj)
        assert is_quasi_iso(proj.compose(incl))
        assert is_quasi_iso(incl.compose(proj))


def test_compose_of_quasi_isos_through_cylinder():
    circ = circle()
    cyl = cylinder()
    f = ChainMap(circ, cyl, {
        0: RationalMatrix(4, 2, {(0, 0): 1, (1, 1): 1}),
        1: RationalMatrix(6, 2, {(0, 0): 1, (1, 1): 1}),
    })
    # projection cylinder -> circle collapsing the collar
    g = ChainMap(cyl, circ, {
        0: RationalMatrix(2, 4, {(0, 0): 1, (1, 1): 1, (0, 2): 1, (1, 3): 1}),
        1: RationalMatrix(2, 6, {(0, 0): 1, (1, 1): 1, (0, 2): 1, (1, 3): 1}),
    })
    assert g.commutes() == []
    assert is_quasi_iso(g)
    assert is_quasi_iso(g.compose(f))


def test_empty_support_complex():
    empty = ChainComplex({})
    assert validate_complex(empty) == []
    assert homology_dims(empty) == {}
    assert tensor(empty, circle()).dims == {}


def induces_isomorphisms(f):
    """Reference verdict: every H_n(f) is square and of full rank."""
    for n in set(f.source.dims) | set(f.target.dims):
        m = reference_induced_homology_map(f, n)
        if m.rows != m.cols or rank(m) != m.rows:
            return False
    return True


def null_homotopic(c, rng):
    """dh + hd for a random degree-raising h on ``c``."""
    h = {n: RationalMatrix(c.dim(n + 1), c.dim(n),
                           {(r, k): rng.randint(-2, 2)
                            for r in range(c.dim(n + 1)) for k in range(c.dim(n))})
         for n in c.support}
    zero = RationalMatrix.zero
    return ChainMap(c, c, {
        n: c.d(n + 1) @ h.get(n, zero(c.dim(n + 1), c.dim(n)))
        + h.get(n - 1, zero(c.dim(n), c.dim(n - 1))) @ c.d(n)
        for n in c.support})


def test_mapping_cone_decides_quasi_isos_like_the_induced_maps():
    rng = Random(41)
    not_quasi_isos = 0  # all maps are endomorphisms: equal homology dims
    for _ in range(40):
        c = random_complex(rng, max_total=8)
        ident = ChainMap.identity(c)
        homotopic = null_homotopic(c, rng)
        scalar = rng.choice([-3, -1, Fraction(1, 2), 2])
        maps = {
            "identity": ident,
            "scalar": ChainMap(c, c, {n: m.scale(scalar) for n, m in ident.components.items()}),
            "zero": ChainMap.zero(c, c),
            "homotopic": homotopic,
            "id+homotopic": ChainMap(c, c, {n: ident.component(n) + homotopic.component(n)
                                            for n in c.support}),
        }
        for kind, f in maps.items():
            assert f.commutes() == [], kind
            cone = mapping_cone(f)
            assert validate_complex(cone) == [], kind
            assert cone.euler_characteristic() == (c.euler_characteristic()
                                                   - c.euler_characteristic())
            verdict = is_quasi_iso(f)
            assert verdict == induces_isomorphisms(f), kind
            assert verdict == (kind in ("identity", "scalar", "id+homotopic")
                               or not homology_dims(c)), kind
            not_quasi_isos += not verdict
    assert not_quasi_isos > 10


def test_mapping_cone_between_different_complexes():
    rng = Random(43)
    for _ in range(20):
        a, b = random_complex(rng, max_total=6), random_complex(rng, max_total=6)
        f = ChainMap.zero(a, b)
        cone = mapping_cone(f)
        assert validate_complex(cone) == []
        assert cone.euler_characteristic() == b.euler_characteristic() - a.euler_characteristic()
        assert cone.dims == {n: a.dim(n - 1) + b.dim(n)
                             for n in {m + 1 for m in a.dims} | set(b.dims)
                             if a.dim(n - 1) + b.dim(n)}
        assert is_quasi_iso(f) == induces_isomorphisms(f) == (not homology_dims(a)
                                                              and not homology_dims(b))


def test_mapping_cone_of_empty_complex():
    empty = ChainComplex({})
    assert mapping_cone(ChainMap.identity(empty)).dims == {}
    assert is_quasi_iso(ChainMap.identity(empty))
    assert mapping_cone(ChainMap.zero(empty, circle())).dims == circle().dims
    assert not is_quasi_iso(ChainMap.zero(empty, circle()))
    assert is_quasi_iso(ChainMap.zero(empty, acyclic_pair()))
