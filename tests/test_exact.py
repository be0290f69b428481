import ast
import heapq
import json
from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opfield import exact
from opfield.algebras import PresymplecticComplex
from opfield.cherns import SurfaceDiagram, build_bcs, collar_inclusion, pairing
from opfield.complexes import (ChainComplex, ChainMap, homology, homology_dim, homology_dims,
                               is_quasi_iso, mapping_cone)
from opfield.envelope import ccr
from opfield.exact import RationalMatrix, kernel_basis, rank, rat, rat_str, rref
from opfield.fieldtheory import quantize
from opfield.jsonio import presymplectic_from_json, surface_from_json, theory_from_json
from support import (random_complex, reference_eliminate, reference_rows, reference_solve,
                     reference_solve_many)

DATA = Path(__file__).resolve().parent.parent / "src" / "opfield" / "data"

rationals = st.fractions(
    min_value=Fraction(-2**63), max_value=Fraction(2**63), max_denominator=2**63)


def test_rat_parsing_and_formatting():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat_str(Fraction(6, 4)) == "3/2"
    assert rat_str(Fraction(-8, 2)) == "-4"
    assert rat_str(Fraction(0)) == "0"
    for value in (True, False, 0.5):
        with pytest.raises(TypeError):
            rat(value)


# int-valued functions of ``math``; every other one returns floats
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def test_no_floating_point_in_the_package():
    found = []
    for path in sorted(DATA.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{where}: float")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where}: math.{a.name}" for a in node.names
                          if a.name not in INTEGER_MATH]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr not in INTEGER_MATH):
                found.append(f"{where}: math.{node.attr}")
    assert found == []


@given(rationals, rationals)
def test_rational_addition_is_exact(a, b):
    s = a + b
    assert s.denominator > 0
    from math import gcd
    assert gcd(abs(s.numerator), s.denominator) == 1
    assert s - b == a


@given(rationals, rationals)
def test_rational_mul_div_roundtrip(a, b):
    if b:
        assert (a / b) * b == a


def test_rref_identity():
    r, pivots, reduced = rref(RationalMatrix.identity(3))
    assert r == 3
    assert pivots == [0, 1, 2]
    assert reduced == RationalMatrix.identity(3)


def test_rref_zero_matrix():
    r, pivots, reduced = rref(RationalMatrix.zero(2, 5))
    assert r == 0 and pivots == [] and reduced.is_zero()


def test_rref_rank_one():
    # by hand: second row is twice the first, one pivot in column 0
    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    r, pivots, reduced = rref(m)
    assert r == 1 and pivots == [0]
    assert reduced == RationalMatrix.from_rows([[1, 2], [0, 0]])


def test_rref_is_idempotent_on_random_matrices():
    rng = Random(7)
    for _ in range(25):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = RationalMatrix(rows, cols, {
            (r, c): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for r in range(rows) for c in range(cols) if rng.random() < 0.5})
        _, _, reduced = rref(m)
        assert rref(reduced)[2] == reduced


def test_kernel_of_identity_is_empty():
    assert kernel_basis(RationalMatrix.identity(4)) == []


def test_kernel_of_zero_map():
    basis = kernel_basis(RationalMatrix.zero(1, 3))
    assert len(basis) == 3
    assert basis[0] == (1, 0, 0)


def test_kernel_single_equation():
    # x + y = 0 has kernel spanned by (1, -1) up to the canonical choice
    basis = kernel_basis(RationalMatrix.from_rows([[1, 1]]))
    assert basis == [(Fraction(-1), Fraction(1))]


def test_rank_nullity_on_random_matrices():
    rng = Random(21)
    for _ in range(40):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        m = RationalMatrix(rows, cols, {
            (r, c): Fraction(rng.randint(-3, 3))
            for r in range(rows) for c in range(cols) if rng.random() < 0.4})
        ker = kernel_basis(m)
        assert rank(m) + len(ker) == cols
        for v in ker:
            assert m.apply(v) == tuple([Fraction(0)] * rows)


# the reference solver of ``support``, which the tests that solve systems use

def test_solve_identity():
    b = (Fraction(3), Fraction(-1, 2))
    assert reference_solve(RationalMatrix.identity(2), b) == b


def test_solve_zero_map_inconsistent():
    assert reference_solve(RationalMatrix.zero(2, 3), (1, 0)) is None


def test_solve_scalar_division():
    assert reference_solve(RationalMatrix.from_rows([[2]]), [1]) == (Fraction(1, 2),)


def test_solve_free_variables_are_zero():
    # x + y = 1: canonical solution has the free variable zero
    x = reference_solve(RationalMatrix.from_rows([[1, 1]]), [1])
    assert x == (Fraction(1), Fraction(0))


def test_solve_many_mixed():
    m = RationalMatrix.from_rows([[1, 0], [0, 0]])
    sols = reference_solve_many(m, [(2, 0), (0, 1)])
    assert sols[0] == (Fraction(2), Fraction(0))
    assert sols[1] is None


def test_solutions_verify_on_random_systems():
    rng = Random(5)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = RationalMatrix(rows, cols, {
            (r, c): Fraction(rng.randint(-3, 3))
            for r in range(rows) for c in range(cols) if rng.random() < 0.6})
        x0 = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols))
        b = m.apply(x0)
        x = reference_solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        RationalMatrix.zero(2, 3) @ RationalMatrix.zero(2, 3)


def test_entry_bounds_checked():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, {(2, 0): 1})


def naive_add_into(out, terms, c):
    for k, v in terms:
        out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def test_add_into_matches_a_naive_dict_sum():
    rng = Random(2101)
    values = [Fraction(n, d) for n in range(-3, 4) if n for d in (1, 2, 3)] + [exact._ONE]
    for _ in range(300):
        out = {rng.randrange(10): rng.choice(values) for _ in range(rng.randrange(8))}
        for c in (exact._ONE, Fraction(-2, 3), 3):
            terms = [(rng.randrange(10), rng.choice(values)) for _ in range(rng.randrange(10))]
            # cancellations: a key of ``out`` sent to zero, and two terms that cancel
            if out:
                k = rng.choice(list(out))
                terms.append((k, -out[k] / c))
            v = rng.choice(values)
            terms += [(10, v), (10, -v)]
            rng.shuffle(terms)
            expected = naive_add_into(dict(out), terms, c)
            got = dict(out)
            exact._add_into(got, terms, c)
            assert got == expected
            assert all(got.values()) and 10 not in got


def test_by_column_groups_the_entries():
    for m in sample_matrices():
        grouped = {}
        for (r, c), v in sorted(m.entries.items()):
            grouped.setdefault(c, []).append((r, v))
        assert {c: sorted(col) for c, col in m._by_column().items()} == grouped
        assert m._by_column() is m._by_column()


def test_sum_and_product_match_dense_arithmetic():
    rng = Random(2102)
    for _ in range(60):
        rows, inner, cols = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        a, b = random_sparse(rng, rows, inner, 0.5), random_sparse(rng, inner, cols, 0.5)
        ra, rb = a.to_rows(), b.to_rows()
        product = [[sum((ra[i][k] * rb[k][j] for k in range(inner)), Fraction(0))
                    for j in range(cols)] for i in range(rows)]
        assert (a @ b).to_rows() == product
        assert 0 not in (a @ b).entries.values()
        c = random_sparse(rng, rows, inner, 0.5)
        assert (a + c).to_rows() == [[x + y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(ra, c.to_rows())]
        assert (a - a).is_zero()


# ---------------------------------------------------------------------------
# reference elimination: the Fraction Gauss-Jordan of ``support``, which takes
# pivot columns left to right and, in each column, the lowest-index unused
# row with a nonzero entry

def reference_rref(m):
    rows = reference_rows(m)
    pivots = reference_eliminate(rows, m.cols)
    entries = {(i, c): v for i, (_, ri) in enumerate(pivots) for c, v in rows[ri].items()}
    return len(pivots), [c for c, _ in pivots], RationalMatrix(m.rows, m.cols, entries)


def reference_kernel(m):
    _, pivot_cols, reduced = reference_rref(m)
    basis = []
    for f in range(m.cols):
        if f not in pivot_cols:
            v = [Fraction(0)] * m.cols
            v[f] = Fraction(1)
            for i, p in enumerate(pivot_cols):
                v[p] = -reduced.entry(i, f)
            basis.append(tuple(v))
    return basis


def random_sparse(rng, rows, cols, density):
    return RationalMatrix(rows, cols, {
        (r, c): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        for r in range(rows) for c in range(cols) if rng.random() < density})


def sample_matrices():
    """Random sparse matrices, low-rank products, and complex differentials."""
    rng = Random(2001)
    out = []
    for _ in range(40):
        out.append(random_sparse(rng, rng.randint(0, 9), rng.randint(0, 9),
                                 rng.choice((0.1, 0.25, 0.5))))
    for _ in range(40):
        inner = rng.randint(0, 4)
        a = random_sparse(rng, rng.randint(1, 10), inner, 0.4)
        b = random_sparse(rng, inner, rng.randint(1, 10), 0.4)
        out.append(a @ b)
    for _ in range(15):
        c = random_complex(rng)
        out.extend(c.d(n) for n in c.support)
    return out + integer_rank_cases()


def integer_rank_cases():
    """Inputs for the integer elimination behind ``rank``: large numerators
    over mixed denominators, rows with a common factor, repeated and
    proportional rows, empty shapes and a dense rational block."""
    rng = Random(2003)
    out = []

    def wide(rows, cols, density):
        return RationalMatrix(rows, cols, {
            (r, c): Fraction(rng.randint(-99, 99), rng.randint(1, 12))
            for r in range(rows) for c in range(cols) if rng.random() < density})

    for _ in range(12):
        out.append(wide(rng.randint(1, 9), rng.randint(1, 9), rng.choice((0.3, 0.6))))
    for _ in range(12):
        inner = rng.randint(1, 4)
        out.append(wide(rng.randint(2, 9), inner, 0.7) @ wide(inner, rng.randint(2, 9), 0.7))
    for _ in range(12):
        # every row carries a common factor, over a denominator on some rows
        base = wide(rng.randint(2, 8), rng.randint(2, 8), 0.6)
        factors = [Fraction(rng.choice((2, 3, 6, 35)), rng.choice((1, 1, 4)))
                   for _ in range(base.rows)]
        out.append(RationalMatrix(base.rows, base.cols, {
            (r, c): factors[r] * v.numerator for (r, c), v in base.entries.items()}))
    for _ in range(12):
        # duplicate and proportional copies of a few rows, shuffled
        base = wide(rng.randint(1, 4), rng.randint(2, 8), 0.6).to_rows()
        rows = list(base)
        for _ in range(rng.randint(1, 5)):
            q = Fraction(rng.choice((1, 1, -1, 2, -7)), rng.choice((1, 3, 12)))
            rows.append([q * v for v in rng.choice(base)])
        rng.shuffle(rows)
        out.append(RationalMatrix.from_rows(rows))
    out.append(RationalMatrix.from_rows([[2, 4, 6], [-3, -6, -9], [Fraction(1, 2), 1, Fraction(3, 2)]]))
    out.append(RationalMatrix.from_rows([[4, 6], [6, 9], [10, 15]]))
    out.append(RationalMatrix.zero(4, 5))
    out.append(RationalMatrix.zero(0, 5))
    out.append(RationalMatrix.zero(5, 0))
    out.append(wide(30, 30, 1.0))
    return out


def fresh(m):
    return RationalMatrix(m.rows, m.cols, m.entries)


def reference_markowitz_rank(m):
    """Rank by Markowitz elimination over Fractions: the sparsest row, then
    its sparsest column, eliminated from the rows not yet used."""
    rows = [dict() for _ in range(m.rows)]
    colindex = {}
    for (r, c), v in m.entries.items():
        rows[r][c] = v
        colindex.setdefault(c, set()).add(r)
    heap = [(len(row), ri) for ri, row in enumerate(rows) if row]
    heapq.heapify(heap)
    nrank = 0
    while heap:
        length, pi = heapq.heappop(heap)
        prow = rows[pi]
        if prow is None or len(prow) != length:
            continue
        rows[pi] = None
        pc = min(prow, key=lambda c: (len(colindex[c]), c))
        for c in prow:
            colindex[c].discard(pi)
        nrank += 1
        holders = colindex.pop(pc)
        inv = -1 / prow[pc]
        for ri in holders:
            row = rows[ri]
            f = row.pop(pc) * inv
            for k, v in prow.items():
                if k == pc:
                    continue
                nv = row.get(k, Fraction(0)) + f * v
                if nv:
                    if k not in row:
                        colindex[k].add(ri)
                    row[k] = nv
                else:
                    del row[k]
                    colindex[k].discard(ri)
            if row:
                heapq.heappush(heap, (len(row), ri))
    return nrank


def test_rank_matches_reference_elimination():
    for m in sample_matrices():
        expected = reference_rref(m)[0]
        assert reference_markowitz_rank(m) == expected, m
        assert rank(fresh(m)) == expected, m


def test_common_factors_are_divided_out(monkeypatch):
    divided = []
    divide = exact._divide_content

    def spy(row):
        before = gcd(*row.values())
        divide(row)
        assert gcd(*row.values()) == min(before, 1)  # gcd() of no entries is 0
        divided.append(before)

    monkeypatch.setattr(exact, "_divide_content", spy)
    # loading divides [4, 6] by 2 and leaves [3, 1]; the pivot 2 at (0, 0)
    # turns row 1 into 2*[3, 1] - 3*[2, 3] = [0, -7], whose content is 7
    assert rank(RationalMatrix.from_rows([[4, 6], [3, 1]])) == 2
    assert divided == [2, 1, 7]
    cases = integer_rank_cases()
    for check in (lambda m: rank(fresh(m)) == reference_markowitz_rank(m),
                  lambda m: rref(fresh(m)) == reference_rref(m)):
        divided.clear()
        for m in cases:
            assert check(m), m
        assert sum(g > 1 for g in divided) > 10


def test_canonical_results_equal_reference_elimination():
    for m in sample_matrices():
        assert rref(fresh(m)) == reference_rref(m), m
        assert kernel_basis(fresh(m)) == reference_kernel(m), m


def test_rank_and_rref_agree_whichever_is_cached_first():
    for m in sample_matrices():
        expected = reference_rref(m)
        rank_first = fresh(m)
        assert rank(rank_first) == expected[0]
        assert rref(rank_first) == expected
        rref_first = fresh(m)
        assert rref(rref_first) == expected
        assert rank(rref_first) == expected[0]


# ---------------------------------------------------------------------------
# CCR stage differentials of the shipped surfaces, under shuffled vertex orders

def shuffled_surface(name, seed):
    doc = json.loads((DATA / f"{name}.json").read_text())
    order = list(range(doc["vertices"]))
    Random(seed).shuffle(order)
    doc["vertex_order"] = order
    return surface_from_json(doc)


@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("name,n", [("annulus2", 4), ("tetra_sphere", 3), ("torus9", 2)])
def test_stage_ranks_match_fraction_reference(name, n, seed):
    p = pairing(shuffled_surface(name, seed))
    stage = ccr(p, n).stage_complex()
    for k in stage.support:
        assert rank(stage.d(k)) == reference_markowitz_rank(stage.d(k)), k
    # H(Sym^{<=n} V) = Sym^{<=n} H(V): the stage dims of the CCR algebra on
    # H(V) with zero pairing
    h = ChainComplex(homology_dims(p.carrier))
    sym = ccr(PresymplecticComplex(h, {}), n).stage_dims(n)
    assert homology_dims(stage) == {k: v for k, v in sym.items() if v}


def test_homology_representatives_match_fraction_reference():
    stage = ccr(pairing(shuffled_surface("annulus2", 31)), 2).stage_complex()
    for k in range(min(stage.support) - 1, max(stage.support) + 2):
        cycles = reference_kernel(stage.d(k))
        dnext = stage.d(k + 1)
        reps = []
        if cycles:
            stacked = dnext.hstack(RationalMatrix.from_columns(cycles, rows=stage.dim(k)))
            reps = [cycles[p - dnext.cols] for p in reference_rref(stacked)[1] if p >= dnext.cols]
        assert homology(stage, k) == (len(reps), reps), k


# ---------------------------------------------------------------------------
# Clearing: on a complex, the rows of d(n) at the pivot columns of d(n-1)
# can be left out without changing its rank

def fresh_complex(c):
    return ChainComplex(c.dims, {n: fresh(m) for n, m in c.diffs.items()})


def assert_clearing_keeps_ranks(c, check_pivots=True):
    """Rank each d(n) of the complex ``c`` plainly and with the rows at the
    pivot columns of the cleared elimination of d(n-1) left out, as
    ``homology_dims`` sweeps; assert that they agree, that the pivot columns
    are independent, and that ``homology_dims`` and ``homology_dim`` on
    fresh copies give the plain answer.  Returns the number of rows left out
    and the nonzero homology dimensions."""
    ranks, pivots, skipped = {}, [], 0
    for n in range(min(c.support, default=0), max(c.support, default=0) + 2):
        d = c.d(n)
        plain, _ = exact._markowitz_rank(d)
        cleared, cols = exact._markowitz_rank(d, pivots)
        assert cleared == plain == len(cols), n
        if check_pivots:
            sub = RationalMatrix(d.rows, len(cols), {
                (r, j): v for j, col in enumerate(cols) for r, v in d._by_column()[col]})
            assert rank(sub) == len(cols), n
        ranks[n] = plain
        skipped += len(pivots)
        pivots = cols
    expected = {n: c.dim(n) - ranks[n] - ranks[n + 1] for n in c.support}
    copy = fresh_complex(c)
    assert {n: homology_dim(copy, n) for n in c.support} == expected
    nonzero = {n: h for n, h in expected.items() if h}
    assert homology_dims(fresh_complex(c)) == nonzero
    return skipped, nonzero


def test_clearing_keeps_ranks_of_random_complexes():
    rng = Random(1601)
    skipped = nonacyclic = 0
    for max_total, span in [(12, (-2, 3))] * 30 + [(40, (-1, 2))] * 10 + [(0, (0, 0))]:
        rows, h = assert_clearing_keeps_ranks(random_complex(rng, max_total, span))
        skipped += rows
        nonacyclic += bool(h)
    assert skipped > 100 and nonacyclic > 20
    # an empty complex, and zero differentials between nonzero degrees
    assert_clearing_keeps_ranks(ChainComplex({}))
    assert_clearing_keeps_ranks(ChainComplex({0: 2, 1: 3, 3: 1}))


def shipped_ccr_algebras():
    for name in ("annulus2", "annulus3", "disk1", "tetra_sphere", "torus9"):
        yield name, pairing(surface_from_json(json.loads((DATA / f"{name}.json").read_text())))
    doc = json.loads((DATA / "plane_presymplectic.json").read_text())
    yield "plane_presymplectic", presymplectic_from_json(doc)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clearing_keeps_ranks_of_shipped_ccr_stages(n):
    for name, p in shipped_ccr_algebras():
        stage = ccr(p, n).stage_complex()
        _, h = assert_clearing_keeps_ranks(stage, check_pivots=stage.total_dim() < 5000)
        # H(Sym^{<=n} V) = Sym^{<=n} H(V)
        sym = ccr(PresymplecticComplex(ChainComplex(homology_dims(p.carrier)), {}), n)
        assert h == {k: v for k, v in sym.stage_dims(n).items() if v}, name


def null_homotopic(rng, c):
    """d h + h d for a random h of degree +1: a chain map ``c -> c``."""
    h = {n: random_sparse(rng, c.dim(n + 1), c.dim(n), 0.5) for n in c.support}
    zero = RationalMatrix.zero
    return {n: c.d(n + 1) @ h.get(n, zero(c.dim(n + 1), c.dim(n)))
            + h.get(n - 1, zero(c.dim(n), c.dim(n - 1))) @ c.d(n) for n in c.support}


def cone_cases():
    """(chain map, whether it is a quasi-isomorphism)."""
    rng = Random(1602)
    for _ in range(20):
        c = random_complex(rng)
        # a map that is zero on homology is a quasi-isomorphism iff c is
        # acyclic, that is iff the plain ranks add up to half of c
        acyclic = c.total_dim() == 2 * sum(exact._markowitz_rank(m)[0] for m in c.diffs.values())
        f = null_homotopic(rng, c)
        yield ChainMap(c, c, f), acyclic
        one = {n: RationalMatrix.identity(c.dim(n)) + m for n, m in f.items()}
        yield ChainMap(c, c, one), True
        yield ChainMap.zero(c, c), acyclic
    f = collar_inclusion()
    collar = build_bcs(SurfaceDiagram({"small": f.source, "large": f.target},
                                      {"collar": ("small", "large", f)}))
    for _, stage_map in quantize(collar, 2, check=False).stage_maps("collar"):
        yield stage_map, True
    toy3 = quantize(theory_from_json(json.loads((DATA / "toy3_theory.json").read_text())), 3,
                    check=False)
    for m in ("f1", "f2"):
        for label, stage_map in toy3.stage_maps(m):
            yield stage_map, label == "stage 0"


def test_clearing_keeps_ranks_of_mapping_cones():
    quasi_isos = others = 0
    for f, qiso in cone_cases():
        assert_clearing_keeps_ranks(mapping_cone(f))
        fresh_map = ChainMap(fresh_complex(f.source), fresh_complex(f.target),
                             {n: fresh(m) for n, m in f.components.items()})
        assert is_quasi_iso(fresh_map) == qiso
        quasi_isos += qiso
        others += not qiso
    assert quasi_isos > 20 and others > 10
