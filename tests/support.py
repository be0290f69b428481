"""Shared constructors for tests: catalog algebras, random complexes,
random presymplectic structures, random associative dg algebras, the
``Fraction`` arithmetic of sparse matrices, a ``Fraction`` Gauss-Jordan
reference for solving linear systems and for the maps that chain maps induce
on homology, and an element-wise reference evaluator of trees and of tensor
contraction.

Randomness is always driven by a caller-supplied ``random.Random`` so test
runs are reproducible.  "Random" algebras are produced by conjugating
catalog algebras with random invertible basis changes, which preserves all
defining identities exactly.
"""

from fractions import Fraction
from math import gcd, lcm
from random import Random

from opfield import operads
from opfield.algebras import DgAlgebra, PresymplecticComplex, element_add, element_scale
from opfield.complexes import ChainComplex, homology
from opfield.exact import RationalMatrix, kernel_basis


# ---------------------------------------------------------------------------
# catalog algebras
# ---------------------------------------------------------------------------

def matrix_algebra(n: int) -> DgAlgebra:
    """n x n matrices; basis E_ij flattened row-major."""
    idx = {(i, j): n * i + j for i in range(n) for j in range(n)}
    mu = {}
    for (a, b), p in idx.items():
        for (c, d), q in idx.items():
            if b == c:
                mu[(p, q)] = {idx[(a, d)]: Fraction(1)}
    eta = {idx[(i, i)]: Fraction(1) for i in range(n)}
    return DgAlgebra(ChainComplex({0: n * n}), "As", {operads.MU: mu, operads.ETA: eta})


def gl_with_unit(n: int) -> DgAlgebra:
    from opfield.algebras import commutator_functor

    return commutator_functor(matrix_algebra(n))


def dual_numbers() -> DgAlgebra:
    """Q[e]/(e^2), basis (1, e)."""
    mu = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}, (1, 0): {1: Fraction(1)}}
    return DgAlgebra(ChainComplex({0: 2}), "As", {operads.MU: mu, operads.ETA: {0: Fraction(1)}})


def truncated_polynomial(k: int) -> DgAlgebra:
    """Q[x]/(x^k), basis (1, x, ..., x^(k-1))."""
    mu = {}
    for a in range(k):
        for b in range(k):
            if a + b < k:
                mu[(a, b)] = {a + b: Fraction(1)}
    return DgAlgebra(ChainComplex({0: k}), "As", {operads.MU: mu, operads.ETA: {0: Fraction(1)}})


def upper_triangular2() -> DgAlgebra:
    """Upper triangular 2x2 matrices, basis (E11, E12, E22)."""
    idx = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
    mu = {}
    for (a, b), p in idx.items():
        for (c, d), q in idx.items():
            if b == c:
                mu[(p, q)] = {idx[(a, d)]: Fraction(1)}
    return DgAlgebra(ChainComplex({0: 3}), "As",
                     {operads.MU: mu, operads.ETA: {0: Fraction(1), 2: Fraction(1)}})


def product_fields() -> DgAlgebra:
    """Q x Q with componentwise multiplication."""
    mu = {(0, 0): {0: Fraction(1)}, (1, 1): {1: Fraction(1)}}
    return DgAlgebra(ChainComplex({0: 2}), "As",
                     {operads.MU: mu, operads.ETA: {0: Fraction(1), 1: Fraction(1)}})


def exterior_line(d_theta: int = 0) -> DgAlgebra:
    """Exterior algebra on one degree-1 generator theta; optionally d(theta) = 1."""
    mu = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}, (1, 0): {1: Fraction(1)}}
    diffs = {}
    if d_theta:
        diffs[1] = RationalMatrix(1, 1, {(0, 0): Fraction(d_theta)})
    carrier = ChainComplex({0: 1, 1: 1}, diffs)
    return DgAlgebra(carrier, "As", {operads.MU: mu, operads.ETA: {0: Fraction(1)}})


def exterior_square_dg() -> DgAlgebra:
    """Q[eps] tensor Lambda(theta) with d(theta) = eps; basis (1, eps; theta, eps*theta)."""
    # degree 0: 1, eps (indices 0, 1); degree 1: theta, eps*theta (indices 2, 3)
    one, eps, th, epsth = 0, 1, 2, 3
    mu = {}

    def put(a, b, c, v=1):
        mu.setdefault((a, b), {})[c] = Fraction(v)

    put(one, one, one); put(one, eps, eps); put(eps, one, eps)
    put(one, th, th); put(th, one, th)
    put(one, epsth, epsth); put(epsth, one, epsth)
    put(eps, th, epsth); put(th, eps, epsth)
    carrier = ChainComplex({0: 2, 1: 2}, {1: RationalMatrix(2, 2, {(1, 0): Fraction(1)})})
    return DgAlgebra(carrier, "As", {operads.MU: mu, operads.ETA: {one: Fraction(1)}})


def sl2_with_unit() -> DgAlgebra:
    """sl2 + Q*1 as a unital Lie algebra; basis (e, f, h, 1) with [e, f] = h,
    [h, e] = 2e, [h, f] = -2f and the unit its own central basis vector."""
    e, f, h, one = 0, 1, 2, 3
    bracket = {}
    for (a, b), (c, v) in {(e, f): (h, 1), (h, e): (e, 2), (h, f): (f, -2)}.items():
        bracket[(a, b)] = {c: Fraction(v)}
        bracket[(b, a)] = {c: Fraction(-v)}
    return DgAlgebra(ChainComplex({0: 4}), "uLie",
                     {operads.BRACKET: bracket, operads.ETA: {one: Fraction(1)}})


def jacobi_failing_theory_doc() -> dict:
    """A uLie theory document f1: c1 -> c <- c2: f2, (f1, f2) orthogonal, whose
    target c = span(x0, x1, x2, 1) has [x0, x1] = -x1, [x0, x2] = -x0 and
    [x1, x2] = x0 (antisymmetric, unit central).  f1 sends its generator to
    x0 + x1 and f2 to x2, so the images commute, but Jacobi fails on
    (x0, x1, x2) and the envelope of c is not associative: the images of
    longer monomials do not commute."""
    line = {"bracket": [], "carrier": {"d": {}, "dims": {"0": 2}}, "kind": "uLie",
            "unit": [[1, "1"]]}
    bracket = [[0, 1, 1, "-1"], [1, 0, 1, "1"], [0, 2, 0, "-1"], [2, 0, 0, "1"],
               [1, 2, 0, "1"], [2, 1, 0, "-1"]]
    return {"kind": "uLie", "objects": ["c", "c1", "c2"],
            "morphisms": [{"name": "f1", "src": "c1", "tgt": "c"},
                          {"name": "f2", "src": "c2", "tgt": "c"}],
            "compose": [], "orth": [["f1", "f2"]],
            "algebras": {"c": {"bracket": bracket, "carrier": {"d": {}, "dims": {"0": 4}},
                               "kind": "uLie", "unit": [[3, "1"]]},
                         "c1": line, "c2": line},
            "actions": {"f1": {"0": [[0, 0, "1"], [1, 0, "1"], [3, 1, "1"]]},
                        "f2": {"0": [[2, 0, "1"], [3, 1, "1"]]}}}


AS_CATALOG = [
    lambda: matrix_algebra(2),
    dual_numbers,
    lambda: truncated_polynomial(3),
    lambda: truncated_polynomial(4),
    upper_triangular2,
    product_fields,
    lambda: exterior_line(0),
    lambda: exterior_line(1),
    exterior_square_dg,
]


def truncated_poisson_algebra() -> DgAlgebra:
    """Sym(g)/(degree >= 3) for the Lie algebra {x, y} = y; basis
    (1, x, y, x^2, xy, y^2)."""
    basis = [(), ("x",), ("y",), ("x", "x"), ("x", "y"), ("y", "y")]
    index = {m: i for i, m in enumerate(basis)}

    def mono_mul(m1, m2):
        m = tuple(sorted(m1 + m2))
        return index.get(m)

    mu = {}
    for m1, i in index.items():
        for m2, j in index.items():
            k = mono_mul(m1, m2)
            if k is not None:
                mu[(i, j)] = {k: Fraction(1)}

    # {x, y} = y extended as a biderivation, truncated
    def poly_bracket(m1, m2):
        out = {}
        for a_pos, a in enumerate(m1):
            for b_pos, b in enumerate(m2):
                if a == b:
                    continue
                sign = 1 if (a, b) == ("x", "y") else -1
                rest = tuple(sorted(m1[:a_pos] + m1[a_pos + 1:] + m2[:b_pos] + m2[b_pos + 1:] + ("y",)))
                k = index.get(rest)
                if k is not None:
                    out[k] = out.get(k, Fraction(0)) + Fraction(sign)
        return {k: v for k, v in out.items() if v}

    pb = {}
    for m1, i in index.items():
        for m2, j in index.items():
            cell = poly_bracket(m1, m2)
            if cell:
                pb[(i, j)] = cell
    return DgAlgebra(ChainComplex({0: 6}), "Pois",
                     {operads.MU: mu, operads.ETA: {0: Fraction(1)}, operads.PBRACKET: pb})


# ---------------------------------------------------------------------------
# reference evaluator: trees applied to algebra elements one generator at a
# time, independent of the structure tensors in opfield.operads
# ---------------------------------------------------------------------------

def element_degree(algebra, x):
    """The degree of a homogeneous element of ``algebra``; None for zero."""
    degs = {algebra.basis.degree_of(i) for i in x}
    assert len(degs) <= 1, f"element is not homogeneous: degrees {sorted(degs)}"
    return degs.pop() if degs else None


def basis_elements(algebra) -> list:
    return [algebra.basis_element(i) for i in range(algebra.basis.total)]


def evaluate_tree(t, algebra, inputs):
    """A tree on homogeneous elements: inputs read in planar label order,
    with the Koszul sign of that reordering."""
    assert t.arity == len(inputs), (t.arity, len(inputs))
    order = t.planar_labels()
    sign = operads.koszul_sign(order, [element_degree(algebra, x) or 0 for x in inputs])
    queue = iter([inputs[l - 1] for l in order])

    def walk(s):
        if s.kind == "leaf":
            return next(queue)
        return algebra.apply_generator(s.gen, [walk(ch) for ch in s.children])

    return element_scale(sign, walk(t))


def evaluate(expr, algebra, inputs):
    """A tree or a linear combination of trees on homogeneous elements."""
    if isinstance(expr, operads.OperadTree):
        return evaluate_tree(expr, algebra, inputs)
    acc = {}
    for t, c in expr.terms.items():
        acc = element_add(acc, element_scale(c, evaluate_tree(t, algebra, inputs)))
    return acc


def reference_sum_cells(terms) -> dict:
    """``operads._sum_cells`` with every coefficient multiplied in: new keys go
    last, and a key whose sum reaches zero is deleted."""
    out = {}
    for key, cell, c in terms:
        row = out.setdefault(key, {})
        for j, v in cell.items():
            total = row.get(j, 0) + c * v
            if total:
                row[j] = total
            else:
                row.pop(j, None)
    return {key: cell for key, cell in out.items() if cell}


def reference_combine(terms) -> dict:
    return reference_sum_cells((key, cell, c) for tensor, c in terms for key, cell in tensor.items())


def reference_contract(tensor, slots) -> dict:
    """``operads.contract`` forming every product of combination coefficients."""
    def terms():
        for key, cell in tensor.items():
            combos = [((), 1)]
            for j, index in zip(key, slots):
                options = [((j,), 1)] if index is None else index.get(j, ())
                combos = [(k + k2, c * c2) for k, c in combos for k2, c2 in options]
            for k, c in combos:
                yield k, cell, c

    return reference_sum_cells(terms())


# ---------------------------------------------------------------------------
# reference sparse matrices: zero-free ``(row, col) -> Fraction`` dicts and
# their Fraction arithmetic, against which RationalMatrix's integer
# numerators over one denominator are checked
# ---------------------------------------------------------------------------

def reference_matmul(a: dict, b: dict) -> dict:
    by_row = {}
    for (r, c), v in b.items():
        by_row.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), v in a.items():
        for c, w in by_row.get(k, ()):
            out[(r, c)] = out.get((r, c), 0) + v * w
    return {key: x for key, x in out.items() if x}


def reference_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, v in b.items():
        out[key] = out.get(key, 0) + v
    return {key: x for key, x in out.items() if x}


def reference_hstack(a: dict, a_cols: int, b: dict) -> dict:
    return {**a, **{(r, a_cols + c): v for (r, c), v in b.items()}}


def reference_apply(rows: int, entries: dict, v) -> tuple:
    out = [Fraction(0)] * rows
    for (r, c), a in entries.items():
        out[r] += a * v[c]
    return tuple(out)


def reference_to_rows(rows: int, cols: int, entries: dict) -> list:
    return [[entries.get((r, c), Fraction(0)) for c in range(cols)] for r in range(rows)]


def reference_by_column(entries: dict) -> dict:
    out = {}
    for (r, c), v in entries.items():
        out.setdefault(c, []).append((r, v))
    return out


def reference_integer_rows(rows: int, entries: dict) -> list:
    """Each row times the lcm of its denominators, over the gcd of the result."""
    out = [{} for _ in range(rows)]
    for (r, c), v in entries.items():
        out[r][c] = v
    for i, row in enumerate(out):
        den = lcm(*(v.denominator for v in row.values()))
        ints = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        g = gcd(*ints.values())
        out[i] = {c: x // g for c, x in ints.items()}
    return out


def reference_validate_complex(c: ChainComplex) -> list:
    """The degrees where d.d is nonzero, by Fraction products."""
    degrees = sorted(set(c.dims) | {n - 1 for n in c.dims})
    return [f"d_{n} . d_{n + 1} != 0" for n in degrees
            if reference_matmul(dict(c.d(n).entries), dict(c.d(n + 1).entries))]


# ---------------------------------------------------------------------------
# reference linear algebra: plain Fraction Gauss-Jordan on sparse rows,
# independent of the integer eliminations in opfield.exact
# ---------------------------------------------------------------------------

def reference_rows(m: RationalMatrix, bs=()) -> list:
    """The rows of ``m`` as zero-free ``col -> Fraction`` dicts, with each
    right-hand side ``bs[j]`` as column ``m.cols + j``."""
    rows = [{} for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    for j, b in enumerate(bs):
        for r, v in enumerate(b):
            if v:
                rows[r][m.cols + j] = Fraction(v)
    return rows


def reference_eliminate(rows: list, ncols: int) -> list:
    """Gauss-Jordan in place over the first ``ncols`` columns: pivot columns
    left to right, in each the lowest-index unused row with a nonzero entry,
    divided by its pivot and cleared from every other row.  Returns the
    ``(pivot_column, row_index)`` pairs."""
    used = set()
    pivots = []
    for c in range(ncols):
        cand = next((r for r, row in enumerate(rows) if r not in used and c in row), None)
        if cand is None:
            continue
        used.add(cand)
        pivots.append((c, cand))
        inv = 1 / rows[cand][c]
        prow = rows[cand] = {k: v * inv for k, v in rows[cand].items()}
        for r, row in enumerate(rows):
            f = row.get(c)
            if r != cand and f:
                for k, v in prow.items():
                    nv = row.get(k, 0) - f * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
    return pivots


def reference_solve_many(m: RationalMatrix, bs) -> list:
    """For each ``b`` in ``bs``, one solution of ``m x = b`` with the free
    variables zero, or None when ``b`` is outside the column space."""
    rows = reference_rows(m, bs)
    pivots = reference_eliminate(rows, m.cols)
    pivot_rows = {ri for _, ri in pivots}
    unsolvable = {c - m.cols for r, row in enumerate(rows) if r not in pivot_rows for c in row}
    out = []
    for j in range(len(bs)):
        x = [Fraction(0)] * m.cols
        for c, ri in pivots:
            x[c] = rows[ri].get(m.cols + j, Fraction(0))
        out.append(None if j in unsolvable else tuple(x))
    return out


def reference_solve(m: RationalMatrix, b):
    return reference_solve_many(m, [b])[0]


def reference_induced_homology_map(f, n: int) -> RationalMatrix:
    """Matrix of H_n(f) in the canonical representative bases of
    :func:`opfield.complexes.homology`: the image of each source
    representative, solved as target representatives plus a boundary."""
    src_dim, src_reps = homology(f.source, n)
    tgt_dim, tgt_reps = homology(f.target, n)
    reps = RationalMatrix.from_columns(tgt_reps, rows=f.target.dim(n))
    system = reps.hstack(f.target.d(n + 1))
    images = [f.component(n).apply(z) for z in src_reps]
    entries = {}
    for j, x in enumerate(reference_solve_many(system, images)):
        assert x is not None, "cycle image is not a cycle modulo boundaries: f is not a chain map"
        entries.update(((i, j), x[i]) for i in range(tgt_dim) if x[i])
    return RationalMatrix(tgt_dim, src_dim, entries)


# ---------------------------------------------------------------------------
# random invertible basis changes
# ---------------------------------------------------------------------------

def random_invertible(rng: Random, n: int) -> RationalMatrix:
    """Product of unitriangular matrices and a permutation; small integer entries."""
    lower = {(i, i): Fraction(1) for i in range(n)}
    upper = {(i, i): Fraction(1) for i in range(n)}
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                lower[(i, j)] = Fraction(rng.randint(-2, 2))
            if rng.random() < 0.5:
                upper[(j, i)] = Fraction(rng.randint(-2, 2))
    perm = list(range(n))
    rng.shuffle(perm)
    p = RationalMatrix(n, n, {(perm[i], i): Fraction(1) for i in range(n)})
    return RationalMatrix(n, n, lower) @ RationalMatrix(n, n, upper) @ p


def invert(m: RationalMatrix) -> RationalMatrix:
    cols = reference_solve_many(m, [tuple(Fraction(1) if r == i else Fraction(0)
                                          for r in range(m.rows)) for i in range(m.rows)])
    assert all(c is not None for c in cols)
    return RationalMatrix.from_columns(cols, rows=m.cols)


def conjugate_algebra(a: DgAlgebra, rng: Random) -> DgAlgebra:
    """Transport all structure constants through a random basis change."""
    ps = {n: random_invertible(rng, a.carrier.dim(n)) for n in a.carrier.support}
    pinvs = {n: invert(p) for n, p in ps.items()}

    def push(x, mats):
        out = {}
        for i, c in x.items():
            n, li = a.basis.to_local(i)
            for (r, col), v in mats[n].entries.items():
                if col == li:
                    j = a.basis.to_global(n, r)
                    out[j] = out.get(j, Fraction(0)) + c * v
        return {k: v for k, v in out.items() if v}

    structure = {}
    for gen in a.presentation.alphabet.generators:
        tensor = a.structure[gen.name]
        if gen.arity == 0:
            structure[gen.name] = push(tensor, pinvs)
            continue
        new_tensor = {}
        total = a.basis.total

        def tuples(length):
            if length == 0:
                yield ()
                return
            for head in range(total):
                for tail in tuples(length - 1):
                    yield (head,) + tail

        for combo in tuples(gen.arity):
            args = [push(a.basis_element(i), ps) for i in combo]
            cell = push(a.apply_generator(gen.name, args), pinvs)
            if cell:
                new_tensor[combo] = cell
        structure[gen.name] = new_tensor
    diffs = {}
    for n in a.carrier.support:
        d = a.carrier.d(n)
        if d.rows and d.cols:
            nd = pinvs[n - 1] @ d @ ps[n] if a.carrier.dim(n - 1) else d
            diffs[n] = nd
    carrier = ChainComplex(dict(a.carrier.dims), diffs)
    return DgAlgebra(carrier, a.kind, structure)


def random_as_algebra(rng: Random) -> DgAlgebra:
    """Random associative dg algebra of dim <= 4: catalog entry in a random basis."""
    base = rng.choice(AS_CATALOG)()
    return conjugate_algebra(base, rng)


# ---------------------------------------------------------------------------
# random chain complexes and presymplectic complexes
# ---------------------------------------------------------------------------

def random_complex(rng: Random, max_total: int = 12, degree_span=(-2, 3)) -> ChainComplex:
    """Direct sum of elementary complexes in a random basis.

    Elementary pieces are a one-dimensional summand (a homology class) or an
    acyclic pair with identity differential, so d*d = 0 holds by construction
    and survives the basis change.
    """
    dims = {}
    pairs = []
    total = 0
    while total < max_total and rng.random() < 0.85:
        n = rng.randint(*degree_span)
        if rng.random() < 0.5 and total + 2 <= max_total:
            dims[n] = dims.get(n, 0) + 1
            dims[n - 1] = dims.get(n - 1, 0) + 1
            pairs.append(n)
            total += 2
        else:
            dims[n] = dims.get(n, 0) + 1
            total += 1
    # place identity blocks deterministically: acyclic pairs occupy the
    # leading positions of their degrees in creation order
    offsets = {n: 0 for n in dims}
    diff_entries = {}
    for n in pairs:
        r = offsets.get(n - 1, 0)
        c = offsets.get(n, 0)
        diff_entries.setdefault(n, {})[(r, c)] = Fraction(1)
        offsets[n - 1] = r + 1
        offsets[n] = c + 1
    diffs = {n: RationalMatrix(dims.get(n - 1, 0), dims.get(n, 0), e)
             for n, e in diff_entries.items()}
    c = ChainComplex(dims, diffs)
    # random basis change per degree
    ps = {n: random_invertible(rng, c.dim(n)) for n in c.support}
    pinvs = {n: invert(p) for n, p in ps.items()}
    new_diffs = {}
    for n in c.support:
        d = c.d(n)
        if d.rows and d.cols:
            new_diffs[n] = pinvs[n - 1] @ d @ ps[n]
    return ChainComplex(dims, new_diffs)


def random_presymplectic(rng: Random, dims=None) -> PresymplecticComplex:
    """Random pairing satisfying antisymmetry and the chain-map condition.

    The two conditions are linear in the pairing, so a random element of the
    constraint kernel is sampled with the exact solver.
    """
    if dims is None:
        c = random_complex(rng, max_total=4, degree_span=(-1, 1))
        if not c.dims:
            c = ChainComplex({0: 2})
    else:
        c = ChainComplex(dims, _random_differential(rng, dims))
    from opfield.algebras import GradedBasis

    basis = GradedBasis(c)
    total = basis.total
    # unknowns: omega(i, j) for pairs i < j of total degree 0; the lower
    # triangle follows by graded antisymmetry and the (even-degree) diagonal
    # is forced to vanish
    unknowns = []
    position = {}
    for i in range(total):
        for j in range(i + 1, total):
            if basis.degree_of(i) + basis.degree_of(j) == 0:
                position[(i, j)] = len(unknowns)
                unknowns.append((i, j))
    if not unknowns:
        return PresymplecticComplex(c, {})

    def omega_entry(i, j, coeffs):
        if i == j:
            return Fraction(0)
        if i < j:
            k = position.get((i, j))
            return coeffs[k] if k is not None else Fraction(0)
        k = position.get((j, i))
        if k is None:
            return Fraction(0)
        di, dj = basis.degree_of(i), basis.degree_of(j)
        sign = -1 if (di * dj) % 2 else 1
        return -sign * coeffs[k]

    # chain-map constraints: omega(dx_i, x_j) + (-1)^|i| omega(x_i, dx_j) = 0
    rows = []
    for i in range(total):
        for j in range(total):
            if basis.degree_of(i) + basis.degree_of(j) != 1:
                continue
            row = [Fraction(0)] * len(unknowns)
            dxi = basis.differential({i: Fraction(1)})
            for r, v in dxi.items():
                _accumulate(row, position, basis, r, j, v)
            sign = -1 if basis.degree_of(i) % 2 else 1
            dxj = basis.differential({j: Fraction(1)})
            for r, v in dxj.items():
                _accumulate(row, position, basis, i, r, sign * v)
            if any(row):
                rows.append(row)
    if rows:
        m = RationalMatrix.from_rows(rows)
        kernel = kernel_basis(m)
    else:
        kernel = [tuple(Fraction(1 if k == t else 0) for k in range(len(unknowns)))
                  for t in range(len(unknowns))]
    coeffs = [Fraction(0)] * len(unknowns)
    for vec in kernel:
        weight = Fraction(rng.randint(-3, 3))
        if weight:
            coeffs = [a + weight * b for a, b in zip(coeffs, vec)]
    omega = {}
    for i in range(total):
        for j in range(total):
            if basis.degree_of(i) + basis.degree_of(j) != 0:
                continue
            v = omega_entry(i, j, coeffs)
            if v:
                omega[(i, j)] = v
    return PresymplecticComplex(c, omega)


def _accumulate(row, position, basis, a, b, value):
    """Add ``value * omega(a, b)`` to a constraint row over the unknowns."""
    if a == b:
        return
    if a < b:
        k = position.get((a, b))
        if k is not None:
            row[k] += value
        return
    k = position.get((b, a))
    if k is None:
        return
    da, db = basis.degree_of(a), basis.degree_of(b)
    sign = -1 if (da * db) % 2 else 1
    row[k] += -sign * value


def _random_differential(rng: Random, dims):
    """A random d with d*d = 0: identity pairs placed greedily between
    adjacent degrees, then a random basis change."""
    entries = {}
    offsets = {n: 0 for n in dims}
    for n in sorted(dims):
        below = n - 1
        if below not in dims:
            continue
        while offsets[n] < dims[n] and offsets[below] < dims[below] and rng.random() < 0.6:
            entries.setdefault(n, {})[(offsets[below], offsets[n])] = Fraction(1)
            offsets[below] += 1
            offsets[n] += 1
    diffs = {n: RationalMatrix(dims.get(n - 1, 0), dims.get(n, 0), e)
             for n, e in entries.items()}
    c = ChainComplex(dims, diffs)
    ps = {n: random_invertible(rng, c.dim(n)) for n in c.support}
    pinvs = {n: invert(p) for n, p in ps.items()}
    out = {}
    for n in c.support:
        d = c.d(n)
        if d.rows and d.cols:
            nd = pinvs[n - 1] @ d @ ps[n]
            out[n] = nd
    return out


# ---------------------------------------------------------------------------
# reference Chern-Simons matrices: the relative-cochain bases recomputed from
# the raw surface data, and the coboundary, cup and extension formulas
# written out block by block, one per degree
# ---------------------------------------------------------------------------

def _sort_sign(ranks) -> int:
    """Parity of the permutation sorting distinct ``ranks``."""
    ranks = list(ranks)
    inversions = sum(1 for i in range(len(ranks)) for j in range(i + 1, len(ranks))
                     if ranks[i] > ranks[j])
    return -1 if inversions % 2 else 1


def reference_cochain_bases(s):
    """``(triangles, edges, vertices)``: all triangles, the edges with two
    incident triangles and the vertices on no one-triangle edge, simplices as
    vertex tuples sorted by ``s.vertex_order`` and listed in that order."""
    rank = {v: i for i, v in enumerate(s.vertex_order)}

    def ordered(simplex):
        return tuple(sorted(simplex, key=rank.__getitem__))

    def by_rank(simplex):
        return tuple(rank[v] for v in simplex)

    incidence = {}
    for t in s.triangles:
        for k in range(3):
            e = ordered((t[k], t[(k + 1) % 3]))
            incidence[e] = incidence.get(e, 0) + 1
    boundary = {v for e, count in incidence.items() if count == 1 for v in e}
    tris = sorted((ordered(t) for t in s.triangles), key=by_rank)
    edges = sorted((e for e, count in incidence.items() if count == 2), key=by_rank)
    verts = [v for v in s.vertex_order if v not in boundary]
    return tris, edges, verts


def reference_cs_diffs(s) -> dict:
    """Both differentials of the relative-cochain complex as the negated
    coboundary, written out: d_1 on vertices, d_0 on edges."""
    tris, edges, verts = reference_cochain_bases(s)
    vidx = {v: i for i, v in enumerate(verts)}
    eidx = {e: i for i, e in enumerate(edges)}
    d1 = {}
    for row, (a, b) in enumerate(edges):
        if a in vidx:
            d1[(row, vidx[a])] = Fraction(1)
        if b in vidx:
            d1[(row, vidx[b])] = Fraction(-1)
    d0 = {}
    for row, (a, b, c) in enumerate(tris):
        for face, sign in (((b, c), 1), ((a, c), -1), ((a, b), 1)):
            col = eidx.get(face)
            if col is not None:
                d0[(row, col)] = Fraction(-sign)
    return {0: RationalMatrix(len(tris), len(edges), d0),
            1: RationalMatrix(len(edges), len(verts), d1)}


def reference_cs_omega(s) -> dict:
    """The antisymmetrized cup pairing on the flattened basis (triangles,
    then edges, then vertices), with per-degree index maps."""
    tris, edges, verts = reference_cochain_bases(s)
    rank = {v: i for i, v in enumerate(s.vertex_order)}
    orientation = {tuple(sorted(t, key=rank.__getitem__)): _sort_sign(rank[v] for v in t)
                   for t in s.triangles}
    tidx = {t: i for i, t in enumerate(tris)}
    eidx = {e: len(tris) + i for i, e in enumerate(edges)}
    vidx = {v: len(tris) + len(edges) + i for i, v in enumerate(verts)}
    degree = {**{i: -1 for i in tidx.values()}, **{i: 0 for i in eidx.values()},
              **{i: 1 for i in vidx.values()}}
    cup = {}

    def add(key, value):
        cup[key] = cup.get(key, 0) + value

    for t in tris:
        a, b, c = t
        w = Fraction(orientation[t])
        if (a, b) in eidx and (b, c) in eidx:    # front edge cup back edge
            add((eidx[(a, b)], eidx[(b, c)]), w)
        if a in vidx:                            # front vertex cup triangle
            add((vidx[a], tidx[t]), w)
        if c in vidx:                            # triangle cup back vertex
            add((tidx[t], vidx[c]), w)
    ell = {-1: -1, 0: 1, 1: -1}
    omega = {}
    for (i, j), value in cup.items():
        term = Fraction(1, 2) * ell[degree[j]] * value
        koszul = -1 if (degree[i] * degree[j]) % 2 else 1
        omega[(i, j)] = omega.get((i, j), 0) + term
        omega[(j, i)] = omega.get((j, i), 0) - koszul * term
    return {k: v for k, v in omega.items() if v}


def reference_extension_components(f) -> dict:
    """Extension by zero along ``f``, one block per degree: each relative
    source simplex goes to its image, with the sign of the permutation that
    sorts the image in the target's vertex order."""
    src, tgt = f.source, f.target
    src_tris, src_edges, src_verts = reference_cochain_bases(src)
    tgt_tris, tgt_edges, tgt_verts = reference_cochain_bases(tgt)
    rank = {v: i for i, v in enumerate(tgt.vertex_order)}

    def image(simplex):
        mapped = [f.vertex_map[v] for v in simplex]
        return tuple(sorted(mapped, key=rank.__getitem__)), _sort_sign(rank[v] for v in mapped)

    tidx = {t: i for i, t in enumerate(tgt_tris)}
    eidx = {e: i for i, e in enumerate(tgt_edges)}
    vidx = {v: i for i, v in enumerate(tgt_verts)}
    tri_block = {}
    for col, t in enumerate(src_tris):
        key, sign = image(t)
        tri_block[(tidx[key], col)] = Fraction(sign)
    edge_block = {}
    for col, e in enumerate(src_edges):
        key, sign = image(e)
        edge_block[(eidx[key], col)] = Fraction(sign)
    vertex_block = {}
    for col, v in enumerate(src_verts):
        vertex_block[(vidx[f.vertex_map[v]], col)] = Fraction(1)
    return {-1: RationalMatrix(len(tgt_tris), len(src_tris), tri_block),
            0: RationalMatrix(len(tgt_edges), len(src_edges), edge_block),
            1: RationalMatrix(len(tgt_verts), len(src_verts), vertex_block)}
