"""Chain complexes of finite-dimensional rational vector spaces.

Homological convention throughout: the differential lowers degree by one, so
``d(n)`` is a matrix of shape ``dim(n-1) x dim(n)``.  Complexes have finite
support; degrees outside the support carry the zero space.

Homology representatives, induced maps on homology and quasi-isomorphism
detection all use the deterministic elimination from :mod:`opfield.exact`,
so basis choices are reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import StructuralError
from .exact import RationalMatrix, Vector, kernel_basis, rank, rref, solve_many


class ChainComplex:
    """Finitely supported Z-graded complex with exact rational differentials."""

    __slots__ = ("dims", "diffs", "_homology_cache")

    def __init__(self, dims: Dict[int, int], diffs: Optional[Dict[int, RationalMatrix]] = None):
        self.dims = {int(n): int(d) for n, d in dims.items() if int(d) != 0}
        for n, d in self.dims.items():
            if d < 0:
                raise StructuralError(f"negative dimension {d} in degree {n}")
        self.diffs = {}
        for n, m in (diffs or {}).items():
            n = int(n)
            expected = (self.dim(n - 1), self.dim(n))
            if (m.rows, m.cols) != expected:
                raise StructuralError(
                    f"differential in degree {n} has shape {m.rows}x{m.cols}, expected {expected[0]}x{expected[1]}"
                )
            if not m.is_zero():
                self.diffs[n] = m
        self._homology_cache = {}

    @property
    def support(self) -> List[int]:
        return sorted(self.dims)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def d(self, n: int) -> RationalMatrix:
        m = self.diffs.get(n)
        if m is None:
            return RationalMatrix.zero(self.dim(n - 1), self.dim(n))
        return m

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * d for n, d in self.dims.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self.dims != other.dims:
            return False
        degrees = set(self.diffs) | set(other.diffs)
        return all(self.d(n) == other.d(n) for n in degrees)

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}: {d}" for n, d in sorted(self.dims.items()))
        return f"ChainComplex({{{parts}}})"


def unit_complex() -> ChainComplex:
    """The monoidal unit: the ground field in degree 0."""
    return ChainComplex({0: 1})


def validate_complex(c: ChainComplex) -> List[str]:
    """List of degrees where d*d fails; empty iff ``c`` is a complex.

    Shape mismatches raise :class:`StructuralError` at construction time, so
    this only has to test the d-squared condition.
    """
    issues = []
    degrees = sorted(set(c.dims) | {n - 1 for n in c.dims})
    for n in degrees:
        prod = c.d(n) @ c.d(n + 1)
        if not prod.is_zero():
            issues.append(f"d_{n} . d_{n + 1} != 0")
    return issues


def homology(c: ChainComplex, n: int) -> Tuple[int, List[Vector]]:
    """Dimension of H_n and representative cycles forming a basis of H_n.

    Representatives are chosen deterministically: kernel vectors of ``d(n)``
    whose classes are independent of the image of ``d(n+1)``, selected by the
    canonical elimination pivot order.
    """
    cached = c._homology_cache.get(n)
    if cached is not None:
        return cached
    dn = c.d(n)
    cycles = kernel_basis(dn)
    dnext = c.d(n + 1)
    if not cycles:
        result = (0, [])
        c._homology_cache[n] = result
        return result
    stacked = dnext.hstack(RationalMatrix.from_columns(cycles, rows=c.dim(n)))
    _, pivot_cols, _ = rref(stacked)
    reps = [cycles[p - dnext.cols] for p in pivot_cols if p >= dnext.cols]
    result = (len(reps), reps)
    c._homology_cache[n] = result
    return result


def homology_dim(c: ChainComplex, n: int) -> int:
    cached = c._homology_cache.get(n)
    if cached is not None:
        return cached[0]
    return (c.dim(n) - rank(c.d(n))) - rank(c.d(n + 1))


def homology_dims(c: ChainComplex) -> Dict[int, int]:
    out = {}
    for n in c.support:
        h = homology_dim(c, n)
        if h:
            out[n] = h
    return out


class ChainMap:
    """Degree-wise matrices commuting with the differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: ChainComplex, target: ChainComplex,
                 components: Optional[Dict[int, RationalMatrix]] = None):
        self.source = source
        self.target = target
        self.components = {}
        for n, m in (components or {}).items():
            n = int(n)
            expected = (target.dim(n), source.dim(n))
            if (m.rows, m.cols) != expected:
                raise StructuralError(
                    f"chain map component in degree {n} has shape {m.rows}x{m.cols}, expected {expected[0]}x{expected[1]}"
                )
            if not m.is_zero():
                self.components[n] = m

    @classmethod
    def identity(cls, c: ChainComplex) -> "ChainMap":
        return cls(c, c, {n: RationalMatrix.identity(c.dim(n)) for n in c.support})

    @classmethod
    def zero(cls, source: ChainComplex, target: ChainComplex) -> "ChainMap":
        return cls(source, target, {})

    def component(self, n: int) -> RationalMatrix:
        m = self.components.get(n)
        if m is None:
            return RationalMatrix.zero(self.target.dim(n), self.source.dim(n))
        return m

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        if other.target.dims != self.source.dims:
            raise StructuralError("composition shape mismatch")
        degrees = set(self.components) | set(other.components)
        comps = {n: self.component(n) @ other.component(n) for n in degrees}
        return ChainMap(other.source, self.target, comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source.dims != other.source.dims or self.target.dims != other.target.dims:
            return False
        degrees = set(self.components) | set(other.components)
        return all(self.component(n) == other.component(n) for n in degrees)

    def commutes(self) -> List[str]:
        """Degrees where the map fails to intertwine the differentials."""
        issues = []
        degrees = sorted(set(self.source.dims) | set(self.target.dims))
        for n in degrees:
            lhs = self.target.d(n) @ self.component(n)
            rhs = self.component(n - 1) @ self.source.d(n)
            if lhs != rhs:
                issues.append(f"degree {n}: d.f != f.d")
        return issues


def induced_homology_map(f: ChainMap, n: int) -> RationalMatrix:
    """Matrix of H_n(f) in the canonical representative bases.

    The image of each source representative is decomposed as a combination of
    target representatives plus a boundary; failure to decompose would mean
    ``f`` is not a chain map and raises AssertionError.
    """
    src_dim, src_reps = homology(f.source, n)
    tgt_dim, tgt_reps = homology(f.target, n)
    if src_dim == 0 or f.target.dim(n) == 0:
        return RationalMatrix.zero(tgt_dim, src_dim)
    reps_matrix = RationalMatrix.from_columns(tgt_reps, rows=f.target.dim(n)) if tgt_reps \
        else RationalMatrix.zero(f.target.dim(n), 0)
    system = reps_matrix.hstack(f.target.d(n + 1))
    images = [f.component(n).apply(z) for z in src_reps]
    sols = solve_many(system, images)
    entries = {}
    for j, x in enumerate(sols):
        if x is None:
            raise AssertionError("cycle image is not a cycle modulo boundaries; f is not a chain map")
        for i in range(tgt_dim):
            if x[i]:
                entries[(i, j)] = x[i]
    return RationalMatrix(tgt_dim, src_dim, entries)


def is_quasi_iso(f: ChainMap) -> bool:
    """True iff H_n(f) is invertible for every degree in either support."""
    degrees = sorted(set(f.source.dims) | set(f.target.dims))
    for n in degrees:
        hs = homology_dim(f.source, n)
        ht = homology_dim(f.target, n)
        if hs != ht:
            return False
        if hs == 0:
            continue
        if rank(induced_homology_map(f, n)) != hs:
            return False
    return True


def tensor(c: ChainComplex, d: ChainComplex) -> ChainComplex:
    """Tensor product with Koszul signs.

    Degree-n basis is ordered lexicographically in (p, i, j) over summands
    c_p (x) d_{n-p}; the differential is d(x (x) y) = dx (x) y + (-1)^p x (x) dy.
    """
    index: Dict[Tuple[int, int, int, int], int] = {}
    dims: Dict[int, int] = {}
    ordered: Dict[int, list] = {}
    for p in c.support:
        for q in d.support:
            n = p + q
            for i in range(c.dim(p)):
                for j in range(d.dim(q)):
                    ordered.setdefault(n, []).append((p, q, i, j))
    for n, basis in ordered.items():
        dims[n] = len(basis)
        for col, key in enumerate(basis):
            index[key] = col
    diff_entries: Dict[int, dict] = {}
    c_cols = {p: c.d(p)._by_column() for p in c.support}
    d_cols = {q: d.d(q)._by_column() for q in d.support}
    # each (row, col) is hit once: dx (x) y and x (x) dy lie in different summands
    for n, basis in ordered.items():
        entries = diff_entries.setdefault(n, {})
        for col, (p, q, i, j) in enumerate(basis):
            for r, v in c_cols[p].get(i, ()):
                row = index.get((p - 1, q, r, j))
                if row is not None:
                    entries[(row, col)] = v
            sign = -1 if p % 2 else 1
            for r, v in d_cols[q].get(j, ()):
                row = index.get((p, q - 1, i, r))
                if row is not None:
                    entries[(row, col)] = sign * v
    diffs = {}
    for n, entries in diff_entries.items():
        rows = dims.get(n - 1, 0)
        cols = dims.get(n, 0)
        if rows and cols:
            diffs[n] = RationalMatrix(rows, cols, entries)
    return ChainComplex(dims, diffs)


def shift(c: ChainComplex, k: int) -> ChainComplex:
    """Degree shift by k; the differential picks up the sign (-1)^k."""
    dims = {n + k: d for n, d in c.dims.items()}
    sign = -1 if k % 2 else 1
    diffs = {n + k: (m if sign == 1 else m.scale(sign)) for n, m in c.diffs.items()}
    return ChainComplex(dims, diffs)
