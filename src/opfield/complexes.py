"""Chain complexes of finite-dimensional rational vector spaces.

Homological convention throughout: the differential lowers degree by one, so
``d(n)`` is a matrix of shape ``dim(n-1) x dim(n)``.  Complexes have finite
support; degrees outside the support carry the zero space.

Homology dimensions are rank arithmetic, and so is quasi-isomorphism
detection: a chain map is a quasi-isomorphism iff its mapping cone is
acyclic.  The ranks are cleared (see :mod:`opfield.exact`): ``d(n)`` is
ranked without the rows at the pivot columns of ``d(n-1)``, which on nearly
acyclic complexes such as CCR stages are most of the rows that would reduce
to zero.  So :func:`homology_dim`, :func:`homology_dims` and
:func:`is_quasi_iso` require ``d.d = 0`` (and a chain map, for the cone) and
do not check it: :func:`validate_complex` does.  Homology representatives
are read off the canonical elimination from :mod:`opfield.exact`, so basis
choices are reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import StructuralError
from .exact import RationalMatrix, Vector, kernel_basis, rank_pivots, rref


class ChainComplex:
    """Finitely supported Z-graded complex with exact rational differentials."""

    __slots__ = ("dims", "diffs")

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
    cycles = kernel_basis(c.d(n))
    if not cycles:
        return 0, []
    dnext = c.d(n + 1)
    stacked = dnext.hstack(RationalMatrix.from_columns(cycles, rows=c.dim(n)))
    _, pivot_cols, _ = rref(stacked)
    reps = [cycles[p - dnext.cols] for p in pivot_cols if p >= dnext.cols]
    return len(reps), reps


def homology_dim(c: ChainComplex, n: int) -> int:
    """dim H_n, from the rank of ``d(n)`` and the rank of ``d(n+1)`` cleared
    by the pivot columns of ``d(n)``.  Requires ``d(n) d(n+1) = 0``: on a
    non-complex the cleared rank, and the rank memoized on ``d(n+1)``, can
    be wrong."""
    r, pivots = rank_pivots(c.d(n))
    return c.dim(n) - r - rank_pivots(c.d(n + 1), pivots)[0]


def homology_dims(c: ChainComplex) -> Dict[int, int]:
    """dim H_n of every degree with nonzero homology.

    The differentials are ranked upward, each ``d(n)`` with the rows at the
    pivot columns of ``d(n-1)`` left out (clearing).  Requires ``d.d = 0``,
    as :func:`homology_dim` does."""
    ranks, pivots = {}, ()
    for n in sorted(c.diffs):
        ranks[n], pivots = rank_pivots(c.diffs[n], pivots if n - 1 in ranks else ())
    out = {}
    for n in c.support:
        h = c.dim(n) - ranks.get(n, 0) - ranks.get(n + 1, 0)
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


def mapping_cone(f: ChainMap) -> ChainComplex:
    """cone(f)_n = A_{n-1} (+) B_n, A's block first, with
    d(a, b) = (-d_A a, f a + d_B b), for ``f: A -> B``."""
    a, b = f.source, f.target
    degrees = {n + 1 for n in a.dims} | set(b.dims)
    diffs = {}
    for n in degrees:
        ra, ca = a.dim(n - 2), a.dim(n - 1)
        entries = {key: -v for key, v in a.d(n - 1).entries.items()}
        entries.update(((ra + r, c), v) for (r, c), v in f.component(n - 1).entries.items())
        entries.update(((ra + r, ca + c), v) for (r, c), v in b.d(n).entries.items())
        diffs[n] = RationalMatrix(ra + b.dim(n - 1), ca + b.dim(n), entries)
    return ChainComplex({n: a.dim(n - 1) + b.dim(n) for n in degrees}, diffs)


def is_quasi_iso(f: ChainMap) -> bool:
    """True iff the chain map ``f`` induces isomorphisms on homology in every
    degree, decided by ranks alone: its mapping cone is acyclic.  Requires
    that source and target are complexes and ``f`` is a chain map, so that
    the cone is a complex."""
    return not homology_dims(mapping_cone(f))


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
