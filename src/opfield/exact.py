"""Exact rational scalars and sparse linear algebra over the rationals.

Everything downstream (homology, normal forms, causality checks) reduces to
rank / kernel / solve questions about sparse matrices with Fraction entries.
No floating point is used anywhere; all results are exact.

Two eliminations answer two kinds of question.  ``rank`` needs only a number,
so it pivots for sparsity (Markowitz: sparsest row, then that row's sparsest
column), eliminates only the rows not yet used and never back-substitutes.
It works on primitive integer rows, whose updates only scale a row by a
nonzero number and add a multiple of a pivot row: the rank over Q is exact,
with no Fraction, modulus or certificate.  ``rref``, ``kernel_basis`` and
``solve_many`` need a basis, so they run Gauss-Jordan over Fractions with
pivot columns left to right; within a column the pivot is the sparsest row
holding it.  The reduced row echelon form is unique, so the pivot order
never shows in a result: every reported basis is the canonical one.

Matrices are immutable after construction.  Ranks, row-reduction results
and the column index :meth:`RationalMatrix._by_column` are memoized on the
matrix object, so repeated homology queries against the same differential do
not re-eliminate and every map that reads a matrix column by column shares
one index.

Sparse vectors everywhere in the package (algebra elements, PBW elements,
structure-tensor cells, matrix entries) are dicts that never hold a zero.
They are summed by one private kernel, :func:`_add_into` (``out += c * x``
in place), which deletes sums that reach zero but stores a new key as given:
it relies on its inputs being zero-free, which is why every constructor that
takes outside data drops zero entries.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _add_into(out: dict, terms: Iterable[tuple], c: Fraction = _ONE) -> None:
    """``out += c * terms`` in place, dropping zero sums; new keys go last, and
    the shared ``_ONE``, as ``c`` or as a term's coefficient, is not multiplied."""
    for w, v in terms:
        if c is not _ONE:
            v = c if v is _ONE else c * v
        old = out.get(w)
        if old is not None:
            v = old + v
            if not v:
                del out[w]
                continue
        out[w] = v


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` or ``"-2"``, and Fractions."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def rat_str(value: Fraction) -> str:
    """Canonical string form: ``"p"`` when the denominator is 1, else ``"p/q"``."""
    value = rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


Vector = tuple  # dense tuple of Fractions


def vec(values: Iterable) -> Vector:
    return tuple(rat(v) for v in values)


class RationalMatrix:
    """Sparse matrix over the rationals, stored as (row, col) -> Fraction.

    Zero entries are never stored.  Instances must be treated as immutable;
    all operations return new matrices.
    """

    __slots__ = ("rows", "cols", "entries", "_rref", "_rank", "_columns")

    def __init__(self, rows: int, cols: int, entries: Mapping = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index ({r}, {c}) out of range for {rows}x{cols}")
            v = rat(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean
        self._rref = None
        self._rank = None
        self._columns = None

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RationalMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged row data")
            for c, v in enumerate(row):
                v = rat(v)
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: Optional[int] = None) -> "RationalMatrix":
        if rows is None:
            rows = len(columns[0]) if columns else 0
        entries = {}
        for c, col in enumerate(columns):
            for r, v in enumerate(col):
                v = rat(v)
                if v:
                    entries[(r, c)] = v
        return cls(rows, len(columns), entries)

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), _ZERO)

    def is_zero(self) -> bool:
        return not self.entries

    def to_rows(self) -> list:
        data = [[_ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            data[r][c] = v
        return data

    def _by_column(self) -> dict:
        """The entries indexed by column, ``col -> [(row, value)]``; built once."""
        if self._columns is None:
            self._columns = {}
            for (r, c), v in self.entries.items():
                self._columns.setdefault(c, []).append((r, v))
        return self._columns

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        entries = dict(self.entries)
        _add_into(entries, other.entries.items())
        return RationalMatrix(self.rows, self.cols, entries)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(self.rows, self.cols, {k: -v for k, v in self.entries.items()})

    def scale(self, c) -> "RationalMatrix":
        c = rat(c)
        return RationalMatrix(self.rows, self.cols, {k: c * v for k, v in self.entries.items()})

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        rows = {}
        for (r, k), v in self.entries.items():
            terms = by_row.get(k)
            if terms:
                _add_into(rows.setdefault(r, {}), terms, v)
        return RationalMatrix(self.rows, other.cols,
                              {(r, c): x for r, row in rows.items() for c, x in row.items()})

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product with a dense vector."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [_ZERO] * self.rows
        for (r, c), a in self.entries.items():
            x = v[c]
            if x:
                out[r] += a * x
        return tuple(out)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r, c + self.cols)] = v
        return RationalMatrix(self.rows, self.cols + other.cols, entries)

    def _check_same_shape(self, other: "RationalMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def _eliminate(row_dicts: list, ncols: int):
    """In-place Gauss-Jordan over the first ``ncols`` columns.

    Columns are scanned left to right.  The pivot for a column is the
    not-yet-used row with a nonzero entry there that has the fewest nonzeros
    (ties to the lower row index), which limits fill-in.  Which row is chosen
    does not affect the result: after completion, pivot rows are fully
    reduced (1 at the pivot, 0 elsewhere in pivot columns) and every
    non-pivot row is zero on all eliminated columns, so the pivot rows are
    the unique RREF rows.  Returns the list of (pivot_column, row_index)
    pairs in column order.
    """
    colindex: dict = {}
    for ri, row in enumerate(row_dicts):
        for c in row:
            if c < ncols:
                colindex.setdefault(c, set()).add(ri)
    used = set()
    pivots = []
    for c in range(ncols):
        holders = colindex.get(c)
        if not holders:
            continue
        cand = min((ri for ri in holders if ri not in used),
                   key=lambda ri: (len(row_dicts[ri]), ri), default=None)
        if cand is None:
            continue
        used.add(cand)
        pivots.append((c, cand))
        prow = row_dicts[cand]
        pval = prow[c]
        if pval != 1:
            inv = 1 / pval
            for k in prow:
                prow[k] *= inv
        for ri in list(holders):
            if ri == cand:
                continue
            row = row_dicts[ri]
            f = row.get(c)
            if not f:
                continue
            for k, v in prow.items():
                nv = row.get(k, _ZERO) - f * v
                if nv:
                    if k not in row and k < ncols:
                        colindex.setdefault(k, set()).add(ri)
                    row[k] = nv
                elif k in row:
                    del row[k]
                    if k < ncols:
                        colindex[k].discard(ri)
    return pivots


def rref(m: RationalMatrix):
    """Reduced row echelon form.

    Returns ``(rank, pivot_columns, reduced)`` where ``reduced`` is the unique
    RREF of ``m`` (pivot rows first, ordered by pivot column; zero rows last).
    """
    if m._rref is not None:
        return m._rref
    row_dicts = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        row_dicts[r][c] = v
    pivots = _eliminate(row_dicts, m.cols)
    pivot_rows = {ri for _, ri in pivots}
    for ri, row in enumerate(row_dicts):
        if ri not in pivot_rows and row:
            raise AssertionError("elimination left a nonzero non-pivot row")
    entries = {}
    for out_r, (_, ri) in enumerate(pivots):
        for c, v in row_dicts[ri].items():
            entries[(out_r, c)] = v
    reduced = RationalMatrix(m.rows, m.cols, entries)
    pivot_cols = [c for c, _ in pivots]
    result = (len(pivots), pivot_cols, reduced)
    m._rref = result
    reduced._rref = (len(pivots), pivot_cols, reduced)
    return result


def rank(m: RationalMatrix) -> int:
    """Rank of ``m``, by a rank-only elimination with Markowitz pivoting.

    Unlike ``rref``, which must take pivot columns left to right to produce
    the canonical basis, this takes the sparsest remaining row and then that
    row's sparsest column (ties to the lower index), eliminates the column
    from the rows not yet used, and drops the pivot row.  Rows are cleared of
    denominators and made primitive; a row with entry ``f`` under the pivot
    ``pv`` becomes ``(pv//g)*row - (f//g)*pivot_row`` (``g = gcd(pv, f)``),
    divided by its content when ``pv//g != 1``.  Such steps keep the rank
    over Q, and so does any pivot order: ``rank`` is exact and agrees with
    ``rref``, whose cached result it reuses when present.
    """
    if m._rank is None:
        m._rank = m._rref[0] if m._rref is not None else _markowitz_rank(m)
    return m._rank


def _markowitz_rank(m: RationalMatrix) -> int:
    rows = [dict() for _ in range(m.rows)]
    colindex: dict = {}
    for (r, c), v in m.entries.items():
        rows[r][c] = v
        colindex.setdefault(c, set()).add(r)
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        for c, v in row.items():
            row[c] = v.numerator * (den // v.denominator)
        _divide_content(row)
    # heap entries go stale when a row changes length; a fresh entry is
    # pushed then, and a popped entry counts only if its length is current
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
        pv = prow.pop(pc)
        if pv < 0:  # a positive pivot keeps a == 1 wherever it divides f
            pv, prow = -pv, {k: -v for k, v in prow.items()}
        for ri in holders:
            row = rows[ri]
            f = row.pop(pc)
            g = gcd(pv, f)
            a, f = pv // g, f // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in prow.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    if k not in row:
                        colindex[k].add(ri)
                    row[k] = nv
                else:
                    del row[k]
                    colindex[k].discard(ri)
            if row:
                if a != 1:
                    _divide_content(row)
                heapq.heappush(heap, (len(row), ri))
    return nrank


def _divide_content(row: dict) -> None:
    """Divide an integer row by the gcd of its entries, making it primitive."""
    g = gcd(*row.values())
    if g != 1:
        for k in row:
            row[k] //= g


def kernel_basis(m: RationalMatrix) -> list:
    """Basis of the null space, one vector per free column.

    The vector for free column ``f`` has 1 at position ``f`` and the negated
    reduced entries at the pivot positions, so the basis is canonical given
    the (unique) RREF.
    """
    nrank, pivot_cols, reduced = rref(m)
    pivot_set = set(pivot_cols)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for i, p in enumerate(pivot_cols):
            coeff = reduced.entry(i, f)
            if coeff:
                v[p] = -coeff
        basis.append(tuple(v))
    return basis


def solve(m: RationalMatrix, b: Sequence) -> Optional[Vector]:
    """One solution of ``m x = b`` with free variables set to zero, or None."""
    sols = solve_many(m, [b])
    return sols[0]


def solve_many(m: RationalMatrix, bs: Sequence[Sequence]) -> list:
    """Solve ``m x = b`` for several right-hand sides with one elimination.

    Each result is either a solution vector (free variables zero) or None
    when the right-hand side is outside the column space.
    """
    for b in bs:
        if len(b) != m.rows:
            raise ValueError("right-hand side length does not match row count")
    row_dicts = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        row_dicts[r][c] = v
    for j, b in enumerate(bs):
        for r, v in enumerate(b):
            v = rat(v)
            if v:
                row_dicts[r][m.cols + j] = v
    pivots = _eliminate(row_dicts, m.cols)
    pivot_rows = {ri for _, ri in pivots}
    unsolvable = set()
    for ri, row in enumerate(row_dicts):
        if ri in pivot_rows:
            continue
        for c in row:
            if c < m.cols:
                raise AssertionError("elimination left a nonzero non-pivot row")
            unsolvable.add(c - m.cols)
    out = []
    for j in range(len(bs)):
        if j in unsolvable:
            out.append(None)
            continue
        x = [_ZERO] * m.cols
        for c, ri in pivots:
            x[c] = row_dicts[ri].get(m.cols + j, _ZERO)
        out.append(tuple(x))
    return out
