"""Exact rational scalars and sparse linear algebra over the rationals.

Everything downstream (homology, W-constancy, Chern-Simons pairings)
reduces to two questions about sparse matrices with Fraction entries: a rank,
and a canonical basis (the reduced row echelon form and the kernel read off
it).  No floating point is used anywhere; all results are exact.

One fraction-free elimination answers both questions.  It works on
primitive integer rows: each row is cleared of denominators and divided by
its content, and a row with entry ``f`` under a positive pivot ``pv``
becomes ``(pv//g)*row - (f//g)*pivot_row`` (``g = gcd(pv, f)``).  Such a
step only scales a row by a nonzero number and adds a multiple of the pivot
row, so no Fraction, modulus or certificate is needed to stay exact.  The
two questions differ in pivot order.  ``rank`` needs only a number, so it
pivots for sparsity (Markowitz: sparsest row, then that row's sparsest
column), clears only the rows not yet used and never back-substitutes.
``rref`` and ``kernel_basis`` need a basis, so they take pivot columns left
to right, the sparsest row holding each, and clear every other row; they
divide a pivot row by its pivot only when they read it out.
The reduced row echelon form is unique, so the pivot order never shows in a
result: every reported basis is the canonical one.

``rank_pivots`` also returns the pivot columns of the rank's elimination,
rank-many independent columns, and can leave rows out of it.  That is
clearing, as in persistent homology (Chen & Kerber, *Persistent homology
computation with a twist*, 2011; Bauer, *Ripser*, 2021): if
``d(n-1) d(n) = 0`` and Q is a set of independent columns of ``d(n-1)``,
then ``ker d(n-1)``, which holds ``im d(n)``, meets the span of the
coordinate vectors at Q only in 0, so the rows Q of ``d(n)`` can go without
lowering its rank.  The rows that go are mostly rows the elimination would
have reduced to zero.  Only the caller knows that ``d.d = 0`` holds; on other
matrices a cleared rank can be too low.

Matrices are immutable after construction.  Ranks with their pivot columns
and the column index :meth:`RationalMatrix._by_column` are memoized on the
matrix object, so repeated homology dimensions of the same differential do
not re-eliminate and every map that reads a matrix column by column shares
one index.  A cleared rank is memoized as the rank of the whole matrix, which
it is when ``d.d = 0``.

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
    """Coerce ints, strings like ``"3/4"`` or ``"-2"``, and Fractions; a bool
    is not taken as a number."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
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


class RationalMatrix:
    """Sparse matrix over the rationals, stored as (row, col) -> Fraction.

    Zero entries are never stored.  Instances must be treated as immutable;
    all operations return new matrices.
    """

    __slots__ = ("rows", "cols", "entries", "_rank", "_columns")

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


def _integer_rows(m: RationalMatrix, skip_rows: Iterable[int] = ()):
    """The rows of ``m`` as primitive integer rows (times the lcm of their
    denominators, over their content), and the index ``col -> set of rows``.
    The rows ``skip_rows`` are loaded empty."""
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    for r in skip_rows:
        rows[r] = {}
    colindex: dict = {}
    for ri, row in enumerate(rows):
        den = lcm(*(v.denominator for v in row.values()))
        for c, v in row.items():
            row[c] = v.numerator * (den // v.denominator)
            colindex.setdefault(c, set()).add(ri)
        _divide_content(row)
    return rows, colindex


def _divide_content(row: dict) -> None:
    """Divide an integer row by the gcd of its entries, making it primitive."""
    g = gcd(*row.values())
    if g != 1:
        for k in row:
            row[k] //= g


def _clear_column(rows: list, colindex: dict, holders: Iterable, prow: dict, pc) -> None:
    """Clear column ``pc`` from the rows ``holders`` by the row step of the
    module docstring, after negating ``prow`` if its pivot is negative.  A
    holder is divided by its content when ``pv//g != 1``.  ``colindex`` is
    kept current on every column but ``pc``, which the caller takes out."""
    pv = prow.pop(pc)
    if pv < 0:  # a positive pivot keeps a == 1 wherever it divides f
        pv = -pv
        for k in prow:
            prow[k] = -prow[k]
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
        if a != 1:
            _divide_content(row)
    prow[pc] = pv


def _eliminate(rows: list, colindex: dict, ncols: int) -> list:
    """In-place Gauss-Jordan on integer rows with ``ncols`` columns.

    Columns are scanned left to right.  The pivot for a column is the
    not-yet-used row with a nonzero entry there that has the fewest nonzeros
    (ties to the lower row index), which limits fill-in; the column is
    cleared from every other row, pivot rows included.  Afterwards each
    pivot row, divided by its pivot, is a row of the unique RREF, and every
    other row is zero.  Returns the list of ``(pivot_column, row_index)``
    pairs in column order.
    """
    used = set()
    pivots = []
    for c in range(ncols):
        # pivot rows of later columns are zero here, so no row gains an
        # entry in a scanned column and its index can go
        holders = colindex.pop(c, ())
        cand = min((ri for ri in holders if ri not in used),
                   key=lambda ri: (len(rows[ri]), ri), default=None)
        if cand is None:
            continue
        used.add(cand)
        pivots.append((c, cand))
        holders.discard(cand)
        _clear_column(rows, colindex, holders, rows[cand], c)
    for ri, row in enumerate(rows):
        if ri not in used and row:
            raise AssertionError("elimination left a nonzero non-pivot row")
    return pivots


def rref(m: RationalMatrix):
    """Reduced row echelon form.

    Returns ``(rank, pivot_columns, reduced)`` where ``reduced`` is the unique
    RREF of ``m`` (pivot rows first, ordered by pivot column; zero rows last).
    """
    rows, colindex = _integer_rows(m)
    pivots = _eliminate(rows, colindex, m.cols)
    entries = {}
    for out_r, (c, ri) in enumerate(pivots):
        row = rows[ri]
        pv = row[c]
        for k, v in row.items():
            entries[(out_r, k)] = Fraction(v, pv)
    return len(pivots), [c for c, _ in pivots], RationalMatrix(m.rows, m.cols, entries)


def rank(m: RationalMatrix) -> int:
    """Rank of ``m``, by a rank-only elimination with Markowitz pivoting.

    Unlike ``rref``, which must take pivot columns left to right to produce
    the canonical basis, this takes the sparsest remaining row and then that
    row's sparsest column (ties to the lower index), clears the column from
    the rows not yet used and drops the pivot row, never back-substituting.
    The row step keeps the rank over Q whatever the pivot order: ``rank``
    agrees with ``rref``.
    """
    return rank_pivots(m)[0]


def rank_pivots(m: RationalMatrix, skip_rows: Iterable[int] = ()) -> tuple:
    """``(rank, pivot_columns)`` of ``m``: its rank and as many linearly
    independent columns, those of the elimination that found the rank.

    The elimination leaves the rows ``skip_rows`` out, which the caller
    must know not to lower the rank (clearing: the pivot columns of ``d(n-1)``
    are such rows of ``d(n)`` when ``d(n-1) d(n) = 0``).  Columns independent
    on the remaining rows are independent in ``m``, so the pivot columns hold
    whatever was skipped.  Both are memoized with the rank, so a later call
    returns them whatever its ``skip_rows``.
    """
    if m._rank is None:
        m._rank = _markowitz_rank(m, skip_rows)
    return m._rank


def _markowitz_rank(m: RationalMatrix, skip_rows: Iterable[int] = ()) -> tuple:
    """``(rank, pivot_columns)`` of ``m`` without the rows ``skip_rows``."""
    rows, colindex = _integer_rows(m, skip_rows=skip_rows)
    # heap entries go stale when a row changes length; a fresh entry is
    # pushed then, and a popped entry counts only if its length is current
    heap = [(len(row), ri) for ri, row in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, pi = heapq.heappop(heap)
        prow = rows[pi]
        if prow is None or len(prow) != length:
            continue
        rows[pi] = None
        pc = min(prow, key=lambda c: (len(colindex[c]), c))
        for c in prow:
            colindex[c].discard(pi)
        pivots.append(pc)
        holders = colindex.pop(pc)
        _clear_column(rows, colindex, holders, prow, pc)
        for ri in holders:
            if rows[ri]:
                heapq.heappush(heap, (len(rows[ri]), ri))
    return len(pivots), pivots


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

