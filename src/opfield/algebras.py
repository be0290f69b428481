"""Finite-dimensional dg algebras given by structure constants.

An algebra element is a sparse dict {global basis index: Fraction} over the
carrier's per-degree bases flattened in increasing degree order.  Structure
maps are sparse tensors: arity-k generators map k-tuples of basis indices to
elements.  Validation checks that every structure map is a chain map (the
differential is a graded derivation of each generator operation) and that the
named presentation's relations hold.  Every such identity is checked on
tensors, from their nonzero entries (see :mod:`opfield.operads`): both sides
are compiled into sparse tensors and compared, and the basis tuples where
they differ are the witnesses.  Elements and structure tensors never hold a
zero coefficient: :class:`DgAlgebra` drops zero entries of its input, and
all sums go through :func:`opfield.exact._add_into`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .complexes import ChainComplex, ChainMap, validate_complex
from .errors import StructuralError
from .exact import _ONE, RationalMatrix, _add_into, rat
from . import operads
from .operads import Tensor, by_output, check_relations, combine, contract, named_presentation

Element = Dict[int, Fraction]


class GradedBasis:
    """Flattening of a complex's per-degree bases in increasing degree order."""

    __slots__ = ("complex", "degrees", "offsets")

    def __init__(self, c: ChainComplex):
        self.complex = c
        self.degrees = []
        self.offsets = {}
        for n in c.support:
            self.offsets[n] = len(self.degrees)
            self.degrees.extend([n] * c.dim(n))

    @property
    def total(self) -> int:
        return len(self.degrees)

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def to_global(self, degree: int, local: int) -> int:
        return self.offsets[degree] + local

    def to_local(self, i: int) -> Tuple[int, int]:
        n = self.degrees[i]
        return n, i - self.offsets[n]

    def differential(self, x: Element) -> Element:
        return _apply_blocks(self.complex.diffs, self, self, -1, x)

    def d_rows(self) -> Dict[int, list]:
        """The differential as an arity-1 tensor indexed by row (see operads.by_output)."""
        return by_output({(i,): self.differential({i: _ONE}) for i in range(self.total)})


def _apply_blocks(blocks: Mapping[int, RationalMatrix], source: GradedBasis, target: GradedBasis,
                  shift: int, x: Element) -> Element:
    """Image of a flattened element under a degreewise map whose block n takes
    source degree n to target degree n + shift."""
    out: Element = {}
    for i, c in x.items():
        n, li = source.to_local(i)
        block = blocks.get(n)
        if block is not None:
            off = target.offsets[n + shift]
            _add_into(out, ((off + r, v) for r, v in block._by_column().get(li, ())), c)
    return out


def element_add(x: Element, y: Element) -> Element:
    """``x + y`` for sparse vectors: algebra elements, and PBW elements as
    :func:`opfield.envelope.pbw_add`."""
    out = dict(x)
    _add_into(out, y.items())
    return out


def element_scale(c, x: Element) -> Element:
    """``c * x`` for sparse vectors, as :func:`opfield.envelope.pbw_scale` too."""
    c = rat(c)
    if not c:
        return {}
    return {k: c * v for k, v in x.items()}


class DgAlgebra:
    """Structure-constant dg algebra of one of the named kinds.

    ``structure`` maps generator names to sparse tensors: for arity k >= 1 a
    dict {(i_1, ..., i_k): element}, for arity 0 an element (a vector).
    Every index must name a basis vector of the carrier.
    """

    def __init__(self, carrier: ChainComplex, kind: str, structure: Mapping[str, object]):
        self.carrier = carrier
        self.kind = kind
        self.presentation = named_presentation(kind)
        self.basis = GradedBasis(carrier)
        self.structure = {}
        for gen in self.presentation.alphabet.generators:
            self.structure[gen.name] = structure.get(gen.name) or {}
        unknown = set(structure) - set(self.structure)
        if unknown:
            raise StructuralError(f"structure maps for unknown generators: {sorted(unknown)}")
        total = self.basis.total
        for gen in self.presentation.alphabet.generators:
            tensor: Tensor = {}  # the checked entries, without zeros
            for key, cell in self.tensor(gen.name).items():
                where = f"{gen.name} entry {key}"
                if len(key) != gen.arity:
                    raise StructuralError(f"{where} has {len(key)} inputs, expected {gen.arity}")
                for i in key:
                    check_index(i, total, f"{where}: input")
                for j in cell:
                    check_index(j, total, f"{where}: output")
                cell = {j: v for j, v in cell.items() if v}
                if cell:
                    tensor[key] = cell
            self.structure[gen.name] = tensor.get((), {}) if gen.arity == 0 else tensor

    def tensor(self, name: str) -> Tensor:
        """A generator's structure tensor; the arity-0 one is keyed by ``()``."""
        t = self.structure[name]
        return ({(): t} if t else {}) if self.presentation.alphabet[name].arity == 0 else t

    def basis_element(self, i: int) -> Element:
        return {i: _ONE}

    def apply_generator(self, name: str, args: Sequence[Element]) -> Element:
        gen = self.presentation.alphabet[name]
        if len(args) != gen.arity:
            raise StructuralError(f"generator {name} expects {gen.arity} arguments")
        tensor = self.structure[name]
        if gen.arity == 0:
            return dict(tensor)
        out: Element = {}
        combos = [((), _ONE)]
        for x in args:
            combos = [(key + (i,), c * v) for key, c in combos for i, v in x.items()]
        for key, c in combos:
            cell = tensor.get(key)
            if cell:
                _add_into(out, cell.items(), c)
        return out

    def differential(self, x: Element) -> Element:
        return self.basis.differential(x)

    def unit_direction(self) -> Optional[Tuple[int, Fraction]]:
        """(index, coefficient) when the unit vector is supported on a single
        basis vector; None otherwise (or when the kind has no unit)."""
        eta = self.structure.get(operads.ETA)
        if eta and len(eta) == 1:
            ((i, c),) = eta.items()
            return i, c
        return None

    def __repr__(self):
        return f"DgAlgebra(kind={self.kind}, dim={self.basis.total})"


def check_index(i: int, total: int, role: str) -> None:
    """Raise unless ``i`` names a basis vector of a ``total``-dimensional carrier."""
    if not 0 <= i < total:
        raise StructuralError(f"{role} index {i} " + ("< 0" if i < 0 else f">= dim {total}"))


def _derivation_defect(a: DgAlgebra, gen_name: str) -> List[str]:
    """Basis tuples where d fails the graded Leibniz rule on one structure map:
    d.g is compared with the sum over slots m of (-1)^(degrees before m)
    g.(1 x ... d ... x 1), with d fed into slot m indexed by row."""
    gen = a.presentation.alphabet[gen_name]
    if gen.arity == 0:
        if a.differential(a.structure[gen_name]):
            return [f"{gen_name}: unit vector is not a cycle"]
        return []
    tensor = a.tensor(gen_name)
    d_rows = a.basis.d_rows()
    terms = [({key: a.differential(cell) for key, cell in tensor.items()}, _ONE)]
    for m in range(gen.arity):
        slots = [None] * gen.arity
        slots[m] = d_rows
        terms.append((_signed(contract(tensor, slots), a.basis.degrees, m), Fraction(-1)))
    return [f"{gen_name}: differential is not a derivation at basis tuple {key}"
            for key in sorted(combine(terms))]


def _signed(tensor: Tensor, degrees: Sequence[int], m: int) -> Tensor:
    """``tensor`` with each cell times (-1)^(degrees of its first m inputs)."""
    return {key: {j: -v for j, v in cell.items()} if sum(degrees[i] for i in key[:m]) % 2 else cell
            for key, cell in tensor.items()}


def validate_differential(a: DgAlgebra) -> List[str]:
    """d.d = 0 on the carrier and graded Leibniz for every structure map:
    together they make the carrier and every filtration stage of the
    envelope chain complexes."""
    issues = [f"carrier: {msg}" for msg in validate_complex(a.carrier)]
    for gen in a.presentation.alphabet.generators:
        issues.extend(_derivation_defect(a, gen.name))
    return issues


def validate_algebra(a: DgAlgebra) -> List[str]:
    """Chain-map checks for all structure maps plus relation checks."""
    issues = validate_differential(a)
    issues.extend(str(violation) for violation in check_relations(a.presentation, a))
    return issues


def is_algebra_morphism(f: ChainMap, source: DgAlgebra, target: DgAlgebra) -> List[str]:
    """Check that a chain map intertwines all structure maps exactly."""
    if f.source is not source.carrier and f.source.dims != source.carrier.dims:
        return ["chain map source does not match algebra carrier"]
    if f.target is not target.carrier and f.target.dims != target.carrier.dims:
        return ["chain map target does not match algebra carrier"]
    if source.kind != target.kind:
        return [f"kind mismatch: {source.kind} != {target.kind}"]
    issues = [f"chain map: {m}" for m in f.commutes()]

    # f . g_src against g_tgt . (f x ... x f), with f indexed by target row
    f_rows = push_rows(f, source.basis, target.basis)
    for gen in source.presentation.alphabet.generators:
        lhs = {key: push_element(f, source.basis, target.basis, cell)
               for key, cell in source.tensor(gen.name).items()}
        rhs = contract(target.tensor(gen.name), [f_rows] * gen.arity)
        diff = combine([(lhs, _ONE), (rhs, Fraction(-1))])
        issues.extend(f"{gen.name} not intertwined at basis tuple {key}" for key in sorted(diff))
    return issues


def push_element(f: ChainMap, source_basis: GradedBasis, target_basis: GradedBasis, x: Element) -> Element:
    """Apply a chain map to a flattened element."""
    return _apply_blocks(f.components, source_basis, target_basis, 0, x)


def push_rows(f: ChainMap, source_basis: GradedBasis, target_basis: GradedBasis) -> Dict[int, list]:
    """A chain map as an arity-1 tensor indexed by target row (see operads.by_output)."""
    return by_output({(i,): push_element(f, source_basis, target_basis, {i: _ONE})
                      for i in range(source_basis.total)})


def commutator_functor(a: DgAlgebra) -> DgAlgebra:
    """Same carrier, bracket = graded commutator of the multiplication."""
    if a.kind != "As":
        raise StructuralError(f"commutator functor expects an associative algebra, got {a.kind}")
    bracket = operads.sum_tensor(operads.commutator_sum(), a)
    return DgAlgebra(a.carrier, "uLie", {
        operads.BRACKET: dict(sorted(bracket.items())),
        operads.ETA: dict(a.structure[operads.ETA]),
    })


class PresymplecticComplex:
    """A complex with a graded-antisymmetric chain pairing into the ground field.

    ``omega`` is a sparse dict {(i, j): Fraction} over flattened basis indices,
    supported on pairs of total degree zero.
    """

    def __init__(self, carrier: ChainComplex, omega: Mapping[Tuple[int, int], object]):
        self.carrier = carrier
        self.basis = GradedBasis(carrier)
        self.omega: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), v in omega.items():
            v = rat(v)
            if not v:
                continue
            if not (0 <= i < self.basis.total and 0 <= j < self.basis.total):
                raise StructuralError(f"omega index ({i}, {j}) out of range")
            if self.basis.degree_of(i) + self.basis.degree_of(j) != 0:
                raise StructuralError(f"omega entry ({i}, {j}) is not of total degree zero")
            self.omega[(i, j)] = v

    def pair_basis(self, i: int, j: int) -> Fraction:
        return self.omega.get((i, j), Fraction(0))

    def pair(self, x: Element, y: Element) -> Fraction:
        acc = Fraction(0)
        for i, c in x.items():
            for j, d in y.items():
                v = self.omega.get((i, j))
                if v:
                    acc += c * d * v
        return acc

    def validate(self) -> List[str]:
        """Witnesses of graded antisymmetry and of the chain-map condition
        omega(dx, y) + (-1)^|x| omega(x, dy) = 0, from omega's nonzero entries."""
        issues = []
        degrees = self.basis.degrees
        for i, j in sorted(set(self.omega) | {(j, i) for i, j in self.omega}):
            sign = -1 if (degrees[i] * degrees[j]) % 2 else 1
            if self.pair_basis(i, j) != -sign * self.pair_basis(j, i):
                issues.append(f"omega not graded-antisymmetric at ({i}, {j})")
        omega = {key: {0: v} for key, v in self.omega.items()}
        d_rows = self.basis.d_rows()
        defects = combine([(contract(omega, [d_rows, None]), _ONE),
                           (_signed(contract(omega, [None, d_rows]), degrees, 1), _ONE)])
        issues.extend(f"omega not a chain map at ({i}, {j})" for i, j in sorted(defects))
        return issues


def heisenberg(v: PresymplecticComplex) -> DgAlgebra:
    """Unital Lie algebra on carrier + ground field with bracket through omega.

    The unit is appended at the end of the degree-0 block; brackets of carrier
    vectors land on the unit with coefficient omega, and the unit brackets to
    zero.  The zero complex yields the ground-field algebra (unit only).
    """
    c = v.carrier
    old_dim0 = c.dim(0)
    dims = dict(c.dims)
    dims[0] = old_dim0 + 1
    diffs = {}
    for n in set(c.diffs):
        m = c.d(n)
        diffs[n] = RationalMatrix._from_ints(dims.get(n - 1, 0), dims.get(n, 0), m._num, m._den)
    carrier = ChainComplex(dims, diffs)
    new_basis = GradedBasis(carrier)
    unit_global = new_basis.to_global(0, old_dim0)

    def remap(i: int) -> int:
        n, li = v.basis.to_local(i)
        return new_basis.to_global(n, li)

    bracket: Dict[Tuple[int, int], Element] = {}
    for (i, j), w in v.omega.items():
        bracket[(remap(i), remap(j))] = {unit_global: w}
    return DgAlgebra(carrier, "uLie", {
        operads.BRACKET: bracket,
        operads.ETA: {unit_global: Fraction(1)},
    })


def heisenberg_embedding(v: PresymplecticComplex, h: DgAlgebra):
    """Map an element over the carrier basis into the Heisenberg algebra's
    basis (the appended unit shifts the positive-degree block)."""
    def embed(x: Element) -> Element:
        return {h.basis.to_global(*v.basis.to_local(i)): c for i, c in x.items()}

    return embed


def heisenberg_map(f: ChainMap, source: DgAlgebra, target: DgAlgebra) -> ChainMap:
    """Extend a chain map of carriers to the Heisenberg algebras by the
    identity on the appended unit summand."""
    src_unit = source.unit_direction()
    tgt_unit = target.unit_direction()
    if src_unit is None or tgt_unit is None:
        raise StructuralError("heisenberg_map needs algebras with a basis-vector unit")
    comps = {}
    for n in source.carrier.support:
        rows = target.carrier.dim(n)
        cols = source.carrier.dim(n)
        entries = dict(f.component(n).entries) if f.source.dim(n) and f.target.dim(n) else {}
        if n == 0:
            src_local = src_unit[0] - source.basis.offsets[0]
            tgt_local = tgt_unit[0] - target.basis.offsets[0]
            entries[(tgt_local, src_local)] = Fraction(1)
        if rows and cols and entries:
            comps[n] = RationalMatrix(rows, cols, entries)
    return ChainMap(source.carrier, target.carrier, comps)
