"""Truncated unital universal enveloping algebras via PBW normal forms.

Given a unital dg Lie algebra whose unit spans a distinguished basis vector,
the enveloping algebra is realized on ordered monomials in the remaining
basis vectors (odd-degree generators at most once).  A word's letters before
its first out-of-order pair form a normal monomial; the others are multiplied
in one at a time, as in PBW multiplication for G-algebras (Levandovskyy and
Schönemann, "Plural", ISSAC 2003).  Inserting x_p into x_h x_a rewrites

    x_a x_p  ->  (-1)^(|a||p|) x_p x_a + [x_a, x_p]        (a > p)
    x_p x_p  ->  (1/2) [x_p, x_p]                          (|p| odd)

with brackets re-expanded in the generator basis plus a multiple of the empty
word through the unit component, which leaves inserts into the shorter x_h:
leftmost rewriting, reordered.  Inserts are memoized on (m, p) and resolved
on an explicit stack, so no word recurses in Python; sums are built in place
by the package's sparse kernel, ``out += c * x``
(:func:`opfield.exact._add_into`).  A hard word-length bound ``truncation``
restricts everything to a filtration stage; products that would exceed it
raise :class:`TruncationOverflow` instead of silently quotienting, because
the span of long words is not an ideal.

A stage's per-degree dimensions (:meth:`TruncatedEnvelope.stage_dims`) are
counted from the degrees of its PBW monomials; the stage chain complex, with
every monomial's differential, is built only by :meth:`TruncatedEnvelope.stage`
for callers that read homology or chain maps.  The dimensions also have an
independent combinatorial oracle, :func:`filtration_dim`, which counts
graded-symmetric monomials without ever rewriting.

Stage differentials are built without rewriting whole words.  The
differential of a normal monomial replaces one letter at a time, and the new
letter slides to its sorted place: each crossing is a Koszul sign plus the
bracket of the two letters in their stead.  For central brackets, such as
those of the CCR algebra of a presymplectic complex, that leaves the rest of
the word, which is already sorted, so no insert is made and no memo entry
kept; other brackets are normalized by generator insertion.  An odd letter
meeting itself leaves half its square bracket and ends the term.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import operads
from .algebras import (DgAlgebra, Element, PresymplecticComplex, commutator_functor, element_add,
                       element_scale, heisenberg, is_algebra_morphism, push_element)
from .complexes import ChainComplex, ChainMap
from .errors import StructuralError, TruncationOverflow
from .exact import _ONE, RationalMatrix, _add_into, _over_lcm

Word = Tuple[int, ...]
PBWElement = Dict[Word, Fraction]

_MINUS_ONE = Fraction(-1)
_HALF = Fraction(1, 2)

# sums and multiples of PBW elements are those of any sparse vector
pbw_add, pbw_scale = element_add, element_scale


def pbw_unit() -> PBWElement:
    return {(): _ONE}


class TruncatedEnvelope:
    """Filtration stage of the enveloping algebra of a unital dg Lie algebra.

    ``gens`` lists the source basis indices that span the complement of the
    unit direction, in the order used for PBW monomials: the carrier's
    degree-then-index order.
    """

    def __init__(self, source: DgAlgebra, truncation: int):
        if source.kind != "uLie":
            raise StructuralError(f"envelope expects a unital Lie algebra, got kind {source.kind}")
        if truncation < 0:
            raise StructuralError("truncation bound must be nonnegative")
        unit = source.unit_direction()
        if unit is None:
            raise StructuralError(
                "the source basis must contain a vector spanning the unit direction")
        self.source = source
        self.truncation = truncation
        self.unit_index, self.unit_coeff = unit
        self.gens: Tuple[int, ...] = tuple(i for i in range(source.basis.total)
                                           if i != self.unit_index)
        self.gen_degree = [source.basis.degree_of(i) for i in self.gens]
        self._odd = [d % 2 == 1 for d in self.gen_degree]
        self._pos = {src: p for p, src in enumerate(self.gens)}
        self._bracket_cache: Dict[Tuple[int, int], PBWElement] = {}
        self._dgen_cache: Dict[int, PBWElement] = {}
        self._insert_cache: Dict[Tuple[Word, int], PBWElement] = {}
        self._stage_cache: Dict[int, tuple] = {}

    # -- source-element conversion -------------------------------------------
    def from_source_element(self, x: Element) -> PBWElement:
        """Image of a source algebra element; the unit direction collapses to
        the empty word."""
        out: PBWElement = {}
        for i, c in x.items():
            word, c = ((), c / self.unit_coeff) if i == self.unit_index else ((self._pos[i],), c)
            _add_into(out, ((word, c),))
        return out

    def generator(self, p: int) -> PBWElement:
        return {(p,): _ONE}

    def word_degree(self, word: Word) -> int:
        return sum(self.gen_degree[p] for p in word)

    # -- structure expansions: the public readers copy, internal callers share --
    def _bracket(self, p: int, q: int) -> PBWElement:
        cached = self._bracket_cache.get((p, q))
        if cached is None:
            cell = self.source.structure[operads.BRACKET].get((self.gens[p], self.gens[q]), {})
            cached = self._bracket_cache[(p, q)] = self.from_source_element(cell)
        return cached

    def _dgen(self, p: int) -> PBWElement:
        cached = self._dgen_cache.get(p)
        if cached is None:
            dx = self.source.differential(self.source.basis_element(self.gens[p]))
            cached = self._dgen_cache[p] = self.from_source_element(dx)
        return cached

    def bracket_expansion(self, p: int, q: int) -> PBWElement:
        return dict(self._bracket(p, q))

    def dgen_expansion(self, p: int) -> PBWElement:
        return dict(self._dgen(p))

    # -- normal form -----------------------------------------------------------
    def normal_form(self, word: Sequence[int]) -> PBWElement:
        word = tuple(word)
        if len(word) > self.truncation:
            raise TruncationOverflow(
                f"word of length {len(word)} exceeds truncation {self.truncation}")
        return self._nf(word)

    def _nf(self, word: Word) -> PBWElement:
        """Normal form of a word, a fresh dict built from memoized inserts."""
        odd = self._odd
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if a > b or (a == b and odd[a]):
                break
        else:
            return {word: _ONE}
        acc: PBWElement = {word[:k + 1]: _ONE}
        for p in word[k + 1:]:
            nxt: PBWElement = {}
            for m, c in acc.items():
                _add_into(nxt, self._insert(m, p).items(), c)
            acc = nxt
        return acc

    def _insert(self, m: Word, p: int) -> PBWElement:
        """Normal form of x_m x_p for a normal monomial m (shared when cached).
        Pending inserts are :meth:`_insert_steps` generators on a stack; each
        yields the smaller inserts it needs and is sent their values."""
        odd, cache = self._odd, self._insert_cache
        stack: List[tuple] = []
        while True:
            if not m or m[-1] < p or (m[-1] == p and not odd[p]):
                value = {m + (p,): _ONE}
            else:
                value = cache.get((m, p))
                if value is None:
                    stack.append(((m, p), self._insert_steps(m, p)))
            while stack:
                key, steps = stack[-1]
                try:
                    m, p = steps.send(value)
                    break
                except StopIteration as done:
                    value = cache[key] = done.value
                    stack.pop()
            else:
                return value

    def _insert_steps(self, m: Word, p: int):
        h, a = m[:-1], m[-1]
        out: PBWElement = {}
        if a == p:
            bracket = {r: c * _HALF for r, c in self._bracket(a, a).items()}
        else:
            odd = self._odd[a] and self._odd[p]
            for t, c in (yield h, p).items():
                _add_into(out, (yield t, a).items(), -c if odd else c)
            bracket = self._bracket(a, p)
        for r, c in bracket.items():
            _add_into(out, (yield h, r[0]).items() if r else ((h, _ONE),), c)
        return out

    # -- algebra operations -----------------------------------------------------
    def multiply(self, x: PBWElement, y: PBWElement) -> PBWElement:
        out: PBWElement = {}
        for w1, c1 in x.items():
            for w2, c2 in y.items():
                if len(w1) + len(w2) > self.truncation:
                    raise TruncationOverflow(
                        f"product of words of lengths {len(w1)} and {len(w2)} exceeds "
                        f"truncation {self.truncation}; raise the bound")
                _add_into(out, self._nf(w1 + w2).items(), c2 if c1 is _ONE else c1 * c2)
        return out

    def commutator(self, x: PBWElement, y: PBWElement) -> PBWElement:
        """Graded commutator; inputs must be homogeneous."""
        odd = (self.element_degree(x) or 0) * (self.element_degree(y) or 0) % 2
        out = self.multiply(x, y)
        _add_into(out, self.multiply(y, x).items(), _ONE if odd else _MINUS_ONE)
        return out

    def element_degree(self, x: PBWElement) -> Optional[int]:
        degs = {self.word_degree(w) for w in x}
        if not degs:
            return None
        if len(degs) > 1:
            raise StructuralError(f"PBW element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def differential(self, x: PBWElement) -> PBWElement:
        """d of a PBW element, whose words are normalized first."""
        out: PBWElement = {}
        for w, c in x.items():
            for v, c2 in self._nf(w).items():
                _add_into(out, self._d_word(v).items(), c * c2)
        return out

    def _d_word(self, word: Word) -> PBWElement:
        """Differential of a normal monomial: each letter in turn replaced by
        its differential and slid back to its sorted place."""
        out: PBWElement = {}
        parity = 0
        for j, p in enumerate(word):
            for repl, c in self._dgen(p).items():
                c = -c if parity % 2 else c
                if repl:
                    self._slide_into(out, word[:j] + word[j + 1:], j, repl[0], c)
                else:
                    _add_into(out, ((word[:j] + word[j + 1:], c),))
            parity += self.gen_degree[p]
        return out

    def _slide_into(self, out: PBWElement, rest: Word, i: int, r: int, c: Fraction) -> None:
        """``out += c * x_rest[:i] x_r x_rest[i:]`` for a normal monomial
        ``rest``: x_r slides to its sorted place, and crossing x_a adds the
        bracket [x_a, x_r] (half of it if a = r is odd, which ends the term) in
        place of the two letters.  A central bracket leaves the sorted word
        ``rest`` without x_a; any other is normalized."""
        odd, brackets = self._odd, self._bracket_cache
        step = -1 if i and (rest[i - 1] > r or rest[i - 1] == r and odd[r]) else 1
        while 0 <= (k := i - 1 if step < 0 else i) < len(rest):
            a = rest[k]
            if (a == r and not odd[r]) or (a != r and (a > r) != (step < 0)):
                break
            key = (a, r) if a > r else (r, a)
            bracket = brackets.get(key)
            if bracket is None:
                bracket = self._bracket(*key)
            for b, s in bracket.items():
                s = c * s if a != r else c * s * _HALF
                if b:
                    _add_into(out, self._nf(rest[:k] + b + rest[k + 1:]).items(), s)
                else:
                    _add_into(out, ((rest[:k] + rest[k + 1:], s),))
            if a == r:
                return
            if odd[a] and odd[r]:
                c = -c
            i += step
        _add_into(out, ((rest[:i] + (r,) + rest[i:], c),))

    # -- monomial bases and stage complexes --------------------------------------
    def monomials(self, max_length: Optional[int] = None) -> List[Word]:
        """All PBW monomials of length <= max_length, sorted by (length, word)."""
        n = self.truncation if max_length is None else max_length
        if n > self.truncation:
            raise TruncationOverflow(f"stage {n} exceeds truncation {self.truncation}")
        out: List[Word] = [()]
        frontier: List[Word] = [()]
        for _ in range(n):
            nxt = []
            for w in frontier:
                start = w[-1] if w else 0
                for p in range(start, len(self.gens)):
                    if w and p == w[-1] and self._odd[p]:
                        continue
                    nxt.append(w + (p,))
            out.extend(nxt)
            frontier = nxt
        return out

    def stage(self, n: Optional[int] = None):
        """Chain complex of the filtration stage plus its basis bookkeeping.

        Returns ``(complex, words_by_degree, index)`` where ``index`` maps a
        word to its (degree, local position) in the stage complex.
        """
        n = self.truncation if n is None else n
        cached = self._stage_cache.get(n)
        if cached is not None:
            return cached
        words = self.monomials(n)
        by_degree: Dict[int, List[Word]] = {}
        for w in words:
            by_degree.setdefault(self.word_degree(w), []).append(w)
        index: Dict[Word, Tuple[int, int]] = {}
        for deg, ws in by_degree.items():
            for li, w in enumerate(ws):
                index[w] = (deg, li)
        dims = {deg: len(ws) for deg, ws in by_degree.items()}
        diffs: Dict[int, dict] = {}
        for deg, ws in by_degree.items():
            entries = diffs.setdefault(deg, {})
            for col, w in enumerate(ws):
                for w2, c in self._d_word(w).items():
                    tdeg, row = index[w2]
                    if tdeg != deg - 1:
                        raise AssertionError("differential did not lower degree by one")
                    entries[(row, col)] = c
        matrices = {}
        for deg, entries in diffs.items():
            rows = dims.get(deg - 1, 0)
            if rows and entries:
                matrices[deg] = RationalMatrix._from_ints(rows, dims[deg], *_over_lcm(entries))
        complex_ = ChainComplex(dims, matrices)
        result = (complex_, by_degree, index)
        self._stage_cache[n] = result
        return result

    def stage_complex(self, n: Optional[int] = None) -> ChainComplex:
        return self.stage(n)[0]

    def stage_dims(self, n: Optional[int] = None) -> Dict[int, int]:
        """Per-degree dimensions of filtration stage n, counted from the PBW
        monomials' degrees; no differential is computed."""
        return dict(Counter(map(self.word_degree, self.monomials(n))))

    def __repr__(self):
        return (f"TruncatedEnvelope(gens={len(self.gens)}, truncation={self.truncation}, "
                f"dim={len(self.monomials())})")


def envelope(v: DgAlgebra, n_max: int) -> TruncatedEnvelope:
    """Filtration stage ``n_max`` of the unital universal enveloping algebra."""
    return TruncatedEnvelope(v, n_max)


def ccr(v: PresymplecticComplex, n_max: int) -> TruncatedEnvelope:
    """CCR algebra of a presymplectic complex: envelope of its Heisenberg
    algebra.  Generators satisfy [x, y] = omega(x, y) * 1."""
    return envelope(heisenberg(v), n_max)


def filtration_dim(v: DgAlgebra, n: int) -> Dict[int, int]:
    """Per-degree dimension of filtration stage ``n``, counted combinatorially.

    Independent of the rewriting machinery: stage dimensions are those of the
    truncated graded-symmetric algebra on the non-unit basis (polynomial on
    even-degree generators, exterior on odd-degree ones).
    """
    return filtration_dims_by_stage(v, n)[n]


def filtration_dims_by_stage(v: DgAlgebra, n: int) -> List[Dict[int, int]]:
    """Stage tables 0..n; entry k maps degree -> dim of stage k."""
    if v.kind != "uLie":
        raise StructuralError(f"filtration_dim expects a unital Lie algebra, got kind {v.kind}")
    unit = v.unit_direction()
    if unit is None:
        raise StructuralError("the source basis must contain a vector spanning the unit direction")
    degrees = [v.basis.degree_of(i) for i in range(v.basis.total) if i != unit[0]]
    # counts[(length, degree)] of graded-symmetric monomials
    counts: Dict[Tuple[int, int], int] = {(0, 0): 1}
    for g in degrees:
        new = dict(counts)
        if g % 2:
            for (l, d), c in counts.items():
                if l + 1 <= n:
                    key = (l + 1, d + g)
                    new[key] = new.get(key, 0) + c
        else:
            for (l, d), c in sorted(counts.items()):
                m = 1
                while l + m <= n:
                    key = (l + m, d + m * g)
                    new[key] = new.get(key, 0) + counts[(l, d)]
                    m += 1
        counts = new
    tables: List[Dict[int, int]] = []
    for k in range(n + 1):
        table: Dict[int, int] = {}
        for (l, d), c in counts.items():
            if l <= k:
                table[d] = table.get(d, 0) + c
        tables.append(table)
    return tables


class EnvelopeMap:
    """Multiplicative extension of a unital Lie algebra map to envelope stages."""

    def __init__(self, source_env: TruncatedEnvelope, target_env: TruncatedEnvelope,
                 rho: ChainMap):
        if source_env.truncation != target_env.truncation:
            raise StructuralError("source and target truncations differ")
        self.source_env = source_env
        self.target_env = target_env
        self.rho = rho
        src_basis, tgt_basis = source_env.source.basis, target_env.source.basis
        self.images: List[PBWElement] = [
            target_env.from_source_element(push_element(rho, src_basis, tgt_basis, {i: _ONE}))
            for i in source_env.gens]

    def apply_words(self, words: Sequence[Word]) -> Dict[Word, PBWElement]:
        """Images of a prefix-closed list of words that lists every word after
        its prefixes, such as :meth:`TruncatedEnvelope.monomials`."""
        images: Dict[Word, PBWElement] = {}
        for w in words:
            images[w] = (self.target_env.multiply(images[w[:-1]], self.images[w[-1]])
                         if w else pbw_unit())
        return images

    def stage_chain_map(self, n: Optional[int] = None) -> ChainMap:
        n = self.source_env.truncation if n is None else n
        src_complex, src_by_degree, _ = self.source_env.stage(n)
        tgt_complex, _, tgt_index = self.target_env.stage(n)
        images = self.apply_words(self.source_env.monomials(n))
        comps: Dict[int, dict] = {}
        for deg, words in src_by_degree.items():
            entries = comps.setdefault(deg, {})
            for col, w in enumerate(words):
                for w2, c in images[w].items():
                    tdeg, row = tgt_index[w2]
                    if tdeg != deg:
                        raise AssertionError("envelope map did not preserve degree")
                    entries[(row, col)] = c
        return ChainMap(src_complex, tgt_complex, {
            deg: RationalMatrix(tgt_complex.dim(deg), src_complex.dim(deg), entries)
            for deg, entries in comps.items()})


def envelope_map(rho: ChainMap, source: DgAlgebra, target: DgAlgebra, n_max: int) -> EnvelopeMap:
    """Functorial extension of a bracket- and unit-preserving chain map.

    The map is first checked to be a morphism of unital Lie algebras; invalid
    maps are rejected with the list of defects.
    """
    issues = is_algebra_morphism(rho, source, target)
    if issues:
        raise StructuralError("not a unital Lie algebra morphism: " + "; ".join(issues))
    return EnvelopeMap(envelope(source, n_max), envelope(target, n_max), rho)


# ---------------------------------------------------------------------------
# Adjunction between envelope stages and finite-dimensional algebras
# ---------------------------------------------------------------------------

def validate_lie_map_into_algebra(env: TruncatedEnvelope, a: DgAlgebra,
                                  images: Sequence[Element]) -> List[str]:
    """Check that generator images define a unital Lie map V -> A^L.

    ``images[p]`` is the value on generator p, an element of ``a`` of that
    generator's degree.  With the unit of V sent to the unit of ``a`` they
    assemble a chain map rho of carriers, which must be a morphism of unital
    Lie algebras into the commutator algebra A^L
    (:func:`~opfield.algebras.is_algebra_morphism`): brackets go to graded
    commutators and the differential is intertwined.  Maps U(V) -> A are
    exactly such maps that also satisfy truncation stability: products of
    ``truncation + 1`` generator images vanish in ``a``.
    """
    if a.kind != "As":
        return [f"target must be associative, got {a.kind}"]
    rho, issues = _generator_map(env, a, images)
    return issues or (is_algebra_morphism(rho, env.source, commutator_functor(a))
                      + _stability_defects(env, a, images))


def _generator_map(env: TruncatedEnvelope, a: DgAlgebra,
                   images: Sequence[Element]) -> Tuple[Optional[ChainMap], List[str]]:
    """The carrier map rho: unit to unit, generator p to ``images[p]``; None,
    with one issue per generator, when the images are not a graded map."""
    k, total = len(env.gens), a.basis.total
    issues = ([f"generator {p}: no image given" for p in range(len(images), k)]
              + [f"image {p}: there is no generator {p} (V has {k})" for p in range(k, len(images))])
    columns = [("unit", env.unit_index, element_scale(1 / env.unit_coeff, a.structure[operads.ETA]))]
    columns += [(f"generator {p}", i, images[p]) for p, i in enumerate(env.gens[:len(images)])]
    blocks: Dict[int, dict] = {}
    for label, i, y in columns:
        n, col = env.source.basis.to_local(i)
        bad = next((j for j in sorted(y) if not 0 <= j < total or a.basis.degree_of(j) != n), None)
        if bad is None:
            blocks.setdefault(n, {}).update(((a.basis.to_local(j)[1], col), c) for j, c in y.items())
        elif 0 <= bad < total:
            issues.append(f"{label}: image has a component in degree {a.basis.degree_of(bad)}, "
                          f"not in degree {n}")
        else:
            issues.append(f"{label}: image index {bad} outside the target basis")
    if issues:
        return None, issues
    return ChainMap(env.source.carrier, a.carrier, {
        n: RationalMatrix(a.carrier.dim(n), env.source.carrier.dim(n), block)
        for n, block in blocks.items()}), []


def _stability_defects(env: TruncatedEnvelope, a: DgAlgebra, images: Sequence[Element]) -> List[str]:
    """First word of length N+1 with a nonzero product; zero products stay zero."""
    n = env.truncation
    stack = [(a.structure[operads.ETA], ())]
    while stack:
        x, w = stack.pop()
        if len(w) == n + 1:
            return [f"stability fails: product of generator images {w} is nonzero "
                    f"beyond truncation {n}"]
        for p in reversed(range(len(env.gens))):
            y = a.apply_generator(operads.MU, [x, images[p]])
            if y:
                stack.append((y, w + (p,)))
    return []


def extend_from_generators(env: TruncatedEnvelope, a: DgAlgebra,
                           images: Sequence[Element]) -> Dict[Word, Element]:
    """Left-to-right multiplicative extension kappa: U(V) -> A of generator
    images, after :func:`validate_lie_map_into_algebra` has accepted them.

    Returns the values of kappa on every PBW monomial of the stage.
    """
    issues = validate_lie_map_into_algebra(env, a, images)
    if issues:
        raise StructuralError("generator images do not define a morphism: " + "; ".join(issues))
    values: Dict[Word, Element] = {(): dict(a.structure[operads.ETA])}
    for w in env.monomials()[1:]:  # after the empty word, every word follows its prefix
        values[w] = a.apply_generator(operads.MU, [values[w[:-1]], images[w[-1]]])
    return values


def restrict_to_generators(env: TruncatedEnvelope, kappa: Mapping[Word, Element]) -> List[Element]:
    """Values of an envelope-algebra map on the length-1 monomials."""
    return [dict(kappa[(p,)]) for p in range(len(env.gens))]


def adjunction_roundtrip(env: TruncatedEnvelope, a: DgAlgebra,
                         images: Optional[Sequence[Element]] = None,
                         kappa: Optional[Mapping[Word, Element]] = None):
    """Run the unit/counit roundtrips of the envelope adjunction, whose
    left adjoint is the truncated envelope V -> U(V) and whose right adjoint
    is the commutator algebra A -> A^L.

    Exactly one of ``images`` (a Lie map on generators) or ``kappa`` (an
    algebra map on monomials) must be given; returns the pair
    ``(images, kappa)`` after one roundtrip in the corresponding direction.
    """
    if (images is None) == (kappa is None):
        raise StructuralError("provide exactly one of images or kappa")
    if images is not None:
        kappa_out = extend_from_generators(env, a, images)
        images_out = restrict_to_generators(env, kappa_out)
        return images_out, kappa_out
    images_out = restrict_to_generators(env, kappa)
    kappa_out = extend_from_generators(env, a, images_out)
    return images_out, kappa_out
