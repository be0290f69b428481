"""Free-operad trees, presentations, and evaluation into concrete algebras.

Operations of a presented operad are represented by rooted trees over a
generator alphabet.  Input slots carry explicit position labels (a
permutation of 1..n), so the symmetric-group action is total and independent
of planar order.  Relations of a presentation are pairs of formal rational
linear combinations of trees.  They are checked against a concrete algebra
by compiling each tree into a sparse structure tensor (basis tuple -> value),
contracting the generators' tensors along the tree, and comparing the two
sides' tensors: the nonzero entries of the difference are the basis tuples
on which the relation fails.  No basis tuple is ever enumerated.

Evaluation is graded: reading the inputs in the tree's planar label order
incurs the Koszul sign of the corresponding permutation on homogeneous
inputs.  Generators are of degree 0, so they add no signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import StructuralError
from .exact import _ONE, _add_into, rat, rat_str

# A sparse multilinear map on basis vectors: input tuple -> {output index: coefficient}.
Tensor = Dict[Tuple[int, ...], Dict[int, Fraction]]


@dataclass(frozen=True)
class Generator:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise StructuralError(f"generator {self.name} has negative arity")


class GeneratorAlphabet:
    def __init__(self, generators: Sequence[Generator]):
        self.generators = tuple(generators)
        self.by_name = {g.name: g for g in self.generators}
        if len(self.by_name) != len(self.generators):
            raise StructuralError("duplicate generator names")

    def __getitem__(self, name: str) -> Generator:
        return self.by_name[name]


class OperadTree:
    """Immutable rooted tree; leaves carry input position labels."""

    __slots__ = ("kind", "gen", "children", "slot", "arity", "_hash", "_planar")

    def __init__(self, kind, gen=None, children=(), slot=None):
        self.kind = kind
        self.gen = gen
        self.children = tuple(children)
        self.slot = slot
        if kind == "leaf":
            self.arity = 1
            self._planar = (slot,)
        else:
            self.arity = sum(ch.arity for ch in self.children) if self.children else 0
            planar = []
            for ch in self.children:
                planar.extend(ch.planar_labels())
            self._planar = tuple(planar)
        self._hash = hash((kind, gen, self.children, slot))

    def planar_labels(self) -> Tuple[int, ...]:
        """Leaf labels in planar (left-to-right) order."""
        return self._planar

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if not isinstance(other, OperadTree):
            return NotImplemented
        return (self.kind, self.gen, self.children, self.slot) == \
               (other.kind, other.gen, other.children, other.slot)

    def __repr__(self):
        return format_tree(self)


def leaf(slot: int = 1) -> OperadTree:
    """A bare input slot; ``leaf(1)`` is the operadic unit tree."""
    return OperadTree("leaf", slot=slot)


def node(gen: str, children: Sequence[OperadTree]) -> OperadTree:
    return OperadTree("node", gen=gen, children=tuple(children))


def unit_tree() -> OperadTree:
    return leaf(1)


def validate_tree(t: OperadTree, alphabet: GeneratorAlphabet) -> None:
    """Check leaf labels and generator arities against an alphabet."""
    labels = t.planar_labels()
    if sorted(labels) != list(range(1, len(labels) + 1)):
        raise StructuralError(f"leaf labels {labels} are not a permutation of 1..{len(labels)}")

    def walk(s: OperadTree) -> None:
        if s.kind == "leaf":
            return
        g = alphabet.by_name.get(s.gen)
        if g is None:
            raise StructuralError(f"unknown generator {s.gen!r}")
        if len(s.children) != g.arity:
            raise StructuralError(f"generator {s.gen} has arity {g.arity}, got {len(s.children)} children")
        for ch in s.children:
            walk(ch)

    walk(t)


def format_tree(t: OperadTree) -> str:
    if t.kind == "leaf":
        return str(t.slot)
    return f"{t.gen}({', '.join(format_tree(ch) for ch in t.children)})"


def parse_tree(text: str, alphabet: GeneratorAlphabet) -> OperadTree:
    """Parse ``mu(eta(), 1)``-style prefix notation; ``slot(i)`` and bare
    integers both denote input slots."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_expr() -> OperadTree:
        nonlocal pos
        skip_ws()
        start = pos
        if pos < len(text) and (text[pos].isdigit() or text[pos] == "-"):
            while pos < len(text) and (text[pos].isdigit() or text[pos] == "-"):
                pos += 1
            return leaf(int(text[start:pos]))
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        if not name:
            raise StructuralError(f"parse error at position {pos} in tree expression")
        skip_ws()
        if pos >= len(text) or text[pos] != "(":
            raise StructuralError(f"expected '(' after {name!r}")
        pos += 1
        args = []
        skip_ws()
        if pos < len(text) and text[pos] == ")":
            pos += 1
        else:
            while True:
                args.append(parse_expr())
                skip_ws()
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                    continue
                if pos < len(text) and text[pos] == ")":
                    pos += 1
                    break
                raise StructuralError(f"expected ',' or ')' at position {pos}")
        if name == "slot":
            if len(args) != 1 or args[0].kind != "leaf":
                raise StructuralError("slot(...) takes a single integer")
            return args[0]
        return node(name, args)

    t = parse_expr()
    skip_ws()
    if pos != len(text):
        raise StructuralError(f"trailing input at position {pos}")
    validate_tree(t, alphabet)
    return t


class TreeSum:
    """Formal rational linear combination of trees of a common arity."""

    __slots__ = ("terms", "arity")

    def __init__(self, terms: Mapping[OperadTree, Fraction] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        pairs = [(t, c) for t, c in ((t, rat(c)) for t, c in items) if c]
        arities = {t.arity for t, _ in pairs}
        if len(arities) > 1:
            raise StructuralError("mixed arities in a tree combination")
        self.arity = arities.pop() if arities else None
        self.terms: Dict[OperadTree, Fraction] = {}
        _add_into(self.terms, pairs)

    @classmethod
    def of(cls, t: OperadTree, coeff=1) -> "TreeSum":
        return cls({t: rat(coeff)})

    @classmethod
    def zero(cls) -> "TreeSum":
        return cls({})

    def __add__(self, other: "TreeSum") -> "TreeSum":
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return TreeSum(out)

    def __sub__(self, other: "TreeSum") -> "TreeSum":
        return self + other.scale(-1)

    def scale(self, c) -> "TreeSum":
        c = rat(c)
        return TreeSum({t: c * v for t, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, TreeSum):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for t, c in sorted(self.terms.items(), key=lambda kv: format_tree(kv[0])):
            parts.append(f"{rat_str(c)}*{format_tree(t)}")
        return " + ".join(parts)


def _relabel(t: OperadTree, mapping: Dict[int, int]) -> OperadTree:
    if t.kind == "leaf":
        return leaf(mapping[t.slot])
    return node(t.gen, [_relabel(ch, mapping) for ch in t.children])


def graft(outer: OperadTree, inners: Sequence[OperadTree]) -> OperadTree:
    """Operadic composition: leaf labeled i is replaced by inners[i-1].

    The leaves of inners[i-1] are relabeled into the i-th block of the
    concatenation 1..k_1+...+k_n, so composition follows slot labels, not
    planar positions.
    """
    if outer.arity != len(inners):
        raise StructuralError(f"graft arity mismatch: outer expects {outer.arity}, got {len(inners)}")
    offsets = {}
    acc = 0
    for i, inner in enumerate(inners, start=1):
        offsets[i] = acc
        acc += inner.arity

    def walk(t: OperadTree) -> OperadTree:
        if t.kind == "leaf":
            inner = inners[t.slot - 1]
            off = offsets[t.slot]
            return _relabel(inner, {s: s + off for s in inner.planar_labels()})
        return node(t.gen, [walk(ch) for ch in t.children])

    return walk(outer)


def permute(t: OperadTree, sigma: Sequence[int]) -> OperadTree:
    """Right permutation action: the leaf labeled l is relabeled sigma(l).

    Convention: evaluate(permute(t, sigma), a, xs) equals, up to Koszul sign,
    evaluate(t, a, [xs[sigma(l)-1] for l]); composing actions satisfies
    permute(permute(t, s), u) == permute(t, perm_compose(s, u)).
    """
    n = t.arity
    if sorted(sigma) != list(range(1, n + 1)):
        raise StructuralError(f"{sigma} is not a permutation of 1..{n}")
    return _relabel(t, {l: sigma[l - 1] for l in range(1, n + 1)})


def perm_compose(sigma: Sequence[int], tau: Sequence[int]) -> Tuple[int, ...]:
    """Diagrammatic composition: apply sigma first, then tau."""
    return tuple(tau[s - 1] for s in sigma)


def koszul_sign(order: Sequence[int], degrees: Sequence[int]) -> int:
    """Sign incurred by reading graded inputs x_1..x_n in the given label order.

    Each inverted pair (labels appearing as ...j...i... with j > i)
    contributes (-1)^(|x_j| * |x_i|).
    """
    parity = 0
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b]:
                parity += degrees[order[a] - 1] * degrees[order[b] - 1]
    return -1 if parity % 2 else 1


def evaluate_tree(t: OperadTree, algebra, inputs: Sequence) -> "object":
    """Evaluate a tree on homogeneous algebra elements, with Koszul signs.

    ``algebra`` must provide ``apply_generator(name, args)``, ``element_degree``,
    ``scale`` and ``zero_element`` (see :class:`opfield.algebras.DgAlgebra`).
    """
    if t.arity != len(inputs):
        raise StructuralError(f"tree arity {t.arity} != number of inputs {len(inputs)}")
    order = t.planar_labels()
    degrees = []
    for x in inputs:
        d = algebra.element_degree(x)
        degrees.append(0 if d is None else d)
    sign = koszul_sign(order, degrees)
    queue = [inputs[l - 1] for l in order]
    pos = 0

    def walk(s: OperadTree):
        nonlocal pos
        if s.kind == "leaf":
            x = queue[pos]
            pos += 1
            return x
        args = [walk(ch) for ch in s.children]
        return algebra.apply_generator(s.gen, args)

    value = walk(t)
    return value if sign == 1 else algebra.scale(sign, value)


def evaluate(expr, algebra, inputs: Sequence):
    """Evaluate a tree or a linear combination of trees."""
    if isinstance(expr, OperadTree):
        return evaluate_tree(expr, algebra, inputs)
    acc = algebra.zero_element()
    for t, c in expr.terms.items():
        acc = algebra.add(acc, algebra.scale(c, evaluate_tree(t, algebra, inputs)))
    return acc


@dataclass(frozen=True)
class Relation:
    name: str
    lhs: TreeSum
    rhs: TreeSum

    def __post_init__(self):
        la, ra = self.lhs.arity, self.rhs.arity
        if la is not None and ra is not None and la != ra:
            raise StructuralError(f"relation {self.name}: arity mismatch {la} != {ra}")

    @property
    def arity(self) -> int:
        return self.lhs.arity if self.lhs.arity is not None else self.rhs.arity


class OperadPresentation:
    def __init__(self, name: str, alphabet: GeneratorAlphabet, relations: Sequence[Relation],
                 distinguished_pair: Tuple[TreeSum, TreeSum]):
        self.name = name
        self.alphabet = alphabet
        self.relations = tuple(relations)
        for r in distinguished_pair:
            if r.arity is not None and r.arity != 2:
                raise StructuralError("distinguished pair must have arity 2")
        self.distinguished_pair = distinguished_pair


@dataclass
class RelationViolation:
    relation: str
    basis_tuple: Tuple[int, ...]
    discrepancy: dict

    def __str__(self):
        entries = ", ".join(f"e{k}: {rat_str(v)}" for k, v in sorted(self.discrepancy.items()))
        return f"{self.relation} fails on basis tuple {self.basis_tuple}: {entries}"


def check_relations(p: OperadPresentation, algebra) -> List[RelationViolation]:
    """Compare the structure tensors of both sides of every relation; exact.

    Violations are returned as data (with witnessing basis tuple and the
    nonzero discrepancy), never raised, in relation order and then in
    lexicographic order of the basis tuples.
    """
    violations = []
    for rel in p.relations:
        diff = sum_tensor(rel.lhs - rel.rhs, algebra)
        violations.extend(RelationViolation(rel.name, key, diff[key]) for key in sorted(diff))
    return violations


# ---------------------------------------------------------------------------
# Sparse structure tensors
# ---------------------------------------------------------------------------

def _sum_cells(terms: Iterable[Tuple[Tuple[int, ...], Mapping[int, Fraction], Fraction]]) -> Tensor:
    """Sum of c * cell at key over (key, cell, c) terms, without zero entries."""
    out: Tensor = {}
    for key, cell, c in terms:
        _add_into(out.setdefault(key, {}), cell.items(), c)
    return {key: cell for key, cell in out.items() if cell}


def combine(terms: Iterable[Tuple[Tensor, Fraction]]) -> Tensor:
    """The linear combination sum(c * T) of tensors, without zero entries."""
    return _sum_cells((key, cell, c) for tensor, c in terms for key, cell in tensor.items())


def by_output(tensor: Tensor) -> Dict[int, list]:
    """Index a tensor by output: j -> [(input tuple, coefficient of e_j)]."""
    index: Dict[int, list] = {}
    for key, cell in tensor.items():
        for j, v in cell.items():
            index.setdefault(j, []).append((key, v))
    return index


def contract(tensor: Tensor, slots: Sequence[Optional[Mapping[int, list]]]) -> Tensor:
    """Substitute a tensor into every input slot of ``tensor``.

    ``slots[m]`` is an output index (see :func:`by_output`) of the tensor fed
    into slot m, or None for the identity.  The result's input tuples are the
    fed tensors' input tuples concatenated in slot order; no signs are added.
    """
    def terms():
        for key, cell in tensor.items():
            combos = [((), _ONE)]
            for j, index in zip(key, slots):
                options = (((j,), _ONE),) if index is None else index.get(j, ())
                combos = [(k + k2, c * c2) for k, c in combos for k2, c2 in options]
            for k, c in combos:
                yield k, cell, c

    return _sum_cells(terms())


def _planar_tensor(s: OperadTree, algebra) -> Tensor:
    """Tensor of ``s`` on inputs read in planar leaf order, without signs."""
    if s.kind == "leaf":
        return {(i,): {i: _ONE} for i in range(algebra.basis.total)}
    slots = [None if ch.kind == "leaf" else by_output(_planar_tensor(ch, algebra))
             for ch in s.children]
    return contract(algebra.tensor(s.gen), slots)


def tree_tensor(t: OperadTree, algebra) -> Tensor:
    """Structure tensor of a tree in ``algebra``, keyed by basis tuples in label order.

    ``tree_tensor(t, a)[combo]`` is ``evaluate_tree(t, a, inputs)`` with
    ``inputs[l-1]`` the basis vector ``combo[l-1]``, Koszul sign included;
    ``algebra`` must provide ``tensor(name)`` and a graded ``basis``.
    """
    order = t.planar_labels()
    by_label = sorted(range(len(order)), key=order.__getitem__)
    degrees = algebra.basis.degrees
    out: Tensor = {}
    for planar, cell in _planar_tensor(t, algebra).items():
        key = tuple(planar[m] for m in by_label)
        sign = koszul_sign(order, [degrees[i] for i in key])
        out[key] = cell if sign == 1 else {j: -v for j, v in cell.items()}
    return out


def sum_tensor(s: TreeSum, algebra) -> Tensor:
    """Structure tensor of a linear combination of trees."""
    return combine((tree_tensor(t, algebra), c) for t, c in s.terms.items())


# ---------------------------------------------------------------------------
# Named single-colored presentations
# ---------------------------------------------------------------------------

MU, ETA, BRACKET, PBRACKET = "mu", "eta", "bracket", "pbracket"


def _mu_tree():
    return node(MU, [leaf(1), leaf(2)])


def _mu_op_tree():
    return node(MU, [leaf(2), leaf(1)])


def _bracket_tree(name=BRACKET):
    return node(name, [leaf(1), leaf(2)])


def commutator_sum() -> TreeSum:
    """mu - mu^op, the arity-2 commutator combination in the associative alphabet."""
    return TreeSum({_mu_tree(): 1, _mu_op_tree(): -1})


def _assoc_relations(mul=MU, unit=ETA) -> List[Relation]:
    t_left = node(mul, [node(mul, [leaf(1), leaf(2)]), leaf(3)])
    t_right = node(mul, [leaf(1), node(mul, [leaf(2), leaf(3)])])
    lu = node(mul, [node(unit, []), leaf(1)])
    ru = node(mul, [leaf(1), node(unit, [])])
    return [
        Relation("associativity", TreeSum.of(t_left), TreeSum.of(t_right)),
        Relation("left unitality", TreeSum.of(lu), TreeSum.of(leaf(1))),
        Relation("right unitality", TreeSum.of(ru), TreeSum.of(leaf(1))),
    ]


def _lie_relations(br=BRACKET) -> List[Relation]:
    b = node(br, [leaf(1), leaf(2)])
    b_swapped = node(br, [leaf(2), leaf(1)])
    jac = TreeSum({
        node(br, [leaf(1), node(br, [leaf(2), leaf(3)])]): 1,
        node(br, [leaf(2), node(br, [leaf(3), leaf(1)])]): 1,
        node(br, [leaf(3), node(br, [leaf(1), leaf(2)])]): 1,
    })
    return [
        Relation("antisymmetry", TreeSum.of(b), TreeSum.of(b_swapped, -1)),
        Relation("Jacobi", jac, TreeSum.zero()),
    ]


def named_presentation(which: str) -> OperadPresentation:
    """The associative, Lie, unital Lie and Poisson presentations.

    Distinguished arity-2 pairs: (mu - mu^op, 0) for As, (bracket, 0) for
    Lie/uLie, (pbracket, 0) for Pois; these are the operations compared by the
    causality axiom.
    """
    zero = TreeSum.zero()
    if which == "As":
        alphabet = GeneratorAlphabet([Generator(MU, 2), Generator(ETA, 0)])
        return OperadPresentation("As", alphabet, _assoc_relations(),
                                  distinguished_pair=(commutator_sum(), zero))
    if which == "Lie":
        alphabet = GeneratorAlphabet([Generator(BRACKET, 2)])
        return OperadPresentation("Lie", alphabet, _lie_relations(),
                                  distinguished_pair=(TreeSum.of(_bracket_tree()), zero))
    if which == "uLie":
        alphabet = GeneratorAlphabet([Generator(BRACKET, 2), Generator(ETA, 0)])
        unit_bracket = node(BRACKET, [leaf(1), node(ETA, [])])
        relations = _lie_relations() + [Relation("unit bracket", TreeSum.of(unit_bracket), zero)]
        return OperadPresentation("uLie", alphabet, relations,
                                  distinguished_pair=(TreeSum.of(_bracket_tree()), zero))
    if which == "Pois":
        alphabet = GeneratorAlphabet([Generator(MU, 2), Generator(ETA, 0), Generator(PBRACKET, 2)])
        comm = Relation("commutativity", TreeSum.of(_mu_tree()), TreeSum.of(_mu_op_tree()))
        deriv_lhs = node(PBRACKET, [leaf(1), node(MU, [leaf(2), leaf(3)])])
        deriv_rhs = TreeSum({
            node(MU, [node(PBRACKET, [leaf(1), leaf(2)]), leaf(3)]): 1,
            node(MU, [leaf(2), node(PBRACKET, [leaf(1), leaf(3)])]): 1,
        })
        unit_bracket = node(PBRACKET, [leaf(1), node(ETA, [])])
        relations = (
            _assoc_relations()
            + _lie_relations(PBRACKET)
            + [comm,
               Relation("right derivation", TreeSum.of(deriv_lhs), deriv_rhs),
               Relation("unit bracket", TreeSum.of(unit_bracket), zero)]
        )
        return OperadPresentation("Pois", alphabet, relations,
                                  distinguished_pair=(TreeSum.of(_bracket_tree(PBRACKET)), zero))
    raise StructuralError(f"unknown presentation {which!r}")


def phi_ulie_to_as() -> Dict[str, TreeSum]:
    """Generator assignment of the bracket-to-commutator operad morphism:
    eta -> eta, bracket -> mu - mu^op."""
    return {
        ETA: TreeSum.of(node(ETA, [])),
        BRACKET: commutator_sum(),
    }


def _splice(image: OperadTree, subs: Sequence[TreeSum]) -> TreeSum:
    """Replace the leaf labeled i of ``image`` by the trees of ``subs[i-1]``.

    Substituted subtrees keep their own (absolute) leaf labels, so no
    relabeling is involved; ``image`` is a standard tree with labels 1..k.
    """
    if image.kind == "leaf":
        return subs[image.slot - 1]
    out = TreeSum.of(node(image.gen, []))

    def attach(acc: TreeSum, child: OperadTree) -> TreeSum:
        piece = _splice(child, subs)
        res: Dict[OperadTree, Fraction] = {}
        for t0, c0 in acc.terms.items():
            _add_into(res, ((node(t0.gen, list(t0.children) + [t1]), c1)
                            for t1, c1 in piece.terms.items()), c0)
        return TreeSum(res)

    for ch in image.children:
        out = attach(out, ch)
    return out


def apply_morphism(assignment: Mapping[str, TreeSum], expr) -> TreeSum:
    """Push a tree (or combination) through a generator assignment.

    Every generator node is replaced by its image combination, spliced over
    the images of its children; leaves are kept with their labels.
    """
    if isinstance(expr, TreeSum):
        out = TreeSum.zero()
        for t, c in expr.terms.items():
            out = out + apply_morphism(assignment, t).scale(c)
        return out
    t = expr
    if t.kind == "leaf":
        return TreeSum.of(t)
    image = assignment.get(t.gen)
    if image is None:
        raise StructuralError(f"morphism does not assign generator {t.gen!r}")
    child_images = [apply_morphism(assignment, ch) for ch in t.children]
    out = TreeSum.zero()
    for img_tree, coeff in image.terms.items():
        out = out + _splice(img_tree, child_images).scale(coeff)
    return out


def morphism_preserves_pair(assignment: Mapping[str, TreeSum],
                            source_pair: Tuple[TreeSum, TreeSum],
                            target_pair: Tuple[TreeSum, TreeSum]) -> bool:
    """Structural check that a morphism of bipointed operads maps the
    distinguished pair to the distinguished pair."""
    img1 = apply_morphism(assignment, source_pair[0])
    img2 = apply_morphism(assignment, source_pair[1])
    return img1 == target_pair[0] and img2 == target_pair[1]
