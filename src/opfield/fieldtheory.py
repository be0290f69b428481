"""Field theories on finite orthogonal categories.

A field theory assigns a dg algebra of a declared kind to every object of a
finite category and a structure-preserving chain map to every morphism.  The
causality axiom requires the distinguished pair of arity-2 operations to act
equally on images of orthogonal morphism pairs; for the named kinds this is
bracket-vanishing (uLie/Pois) alternatively commutator-vanishing (As).

Quantization replaces every algebra by a truncated enveloping algebra and
every action by its multiplicative extension; a quantized theory is its
linear theory plus the truncation bound.  Quantization is a functor, so
:func:`validate_functor` checks the linear data of either kind, and
W-constancy is checked on :meth:`FieldTheory.stage_maps`, one chain map per
filtration stage.  Only causality reads the envelopes themselves, on monomial
pairs whose lengths fit the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from . import operads
from .algebras import DgAlgebra, is_algebra_morphism, push_rows
from .complexes import ChainMap, homology_dim, is_quasi_iso
from .envelope import EnvelopeMap, TruncatedEnvelope, envelope
from .errors import StructuralError
from .exact import rank, rat_str

Pair = Tuple[str, str]


class OrthCategory:
    """Finite category with a symmetric, composition-stable orthogonality
    relation on pairs of morphisms with common target.

    Morphisms are given by name with source/target; the composition table
    lists ``compose[(g, f)] = g after f`` for non-identity composable pairs.
    Identities are implicit (named ``id_<object>``) unless supplied.
    """

    def __init__(self, objects: Sequence[str], morphisms: Mapping[str, Tuple[str, str]],
                 compose: Mapping[Tuple[str, str], str] = (),
                 orth: Iterable[Pair] = ()):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise StructuralError("duplicate object names")
        self.morphisms: Dict[str, Tuple[str, str]] = {}
        self.identities: Dict[str, str] = {}
        for obj in self.objects:
            name = f"id_{obj}"
            self.identities[obj] = name
            self.morphisms[name] = (obj, obj)
        for name, (src, tgt) in dict(morphisms).items():
            if src not in self.identities or tgt not in self.identities:
                raise StructuralError(f"morphism {name}: unknown object {src!r} or {tgt!r}")
            if name in self.morphisms and self.morphisms[name] != (src, tgt):
                raise StructuralError(f"morphism name {name} clashes with an identity")
            self.morphisms[name] = (src, tgt)
        self._compose = {(str(g), str(f)): str(gf) for (g, f), gf in dict(compose).items()}
        for (g, f), gf in self._compose.items():
            for m in (g, f, gf):
                if m not in self.morphisms:
                    raise StructuralError(f"composition table mentions unknown morphism {m!r}")
        self.orth: Set[Pair] = set()
        for f1, f2 in orth:
            self._check_common_target(f1, f2)
            self.orth.add((f1, f2))
            self.orth.add((f2, f1))

    def source(self, m: str) -> str:
        return self.morphisms[m][0]

    def target(self, m: str) -> str:
        return self.morphisms[m][1]

    def is_identity(self, m: str) -> bool:
        src, tgt = self.morphisms[m]
        return src == tgt and self.identities[src] == m

    def _check_common_target(self, f1: str, f2: str) -> None:
        if f1 not in self.morphisms or f2 not in self.morphisms:
            raise StructuralError(f"orthogonal pair ({f1}, {f2}) mentions unknown morphisms")
        if self.target(f1) != self.target(f2):
            raise StructuralError(f"orthogonal pair ({f1}, {f2}) has no common target")

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        if self.target(f) != self.source(g):
            raise StructuralError(f"morphisms {g} after {f} are not composable")
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        gf = self._compose.get((g, f))
        if gf is None:
            raise StructuralError(f"composition table has no entry for ({g}, {f})")
        return gf

    def composable_pairs(self):
        for g, (gsrc, _) in self.morphisms.items():
            for f, (_, ftgt) in self.morphisms.items():
                if ftgt == gsrc:
                    yield g, f

    def validate(self) -> List[str]:
        issues = []
        for g, f in self.composable_pairs():
            try:
                gf = self.compose(g, f)
            except StructuralError as exc:
                issues.append(str(exc))
                continue
            if (self.source(gf), self.target(gf)) != (self.source(f), self.target(g)):
                issues.append(f"compose({g}, {f}) = {gf} has wrong endpoints")
        for h, (hsrc, htgt) in self.morphisms.items():
            for g, (gsrc, gtgt) in self.morphisms.items():
                if gtgt != hsrc:
                    continue
                for f, (fsrc, ftgt) in self.morphisms.items():
                    if ftgt != gsrc:
                        continue
                    try:
                        left = self.compose(self.compose(h, g), f)
                        right = self.compose(h, self.compose(g, f))
                    except StructuralError as exc:
                        issues.append(str(exc))
                        continue
                    if left != right:
                        issues.append(f"associativity fails on ({h}, {g}, {f})")
        issues.extend(self._orth_issues())
        return issues

    def _orth_issues(self) -> List[str]:
        issues = []
        for f1, f2 in self.orth:
            if (f2, f1) not in self.orth:
                issues.append(f"orthogonality not symmetric at ({f1}, {f2})")
        closed = orth_closure(self.orth, self)
        extra = closed - self.orth
        if extra:
            sample = sorted(extra)[:3]
            issues.append(f"orthogonality not composition-stable; missing {sample}")
        return issues


def orth_closure(seeds: Iterable[Pair], cat: OrthCategory) -> Set[Pair]:
    """Smallest symmetric, composition-stable relation containing the seeds.

    Stability: (f1, f2) orthogonal implies (g f1 h1, g f2 h2) orthogonal for
    all composable g, h1, h2.  Computed by fixpoint iteration; idempotent.
    """
    pending = set()
    for f1, f2 in seeds:
        cat._check_common_target(f1, f2)
        pending.add((f1, f2))
        pending.add((f2, f1))
    closure: Set[Pair] = set()
    while pending:
        pair = pending.pop()
        if pair in closure:
            continue
        closure.add(pair)
        f1, f2 = pair
        closure.add((f2, f1))
        t = cat.target(f1)
        for g, (gsrc, _) in cat.morphisms.items():
            if gsrc == t:
                pending.add((cat.compose(g, f1), cat.compose(g, f2)))
        for h, (_, htgt) in cat.morphisms.items():
            if htgt == cat.source(f1):
                pending.add((cat.compose(f1, h), f2))
            if htgt == cat.source(f2):
                pending.add((f1, cat.compose(f2, h)))
    return closure


AlgebraLike = Union[DgAlgebra, TruncatedEnvelope]
ActionLike = Union[ChainMap, EnvelopeMap]


class FieldTheory:
    """Functor from a finite orthogonal category to algebras of one kind.

    A linear (structure-constant) theory assigns a :class:`DgAlgebra` to every
    object and a :class:`ChainMap` to every morphism.  A quantized theory is a
    linear theory plus its truncation bound N: it assigns the stage-N
    envelopes (:class:`TruncatedEnvelope`) and their :class:`EnvelopeMap`
    extensions.  :meth:`linear_algebra` and :meth:`linear_action` give the
    linear data of either; :meth:`stage_maps` gives the chain maps that
    W-constancy is checked on.
    """

    def __init__(self, base: OrthCategory, kind: str,
                 assignment: Mapping[str, AlgebraLike],
                 action: Mapping[str, ActionLike],
                 truncation: Optional[int] = None):
        self.base = base
        self.kind = kind
        self.assignment = dict(assignment)
        self.truncation = truncation
        self.distinguished_pair = operads.named_presentation(kind).distinguished_pair
        missing = set(base.objects) - set(self.assignment)
        if missing:
            raise StructuralError(f"no algebra assigned to objects {sorted(missing)}")
        if truncation is not None:
            for obj, env in sorted(self.assignment.items()):
                if not isinstance(env, TruncatedEnvelope) or env.truncation != truncation:
                    raise StructuralError(
                        f"algebra on {obj}: expected an envelope at truncation {truncation}")
        expected, noun = ((ChainMap, "a chain map") if truncation is None
                          else (EnvelopeMap, "an envelope map"))
        self.action: Dict[str, ActionLike] = {}
        for m, (src, tgt) in base.morphisms.items():
            if base.is_identity(m) and m not in action:
                self.action[m] = self._identity_action(src)
            else:
                if m not in action:
                    raise StructuralError(f"no action supplied for morphism {m}")
                if not isinstance(action[m], expected):
                    raise StructuralError(f"action {m}: expected {noun}")
                self.action[m] = action[m]

    def algebra(self, obj: str) -> AlgebraLike:
        return self.assignment[obj]

    def linear_algebra(self, obj: str) -> DgAlgebra:
        a = self.assignment[obj]
        return a if self.truncation is None else a.source

    def linear_action(self, m: str) -> ChainMap:
        act = self.action[m]
        return act if self.truncation is None else act.rho

    def stage_maps(self, m: str) -> Iterator[Tuple[Optional[str], ChainMap]]:
        """``(label, chain map)``: the action itself, labelled None, for a
        linear theory; the action on filtration stage n, labelled ``stage n``,
        for n = 0..N, built as it is asked for, for a quantized one."""
        act = self.action[m]
        if self.truncation is None:
            yield None, act
            return
        for n in range(self.truncation + 1):
            yield f"stage {n}", act.stage_chain_map(n)

    def _identity_action(self, obj: str) -> ActionLike:
        ident = ChainMap.identity(self.linear_algebra(obj).carrier)
        a = self.assignment[obj]
        return ident if self.truncation is None else EnvelopeMap(a, a, ident)


@dataclass
class CausalityViolation:
    pair: Pair
    witness: Tuple
    discrepancy: dict

    def __str__(self):
        entries = ", ".join(f"{k}: {rat_str(v)}" for k, v in sorted(self.discrepancy.items()))
        return (f"orthogonal pair {self.pair} fails on basis pair "
                f"{self.witness}: {entries}")


def validate_functor(ft: FieldTheory) -> List[str]:
    """Functoriality plus per-morphism structure preservation, checked on the
    linear data (quantization is a functor, so that covers a quantized
    theory too)."""
    issues = [f"base category: {m}" for m in ft.base.validate()]
    for m, (src, tgt) in ft.base.morphisms.items():
        morphism_issues = is_algebra_morphism(ft.linear_action(m), ft.linear_algebra(src),
                                              ft.linear_algebra(tgt))
        issues.extend(f"action {m}: {msg}" for msg in morphism_issues)
    for obj in ft.base.objects:
        ident = ft.linear_action(ft.base.identities[obj])
        if ident != ChainMap.identity(ft.linear_algebra(obj).carrier):
            issues.append(f"identity action on {obj} is not the identity")
    for (g, f), gf in ft.base._compose.items():
        if ft.linear_action(gf) != ft.linear_action(g).compose(ft.linear_action(f)):
            issues.append(f"functoriality fails: action({gf}) != action({g}).action({f})")
    return issues


def check_causality(ft: FieldTheory) -> List[CausalityViolation]:
    """Evaluate the distinguished pair on all images of orthogonal pairs.

    For structure-constant theories this pulls the structure tensor of the
    difference of the two arity-2 combinations back along both actions of
    each ordered pair; its nonzero entries are the failing pairs of basis
    elements.  For quantized theories it checks graded commutators of
    monomial images on every pair of monomials whose combined length fits the
    truncation.  Each unordered pair {f1, f2} is evaluated once, as (f1, f2):
    the (f2, f1) list is its graded mirror, witness (v, u) for (u, v) and
    discrepancy [y, x] = -(-1)^(|u||v|) [x, y], listed in the order an
    (f2, f1) loop would give.  Violations come pair by pair in sorted order.
    """
    found: Dict[Pair, List[CausalityViolation]] = {}
    for f1, f2 in sorted(ft.base.orth):
        if ft.truncation is None:
            found[f1, f2] = _tensor_violations(ft, f1, f2)
        elif f1 <= f2:  # for f1 == f2 the mirror is the list itself
            found[f1, f2], found[f2, f1] = _monomial_violations(ft, f1, f2)
    return [v for pair in sorted(found) for v in found[pair]]


def _tensor_violations(ft: FieldTheory, f1: str, f2: str) -> List[CausalityViolation]:
    a_c = ft.algebra(ft.base.target(f1))
    images = [push_rows(ft.action[f], ft.algebra(ft.base.source(f)).basis, a_c.basis)
              for f in (f1, f2)]
    r1, r2 = ft.distinguished_pair
    diff = operads.contract(operads.sum_tensor(r1 - r2, a_c), images)
    return [CausalityViolation((f1, f2), key, diff[key]) for key in sorted(diff)]


def _monomial_violations(ft: FieldTheory, f1: str,
                         f2: str) -> Tuple[List[CausalityViolation], List[CausalityViolation]]:
    """Violations of (f1, f2) and, from the same commutators, of (f2, f1)."""
    env_c: TruncatedEnvelope = ft.algebra(ft.base.target(f1))
    env1: TruncatedEnvelope = ft.algebra(ft.base.source(f1))
    env2: TruncatedEnvelope = ft.algebra(ft.base.source(f2))
    n = ft.truncation
    words1 = env1.monomials(n - 1)
    words2 = env2.monomials(n - 1)
    images1 = ft.action[f1].apply_words(words1)
    images2 = ft.action[f2].apply_words(words2)
    forward, mirrored = [], []
    for i, u in enumerate(words1[1:]):
        x = images1[u]
        for j, v in enumerate(words2[1:]):
            if len(u) + len(v) > n:
                break  # monomials are sorted by length
            comm = env_c.commutator(x, images2[v])
            if comm:
                forward.append(CausalityViolation((f1, f2), (u, v), comm))
                odd = env1.word_degree(u) * env2.word_degree(v) % 2
                mirror = dict(comm) if odd else {w: -c for w, c in comm.items()}
                mirrored.append((j, i, CausalityViolation((f2, f1), (v, u), mirror)))
    mirrored.sort(key=lambda entry: entry[:2])
    return forward, [viol for _, _, viol in mirrored]


def quantize(lft: FieldTheory, n_max: int, check: bool = True) -> FieldTheory:
    """Pointwise truncated envelope of a linear (uLie) field theory.

    The output is an As-kind theory at truncation ``n_max``; with ``check``
    it is asserted to pass the causality check with the commutator pair,
    which holds whenever the input passes bracket-vanishing causality.
    """
    if lft.kind != "uLie":
        raise StructuralError(f"quantize expects a uLie theory, got {lft.kind}")
    envs = {obj: envelope(lft.algebra(obj), n_max) for obj in lft.base.objects}
    actions: Dict[str, EnvelopeMap] = {}
    for m, (src, tgt) in lft.base.morphisms.items():
        actions[m] = EnvelopeMap(envs[src], envs[tgt], lft.action[m])
    qft = FieldTheory(lft.base, "As", envs, actions, truncation=n_max)
    if check:
        violations = check_causality(qft)
        if violations:
            raise AssertionError(
                "quantization broke causality: " + "; ".join(str(v) for v in violations[:3]))
    return qft


def dequantize(qft: FieldTheory) -> FieldTheory:
    """Pointwise commutator functor on a structure-constant As theory."""
    from .algebras import commutator_functor

    if qft.kind != "As" or qft.truncation is not None:
        raise StructuralError("dequantize expects a structure-constant As theory")
    algebras = {obj: commutator_functor(qft.algebra(obj)) for obj in qft.base.objects}
    return FieldTheory(qft.base, "uLie", algebras, dict(qft.action))


@dataclass
class ConstancyReport:
    morphism: str
    ok: bool
    witness: str = ""

    def __str__(self):
        status = "ok" if self.ok else f"FAIL ({self.witness})"
        return f"{self.morphism}: {status}"


def check_w_constancy(ft: FieldTheory, w: Iterable[str],
                      mode: str = "strict") -> List[ConstancyReport]:
    """Strict mode: action matrices invertible degreewise.  Homotopy mode:
    actions are quasi-isomorphisms.  Each action is checked through
    :meth:`FieldTheory.stage_maps`, so a quantized theory is checked on every
    filtration stage up to the truncation, stopping at the first failure."""
    if mode not in ("strict", "homotopy"):
        raise StructuralError(f"unknown mode {mode!r}")
    reports = []
    for m in w:
        if m not in ft.base.morphisms:
            raise StructuralError(f"unknown morphism {m!r} in W")
        witness = ""
        for label, f in ft.stage_maps(m):
            witness = _constancy_defect(f, mode)
            if witness:
                witness = f"{label}: {witness}" if label else witness
                break
        reports.append(ConstancyReport(m, not witness, witness))
    return reports


def _constancy_defect(f: ChainMap, mode: str) -> str:
    """Why ``f`` is not W-constant in ``mode``; empty when it is."""
    degrees = sorted(set(f.source.dims) | set(f.target.dims))
    if mode == "homotopy":
        for n in degrees:
            hs, ht = homology_dim(f.source, n), homology_dim(f.target, n)
            if hs != ht:
                return f"homology dims differ in degree {n}: {hs} != {ht}"
        return "" if is_quasi_iso(f) else "induced homology map not invertible"
    for n in degrees:
        rows, cols = f.target.dim(n), f.source.dim(n)
        if rows != cols:
            return f"degree {n}: dims {cols} -> {rows} differ"
        if rows and rank(f.component(n)) != rows:
            return f"degree {n}: action matrix not invertible"
    return ""


class OrthFunctor:
    """Functor between finite orthogonal categories; must preserve
    orthogonality to pull field theories back."""

    def __init__(self, source: OrthCategory, target: OrthCategory,
                 object_map: Mapping[str, str], morphism_map: Mapping[str, str]):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.morphism_map = dict(morphism_map)
        for obj in source.objects:
            if self.object_map.get(obj) not in target.identities:
                raise StructuralError(f"object {obj} has no valid image")
        for m in source.morphisms:
            if source.is_identity(m):
                self.morphism_map.setdefault(m, target.identities[self.object_map[source.source(m)]])
            if self.morphism_map.get(m) not in target.morphisms:
                raise StructuralError(f"morphism {m} has no valid image")

    def validate(self) -> List[str]:
        issues = []
        for m, (src, tgt) in self.source.morphisms.items():
            fm = self.morphism_map[m]
            expected = (self.object_map[src], self.object_map[tgt])
            if (self.target.source(fm), self.target.target(fm)) != expected:
                issues.append(f"image of {m} has wrong endpoints")
        for (g, f), gf in self.source._compose.items():
            img = self.target.compose(self.morphism_map[g], self.morphism_map[f])
            if img != self.morphism_map[gf]:
                issues.append(f"functoriality fails on ({g}, {f})")
        for f1, f2 in self.source.orth:
            if (self.morphism_map[f1], self.morphism_map[f2]) not in self.target.orth:
                issues.append(f"orthogonality of ({f1}, {f2}) not preserved")
        return issues


def pullback_theory(F: OrthFunctor, ft: FieldTheory) -> FieldTheory:
    """Precompose a theory with an orthogonal functor.

    Raises when ``F`` fails validation (in particular when it does not
    preserve orthogonality); asserts that the result passes causality, which
    is automatic since orthogonal pairs map to orthogonal pairs.
    """
    issues = F.validate()
    if issues:
        raise StructuralError("not an orthogonal functor: " + "; ".join(issues))
    if ft.base is not F.target and set(F.target.morphisms) - set(ft.base.morphisms):
        raise StructuralError("theory is not defined on the functor's target")
    assignment = {c: ft.algebra(F.object_map[c]) for c in F.source.objects}
    action = {m: ft.action[F.morphism_map[m]] for m in F.source.morphisms}
    out = FieldTheory(F.source, ft.kind, assignment, action, truncation=ft.truncation)
    violations = check_causality(out)
    if violations:
        raise AssertionError("pullback broke causality: " +
                             "; ".join(str(v) for v in violations[:3]))
    return out
