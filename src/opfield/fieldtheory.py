"""Field theories on finite orthogonal categories.

A field theory assigns a dg algebra of a declared kind to every object of a
finite category and a structure-preserving chain map to every morphism.  The
causality axiom requires the distinguished pair of arity-2 operations to act
equally on images of orthogonal morphism pairs; for the named kinds this is
bracket-vanishing (uLie/Pois) alternatively commutator-vanishing (As).

Quantization replaces every algebra by a truncated enveloping algebra and
every action by its multiplicative extension.  Quantized theories carry the
truncation bound and are checked stagewise: causality on monomial pairs whose
lengths fit the bound, constancy per filtration stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

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

    Linear (and classical/quantum structure-constant) theories assign
    :class:`DgAlgebra` objects and :class:`ChainMap` actions.  Quantized
    theories assign :class:`TruncatedEnvelope` objects, :class:`EnvelopeMap`
    actions, and carry the truncation bound.
    """

    def __init__(self, base: OrthCategory, kind: str,
                 assignment: Mapping[str, AlgebraLike],
                 action: Mapping[str, ActionLike],
                 truncation: Optional[int] = None,
                 distinguished_pair=None):
        self.base = base
        self.kind = kind
        self.assignment = dict(assignment)
        self.truncation = truncation
        if distinguished_pair is None:
            distinguished_pair = operads.named_presentation(kind).distinguished_pair
        self.distinguished_pair = distinguished_pair
        missing = set(base.objects) - set(self.assignment)
        if missing:
            raise StructuralError(f"no algebra assigned to objects {sorted(missing)}")
        self.action: Dict[str, ActionLike] = {}
        for m, (src, tgt) in base.morphisms.items():
            if base.is_identity(m) and m not in action:
                self.action[m] = self._identity_action(src)
            else:
                if m not in action:
                    raise StructuralError(f"no action supplied for morphism {m}")
                self.action[m] = action[m]

    @property
    def is_quantized(self) -> bool:
        return self.truncation is not None

    def algebra(self, obj: str) -> AlgebraLike:
        return self.assignment[obj]

    def _identity_action(self, obj: str) -> ActionLike:
        a = self.assignment[obj]
        if isinstance(a, TruncatedEnvelope):
            return EnvelopeMap(a, a, ChainMap.identity(a.source.carrier))
        return ChainMap.identity(a.carrier)


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
    """Functoriality plus per-morphism structure preservation."""
    issues = [f"base category: {m}" for m in ft.base.validate()]
    for m, (src, tgt) in ft.base.morphisms.items():
        act = ft.action[m]
        a, b = ft.algebra(src), ft.algebra(tgt)
        if ft.is_quantized:
            if not isinstance(act, EnvelopeMap):
                issues.append(f"action {m}: expected an envelope map")
                continue
            morphism_issues = is_algebra_morphism(act.rho, a.source, b.source)
            issues.extend(f"action {m}: {msg}" for msg in morphism_issues)
        else:
            if not isinstance(act, ChainMap):
                issues.append(f"action {m}: expected a chain map")
                continue
            morphism_issues = is_algebra_morphism(act, a, b)
            issues.extend(f"action {m}: {msg}" for msg in morphism_issues)
    for obj in ft.base.objects:
        ident = ft.base.identities[obj]
        if ft.is_quantized:
            imgs = ft.action[ident].images
            expected = [ft.algebra(obj).generator(p) for p in range(len(ft.algebra(obj).gens))]
            if imgs != expected:
                issues.append(f"identity action on {obj} is not the identity")
        else:
            if ft.action[ident] != ChainMap.identity(ft.algebra(obj).carrier):
                issues.append(f"identity action on {obj} is not the identity")
    for (g, f), gf in ft.base._compose.items():
        if ft.is_quantized:
            lhs = [ft.action[g].apply(img) for img in ft.action[f].images]
            if lhs != ft.action[gf].images:
                issues.append(f"functoriality fails: action({gf}) != action({g}).action({f})")
        else:
            if ft.action[gf] != ft.action[g].compose(ft.action[f]):
                issues.append(f"functoriality fails: action({gf}) != action({g}).action({f})")
    return issues


def check_causality(ft: FieldTheory) -> List[CausalityViolation]:
    """Evaluate the distinguished pair on all images of orthogonal pairs.

    For structure-constant theories this pulls the structure tensor of the
    difference of the two arity-2 combinations back along both actions; its
    nonzero entries are the failing pairs of basis elements.  For quantized
    theories it checks graded commutators of monomial images on every pair of
    monomials whose combined length fits the truncation.
    """
    violations: List[CausalityViolation] = []
    for f1, f2 in sorted(ft.base.orth):
        if ft.is_quantized:
            violations.extend(_quantized_pair_violations(ft, f1, f2))
            continue
        a_c = ft.algebra(ft.base.target(f1))
        images = [push_rows(ft.action[f], ft.algebra(ft.base.source(f)).basis, a_c.basis)
                  for f in (f1, f2)]
        r1, r2 = ft.distinguished_pair
        diff = operads.contract(operads.sum_tensor(r1 - r2, a_c), images)
        violations.extend(CausalityViolation((f1, f2), key, diff[key]) for key in sorted(diff))
    return violations


def _quantized_pair_violations(ft: FieldTheory, f1: str, f2: str) -> List[CausalityViolation]:
    env_c: TruncatedEnvelope = ft.algebra(ft.base.target(f1))
    env1: TruncatedEnvelope = ft.algebra(ft.base.source(f1))
    env2: TruncatedEnvelope = ft.algebra(ft.base.source(f2))
    act1: EnvelopeMap = ft.action[f1]
    act2: EnvelopeMap = ft.action[f2]
    n = env_c.truncation
    words1 = env1.monomials(n - 1)
    images1 = act1.apply_words(words1)
    images2 = [(v, y) for v, y in act2.apply_words(env2.monomials(n - 1)).items() if v]
    out = []
    for u in words1[1:]:
        x = images1[u]
        for v, y in images2:
            if len(u) + len(v) > n:
                continue
            comm = env_c.commutator(x, y)
            if comm:
                out.append(CausalityViolation((f1, f2), (u, v), comm))
    return out


def quantize(lft: FieldTheory, n_max: int, check: bool = True) -> FieldTheory:
    """Pointwise truncated envelope of a linear (uLie) field theory.

    The output is an As-kind theory at truncation ``n_max``; with ``check``
    it is asserted to pass the causality check with the commutator pair,
    which holds whenever the input passes bracket-vanishing causality.
    """
    if lft.kind != "uLie":
        raise StructuralError(f"quantize expects a uLie theory, got {lft.kind}")
    if lft.is_quantized:
        raise StructuralError("theory is already quantized")
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

    if qft.kind != "As" or qft.is_quantized:
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
    actions are quasi-isomorphisms.  Quantized theories are checked on every
    filtration stage up to the truncation."""
    if mode not in ("strict", "homotopy"):
        raise StructuralError(f"unknown mode {mode!r}")
    reports = []
    for m in w:
        if m not in ft.base.morphisms:
            raise StructuralError(f"unknown morphism {m!r} in W")
        if ft.is_quantized:
            reports.append(_stagewise_constancy(ft, m, mode))
            continue
        f: ChainMap = ft.action[m]
        reports.append(_chain_map_constancy(m, f, mode))
    return reports


def _chain_map_constancy(name: str, f: ChainMap, mode: str) -> ConstancyReport:
    if mode == "homotopy":
        degrees = sorted(set(f.source.dims) | set(f.target.dims))
        for n in degrees:
            hs, ht = homology_dim(f.source, n), homology_dim(f.target, n)
            if hs != ht:
                return ConstancyReport(name, False,
                                       f"homology dims differ in degree {n}: {hs} != {ht}")
        if not is_quasi_iso(f):
            return ConstancyReport(name, False, "induced homology map not invertible")
        return ConstancyReport(name, True)
    degrees = sorted(set(f.source.dims) | set(f.target.dims))
    for n in degrees:
        rows, cols = f.target.dim(n), f.source.dim(n)
        if rows != cols:
            return ConstancyReport(name, False, f"degree {n}: dims {cols} -> {rows} differ")
        if rows and rank(f.component(n)) != rows:
            return ConstancyReport(name, False, f"degree {n}: action matrix not invertible")
    return ConstancyReport(name, True)


def _stagewise_constancy(ft: FieldTheory, m: str, mode: str) -> ConstancyReport:
    act: EnvelopeMap = ft.action[m]
    for n in range(ft.truncation + 1):
        stage_map = act.stage_chain_map(n)
        report = _chain_map_constancy(f"{m}[stage {n}]", stage_map, mode)
        if not report.ok:
            return ConstancyReport(m, False, f"stage {n}: {report.witness}")
    return ConstancyReport(m, True)


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


def pullback_theory(F: OrthFunctor, ft: FieldTheory, check: bool = True) -> FieldTheory:
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
    out = FieldTheory(F.source, ft.kind, assignment, action, truncation=ft.truncation,
                      distinguished_pair=ft.distinguished_pair)
    if check:
        violations = check_causality(out)
        if violations:
            raise AssertionError("pullback broke causality: " +
                                 "; ".join(str(v) for v in violations[:3]))
    return out
