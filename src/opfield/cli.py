"""Command-line surface: validate, compute, quantize, emit JSON reports.

Every command prints one canonical JSON document (sorted keys, canonical
rationals) to standard output, so identical inputs produce byte-identical
reports.  Exit codes: 0 all checks pass, 1 check violations (witnesses in
the report), 2 parse/structural input errors (with location), 3 internal
assertion failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import jsonio
from .cherns import cs_complex, pairing
from .complexes import homology, homology_dim, homology_dims, validate_complex
from .envelope import ccr, envelope
from .errors import StructuralError, TruncationOverflow
from .exact import rat_str
from .fieldtheory import check_causality, check_w_constancy, quantize, validate_functor


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise StructuralError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _emit(doc: dict, out: Optional[str] = None) -> None:
    text = jsonio.dumps(doc)
    sys.stdout.write(text)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def pbw_str(elem) -> str:
    """Canonical rendering of a PBW element: terms by (length, word)."""
    if not elem:
        return "0"
    parts = []
    for w, c in sorted(elem.items(), key=lambda kv: (len(kv[0]), kv[0])):
        word = "*".join(f"e{p + 1}" for p in w)
        if not word:
            parts.append(rat_str(c))
        elif c == 1:
            parts.append(word)
        elif c == -1:
            parts.append(f"-{word}")
        else:
            parts.append(f"{rat_str(c)}*{word}")
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def _dims_report(dims) -> dict:
    """Degree -> dimension with string keys, as the reports print it."""
    return {str(n): d for n, d in dims.items()}


def _homology_report(c) -> dict:
    """Homology dimension of every degree in the support, zeros included."""
    dims = homology_dims(c)
    return {str(n): dims.get(n, 0) for n in c.support}


def cmd_validate(args) -> int:
    doc = _load(args.file)
    kind = jsonio.sniff_type(doc)
    issues = []
    try:
        if kind == "complex":
            issues = validate_complex(jsonio.complex_from_json(doc))
        elif kind == "algebra":
            from .algebras import validate_algebra

            issues = validate_algebra(jsonio.algebra_from_json(doc))
        elif kind == "presymplectic":
            p = jsonio.presymplectic_from_json(doc)
            issues = [f"carrier: {m}" for m in validate_complex(p.carrier)] + p.validate()
        elif kind == "surface":
            jsonio.surface_from_json(doc)  # constructor validates
        elif kind == "theory":
            issues = validate_functor(jsonio.theory_from_json(doc))
    except StructuralError as exc:
        # the document parses but describes an invalid object: that is a
        # check failure with a witness, not a parse error
        issues = [str(exc)]
    if issues:
        _emit({"type": kind, "valid": False, "issues": [str(i) for i in issues]}, args.out)
        return 1
    _emit({"type": kind, "valid": True}, args.out)
    return 0


def cmd_homology(args) -> int:
    c = jsonio.complex_from_json(_load(args.file))
    bad = validate_complex(c)
    if bad:
        _emit({"valid": False, "issues": bad}, args.out)
        return 1
    if args.degree is not None:
        _emit({"homology": {str(args.degree): homology_dim(c, args.degree)}}, args.out)
        return 0
    _emit({"homology": _homology_report(c)}, args.out)
    return 0


def cmd_envelope_dims(args) -> int:
    a = jsonio.algebra_from_json(_load(args.algebra))
    env = envelope(a, args.n)
    stages = [_dims_report(env.stage_dims(k)) for k in range(args.n + 1)]
    _emit({"truncation": args.n, "stages": stages}, args.out)
    return 0


def cmd_ccr(args) -> int:
    p = jsonio.presymplectic_from_json(_load(args.file))
    env = ccr(p, args.n)
    dims = env.stage_dims()
    commutators = {}
    k = len(env.gens)
    for i in range(k):
        for j in range(i, k):
            if i == j and env.gen_degree[i] % 2 == 0:
                continue
            value = env.commutator(env.generator(i), env.generator(j))
            commutators[f"[e{i + 1},e{j + 1}]"] = pbw_str(value)
    _emit({
        "truncation": args.n,
        "dim": sum(dims.values()),
        "stage_dims": _dims_report(dims),
        "commutators": commutators,
    }, args.out)
    return 0


def cmd_check_causality(args) -> int:
    ft = jsonio.theory_from_json(_load(args.file))
    issues = validate_functor(ft)
    if issues:
        _emit({"valid": False, "issues": issues}, args.out)
        return 1
    violations = check_causality(ft)
    if violations:
        _emit({"causality": "violated", "violations": [str(v) for v in violations]}, args.out)
        return 1
    pairs = sorted({tuple(sorted(p)) for p in ft.base.orth})
    _emit({"causality": "ok", "orth_pairs": [list(p) for p in pairs]}, args.out)
    return 0


def cmd_quantize(args) -> int:
    ft = jsonio.theory_from_json(_load(args.file))
    violations = check_causality(ft)
    if violations:
        _emit({"causality": "violated", "violations": [str(v) for v in violations]}, args.out)
        return 1
    qft = quantize(ft, args.n)
    objects = {obj: _dims_report(qft.algebra(obj).stage_dims()) for obj in ft.base.objects}
    _emit({"truncation": args.n, "causality": "ok", "stage_dims": objects}, args.out)
    return 0


def cmd_check_w(args) -> int:
    ft = jsonio.theory_from_json(_load(args.file))
    w = [m for m in args.w.split(",") if m]
    if args.n is not None:
        ft = quantize(ft, args.n, check=False)
    reports = check_w_constancy(ft, w, args.mode)
    ok = all(r.ok for r in reports)
    _emit({
        "mode": args.mode,
        "reports": [{"morphism": r.morphism, "ok": r.ok, "witness": r.witness} for r in reports],
    }, args.out)
    return 0 if ok else 1


def cmd_cs(args) -> int:
    surface = jsonio.surface_from_json(_load(args.file))
    if args.cs_verb == "homology":
        _emit(_homology_report(cs_complex(surface)), args.out)
        return 0
    if args.cs_verb == "pairing":
        p = pairing(surface)
        issues = p.validate()
        if issues:
            _emit({"valid": False, "issues": issues}, args.out)
            return 1
        h_pairing = {}
        degrees = sorted(n for n in p.carrier.support if n >= 0)
        for n in degrees:
            dim_a, reps_a = homology(p.carrier, n)
            dim_b, reps_b = homology(p.carrier, -n)
            off_a = p.basis.offsets.get(n, 0)
            off_b = p.basis.offsets.get(-n, 0)
            matrix = []
            for va in reps_a:
                xa = {off_a + i: c for i, c in enumerate(va) if c}
                row = []
                for vb in reps_b:
                    xb = {off_b + i: c for i, c in enumerate(vb) if c}
                    row.append(rat_str(p.pair(xa, xb)))
                matrix.append(row)
            h_pairing[f"{n},{-n}"] = matrix
        _emit({
            "valid": True,
            "presymplectic": jsonio.presymplectic_to_json(p),
            "homology_pairing": h_pairing,
        }, args.out)
        return 0
    if args.cs_verb == "quantize":
        env = ccr(pairing(surface), args.n)
        stage = env.stage_complex()
        _emit({
            "truncation": args.n,
            "stage_dims": _dims_report(stage.dims),
            "homology": _homology_report(stage),
        }, args.out)
        return 0
    raise StructuralError(f"unknown cs subcommand {args.cs_verb!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="opfield",
        description="Exact computer algebra for operadic field theories.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--out", help="also write the report to this path")

    p = sub.add_parser("validate", help="validate a complex/algebra/surface/theory file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="homology dimensions of a complex")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("envelope-dims", help="filtration-stage dimensions of an envelope")
    p.add_argument("--algebra", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_envelope_dims)

    p = sub.add_parser("ccr", help="truncated CCR algebra of a presymplectic complex")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_ccr)

    p = sub.add_parser("check-causality", help="causality axiom check for a theory")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_check_causality)

    p = sub.add_parser("quantize", help="quantize a linear theory at a truncation bound")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("check-w", help="W-constancy check (strict or homotopy)")
    p.add_argument("file")
    p.add_argument("--mode", choices=("strict", "homotopy"), default="strict")
    p.add_argument("--w", required=True, help="comma-separated morphism names")
    p.add_argument("--n", type=int, default=None,
                   help="quantize first and check stagewise at this truncation")
    common(p)
    p.set_defaults(func=cmd_check_w)

    p = sub.add_parser("cs", help="Chern-Simons computations on a surface file")
    p.add_argument("cs_verb", choices=("homology", "pairing", "quantize"))
    p.add_argument("file")
    p.add_argument("--n", type=int, default=2)
    common(p)
    p.set_defaults(func=cmd_cs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StructuralError, TruncationOverflow) as exc:
        sys.stdout.write(jsonio.dumps({"error": str(exc)}))
        return 2
    except AssertionError as exc:
        sys.stdout.write(jsonio.dumps({"internal_error": str(exc)}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
