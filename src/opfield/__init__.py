"""Exact-rational computer algebra for operadic field theories.

Subpackages cover sparse rational linear algebra (:mod:`opfield.exact`),
chain complexes (:mod:`opfield.complexes`), presented operads and their
structure tensors (:mod:`opfield.operads`), structure-constant dg algebras
(:mod:`opfield.algebras`), truncated enveloping / CCR algebras
(:mod:`opfield.envelope`), field theories on finite orthogonal categories
(:mod:`opfield.fieldtheory`) and combinatorial Chern-Simons theory on
triangulated surfaces (:mod:`opfield.cherns`).
"""

__version__ = "0.1.0"
