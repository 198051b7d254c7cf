"""Builtin inclusion families with exactly known index values.

These form the acceptance corpus: the index used by the paving bounds and
the orthonormal-basis bracket is the
squared-multiplicity value (n^2 for scalars inside M_n, d^2 for a tensor
factor M_k ⊗ 1_d ⊆ M_k ⊗ M_d).  Note that for reducible inclusions this is
in general larger than the best constant of the expectation inequality
E_N(x) >= λ x, which `expectation_index_estimate` measures (it equals d * min(k, d)
for the tensor families and n for scalars; the two coincide exactly in the
factor-like regime k >= d).
"""

from __future__ import annotations

import re

import numpy as np

from .algebra import AlgebraShape
from .inclusion import Inclusion, InclusionSpec


def scalars_in(n: int) -> Inclusion:
    """C ⊆ M_n as scalar multiples of the identity."""
    spec = InclusionSpec(
        n_shape=AlgebraShape((1,), (1.0,)),
        m_shape=AlgebraShape.matrix(n),
        inclusion_matrix=((n,),),
    )
    unitaries = [("id", None)]
    return Inclusion(spec, unitaries, known_index=float(n * n),
                     label=f"scalars-in({n})")


def tensor_product(k: int, d: int) -> Inclusion:
    """M_k ⊗ 1_d ⊆ M_k ⊗ M_d; embed(x) = kron(x, 1_d)."""
    spec = InclusionSpec(
        n_shape=AlgebraShape.matrix(k),
        m_shape=AlgebraShape.matrix(k * d),
        inclusion_matrix=((d,),),
    )
    # grouped index (copy c, internal i) -> tensor index (i, c)
    pi = np.empty(k * d, dtype=np.intp)
    for c in range(d):
        for i in range(k):
            pi[c * k + i] = i * d + c
    return Inclusion(spec, [("perm", pi)], known_index=float(d * d),
                     label=f"tensor({k},{d})")


def self_inclusion(dim: int) -> Inclusion:
    """N = M = M_dim; every expectation is the identity or the trace."""
    spec = InclusionSpec(
        n_shape=AlgebraShape.matrix(dim),
        m_shape=AlgebraShape.matrix(dim),
        inclusion_matrix=((1,),),
    )
    return Inclusion(spec, [("id", None)], known_index=1.0, label=f"self({dim})")


_FAMILY_RE = re.compile(r"^\s*([a-zA-Z_-]+)\s*\(\s*([0-9,\s]*)\s*\)\s*$")


def parse_family(text: str) -> Inclusion:
    """Parse builtin family names: tensor(k,d), scalars-in(n), self(d)."""
    m = _FAMILY_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse family {text!r}")
    name = m.group(1).replace("_", "-").lower()
    args = [int(a) for a in m.group(2).split(",") if a.strip()]
    if name in ("scalars-in", "scalars") and len(args) == 1:
        return scalars_in(args[0])
    if name == "tensor" and len(args) == 2:
        return tensor_product(args[0], args[1])
    if name == "self" and len(args) == 1:
        return self_inclusion(args[0])
    raise ValueError(f"unknown family {text!r}")
