"""Unital trace-compatible inclusions N ⊆ M of multi-matrix algebras.

An inclusion is presented by an inclusion matrix Λ with Λ[k][l] copies of
N-block k sitting inside M-block l, plus one embedding per M-block: the
identity, an index permutation, or a dense unitary u (a block x is then read
as u* x u).  `Inclusion` keeps one slab table: for each M-block l and each
N-block k with Λ[k][l] > 0, the (Λ[k][l], n_k) array of rows holding every
copy.  Each map is one gather or one scatter per slab.

The slab table also fixes the basis that centered operators are stored in.
Let Π_l be the row order of M-block l that lists the slabs in N-block order,
copy by copy (the permutation itself for a "perm" embedding, 1 otherwise),
and u_l the dense unitary (1 unless the embedding is "dense").  Frames
F_k of N embed as G_l = u_l Π_l (⊕_k 1_{Λ[k][l]} ⊗ F_k), so in the slab
basis, where `center` stores x − E_{N'∩M}(x) as Π_l* u_l*(x − E)u_l Π_l,
`alg.part_norms` forms G* (x − E) G from the F_k themselves, with n_k rows
per copy instead of m_l.  There E itself is ⊕_k T_k ⊗ 1_{n_k}, one
Λ[k][l] × Λ[k][l] matrix T_k per slab, which is all `center` returns of it;
only `cond_exp_comm` scatters it back to M coordinates.

The trace-preserving conditional expectation onto N is the orthogonal
projection in the trace inner product <a, b> = tau(a* b).  Because the
embedded matrix units of N form an orthogonal family in that inner product,
the projection has a closed structured form (average the diagonal copy
blocks with weights t_l / s_k); the same goes for the expectation onto the
relative commutant N' ∩ M.  Both are therefore applied blockwise in
O(dim M^2) without ever materializing a dim(M)^2-squared operator matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import algebra as alg
from .algebra import (AlgebraShape, AlgebraError, Element,
                      identity, zero, trace, op_norm)
from .seeding import child_rng


class InclusionSpecError(AlgebraError):
    """Inconsistent inclusion data (dimension or trace bookkeeping)."""


def check_multiplicities(n_dims, m_dims, inclusion_matrix) -> tuple:
    """The dimension bookkeeping of an inclusion: Λ has one nonnegative row
    per N-block and one column per M-block, no zero row or column, and each
    M-block is filled exactly, sum_k Λ[k][l] n_k = m_l.  Returns Λ as a
    tuple of int tuples; raises InclusionSpecError otherwise."""
    lam = tuple(tuple(int(v) for v in row) for row in inclusion_matrix)
    nk, ml = len(n_dims), len(m_dims)
    if len(lam) != nk or any(len(row) != ml for row in lam):
        raise InclusionSpecError("inclusion matrix shape does not match block counts")
    if any(v < 0 for row in lam for v in row):
        raise InclusionSpecError("multiplicities must be nonnegative")
    for k in range(nk):
        if all(lam[k][l] == 0 for l in range(ml)):
            raise InclusionSpecError(f"N-block {k} does not embed anywhere (zero row)")
    for l in range(ml):
        if all(lam[k][l] == 0 for k in range(nk)):
            raise InclusionSpecError(f"M-block {l} contains no copy of N (zero column)")
    for l in range(ml):
        filled = sum(lam[k][l] * n_dims[k] for k in range(nk))
        if filled != m_dims[l]:
            raise InclusionSpecError(
                f"M-block {l}: multiplicities fill {filled} of {m_dims[l]} dimensions")
    return lam


@dataclass(frozen=True)
class InclusionSpec:
    """Shapes of N and M plus the multiplicity matrix Λ[k][l]."""

    n_shape: AlgebraShape
    m_shape: AlgebraShape
    inclusion_matrix: tuple

    def __post_init__(self):
        lam = check_multiplicities(self.n_shape.block_dims,
                                   self.m_shape.block_dims, self.inclusion_matrix)
        object.__setattr__(self, "inclusion_matrix", lam)
        nk, ml = self.n_shape.num_blocks, self.m_shape.num_blocks
        for k in range(nk):
            s = sum(lam[k][l] * self.m_shape.trace_weights[l] for l in range(ml))
            if abs(s - self.n_shape.trace_weights[k]) > 1e-12:
                raise InclusionSpecError(
                    f"trace incompatibility on N-block {k}: "
                    f"s_{k} = {self.n_shape.trace_weights[k]!r} but "
                    f"sum_l Lambda[{k}][l] t_l = {s!r}")

    @property
    def is_trivial(self) -> bool:
        """N = M blockwise (identity inclusion matrix)."""
        if self.n_shape.block_dims != self.m_shape.block_dims:
            return False
        nk = self.n_shape.num_blocks
        return all(self.inclusion_matrix[k][l] == (1 if k == l else 0)
                   for k in range(nk) for l in range(nk))


class _Slab(NamedTuple):
    """The Λ[k][l] copies of N-block k in M-block l: index i of copy c sits
    in row ``rows[c, i]``, and ``span`` is the range of those rows in slab
    coordinates."""

    k: int
    rows: np.ndarray
    span: slice


@dataclass
class Inclusion:
    """A realized inclusion: spec + per-M-block embedding unitaries.

    ``embed_unitaries[l]`` is ``("id", None)``, ``("perm", pi)`` with pi the
    grouped-to-presented index map, or ``("dense", u)`` with u unitary.
    """

    spec: InclusionSpec
    embed_unitaries: list
    known_index: float = None
    label: str = ""
    _slabs: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        self._slabs = []
        for l, (kind, u) in enumerate(self.embed_unitaries):
            slabs, start = [], 0
            for k, nk in enumerate(self.n_shape.block_dims):
                mult = self.spec.inclusion_matrix[k][l]
                span = slice(start, start + mult * nk)
                start = span.stop
                if mult == 0:
                    continue
                rows = np.arange(span.start, span.stop).reshape(mult, nk)
                if kind == "perm":
                    rows = u[rows]
                slabs.append(_Slab(k, rows, span))
            self._slabs.append(slabs)

    @property
    def n_shape(self) -> AlgebraShape:
        return self.spec.n_shape

    @property
    def m_shape(self) -> AlgebraShape:
        return self.spec.m_shape

    def _dense(self, l: int):
        """The unitary u of a dense embedding of M-block l, else None.  The
        slab rows index u* x u for a dense block and x itself otherwise."""
        kind, u = self.embed_unitaries[l]
        return u if kind == "dense" else None

    # -- embedding and expectations -------------------------------------------

    def embed(self, x: Element) -> Element:
        """Unital trace-preserving *-homomorphism N -> M."""
        if x.shape != self.n_shape:
            raise alg.ShapeMismatchError("element does not live over N")
        blocks = []
        for l, ml in enumerate(self.m_shape.block_dims):
            y = np.zeros((ml, ml), dtype=np.complex128)
            for s in self._slabs[l]:
                y[s.rows[:, :, None], s.rows[:, None, :]] = x.blocks[s.k]
            u = self._dense(l)
            blocks.append(y if u is None else u @ y @ u.conj().T)
        return Element(self.m_shape, blocks)

    def restrict_to_n(self, x: Element) -> Element:
        """N-coordinates of the expectation E_N(x) (an element of N)."""
        if x.shape != self.m_shape:
            raise alg.ShapeMismatchError("element does not live over M")
        terms = [[] for _ in self.n_shape.block_dims]
        for l, tl in enumerate(self.m_shape.trace_weights):
            u = self._dense(l)
            y = x.blocks[l] if u is None else u.conj().T @ x.blocks[l] @ u
            for s in self._slabs[l]:
                terms[s.k].append(tl * y[s.rows[:, :, None], s.rows[:, None, :]])
        # numpy sums from 0 and, over real pairs, adds the (M-block, copy) terms
        # one by one in table order; over 1 x 1 complex blocks it would pair them
        return Element(self.n_shape, [
            np.concatenate(t).view(np.float64).sum(axis=0).view(np.complex128) / sk
            for t, sk in zip(terms, self.n_shape.trace_weights)])

    def cond_exp_n(self, x: Element) -> Element:
        """E_N(x) as an element of M (image inside the embedded copy of N)."""
        return self.embed(self.restrict_to_n(x))

    def center(self, x: Element, slabs: list = None) -> tuple:
        """(parts, slabs) for E = E_{N' ∩ M}(x), the normalized partial trace
        over each copy grid, held in slab coordinates (see the module
        docstring).  Per M-block l, y = Π_l* u_l* x u_l Π_l is written into
        `slabs[l]`, an m_l × m_l array such as a row of a problem's slab
        stack (new arrays when `slabs` is None), and `parts[l]` lists, slab
        by slab, the Λ[k][l] × Λ[k][l] matrix T with T[c, c'] the normalized
        trace of copy block (c, c'), so that E = ⊕_k T ⊗ 1_{n_k} there.  T ⊗ 1
        is subtracted from y in place, on the diagonals of the copy blocks
        alone, which leaves Π_l* u_l* (x − E) u_l Π_l in `slabs[l]`."""
        if x.shape != self.m_shape:
            raise alg.ShapeMismatchError("element does not live over M")
        if slabs is None:
            slabs = [np.empty((d, d), dtype=np.complex128) for d in self.m_shape.block_dims]
        parts = []
        for l, ((kind, u), y) in enumerate(zip(self.embed_unitaries, slabs)):
            b = x.blocks[l]
            if kind == "perm":
                y[...] = b[np.ix_(u, u)]
            elif kind == "dense":
                np.matmul(u.conj().T @ b, u, out=y)
            else:
                y[...] = b
            ts = []
            for s in self._slabs[l]:
                mult, nk = s.rows.shape
                y4 = y[s.span, s.span].reshape(mult, nk, mult, nk)  # a view: axes only split
                # a contiguous copy of the diagonals sums as np.trace of each block
                tr = y4.diagonal(axis1=1, axis2=3).copy().sum(-1) / nk
                diag = np.arange(nk)
                y4[:, diag, :, diag] -= tr
                ts.append(tr)
            parts.append(ts)
        return parts, slabs

    def cond_exp_comm(self, x: Element) -> Element:
        """E_{N' ∩ M}(x) in M coordinates: ⊕_k T ⊗ 1_{n_k} of `center`,
        scattered back from slab coordinates."""
        parts, slabs = self.center(x)
        blocks = []
        for l, ((kind, u), y, ts) in enumerate(zip(self.embed_unitaries, slabs, parts)):
            z = np.zeros_like(y)
            for s, tr in zip(self._slabs[l], ts):
                mult, nk = s.rows.shape
                z4 = z[s.span, s.span].reshape(mult, nk, mult, nk)
                np.multiply(tr[:, None, :, None], np.eye(nk)[:, None, :], out=z4)
            if kind == "perm":
                e = np.empty_like(z)
                e[np.ix_(u, u)] = z
            elif kind == "dense":
                e = u @ z @ u.conj().T
            else:
                e = z
            blocks.append(e)
        return Element(self.m_shape, blocks)

    def slab_layout(self, l: int) -> tuple:
        """The slabs of M-block l in slab order, as a tuple of (N-block,
        copies) pairs: the `copies` key of `algebra.part_layout`."""
        return tuple((s.k, len(s.rows)) for s in self._slabs[l])


def commutant_norm(parts: list, shift=0.0) -> float:
    """‖E − shift·1‖ for E = E_{N' ∩ M}(x) given by the per-slab matrices T
    of `Inclusion.center`: in slab coordinates E − shift·1 is
    ⊕ (T − shift·1) ⊗ 1, so this is the largest ‖T − shift·1‖."""
    return max(float(alg.top_singular_values(t - shift * np.eye(len(t))))
               for ts in parts for t in ts)


def build_inclusion(spec: InclusionSpec, seed=0) -> Inclusion:
    """Realize a spec with one seeded Haar embedding per M-block."""
    return Inclusion(spec, [("dense", alg.haar_block(child_rng(seed, l), ml))
                            for l, ml in enumerate(spec.m_shape.block_dims)])


# -- index estimation ---------------------------------------------------------

@dataclass
class IndexEstimate:
    lambda_est: float
    index_est: float
    trials: int
    best_trial: int
    seed: int
    regularized: int


def expectation_index_estimate(inc: Inclusion, trials: int, seed: int) -> IndexEstimate:
    """Monte-Carlo estimate of the best constant in E_N(x) >= lambda x.

    For each sampled positive x the largest admissible constant is the
    smallest eigenvalue of x^{-1/2} E_N(x) x^{-1/2}; the estimate is the
    minimum over samples, so the derived index 1/lambda converges to the
    true probabilistic index from below as trials grow.  Low-rank samples
    (regularized as recorded) dominate the minimization, and for product
    inclusions a single generic rank-one sample is already extremal.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    best, best_t, regularized = np.inf, 0, 0
    for t in range(trials):
        rng = child_rng(seed, t)
        blocks = []
        for d in inc.m_shape.block_dims:
            r = int(rng.integers(1, d + 1))
            g = (rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r)))
            blocks.append(g @ g.conj().T)
        x = Element(inc.m_shape, blocks)
        x = (1.0 / op_norm(x)) * x
        reg = False
        for bk in x.blocks:
            if np.linalg.eigvalsh(bk)[0] < 1e-12:
                reg = True
        if reg:
            regularized += 1
            x = x + 1e-10 * identity(inc.m_shape)
        ex = inc.cond_exp_n(x)
        c = np.inf
        for xb, eb in zip(x.blocks, ex.blocks):
            w, v = np.linalg.eigh(xb)
            w = np.clip(w, 1e-300, None)
            inv_half = (v * w ** -0.5) @ v.conj().T
            a = inv_half @ eb @ inv_half
            c = min(c, float(np.linalg.eigvalsh((a + a.conj().T) / 2)[0]))
        if c < best:
            best, best_t = c, t
    return IndexEstimate(lambda_est=best, index_est=1.0 / best, trials=trials,
                         best_trial=best_t, seed=seed, regularized=regularized)


def expectation_inequality_margin(inc: Inclusion, index: float, x: Element) -> float:
    """Smallest eigenvalue of index * E_N(x) - x; >= -1e-9 whenever index
    dominates the true index of the inclusion."""
    gap = index * inc.cond_exp_n(x) - x
    return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) for b in gap.blocks)


def expectation_support_bound(inc: Inclusion, q: Element, index: float):
    """(tau of the support of E_N(q), index * tau(q)) for a projection q.

    The support of h = E_N(q) keeps the eigenvalues above `alg.RANK_CUT`
    times ‖h‖, so its trace is Σ_k s_k times their count in N-block k, from
    one eigvalsh per block.  The finiteness of the inclusion forces
    lhs <= rhs up to that rank cut.  Raises AlgebraError unless h is
    Hermitian within TOL_PROJ and positive semidefinite.
    """
    h = inc.restrict_to_n(q)
    if alg.hermitian_part_residual(h) > alg.TOL_PROJ:
        raise AlgebraError("input is not Hermitian within tolerance")
    vals = [np.linalg.eigvalsh((b + b.conj().T) / 2.0) for b in h.blocks]
    norm = max(float(np.abs(w).max()) for w in vals)
    if any(w[0] < -alg.RANK_CUT * max(norm, 1.0) for w in vals):
        raise AlgebraError("input is not positive semidefinite")
    tau_s = sum(s * int(np.count_nonzero(w > alg.RANK_CUT * norm))
                for s, w in zip(inc.n_shape.trace_weights, vals))
    return float(tau_s), float(index * trace(q).real)


# -- orthonormal bases over N --------------------------------------------------

@dataclass
class OrthonormalBasis:
    """Elements m_1..m_J of M with E_N(m_i* m_j) = δ_ij f_j, f_j a projection
    of N, and sum_j m_j E_N(m_j* x) = x for every x in M (a Pimsner–Popa
    basis of M over N).  m_1 = 1 is not promised; self(d) gives [1]."""

    elements: list


def expansion_residual(inc: Inclusion, basis: list, probes: list) -> float:
    """Largest relative error of the expansion x = sum_j m_j E_N(m_j* x)
    over the probe elements x."""
    worst = 0.0
    for x in probes:
        acc = zero(inc.m_shape)
        for m in basis:
            acc = acc + m @ inc.cond_exp_n(m.adjoint() @ x)
        worst = max(worst, op_norm(acc - x) / max(op_norm(x), 1e-30))
    return worst


def orthonormal_basis(inc: Inclusion) -> OrthonormalBasis:
    """A Pimsner–Popa basis read off the slab table.

    In M-block l, let ι_a be the isometry onto copy a = (k, c) of N-block k.
    For each source copy a = (k, c), target copy a' = (k', c') and chunk
    j < ⌈n_k' / n_k⌉, the element is sqrt(s_k / t_l) ι_a' Y_j ι_a*, where
    Y_j maps e_i to e_(j n_k + i) for i < min(n_k, n_k' − j n_k).  Then
    E_N(m* m) is the projection onto those i in N-block k, distinct
    elements have E_N(m_i* m_j) = 0, and sum_j Y_j Y_j* = 1 gives the
    expansion identity.  A dense block is conjugated by its u.
    """
    elements = []
    for l, (ml, tl) in enumerate(zip(inc.m_shape.block_dims, inc.m_shape.trace_weights)):
        u = inc._dense(l)
        copies = [(s.k, rows) for s in inc._slabs[l] for rows in s.rows]
        for k, src in copies:
            nk = len(src)
            scale = math.sqrt(inc.n_shape.trace_weights[k] / tl)
            for _, dst in copies:
                for j in range(0, len(dst), nk):
                    chunk = dst[j:j + nk]
                    y = np.zeros((ml, ml), dtype=np.complex128)
                    y[chunk, src[:len(chunk)]] = scale
                    m = zero(inc.m_shape)
                    m.blocks[l] = y if u is None else u @ y @ u.conj().T
                    elements.append(m)
    return OrthonormalBasis(elements)


def basis_frame_sum(basis: OrthonormalBasis) -> Element:
    """sum_j m_j* m_j, whose norm upper-bounds the basis-size invariant."""
    acc = zero(basis.elements[0].shape)
    for m in basis.elements:
        acc = acc + m.adjoint() @ m
    return acc


def d_ob(inc: Inclusion, basis: OrthonormalBasis = None) -> float:
    """‖sum_j m_j* m_j‖ for the constructed orthonormal basis.

    For `orthonormal_basis` the sum is diagonal in each copy, so the norm
    has the closed value max over (l, k) with Λ[k][l] > 0 of
    (s_k / t_l) sum_k' Λ[k'][l] ⌈n_k' / n_k⌉; this recomputes it.
    """
    if basis is None:
        basis = orthonormal_basis(inc)
    return op_norm(basis_frame_sum(basis))


def d_ob_interval(index: float):
    """[index, 1 + index (ceil(index) - 1)]: the bracket for the infimum."""
    return float(index), 1.0 + index * (math.ceil(index) - 1.0)
