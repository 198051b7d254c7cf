"""Multi-matrix *-algebra arithmetic with a faithful normalized trace.

An algebra here is a finite direct sum of complex matrix blocks
``M_{n_1} + ... + M_{n_B}`` carrying the trace ``tau(x) = sum_k t_k Tr(x_k)``
where ``t_k`` is the trace of a minimal projection of block ``k`` and
``sum_k t_k n_k = 1``.  This is the desk-scale stand-in for a tracial von
Neumann algebra: everything downstream (inclusions, conditional expectations,
paving partitions) is built on the operations in this module.

All spectral operations go through dense Hermitian eigendecompositions.
Dense projections are re-symmetrized frame outer products F F*, so they
stay exact idempotents instead of drifting through pipeline stages.
Tolerances:

* ``TOL_PROJ`` (1e-8): algebraic identity checks (projections, unitarity,
  the frame residual ‖U* U - 1‖ of a partition of unity).
* ``TIE_TOL`` (1e-12): eigenvalue tie margin; the constructive pipeline
  keeps an eigenvector whose eigenvalue is at least θ − TIE_TOL.
* ``CEIL_GUARD`` (1e-12): relative rounding guard of `ceil_guarded`, which
  rounds up the closed-form sizes and the pinching floor.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .seeding import child_rng

TOL_PROJ = 1e-8
TIE_TOL = 1e-12
CEIL_GUARD = 1e-12
RANK_CUT = 1e-9  # a support keeps the eigenvalues above RANK_CUT * the top one
# entries kept by the per-process memos of shape-only index plans: `slot_order`
# holds d ints per block, a `part_layout` about m ints per M-block
SLOT_ORDER_CACHE = 64
LAYOUT_CACHE = 256
# `_projection_ranks` tries every rank tuple up to this many
EXHAUSTIVE_RANKS = 200_000

SELFADJOINT = "selfadjoint-trace-zero-contraction"
POSITIVE = "positive-contraction"
PROJECTION = "projection"


class AlgebraError(ValueError):
    """Malformed element or invalid operand."""


class ShapeMismatchError(AlgebraError):
    """Operands live over different algebra shapes."""


class InfeasibleTraceError(AlgebraError):
    """Requested projection trace is not a sum of block weights times ranks."""

    def __init__(self, requested, nearest):
        self.requested = requested
        self.nearest = nearest
        super().__init__(
            f"trace {requested} is not realizable by integer ranks; "
            f"nearest realizable value is {nearest}"
        )


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions and minimal-projection trace weights of the algebra."""

    block_dims: tuple[int, ...]
    trace_weights: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        weights = tuple(float(t) for t in self.trace_weights)
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "trace_weights", weights)
        if len(dims) != len(weights) or not dims:
            raise AlgebraError("block_dims and trace_weights must be equal-length, nonempty")
        if any(d < 1 for d in dims):
            raise AlgebraError("block dimensions must be >= 1")
        if any(t <= 0 for t in weights):
            raise AlgebraError("trace weights must be positive")
        total = sum(t * d for t, d in zip(weights, dims))
        if abs(total - 1.0) > 1e-12:
            raise AlgebraError(f"trace not normalized: sum t_k * n_k = {total!r}")

    @classmethod
    def matrix(cls, dim: int) -> "AlgebraShape":
        """Single full matrix block with the uniform normalized trace."""
        return cls((dim,), (1.0 / dim,))

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)


@dataclass
class Element:
    """One algebra element: a list of complex matrix blocks over a shape."""

    shape: AlgebraShape
    blocks: list

    def __post_init__(self):
        blocks = [np.ascontiguousarray(b, dtype=np.complex128) for b in self.blocks]
        if len(blocks) != self.shape.num_blocks:
            raise AlgebraError("block count does not match shape")
        for b, d in zip(blocks, self.shape.block_dims):
            if b.shape != (d, d):
                raise AlgebraError(f"block of shape {b.shape}, expected {(d, d)}")
        self.blocks = blocks

    def copy(self) -> "Element":
        return Element(self.shape, [b.copy() for b in self.blocks])

    def _check(self, other: "Element"):
        if self.shape != other.shape:
            raise ShapeMismatchError("elements live over different shapes")

    def __add__(self, other):
        self._check(other)
        return Element(self.shape, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check(other)
        return Element(self.shape, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return Element(self.shape, [-b for b in self.blocks])

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return Element(self.shape, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        return Element(self.shape, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def adjoint(self) -> "Element":
        return Element(self.shape, [b.conj().T for b in self.blocks])


def identity(shape: AlgebraShape) -> Element:
    return Element(shape, [np.eye(d, dtype=np.complex128) for d in shape.block_dims])


def zero(shape: AlgebraShape) -> Element:
    return Element(shape, [np.zeros((d, d), dtype=np.complex128) for d in shape.block_dims])


def trace(x: Element) -> complex:
    """tau(x) = sum_k t_k Tr(x_k); linear, tau(1) = 1."""
    return sum(t * np.trace(b) for t, b in zip(x.shape.trace_weights, x.blocks))


def _require_finite(x: Element):
    for b in x.blocks:
        if not np.all(np.isfinite(b.view(np.float64))):
            raise AlgebraError("non-finite entries")


def op_norm(x: Element) -> float:
    """Largest singular value across blocks, via eigendecomposition of x*x."""
    _require_finite(x)
    worst = 0.0
    for b in x.blocks:
        if b.size == 0:
            continue
        w = np.linalg.eigvalsh(b.conj().T @ b)
        worst = max(worst, math.sqrt(max(w[-1], 0.0)))
    return worst


def hermitian_part_residual(x: Element) -> float:
    return max(float(np.linalg.norm(b - b.conj().T)) for b in x.blocks)


def unitary_residual(u: Element) -> float:
    """max_k ‖u_k u_k* - 1‖ in Frobenius norm; NaN if any block holds one."""
    return float(np.max([np.linalg.norm(b @ b.conj().T - np.eye(len(b)))
                         for b in u.blocks]))


def frame_projection(shape: AlgebraShape, frames: list) -> Element:
    """Dense projection F F* from per-block orthonormal column frames F."""
    blocks = []
    for d, f in zip(shape.block_dims, frames):
        f = np.asarray(f, dtype=np.complex128).reshape(d, -1)
        p = f @ f.conj().T
        blocks.append((p + p.conj().T) / 2.0)
    return Element(shape, blocks)


def haar_block(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One Haar unitary: QR of a complex Ginibre matrix with R-phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_haar_unitary(shape: AlgebraShape, seed) -> Element:
    """Blockwise Haar unitary; deterministic for a fixed seed."""
    rng = child_rng(seed)
    return Element(shape, [haar_block(rng, d) for d in shape.block_dims])


def _projection_ranks(shape: AlgebraShape, theta: float):
    """Integer block ranks whose weighted sum best matches theta.

    Exhaustive over every rank tuple, first minimum in lexicographic order,
    when there are at most EXHAUSTIVE_RANKS of them; greedy + local repair
    otherwise.
    """
    dims, weights = shape.block_dims, shape.trace_weights
    def err(rs):
        return abs(sum(t * r for t, r in zip(weights, rs)) - theta)
    if math.prod(d + 1 for d in dims) <= EXHAUSTIVE_RANKS:
        best = min(itertools.product(*(range(d + 1) for d in dims)), key=err)
        return best, err(best)
    ranks = [min(d, max(0, round(theta * d))) for d in dims]  # coarse start
    improved = True
    while improved:
        improved = False
        for k in range(len(dims)):
            for step in (-1, 1):
                trial = list(ranks)
                trial[k] += step
                if 0 <= trial[k] <= dims[k] and err(trial) < err(ranks):
                    ranks = trial
                    improved = True
    return tuple(ranks), err(ranks)


def random_element(shape: AlgebraShape, kind: str, seed, theta: float = None) -> Element:
    """Seeded random element of a named class.

    Kinds: ``selfadjoint-trace-zero-contraction`` (Haar-rotated centered
    spectrum in [-1, 1]), ``positive-contraction`` (Haar-rotated spectrum in
    [0, 1]), ``projection`` of trace ``theta`` (Haar-rotated coordinate
    projection with block ranks realizing theta).
    """
    rng = child_rng(seed)
    if kind == PROJECTION:
        if theta is None:
            raise AlgebraError("projection kind needs a target trace theta")
        ranks, err = _projection_ranks(shape, float(theta))
        granularity = 1.0 / max(shape.block_dims)
        if err > min(1e-9, 0.5 * granularity):
            nearest = sum(t * r for t, r in zip(shape.trace_weights, ranks))
            raise InfeasibleTraceError(theta, nearest)
        frames = []
        for d, r in zip(shape.block_dims, ranks):
            u = haar_block(rng, d)
            frames.append(u[:, :r])
        return frame_projection(shape, frames)

    if kind == SELFADJOINT:
        spectra = [rng.uniform(-1.0, 1.0, d) for d in shape.block_dims]
        mean = sum(t * s.sum() for t, s in zip(shape.trace_weights, spectra))
        spectra = [s - mean for s in spectra]
        top = max(np.abs(s).max() for s in spectra)
        if top > 1.0:
            spectra = [s / top for s in spectra]
    elif kind == POSITIVE:
        spectra = [rng.uniform(0.0, 1.0, d) for d in shape.block_dims]
    else:
        raise AlgebraError(f"unknown random element kind {kind!r}")
    blocks = []
    for d, s in zip(shape.block_dims, spectra):
        u = haar_block(rng, d)
        b = (u * s) @ u.conj().T
        blocks.append((b + b.conj().T) / 2.0)
    return Element(shape, blocks)


@dataclass(frozen=True, eq=False)
class PartitionOfUnity:
    """Mutually orthogonal projections p_1..p_r summing to 1, held as frames.

    ``stacks[k]`` is a d_k x d_k matrix whose columns are the orthonormal
    frame of part 0 in block k, then the frame of part 1, and so on;
    ``ranks[k][i]`` is the column count of part i in block k, so that
    p_i = F_i F_i* blockwise.  The stacks are kept as read-only contiguous
    copies.  One check, max_k ‖U_k* U_k - 1‖, proves idempotency,
    orthogonality and completeness of the parts together.
    """

    shape: AlgebraShape
    stacks: tuple
    ranks: tuple

    def __post_init__(self):
        dims = self.shape.block_dims
        if len(self.stacks) != len(dims) or len(self.ranks) != len(dims):
            raise AlgebraError("need one frame stack and one rank list per block")
        stacks, ranks = [], []
        for d, u, rk in zip(dims, self.stacks, self.ranks):
            u = np.array(u, dtype=np.complex128, order="C")
            u.flags.writeable = False
            rk = tuple(int(c) for c in rk)
            if u.shape != (d, d) or min(rk, default=-1) < 0 or sum(rk) != d:
                raise AlgebraError(f"frame stack of shape {u.shape} with ranks {rk} "
                                   f"does not split a block of dimension {d}")
            stacks.append(u)
            ranks.append(rk)
        if len({len(rk) for rk in ranks}) != 1:
            raise AlgebraError("blocks disagree on the number of parts")
        object.__setattr__(self, "stacks", tuple(stacks))
        object.__setattr__(self, "ranks", tuple(ranks))

    @classmethod
    def from_frames(cls, shape: AlgebraShape, frames) -> "PartitionOfUnity":
        """From per-part lists of per-block orthonormal column frames."""
        if not frames:
            raise AlgebraError("empty partition")
        cols = [[np.asarray(fr[k], dtype=np.complex128).reshape(d, -1) for fr in frames]
                for k, d in enumerate(shape.block_dims)]
        return cls(shape, [np.concatenate(c, axis=1) for c in cols],
                   [[f.shape[1] for f in c] for c in cols])

    @property
    def size(self) -> int:
        return len(self.ranks[0])

    def frames(self) -> list:
        """Per part, per block: the column frame F_i with p_i = F_i F_i*."""
        offsets = [np.cumsum((0,) + rk) for rk in self.ranks]
        return [[u[:, off[i]:off[i + 1]] for u, off in zip(self.stacks, offsets)]
                for i in range(self.size)]

    def residual(self) -> float:
        """max_k ‖U_k* U_k - 1‖ in Frobenius norm; NaN if any block holds one."""
        return float(np.max([np.linalg.norm(u.conj().T @ u - np.eye(len(u)))
                             for u in self.stacks]))


def ceil_guarded(value: float) -> int:
    """⌈value⌉ of a computed value that is an integer up to rounding:
    ⌈value − CEIL_GUARD·max(1, |value|)⌉, so one ulp above gains nothing."""
    return math.ceil(value - CEIL_GUARD * max(1.0, abs(value)))


def balanced_sizes(total: int, parts: int):
    """Sizes differing by at most one, larger parts first."""
    q, rem = divmod(total, parts)
    return [q + 1 if i < rem else q for i in range(parts)]


def balanced_slot_partition(shape: AlgebraShape, r: int):
    """Assign the diagonal slots of every block to r near-equal-trace groups.

    Returns per-part lists of (block, slot) pairs.  Slots are dealt in block
    order to the currently lightest part, which keeps traces within one slot
    weight of each other.  Raises if r exceeds the number of slots.
    """
    slots = [(k, i) for k, d in enumerate(shape.block_dims) for i in range(d)]
    if r > len(slots):
        raise AlgebraError(f"cannot split {len(slots)} slots into {r} nonzero parts")
    loads = [0.0] * r
    parts = [[] for _ in range(r)]
    for k, i in slots:
        j = min(range(r), key=loads.__getitem__)  # the first lightest part
        parts[j].append((k, i))
        loads[j] += shape.trace_weights[k]
    return parts


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only: a memoised plan is shared by every caller."""
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=SLOT_ORDER_CACHE)
def slot_order(shape: AlgebraShape, r: int):
    """(orders, ranks) of `balanced_slot_partition`: per block k, the slots
    of block k in part order (a read-only index array) and the slot count of
    each part, as tuples.  Built once per process for each (shape, r)."""
    parts = balanced_slot_partition(shape, r)
    slots = [[[i for blk, i in part if blk == k] for part in parts]
             for k in range(shape.num_blocks)]
    return (tuple(_frozen(np.array([i for p in s for i in p], dtype=int)) for s in slots),
            tuple(tuple(map(len, s)) for s in slots))


def coordinate_partition(shape: AlgebraShape, r: int, unitary: Element = None) -> PartitionOfUnity:
    """Partition of unity from balanced diagonal slot groups, optionally rotated:
    the columns of `unitary` (or of 1) reordered by part."""
    orders, ranks = slot_order(shape, r)
    u = identity(shape) if unitary is None else unitary
    return PartitionOfUnity(shape, [b[:, o] for b, o in zip(u.blocks, orders)], ranks)


@dataclass
class CyclicUnitary:
    """Unitary v of finite order n: v^n = 1."""

    v: Element
    order: int


class PartLayout(NamedTuple):
    """Where the part-diagonal blocks of G* y G sit, for G = ⊕_slab 1_mult ⊗ F_k
    in the slab coordinates of one M-block (see `part_layout`).

    ``copies`` lists the slabs as (N-block k, mult) pairs and ``size`` is
    the number of parts.  Each batch holds parts with the same column count
    in every slab: ``sel`` lists them, ``idx`` (batch, s) the columns of
    y G that belong to each part, by (slab, copy, column), and ``cols``
    gives per slab the columns of F_k that each part takes, or None where
    it takes none.  The index arrays are read-only.
    """

    copies: tuple
    size: int
    batches: tuple


@functools.lru_cache(maxsize=LAYOUT_CACHE)
def part_layout(ranks: tuple, copies: tuple) -> PartLayout:
    """The layout of every part when the columns of F_k run part by part,
    ``ranks[k][i]`` of them for part i (`PartitionOfUnity.ranks`), and one
    M-block holds the slabs `copies`, ((k, mult), ...) in slab order
    (`Inclusion.slab_layout`).  Both arguments are tuples: the layout
    depends on them alone, so it is built once per process for each pair
    and reused while the frame values change."""
    starts, firsts, base = [], [], 0
    for k, mult in copies:
        w = sum(ranks[k])
        starts.append(np.cumsum((0,) + ranks[k])[:-1])
        firsts.append(base + w * np.arange(mult)[:, None])  # first column of each copy
        base += mult * w
    grouped = {}
    for i, key in enumerate(zip(*(ranks[k] for k, _ in copies))):
        grouped.setdefault(key, []).append(i)
    batches = []
    for key in sorted(grouped):
        if not any(key):
            continue
        sel = np.array(grouped[key])
        cols, idx = [], []
        for (k, mult), start, first, w in zip(copies, starts, firsts, key):
            cols.append(_frozen(start[sel, None] + np.arange(w)) if w else None)
            if w:
                idx.append((first + cols[-1][:, None, :]).reshape(len(sel), mult * w))
        batches.append((_frozen(sel),
                        _frozen(idx[0] if len(idx) == 1 else np.concatenate(idx, axis=1)),
                        tuple(cols)))
    return PartLayout(copies, len(ranks[0]), tuple(batches))


def _slab_products(frames: list, copies: tuple, ys: np.ndarray):
    """(z, rows): z = y G for G = ⊕_slab 1_mult ⊗ F_k and a (count, m, m)
    stack y in slab coordinates, as a (count, m, S) array whose columns run
    by (slab, copy, column of F_k), and per slab the slice of y's rows (and
    columns) that it spans.  Per slab, y (1 ⊗ F_k) is one GEMM with n_k
    inner rows, the rows of every y and copy stacked."""
    count, m = len(ys), ys.shape[-1]
    zs, rows, row = [], [], 0
    for k, mult in copies:
        n, c = frames[k].shape
        zs.append((ys[:, :, row:row + mult * n].reshape(-1, n) @ frames[k])
                  .reshape(count, m, mult * c))
        rows.append(slice(row, row + mult * n))
        row += mult * n
    return (zs[0] if len(zs) == 1 else np.concatenate(zs, axis=2)), rows


def part_blocks(frames: list, layout: PartLayout, ys: np.ndarray):
    """The part-diagonal blocks G_i* y G_i of a stack of y given in slab
    coordinates, for G = ⊕_slab 1_mult ⊗ F_k: one (count, batch, s, s)
    array per batch of `layout`, in its order.

    `frames[k]` holds the columns of N-block k sorted by part, laid out as
    `layout` says, and `ys` is a (count, m, m) stack.  Given z = y G
    (`_slab_products`), per batch of equal-shaped parts the columns of z
    are gathered by (part, copy) position and each slab's rows meet F_k* of
    the same part, giving the blocks B = G_i* (y G_i)."""
    count = len(ys)
    z, rows = _slab_products(frames, layout.copies, ys)
    for sel, idx, cols in layout.batches:
        zc = z[:, :, idx]                                     # (count, m, batch, s)
        blocks = []
        for (k, mult), span, c in zip(layout.copies, rows, cols):
            if c is not None:
                f = frames[k][:, c].conj().transpose(1, 2, 0)[:, None]  # (batch, 1, w, n)
                zr = zc[:, span].reshape(count, mult, -1, len(sel), idx.shape[1])
                # (batch, 1, w, n) @ (count, batch, mult, n, s) -> (count, batch, mult, w, s)
                blocks.append((f @ zr.transpose(0, 3, 1, 2, 4))
                              .reshape(count, len(sel), -1, idx.shape[1]))
        yield blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=2)


def part_norms(frames: list, layout: PartLayout, ys: np.ndarray):
    """Norms of the part-diagonal blocks B = G_i* y G_i of `part_blocks`.

    One eigvalsh of B* B gives ‖B‖² as its largest eigenvalue and ‖B‖_F² as
    its sum.  Returns the (count, layout.size) operator norms
    ‖G_i* y G_i‖ and, per y, the squared Frobenius norm summed over those
    blocks.  For unitary F_k these are ‖Σ_i p_i y p_i‖ = max_i ‖G_i* y G_i‖
    and ‖Σ_i p_i y p_i‖_F².  `verify` and the restarts of `pave_search` read
    the pinch of x − E off it, and the constructive pipeline the pinches of
    its stage diagnostics, in corner coordinates."""
    norms = np.zeros((len(ys), layout.size))
    fro = np.zeros(len(ys))
    for (sel, _, _), b in zip(layout.batches, part_blocks(frames, layout, ys)):
        w = np.linalg.eigvalsh(b.conj().swapaxes(-1, -2) @ b)
        norms[:, sel] = np.sqrt(np.maximum(w[..., -1], 0.0))
        fro += w.sum(axis=(1, 2))  # ‖B‖_F² = tr B* B
    return norms, fro


def compression(frames: list, copies: tuple, ys: np.ndarray) -> np.ndarray:
    """W = G* y G for G = ⊕_slab 1_mult ⊗ F_k and a (count, m, m) stack y in
    slab coordinates, with the slabs `copies` ((k, mult), ...) of one
    M-block (`Inclusion.slab_layout`): the one slab-coordinate compression.

    The rows and columns of the (count, S, S) result run by (slab, copy,
    column of F_k).  Given z = y G (`_slab_products`), W is one GEMM per
    slab, count·S²·n in all: it suits a few columns (a search move, an
    outer part of the pipeline) or the square frames U_k*, which give
    W = V y V* for V = ⊕ 1 ⊗ U_k (a term of a unitary average)."""
    count = len(ys)
    z, rows = _slab_products(frames, copies, ys)
    s = z.shape[2]
    ws = []
    for (k, mult), span in zip(copies, rows):
        n, c = frames[k].shape
        ws.append((frames[k].conj().T @ z[:, span].reshape(count, mult, n, s))
                  .reshape(count, mult * c, s))
    return ws[0] if len(ws) == 1 else np.concatenate(ws, axis=1)


def top_singular_values(b: np.ndarray) -> np.ndarray:
    """‖b‖ for each matrix of a stack: the square root of the largest
    eigenvalue of b* b, by one batched eigvalsh."""
    e = np.linalg.eigvalsh(b.conj().swapaxes(-1, -2) @ b)
    return np.sqrt(np.maximum(e[..., -1], 0.0))


def pair_norms(frames: list, layout: PartLayout, ys: np.ndarray):
    """The (count, layout.size) operator norms ‖G_i* y G_i‖ of `part_norms`,
    read off the full compression W = G* y G of the columns in `frames`
    (`compression`).

    The rows of W run by (slab, copy, column), as its columns do, so the
    ``idx`` arrays of `layout` gather each part's diagonal block of W, in
    place of `part_blocks`'s gathers and products per batch and slab.  This
    suits the two parts a move of `pave_search` scores."""
    w = compression(frames, layout.copies, ys)
    norms = np.zeros((len(ys), layout.size))
    for sel, idx, _ in layout.batches:
        norms[:, sel] = top_singular_values(w[:, idx[:, :, None], idx[:, None, :]])
    return norms
