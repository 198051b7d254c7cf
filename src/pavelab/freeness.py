"""Random-matrix validation of the Kesten-type pinching bound.

A period-n unitary with vanishing power traces that is free from a trace-zero
self-adjoint contraction x pinches x down to operator norm 2 sqrt(n-1)/n.
Exact freeness only exists in the limit; here both elements are independently
Haar-rotated in M_dim, which is asymptotically free, and the acceptance
contract allows a fixed slack (0.05 at dim 512) for the finite-dimension
defect.

The trial sampler uses the extremal spectrum for x (balanced +/-1 signs, one
0 when dim is odd), so the pinched norms approach the bound from below
instead of sitting far under it: the experiment actually probes the constant.

By Haar invariance only the relative position of the two elements matters,
so a trial fixes v = diag(roots) and draws x = Q diag(w) Q* - 1 from one
dim x k Haar isometry Q, k = ceil(dim/2), with w = (2, ..., 2) and a last
weight 1 when dim is odd (x = 2 P + e - 1, e the rank-one projection onto
the 0 eigenvector).  Pinching by the spectral partition of v keeps the
diagonal blocks Q_g diag(w) Q_g* - 1 over the n row groups of Q: for even
dim these are 2 Q_g Q_g* - 1, the diagonal blocks of a random rank-dim/2
projection, a Jacobi (MANOVA) ensemble (Collins 2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from .algebra import AlgebraShape, Element
from .seeding import child_rng

DEFAULT_SLACK = 0.05


@dataclass(frozen=True)
class KestenExperiment:
    n: int
    dim: int
    trials: int
    seed: int
    slack: float = DEFAULT_SLACK

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("degenerate pinching: the experiment requires n >= 2 "
                             "(at n = 1 the partition is {1} and nothing shrinks)")
        if self.dim < self.n:
            raise ValueError(f"dim {self.dim} is smaller than n = {self.n}: "
                             "every row group needs at least one row")
        if self.dim % self.n != 0:
            raise ValueError(f"dim {self.dim} is not a multiple of n = {self.n}")
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass
class KestenResult:
    experiment: KestenExperiment
    norms: np.ndarray
    bound: float
    max_norm: float = field(init=False)
    mean_norm: float = field(init=False)
    exceedances: int = field(init=False)

    def __post_init__(self):
        self.norms = np.asarray(self.norms, dtype=float)
        self.max_norm = float(self.norms.max())
        self.mean_norm = float(self.norms.mean())
        tol = self.bound + self.experiment.slack
        self.exceedances = int(np.sum(self.norms > tol))


def kesten_bound(n: int) -> float:
    """2 sqrt(n-1)/n: the free pinched-norm constant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * math.sqrt(n - 1) / n


def _sign_spectrum(dim: int) -> np.ndarray:
    """Balanced +1/-1 (one 0 when dim is odd): trace-zero, norm-one spectrum."""
    half = dim // 2
    s = np.zeros(dim)
    s[:half] = 1.0
    s[dim - half:] = -1.0
    return s


def _group_slices(dim: int, n: int):
    step = dim // n
    return [slice(k * step, (k + 1) * step) for k in range(n)]


def freeness_defect(v: alg.CyclicUnitary, x: Element, max_word_len: int = 4) -> float:
    """Largest |tau| over alternating words in powers of v and copies of x.

    Words have the form x0 * prod_{i=1..m} (v^{k_i} x_i) with 1 <= k_i <= n-1,
    interior letters equal to x, and optional boundary letters; m runs up to
    `max_word_len`.  All letters are centered (tau(v^k) = 0 by construction,
    x is centered defensively), so the value is 0 in the exactly free limit.
    """
    if max_word_len < 1:
        raise ValueError("max_word_len must be >= 1")
    n = v.order
    if n < 2:
        return 0.0
    shape = x.shape
    xc = x - alg.trace(x) * alg.identity(shape)
    if alg.op_norm(xc) < 1e-14:
        return 0.0
    powers = {}
    acc = alg.identity(shape)
    for k in range(1, n):
        acc = acc @ v.v
        powers[k] = acc
    vx = {k: powers[k] @ xc for k in powers}

    def trace_product(a: Element, b: Element) -> complex:
        # tau(a b) without materializing the product
        return sum(t * np.einsum("ij,ji->", ab, bb)
                   for t, ab, bb in zip(shape.trace_weights, a.blocks, b.blocks))

    worst = 0.0
    def walk(prefix: Element, depth: int):
        nonlocal worst
        # close the word with v^k x or bare v^k (boundary letter optional)
        for k in range(1, n):
            worst = max(worst, abs(trace_product(prefix, vx[k])))
            worst = max(worst, abs(trace_product(prefix, powers[k])))
            if depth + 1 < max_word_len:
                walk(prefix @ vx[k], depth + 1)

    walk(alg.identity(shape), 0)   # words starting with v^k
    walk(xc, 0)                    # words starting with x
    return worst


def _half_rank_draw(dim: int, rng: np.random.Generator):
    """(Q, w): a dim x k Haar isometry, k = ceil(dim/2), and the weights
    with Q diag(w) Q* - 1 = x of spectrum `_sign_spectrum(dim)`.

    Q is the reduced QR factor of a complex Gaussian matrix (real and
    imaginary parts interleaved in one draw).  Only span(Q) and the line of
    its last column enter x, and their law is unitarily invariant whatever
    the phases of R, so no phase fix is applied."""
    k = dim - dim // 2
    g = rng.standard_normal((dim, 2 * k)).view(np.complex128)
    q, _ = np.linalg.qr(g)
    w = np.full(k, 2.0)
    if dim % 2:
        w[-1] = 1.0
    return q, w


def trial_pair(n: int, dim: int, rng: np.random.Generator):
    """(v, x) of one `run_kesten` trial, from the same draw (Q, w) that
    `_pinched_norms_fast` takes from `rng`: v = diag(roots) and
    x = Q diag(w) Q* - 1, so pinching x by the spectral partition of v gives
    the trial's norm up to rounding."""
    q, w = _half_rank_draw(dim, rng)
    shape = AlgebraShape.matrix(dim)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    v = Element(shape, [np.diag(np.repeat(roots, dim // n))])
    x_mat = (q * w) @ q.conj().T - np.eye(dim)
    x = Element(shape, [(x_mat + x_mat.conj().T) / 2])
    return alg.CyclicUnitary(v=v, order=n), x


def _pinched_norms_fast(n: int, dim: int, rng: np.random.Generator) -> float:
    """Pinched operator norm of one trial from one half-rank draw.

    With v = diag(roots) the pinch of x = Q diag(w) Q* - 1 keeps its n
    diagonal blocks Q_g diag(w) Q_g* - 1, Q_g the g-th group of dim/n rows
    of Q, so the norm is max_g max |eig(Q_g diag(w) Q_g*) - 1|.  For even
    dim w = 2 and the blocks are those of the Jacobi ensemble 2 P - 1; for
    odd dim the last weight 1 adds the 0 eigenvector of x.  Against a full
    Haar unitary per trial this halves the QR and skips every dim x dim
    product, with the same law of x relative to v.

    At n = 2 dim is even, so Q has k = dim/2 columns and its two row groups
    are square with Q_1* Q_1 + Q_2* Q_2 = 1: if Q_1 Q_1* has spectrum μ,
    Q_2 Q_2* has spectrum 1 − μ, and both blocks have norm max |2μ − 1|.
    Only the first group is solved.
    """
    q, w = _half_rank_draw(dim, rng)
    worst = 0.0
    groups = _group_slices(dim, n)
    for sl in groups[:1] if n == 2 else groups:
        qg = q[sl]
        lam = np.linalg.eigvalsh((qg * w) @ qg.conj().T)
        worst = max(worst, abs(float(lam[0]) - 1.0), abs(float(lam[-1]) - 1.0))
    return worst


def run_kesten(experiment: KestenExperiment) -> KestenResult:
    """Per trial: draw the pair of `trial_pair`, pinch x by the spectral
    partition of v, record the operator norm; exceedances are counted
    against bound + slack.

    Trial t reads only `child_rng(seed, t)`, one dim x ceil(dim/2) Haar
    isometry Q (see `_pinched_norms_fast`): x = Q diag(w) Q* - 1 with
    w = 2 and, for odd dim, a last weight 1 for the 0 eigenvector.  The
    norm is read off the row-group blocks of Q (one at n = 2), without
    forming x.
    """
    norms = np.empty(experiment.trials)
    for t in range(experiment.trials):
        rng = child_rng(experiment.seed, t)
        norms[t] = _pinched_norms_fast(experiment.n, experiment.dim, rng)
    return KestenResult(experiment=experiment, norms=norms,
                        bound=kesten_bound(experiment.n))
