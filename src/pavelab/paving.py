"""Construction, search, and certification of ε-pavings over a subalgebra.

A paving problem asks for a partition of unity p_1..p_r inside N (or a
family of unitaries of N) such that pinching (or averaging) brings every
operator of a finite set F within ε of its expectation onto the relative
commutant, measured relative to ‖x - E_{N'∩M}(x)‖.  This module provides

* closed-form size bounds (`paving_partition_bound`, `dixmier_count_bound`,
  `averaging_count_lower_bound`),
* the constructive pipeline `pave_constructive` (an outer partition cut
  from the columns of a Haar unitary, exceptional-projection trimming, a
  small-support Fourier refinement, and the expectation-transfer estimates),
* a simulated-annealing search `pave_search` over rotated diagonal
  partitions,
* Dixmier averaging by eigenvalue-order-reversal folds,
* the trace-norm variant `l2_pave`, and
* `verify`, the single recomputation path every certificate goes through;
  it accepts candidates over N only (N-frames or N-unitaries).

Certificates are value objects; `verify` recomputes all ratios from scratch
and is the only place the verified flag is set, so re-verification of a
certificate is bit-identical to its creation.  A partition's ratios are read
off the part-diagonal blocks G_i*(x − E)G_i, G_i the embedded frame of part
i and E = E_{N'∩M}(x), by the same kernel (`alg.part_norms`) that scores
the annealing search; neither an M-size pinch nor an embedded frame is
formed.  Each problem stores x − E once in the slab basis of every M-block,
Y_l = Π_l* u_l*(x − E)u_l Π_l (`Inclusion.center`), where the embedded
frame is 1 ⊗ F on each copy of an N-block, so the blocks come from the
N-frames F with n_k rows per copy.  This rests on two facts that `verify`
has in hand: the frame-unitarity check ‖U*U − 1‖ ≤ TOL_PROJ on the N-side
stacks U, which carries over to the embedded frame u_l Π_l (⊕ 1 ⊗ U_k)
because u_l Π_l is unitary, and E ∈ N'∩M, which commutes with every part.
The pipeline's stage (ii) corners (1 ⊗ w)* Y_l (1 ⊗ w) of an outer part w
come from the same stacks, and its eq (2)–(4) diagnostics, pinches of
corner elements by a refinement of w, are part blocks of the same kernel
(`alg.part_norms`, `alg.part_blocks`): the package has one pinch kernel.

The kernel's index plan, `alg.part_layout`, depends on a partition's ranks
and an M-block's slab layout alone, and the search's slot order and move
pool and the pipeline's empty-support refinement on shapes alone: each is
built once per process (`functools.lru_cache`, with a fixed `maxsize`) and
shared read-only, so a warm plan gives the bytes a fresh one would.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import algebra as alg
from .algebra import (Element, PartitionOfUnity, RANK_CUT, TOL_PROJ, TIE_TOL,
                      identity, op_norm, l2_norm, trace)
from .inclusion import Inclusion
from .seeding import child_rng

VERIFY_SLACK = 1e-9
# ‖x - E_{N'∩M}(x)‖ at or below this: x already lies in the relative
# commutant, its ratio is 0 and there is nothing to pave
DEGENERATE_DEN = 1e-12
L2_SLACK = 0.05  # delta_l2 of an l2 paving
# a positive stand-in for a norm of 0 where a bound needs a positive one
NORM_FLOOR = 1e-30
# `scan` rounds its lower bound up, and a quotient that is an integer up to
# rounding must not gain one
CEIL_GUARD = 1e-12
# τ(q) is a float sum of trace weights times ranks: a rank that meets δ'
# exactly must not fail it by rounding
TAU_SLACK = 1e-15
# QR rank cut of `_join_frames`: a column whose |R_kk| is at or below the
# cut depends on the earlier ones; it factors groups of orthonormal columns,
# so the scale is 1
JOIN_RANK_TOL = 1e-9
# gram norms are at most 1, so `eigh` and `eigvalsh` eigenvalues agree far
# inside this: a corner whose `eigvalsh` top lies below θ − TIE_TOL − margin
# has no `eigh` eigenvalue at or above θ − TIE_TOL
SCREEN_MARGIN = 1e-12
# fixed schedules and budgets; see SearchConfig, dixmier_average_run and scan
STEP_SCALE = math.pi / 8
COOLING = 0.95
SWEEP = 25
STALL_BUDGET = 4
MAX_FOLDS = 10
SCAN_RESTARTS = 2
SCAN_STEPS = 120
# entries kept by the per-process memos of `_move_pool` (one N = M_512 pool
# holds up to 130 816 rows of 5 ints) and `_empty_refinement`
MOVE_POOL_CACHE = 8
REFINEMENT_CACHE = 8


class PavingError(RuntimeError):
    pass


class ResourceError(PavingError):
    """Problem dimensions cannot host the requested construction."""


class CandidateRejected(PavingError):
    """Candidate partition/unitaries failed validation; carries residuals."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class Centered(NamedTuple):
    """One operator x of F with e = E_{N'∩M}(x) and den = ‖x - e‖."""

    x: Element
    e: Element
    den: float


@dataclass
class PavingProblem:
    """A finite operator set F in M, a target ε, and the index to use in bounds.

    F is stored as a tuple and centered once, here: `centered` holds one
    `Centered` per operator (x, E and ‖x − E‖), and `slab_stacks` holds
    x − E once, in slab coordinates (`Inclusion.center`), one
    (|F|, m_l, m_l) array per M-block, which `verify`, `pave_search` and
    the pipeline read.  Readers that need x − E in M coordinates (the l2
    denominators and the Dixmier folds) subtract on demand.
    """

    inclusion: Inclusion
    operators: tuple
    epsilon: float
    index: float = None
    centered: tuple = field(init=False, repr=False, compare=False)
    slab_stacks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.operators = tuple(self.operators)
        if not self.operators:
            raise PavingError("F must be nonempty")
        if self.epsilon <= 0:
            raise PavingError("epsilon must be positive")
        if self.index is None:
            self.index = self.inclusion.known_index
        for x in self.operators:
            if x.shape != self.inclusion.m_shape:
                raise alg.ShapeMismatchError("operators must live over M")
        self.slab_stacks = tuple(np.empty((len(self.operators), d, d), dtype=np.complex128)
                                 for d in self.inclusion.m_shape.block_dims)
        centered = []
        for i, x in enumerate(self.operators):
            e, _ = self.inclusion.center(x, [stack[i] for stack in self.slab_stacks])
            centered.append(Centered(x, e, op_norm(x - e)))
        self.centered = tuple(centered)

    def live(self) -> list:
        """The centered operators outside the relative commutant."""
        return [it for it in self.centered if it.den > DEGENERATE_DEN]

    def with_epsilon(self, epsilon: float) -> "PavingProblem":
        """This problem at another ε, sharing the centered operators."""
        if epsilon <= 0:
            raise PavingError("epsilon must be positive")
        other = copy.copy(self)
        other.epsilon = epsilon
        return other


@dataclass
class PipelineConfig:
    """Sizes and budgets for the constructive pipeline.

    ``delta_prime`` is both the spectral-threshold offset and the trace
    budget of the exceptional projections; it must stay below 4/n^2 for the
    combined bound to close.
    """

    n_parts: int
    m_refine: int
    delta_prime: float = None
    retry_budget: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_parts < 1 or self.m_refine < 1:
            raise PavingError("partition sizes must be >= 1")
        if self.retry_budget < 0:
            raise PavingError("retry_budget must be >= 0")
        cap = 4.0 / self.n_parts ** 2
        if self.delta_prime is None:
            self.delta_prime = 0.5 * cap
        if not (0 < self.delta_prime < cap):
            raise PavingError(f"delta_prime must lie in (0, 4/n^2) = (0, {cap})")


@dataclass
class SearchConfig:
    """Annealing budget: r parts and restarts × steps Givens moves.  The
    schedule is fixed: the step scale starts at STEP_SCALE and is multiplied
    by COOLING after every SWEEP steps."""

    r: int
    restarts: int = 4
    steps: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.r < 1 or self.restarts < 1:
            raise PavingError("r and restarts must be >= 1")
        if self.steps < 0:
            raise PavingError("steps must be >= 0")


@dataclass
class PavingCertificate:
    """A candidate paving plus its recomputed ratios and verification status."""

    mode: str                      # 'partition' | 'unitaries' | 'l2'
    per_x_ratio: list
    r: int
    epsilon: float
    threshold: float
    verified: bool
    seed: int = None
    config: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    partition: PartitionOfUnity = None
    unitaries: list = None
    soundness_alarm: bool = False

    def summary(self) -> dict:
        """JSON-ready payload without the bulky partition data."""
        return {
            "mode": self.mode,
            "per_x_ratio": list(map(float, self.per_x_ratio)),
            "r": self.r,
            "epsilon": self.epsilon,
            "threshold": self.threshold,
            "verified": self.verified,
            "seed": self.seed,
            "config": self.config,
            "diagnostics": self.diagnostics,
            "soundness_alarm": self.soundness_alarm,
        }


# -- closed-form bounds --------------------------------------------------------

def paving_partition_bound(index: float, epsilon: float):
    """(n, m, r): outer size ceil(16/ε²), refinement ceil(4·index/ε²), r = n m."""
    if epsilon <= 0 or index < 1:
        raise PavingError("need epsilon > 0 and index >= 1")
    n = math.ceil(16.0 * epsilon ** -2)
    m = math.ceil(4.0 * index * epsilon ** -2)
    return n, m, n * m


def averaging_count_lower_bound(tau_q: float, epsilon: float) -> float:
    """(tau + ε)^(-1): no verified averaging of a positive norm-one element
    can use fewer unitaries."""
    if tau_q < 0 or epsilon <= 0:
        raise PavingError("need tau >= 0 and epsilon > 0")
    return 1.0 / (tau_q + epsilon)


DIXMIER_EXPONENT = math.log(2.0) / (math.log(3.0) - math.log(2.0))


def dixmier_count_bound(epsilon: float) -> int:
    """ceil(ε^(-log_{3/2} 2)): unitary count sufficient for one self-adjoint
    element under 1/3-per-step averaging."""
    if not (0 < epsilon <= 1):
        raise PavingError("epsilon must lie in (0, 1]")
    return math.ceil(epsilon ** -DIXMIER_EXPONENT)


# -- candidate helpers ---------------------------------------------------------

def _is_positive(x: Element) -> bool:
    """x = x* and x >= 0, both within TOL_PROJ."""
    return (alg.hermitian_part_residual(x) <= TOL_PROJ
            and min(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0])
                    for b in x.blocks) >= -TOL_PROJ)


# -- verification --------------------------------------------------------------

def verify(problem: PavingProblem, candidate, mode: str = None,
           seed=None, config: dict = None,
           diagnostics: dict = None) -> PavingCertificate:
    """Recompute every ratio of a candidate paving from scratch.

    `candidate` is a PartitionOfUnity over N, a list of N-unitaries, or an
    existing certificate (whose candidate is re-verified independently of how
    it was produced).  A candidate over any other algebra, M included, is
    rejected with a "shape" residual, so every ratio comes from the stored
    N-frames or N-unitaries themselves.

    A partition is checked in a fixed order: its shape must be N's, and
    its frame residual ‖U*U − 1‖ must be at most TOL_PROJ; only then are
    its frames read.  Neither the M-size pinch nor an embedded frame is
    formed.  With E = E_{N'∩M}(x) in N'∩M, E commutes with every p_i ∈ N,
    so Σ p_i x p_i − E = Σ p_i (x − E) p_i.  In M-block l the parts embed
    as G = u_l Π_l (⊕_k 1 ⊗ U_k), unitary exactly when the checked U_k are,
    so that norm is read off the part-diagonal blocks G_i*(x − E)G_i, which
    `alg.part_norms` forms from the U_k and the slab stack
    Y_l = Π_l* u_l*(x − E)u_l Π_l of the problem: the largest block norm,
    or in l2 mode sqrt(Σ_l t_l Σ_i ‖G_i*(x − E)G_i‖_F²).

    In l2 mode the threshold is n_parts^(-1/2) + delta_l2,
    both read from `config` (n_parts defaults to the partition size,
    delta_l2 to L2_SLACK).

    A candidate is accepted for the exact one nearest to it, not only for
    its own stored numbers.  A partition whose frame residual is δ moves a
    part-block norm by at most (2δ + δ²)‖x − E‖ from the partition its frames
    stand for (the Frobenius residual bounds the operator norm), so it is
    verified only when every ratio + 2δ + δ² is within threshold +
    VERIFY_SLACK.  A unitary family with residual δ_u moves the average of x
    by at most (2δ_u + δ_u²)‖x‖, that is (2δ_u + δ_u²)‖x‖/‖x − E‖ relative
    to ‖x − E‖: a factor that grows without bound as x nears N′∩M (an x
    inside it, with ratio 0, gets bound 0).  The bound of every x is
    recorded under diagnostics["residual_bound"].

    For unitary candidates containing a positive
    norm-one operator with scalar commutant expectation, the averaging-count
    lower bound is asserted; a violation sets the soundness alarm, which
    means the verifier itself is broken.
    """
    if isinstance(candidate, PavingCertificate):
        inner = candidate.partition if candidate.partition is not None else candidate.unitaries
        return verify(problem, inner, mode=candidate.mode, seed=candidate.seed,
                      config=candidate.config, diagnostics=candidate.diagnostics)

    inc = problem.inclusion
    config = config or {}
    diagnostics = dict(diagnostics or {})

    if isinstance(candidate, PartitionOfUnity):
        mode = mode or "partition"
        if candidate.shape != inc.n_shape:
            raise CandidateRejected("partition must live over N",
                                    {"shape": str(candidate.shape)})
        worst = candidate.residual()
        if not worst <= TOL_PROJ:
            raise CandidateRejected(
                f"partition frames are not unitary within {TOL_PROJ} "
                f"(residual {worst:.3e})", {"frame_residual": worst})
        largest = np.zeros(len(problem.centered))
        square = np.zeros(len(problem.centered))
        for l, (ys, t) in enumerate(zip(problem.slab_stacks, inc.m_shape.trace_weights)):
            layout = alg.part_layout(candidate.ranks, inc.slab_layout(l))
            norms, fro = alg.part_norms(candidate.stacks, layout, ys)
            largest = np.maximum(largest, norms.max(axis=1))
            square += t * fro
        ratios = []
        for item, a, b in zip(problem.centered, largest, square):
            num = float(a) if mode != "l2" else math.sqrt(b)
            den = item.den if mode != "l2" else l2_norm(item.x - item.e)
            ratios.append(0.0 if den <= DEGENERATE_DEN else num / den)
        r = candidate.size
        if mode == "l2":
            parts = config.get("n_parts") or r
            threshold = parts ** -0.5 + config.get("delta_l2", L2_SLACK)
        else:
            threshold = problem.epsilon
        bound = 2 * worst + worst ** 2
        diagnostics["residual_bound"] = [bound] * len(ratios)
        verified = max(ratios) + bound <= threshold + VERIFY_SLACK
        return PavingCertificate(
            mode=mode, per_x_ratio=ratios, r=r, epsilon=problem.epsilon,
            threshold=threshold, verified=verified, seed=seed,
            config=config, diagnostics=diagnostics,
            partition=candidate)

    # unitary family
    unitaries = list(candidate)
    if not unitaries:
        raise CandidateRejected("empty unitary family")
    worst_unitary = 0.0
    for u in unitaries:
        if u.shape != inc.n_shape:
            raise CandidateRejected("unitaries must live over N",
                                    {"shape": str(u.shape)})
        worst_unitary = max(worst_unitary, alg.unitary_residual(u))
    if worst_unitary > TOL_PROJ:
        raise CandidateRejected(
            f"candidate family is not unitary within {TOL_PROJ}",
            {"unitary_residual": worst_unitary})
    ratios, bounds, lower_bounds, alarm = [], [], [], False
    grow = 2 * worst_unitary + worst_unitary ** 2
    embedded = [inc.embed(u) for u in unitaries]
    for item in problem.centered:
        avg = alg.unitary_average(embedded, item.x)
        num = op_norm(avg - item.e)
        x, norm_x = item.x, op_norm(item.x)
        live = item.den > DEGENERATE_DEN
        ratios.append(num / item.den if live else 0.0)
        bounds.append(grow * norm_x / item.den if live else 0.0)
        if (_is_positive(x) and abs(norm_x - 1.0) <= TOL_PROJ
                and op_norm(item.e - trace(x) * identity(inc.m_shape)) <= TOL_PROJ):
            lb = averaging_count_lower_bound(float(trace(x).real), max(num, NORM_FLOOR))
            lower_bounds.append(lb)
            if num <= problem.epsilon * max(item.den, NORM_FLOOR) + VERIFY_SLACK:
                if len(unitaries) < lb - VERIFY_SLACK:
                    alarm = True
        else:
            lower_bounds.append(None)
    diagnostics["lower_bounds"] = lower_bounds
    diagnostics["residual_bound"] = bounds
    verified = max(a + b for a, b in zip(ratios, bounds)) <= problem.epsilon + VERIFY_SLACK
    return PavingCertificate(
        mode="unitaries", per_x_ratio=ratios, r=len(unitaries),
        epsilon=problem.epsilon, threshold=problem.epsilon,
        verified=verified and not alarm, seed=seed, config=config,
        diagnostics=diagnostics, unitaries=unitaries, soundness_alarm=alarm)


def _trivial_certificate(problem: PavingProblem, seed, config) -> PavingCertificate:
    shape = problem.inclusion.n_shape
    part = PartitionOfUnity.from_frames(shape, [[np.eye(d) for d in shape.block_dims]])
    return verify(problem, part, seed=seed, config=config)


# -- the constructive pipeline -------------------------------------------------

def _join_frames(frame_lists, dim_per_block):
    """Orthonormal basis of the span of several per-block frames.

    A QR without pivoting spans all columns with its first `rank` columns
    only when the dependent columns (|R_kk| ≤ JOIN_RANK_TOL) come after
    the independent ones and R reaches every column; otherwise the
    dependent columns are dropped and the rest factored again."""
    joined = []
    for k, d in enumerate(dim_per_block):
        cols = [fr[k] for fr in frame_lists if fr[k].shape[1] > 0]
        if not cols:
            joined.append(np.zeros((d, 0), dtype=np.complex128))
            continue
        stacked = np.concatenate(cols, axis=1)
        while True:
            q, rr = np.linalg.qr(stacked)
            # R has a diagonal entry for the first min(d, width) columns only
            keep = np.abs(np.diag(rr)) > JOIN_RANK_TOL
            rank = int(keep.sum())
            if keep[:rank].all() and len(keep) in (rank, stacked.shape[1]):
                break
            unreached = np.ones(stacked.shape[1] - len(keep), dtype=bool)
            stacked = stacked[:, np.concatenate([keep, unreached])]
        joined.append(q[:, :rank])
    return joined


def _fourier_refinement(dim: int, e_cols: np.ndarray, m: int):
    """Coordinate frames Z_1..Z_m of a partition of C^dim spreading e_cols.

    Builds an m-cycle of equal blocks whose first block contains the span of
    `e_cols`, takes the Fourier-dual projections of the cycle, and deals any
    leftover coordinates round-robin.  Each part then satisfies
    e* Z_j Z_j* e = (1/m) e* e, which is what caps the pinched norm of
    anything supported on e.
    """
    s = e_cols.shape[1]
    c = max(s, 1)
    if m * c > dim:
        return None
    if s:
        basis, _ = np.linalg.qr(np.concatenate(
            [e_cols, np.eye(dim, dtype=np.complex128)], axis=1))
    else:
        # the QR of the identity is the identity exactly (every Householder
        # reflector has τ = 0)
        basis = np.eye(dim, dtype=np.complex128)
    base = basis[:, :m * c]
    omega = np.exp(2j * np.pi / m)
    parts = []
    for j in range(m):
        phases = omega ** (j * np.arange(m))
        cols = np.zeros((dim, c), dtype=np.complex128)
        for k in range(m):
            cols += phases[k] * base[:, k * c:(k + 1) * c]
        parts.append(cols / math.sqrt(m))
    leftover = basis[:, m * c:dim]
    extras = [[] for _ in range(m)]
    for t in range(leftover.shape[1]):
        extras[t % m].append(leftover[:, t:t + 1])
    out = []
    for j in range(m):
        if extras[j]:
            out.append(np.concatenate([parts[j]] + extras[j], axis=1))
        else:
            out.append(parts[j])
    return out


@functools.lru_cache(maxsize=REFINEMENT_CACHE)
def _empty_refinement(rank: int, m: int):
    """(stacked frame, part ranks) of the Fourier refinement of a rank-`rank`
    part into m pieces around an empty support: it depends on (rank, m)
    alone, so it is built once per process.  The frame is read-only."""
    refinement = _fourier_refinement(rank, np.zeros((rank, 0), dtype=np.complex128), m)
    z_stack = np.concatenate(refinement, axis=1)
    z_stack.flags.writeable = False
    return z_stack, tuple(z.shape[1] for z in refinement)


def _slab_corners(slab_stacks, w: np.ndarray, live, scale: np.ndarray):
    """(corners, grams) of the part with N-frame w over a single-block N, per
    M-block l: C = (1_mult ⊗ w)* Y_l (1_mult ⊗ w) of the operators `live`
    (indices into the slab stacks Y_l), each scaled by its entry of `scale`,
    and C*C, as (len(live), mult·r, mult·r) arrays.  In slab coordinates the
    embedded frame of the part is w on every copy (see the module
    docstring), so one GEMM with n inner rows forms (1 ⊗ w)* Y_l, copy by
    copy, and one more multiplies w into the columns of every copy; the
    columns of C run copy by copy, w once per copy."""
    n, r = w.shape
    wh = w.conj().T
    corners, grams = [], []
    for ys in slab_stacks:
        count, d, _ = ys.shape
        mult = d // n
        wy = (wh @ ys.reshape(count, mult, n, d)).reshape(count, mult * r * mult, n)
        c = (wy @ w).reshape(count, mult * r, mult * r)[live]
        c *= scale[:, None, None]
        corners.append(c)
        grams.append(c.conj().transpose(0, 2, 1) @ c)
    return corners, grams


def _exceptional_frames(grams: np.ndarray, theta: float):
    """(tops, frames) of the Hermitian parts h = (a + a*)/2 of a stack of
    corner grams a: tops[x] is the largest eigenvalue of h[x] by one batched
    `eigvalsh` (0.0 for an empty corner), frames[x] the eigenvectors of h[x]
    whose `eigh` eigenvalue is at least θ − TIE_TOL.  `eigh` runs only on an
    h[x] whose top reaches θ − TIE_TOL − SCREEN_MARGIN; below that the
    frame is empty."""
    cutoff = theta - TIE_TOL
    count, d, _ = grams.shape
    if not d:
        return [0.0] * count, [np.zeros((0, 0), dtype=np.complex128)] * count
    h = (grams + grams.conj().transpose(0, 2, 1)) / 2
    tops = np.linalg.eigvalsh(h)[:, -1].tolist()
    frames = []
    for h_x, top in zip(h, tops):
        if top < cutoff - SCREEN_MARGIN:
            frames.append(np.zeros((d, 0), dtype=np.complex128))
        else:
            w, v = np.linalg.eigh(h_x)
            frames.append(v[:, w >= cutoff])
    return tops, frames


def _corner_expectation(b_x, mults, t_weights, s0) -> np.ndarray:
    """h = w* E_N(v b v*) w for a corner element b = (b_l) of the embedded
    frame v of a part w over a single-block N.  The columns of v_l are w
    once per copy, so E_N, which averages the diagonal copy blocks, leaves
    h = Σ_l t_l Σ_c b_l[c, c] / s_0: a trace over the copy index of each
    b_l viewed as (mult_l, r, mult_l, r)."""
    r = len(b_x[0]) // mults[0]
    return sum(t * np.einsum("aiaj->ij", b.reshape(m, r, m, r))
               for b, m, t in zip(b_x, mults, t_weights)) / s0


def pave_constructive(problem: PavingProblem, cfg: PipelineConfig) -> PavingCertificate:
    """Constructive ε-paving pipeline.

    Stages per attempt: (i) an outer partition p_1..p_n of N whose frames
    are n consecutive, near-equal slices of the columns of one Haar unitary
    (no cyclic unitary is formed); (ii) per (i, x) the exceptional spectral
    projection of (p_i x p_i)*(p_i x p_i) above 4(n-1)/n² + δ', joined over x
    into q_i; (iii) b_{i,x} = q_i x* p_i x q_i in the corner coordinates of
    p_i, its expectation onto N read off the corner blocks as
    w_i* E_N(b) w_i = Σ_l (t_l/s_0) Σ_c b_l[c, c] (no M-size element is
    built), and the support-trace bound; (iv) a Fourier refinement of each
    p_i into m pieces whose first cycle block carries the joint support,
    which caps the refined pinch of E_N(b) at 1/m; (v) the assembled r = n m
    partition is re-verified from scratch.  A fresh rotation is drawn when an
    exceptional trace exceeds δ' or a support does not fit the refinement, up
    to `retry_budget`; exhaustion returns the best unverified certificate
    with per-stage diagnostics.

    Stage (ii) reads the corners p_i (x − E) p_i / ‖x − E‖ of every live x
    off the slab stacks of the problem (`_slab_corners`), so no frame is
    embedded in M; the grams of all x go through one batched `eigvalsh` per
    M-block, and an `eigh` runs only where the top eigenvalue comes within
    SCREEN_MARGIN of the threshold.  A part whose joined q_i is empty, as
    under a generic rotation, skips stage (iii) and eq (1)–(4), since
    b = q x* p x q and y = p x q are then exactly 0: τ(q) = 0, the support
    trace bound is (0, 0) with support rank 0, the refined expectation,
    both transfer sides and the Schwarz minimum are 0, and the eq (1) tail
    is the square root of the screened top eigenvalue of the untrimmed gram,
    the `eigvalsh` of the same matrix.  Its refinement is the empty-support
    one, which depends on the part's rank and m alone (and always fits, as
    n m ≤ dim N), so it is built once per process (`_empty_refinement`).
    Partitions, ratios and diagnostics are bit-identical to running every
    stage on every part of the same corners.

    Where q_i ≠ 0, eq (2)–(4) pinch corner elements by the refinement
    Z_1..Z_m of the part, which in the corner coordinates of M-block l is
    1_mult ⊗ Z_j, one slab of mult copies.  They are read off its part
    blocks: the refined expectation max_j ‖Z_j* h Z_j‖, the transfer side
    max_{l,j} ‖Z_j′* b_l Z_j′‖, and the Schwarz minimum, the smallest
    eigenvalue of Z_j′* y*y Z_j′ − B_j* B_j with B_j = Z_j′* y Z_j′, which
    is the spectrum of Φ(y*y) − Φ(y)*Φ(y) for the pinch Φ.
    """
    inc = problem.inclusion
    if inc.n_shape.num_blocks != 1:
        raise ResourceError("the pipeline needs a factor-like (single-block) N")
    dim_n = inc.n_shape.block_dims[0]
    n, m = cfg.n_parts, cfg.m_refine
    if n * m > dim_n:
        raise ResourceError(
            f"N of dimension {dim_n} cannot host {n}*{m} projections")
    if problem.index is None:
        raise PavingError("pipeline needs an exact or estimated index")
    base_config = {
        "n_parts": n, "m_refine": m, "delta_prime": cfg.delta_prime,
        "retry_budget": cfg.retry_budget, "index": problem.index,
    }
    if problem.epsilon >= 1.0:
        return _trivial_certificate(problem, cfg.seed, base_config)

    live = problem.live()
    if not live:
        cert = _trivial_certificate(problem, cfg.seed, base_config)
        cert.diagnostics["normalization"] = "all operators lie in the commutant"
        return cert
    # the slab-stack rows of the live operators, and their 1/‖x − E‖
    live_rows = [i for i, it in enumerate(problem.centered) if it.den > DEGENERATE_DEN]
    scale = 1.0 / np.array([it.den for it in live])

    theta_exc = 4.0 * (n - 1) / n ** 2 + cfg.delta_prime
    certified_bound = math.sqrt(theta_exc) + math.sqrt(problem.index / m)
    blocks = range(inc.m_shape.num_blocks)
    mults = [inc.spec.inclusion_matrix[0][l] for l in blocks]
    t_weights = inc.m_shape.trace_weights
    s0 = inc.n_shape.trace_weights[0]

    attempts = []
    best_cert = None
    for attempt in range(cfg.retry_budget + 1):
        rng = child_rng(cfg.seed, attempt)
        u = alg.haar_block(rng, dim_n)
        sizes = alg.balanced_sizes(dim_n, n)
        bounds_idx = np.cumsum([0] + sizes)
        record = {"attempt": attempt, "stage_ok": True, "reason": None,
                  "tau_q": [], "support_ranks": [], "compression_tail": [], "refined_expectation": [],
                  "transfer_lhs": [], "transfer_rhs": [], "schwarz_min": [],
                  "support_trace_bound": []}
        stacks, ranks = [], []
        for i in range(n):
            w_i = u[:, bounds_idx[i]:bounds_idx[i + 1]]
            r_i = w_i.shape[1]
            corner_stacks, gram_stacks = _slab_corners(problem.slab_stacks, w_i, live_rows, scale)
            screens = [_exceptional_frames(a, theta_exc) for a in gram_stacks]
            # per operator, per M-block: the screened (top, frame) pairs
            screened = [[(tops[t], frames[t]) for tops, frames in screens]
                        for t in range(len(live))]
            corner_dims = [a.shape[1] for a in gram_stacks]
            q_frames = _join_frames([[fr for _, fr in s_x] for s_x in screened], corner_dims)
            tau_q = sum(t_weights[l] * q_frames[l].shape[1]
                        for l in range(len(q_frames)))
            record["tau_q"].append(tau_q)
            if tau_q > cfg.delta_prime + TAU_SLACK:
                record.update(stage_ok=False,
                              reason=f"exceptional trace {tau_q:.3g} exceeds "
                                     f"delta' = {cfg.delta_prime:.3g} at part {i}")
                break

            if not any(z.shape[1] for z in q_frames):
                # q_i = 0: the closed forms of the docstring
                for s_x in screened:
                    record["compression_tail"].append(
                        math.sqrt(max([0.0] + [top for top, _ in s_x])))
                    record["support_trace_bound"].append((0.0, 0.0))
                record["support_ranks"].append(0)
                for key in ("refined_expectation", "transfer_lhs", "transfer_rhs",
                            "schwarz_min"):
                    record[key].extend([0.0] * len(screened))
                z_stack, part_ranks = _empty_refinement(r_i, m)
                stacks.append(w_i @ z_stack)
                ranks.extend(part_ranks)
                continue

            # per operator, per M-block: the corner grams
            gram = [[a[t] for a in gram_stacks] for t in range(len(live))]

            # eq (1): the trimmed compression stays under the threshold
            for a_x in gram:
                val = 0.0
                for l, a_l in enumerate(a_x):
                    z = q_frames[l]
                    res = a_l - z @ (z.conj().T @ a_l) - (a_l @ z) @ z.conj().T \
                        + z @ (z.conj().T @ a_l @ z) @ z.conj().T
                    w = np.linalg.eigvalsh((res + res.conj().T) / 2)
                    val = max(val, float(w[-1]) if w.size else 0.0)
                record["compression_tail"].append(math.sqrt(max(val, 0.0)))

            # stage (iii): b = q x* p x q, its N-expectation and supports
            h_corners, b_corners = [], []
            joint_supports = []
            for a_x in gram:
                b_x = []
                for l, a_l in enumerate(a_x):
                    z = q_frames[l]
                    b_x.append(z @ (z.conj().T @ a_l @ z) @ z.conj().T)
                b_corners.append(b_x)
                h_c = _corner_expectation(b_x, mults, t_weights, s0)
                h_corners.append(h_c)
                w_h, v_h = np.linalg.eigh((h_c + h_c.conj().T) / 2)
                cut = RANK_CUT * max(float(w_h[-1]), 0.0) if w_h.size else 0.0
                supp = v_h[:, w_h > cut]
                joint_supports.append([supp])
                record["support_trace_bound"].append(
                    (supp.shape[1] * s0, problem.index * tau_q))
            e_join = _join_frames(joint_supports, [r_i])[0]
            s_i = e_join.shape[1]
            record["support_ranks"].append(s_i)
            refinement = _fourier_refinement(r_i, e_join, m)
            if refinement is None:
                record.update(stage_ok=False,
                              reason=f"support rank {s_i} does not fit {m} "
                                     f"pieces of a rank-{r_i} part")
                break

            # stage diagnostics (eq 2-4) off part blocks: in the corner
            # coordinates of M-block l the embedded refinement is 1_mult ⊗ Z,
            # Z the stacked refinement frame, that is one slab of mult copies
            z_stack = np.concatenate(refinement, axis=1)
            part_ranks = tuple(z.shape[1] for z in refinement)
            refined = alg.part_norms([z_stack], alg.part_layout((part_ranks,), ((0, 1),)),
                                     np.stack(h_corners))[0].max(axis=1)
            transfer_lhs = np.zeros(len(live))
            schwarz_min = np.full(len(live), np.inf)
            for l in blocks:
                layout = alg.part_layout((part_ranks,), ((0, mults[l]),))
                b_l = np.stack([b_x[l] for b_x in b_corners])
                transfer_lhs = np.maximum(
                    transfer_lhs, alg.part_norms([z_stack], layout, b_l)[0].max(axis=1))
                # y = p x q in corner coordinates; the Schwarz gap of the pinch
                # is, part by part, Z_j′* y*y Z_j′ − B_j* B_j with B_j = Z_j′* y Z_j′
                z = q_frames[l]
                y = corner_stacks[l] @ (z @ z.conj().T)
                ys = np.concatenate([y, y.conj().transpose(0, 2, 1) @ y])
                for b in alg.part_blocks([z_stack], layout, ys):
                    b_y = b[:len(live)]
                    gap = b[len(live):] - b_y.conj().swapaxes(-1, -2) @ b_y
                    w = np.linalg.eigvalsh((gap + gap.conj().swapaxes(-1, -2)) / 2)
                    schwarz_min = np.minimum(schwarz_min, w[..., 0].min(axis=1))
            record["refined_expectation"].extend(refined.tolist())
            record["transfer_lhs"].extend(transfer_lhs.tolist())
            record["transfer_rhs"].extend((problem.index * refined).tolist())
            record["schwarz_min"].extend(schwarz_min.tolist())

            stacks.append(w_i @ z_stack)
            ranks.extend(part_ranks)

        attempts.append(record)
        if not record["stage_ok"]:
            continue
        partition = PartitionOfUnity(inc.n_shape, [np.concatenate(stacks, axis=1)], [ranks])
        diagnostics = {
            "attempts": attempts,
            "theta_exceptional": theta_exc,
            "certified_bound": certified_bound,
            "normalization_norms": [it.den for it in live],
        }
        cert = verify(problem, partition, seed=cfg.seed, config=base_config,
                      diagnostics=diagnostics)
        if cert.verified:
            return cert
        if best_cert is None or max(cert.per_x_ratio) < max(best_cert.per_x_ratio):
            best_cert = cert
    if best_cert is not None:
        best_cert.diagnostics["attempts"] = attempts
        return best_cert
    # every attempt failed a stage budget: fall back to the outer partition
    u = alg.haar_block(child_rng(cfg.seed, cfg.retry_budget), dim_n)
    partition = PartitionOfUnity(inc.n_shape, [u], [alg.balanced_sizes(dim_n, n)])
    return verify(problem, partition, seed=cfg.seed, config=base_config,
                  diagnostics={"attempts": attempts,
                               "theta_exceptional": theta_exc,
                               "certified_bound": certified_bound,
                               "stage_exhausted": True})


# -- simulated-annealing search --------------------------------------------------

@functools.lru_cache(maxsize=MOVE_POOL_CACHE)
def _move_pool(n_shape, r: int) -> np.ndarray:
    """The moves of `pave_search` over the slot order of (n_shape, r), as a
    read-only array of rows (k, a, b, i, j): stack columns a, b of slots
    a' < b' of N-block k, in block then row-major slot order, whose parts
    i < j differ.  With a single part there is no move.  It depends on the
    shape and r alone, so it is built once per process."""
    orders, ranks = alg.slot_order(n_shape, r)
    pool = []
    for k, (o, rk) in enumerate(zip(orders, ranks)):
        labels = np.repeat(np.arange(r), rk)  # the part of each stack column
        column = np.argsort(o)  # the stack column of each slot
        a, b = (column[s] for s in np.triu_indices(len(o), 1))
        cross = labels[a] != labels[b]
        a, b = a[cross], b[cross]
        pool.append(np.stack([np.full(len(a), k), a, b,
                              np.minimum(labels[a], labels[b]),
                              np.maximum(labels[a], labels[b])], axis=1))
    pool = np.concatenate(pool)
    pool.flags.writeable = False
    return pool


def pave_search(problem: PavingProblem, cfg: SearchConfig) -> PavingCertificate:
    """Minimize the worst pinching ratio over partitions u P0 u* by annealed
    Givens rotations of u; the global incumbent is kept across restarts.

    The objective is max_i s_i over the parts, where
    s_i = max_x ‖G_i* (x - E(x)) G_i‖ / ‖x - E(x)‖ and G_i is the embedded
    frame of part i.  `alg.part_norms` reads it off the slab stacks of the
    problem with the N-frames of the parts, so no frame is embedded in M.
    The annealing state is the partition itself: per N-block, the columns
    of the restart's Haar unitary in part order (`alg.slot_order`), part 0
    first, as `PartitionOfUnity` stacks them.  A move rotates two columns
    of one stack that belong to different parts; the pool (`_move_pool`)
    lists these pairs by stack column, in the block then row-major order of
    the slots they hold.  A restart scores all r parts with
    `alg.part_norms`; a move scores only the two parts it touches, whose
    trial frame is their two contiguous column slices of the rotated stack,
    with `alg.pair_norms`, which compresses x − E to those columns at once
    and reads both part blocks off the result.  That compression grows with
    the square of the columns scored, so the all-part scorings keep the
    per-part blocks of `part_norms`.  The accepted stacks are returned as
    they are.  The slot order, the pool and the part layouts
    depend on the N-shape, r and the part ranks alone, and are built once
    per process (`alg.part_layout` keys a pair of parts by its ranks).
    """
    inc = problem.inclusion
    nsh = inc.n_shape
    # per N-block: the slots in part order, and the column count of each part
    orders, ranks = alg.slot_order(nsh, cfg.r)  # raises on granularity
    config = {"r": cfg.r, "restarts": cfg.restarts, "steps": cfg.steps,
              "step_scale": STEP_SCALE, "cooling": COOLING}
    if problem.epsilon >= 1.0 or not problem.live():
        return _trivial_certificate(problem, cfg.seed, config)

    copies = [inc.slab_layout(l) for l in range(inc.m_shape.num_blocks)]
    # an operator inside the relative commutant scores 0
    dens = np.array([it.den if it.den > DEGENERATE_DEN else np.inf
                     for it in problem.centered])[:, None]

    def part_scores(norms_of, frames, part_ranks):
        # s_i for each part i of `part_ranks` (per N-block, the column counts
        # of the parts scored), from the per-N-block columns of those parts;
        # `norms_of` is the kernel that reads the norms of their blocks
        scores = 0.0
        for ys, c in zip(problem.slab_stacks, copies):
            norms = norms_of(frames, alg.part_layout(part_ranks, c), ys)
            scores = np.maximum(scores, (norms / dens).max(axis=0))
        return scores

    def all_part_norms(frames, layout, ys):
        return alg.part_norms(frames, layout, ys)[0]

    offsets = [np.cumsum((0,) + rk) for rk in ranks]
    pool = _move_pool(nsh, cfg.r)

    best_obj, best_stacks, history = np.inf, None, []
    for restart in range(cfg.restarts):
        rng = child_rng(cfg.seed, restart)
        stacks = [alg.haar_block(rng, d)[:, o] for d, o in zip(nsh.block_dims, orders)]
        scores = part_scores(all_part_norms, stacks, ranks)
        cur = float(scores.max())
        if cur < best_obj:
            best_obj, best_stacks = cur, stacks
        scale = STEP_SCALE
        for step in range(cfg.steps if len(pool) else 0):
            k, a, b, i, j = pool[rng.integers(len(pool))]
            theta = rng.normal(0.0, scale)
            phi = rng.uniform(0.0, 2 * np.pi)
            g = np.array([[np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
                          [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]])
            # stacks are never written once placed, so the trial shares
            # every block but k with the current state
            moved = stacks[k].copy()
            moved[:, [a, b]] = moved[:, [a, b]] @ g
            trial = stacks[:k] + [moved] + stacks[k + 1:]
            frames = [np.concatenate((s[:, off[i]:off[i + 1]], s[:, off[j]:off[j + 1]]), axis=1)
                      for s, off in zip(trial, offsets)]
            trial_scores = scores.copy()
            trial_scores[[i, j]] = part_scores(alg.pair_norms, frames,
                                               tuple((rk[i], rk[j]) for rk in ranks))
            val = float(trial_scores.max())
            temp = max(scale * 0.1, 1e-6)
            if val < cur or rng.random() < math.exp(-(val - cur) / temp):
                stacks, scores, cur = trial, trial_scores, val
                if cur < best_obj:
                    best_obj, best_stacks = cur, stacks
            if (step + 1) % SWEEP == 0:
                scale *= COOLING
            history.append(best_obj)

    return verify(problem, PartitionOfUnity(nsh, best_stacks, ranks), seed=cfg.seed,
                  config=config, diagnostics={"incumbent_history": history,
                                              "best_objective": best_obj})


# -- Dixmier averaging -----------------------------------------------------------

def dixmier_average_run(problem: PavingProblem, seed: int = 0) -> PavingCertificate:
    """Iterative averaging by eigenvalue-order-reversal folds.

    Each step diagonalizes the worst centered element and averages with the
    unitary that reverses its eigenvalue order, doubling the family; a step
    that fails to cut the worst ratio by at least 1% falls back to a seeded
    Haar conjugation.  The run stops once every ratio is within ε, after
    MAX_FOLDS folds, or after more than STALL_BUDGET fallbacks.  Requires
    N = M (blockwise) so the fold unitaries lie in N; operators must be
    self-adjoint after centering.
    """
    inc = problem.inclusion
    config = {"stall_budget": STALL_BUDGET, "max_folds": MAX_FOLDS}
    live = problem.live()
    if not live:
        return verify(problem, [identity(inc.n_shape)], seed=seed, config=config)
    if not inc.spec.is_trivial:
        raise ResourceError(
            "averaging folds need N = M; proper inclusions are only supported "
            "for operator sets inside the relative commutant")
    current = [it.x - it.e for it in live]
    if any(alg.hermitian_part_residual(c) > TOL_PROJ for c in current):
        raise PavingError("operators must be self-adjoint after centering")
    dens = [it.den for it in live]
    family = [identity(inc.m_shape)]
    folds, stalls = 0, 0
    history = []
    while True:
        ratios = [op_norm(c) / d for c, d in zip(current, dens)]
        history.append(max(ratios))
        if max(ratios) <= problem.epsilon + VERIFY_SLACK:
            break
        if folds >= MAX_FOLDS or stalls > STALL_BUDGET:
            break
        worst = int(np.argmax(ratios))
        y = current[worst]
        blocks = []
        for b in y.blocks:
            _, v = np.linalg.eigh((b + b.conj().T) / 2)
            blocks.append(v @ v[:, ::-1].conj().T)
        w = Element(inc.m_shape, blocks)
        trial = [0.5 * (c + w @ c @ w.adjoint()) for c in current]
        if op_norm(trial[worst]) > 0.99 * op_norm(y):
            stalls += 1
            w = alg.random_haar_unitary(inc.m_shape, child_rng(seed, folds))
            trial = [0.5 * (c + w @ c @ w.adjoint()) for c in current]
        current = trial
        family = family + [w @ f for f in family]
        folds += 1

    family_n = [inc.restrict_to_n(f) for f in family]
    return verify(problem, family_n, seed=seed, config=config,
                  diagnostics={"folds": folds, "stalls": stalls,
                               "ratio_history": history})


# -- trace-norm paving -----------------------------------------------------------

def l2_pave(problem: PavingProblem, n_parts: int, seed: int = 0) -> PavingCertificate:
    """Pinch by a Haar-rotated balanced diagonal partition and report trace-norm
    ratios; verified when every ratio is within L2_SLACK of n^(-1/2)."""
    inc = problem.inclusion
    u = alg.random_haar_unitary(inc.n_shape, child_rng(seed))
    partition = alg.coordinate_partition(inc.n_shape, n_parts, unitary=u)
    config = {"n_parts": n_parts, "delta_l2": L2_SLACK}
    return verify(problem, partition, mode="l2", seed=seed, config=config)


# -- profile scan ----------------------------------------------------------------

def scan(inclusion: Inclusion, epsilons, operators, index: float,
         seed: int = 0, r_cap: int = 64) -> list:
    """For each ε: the smallest r that pave_search verifies with
    SCAN_RESTARTS restarts of SCAN_STEPS steps, next to the closed-form
    bracket columns.

    The lower bound is the pinching inequality x <= r Σ p_i x p_i of an
    r-part partition, for each nonzero x >= 0 of F: a verified paving has
    ‖Σ p_i x p_i‖ <= ‖E(x)‖ + (ε + VERIFY_SLACK) ‖x − E(x)‖, E = E_{N'∩M},
    so r >= ‖x‖ / (‖E(x)‖ + (ε + VERIFY_SLACK) ‖x − E(x)‖).  It is None
    when F has no nonzero positive member."""
    epsilons = list(epsilons)
    if not epsilons:
        raise PavingError("empty epsilon grid")
    # F is centered once, for the whole grid
    base = PavingProblem(inclusion=inclusion, operators=operators,
                         epsilon=epsilons[0], index=index)
    total_slots = inclusion.n_shape.total_dim
    rows = []
    positives = [(op_norm(item.x), op_norm(item.e), item.den)
                 for item in base.centered if _is_positive(item.x)]
    for gi, eps in enumerate(epsilons):
        problem = base.with_epsilon(eps)
        theorem_r = paving_partition_bound(problem.index, eps)[2]
        lower = max((math.ceil(nx / (ne + (eps + VERIFY_SLACK) * den) - CEIL_GUARD)
                     for nx, ne, den in positives if nx > 0.0), default=None)
        found, verified = None, False
        for r in range(1, min(r_cap, total_slots) + 1):
            cert = pave_search(problem, SearchConfig(
                r=r, restarts=SCAN_RESTARTS, steps=SCAN_STEPS, seed=int(seed) + 1000 * gi))
            if cert.verified:
                found, verified = r, True
                break
        rows.append({"epsilon": float(eps), "r_found": found,
                     "r_verified": verified, "theorem_r": theorem_r,
                     "lower_bound": lower, "seed": int(seed)})
    return rows
