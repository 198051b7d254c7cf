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
certificate is bit-identical to its creation.  Each problem stores x − E,
E = E_{N'∩M}(x), once in the slab basis of every M-block,
Y_l = Π_l* u_l*(x − E)u_l Π_l (`Inclusion.center`), next to E in the compact
form ⊕ T ⊗ 1 and ‖x − E‖ = max_l ‖Y_l‖, where an element of N
acts as ⊕_k 1 ⊗ a_k, one a_k per copy of N-block k.  Since u_l Π_l is
unitary and E commutes with N, every compression of x − E by elements of N
is formed from the N-side matrices with n_k rows per copy, never in M:
`alg.compression` gives the full W = G* Y_l G, which scores an annealing
move (`alg.pair_norms`), forms the pipeline's stage (ii) corners of an
outer part, and forms the terms of a unitary average in `verify`;
`alg.part_norms` and `alg.part_blocks` give only the part-diagonal blocks
of a whole partition, for `verify`, the search restarts and the pipeline's
eq (2)–(4) diagnostics.

The part kernels' index plan, `alg.part_layout`, depends on a partition's ranks
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

import numpy as np

from . import algebra as alg
from .algebra import (Element, PartitionOfUnity, RANK_CUT, TOL_PROJ, TIE_TOL,
                      identity, op_norm)
from .inclusion import Inclusion, commutant_norm
from .seeding import child_rng

VERIFY_SLACK = 1e-9
# ‖x - E_{N'∩M}(x)‖ at or below this: x already lies in the relative
# commutant, its ratio is 0 and there is nothing to pave
DEGENERATE_DEN = 1e-12
L2_SLACK = 0.05  # delta_l2 of an l2 paving
# a positive stand-in for a norm of 0 where a bound needs a positive one
NORM_FLOOR = 1e-30
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


def _check_epsilon(epsilon):
    """ε must be finite and positive; NaN fails every comparison."""
    if not 0 < epsilon < math.inf:
        raise PavingError(f"epsilon must be finite and positive, got {epsilon!r}")


def _check_index(index):
    if not 1 <= index < math.inf:
        raise PavingError(f"index must be finite and >= 1, got {index!r}")


@dataclass
class PavingProblem:
    """A finite operator set F in M, a target ε, and the index to use in bounds.

    F is stored as a tuple and centered once, here, in slab coordinates
    alone (`Inclusion.center`), with E = E_{N'∩M}(x): `slab_stacks` holds
    x − E, one (|F|, m_l, m_l) array per M-block, the only layout of F − E;
    `commutant` holds E per operator as `center`'s per-slab matrices T,
    E = ⊕ T ⊗ 1; `dens` holds ‖x − E‖ = max_l ‖Y_l‖, one batched
    `alg.top_singular_values` per M-block; and `positive_norms` holds
    (‖x‖, ‖E‖) for each x ≥ 0 (`_is_positive`) and None for the others, the
    facts of `pinching_floors`.  Every reader takes the stacks whole;
    nothing is kept in M coordinates but F itself.
    """

    inclusion: Inclusion
    operators: tuple
    epsilon: float
    index: float = None
    slab_stacks: tuple = field(init=False, repr=False, compare=False)
    commutant: tuple = field(init=False, repr=False, compare=False)
    dens: np.ndarray = field(init=False, repr=False, compare=False)
    positive_norms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.operators = tuple(self.operators)
        if not self.operators:
            raise PavingError("F must be nonempty")
        _check_epsilon(self.epsilon)
        if self.index is None:
            self.index = self.inclusion.known_index
        _check_index(self.index)
        for x in self.operators:
            if x.shape != self.inclusion.m_shape:
                raise alg.ShapeMismatchError("operators must live over M")
        self.slab_stacks = tuple(np.empty((len(self.operators), d, d), dtype=np.complex128)
                                 for d in self.inclusion.m_shape.block_dims)
        self.commutant = tuple(self.inclusion.center(x, [ys[i] for ys in self.slab_stacks])[0]
                               for i, x in enumerate(self.operators))
        self.dens = np.max([alg.top_singular_values(ys) for ys in self.slab_stacks], axis=0)
        self.positive_norms = tuple((op_norm(x), commutant_norm(parts)) if _is_positive(x)
                                    else None for x, parts in zip(self.operators, self.commutant))

    def pinching_floors(self, excess) -> list:
        """‖x‖ / (‖E‖ + excess) for each x ≥ 0 of F, else None: the least r
        of an r-part pinch or r-unitary average within `excess` of E, since
        x ≤ r Σ p_i x p_i and x ≤ Σ u_i x u_i* (pinching inequality)."""
        return [None if norms is None else norms[0] / max(norms[1] + float(ex), NORM_FLOOR)
                for norms, ex in zip(self.positive_norms, excess)]

    def with_epsilon(self, epsilon: float) -> "PavingProblem":
        """This problem at another ε, sharing the centered operators."""
        _check_epsilon(epsilon)
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
    """(n, m, r): outer size ceil(16/ε²), refinement ceil(4·index/ε²), r = n m,
    each ceiling by `alg.ceil_guarded`."""
    _check_epsilon(epsilon)
    _check_index(index)
    n = alg.ceil_guarded(16.0 * epsilon ** -2)
    m = alg.ceil_guarded(4.0 * index * epsilon ** -2)
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
    """x = x* and x >= 0, both within TOL_PROJ.  x >= −TOL_PROJ·1 bounds the
    diagonal of its Hermitian part the same way, which screens out most
    trace-zero x before the eigensolve."""
    return (alg.hermitian_part_residual(x) <= TOL_PROJ
            and min(float(b.diagonal().real.min()) for b in x.blocks) >= -TOL_PROJ
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

    A candidate is checked in a fixed order: its shape must be N's, and its
    residual δ (the frame residual ‖U*U − 1‖ of a partition, the largest
    ‖u u* − 1‖ of a family) at most TOL_PROJ; only then are its matrices
    read.  E = E_{N'∩M}(x) commutes with N, so a pinch or an average of x,
    minus E, is the same compression of x − E, which is read off the slab
    stacks Y_l of the problem (see the module docstring): no M-coordinate
    x − E, pinch, average or embedded element is formed.  A partition's
    ratio is its largest part-block norm ‖G_i* Y_l G_i‖ (`alg.part_norms`),
    or in l2 mode sqrt(Σ_l t_l Σ_i ‖G_i* Y_l G_i‖_F² / Σ_l t_l ‖Y_l‖_F²)
    against the threshold n_parts^(-1/2) + delta_l2 from `config` (n_parts
    defaults to the partition size, delta_l2 to L2_SLACK).  A family's
    ratio is the largest norm of (1/r) Σ_i V_i Y_l V_i*, V_i = ⊕_k 1 ⊗ u_{i,k},
    each term the compression of Y_l by the frames u_{i,k}* (`alg.compression`).

    A candidate is accepted for the exact one nearest to it: its frames, or
    each of its unitaries, lie within δ of exact ones in operator norm,
    which moves a part block or a term V_i Y_l V_i* by at most
    (2δ + δ²)‖Y_l‖ ≤ (2δ + δ²)‖x − E‖.  So it is verified only when every
    ratio + 2δ + δ² is within the threshold + VERIFY_SLACK, and 2δ + δ² is
    recorded for every x under diagnostics["residual_bound"].

    In every mode each x ≥ 0 gets the floor ‖x‖ / (‖E‖ + num + (2δ + δ²)‖x − E‖)
    of `PavingProblem.pinching_floors`, num the operator-norm ‖pinch − E‖
    or ‖avg − E‖ (l2 mode included), under diagnostics["lower_bounds"].  An
    r below a floor by more than VERIFY_SLACK sets the soundness alarm: the
    verifier itself is broken, and nothing is verified.
    """
    if isinstance(candidate, PavingCertificate):
        inner = candidate.partition if candidate.partition is not None else candidate.unitaries
        return verify(problem, inner, mode=candidate.mode, seed=candidate.seed,
                      config=candidate.config, diagnostics=candidate.diagnostics)

    inc = problem.inclusion
    config = config or {}
    diagnostics = dict(diagnostics or {})
    count = len(problem.operators)
    threshold = problem.epsilon
    largest = np.zeros(count)   # ‖pinch − E‖ or ‖avg − E‖ of each x
    partition = unitaries = None

    if isinstance(candidate, PartitionOfUnity):
        partition, mode = candidate, mode or "partition"
        if candidate.shape != inc.n_shape:
            raise CandidateRejected("partition must live over N",
                                    {"shape": str(candidate.shape)})
        worst = candidate.residual()
        if not worst <= TOL_PROJ:
            raise CandidateRejected(
                f"partition frames are not unitary within {TOL_PROJ} "
                f"(residual {worst:.3e})", {"frame_residual": worst})
        r = candidate.size
        square = np.zeros(count)
        for l, (ys, t) in enumerate(zip(problem.slab_stacks, inc.m_shape.trace_weights)):
            layout = alg.part_layout(candidate.ranks, inc.slab_layout(l))
            norms, fro = alg.part_norms(candidate.stacks, layout, ys)
            largest = np.maximum(largest, norms.max(axis=1))
            square += t * fro
    else:
        unitaries, mode = list(candidate), "unitaries"
        if not unitaries:
            raise CandidateRejected("empty unitary family")
        for u in unitaries:
            if u.shape != inc.n_shape:
                raise CandidateRejected("unitaries must live over N",
                                        {"shape": str(u.shape)})
        worst = float(np.max([alg.unitary_residual(u) for u in unitaries]))
        if not worst <= TOL_PROJ:
            raise CandidateRejected(
                f"candidate family is not unitary within {TOL_PROJ}",
                {"unitary_residual": worst})
        r = len(unitaries)
        adjoints = [[b.conj().T for b in u.blocks] for u in unitaries]
        for l, ys in enumerate(problem.slab_stacks):
            avg = sum(alg.compression(frames, inc.slab_layout(l), ys) for frames in adjoints) / r
            largest = np.maximum(largest, alg.top_singular_values(avg))

    nums, dens = largest, problem.dens.tolist()
    if mode == "l2":
        nums = np.sqrt(square)
        dens = [math.sqrt(sum(t * np.sum(np.abs(ys[i]) ** 2) for ys, t in
                              zip(problem.slab_stacks, inc.m_shape.trace_weights)))
                for i in range(count)]
        threshold = (config.get("n_parts") or r) ** -0.5 + config.get("delta_l2", L2_SLACK)
    ratios = [0.0 if den <= DEGENERATE_DEN else float(num) / den
              for num, den in zip(nums, dens)]
    bound = 2 * worst + worst ** 2
    diagnostics["residual_bound"] = [bound] * count
    floors = problem.pinching_floors(largest + bound * problem.dens)
    diagnostics["lower_bounds"] = floors
    alarm = any(floor is not None and r < floor - VERIFY_SLACK for floor in floors)
    verified = max(ratios) + bound <= threshold + VERIFY_SLACK
    return PavingCertificate(
        mode=mode, per_x_ratio=ratios, r=r, epsilon=problem.epsilon,
        threshold=threshold, verified=verified and not alarm, seed=seed,
        config=config, diagnostics=diagnostics, partition=partition,
        unitaries=unitaries, soundness_alarm=alarm)


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
    docstring), so C is the compression `alg.compression` of Y_l by the
    frame [w] over one slab of mult copies; its columns run copy by copy,
    w once per copy."""
    corners, grams = [], []
    for ys in slab_stacks:
        c = alg.compression([w], ((0, ys.shape[1] // len(w)),), ys)[live]
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


def _corner_expectation(b_stacks, mults, t_weights, s0) -> np.ndarray:
    """h = w* E_N(v b v*) w for corner elements b = (b_l) of the embedded
    frame v of a part w over a single-block N, one (count, mult_l r, mult_l r)
    stack b_l per M-block l.  The columns of v_l are w once per copy, so E_N,
    which averages the diagonal copy blocks, leaves the (count, r, r) stack
    h = Σ_l t_l Σ_c b_l[c, c] / s_0, a trace over the copy index."""
    r = b_stacks[0].shape[1] // mults[0]
    return sum(t * np.einsum("xaiaj->xij", b.reshape(-1, m, r, m, r))
               for b, m, t in zip(b_stacks, mults, t_weights)) / s0


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

    Where q_i ≠ 0, stage (iii) and eq (1) run once per M-block l on the
    corner grams a of all live x: b_l = z (z* a z) z*, z the frame of q_i
    there, is formed once and reused by the eq (1) residual
    a − z z* a − a z z* + b_l; one batched `eigvalsh` per block and one
    batched `eigh` of the expectations h give every tail and support.
    Eq (2)–(4) pinch corner elements by the refinement Z_1..Z_m of the
    part, which in the corner coordinates of M-block l is 1_mult ⊗ Z_j, one
    slab of mult copies.  They are read off its part blocks: the refined
    expectation max_j ‖Z_j* h Z_j‖, the transfer side
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
    base_config = {
        "n_parts": n, "m_refine": m, "delta_prime": cfg.delta_prime,
        "retry_budget": cfg.retry_budget, "index": problem.index,
    }
    if problem.epsilon >= 1.0:
        return _trivial_certificate(problem, cfg.seed, base_config)

    # the slab-stack rows of the operators outside the relative commutant
    live = np.flatnonzero(problem.dens > DEGENERATE_DEN).tolist()
    if not live:
        cert = _trivial_certificate(problem, cfg.seed, base_config)
        cert.diagnostics["normalization"] = "all operators lie in the commutant"
        return cert
    scale = 1.0 / problem.dens[live]

    theta_exc = 4.0 * (n - 1) / n ** 2 + cfg.delta_prime
    certified_bound = math.sqrt(theta_exc) + math.sqrt(problem.index / m)
    mults = inc.spec.inclusion_matrix[0]
    t_weights = inc.m_shape.trace_weights
    s0 = inc.n_shape.trace_weights[0]

    sizes = alg.balanced_sizes(dim_n, n)
    bounds_idx = np.cumsum([0] + sizes)
    attempts = []
    best_cert = None
    for attempt in range(cfg.retry_budget + 1):
        u = alg.haar_block(child_rng(cfg.seed, attempt), dim_n)
        record = {"attempt": attempt, "stage_ok": True, "reason": None,
                  "tau_q": [], "support_ranks": [], "compression_tail": [], "refined_expectation": [],
                  "transfer_lhs": [], "transfer_rhs": [], "schwarz_min": [],
                  "support_trace_bound": []}
        stacks, ranks = [], []
        for i in range(n):
            w_i = u[:, bounds_idx[i]:bounds_idx[i + 1]]
            r_i = w_i.shape[1]
            corner_stacks, gram_stacks = _slab_corners(problem.slab_stacks, w_i, live, scale)
            # per M-block: the screened tops and frames of every live operator
            tops, frames = zip(*(_exceptional_frames(a, theta_exc) for a in gram_stacks))
            q_frames = _join_frames(list(zip(*frames)), [a.shape[1] for a in gram_stacks])
            tau_q = sum(t * z.shape[1] for t, z in zip(t_weights, q_frames))
            record["tau_q"].append(tau_q)
            if tau_q > cfg.delta_prime + TAU_SLACK:
                record.update(stage_ok=False,
                              reason=f"exceptional trace {tau_q:.3g} exceeds "
                                     f"delta' = {cfg.delta_prime:.3g} at part {i}")
                break

            if not any(z.shape[1] for z in q_frames):
                # q_i = 0: the closed forms of the docstring
                record["compression_tail"].extend(math.sqrt(max(0.0, *top_x))
                                                  for top_x in zip(*tops))
                record["support_trace_bound"].extend([(0.0, 0.0)] * len(live))
                record["support_ranks"].append(0)
                for key in ("refined_expectation", "transfer_lhs", "transfer_rhs",
                            "schwarz_min"):
                    record[key].extend([0.0] * len(live))
                z_stack, part_ranks = _empty_refinement(r_i, m)
                stacks.append(w_i @ z_stack)
                ranks.extend(part_ranks)
                continue

            # per M-block, for every live operator at once: b = z z* a z z*
            # of the corner gram a and q's frame z there, and eq (1), the
            # trimmed compression a − z z* a − a z z* + b under the threshold
            b_stacks, tail = [], 0.0
            for a, z in zip(gram_stacks, q_frames):
                zh = z.conj().T
                za = zh @ a
                b = z @ (za @ z) @ zh
                res = a - z @ za - (a @ z) @ zh + b
                w = np.linalg.eigvalsh((res + res.conj().swapaxes(1, 2)) / 2)
                tail = np.maximum(tail, w[:, -1])
                b_stacks.append(b)
            record["compression_tail"].extend(np.sqrt(tail).tolist())

            # stage (iii): the N-expectation h of b = q x* p x q and its supports
            h = _corner_expectation(b_stacks, mults, t_weights, s0)
            w_h, v_h = np.linalg.eigh((h + h.conj().swapaxes(1, 2)) / 2)
            cuts = RANK_CUT * np.maximum(w_h[:, -1], 0.0)
            supports = [v[:, w > cut] for w, v, cut in zip(w_h, v_h, cuts)]
            record["support_trace_bound"].extend(
                (supp.shape[1] * s0, problem.index * tau_q) for supp in supports)
            e_join = _join_frames([[supp] for supp in supports], [r_i])[0]
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
                                     h)[0].max(axis=1)
            transfer_lhs = np.zeros(len(live))
            schwarz_min = np.full(len(live), np.inf)
            for c, b_l, z, mult in zip(corner_stacks, b_stacks, q_frames, mults):
                layout = alg.part_layout((part_ranks,), ((0, mult),))
                transfer_lhs = np.maximum(
                    transfer_lhs, alg.part_norms([z_stack], layout, b_l)[0].max(axis=1))
                # y = p x q in corner coordinates; the Schwarz gap of the pinch
                # is, part by part, Z_j′* y*y Z_j′ − B_j* B_j with B_j = Z_j′* y Z_j′
                y = c @ (z @ z.conj().T)
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
            "normalization_norms": problem.dens[live].tolist(),
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
    # of the last attempt's unitary u
    partition = PartitionOfUnity(inc.n_shape, [u], [sizes])
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
    if problem.epsilon >= 1.0 or not (problem.dens > DEGENERATE_DEN).any():
        return _trivial_certificate(problem, cfg.seed, config)

    copies = [inc.slab_layout(l) for l in range(inc.m_shape.num_blocks)]
    # an operator inside the relative commutant scores 0
    dens = np.where(problem.dens > DEGENERATE_DEN, problem.dens, np.inf)[:, None]

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

    With N = M the slab basis u_l Π_l of each M-block is the embedding of
    its N-block, so the folds run on the live rows of the slab stacks Y_l as
    elements of N: a fold averages every stack at once, and one batched norm
    per block gives every operator's ratio, the stall test's included.  The
    fold unitaries form the family over N as they are.
    """
    inc = problem.inclusion
    config = {"stall_budget": STALL_BUDGET, "max_folds": MAX_FOLDS}
    live = np.flatnonzero(problem.dens > DEGENERATE_DEN)
    if not len(live):
        return verify(problem, [identity(inc.n_shape)], seed=seed, config=config)
    if not inc.spec.is_trivial:
        raise ResourceError(
            "averaging folds need N = M; proper inclusions are only supported "
            "for operator sets inside the relative commutant")
    current = [ys[live] for ys in problem.slab_stacks]
    if any(np.linalg.norm(c - c.conj().swapaxes(1, 2), axis=(1, 2)).max() > TOL_PROJ
           for c in current):
        raise PavingError("operators must be self-adjoint after centering")

    def norms(stacks):
        # ‖y‖ of every live operator, as `op_norm` gives it
        return np.maximum(0.0, np.max([alg.top_singular_values(c) for c in stacks], axis=0))

    def average(stacks, w):
        # (y + w y w*) / 2 of every live operator y, and its norms
        folded = [0.5 * (c + a @ c @ a_adj)
                  for c, a, a_adj in zip(stacks, w.blocks, w.adjoint().blocks)]
        return folded, norms(folded)

    dens = problem.dens[live]
    family = [identity(inc.n_shape)]
    folds, stalls = 0, 0
    history = []
    current_norms = norms(current)
    while True:
        ratios = current_norms / dens
        history.append(float(ratios.max()))
        if history[-1] <= problem.epsilon + VERIFY_SLACK:
            break
        if folds >= MAX_FOLDS or stalls > STALL_BUDGET:
            break
        worst = int(np.argmax(ratios))
        blocks = []
        for c in current:
            _, v = np.linalg.eigh((c[worst] + c[worst].conj().T) / 2)
            blocks.append(v @ v[:, ::-1].conj().T)
        w = Element(inc.n_shape, blocks)
        trial, trial_norms = average(current, w)
        if trial_norms[worst] > 0.99 * current_norms[worst]:
            stalls += 1
            w = alg.random_haar_unitary(inc.n_shape, child_rng(seed, folds))
            trial, trial_norms = average(current, w)
        current, current_norms = trial, trial_norms
        family = family + [w @ f for f in family]
        folds += 1

    return verify(problem, family, seed=seed, config=config,
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

    The lower bound is the pinching floor of `PavingProblem.pinching_floors`
    for each nonzero x >= 0 of F: a verified paving has
    ‖Σ p_i x p_i − E(x)‖ <= (ε + VERIFY_SLACK) ‖x − E(x)‖, E = E_{N'∩M},
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
    for gi, eps in enumerate(epsilons):
        problem = base.with_epsilon(eps)
        theorem_r = paving_partition_bound(problem.index, eps)[2]
        floors = problem.pinching_floors((eps + VERIFY_SLACK) * problem.dens)
        lower = max((alg.ceil_guarded(floor) for floor in floors
                     if floor is not None and floor > 0.0), default=None)
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
