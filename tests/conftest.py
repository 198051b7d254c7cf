"""Shared fixtures and independent numerical oracles for the test suite."""

import math

import numpy as np
import pytest

from pavelab import algebra as alg
from pavelab import families
from pavelab import inclusion as incl
from pavelab import paving as pv
from pavelab.seeding import child_rng, child_seed


def power_iteration_norm(mat: np.ndarray, iters: int = 800, seed: int = 0) -> float:
    """Independent operator-norm estimate: power iteration on mat* mat."""
    rng = np.random.default_rng(seed)
    d = mat.shape[1]
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    gram = mat.conj().T @ mat
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return float(np.sqrt(lam))


def op_norm_power(x: alg.Element) -> float:
    return max(power_iteration_norm(b) if b.size else 0.0 for b in x.blocks)


def l2_norm(x: alg.Element) -> float:
    """Trace norm sqrt(tau(x* x))."""
    val = sum(t * np.sum(np.abs(b) ** 2) for t, b in zip(x.shape.trace_weights, x.blocks))
    return math.sqrt(max(float(val), 0.0))


def sign_spectrum(dim: int) -> np.ndarray:
    """Balanced +1/-1 (one 0 when dim is odd): trace-zero, norm-one spectrum."""
    half = dim // 2
    s = np.zeros(dim)
    s[:half] = 1.0
    s[dim - half:] = -1.0
    return s


def partial_trace_right(mat: np.ndarray, k: int, d: int) -> np.ndarray:
    """(id ⊗ Tr/d) on M_k ⊗ M_d in row-major tensor coordinates."""
    return np.einsum("iaja->ij", mat.reshape(k, d, k, d)) / d


def partial_trace_left(mat: np.ndarray, k: int, d: int) -> np.ndarray:
    """(Tr/k ⊗ id) on M_k ⊗ M_d."""
    return np.einsum("iaib->ab", mat.reshape(k, d, k, d)) / k


@pytest.fixture(scope="session")
def corpus():
    """The acceptance corpus: builtin inclusions with exactly known index."""
    return [families.scalars_in(2), families.scalars_in(3),
            families.scalars_in(4), families.tensor_product(2, 2),
            families.tensor_product(2, 3)]


def projection_defect(p: alg.Element) -> float:
    """max(‖p - p*‖, ‖p^2 - p‖) in Frobenius norm, per block max."""
    return max(max(float(np.linalg.norm(b - b.conj().T)), float(np.linalg.norm(b @ b - b)))
               for b in p.blocks)


def elements_close(a: alg.Element, b: alg.Element, tol: float) -> bool:
    """Same shape and blockwise max |a - b| <= tol."""
    assert a.shape == b.shape
    return all(np.abs(x - y).max() <= tol if x.size else True
               for x, y in zip(a.blocks, b.blocks))


def partition_from_projections(projections) -> alg.PartitionOfUnity:
    """Partition from dense projections: per block, the eigenvectors of
    eigenvalue above 1/2 are the frame, and any p with ‖p - F F*‖ > TOL_PROJ
    is rejected."""
    frames = []
    for p in projections:
        per_block = []
        for b in p.blocks:
            w, v = np.linalg.eigh((b + b.conj().T) / 2.0)
            f = v[:, w > 0.5]
            resid = float(np.linalg.norm(b - f @ f.conj().T))
            if not resid <= alg.TOL_PROJ:
                raise alg.AlgebraError(f"not a projection (residual {resid:.3e})")
            per_block.append(f)
        frames.append(per_block)
    return alg.PartitionOfUnity.from_frames(projections[0].shape, frames)


def part_labels(partition: alg.PartitionOfUnity, k: int) -> np.ndarray:
    """Part index of each column of ``partition.stacks[k]``."""
    return np.repeat(np.arange(partition.size), partition.ranks[k])


def part_compression(g: np.ndarray, labels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mask ⊙ (g* x g), the mask keeping the entries whose two columns carry
    the same part label: the blocks g_i* x g_i of the parts g_i of one
    stacked frame g."""
    c = g.conj().T @ x @ g
    return np.where(labels[:, None] == labels[None, :], c, 0.0)


def pinch(partition: alg.PartitionOfUnity, x: alg.Element) -> alg.Element:
    """sum_i p_i x p_i as the dense product g (mask ⊙ g* x g) g* per block."""
    if partition.shape != x.shape:
        raise alg.ShapeMismatchError("partition and element shapes differ")
    return alg.Element(x.shape, [g @ part_compression(g, part_labels(partition, k), b) @ g.conj().T
                                 for k, (g, b) in enumerate(zip(partition.stacks, x.blocks))])


def cyclic_unitary(partition: alg.PartitionOfUnity) -> alg.CyclicUnitary:
    """v = sum_k alpha^(k-1) p_k with alpha = exp(2 pi i / n); v^n = 1.
    Rejects a partition whose frame residual exceeds TOL_PROJ."""
    n = partition.size
    worst = partition.residual()
    if not worst <= alg.TOL_PROJ:
        raise alg.AlgebraError(f"partition frame residual {worst:.3e} exceeds {alg.TOL_PROJ}")
    alpha = np.exp(2j * np.pi / n)
    blocks = [(u * alpha ** part_labels(partition, k)) @ u.conj().T
              for k, u in enumerate(partition.stacks)]
    return alg.CyclicUnitary(v=alg.Element(partition.shape, blocks), order=n)


def unitary_average(unitaries, x: alg.Element) -> alg.Element:
    """(1/n) sum_i u_i x u_i*, the literal average over M-coordinate blocks."""
    acc = alg.zero(x.shape)
    for u in unitaries:
        acc = acc + (u @ x @ u.adjoint())
    return (1.0 / len(unitaries)) * acc


def half_trace(shape: alg.AlgebraShape) -> float:
    """A trace a projection of `shape` can have: ⌈n_k/2⌉ of each block."""
    return sum(t * -(-d // 2) for t, d in zip(shape.trace_weights, shape.block_dims))


def random_spec(seed):
    """A seeded spec with two or three blocks on each side, multiplicities
    up to 2 and random trace weights."""
    rng = child_rng(seed)
    nb, mb = (int(v) for v in rng.integers(2, 4, size=2))
    n_dims = rng.integers(1, 4, size=nb)
    lam = rng.integers(0, 3, size=(nb, mb))
    while not (lam.any(axis=0).all() and lam.any(axis=1).all()):
        lam = rng.integers(0, 3, size=(nb, mb))
    m_dims = lam.T @ n_dims
    t = rng.uniform(0.5, 2.0, size=mb)
    t = t / (t @ m_dims)
    return incl.InclusionSpec(alg.AlgebraShape(tuple(n_dims), tuple(lam @ t)),
                              alg.AlgebraShape(tuple(m_dims), tuple(t)),
                              tuple(map(tuple, lam)))


def two_block_inclusion():
    """N = M_3 ⊕ M_4 Haar-embedded in M_11 ⊕ M_10 by Λ = [[1, 2], [2, 1]]:
    several N-blocks, two slabs per M-block."""
    return incl.build_inclusion(incl.InclusionSpec(
        alg.AlgebraShape((3, 4), (3 / 21, 3 / 21)), alg.AlgebraShape((11, 10), (1 / 21, 1 / 21)),
        ((1, 2), (2, 1))), seed=7)


# -- the per-copy loops over an offsets table that the slab table of
# `Inclusion` replaced, kept as references for embedded frames -------------

def ref_offsets(inc):
    """Per M-block, the first grouped row of each copy (k, c) of N-block k."""
    offsets = []
    for l in range(inc.m_shape.num_blocks):
        table, off = {}, 0
        for k, nk in enumerate(inc.n_shape.block_dims):
            for c in range(inc.spec.inclusion_matrix[k][l]):
                table[(k, c)] = off
                off += nk
        offsets.append(table)
    return offsets


def ref_from_grouped_cols(inc, l, cols):
    kind, u = inc.embed_unitaries[l]
    if kind == "id":
        return cols
    if kind == "perm":
        out = np.zeros_like(cols)
        out[u, :] = cols
        return out
    return u @ cols


def ref_embed_frame(inc, frames_n):
    out = []
    for l, ml in enumerate(inc.m_shape.block_dims):
        cols = []
        for (k, c), off in ref_offsets(inc)[l].items():
            f = frames_n[k]
            if f.shape[1] == 0:
                continue
            nk = inc.n_shape.block_dims[k]
            g = np.zeros((ml, f.shape[1]), dtype=np.complex128)
            g[off:off + nk, :] = f
            cols.append(g)
        stacked = (np.concatenate(cols, axis=1) if cols
                   else np.zeros((ml, 0), dtype=np.complex128))
        out.append(ref_from_grouped_cols(inc, l, stacked))
    return out


def ref_embed_parts(inc, frames_n, labels_n):
    """Per M-block, the embedded columns regrouped part by part (a stable
    sort by label) and their sorted labels."""
    out = []
    for l, g in enumerate(ref_embed_frame(inc, frames_n)):
        labels = np.concatenate([labels_n[k] for k, _ in ref_offsets(inc)[l]])
        order = np.argsort(labels, kind="stable")
        out.append((g[:, order], labels[order]))
    return out


def embed_partition(inc, partition: alg.PartitionOfUnity) -> alg.PartitionOfUnity:
    """The parts of a partition of N, embedded, as a partition of unity of M."""
    labels_n = [part_labels(partition, k) for k in range(inc.n_shape.num_blocks)]
    stacks, ranks = [], []
    for g, labels in ref_embed_parts(inc, partition.stacks, labels_n):
        stacks.append(g)
        ranks.append(np.bincount(labels, minlength=partition.size))
    return alg.PartitionOfUnity(inc.m_shape, stacks, ranks)


def spectral_partition(v: alg.CyclicUnitary) -> alg.PartitionOfUnity:
    """Partition from the n-th-root eigenspaces of v:
    p_k = (1/n) sum_j (conj(alpha)^k v)^j, with frames from `eigh`."""
    n = v.order
    powers = [alg.identity(v.v.shape)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ v.v)
    alpha = np.exp(-2j * np.pi / n)
    projections = []
    for k in range(n):
        acc = alg.zero(v.v.shape)
        for j, vj in enumerate(powers):
            acc = acc + (alpha ** (k * j)) * vj
        projections.append((1.0 / n) * acc)
    return partition_from_projections(projections)


def sample_pair(n: int, dim: int, seed):
    """(v, x, u, w, s): v = u diag(roots) u* of period n, each n-th root of
    unity dim/n times, and an independent x = w diag(s) w* of balanced sign
    spectrum s, for Haar u and w drawn from child_rng(seed, 0) and (seed, 1)."""
    if dim % n != 0:
        raise ValueError(f"dim {dim} is not a multiple of n = {n}")
    shape = alg.AlgebraShape.matrix(dim)
    u = alg.haar_block(child_rng(seed, 0), dim)
    w = alg.haar_block(child_rng(seed, 1), dim)
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    v_mat = (u * np.repeat(roots, dim // n)) @ u.conj().T
    s = sign_spectrum(dim)
    x_mat = (w * s) @ w.conj().T
    x = alg.Element(shape, [(x_mat + x_mat.conj().T) / 2])
    return alg.CyclicUnitary(v=alg.Element(shape, [v_mat]), order=n), x, u, w, s


def expectation_residuals(inc, seed=0, samples: int = 6) -> dict:
    """Sampled residuals of the axioms of E_N and E_{N' ∩ M}."""
    res = dict.fromkeys(("bimodular", "idempotent", "trace", "positive",
                         "comm_idempotent", "comm_commutes"), 0.0)
    for t in range(samples):
        x = alg.random_element(inc.m_shape, alg.SELFADJOINT, child_seed(seed, 0, t))
        a = inc.embed(alg.random_element(inc.n_shape, alg.SELFADJOINT, child_seed(seed, 1, t)))
        b = inc.embed(alg.random_element(inc.n_shape, alg.SELFADJOINT, child_seed(seed, 2, t)))
        ex = inc.cond_exp_n(x)
        res["idempotent"] = max(res["idempotent"], alg.op_norm(inc.cond_exp_n(ex) - ex))
        res["trace"] = max(res["trace"], abs(alg.trace(ex) - alg.trace(x)))
        res["bimodular"] = max(res["bimodular"],
                               alg.op_norm(inc.cond_exp_n(a @ x @ b) - a @ ex @ b))
        pos = alg.random_element(inc.m_shape, alg.POSITIVE, child_seed(seed, 3, t))
        w = np.concatenate([np.linalg.eigvalsh(bk) for bk in inc.cond_exp_n(pos).blocks])
        res["positive"] = max(res["positive"], max(0.0, -float(w.min())))
        ec = inc.cond_exp_comm(x)
        res["comm_idempotent"] = max(res["comm_idempotent"],
                                     alg.op_norm(inc.cond_exp_comm(ec) - ec))
        res["comm_commutes"] = max(res["comm_commutes"], alg.op_norm(ec @ a - a @ ec))
    return res


def strip_meta(obj: dict) -> dict:
    """A payload without its `meta` entry, which holds timestamps."""
    return {key: value for key, value in obj.items() if key != "meta"}


def reference_dixmier(problem, seed: int = 0):
    """`paving.dixmier_average_run` with the per-operator fold loop it had
    before the folds read the slab stacks whole: one `Element` of N per live
    operator, one `op_norm` per operator for the ratios, and two more for
    the stall test.  For N = M and a self-adjoint centered F only."""
    inc = problem.inclusion
    config = {"stall_budget": pv.STALL_BUDGET, "max_folds": pv.MAX_FOLDS}
    live = np.flatnonzero(problem.dens > pv.DEGENERATE_DEN)
    if not len(live):
        return pv.verify(problem, [alg.identity(inc.n_shape)], seed=seed, config=config)
    current = [alg.Element(inc.n_shape, [ys[i] for ys in problem.slab_stacks]) for i in live]
    dens = problem.dens[live].tolist()
    family = [alg.identity(inc.n_shape)]
    folds, stalls, history = 0, 0, []
    while True:
        ratios = [alg.op_norm(c) / d for c, d in zip(current, dens)]
        history.append(max(ratios))
        if max(ratios) <= problem.epsilon + pv.VERIFY_SLACK:
            break
        if folds >= pv.MAX_FOLDS or stalls > pv.STALL_BUDGET:
            break
        worst = int(np.argmax(ratios))
        y = current[worst]
        blocks = []
        for b in y.blocks:
            _, v = np.linalg.eigh((b + b.conj().T) / 2)
            blocks.append(v @ v[:, ::-1].conj().T)
        w = alg.Element(inc.n_shape, blocks)
        trial = [0.5 * (c + w @ c @ w.adjoint()) for c in current]
        if alg.op_norm(trial[worst]) > 0.99 * alg.op_norm(y):
            stalls += 1
            w = alg.random_haar_unitary(inc.n_shape, child_rng(seed, folds))
            trial = [0.5 * (c + w @ c @ w.adjoint()) for c in current]
        current = trial
        family = family + [w @ f for f in family]
        folds += 1
    return pv.verify(problem, family, seed=seed, config=config,
                     diagnostics={"folds": folds, "stalls": stalls, "ratio_history": history})
