"""Output checks of the benchmark, computed apart from pavelab.

Every check either recomputes an answer from the inputs with plain numpy or
tests a property the method must have; none compares against stored output.
Each returns a list of problems, empty when the output passes.

The reference inclusion is M_k ⊗ 1_d ⊆ M_k ⊗ M_d in row-major tensor
coordinates, embedding x ↦ x ⊗ 1_d.  Its relative commutant is 1_k ⊗ M_d,
with conditional expectation 1_k ⊗ (Tr ⊗ id)(x) / k.  ``self(n)`` is the case
(k, d) = (n, 1): the embedding is the identity and the expectation τ(x)·1.
"""

from __future__ import annotations

import json
import math

import numpy as np

RATIO_RTOL = 1e-9        # recomputed ratio against the program's, relative
FRAME_TOL = 1e-8         # ‖U*U − 1‖ entrywise for the stacked frames
REFINED_TOL = 1e-8       # refined expectation ≤ 1/m
STAGE_TOL = 1e-9         # transfer rhs − lhs ≥ 0 and Schwarz residual ≥ 0
VERIFY_SLACK = 1e-9      # ratio ≤ ε, as the certificate threshold allows


# -- reference operators -------------------------------------------------------

def comm_expectation(x: np.ndarray, k: int, d: int) -> np.ndarray:
    """E_{N'∩M}(x) = 1_k ⊗ (Tr ⊗ id)(x) / k."""
    part = np.einsum("iaib->ab", x.reshape(k, d, k, d)) / k
    return np.kron(np.eye(k), part)


def pinch(frames, x: np.ndarray, d: int) -> np.ndarray:
    """Σ_i (P_i ⊗ 1_d) x (P_i ⊗ 1_d) with P_i = F_i F_i*."""
    out = np.zeros_like(x)
    for f in frames:
        g = np.kron(f, np.eye(d))
        out += g @ (g.conj().T @ x @ g) @ g.conj().T
    return out


def ratio(reduced: np.ndarray, x: np.ndarray, k: int, d: int) -> float:
    """‖reduced − E(x)‖ / ‖x − E(x)‖ in the operator norm."""
    e = comm_expectation(x, k, d)
    return float(np.linalg.norm(reduced - e, 2) / np.linalg.norm(x - e, 2))


def pinching_ratio(frames, x: np.ndarray, k: int, d: int) -> float:
    return ratio(pinch(frames, x, d), x, k, d)


def averaging_ratio(unitaries, x: np.ndarray) -> float:
    """Ratio of the unitary average (1/n) Σ u x u* over N = M."""
    avg = sum(u @ x @ u.conj().T for u in unitaries) / len(unitaries)
    return ratio(avg, x, x.shape[0], 1)


def frame_residual(frames, k: int) -> float:
    """max |U*U − 1| for the stacked frames U; inf unless U is k × k."""
    u = np.concatenate(frames, axis=1)
    if u.shape != (k, k):
        return math.inf
    return float(np.abs(u.conj().T @ u - np.eye(k)).max())


def kesten_constant(n: int) -> float:
    return 2.0 * math.sqrt(n - 1) / n


# -- checks on program outputs -------------------------------------------------

def _same(ref: float, got: float) -> bool:
    return abs(ref - got) <= RATIO_RTOL * max(abs(ref), 1e-300)


def check_partition(frames, ratios, xs, k: int, d: int, epsilon: float,
                    r: int) -> list:
    """Frames orthonormal and complete, r parts, each ratio recomputed and ≤ ε."""
    problems = []
    if len(frames) != r:
        problems.append(f"{len(frames)} parts, expected r = {r}")
    resid = frame_residual(frames, k)
    if not resid <= FRAME_TOL:
        problems.append(f"frames not orthonormal and complete: residual {resid:.3e}")
        return problems
    if len(ratios) != len(xs):
        return problems + [f"{len(ratios)} ratios for {len(xs)} operators"]
    for i, (x, got) in enumerate(zip(xs, ratios)):
        ref = pinching_ratio(frames, x, k, d)
        if not _same(ref, got):
            problems.append(f"x[{i}]: ratio {got!r} but recomputed {ref!r}")
        if ref > epsilon + VERIFY_SLACK:
            problems.append(f"x[{i}]: ratio {ref!r} exceeds epsilon {epsilon}")
    return problems


def check_stages(diagnostics: dict, m: int) -> list:
    """Stage inequalities of the attempt that produced the certificate."""
    record = diagnostics["attempts"][-1]
    problems = []
    if not record["stage_ok"]:
        problems.append(f"accepted attempt failed a stage: {record['reason']}")
    for v in record["refined_expectation"]:
        if not v <= 1.0 / m + REFINED_TOL:
            problems.append(f"refined expectation {v!r} > 1/{m}")
    for lhs, rhs in zip(record["transfer_lhs"], record["transfer_rhs"]):
        if not rhs - lhs >= -STAGE_TOL:
            problems.append(f"transfer lhs {lhs!r} > rhs {rhs!r}")
    for v in record["schwarz_min"]:
        if not v >= -STAGE_TOL:
            problems.append(f"Schwarz residual {v!r} < 0")
    return problems


def check_search(frames, ratios, history, best_objective, xs, k: int, d: int,
                 epsilon: float, r: int) -> list:
    problems = check_partition(frames, ratios, xs, k, d, epsilon, r)
    if any(b > a for a, b in zip(history, history[1:])):
        problems.append("incumbent history increases")
    worst = max(pinching_ratio(frames, x, k, d) for x in xs)
    if not _same(worst, best_objective):
        problems.append(f"best_objective {best_objective!r} but recomputed {worst!r}")
    return problems


def check_kesten(norms, n: int, slack: float) -> list:
    """Properties of the law: norms in [0, 1], max ≤ bound + slack, mean near it."""
    norms = np.asarray(norms, dtype=float)
    bound = kesten_constant(n)
    problems = []
    if norms.size == 0 or norms.min() < 0.0 or norms.max() > 1.0:
        problems.append("a pinched norm lies outside [0, 1]")
    elif norms.max() > bound + slack:
        problems.append(f"max norm {norms.max()!r} > {bound!r} + {slack}")
    elif abs(norms.mean() - bound) > slack:
        problems.append(f"mean norm {norms.mean()!r} not within {slack} of {bound!r}")
    return problems


# -- certificates on disk, read without pavelab ------------------------------------

def _pairs(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def certificate_frames(cert: dict) -> list:
    """Frames of an inline single-block partition."""
    return [_pairs(frame[0]) for frame in cert["partition"]["frames"]]


def certificate_unitaries(cert: dict) -> list:
    return [_pairs(u["blocks"][0]) for u in cert["unitaries"]]


def check_verify_report(cert: dict, report: dict) -> list:
    """A verify report must reproduce the stored ratios bit for bit."""
    problems = []
    if not report.get("verified"):
        problems.append("verify report is not verified")
    if report.get("per_x_ratio") != cert["per_x_ratio"]:
        problems.append(f"verify ratios {report.get('per_x_ratio')} differ from "
                        f"stored {cert['per_x_ratio']}")
    return problems


def check_stored_ratios(refs, cert: dict) -> list:
    """Independently recomputed ratios against those a certificate stores."""
    stored = cert["per_x_ratio"]
    if len(refs) != len(stored):
        return [f"{len(stored)} stored ratios for {len(refs)} operators"]
    return [f"x[{i}]: stored ratio {got!r} but recomputed {ref!r}"
            for i, (ref, got) in enumerate(zip(refs, stored)) if not _same(ref, got)]
