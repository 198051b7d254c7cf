"""Tests for paving bounds, constructions, search, averaging, and verification."""

import copy
import math

import numpy as np
import pytest

from pavelab import algebra as alg
from pavelab import families
from pavelab import inclusion as incl
from pavelab import paving as pv
from pavelab.algebra import AlgebraShape, Element, identity, op_norm, trace
from pavelab.seeding import child_rng, child_seed
from pavelab.serialize import canonical_dumps

from conftest import (embed_partition, half_trace, l2_norm, part_compression, part_labels,
                      partition_from_projections, pinch, ref_embed_frame, reference_dixmier,
                      two_block_inclusion, unitary_average)


def selfadjoint(shape, seed):
    return alg.random_element(shape, alg.SELFADJOINT, seed)


def live_rows(problem):
    """The operators outside the relative commutant, as slab-stack rows."""
    return np.flatnonzero(problem.dens > pv.DEGENERATE_DEN).tolist()


def centered(problem, rows=None):
    """(x, x − E, ‖x − E‖) of the operators at `rows` (all by default) in M
    coordinates, E = `Inclusion.cond_exp_comm`(x) and ‖x − E‖ the problem's
    denominator."""
    rows = range(len(problem.operators)) if rows is None else rows
    ops = [problem.operators[i] for i in rows]
    return [(x, x - problem.inclusion.cond_exp_comm(x), float(problem.dens[i]))
            for i, x in zip(rows, ops)]


class TestBounds:
    def test_partition_bound_examples(self):
        assert pv.paving_partition_bound(4, 1.0) == (16, 16, 256)
        assert pv.paving_partition_bound(2, 0.5) == (64, 32, 2048)
        assert pv.paving_partition_bound(1, 2.0) == (4, 1, 4)
        assert pv.paving_partition_bound(4, 0.9) == (20, 20, 400)

    def test_lower_bound_examples(self):
        assert abs(pv.averaging_count_lower_bound(0.05, 0.05) - 10.0) < 1e-12
        assert abs(pv.averaging_count_lower_bound(1.0, 1.0) - 0.5) < 1e-12
        # trace -> 0 recovers the 1/epsilon floor
        assert abs(pv.averaging_count_lower_bound(0.0, 0.25) - 4.0) < 1e-12

    def test_dixmier_count_examples(self):
        assert pv.dixmier_count_bound(0.5) == 4
        assert pv.dixmier_count_bound(0.25) == 11
        assert pv.dixmier_count_bound(0.1) == 52
        assert pv.dixmier_count_bound(1.0) == 1

    def test_dixmier_count_monotone(self):
        values = [pv.dixmier_count_bound(e) for e in (0.9, 0.5, 0.3, 0.1, 0.05)]
        assert values == sorted(values)

    def test_domains(self):
        with pytest.raises(pv.PavingError):
            pv.paving_partition_bound(0.5, 1.0)
        with pytest.raises(pv.PavingError):
            pv.dixmier_count_bound(1.5)
        with pytest.raises(pv.PavingError):
            pv.averaging_count_lower_bound(-0.1, 0.5)

    @pytest.mark.parametrize("index, epsilon, message", [
        (4.0, math.nan, "epsilon"), (4.0, math.inf, "epsilon"), (4.0, 0.0, "epsilon"),
        (math.nan, 0.5, "index"), (math.inf, 0.5, "index"), (0.5, 0.5, "index"),
    ])
    def test_partition_bound_refuses_non_finite(self, index, epsilon, message):
        # NaN fails every comparison, so `epsilon <= 0` alone let it through
        with pytest.raises(pv.PavingError, match=message):
            pv.paving_partition_bound(index, epsilon)


@pytest.fixture(scope="module")
def aligned_pipeline_case():
    """tensor(32,2) with a rank-one operator aligned to the first sampled
    partition part, which forces the exceptional stage to fire."""
    inc = families.tensor_product(32, 2)
    seed = 5
    u = alg.haar_block(child_rng(seed, 0), 32)
    w = u[:, :1]
    frame_m = ref_embed_frame(inc, [w])[0]
    xi = frame_m[:, :1]
    x = Element(inc.m_shape, [xi @ xi.conj().T])
    problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.99,
                               index=4.0)
    return inc, problem, seed


class TestConstructivePipeline:
    def test_commutant_family_trivial(self):
        inc = families.tensor_product(4, 2)
        b = np.diag([1.0, -1.0]).astype(complex)
        x = Element(inc.m_shape, [np.kron(np.eye(4), b)])
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5,
                                   index=4.0)
        cert = pv.pave_constructive(problem, pv.PipelineConfig(2, 2, seed=1))
        assert cert.r == 1 and cert.verified
        assert cert.per_x_ratio == [0.0]

    def test_degenerate_self_inclusion(self):
        # N = M: the spectral partition of v is already the paving; the ratio
        # stays under the free pinching constant plus finite-dim slack
        inc = families.self_inclusion(64)
        x = selfadjoint(inc.m_shape, 2)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.95,
                                   index=1.0)
        cert = pv.pave_constructive(problem, pv.PipelineConfig(4, 4, seed=3))
        assert cert.verified
        assert max(cert.per_x_ratio) <= 2 * math.sqrt(3) / 4 + 0.1

    def test_epsilon_ge_one_trivial(self):
        inc = families.self_inclusion(8)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 4)],
                                   epsilon=1.5, index=1.0)
        cert = pv.pave_constructive(problem, pv.PipelineConfig(2, 2, seed=0))
        assert cert.r == 1 and cert.verified
        assert max(cert.per_x_ratio) <= 1.0 + 1e-9

    def test_dimension_resource_error(self):
        inc = families.self_inclusion(8)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 5)],
                                   epsilon=0.5, index=1.0)
        with pytest.raises(pv.ResourceError):
            pv.pave_constructive(problem, pv.PipelineConfig(3, 3, seed=0))

    def test_multiblock_subalgebra_rejected(self):
        spec_n = AlgebraShape((1, 1), (0.5, 0.5))
        spec_m = AlgebraShape.matrix(2)
        from pavelab.inclusion import Inclusion, InclusionSpec
        inc = Inclusion(InclusionSpec(spec_n, spec_m, ((1,), (1,))), [("id", None)])
        x = selfadjoint(inc.m_shape, 6)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5,
                                   index=2.0)
        with pytest.raises(pv.ResourceError):
            pv.pave_constructive(problem, pv.PipelineConfig(1, 1, seed=0))

    def test_delta_prime_domain(self):
        with pytest.raises(pv.PavingError):
            pv.PipelineConfig(4, 4, delta_prime=0.3)

    def test_exceptional_stage_fires(self, aligned_pipeline_case):
        inc, problem, seed = aligned_pipeline_case
        cfg = pv.PipelineConfig(4, 2, delta_prime=0.1, retry_budget=0, seed=seed)
        cert = pv.pave_constructive(problem, cfg)
        rec = cert.diagnostics["attempts"][0]
        assert rec["stage_ok"]
        assert max(rec["tau_q"]) > 0.0
        theta = cert.diagnostics["theta_exceptional"]
        assert all(v <= math.sqrt(theta) + 1e-9 for v in rec["compression_tail"])
        assert all(v <= 1.0 / 2 + 1e-8 for v in rec["refined_expectation"])
        assert all(l <= r + 1e-8 for l, r in zip(rec["transfer_lhs"], rec["transfer_rhs"]))
        assert all(v >= -1e-9 for v in rec["schwarz_min"])
        assert all(lhs <= rhs + 1e-9 for lhs, rhs in rec["support_trace_bound"]
                   if rhs > 0)
        assert cert.r == 8
        assert max(cert.per_x_ratio) <= 1.0 + 1e-9

    def test_retry_on_budget_violation(self, aligned_pipeline_case):
        inc, problem, seed = aligned_pipeline_case
        # the aligned operator forces tau(q) ~ 1/32 > delta' on attempt 0;
        # a fresh rotation is generic and passes
        cfg = pv.PipelineConfig(4, 2, delta_prime=0.012, retry_budget=8, seed=seed)
        cert = pv.pave_constructive(problem, cfg)
        attempts = cert.diagnostics["attempts"]
        assert not attempts[0]["stage_ok"]
        assert "delta" in attempts[0]["reason"]
        assert attempts[-1]["stage_ok"]
        assert cert.verified

    def test_stage_exhaustion_returns_diagnostics(self, aligned_pipeline_case):
        inc, problem, seed = aligned_pipeline_case
        cfg = pv.PipelineConfig(4, 2, delta_prime=0.012, retry_budget=0, seed=seed)
        cert = pv.pave_constructive(problem, cfg)
        assert cert.diagnostics.get("stage_exhausted")
        assert not cert.diagnostics["attempts"][0]["stage_ok"]
        assert cert.r == 4  # falls back to the outer partition

    def test_reverification_bit_identical(self):
        inc = families.tensor_product(16, 2)
        ops = [selfadjoint(inc.m_shape, child_seed(7, t)) for t in range(2)]
        problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.9,
                                   index=4.0)
        cert = pv.pave_constructive(problem, pv.PipelineConfig(2, 2, seed=8))
        again = pv.verify(problem, cert)
        assert again.per_x_ratio == cert.per_x_ratio
        assert again.verified == cert.verified
        rerun = pv.pave_constructive(problem, pv.PipelineConfig(2, 2, seed=8))
        assert rerun.per_x_ratio == cert.per_x_ratio

    def test_kadison_inequality_on_pipeline_partition(self):
        # the pinching map of the refined partition is unital completely
        # positive: its Schwarz gap stays PSD on random operators
        inc = families.tensor_product(8, 2)
        x = selfadjoint(inc.m_shape, 9)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.95,
                                   index=4.0)
        cert = pv.pave_constructive(problem, pv.PipelineConfig(2, 2, seed=10))
        embedded = embed_partition(inc, cert.partition)
        for t in range(100):
            rng = child_rng(11, t)
            y = Element(inc.m_shape, [rng.standard_normal((16, 16))
                                      + 1j * rng.standard_normal((16, 16))])
            phi_y = pinch(embedded, y)
            phi_yy = pinch(embedded, y.adjoint() @ y)
            gap = phi_yy - phi_y.adjoint() @ phi_y
            lam = min(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]
                      for b in gap.blocks)
            assert lam >= -1e-9


def corner_expectation(b_x, mults, t_weights, s0):
    """h = w* E_N(v b v*) w of one corner element b = (b_l), one matrix per
    M-block: Σ_l t_l Σ_c b_l[c, c] / s_0, the per-operator form of
    `paving._corner_expectation`."""
    r = len(b_x[0]) // mults[0]
    return sum(t * np.einsum("aiaj->ij", b.reshape(m, r, m, r))
               for b, m, t in zip(b_x, mults, t_weights)) / s0


def reference_pipeline(problem, cfg):
    """`pave_constructive` with the per-part loop it had before it became
    rank-aware: every corner gets an `eigh`, and stage (iii) and eq (1)-(4)
    run on every part, also where q_i = 0 makes their matrices zero, operator
    by operator and M-block by M-block, and eq (2)-(4) pinch with the dense
    kernel of `conftest.pinch`; the fallback after an exhausted budget draws
    its unitary again.  The corners come from the same slab-coordinate
    helper as the pipeline's, so the two agree bit for bit except in
    eq (2)-(4) of a part with q_i ≠ 0, which the pipeline reads off part
    blocks."""
    inc = problem.inclusion
    dim_n = inc.n_shape.block_dims[0]
    n, m = cfg.n_parts, cfg.m_refine
    live = live_rows(problem)
    assert problem.epsilon < 1.0 and live
    base_config = {
        "n_parts": n, "m_refine": m, "delta_prime": cfg.delta_prime,
        "retry_budget": cfg.retry_budget, "index": problem.index,
    }
    scale = 1.0 / problem.dens[live]
    theta_exc = 4.0 * (n - 1) / n ** 2 + cfg.delta_prime
    certified_bound = math.sqrt(theta_exc) + math.sqrt(problem.index / m)
    mults = [inc.spec.inclusion_matrix[0][l] for l in range(inc.m_shape.num_blocks)]
    t_weights = inc.m_shape.trace_weights
    s0 = inc.n_shape.trace_weights[0]

    attempts = []
    best_cert = None
    for attempt in range(cfg.retry_budget + 1):
        u = alg.haar_block(child_rng(cfg.seed, attempt), dim_n)
        bounds_idx = np.cumsum([0] + alg.balanced_sizes(dim_n, n))
        record = {"attempt": attempt, "stage_ok": True, "reason": None,
                  "tau_q": [], "support_ranks": [], "compression_tail": [], "refined_expectation": [],
                  "transfer_lhs": [], "transfer_rhs": [], "schwarz_min": [],
                  "support_trace_bound": []}
        stacks, ranks = [], []
        for i in range(n):
            w_i = u[:, bounds_idx[i]:bounds_idx[i + 1]]
            r_i = w_i.shape[1]
            corner_stacks, gram_stacks = pv._slab_corners(problem.slab_stacks, w_i,
                                                          live, scale)
            corners = [[c[x] for c in corner_stacks] for x in range(len(live))]
            gram = [[a[x] for a in gram_stacks] for x in range(len(live))]
            corner_dims = [a.shape[1] for a in gram_stacks]
            exc_frames = []
            for a_x in gram:
                per_block = []
                for c in a_x:
                    w, v = (np.linalg.eigh((c + c.conj().T) / 2) if c.size
                            else (np.zeros(0), np.zeros((0, 0), dtype=np.complex128)))
                    per_block.append(v[:, w >= theta_exc - alg.TIE_TOL])
                exc_frames.append(per_block)
            q_frames = pv._join_frames(exc_frames, corner_dims)
            tau_q = sum(t_weights[l] * q_frames[l].shape[1] for l in range(len(q_frames)))
            record["tau_q"].append(tau_q)
            if tau_q > cfg.delta_prime + 1e-15:
                record.update(stage_ok=False,
                              reason=f"exceptional trace {tau_q:.3g} exceeds "
                                     f"delta' = {cfg.delta_prime:.3g} at part {i}")
                break

            for a_x in gram:
                val = 0.0
                for l, a_l in enumerate(a_x):
                    z = q_frames[l]
                    res = a_l - z @ (z.conj().T @ a_l) - (a_l @ z) @ z.conj().T \
                        + z @ (z.conj().T @ a_l @ z) @ z.conj().T
                    w = np.linalg.eigvalsh((res + res.conj().T) / 2)
                    val = max(val, float(w[-1]) if w.size else 0.0)
                record["compression_tail"].append(math.sqrt(max(val, 0.0)))

            h_corners, b_corners, joint_supports = [], [], []
            for a_x in gram:
                b_x = []
                for l, a_l in enumerate(a_x):
                    z = q_frames[l]
                    b_x.append(z @ (z.conj().T @ a_l @ z) @ z.conj().T)
                b_corners.append(b_x)
                h_c = corner_expectation(b_x, mults, t_weights, s0)
                h_corners.append(h_c)
                w_h, v_h = np.linalg.eigh((h_c + h_c.conj().T) / 2)
                cut = 1e-9 * max(float(w_h[-1]), 0.0) if w_h.size else 0.0
                supp = v_h[:, w_h > cut]
                joint_supports.append([supp])
                record["support_trace_bound"].append(
                    (supp.shape[1] * s0, problem.index * tau_q))
            e_join = pv._join_frames(joint_supports, [r_i])[0]
            s_i = e_join.shape[1]
            record["support_ranks"].append(s_i)
            refinement = pv._fourier_refinement(r_i, e_join, m)
            if refinement is None:
                record.update(stage_ok=False,
                              reason=f"support rank {s_i} does not fit {m} "
                                     f"pieces of a rank-{r_i} part")
                break

            # eq (2)-(4) with the dense pinch: in corner coordinates the
            # refinement is kron(1_mult, Z) on each M-block, its columns
            # regrouped by part into a partition of the corner algebra
            z_stack = np.concatenate(refinement, axis=1)
            z_ranks = [z.shape[1] for z in refinement]
            z_labels = np.repeat(np.arange(m), z_ranks)
            dims = tuple(mult * r_i for mult in mults)
            corner_shape = AlgebraShape(dims, (1.0 / sum(dims),) * len(dims))
            corner_part = alg.PartitionOfUnity(
                corner_shape,
                [np.kron(np.eye(mult), z_stack)[:, np.argsort(np.tile(z_labels, mult),
                                                              kind="stable")]
                 for mult in mults],
                [[mult * c for c in z_ranks] for mult in mults])
            refined_part = alg.PartitionOfUnity(AlgebraShape.matrix(r_i), [z_stack], [z_ranks])

            def corner_pinch(mats):
                return pinch(corner_part, Element(corner_shape, mats))

            for h_c, b_x in zip(h_corners, b_corners):
                refined = op_norm(pinch(refined_part, Element(refined_part.shape, [h_c])))
                record["refined_expectation"].append(refined)
                record["transfer_lhs"].append(op_norm(corner_pinch(b_x)))
                record["transfer_rhs"].append(problem.index * refined)
            for c_x in corners:
                y = Element(corner_shape, [c_x[l] @ (q_frames[l] @ q_frames[l].conj().T)
                                           for l in range(len(corner_dims))])
                phi_y = corner_pinch(y.blocks)
                gap = corner_pinch((y.adjoint() @ y).blocks) - phi_y.adjoint() @ phi_y
                record["schwarz_min"].append(min(
                    float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) for b in gap.blocks))

            stacks.append(w_i @ z_stack)
            ranks.extend(z.shape[1] for z in refinement)

        attempts.append(record)
        if not record["stage_ok"]:
            continue
        partition = alg.PartitionOfUnity(inc.n_shape, [np.concatenate(stacks, axis=1)], [ranks])
        cert = pv.verify(problem, partition, seed=cfg.seed, config=base_config,
                         diagnostics={"attempts": attempts,
                                      "theta_exceptional": theta_exc,
                                      "certified_bound": certified_bound,
                                      "normalization_norms": problem.dens[live].tolist()})
        if cert.verified:
            return cert
        if best_cert is None or max(cert.per_x_ratio) < max(best_cert.per_x_ratio):
            best_cert = cert
    if best_cert is not None:
        best_cert.diagnostics["attempts"] = attempts
        return best_cert
    u = alg.haar_block(child_rng(cfg.seed, cfg.retry_budget), dim_n)
    partition = alg.PartitionOfUnity(inc.n_shape, [u], [alg.balanced_sizes(dim_n, n)])
    return pv.verify(problem, partition, seed=cfg.seed, config=base_config,
                     diagnostics={"attempts": attempts,
                                  "theta_exceptional": theta_exc,
                                  "certified_bound": certified_bound,
                                  "stage_exhausted": True})


def corner_spec_problem(seed):
    # N = M_3 in M = M_3 ⊕ M_6 by Λ = [[1, 2]], Haar-embedded (as in
    # test_stage_iii_corner_expectation): two M-blocks per corner
    spec = incl.InclusionSpec(AlgebraShape((3,), (1 / 3,)), AlgebraShape((3, 6), (1 / 9, 1 / 9)),
                              ((1, 2),))
    inc = incl.build_inclusion(spec, seed=56)
    ops = [selfadjoint(inc.m_shape, child_seed(seed, t)) for t in range(2)]
    return pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.95, index=5.0)


class TestRankAwarePipeline:
    """`pave_constructive` against `reference_pipeline`: the same partitions,
    ratios and diagnostics, bit for bit, except that eq (2)-(4) of a part
    with q_i ≠ 0 agree within 1e-13 max(1, |ref|)."""

    # per (part, x) entries that come from part blocks in the pipeline and
    # from the dense pinch in the reference
    PINCHED = ("refined_expectation", "transfer_lhs", "transfer_rhs", "schwarz_min")

    @classmethod
    def assert_same(cls, problem, cfg):
        cert, ref = pv.pave_constructive(problem, cfg), reference_pipeline(problem, cfg)
        assert len(cert.partition.stacks) == len(ref.partition.stacks)
        assert all(np.array_equal(a, b) for a, b in
                   zip(cert.partition.stacks, ref.partition.stacks))
        assert cert.partition.ranks == ref.partition.ranks
        assert cert.per_x_ratio == ref.per_x_ratio
        assert cert.verified == ref.verified
        got, want = copy.deepcopy(cert.diagnostics), copy.deepcopy(ref.diagnostics)
        pinched = [[[rec.pop(key) for key in cls.PINCHED] for rec in d["attempts"]]
                   for d in (got, want)]
        assert repr(got) == repr(want)
        count = len(live_rows(problem))
        for rec, got_rec, want_rec in zip(want["attempts"], *pinched):
            for a, b in zip(got_rec, want_rec):
                assert len(a) == len(b)
                for j, (u, v) in enumerate(zip(a, b)):
                    if rec["tau_q"][j // count] == 0.0:
                        assert repr(u) == repr(v)
                    else:
                        # schwarz_min is 0 in exact arithmetic: no relative bound
                        assert abs(u - v) <= 1e-13 * max(1.0, abs(v))
        return cert

    @pytest.mark.parametrize("family, n, m, seeds", [
        ("tensor(40,2)", 4, 4, [1, 2, 3, 4]),
        ("tensor(40,2)", 3, 4, [1, 2]),     # parts of ranks 14, 13, 13
        ("tensor(16,2)", 2, 2, [8, 9]),
        ("self(64)", 4, 4, [3, 4]),
    ])
    def test_generic_rotations(self, family, n, m, seeds):
        inc = families.parse_family(family)
        ops = [selfadjoint(inc.m_shape, child_seed(60, t)) for t in range(2)]
        problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.9)
        for seed in seeds:
            cert = self.assert_same(problem, pv.PipelineConfig(n, m, seed=seed))
            assert not any(any(rec["tau_q"]) for rec in cert.diagnostics["attempts"])

    def test_exceptional_part(self, aligned_pipeline_case):
        # part 0 is exceptional, the other parts have q_i = 0
        inc, problem, seed = aligned_pipeline_case
        cert = self.assert_same(problem, pv.PipelineConfig(4, 2, delta_prime=0.1,
                                                           retry_budget=0, seed=seed))
        tau_q = cert.diagnostics["attempts"][0]["tau_q"]
        assert tau_q[0] > 0.0 and tau_q[1:] == [0.0, 0.0, 0.0]

    def test_retry_after_exceptional_part(self, aligned_pipeline_case):
        inc, problem, seed = aligned_pipeline_case
        cert = self.assert_same(problem, pv.PipelineConfig(4, 2, delta_prime=0.012, seed=seed))
        attempts = cert.diagnostics["attempts"]
        assert not attempts[0]["stage_ok"] and attempts[-1]["stage_ok"]

    @pytest.mark.parametrize("n, retry_budget", [(4, 0), (1, 1)])
    def test_exhausted_budget(self, aligned_pipeline_case, n, retry_budget):
        # every attempt exceeds δ': the fallback is the outer partition of
        # the last attempt's unitary, which the reference draws again
        inc, problem, seed = aligned_pipeline_case
        cert = self.assert_same(problem, pv.PipelineConfig(
            n, 2, delta_prime=0.012, retry_budget=retry_budget, seed=seed))
        assert cert.diagnostics["stage_exhausted"]
        assert len(cert.diagnostics["attempts"]) == retry_budget + 1

    def test_three_copies(self):
        # tensor(24,3) with a rank-one operator aligned to the first outer
        # part of the seed's first attempt: a nonempty q_i whose corner
        # trace runs over three copies
        inc = families.parse_family("tensor(24,3)")
        for seed in range(2):
            u = alg.haar_block(child_rng(seed, 0), 24)
            xi = ref_embed_frame(inc, [u[:, :1]])[0][:, :1]
            ops = [selfadjoint(inc.m_shape, child_seed(46, t)) for t in range(2)]
            problem = pv.PavingProblem(inclusion=inc, epsilon=0.5,
                                       operators=ops + [Element(inc.m_shape, [xi @ xi.conj().T])])
            cert = self.assert_same(problem, pv.PipelineConfig(4, 2, retry_budget=0, seed=seed))
            rec = cert.diagnostics["attempts"][0]
            assert rec["stage_ok"] and rec["support_ranks"] == [1, 0, 0, 0]

    @pytest.mark.parametrize("n, m, delta_prime", [
        (3, 1, None),   # q_i = 0 on every part
        (1, 1, 2.0),    # q = 0, the single part is all of N
        (1, 1, 0.9),    # q ≠ 0 in both M-blocks
        (1, 1, 0.5),    # q ≠ 0; one seed exceeds δ'
        (1, 2, 0.9),    # the support does not fit: stage exhaustion
    ])
    def test_two_m_blocks(self, n, m, delta_prime):
        for seed in range(3):
            self.assert_same(corner_spec_problem(61 + seed), pv.PipelineConfig(
                n, m, delta_prime=delta_prime, retry_budget=2, seed=seed))


class TestExceptionalFrame:
    """The batched eigvalsh screen in front of the exceptional-frame `eigh`."""

    THETA = 0.75

    @staticmethod
    def count_eigh(monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        return calls

    @staticmethod
    def direct(a, theta):
        w, v = np.linalg.eigh((a + a.conj().T) / 2)
        return v[:, w >= theta - alg.TIE_TOL]

    @classmethod
    def single(cls, a):
        tops, frames = pv._exceptional_frames(a[None], cls.THETA)
        assert len(tops) == len(frames) == 1
        return tops[0], frames[0]

    def test_below_cutoff_skips_eigh(self, monkeypatch):
        calls = self.count_eigh(monkeypatch)
        a = np.diag([0.5, 0.1, 0.0]).astype(complex)
        top, frame = self.single(a)
        assert top == 0.5 and frame.shape == (3, 0) and not calls

    def test_top_at_cutoff_selects_like_eigh(self, monkeypatch):
        cutoff = self.THETA - alg.TIE_TOL
        a = np.diag([0.2, cutoff, 0.9, 0.1]).astype(complex)
        calls = self.count_eigh(monkeypatch)
        top, frame = self.single(a)
        assert top == 0.9 and len(calls) == 1
        want = self.direct(a, self.THETA)
        assert want.shape == (4, 2) and np.array_equal(frame, want)
        b = np.diag([0.2, cutoff, 0.1]).astype(complex)
        top, frame = self.single(b)
        assert top == cutoff and np.array_equal(frame, self.direct(b, self.THETA))
        assert frame.shape == (3, 1)

    def test_top_inside_margin_takes_eigh(self, monkeypatch):
        inside = self.THETA - alg.TIE_TOL - 0.5 * pv.SCREEN_MARGIN
        a = np.diag([inside, 0.3]).astype(complex)
        calls = self.count_eigh(monkeypatch)
        top, frame = self.single(a)
        assert top == inside and len(calls) == 1 and frame.shape == (2, 0)

    def test_empty_corner(self):
        tops, frames = pv._exceptional_frames(np.zeros((2, 0, 0), dtype=complex), self.THETA)
        assert tops == [0.0, 0.0] and [f.shape for f in frames] == [(0, 0), (0, 0)]

    def test_stack_screens_each_gram(self, monkeypatch):
        # one batched eigvalsh for the stack; `eigh` only on the gram that
        # reaches the cutoff, and each top and frame as for that gram alone
        rng = child_rng(62)
        q = alg.haar_block(rng, 4)
        grams = np.stack([(q * s) @ q.conj().T for s in
                          ([0.5, 0.2, 0.1, 0.0], [0.9, 0.8, 0.3, 0.1], [0.7, 0.6, 0.0, 0.0])])
        calls = self.count_eigh(monkeypatch)
        tops, frames = pv._exceptional_frames(grams, self.THETA)
        assert len(calls) == 1
        assert [f.shape for f in frames] == [(4, 0), (4, 2), (4, 0)]
        for a, top, frame in zip(grams, tops, frames):
            h = (a + a.conj().T) / 2
            assert top == float(np.linalg.eigvalsh(h)[-1])
        assert np.array_equal(frames[1], self.direct(grams[1], self.THETA))


class TestSlabCorners:
    """The pipeline's corners and grams, read off the slab stacks, against
    g* ((x − E)/‖x − E‖) g with g the literal embedded frame of the part."""

    @pytest.mark.parametrize("make, n", [
        (lambda: family_problem("tensor(40,2)", 63), 3),   # parts of ranks 14, 13, 13
        (lambda: family_problem("self(64)", 64), 4),
        (lambda: corner_spec_problem(65), 2),              # two Haar-embedded M-blocks
    ], ids=["tensor(40,2)", "self(64)", "two-m-blocks"])
    def test_against_embedded_frames(self, make, n):
        problem = make()
        inc = problem.inclusion
        dim = inc.n_shape.block_dims[0]
        u = alg.haar_block(child_rng(66), dim)
        bounds = np.cumsum([0] + alg.balanced_sizes(dim, n))
        scale = 1.0 / problem.dens
        for a, b in zip(bounds, bounds[1:]):
            w = u[:, a:b]
            corners, grams = pv._slab_corners(problem.slab_stacks, w,
                                              list(range(len(problem.operators))), scale)
            for l, g in enumerate(ref_embed_frame(inc, [w])):
                for t, (_, diff, den) in enumerate(centered(problem)):
                    c = g.conj().T @ ((1.0 / den) * diff).blocks[l] @ g
                    for got, want in ((corners[l][t], c), (grams[l][t], c.conj().T @ c)):
                        assert got.shape == want.shape
                        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_live_rows_only(self):
        # an operator inside the relative commutant is left out, and the
        # others keep their corners
        problem = family_problem("tensor(8,2)", 67)
        inc = problem.inclusion
        inert = Element(inc.m_shape, [np.kron(np.eye(8), np.diag([1.0, -1.0]).astype(complex))])
        mixed = pv.PavingProblem(inclusion=inc, operators=(inert,) + problem.operators,
                                 epsilon=problem.epsilon)
        assert (mixed.dens > pv.DEGENERATE_DEN).tolist() == [False, True, True]
        w = alg.haar_block(child_rng(68), 8)[:, :3]
        scale = 1.0 / problem.dens
        want = pv._slab_corners(problem.slab_stacks, w, [0, 1], scale)
        got = pv._slab_corners(mixed.slab_stacks, w, [1, 2], scale)
        for a, b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestJoinFrames:
    @pytest.mark.parametrize("dim", [6, 2])
    def test_dependent_column_first(self, dim):
        # a comes twice before b: the span must hold b too, also when there
        # are more columns than dimensions
        u = alg.haar_block(child_rng(69), dim)
        a, b = u[:, :1], u[:, 1:2]
        q = pv._join_frames([[a], [np.c_[a, b]]], [dim])[0]
        assert q.shape == (dim, 2)
        assert np.abs(q.conj().T @ q - np.eye(2)).max() <= 1e-12
        for v in (a, b):
            assert np.linalg.norm(v - q @ (q.conj().T @ v)) <= 1e-12

    def test_trailing_dependent_columns_keep_the_plain_qr(self):
        u = alg.haar_block(child_rng(70), 6)
        a, b = u[:, :1], u[:, 1:2]
        stacked = np.c_[a, b, a]
        q = pv._join_frames([[np.c_[a, b]], [a]], [6])[0]
        assert np.array_equal(q, np.linalg.qr(stacked)[0][:, :2])


def qr_refinement(dim, e_cols, m):
    """`_fourier_refinement` as it was before it skipped the QR of an empty
    support."""
    s = e_cols.shape[1]
    c = max(s, 1)
    if m * c > dim:
        return None
    basis, _ = np.linalg.qr(np.concatenate(
        [e_cols, np.eye(dim, dtype=np.complex128)], axis=1))
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
    return [np.concatenate([parts[j]] + extras[j], axis=1) if extras[j] else parts[j]
            for j in range(m)]


def test_empty_support_refinement_skips_the_qr():
    # with no support, the QR of [e_cols, 1] = 1 is the identity exactly
    for dim in range(1, 61):
        empty = np.zeros((dim, 0), dtype=np.complex128)
        for m in range(1, 13):
            got, want = pv._fourier_refinement(dim, empty, m), qr_refinement(dim, empty, m)
            if want is None:
                assert got is None
                continue
            assert len(got) == len(want) == m
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


class TestSearch:
    def test_r1_ratio_is_one(self):
        inc = families.self_inclusion(8)
        x = selfadjoint(inc.m_shape, 12)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5,
                                   index=1.0)
        cert = pv.pave_search(problem, pv.SearchConfig(r=1, restarts=1, steps=5, seed=0))
        assert abs(cert.per_x_ratio[0] - 1.0) < 1e-12
        assert not cert.verified

    def test_commutant_family(self):
        inc = families.tensor_product(4, 2)
        b = np.diag([1.0, -1.0]).astype(complex)
        x = Element(inc.m_shape, [np.kron(np.eye(4), b)])
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5,
                                   index=4.0)
        cert = pv.pave_search(problem, pv.SearchConfig(r=1, restarts=1, steps=5, seed=0))
        assert cert.per_x_ratio == [0.0] and cert.verified

    def test_granularity(self):
        inc = families.self_inclusion(4)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 13)],
                                   epsilon=0.5, index=1.0)
        with pytest.raises(alg.AlgebraError):
            pv.pave_search(problem, pv.SearchConfig(r=5, seed=0))

    def test_annealing_beats_coordinate_scan(self):
        # brute-force oracle: all balanced bisections in the eigenbasis of
        # the centered operator; the annealer searches a superset
        inc = families.self_inclusion(8)
        q = alg.random_element(inc.m_shape, alg.PROJECTION, 14, theta=0.5)
        problem = pv.PavingProblem(inclusion=inc, operators=[q], epsilon=0.9,
                                   index=1.0)
        xt = q - trace(q) * identity(inc.m_shape)
        den = op_norm(xt)
        _, v = np.linalg.eigh((xt.blocks[0] + xt.blocks[0].conj().T) / 2.0)
        import itertools

        best = np.inf
        for combo in itertools.combinations(range(8), 4):
            rest = [i for i in range(8) if i not in combo]
            val = 0.0
            for cols in (combo, rest):
                f = v[:, list(cols)]
                c = f.conj().T @ xt.blocks[0] @ f
                val = max(val, float(np.abs(np.linalg.eigvalsh(c)).max()))
            best = min(best, val / den)
        cert = pv.pave_search(problem, pv.SearchConfig(r=2, restarts=3, steps=250, seed=15))
        assert max(cert.per_x_ratio) <= best + 0.02

    def test_incumbent_monotone(self):
        inc = families.self_inclusion(16)
        x = selfadjoint(inc.m_shape, 16)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.4,
                                   index=1.0)
        cert = pv.pave_search(problem, pv.SearchConfig(r=4, restarts=2, steps=80, seed=17))
        hist = cert.diagnostics["incumbent_history"]
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def reference_search(problem, cfg):
    """`pave_search` with the full objective it had before scoring became
    incremental: every step embeds the whole partition and forms g* x g for
    every operator.  The RNG stream and accept/reject rule are the same."""
    inc = problem.inclusion
    nsh = inc.n_shape
    base = alg.coordinate_partition(nsh, cfg.r)
    order = [np.argmax(np.abs(u), axis=0) for u in base.stacks]
    live = centered(problem, live_rows(problem))
    assert problem.epsilon < 1.0 and live

    def partition_of(u_blocks):
        return alg.PartitionOfUnity(nsh, [u[:, o] for u, o in zip(u_blocks, order)],
                                    base.ranks)

    def diagonal_block_norm(c, sizes):
        offsets = np.cumsum((0,) + tuple(sizes))
        worst = 0.0
        for s in set(sizes) - {0}:
            blocks = np.stack([c[a:a + s, a:a + s] for a, t in zip(offsets, sizes) if t == s])
            w = np.linalg.eigvalsh(blocks.conj().transpose(0, 2, 1) @ blocks)
            worst = max(worst, float(w[:, -1].max()))
        return math.sqrt(max(worst, 0.0))

    def objective(u_blocks):
        embedded = embed_partition(inc, partition_of(u_blocks))
        worst = 0.0
        for _, diff, den in live:
            for l, g in enumerate(embedded.stacks):
                c = part_compression(g, part_labels(embedded, l), diff.blocks[l])
                worst = max(worst, diagonal_block_norm(c, embedded.ranks[l]) / den)
        return worst

    pair_pool = []
    for k, o in enumerate(order):
        owner = np.empty(len(o), dtype=int)
        owner[o] = part_labels(base, k)
        pair_pool.extend((k, a, b) for a in range(len(o)) for b in range(a + 1, len(o))
                         if owner[a] != owner[b])
    best_obj, best_u, history = np.inf, None, []
    for restart in range(cfg.restarts):
        rng = child_rng(cfg.seed, restart)
        u_blocks = [alg.haar_block(rng, d) for d in nsh.block_dims]
        cur = objective(u_blocks)
        if cur < best_obj:
            best_obj, best_u = cur, [b.copy() for b in u_blocks]
        scale = pv.STEP_SCALE
        for step in range(cfg.steps if pair_pool else 0):
            k, a, b = pair_pool[rng.integers(len(pair_pool))]
            theta = rng.normal(0.0, scale)
            phi = rng.uniform(0.0, 2 * np.pi)
            g = np.array([[np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
                          [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]])
            trial = [blk.copy() for blk in u_blocks]
            trial[k][:, [a, b]] = trial[k][:, [a, b]] @ g
            val = objective(trial)
            temp = max(scale * 0.1, 1e-6)
            if val < cur or rng.random() < math.exp(-(val - cur) / temp):
                u_blocks, cur = trial, val
                if cur < best_obj:
                    best_obj, best_u = cur, [blk.copy() for blk in u_blocks]
            if (step + 1) % pv.SWEEP == 0:
                scale *= pv.COOLING
            history.append(best_obj)
    config = {"r": cfg.r, "restarts": cfg.restarts, "steps": cfg.steps,
              "step_scale": pv.STEP_SCALE, "cooling": pv.COOLING}
    return pv.verify(problem, partition_of(best_u), seed=cfg.seed, config=config,
                     diagnostics={"incumbent_history": history, "best_objective": best_obj})


def two_block_problem():
    # `two_block_inclusion`; the second operator is not self-adjoint
    inc = two_block_inclusion()
    rng = child_rng(43)
    z = Element(inc.m_shape, [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                              for d in inc.m_shape.block_dims])
    return pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 44), z],
                            epsilon=0.5)


def family_problem(family, seed):
    inc = families.parse_family(family)
    ops = [selfadjoint(inc.m_shape, child_seed(seed, t)) for t in range(2)]
    return pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.5)


class TestIncrementalSearch:
    """The incremental objective against the full one it replaced."""

    @pytest.mark.parametrize("make, r", [
        (lambda: family_problem("self(16)", 40), 4),
        (lambda: family_problem("tensor(8,2)", 41), 8),
        (lambda: family_problem("self(6)", 42), 6),   # r = the total slot count
        (two_block_problem, 3),
        (two_block_problem, 7),                        # r = the total slot count
    ], ids=["self16-r4", "tensor8-r8", "self6-all-slots", "two-block-r3",
            "two-block-all-slots"])
    def test_matches_full_objective(self, make, r):
        problem = make()
        for seed in range(3):
            cfg = pv.SearchConfig(r=r, restarts=2, steps=60, seed=seed)
            cert, ref = pv.pave_search(problem, cfg), reference_search(problem, cfg)
            assert all(np.array_equal(a, b) for a, b in
                       zip(cert.partition.stacks, ref.partition.stacks))
            assert cert.per_x_ratio == ref.per_x_ratio
            np.testing.assert_allclose(cert.diagnostics["incumbent_history"],
                                       ref.diagnostics["incumbent_history"], rtol=1e-12)
            embedded = embed_partition(problem.inclusion, cert.partition)
            recomputed = max(op_norm(pinch(embedded, diff)) / den
                             for _, diff, den in centered(problem, live_rows(problem)))
            best = cert.diagnostics["best_objective"]
            assert abs(best - recomputed) <= 1e-12 * recomputed

    @pytest.mark.parametrize("make, r", [
        (lambda: family_problem("tensor(8,2)", 41), 8), (two_block_problem, 3)])
    def test_state_is_the_part_ordered_draw(self, make, r):
        # with no step the certificate holds the restart's Haar draw, its
        # columns in the part order of the balanced slot partition
        problem = make()
        nsh = problem.inclusion.n_shape
        parts = alg.balanced_slot_partition(nsh, r)
        cert = pv.pave_search(problem, pv.SearchConfig(r=r, restarts=1, steps=0, seed=5))
        rng = child_rng(5, 0)
        for k, d in enumerate(nsh.block_dims):
            order = [i for part in parts for blk, i in part if blk == k]
            want = alg.haar_block(rng, d)[:, order]
            assert cert.partition.stacks[k].tobytes() == want.tobytes()

    @pytest.mark.parametrize("args, kwargs", [
        ((families.self_inclusion(8), [0.8, 1.2],
          [alg.random_element(AlgebraShape.matrix(8), alg.PROJECTION, 32, theta=0.25)], 1.0),
         {"seed": 3, "r_cap": 8}),
        ((families.self_inclusion(16), [0.45],
          [alg.random_element(AlgebraShape.matrix(16), alg.PROJECTION, 33, theta=1 / 16)],
          1.0), {"seed": 4, "r_cap": 16}),
        ((families.self_inclusion(2), [0.1, 0.05],
          [Element(AlgebraShape.matrix(2), [np.diag([1.0, -1.0]).astype(complex)])], 1.0), {}),
    ], ids=["rows-and-bounds", "lemma-bound", "no-positive-member"])
    def test_scan_rows_match_full_objective(self, monkeypatch, args, kwargs):
        rows = pv.scan(*args, **kwargs)
        search = pv.pave_search
        monkeypatch.setattr(pv, "pave_search", lambda problem, cfg: (
            reference_search(problem, cfg) if problem.epsilon < 1.0 and live_rows(problem)
            else search(problem, cfg)))
        assert pv.scan(*args, **kwargs) == rows


def aligned_tensor8_problem():
    # two generic operators and a rank-one one aligned to the first outer
    # part of the pipeline's seed-2 first attempt: with n = 4 that part has
    # a nonempty q_i and the other three an empty one
    inc = families.parse_family("tensor(8,2)")
    u = alg.haar_block(child_rng(2, 0), 8)
    xi = ref_embed_frame(inc, [u[:, :1]])[0][:, :1]
    ops = [selfadjoint(inc.m_shape, child_seed(45, t)) for t in range(2)]
    return pv.PavingProblem(inclusion=inc, epsilon=0.5,
                            operators=ops + [Element(inc.m_shape, [xi @ xi.conj().T])])


PLAN_MEMOS = (alg.slot_order, alg.part_layout, pv._move_pool, pv._empty_refinement)


class TestPlanMemos:
    """Shape-only index plans are built once per process: a warm memo gives
    the results of a cold one byte for byte, and its arrays are read-only."""

    @staticmethod
    def runs(problem):
        yield pv.pave_search(problem, pv.SearchConfig(r=3, restarts=2, steps=30, seed=1))
        if problem.inclusion.n_shape.num_blocks == 1:
            for n in (4, 2):
                yield pv.pave_constructive(problem, pv.PipelineConfig(n_parts=n, m_refine=2,
                                                                      seed=2))
        yield pv.l2_pave(problem, 3, seed=3)

    @pytest.mark.parametrize("make", [aligned_tensor8_problem, two_block_problem],
                             ids=["tensor8", "two-block"])
    def test_warm_run_equals_cold_run(self, make):
        problem = make()
        for memo in PLAN_MEMOS:
            memo.cache_clear()
        cold = list(self.runs(problem))
        hits = [memo.cache_info().hits for memo in PLAN_MEMOS]
        warm = list(self.runs(problem))
        for memo, before in zip(PLAN_MEMOS, hits):
            used = memo is not pv._empty_refinement or problem.inclusion.n_shape.num_blocks == 1
            assert (memo.cache_info().hits > before) == used
        if len(cold) == 4:
            # the pipeline ran the nonempty-support branch, the eq (2)-(4) layouts
            assert max(cold[1].diagnostics["attempts"][0]["support_ranks"]) > 0
        for a, b in zip(cold, warm):
            assert canonical_dumps(a.summary()) == canonical_dumps(b.summary())
            assert a.partition.ranks == b.partition.ranks
            assert [u.tobytes() for u in a.partition.stacks] == \
                [u.tobytes() for u in b.partition.stacks]

    def test_memoised_arrays_are_read_only(self):
        shape = AlgebraShape((3, 4), (3 / 21, 3 / 21))
        orders, ranks = alg.slot_order(shape, 3)
        layout = alg.part_layout(ranks, ((0, 1), (1, 2)))
        arrays = list(orders) + [pv._move_pool(shape, 3), pv._empty_refinement(4, 2)[0]]
        for sel, idx, cols in layout.batches:
            arrays += [sel, idx] + [c for c in cols if c is not None]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


@pytest.mark.parametrize("field, value, valid", [
    ("r", 0, False), ("restarts", 0, False), ("steps", -3, False), ("steps", 0, True),
])
def test_search_config_validation(field, value, valid):
    if valid:
        pv.SearchConfig(**{"r": 2, field: value})
    else:
        with pytest.raises(pv.PavingError):
            pv.SearchConfig(**{"r": 2, field: value})


@pytest.mark.parametrize("field, value, message", [
    ("n_parts", 0, "partition sizes"), ("m_refine", 0, "partition sizes"),
    ("retry_budget", -1, "retry_budget must be >= 0"), ("retry_budget", 0, None),
])
def test_pipeline_config_validation(field, value, message):
    kwargs = {"n_parts": 2, "m_refine": 2, field: value}
    if message is None:
        pv.PipelineConfig(**kwargs)
    else:
        with pytest.raises(pv.PavingError, match=message):
            pv.PipelineConfig(**kwargs)


@pytest.mark.parametrize("epsilon, index, message", [
    (math.nan, 1.0, "epsilon"), (math.inf, 1.0, "epsilon"), (-0.5, 1.0, "epsilon"),
    (0.5, math.nan, "index"), (0.5, math.inf, "index"), (0.5, 0.5, "index"),
])
def test_problem_refuses_non_finite_epsilon_and_index(epsilon, index, message):
    inc = families.self_inclusion(4)
    ops = [selfadjoint(inc.m_shape, 61)]
    with pytest.raises(pv.PavingError, match=message):
        pv.PavingProblem(inclusion=inc, operators=ops, epsilon=epsilon, index=index)
    problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.5)
    if message == "epsilon":
        with pytest.raises(pv.PavingError, match="epsilon"):
            problem.with_epsilon(epsilon)


def test_each_operator_centered_once(monkeypatch):
    # the problem centers F when it is built; producers and verify reuse it
    calls = []
    center = incl.Inclusion.center
    monkeypatch.setattr(incl.Inclusion, "center",
                        lambda self, x, *out: calls.append(x) or center(self, x, *out))
    inc = families.tensor_product(8, 2)
    ops = [selfadjoint(inc.m_shape, child_seed(45, t)) for t in range(3)]
    for produce in (lambda p: pv.pave_search(p, pv.SearchConfig(r=4, restarts=1, steps=20)),
                    lambda p: pv.pave_constructive(p, pv.PipelineConfig(2, 2, seed=3))):
        calls.clear()
        problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.9, index=4.0)
        assert len(calls) == len(ops)
        produce(problem)
        assert len(calls) == len(ops)


class TestVerify:
    def test_rejects_broken_partition(self):
        inc = families.self_inclusion(4)
        p = alg.random_element(inc.n_shape, alg.PROJECTION, 18, theta=0.5)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 19)],
                                   epsilon=0.5, index=1.0)
        with pytest.raises(pv.CandidateRejected):
            pv.verify(problem, partition_from_projections([p, p]))

    def test_rejects_candidate_outside_subalgebra(self):
        inc = families.tensor_product(2, 2)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 20)],
                                   epsilon=0.5, index=4.0)
        p = alg.random_element(inc.m_shape, alg.PROJECTION, 21, theta=0.5)
        q = identity(inc.m_shape) - p
        with pytest.raises(pv.CandidateRejected) as err:
            pv.verify(problem, partition_from_projections([p, q]))
        assert "shape" in err.value.residuals

    def test_rejects_m_shaped_unitaries(self):
        # an embedded unitary of N is still a unitary over M, not over N
        inc = families.tensor_product(2, 2)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 22)],
                                   epsilon=1.5, index=4.0)
        u = inc.embed(alg.random_haar_unitary(inc.n_shape, 22))
        with pytest.raises(pv.CandidateRejected) as err:
            pv.verify(problem, [u])
        assert err.value.residuals == {"shape": str(inc.m_shape)}

    def test_rejects_non_unitary_family(self):
        inc = families.self_inclusion(4)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 23)],
                                   epsilon=0.5, index=1.0)
        bad = 0.5 * identity(inc.n_shape)
        with pytest.raises(pv.CandidateRejected):
            pv.verify(problem, [bad])

    @pytest.mark.parametrize("position", [(0, 0), (2, 1)])
    def test_rejects_unitary_family_with_nan_entry(self, position):
        # a NaN residual compares false with TOL_PROJ, in the first unitary's
        # first block or in a later unitary's later block
        inc = incl.Inclusion(incl.InclusionSpec(AlgebraShape((2, 3), (0.2, 0.2)),
                                                AlgebraShape((2, 3), (0.2, 0.2)),
                                                ((1, 0), (0, 1))), [("id", None)] * 2)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 62)],
                                   epsilon=0.5)
        us = [alg.random_haar_unitary(inc.n_shape, child_seed(63, t)) for t in range(3)]
        which, block = position
        us[which].blocks[block][0, 0] = np.nan
        cert = pv.PavingCertificate(mode="unitaries", per_x_ratio=[0.0], r=3, epsilon=0.5,
                                    threshold=0.5, verified=True, unitaries=us)
        with pytest.raises(pv.CandidateRejected, match="candidate family is not unitary"):
            pv.verify(problem, cert)

    def test_rejects_partition_with_nan_entry_in_later_block(self):
        inc = two_block_inclusion()
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 64)],
                                   epsilon=0.5)
        part = alg.coordinate_partition(inc.n_shape, 2)
        stacks = [stack.copy() for stack in part.stacks]
        stacks[1][0, 0] = np.nan
        with pytest.raises(pv.CandidateRejected, match="not unitary"):
            pv.verify(problem, alg.PartitionOfUnity(part.shape, stacks, part.ranks))

    def test_trivial_partition_on_commutant(self):
        inc = families.scalars_in(3)
        x = trace_zero_free = 0.7 * identity(inc.m_shape)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5,
                                   index=9.0)
        cert = pv.verify(problem, partition_from_projections(
            [identity(inc.n_shape)]))
        assert cert.per_x_ratio == [0.0] and cert.verified

    def test_rejects_perturbed_frame(self):
        inc = families.self_inclusion(8)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 24)],
                                   epsilon=0.5, index=1.0)
        part = alg.coordinate_partition(
            inc.n_shape, 4, unitary=alg.random_haar_unitary(inc.n_shape, 25))
        pv.verify(problem, part)
        stack = part.stacks[0].copy()
        stack[3, 5] += 1e-6
        with pytest.raises(pv.CandidateRejected) as err:
            pv.verify(problem, alg.PartitionOfUnity(part.shape, [stack], part.ranks))
        assert err.value.residuals["frame_residual"] > alg.TOL_PROJ

    def test_scaled_frame_is_judged_by_its_exact_partition(self):
        # the worst part's two columns shrunk by 1 − 3.5e-9: the frame residual
        # stays within TOL_PROJ and the stored ratio drops below ε + slack,
        # but the exact partition the frames stand for, the unscaled one,
        # misses that threshold
        inc = families.parse_family("tensor(16,2)")
        ops = [selfadjoint(inc.m_shape, child_seed(60, t)) for t in range(2)]
        problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.5)
        part = pv.pave_search(problem, pv.SearchConfig(r=8, restarts=1, steps=20,
                                                       seed=0)).partition
        ratio = max(pv.verify(problem, part).per_x_ratio)
        exact = pv.verify(problem.with_epsilon(ratio), part)
        assert exact.verified
        assert exact.diagnostics["residual_bound"] == [2 * part.residual() + part.residual() ** 2] * 2
        layout = alg.part_layout(part.ranks, inc.slab_layout(0))
        norms, _ = alg.part_norms(part.stacks, layout, problem.slab_stacks[0])
        dens = problem.dens[:, None]
        worst = int((norms / dens).max(axis=0).argmax())
        stack = part.stacks[0].copy()
        stack[:, 2 * worst:2 * worst + 2] *= 1 - 3.5e-9
        scaled = alg.PartitionOfUnity(part.shape, [stack], part.ranks)
        assert scaled.residual() <= alg.TOL_PROJ
        cert = pv.verify(problem.with_epsilon(ratio - 2e-9), scaled)
        assert max(cert.per_x_ratio) <= cert.threshold + pv.VERIFY_SLACK
        assert not cert.verified

    def test_rejects_empty_family(self):
        inc = families.self_inclusion(4)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 23)],
                                   epsilon=0.5, index=1.0)
        with pytest.raises(pv.CandidateRejected, match="empty unitary family"):
            pv.verify(problem, [])

    def test_unitary_residual_bound(self):
        # 2δ + δ² for every x, as for a partition, an x inside N′∩M (ratio 0)
        # included: each unitary lies within δ of an exact one
        inc = families.self_inclusion(4)
        x = selfadjoint(inc.m_shape, 27)
        problem = pv.PavingProblem(inclusion=inc, operators=[x, 0.5 * identity(inc.m_shape)],
                                   epsilon=0.9, index=1.0)
        us = [alg.random_haar_unitary(inc.n_shape, child_seed(28, t)) for t in range(3)]
        cert = pv.verify(problem, us)
        delta = max(alg.unitary_residual(u) for u in us)
        assert 0.0 < delta <= alg.TOL_PROJ
        assert cert.diagnostics["residual_bound"] == [2 * delta + delta ** 2] * 2
        assert cert.per_x_ratio[1] == 0.0

    def test_forged_frame_cannot_be_built(self):
        # identity blocks next to a one-vector frame: the frame alone is the
        # partition, and a non-square stack is not a partition of unity
        inc = families.self_inclusion(8)
        x = selfadjoint(inc.m_shape, 26)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5, index=1.0)
        honest = pv.verify(problem, partition_from_projections(
            [identity(inc.n_shape)]))
        assert abs(honest.per_x_ratio[0] - 1.0) < 1e-12 and not honest.verified
        e0 = np.eye(8, dtype=complex)[:, :1]
        with pytest.raises(alg.AlgebraError):
            alg.PartitionOfUnity(inc.n_shape, [e0], [[1]])
        with pytest.raises(alg.AlgebraError):
            alg.PartitionOfUnity.from_frames(inc.n_shape, [[e0]])


def with_generic_operator(problem, seed):
    """`problem` with one more, non-self-adjoint, operator in F."""
    rng = child_rng(seed)
    z = Element(problem.inclusion.m_shape,
                [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                 for d in problem.inclusion.m_shape.block_dims])
    return pv.PavingProblem(inclusion=problem.inclusion,
                            operators=problem.operators + (z,), epsilon=problem.epsilon)


def haar_copies_problem():
    # N = M_4 Haar-embedded in M_12 by Λ = [[3]]: one M-block, one dense slab
    spec = incl.InclusionSpec(AlgebraShape.matrix(4), AlgebraShape.matrix(12), ((3,),))
    inc = incl.build_inclusion(spec, seed=9)
    return pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 57)],
                            epsilon=0.5)


class TestVerifyDifferential:
    """`verify` reads ratios off part-diagonal blocks; here they are checked
    against the literal M-size pinch ‖Σ p_i x p_i − E‖ / ‖x − E‖."""

    PROBLEMS = [
        (lambda: with_generic_operator(family_problem("tensor(6,2)", 50), 51), 4),
        (lambda: with_generic_operator(family_problem("self(8)", 52), 53), 3),
        (two_block_problem, 3),   # Haar-embedded, Λ = [[1, 2], [2, 1]]
        (lambda: with_generic_operator(family_problem("tensor(4,3)", 55), 56), 3),
        (lambda: with_generic_operator(haar_copies_problem(), 58), 2),
    ]
    IDS = ["tensor", "self", "two-block", "tensor-three-copies", "haar-three-copies"]

    @staticmethod
    def literal(problem, partition, mode):
        # `partition` lives over M: pinch with it directly
        norm = l2_norm if mode == "l2" else op_norm
        return [norm(pinch(partition, x) - (x - diff)) / norm(diff)
                for x, diff, _ in centered(problem)]

    @staticmethod
    def rotated(problem, r, seed):
        nsh = problem.inclusion.n_shape
        return alg.coordinate_partition(nsh, r, unitary=alg.random_haar_unitary(nsh, seed))

    @pytest.mark.parametrize("mode", ["partition", "l2"])
    @pytest.mark.parametrize("make, r", PROBLEMS, ids=IDS)
    def test_ratios_match_literal_pinch(self, make, r, mode):
        problem = make()
        inc = problem.inclusion
        assert any(alg.hermitian_part_residual(x) > 1e-3 for x in problem.operators)
        for seed in range(3):
            part = self.rotated(problem, r, child_seed(54, seed))
            cert = pv.verify(problem, part, mode=mode)
            ref = self.literal(problem, embed_partition(inc, part), mode)
            assert len(cert.per_x_ratio) == len(ref)
            for got, want in zip(cert.per_x_ratio, ref):
                assert abs(got - want) <= 1e-12 * want


def id_copies_problem():
    # N = M_4 in M_8 by Λ = [[2]] with the identity embedding: two copies
    spec = incl.InclusionSpec(AlgebraShape.matrix(4), AlgebraShape.matrix(8), ((2,),))
    inc = incl.Inclusion(spec, [("id", None)])
    return pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 70)],
                            epsilon=0.5, index=4.0)


class TestVerifyUnitaries:
    """Unitary-mode `verify` reads the average off the slab stacks; here it is
    checked against the literal average ‖(1/r) Σ u x u* − E‖ / ‖x − E‖ of the
    embedded unitaries in M coordinates (conftest `unitary_average`)."""

    PROBLEMS = [
        lambda: with_generic_operator(family_problem("self(8)", 71), 72),
        lambda: with_generic_operator(id_copies_problem(), 73),
        lambda: with_generic_operator(family_problem("tensor(6,2)", 74), 75),
        lambda: with_generic_operator(family_problem("tensor(4,3)", 76), 77),
        two_block_problem,   # Haar-embedded, Λ = [[1, 2], [2, 1]]
        lambda: with_generic_operator(haar_copies_problem(), 78),
    ]
    IDS = ["id-self", "id-copies", "perm-tensor", "perm-three-copies", "dense-two-block",
           "dense-three-copies"]

    @pytest.mark.parametrize("make", PROBLEMS, ids=IDS)
    def test_ratios_match_literal_average(self, make):
        problem = make()
        inc = problem.inclusion
        assert any(alg.hermitian_part_residual(x) > 1e-3 for x in problem.operators)
        for r in (1, 2, 5):
            us = [alg.random_haar_unitary(inc.n_shape, child_seed(79, r, t)) for t in range(r)]
            cert = pv.verify(problem, us)
            embedded = [inc.embed(u) for u in us]
            assert len(cert.per_x_ratio) == len(problem.operators)
            for got, (x, diff, _) in zip(cert.per_x_ratio, centered(problem)):
                want = op_norm(unitary_average(embedded, x) - (x - diff)) / op_norm(diff)
                assert abs(got - want) <= 1e-12 * want

    def test_verify_embeds_nothing(self, monkeypatch):
        # a unitary family and an l2 partition verify with `Inclusion.embed`
        # disabled, to the same certificates
        problem = with_generic_operator(family_problem("tensor(4,3)", 80), 81)
        nsh = problem.inclusion.n_shape
        us = [alg.random_haar_unitary(nsh, child_seed(82, t)) for t in range(2)]
        l2 = pv.l2_pave(problem, 2, seed=3)
        want = [pv.verify(problem, us).summary(), pv.verify(problem, l2).summary()]

        def refuse(self, x):
            raise AssertionError("verify embedded an element of N")
        monkeypatch.setattr(incl.Inclusion, "embed", refuse)
        got = [pv.verify(problem, us).summary(), pv.verify(problem, l2).summary()]
        assert canonical_dumps(got) == canonical_dumps(want)
        assert [g["mode"] for g in got] == ["unitaries", "l2"]


def test_stage_iii_corner_expectation():
    # N = M_3 in M = M_3 ⊕ M_6 by Λ = [[1, 2]], Haar-embedded: h = w* E_N(v b v*) w
    # read off the corner blocks of b
    spec = incl.InclusionSpec(AlgebraShape((3,), (1 / 3,)), AlgebraShape((3, 6), (1 / 9, 1 / 9)),
                              ((1, 2),))
    inc = incl.build_inclusion(spec, seed=56)
    mults = spec.inclusion_matrix[0]
    w = alg.haar_block(child_rng(57), 3)[:, :2]
    v = ref_embed_frame(inc, [w])
    rng = child_rng(58)
    for _ in range(3):
        b = []
        for g in v:
            k = g.shape[1]
            a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            b.append(a @ a.conj().T)
        h = pv._corner_expectation([c[None] for c in b], mults, inc.m_shape.trace_weights,
                                   inc.n_shape.trace_weights[0])[0]
        dense = inc.restrict_to_n(Element(inc.m_shape, [g @ c @ g.conj().T
                                                        for g, c in zip(v, b)]))
        ref = w.conj().T @ dense.blocks[0] @ w
        assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()


class TestDixmier:
    def test_two_point_spectrum_one_fold(self):
        inc = families.self_inclusion(2)
        x = Element(inc.m_shape, [np.diag([1.0, -1.0]).astype(complex)])
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.1,
                                   index=1.0)
        cert = pv.dixmier_average_run(problem)
        assert cert.r == 2 and cert.verified
        assert max(cert.per_x_ratio) < 1e-12

    def test_commutant_element_single_unitary(self):
        inc = families.tensor_product(2, 2)
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        x = Element(inc.m_shape, [np.kron(np.eye(2), b)])
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.3,
                                   index=4.0)
        cert = pv.dixmier_average_run(problem)
        assert cert.r == 1 and cert.verified and cert.per_x_ratio == [0.0]

    def test_counts_within_bound_random(self):
        inc = families.self_inclusion(64)
        for seed in range(5):
            x = selfadjoint(inc.m_shape, child_seed(24, seed))
            for eps in (0.5, 0.25, 0.1):
                problem = pv.PavingProblem(inclusion=inc, operators=[x],
                                           epsilon=eps, index=1.0)
                cert = pv.dixmier_average_run(problem, seed=seed)
                assert cert.verified
                assert cert.r <= pv.dixmier_count_bound(eps)
                assert not cert.soundness_alarm

    def test_multi_element_family(self):
        inc = families.self_inclusion(32)
        ops = [selfadjoint(inc.m_shape, child_seed(25, t)) for t in range(2)]
        problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.25,
                                   index=1.0)
        cert = pv.dixmier_average_run(problem, seed=1)
        assert cert.verified
        assert max(cert.per_x_ratio) <= 0.25 + 1e-9

    def test_proper_inclusion_rejected(self):
        inc = families.tensor_product(4, 2)
        x = selfadjoint(inc.m_shape, 26)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5,
                                   index=4.0)
        with pytest.raises(pv.ResourceError):
            pv.dixmier_average_run(problem)

    def test_non_selfadjoint_rejected(self):
        inc = families.self_inclusion(4)
        rng = child_rng(27)
        x = Element(inc.m_shape, [rng.standard_normal((4, 4))
                                  + 1j * rng.standard_normal((4, 4))])
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5,
                                   index=1.0)
        with pytest.raises(pv.PavingError):
            pv.dixmier_average_run(problem)

    def test_positive_norm_one_lower_bound(self):
        # verified averaging of a projection respects (tau + eps)^-1
        inc = families.self_inclusion(64)
        q = alg.random_element(inc.m_shape, alg.PROJECTION, 28, theta=1 / 16)
        problem = pv.PavingProblem(inclusion=inc, operators=[q], epsilon=0.25,
                                   index=1.0)
        cert = pv.dixmier_average_run(problem, seed=2)
        assert cert.verified and not cert.soundness_alarm
        lb = pv.averaging_count_lower_bound(1 / 16, 0.25)
        assert cert.r >= lb - 1e-9


    def test_dense_embedded_self_inclusion(self):
        # N = M = M_3 ⊕ M_5 with a Haar embedding per block: the folds run in
        # N coordinates and the family is the average the embedded unitaries
        # give in M coordinates
        shape = AlgebraShape((3, 5), (1 / 8, 1 / 8))
        inc = incl.build_inclusion(incl.InclusionSpec(shape, shape, ((1, 0), (0, 1))), seed=90)
        ops = [selfadjoint(inc.m_shape, child_seed(91, t)) for t in range(2)]
        problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.3, index=1.0)
        cert = pv.dixmier_average_run(problem, seed=4)
        assert cert.verified and cert.r > 1
        assert all(u.shape == inc.n_shape for u in cert.unitaries)
        embedded = [inc.embed(u) for u in cert.unitaries]
        for got, x in zip(cert.per_x_ratio, ops):
            e = inc.cond_exp_comm(x)
            want = op_norm(unitary_average(embedded, x) - e) / op_norm(x - e)
            assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("family", ["self(16)", "self(64)", "two-block"])
    @pytest.mark.parametrize("kind, count", [(alg.SELFADJOINT, 1), (alg.SELFADJOINT, 3),
                                             (alg.POSITIVE, 2)])
    def test_matches_reference_folds(self, family, kind, count):
        # the stacked folds give the per-operator loop's certificate byte
        # for byte: unitaries, ratios and diagnostics
        inc = (trivial_two_block_inclusion() if family == "two-block"
               else families.parse_family(family))
        for seed in range(3):
            ops = [alg.random_element(inc.m_shape, kind, child_seed(102, seed, t))
                   for t in range(count)]
            base = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.5, index=1.0)
            for eps in (0.5, 0.1, 0.02):
                problem = base.with_epsilon(eps)
                got, want = pv.dixmier_average_run(problem, seed), reference_dixmier(problem, seed)
                assert canonical_dumps(got.summary()) == canonical_dumps(want.summary())
                assert len(got.unitaries) == len(want.unitaries)
                for u, v in zip(got.unitaries, want.unitaries):
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(u.blocks, v.blocks))

    def test_one_norm_eigensolve_per_block_per_fold(self, monkeypatch):
        # |F| = 3 on self(16): the starting ratios and each fold without a
        # stall take one batched eigvalsh per block for every operator
        inc = families.self_inclusion(16)
        ops = [selfadjoint(inc.m_shape, child_seed(103, t)) for t in range(3)]
        problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.1, index=1.0)
        calls, before_verify = [], []
        eigvalsh, verify = np.linalg.eigvalsh, pv.verify
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        monkeypatch.setattr(pv, "verify", lambda *args, **kwargs: (
            before_verify.append(len(calls)) or verify(*args, **kwargs)))
        cert = pv.dixmier_average_run(problem, seed=0)
        folds = cert.diagnostics["folds"]
        assert folds > 1 and cert.diagnostics["stalls"] == 0
        assert before_verify == [1 + folds]


def trivial_two_block_inclusion():
    """N = M = M_3 ⊕ M_5, Haar-embedded block by block."""
    shape = AlgebraShape((3, 5), (1 / 8, 1 / 8))
    return incl.build_inclusion(incl.InclusionSpec(shape, shape, ((1, 0), (0, 1))), seed=92)


class TestSlabCoordinateProblem:
    """A problem holds x − E, E and ‖x − E‖ in slab coordinates only."""

    def test_denominators_are_slab_norms(self):
        for inc in (families.tensor_product(8, 2), families.self_inclusion(16),
                    two_block_inclusion()):
            ops = [selfadjoint(inc.m_shape, child_seed(95, t)) for t in range(2)]
            problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.5)
            want = [op_norm(x - inc.cond_exp_comm(x)) for x in ops]
            np.testing.assert_allclose(problem.dens, want, rtol=1e-14)

    def test_nothing_formed_in_m_coordinates(self, monkeypatch):
        # with the M-coordinate maps disabled every producer, `scan` and both
        # `verify` modes still run, a positive F included, so the soundness
        # alarm and the scan lower bound read the compact E
        def refuse(self, x):
            raise AssertionError("an element was formed in M coordinates")
        for name in ("embed", "restrict_to_n", "cond_exp_comm"):
            monkeypatch.setattr(incl.Inclusion, name, refuse)
        cases = [families.tensor_product(8, 2), families.self_inclusion(16),
                 two_block_inclusion(), trivial_two_block_inclusion()]
        for t, inc in enumerate(cases):
            ops = [selfadjoint(inc.m_shape, child_seed(96, t)),
                   alg.random_element(inc.m_shape, alg.PROJECTION, child_seed(97, t),
                                      theta=half_trace(inc.m_shape))]
            for positive, operators in ((False, ops[:1]), (True, ops[1:])):
                problem = pv.PavingProblem(inclusion=inc, operators=operators,
                                           epsilon=0.5, index=inc.known_index or 4.0)
                nsh = inc.n_shape
                us = [alg.random_haar_unitary(nsh, child_seed(98, t, i)) for i in range(2)]
                certs = [pv.pave_search(problem, pv.SearchConfig(r=2, restarts=1, steps=10)),
                         pv.l2_pave(problem, 2, seed=1), pv.verify(problem, us)]
                certs.append(pv.verify(problem, certs[0]))
                if nsh.num_blocks == 1:
                    certs.append(pv.pave_constructive(problem, pv.PipelineConfig(2, 2, seed=3)))
                if inc.spec.is_trivial:
                    certs.append(pv.dixmier_average_run(problem, seed=1))
                assert not any(c.soundness_alarm for c in certs)
                rows = pv.scan(inc, [0.5], operators, problem.index, r_cap=2)
                assert (rows[0]["lower_bound"] is not None) == positive

    def test_positivity_screen(self, monkeypatch):
        # a self-adjoint trace-zero x fails on its diagonal: building the
        # problem, which screens F once, and a unitary-mode verify run no
        # eigvalsh for it in `_is_positive`
        calls, inside = [], []
        eigvalsh, is_positive = np.linalg.eigvalsh, pv._is_positive
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(bool(inside)) or eigvalsh(a))

        def screened(x):
            inside.append(1)
            try:
                return is_positive(x)
            finally:
                inside.clear()
        monkeypatch.setattr(pv, "_is_positive", screened)
        inc = families.tensor_product(8, 2)
        x = selfadjoint(inc.m_shape, 99)
        assert abs(trace(x)) <= 1e-12
        calls.clear()
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.5, index=4.0)
        us = [alg.random_haar_unitary(inc.n_shape, child_seed(100, i)) for i in range(2)]
        cert = pv.verify(problem, us)
        assert cert.diagnostics["lower_bounds"] == [None]
        assert calls and not any(calls)   # eigvalsh ran, but none in `_is_positive`
        monkeypatch.undo()

        def full(x):
            return (alg.hermitian_part_residual(x) <= alg.TOL_PROJ
                    and min(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0])
                            for b in x.blocks) >= -alg.TOL_PROJ)
        shape = AlgebraShape((3, 4), (1 / 7, 1 / 7))
        xs = [alg.random_element(shape, kind, child_seed(101, t), theta=half_trace(shape))
              for t, kind in enumerate((alg.PROJECTION, alg.POSITIVE, alg.SELFADJOINT))]
        v = np.array([[1.0], [1.0], [0.0]], dtype=complex)
        psd = v @ v.conj().T   # positive semidefinite, with a zero diagonal entry
        xs.append(Element(shape, [psd, np.eye(4, dtype=complex)]))
        xs.append(Element(shape, [psd - 1e-6 * np.eye(3), np.eye(4, dtype=complex)]))
        # a nonnegative diagonal that passes the screen, and eigenvalue −1
        flip = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        xs.append(Element(shape, [flip, np.eye(4, dtype=complex)]))
        for x in xs:
            assert pv._is_positive(x) == full(x)
        assert [pv._is_positive(x) for x in xs] == [True, True, False, True, False, False]


class TestPinchingFloor:
    """verify records ‖x‖ / (‖E‖ + num + (2δ + δ²)‖x − E‖) for each x ≥ 0 in
    every mode, and an r below it raises the soundness alarm."""

    @staticmethod
    def certificates(problem):
        inc = problem.inclusion
        us = [alg.random_haar_unitary(inc.n_shape, child_seed(111, i)) for i in range(3)]
        return [pv.pave_search(problem, pv.SearchConfig(r=4, restarts=1, steps=20)),
                pv.l2_pave(problem, 4, seed=1), pv.verify(problem, us)]

    def test_floors_in_every_mode(self):
        for inc in (families.self_inclusion(16), families.tensor_product(8, 2),
                    two_block_inclusion()):
            ops = [alg.random_element(inc.m_shape, alg.PROJECTION, child_seed(110, 0),
                                      theta=half_trace(inc.m_shape)),
                   selfadjoint(inc.m_shape, child_seed(110, 1)),
                   alg.random_element(inc.m_shape, alg.POSITIVE, child_seed(110, 2))]
            problem = pv.PavingProblem(inclusion=inc, operators=ops, epsilon=0.9)
            assert [norms is None for norms in problem.positive_norms] == [False, True, False]
            for x, norms in zip(ops[::2], problem.positive_norms[::2]):
                e = inc.cond_exp_comm(x)
                assert norms == pytest.approx((op_norm(x), op_norm(e)), rel=1e-12)
            for cert in self.certificates(problem):
                floors = cert.diagnostics["lower_bounds"]
                assert floors[1] is None and not cert.soundness_alarm
                assert all(0.0 < floor <= cert.r for floor in floors[::2]), cert.mode

    def test_floor_counts_the_residual(self):
        # candidates 1e-9 off exact: the floor adds (2δ + δ²)‖x − E‖ to
        # ‖E‖ + num, and an l2 certificate takes the operator-norm num of
        # its partition
        inc = families.self_inclusion(16)
        q = alg.random_element(inc.m_shape, alg.PROJECTION, child_seed(110, 0), theta=0.25)
        problem = pv.PavingProblem(inclusion=inc, operators=[q], epsilon=0.9)
        search, l2, family = self.certificates(problem)
        part = search.partition
        nudged = [alg.PartitionOfUnity(part.shape, [(1 + 1e-9) * s for s in part.stacks],
                                       part.ranks),
                  [(1 + 1e-9) * u for u in family.unitaries]]
        (norm_x, norm_e), = problem.positive_norms
        den, = problem.dens
        for cert in [pv.verify(problem, c) for c in nudged]:
            bound, = cert.diagnostics["residual_bound"]
            num = cert.per_x_ratio[0] * den
            assert bound > 1e-9
            floor, = cert.diagnostics["lower_bounds"]
            assert floor == pytest.approx(norm_x / (norm_e + num + bound * den), rel=1e-13)
            assert floor != pytest.approx(norm_x / (norm_e + num), rel=1e-10)
        as_partition = pv.verify(problem, l2.partition)
        assert as_partition.mode == "partition"
        assert l2.diagnostics["lower_bounds"] == as_partition.diagnostics["lower_bounds"]

    def test_alarm_in_every_mode(self):
        # the recorded ‖x‖ is set 1 % above r (‖E‖ + num + (2δ + δ²)‖x − E‖)
        inc = families.self_inclusion(16)
        q = alg.random_element(inc.m_shape, alg.PROJECTION, child_seed(110, 0), theta=0.25)
        problem = pv.PavingProblem(inclusion=inc, operators=[q], epsilon=0.9)
        certs = self.certificates(problem)
        assert [c.mode for c in certs] == ["partition", "l2", "unitaries"]
        for cert in certs:
            assert cert.verified and not cert.soundness_alarm
            (norm_x, norm_e), = problem.positive_norms
            floor, = cert.diagnostics["lower_bounds"]
            tampered = copy.copy(problem)
            tampered.positive_norms = ((1.01 * cert.r * norm_x / floor, norm_e),)
            again = pv.verify(tampered, cert)
            assert again.diagnostics["lower_bounds"][0] == pytest.approx(1.01 * cert.r)
            assert again.soundness_alarm and not again.verified, cert.mode
            assert again.per_x_ratio == cert.per_x_ratio

    def test_old_rule_values_kept(self):
        # positive norm-one x with scalar E(x) under a unitary family: the
        # floor is the (τ + ‖avg − E‖)^-1 of `averaging_count_lower_bound`
        # (criterion 7's projections and `test_positive_norm_one_lower_bound`)
        inc = families.self_inclusion(64)
        cases = [(child_seed(7007, int(theta * 64)), theta, eps, 77)
                 for theta in (1 / 64, 1 / 16, 1 / 4) for eps in (0.5, 0.25, 0.1)]
        cases.append((28, 1 / 16, 0.25, 2))
        for seed, theta, eps, run_seed in cases:
            q = alg.random_element(inc.m_shape, alg.PROJECTION, seed, theta=theta)
            problem = pv.PavingProblem(inclusion=inc, operators=[q], epsilon=eps, index=1.0)
            cert = pv.dixmier_average_run(problem, seed=run_seed)
            avg = unitary_average([inc.embed(u) for u in cert.unitaries], q)
            num = op_norm(avg - inc.cond_exp_comm(q))
            old = pv.averaging_count_lower_bound(float(trace(q).real), max(num, pv.NORM_FLOOR))
            assert cert.diagnostics["lower_bounds"][0] == pytest.approx(old, rel=1e-12, abs=0)
            assert not cert.soundness_alarm


class TestL2Paving:
    def test_single_part(self):
        inc = families.self_inclusion(8)
        x = selfadjoint(inc.m_shape, 29)
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.3,
                                   index=1.0)
        cert = pv.l2_pave(problem, 1, seed=0)
        assert abs(cert.per_x_ratio[0] - 1.0) < 1e-12
        assert cert.threshold == 1.0 + 0.05

    def test_block_diagonal_worst_case(self):
        # an operator already block-diagonal for the sampled partition is
        # fixed by the pinching: ratio 1
        inc = families.self_inclusion(12)
        seed = 30
        u = alg.random_haar_unitary(inc.n_shape, child_rng(seed))
        vals = np.concatenate([np.full(4, 1.0), np.full(4, -0.5), np.full(4, -0.5)])
        x = Element(inc.m_shape, [(u.blocks[0] * vals) @ u.blocks[0].conj().T])
        problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.3,
                                   index=1.0)
        cert = pv.l2_pave(problem, 3, seed=seed)
        assert abs(cert.per_x_ratio[0] - 1.0) < 1e-9
        assert not cert.verified

    def test_verify_reads_l2_threshold_from_config(self):
        inc = families.self_inclusion(16)
        problem = pv.PavingProblem(inclusion=inc, operators=[selfadjoint(inc.m_shape, 34)],
                                   epsilon=0.3, index=1.0)
        part = alg.coordinate_partition(inc.n_shape, 8)
        configured = pv.verify(problem, part, mode="l2",
                               config={"n_parts": 4, "delta_l2": 0.1})
        assert configured.threshold == 4 ** -0.5 + 0.1
        assert pv.verify(problem, part, mode="l2").threshold == 8 ** -0.5 + pv.L2_SLACK
        cert = pv.l2_pave(problem, 4, seed=1)
        assert pv.verify(problem, cert).threshold == cert.threshold == 0.5 + pv.L2_SLACK

    def test_haar_band(self):
        inc = families.self_inclusion(64)
        ratios = []
        for seed in range(10):
            x = selfadjoint(inc.m_shape, child_seed(31, seed))
            problem = pv.PavingProblem(inclusion=inc, operators=[x], epsilon=0.3,
                                       index=1.0)
            cert = pv.l2_pave(problem, 4, seed=seed)
            ratios.append(cert.per_x_ratio[0])
        assert 0.8 * 0.5 <= np.mean(ratios) <= 1.2 * 0.5


class TestScan:
    def test_rows_and_bounds(self):
        inc = families.self_inclusion(8)
        q = alg.random_element(inc.m_shape, alg.PROJECTION, 32, theta=0.25)
        rows = pv.scan(inc, [0.8, 1.2], [q], 1.0, seed=3, r_cap=8)
        assert [r["epsilon"] for r in rows] == [0.8, 1.2]
        for row in rows:
            assert row["r_verified"]
            assert row["r_found"] <= row["theorem_r"]
        # epsilon >= 1 is paved by the trivial partition
        assert rows[1]["r_found"] == 1
        # lower-bound column: the pinching bound of the positive member, with
        # E(q) = τ(q) = 0.25 since N = M has scalar relative commutant
        den = op_norm(q - 0.25 * identity(inc.m_shape))
        bound = op_norm(q) / (0.25 + (0.8 + pv.VERIFY_SLACK) * den)
        assert rows[0]["lower_bound"] == math.ceil(bound - 1e-12) == 2

    def test_found_respects_lemma_bound(self):
        # verified averaging size can never undercut the (tau+eps)^-1 floor
        inc = families.self_inclusion(16)
        q = alg.random_element(inc.m_shape, alg.PROJECTION, 33, theta=1 / 16)
        rows = pv.scan(inc, [0.45], [q], 1.0, seed=4, r_cap=16)
        row = rows[0]
        assert row["r_verified"]
        assert row["r_found"] >= row["lower_bound"]

    def test_lower_bound_holds_off_scalar_expectation(self):
        # E_{N'∩M}(x) is not scalar: x = 1 ⊗ e00 lies in N'∩M, and the
        # second x has a part inside N'∩M and a part outside it
        e00, z = np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        inc = families.tensor_product(2, 2)
        x = Element(inc.m_shape, [np.kron(np.eye(2), e00).astype(complex)])
        rows = pv.scan(inc, [0.1], [x], inc.known_index)
        inc = families.tensor_product(2, 8)
        x = Element(inc.m_shape, [np.kron(np.eye(2), np.diag([1.0] + [0.0] * 7))
                                  + 0.1 * np.kron(z, np.eye(8)) + 0.1 * np.eye(16)])
        rows += pv.scan(inc, [0.3, 0.2], [x], inc.known_index)
        assert [row["lower_bound"] for row in rows] == [1, 2, 2]
        assert all(row["r_verified"] and row["r_found"] >= row["lower_bound"] for row in rows)

    def test_no_positive_member_has_no_lower_bound(self):
        # the averaging-count floor speaks only of positive elements; a
        # Hadamard-basis pair pinches diag(1, -1) to exactly 0
        inc = families.self_inclusion(2)
        x = Element(inc.m_shape, [np.diag([1.0, -1.0]).astype(complex)])
        rows = pv.scan(inc, [0.1, 0.05], [x], 1.0)
        assert [row["lower_bound"] for row in rows] == [None, None]
        assert [row["r_found"] for row in rows] == [2, 2]

    def test_positive_within_tol_proj_has_lower_bound(self):
        # one positivity test for scan and verify: smallest eigenvalue
        # >= -TOL_PROJ counts as positive, below it does not
        inc = families.self_inclusion(2)
        for lam, positive in ((-0.5 * alg.TOL_PROJ, True), (-2 * alg.TOL_PROJ, False)):
            x = Element(inc.m_shape, [np.diag([1.0, lam]).astype(complex)])
            row = pv.scan(inc, [0.9], [x], 1.0, r_cap=2)[0]
            assert (row["lower_bound"] is not None) == positive

    def test_empty_grid(self):
        inc = families.self_inclusion(8)
        with pytest.raises(pv.PavingError):
            pv.scan(inc, [], [identity(inc.m_shape)], 1.0)

    def test_centers_each_operator_once_per_grid(self, monkeypatch):
        calls = []
        center = incl.Inclusion.center
        monkeypatch.setattr(incl.Inclusion, "center",
                            lambda self, x, *out: calls.append(x) or center(self, x, *out))
        inc = families.self_inclusion(8)
        ops = [selfadjoint(inc.m_shape, child_seed(59, t)) for t in range(2)]
        rows = pv.scan(inc, [0.5, 0.7, 1.0], ops, 1.0, seed=5, r_cap=4)
        assert [row["epsilon"] for row in rows] == [0.5, 0.7, 1.0]
        assert len(calls) == len(ops)
