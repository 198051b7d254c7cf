"""Unit and property tests for the multi-matrix algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavelab import algebra as alg
from pavelab import families
from pavelab import inclusion as incl
from pavelab.algebra import AlgebraShape, Element, identity, zero, trace, op_norm
from pavelab.seeding import child_rng, child_seed

from conftest import (cyclic_unitary, elements_close, l2_norm, op_norm_power,
                      partition_from_projections, pinch, projection_defect, random_spec,
                      ref_embed_frame, spectral_partition, two_block_inclusion,
                      unitary_average)

M2 = AlgebraShape.matrix(2)
M3 = AlgebraShape.matrix(3)
MIXED = AlgebraShape((2, 3), (0.125, 0.25))


def shapes():
    return st.sampled_from([M2, M3, MIXED, AlgebraShape.matrix(5)])


def rand(shape, seed, kind=alg.SELFADJOINT):
    return alg.random_element(shape, kind, seed)


def rand_generic(shape, seed):
    rng = child_rng(seed)
    blocks = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for d in shape.block_dims]
    return Element(shape, blocks)


class TestShape:
    def test_normalization_enforced(self):
        with pytest.raises(alg.AlgebraError):
            AlgebraShape((2,), (1.0,))
        with pytest.raises(alg.AlgebraError):
            AlgebraShape((2, 2), (0.25, -0.25))

    def test_matrix_factory(self):
        sh = AlgebraShape.matrix(7)
        assert sh.block_dims == (7,) and abs(sh.trace_weights[0] - 1 / 7) < 1e-15

    def test_mixed_shape_is_normalized(self):
        assert sum(t * d for t, d in zip(MIXED.trace_weights, MIXED.block_dims)) == 1.0


class TestTrace:
    def test_identity_traces_to_one(self):
        for sh in (M2, M3, MIXED):
            assert abs(trace(identity(sh)) - 1.0) < 1e-14

    def test_direct_sum_of_weights(self):
        x = zero(M2)
        x.blocks[0][0, 0] = 1.0
        assert abs(trace(x) - 0.5) < 1e-15

    def test_tracial_property(self):
        x, y = rand_generic(MIXED, 1), rand_generic(MIXED, 2)
        assert abs(trace(x @ y) - trace(y @ x)) < 1e-12


class TestNorms:
    def test_diagonal_op_norm(self):
        x = Element(M3, [np.diag([1.0, 2.0, 3.0]).astype(complex)])
        assert abs(op_norm(x) - 3.0) < 1e-12

    def test_nilpotent_singular_value(self):
        x = Element(M2, [np.array([[0, 1], [0, 0]], dtype=complex)])
        assert abs(op_norm(x) - 1.0) < 1e-12

    def test_op_norm_matches_power_iteration(self):
        x = rand(MIXED, 3)
        assert abs(op_norm(x) - op_norm_power(x)) < 1e-8

    def test_l2_identity(self):
        assert abs(l2_norm(identity(MIXED)) - 1.0) < 1e-14

    def test_l2_of_projection(self):
        p = alg.random_element(AlgebraShape.matrix(6), alg.PROJECTION, 5, theta=0.5)
        assert abs(l2_norm(p) - np.sqrt(trace(p).real)) < 1e-12

    def test_l2_below_op(self):
        for seed in range(5):
            x = rand_generic(MIXED, seed)
            assert l2_norm(x) <= op_norm(x) + 1e-12

    def test_nonfinite_rejected(self):
        x = identity(M2)
        x.blocks[0][0, 0] = np.nan
        with pytest.raises(alg.AlgebraError):
            op_norm(x)


def test_ceil_guarded():
    # one ulp above an integer gains nothing, anything more a whole step
    assert alg.ceil_guarded(49.00000000000001) == 49
    assert alg.ceil_guarded(4 * 49.00000000000001 * 4) == 784
    assert alg.ceil_guarded(49.0) == 49 and alg.ceil_guarded(0.0) == 0
    assert alg.ceil_guarded(48.99999999999999) == 49
    assert alg.ceil_guarded(1 + 1e-9) == 2 and alg.ceil_guarded(784.5) == 785
    assert alg.ceil_guarded(1e6 + 1e-4) == 1_000_001


class TestRingOps:
    def test_adjoint_involution(self):
        x = rand_generic(MIXED, 4)
        assert elements_close(x.adjoint().adjoint(), x, 0.0)

    def test_product_adjoint(self):
        x, y = rand_generic(M3, 5), rand_generic(M3, 6)
        lhs = (x @ y).adjoint()
        rhs = y.adjoint() @ x.adjoint()
        assert elements_close(lhs, rhs, 1e-13)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes(), seed=st.integers(0, 10**6))
    def test_associativity(self, shape, seed):
        x = rand_generic(shape, child_seed(seed, 0))
        y = rand_generic(shape, child_seed(seed, 1))
        z = rand_generic(shape, child_seed(seed, 2))
        lhs, rhs = (x @ y) @ z, x @ (y @ z)
        scale = max(op_norm(lhs), 1.0)
        assert max(np.abs(a - b).max() for a, b in zip(lhs.blocks, rhs.blocks)) \
            <= 1e-12 * scale

    def test_shape_mismatch(self):
        with pytest.raises(alg.ShapeMismatchError):
            identity(M2) @ identity(M3)


class TestRandomSampling:
    def test_haar_unitarity(self):
        u = alg.random_haar_unitary(MIXED, 15)
        assert op_norm(u @ u.adjoint() - identity(MIXED)) < 1e-10

    def test_distinct_seeds_differ(self):
        u1 = alg.random_haar_unitary(M3, 1)
        u2 = alg.random_haar_unitary(M3, 2)
        assert not elements_close(u1, u2, 1e-3)

    def test_haar_trace_moment(self):
        # E |Tr u|^2 = 1 for Haar on U(20)
        sh = AlgebraShape.matrix(20)
        vals = []
        for t in range(200):
            u = alg.random_haar_unitary(sh, child_seed(16, t))
            vals.append(abs(np.trace(u.blocks[0])) ** 2)
        assert abs(np.mean(vals) - 1.0) < 0.3

    def test_projection_full_trace(self):
        p = alg.random_element(M3, alg.PROJECTION, 17, theta=1.0)
        assert elements_close(p, identity(M3), 1e-12)

    def test_selfadjoint_class(self):
        x = alg.random_element(MIXED, alg.SELFADJOINT, 18)
        assert op_norm(x) <= 1.0 + 1e-12
        assert abs(trace(x)) <= 1e-10
        assert alg.hermitian_part_residual(x) < 1e-12

    def test_projection_rank(self):
        sh = AlgebraShape.matrix(64)
        p = alg.random_element(sh, alg.PROJECTION, 19, theta=0.25)
        assert round(trace(p).real * 64) == 16
        assert projection_defect(p) < 1e-12

    def test_unrealizable_trace(self):
        with pytest.raises(alg.InfeasibleTraceError) as err:
            alg.random_element(M2, alg.PROJECTION, 20, theta=0.3)
        assert abs(err.value.nearest - 0.5) < 1e-12

    @pytest.mark.parametrize("dims, weights", [
        ((3, 4), (1 / 7, 1 / 7)), ((1, 2, 3), (1 / 6,) * 3), ((2, 5), (0.25, 0.1)),
        ((4,), (0.25,)), ((1, 1, 1, 1), (0.25,) * 4), ((3, 6), (1 / 15, 2 / 15)),
    ])
    def test_projection_ranks_against_brute_force(self, dims, weights):
        # every rank tuple in lexicographic order, each sum taken block by
        # block: the first tuple of least error, ties included
        def walk(prefix, acc):
            if len(prefix) == len(dims):
                yield tuple(prefix), acc
                return
            k = len(prefix)
            for r in range(dims[k] + 1):
                yield from walk(prefix + [r], acc + weights[k] * r)
        shape = AlgebraShape(dims, weights)
        for theta in (0.0, 0.1, 0.25, 1 / 3, 0.5, 0.6, 0.77, 1.0):
            best = None
            for ranks, acc in walk([], 0.0):
                if best is None or abs(acc - theta) < best[1]:
                    best = ranks, abs(acc - theta)
            assert alg._projection_ranks(shape, theta) == best

    def test_seed_reproducibility(self):
        a = alg.random_element(MIXED, alg.SELFADJOINT, 21)
        b = alg.random_element(MIXED, alg.SELFADJOINT, 21)
        assert all((x == y).all() for x, y in zip(a.blocks, b.blocks))


class TestPartitionsAndPinching:
    def test_cyclic_two_parts(self):
        p1 = Element(M2, [np.diag([1.0, 0.0]).astype(complex)])
        p2 = Element(M2, [np.diag([0.0, 1.0]).astype(complex)])
        v = cyclic_unitary(partition_from_projections([p1, p2]))
        assert np.allclose(v.v.blocks[0], np.diag([1.0, -1.0]))

    def test_cyclic_trivial(self):
        v = cyclic_unitary(partition_from_projections([identity(M3)]))
        assert elements_close(v.v, identity(M3), 0.0)

    def test_average_over_powers_equals_pinch(self):
        sh = AlgebraShape.matrix(12)
        part = alg.coordinate_partition(sh, 3, unitary=alg.random_haar_unitary(sh, 22))
        v = cyclic_unitary(part)
        x = rand_generic(sh, 23)
        powers = [identity(sh)]
        for _ in range(2):
            powers.append(powers[-1] @ v.v)
        assert alg.unitary_residual(v.v) <= alg.TOL_PROJ
        assert op_norm(powers[-1] @ v.v - identity(sh)) <= alg.TOL_PROJ  # v^3 = 1
        avg = unitary_average(powers, x)
        assert op_norm(avg - pinch(part, x)) < 1e-10

    def test_spectral_partition_recovery(self):
        sh = AlgebraShape.matrix(12)
        part = alg.coordinate_partition(sh, 4, unitary=alg.random_haar_unitary(sh, 24))
        v = cyclic_unitary(part)
        plain = alg.CyclicUnitary(v=Element(sh, [v.v.blocks[0].copy()]), order=4)
        rec = spectral_partition(plain)
        for f, g in zip(part.frames(), rec.frames()):
            p, q = alg.frame_projection(sh, f), alg.frame_projection(sh, g)
            assert elements_close(p, q, 1e-9)

    def test_pinch_trivial(self):
        x = rand_generic(M3, 25)
        pinched = pinch(partition_from_projections([identity(M3)]), x)
        assert elements_close(pinched, x, 1e-14)

    def test_pinch_diagonal(self):
        x = Element(M2, [np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)])
        part = alg.coordinate_partition(M2, 2)
        pinched = pinch(part, x)
        assert np.allclose(pinched.blocks[0], np.diag([1.0, 4.0]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), r=st.integers(1, 4))
    def test_pinch_contraction(self, seed, r):
        sh = AlgebraShape.matrix(8)
        part = alg.coordinate_partition(
            sh, r, unitary=alg.random_haar_unitary(sh, child_seed(seed, 0)))
        x = rand_generic(sh, child_seed(seed, 1))
        pinched = pinch(part, x)
        assert op_norm(pinched) <= op_norm(x) + 1e-10
        assert l2_norm(pinched) <= l2_norm(x) + 1e-10

    def test_pinch_idempotent(self):
        sh = AlgebraShape.matrix(9)
        part = alg.coordinate_partition(sh, 3, unitary=alg.random_haar_unitary(sh, 26))
        x = rand_generic(sh, 27)
        once = pinch(part, x)
        twice = pinch(part, once)
        assert op_norm(once - twice) < 1e-11

    def test_unitary_average_trivial_and_trace(self):
        x = rand_generic(MIXED, 28)
        assert elements_close(unitary_average([identity(MIXED)], x), x, 0.0)
        us = [alg.random_haar_unitary(MIXED, child_seed(29, t)) for t in range(3)]
        avg = unitary_average(us, x)
        assert abs(trace(avg) - trace(x)) < 1e-12

    def test_unitary_residual_and_its_checks(self):
        # max over blocks of ‖u u* - 1‖_F: block 3 of 2·1 gives 3 sqrt(3)
        assert alg.unitary_residual(2.0 * identity(MIXED)) == pytest.approx(
            3.0 * np.sqrt(3.0), rel=1e-15)
        assert alg.unitary_residual(alg.random_haar_unitary(MIXED, 30)) < 1e-13

    def test_invalid_partition_rejected(self):
        p1 = Element(M2, [np.diag([1.0, 0.0]).astype(complex)])
        assert partition_from_projections([p1, p1]).residual() > alg.TOL_PROJ

    def test_cyclic_unitary_identity_property(self):
        # (1/n) sum_k v^k x v^-k stays within 1e-9 of the pinching
        sh = AlgebraShape.matrix(10)
        for seed in range(3):
            part = alg.coordinate_partition(
                sh, 5, unitary=alg.random_haar_unitary(sh, child_seed(30, seed)))
            v = cyclic_unitary(part)
            x = rand_generic(sh, child_seed(31, seed))
            powers, acc = [identity(sh)], identity(sh)
            for _ in range(4):
                acc = acc @ v.v
                powers.append(acc)
            avg = unitary_average(powers, x)
            assert op_norm(avg - pinch(part, x)) <= 1e-9


class TestBalancedPartitions:
    def test_balanced_sizes(self):
        assert alg.balanced_sizes(512, 20) == [26] * 12 + [25] * 8
        assert alg.balanced_sizes(6, 3) == [2, 2, 2]

    def test_slot_partition_traces(self):
        parts = alg.balanced_slot_partition(MIXED, 3)
        loads = [sum(MIXED.trace_weights[k] for k, _ in part) for part in parts]
        assert max(loads) - min(loads) <= max(MIXED.trace_weights) + 1e-15

    def test_slot_partition_granularity(self):
        with pytest.raises(alg.AlgebraError):
            alg.balanced_slot_partition(M2, 3)

    @staticmethod
    def argmin_slot_partition(shape, r):
        # the np.argmin loop that the list of loads replaced
        loads = np.zeros(r)
        parts = [[] for _ in range(r)]
        for k, d in enumerate(shape.block_dims):
            for i in range(d):
                j = int(np.argmin(loads))
                parts[j].append((k, i))
                loads[j] += shape.trace_weights[k]
        return parts

    @pytest.mark.parametrize("shape, rs", [
        (AlgebraShape.matrix(32), (1, 5, 16, 32)),
        (AlgebraShape((3, 4, 2), (1 / 9, 1 / 9, 1 / 9)), (2, 4, 9)),
        (AlgebraShape((2, 3, 1), (0.1, 0.2, 0.2)), (2, 3, 6)),
    ], ids=["single-block", "multi-block", "unequal-weight"])
    def test_slot_partition_matches_argmin_loop(self, shape, rs):
        for r in rs:
            parts = self.argmin_slot_partition(shape, r)
            assert alg.balanced_slot_partition(shape, r) == parts
            # `slot_order` lists each block's slots part by part
            orders, ranks = alg.slot_order(shape, r)
            for k in range(shape.num_blocks):
                assert orders[k].tolist() == [i for part in parts for blk, i in part if blk == k]
                assert list(ranks[k]) == [sum(blk == k for blk, _ in part) for part in parts]


def partial_frames(inc, seed, empty_block=None):
    """Per N-block, random columns of random width (none in `empty_block`)."""
    rng = child_rng(seed)
    frames = []
    for k, nk in enumerate(inc.n_shape.block_dims):
        c = 0 if k == empty_block else int(rng.integers(1, nk + 1))
        frames.append(rng.standard_normal((nk, c)) + 1j * rng.standard_normal((nk, c)))
    return frames


def assert_compression_matches_dense(inc, frames, xs):
    """`alg.compression` of the slab stacks against g* (x − E) g per M-block,
    g the literal embedded frame of `frames` (`ref_embed_frame`)."""
    centered = [(inc.cond_exp_comm(x), inc.center(x)[1]) for x in xs]
    for l, g in enumerate(ref_embed_frame(inc, frames)):
        got = alg.compression(frames, inc.slab_layout(l),
                              np.stack([slabs[l] for _, slabs in centered]))
        assert got.shape == (len(xs), g.shape[1], g.shape[1])
        for w, x, (e, _) in zip(got, xs, centered):
            want = g.conj().T @ (x.blocks[l] - e.blocks[l]) @ g
            # an entry that vanishes in slab coordinates is rounding in M's
            np.testing.assert_allclose(w, want, rtol=1e-12,
                                       atol=1e-12 * max(np.abs(want).max(initial=0.0), 1.0))


class TestCompression:
    """W = G* Y G in slab coordinates, for G = ⊕_slab 1_mult ⊗ F_k."""

    CASES = [lambda: families.tensor_product(8, 2),
             two_block_inclusion]   # several N-blocks, two slabs per M-block

    @pytest.mark.parametrize("make", CASES, ids=["tensor(8,2)", "two-block"])
    def test_partial_frames(self, make):
        inc = make()
        xs = [rand_generic(inc.m_shape, 40), rand(inc.m_shape, 41)]
        for t, empty in enumerate((None, 0, inc.n_shape.num_blocks - 1)):
            assert_compression_matches_dense(inc, partial_frames(inc, child_seed(42, t), empty), xs)

    @pytest.mark.parametrize("make", CASES, ids=["tensor(8,2)", "two-block"])
    def test_square_conjugated_frames(self, make):
        # frames u_k*: W = V Y V* for the N-unitary V = ⊕ 1 ⊗ u_k, as
        # unitary-mode `verify` reads it
        inc = make()
        xs = [rand_generic(inc.m_shape, 43), rand(inc.m_shape, 44)]
        u = alg.random_haar_unitary(inc.n_shape, 45)
        assert_compression_matches_dense(inc, [b.conj().T for b in u.blocks], xs)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.sampled_from(["dense", "perm", "id"]))
    def test_random_small_specs(self, seed, kind):
        spec = random_spec(child_seed(seed, 0))
        rng = child_rng(seed, 1)
        embeds = [("dense", alg.haar_block(rng, d)) if kind == "dense"
                  else ("perm", rng.permutation(d)) if kind == "perm" else ("id", None)
                  for d in spec.m_shape.block_dims]
        inc = incl.Inclusion(spec, embeds)
        empty = int(rng.integers(-1, spec.n_shape.num_blocks))
        assert_compression_matches_dense(inc, partial_frames(inc, child_seed(seed, 2),
                                                             empty if empty >= 0 else None),
                                         [rand_generic(inc.m_shape, child_seed(seed, 3))])
