"""Tests for the pinched-norm random-matrix experiments."""

import numpy as np
import pytest

from pavelab import algebra as alg
from pavelab import freeness as fr
from pavelab.algebra import identity, op_norm, trace
from pavelab.seeding import child_rng, child_seed

from conftest import pinch, sample_pair, spectral_partition, unitary_average


class TestBound:
    def test_values(self):
        assert fr.kesten_bound(1) == 0.0
        assert abs(fr.kesten_bound(2) - 1.0) < 1e-15
        assert abs(fr.kesten_bound(5) - 0.8) < 1e-15
        assert abs(fr.kesten_bound(4) - 2 * np.sqrt(3) / 4) < 1e-15


class TestSamplePair:
    def test_minimal_case_spectrum(self):
        v, *_ = sample_pair(2, 2, 0)
        eigs = np.linalg.eigvals(v.v.blocks[0])
        assert sorted(np.round(eigs.real, 9)) == [-1.0, 1.0]

    def test_power_traces_vanish(self):
        v, *_ = sample_pair(4, 12, 1)
        acc = identity(v.v.shape)
        for k in range(1, 4):
            acc = acc @ v.v
            assert abs(trace(acc)) < 1e-12

    def test_contraction_properties(self):
        _, x, *_ = sample_pair(3, 9, 2)
        assert op_norm(x) <= 1.0 + 1e-10
        assert abs(trace(x)) < 1e-12
        assert alg.hermitian_part_residual(x) < 1e-12

    def test_divisibility(self):
        with pytest.raises(ValueError):
            sample_pair(3, 10, 0)

    def test_mixed_moments_shrink_with_dimension(self):
        # tau(v^k x v^-k x) decays as the rotations become freer
        vals = {}
        for dim in (8, 64, 512):
            worst = 0.0
            for s in range(3):
                v, x, *_ = sample_pair(2, dim, child_seed(3, dim, s))
                w = v.v @ x @ v.v.adjoint() @ x
                worst = max(worst, abs(trace(w)))
            vals[dim] = worst
        assert vals[64] < vals[8]
        assert vals[512] < vals[64]


class TestFreenessDefect:
    def test_zero_element(self):
        v, x, *_ = sample_pair(3, 9, 4)
        assert fr.freeness_defect(v, alg.zero(x.shape), 3) == 0.0

    def test_scalar_unitary_vacuous(self):
        sh = alg.AlgebraShape.matrix(4)
        v = alg.CyclicUnitary(v=identity(sh), order=1)
        x = alg.random_element(sh, alg.SELFADJOINT, 5)
        assert fr.freeness_defect(v, x, 4) == 0.0

    def test_defect_decreases_with_dimension(self):
        means = {}
        for dim in (9, 90, 900):
            vals = []
            for s in range(6):
                v, x, *_ = sample_pair(3, dim, child_seed(6, dim, s))
                vals.append(fr.freeness_defect(v, x, 3))
            means[dim] = np.mean(vals)
        assert means[90] < means[9]
        assert means[900] < means[90]


class TestRunKesten:
    def test_degenerate_n_rejected(self):
        with pytest.raises(ValueError):
            fr.KestenExperiment(n=1, dim=8, trials=3, seed=0)

    @pytest.mark.parametrize("dim", [0, 1, -4])
    def test_dim_below_n_rejected(self, dim):
        # dim = 0 and -4 pass the divisibility check
        with pytest.raises(ValueError, match="smaller than n = 2"):
            fr.KestenExperiment(n=2, dim=dim, trials=1, seed=0)

    def test_fast_path_matches_literal_pinch(self):
        # the one-rotation trial formula agrees exactly with pinching the
        # sampled pair once the same relative rotation is used
        n, dim = 3, 12
        v, x, u, w, s = sample_pair(n, dim, 7)
        literal = op_norm(pinch(spectral_partition(v), x))
        z = w.conj().T @ u
        worst = 0.0
        for sl in fr._group_slices(dim, n):
            zg = z[:, sl]
            block = (zg.conj().T * s) @ zg
            w = np.linalg.eigvalsh((block + block.conj().T) / 2)
            worst = max(worst, abs(float(w[0])), abs(float(w[-1])))
        assert abs(literal - worst) < 1e-12

    def test_half_rank_formula_matches_literal_pinch(self):
        # with Q = z[:dim/2, :]* the row-group blocks 2 Q_g Q_g* - 1 are the
        # pinched blocks of the sampled pair
        n, dim = 3, 12
        v, x, u, w, _ = sample_pair(n, dim, 7)
        literal = op_norm(pinch(spectral_partition(v), x))
        z = w.conj().T @ u
        q = z[:dim // 2, :].conj().T
        worst = 0.0
        for sl in fr._group_slices(dim, n):
            qg = q[sl]
            w = np.linalg.eigvalsh(2.0 * qg @ qg.conj().T)
            worst = max(worst, abs(float(w[0]) - 1.0), abs(float(w[-1]) - 1.0))
        assert abs(literal - worst) < 1e-12

    def test_odd_dim_trial_matches_literal_pinch(self):
        # odd dim: the last weight 1 carries the 0 eigenvector of x
        n, dim = 3, 9
        for t in range(3):
            v, x = fr.trial_pair(n, dim, child_rng(12, t))
            spectrum = np.linalg.eigvalsh(x.blocks[0])
            assert np.allclose(spectrum, np.sort(fr._sign_spectrum(dim)), atol=1e-12)
            literal = op_norm(pinch(spectral_partition(v), x))
            fast = fr._pinched_norms_fast(n, dim, child_rng(12, t))
            assert abs(literal - fast) < 1e-12

    def test_two_groups_one_eigensolve(self):
        # at n = 2 the row groups of Q have spectra μ and 1 − μ: the first
        # group's norm is the maximum over both and the literal pinch
        for dim in (2, 4, 10, 64):
            for t in range(3):
                q, w = fr._half_rank_draw(dim, child_rng(14, dim, t))
                both = max(float(np.abs(np.linalg.eigvalsh((q[sl] * w) @ q[sl].conj().T)
                                        - 1.0).max()) for sl in fr._group_slices(dim, 2))
                fast = fr._pinched_norms_fast(2, dim, child_rng(14, dim, t))
                assert abs(fast - both) <= 1e-12
                v, x = fr.trial_pair(2, dim, child_rng(14, dim, t))
                assert abs(fast - op_norm(pinch(spectral_partition(v), x))) <= 1e-12

    def test_pinch_average_identity_per_trial(self):
        n, dim = 4, 16
        for t in range(3):
            v, x, *_ = sample_pair(n, dim, child_seed(8, t))
            part = spectral_partition(v)
            powers, acc = [identity(x.shape)], identity(x.shape)
            for _ in range(n - 1):
                acc = acc @ v.v
                powers.append(acc)
            avg = unitary_average(powers, x)
            assert op_norm(avg - pinch(part, x)) <= 1e-10

    def test_small_dim_run(self):
        res = fr.run_kesten(fr.KestenExperiment(n=2, dim=64, trials=10, seed=9))
        assert res.norms.shape == (10,)
        assert res.max_norm <= 1.0 + 0.15
        assert 0.0 <= res.mean_norm <= 1.0 + 0.15
        assert (res.norms >= 0).all() and (res.norms <= 1.0 + 1e-9).all()

    def test_determinism(self):
        a = fr.run_kesten(fr.KestenExperiment(n=3, dim=48, trials=4, seed=10))
        b = fr.run_kesten(fr.KestenExperiment(n=3, dim=48, trials=4, seed=10))
        assert (a.norms == b.norms).all()

    def test_exceedance_counting(self):
        exp = fr.KestenExperiment(n=3, dim=48, trials=4, seed=10, slack=-1.0)
        res = fr.run_kesten(exp)
        assert res.exceedances == 4

    def test_dimension_monotonicity_trend(self):
        # means do not grow with dimension (asymptotic-freeness trend); the
        # base dims are bumped to the nearest multiple of n where needed
        for n in (2, 3, 4, 5):
            small_dim = ((128 + n - 1) // n) * n
            large_dim = ((2048 + n - 1) // n) * n
            small = fr.run_kesten(fr.KestenExperiment(
                n=n, dim=small_dim, trials=20, seed=11))
            large = fr.run_kesten(fr.KestenExperiment(
                n=n, dim=large_dim, trials=20, seed=11))
            assert large.mean_norm <= small.mean_norm + 0.02
