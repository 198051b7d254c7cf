"""Tests for inclusions: expectations, index, bases."""

import numpy as np
import pytest

from pavelab import algebra as alg
from pavelab import families
from pavelab import inclusion as incl
from pavelab.algebra import AlgebraShape, Element, identity, op_norm, trace, zero
from pavelab.seeding import child_rng, child_seed

from conftest import (elements_close, expectation_residuals, half_trace, partial_trace_left,
                      partial_trace_right, projection_defect, random_spec,
                      ref_embed_frame, ref_offsets, two_block_inclusion)


def rand_m(inc, seed, kind=alg.SELFADJOINT, theta=None):
    return alg.random_element(inc.m_shape, kind, seed, theta=theta)


@pytest.fixture(scope="module")
def haar_spec_inclusion():
    # N = M2 (weight 1/2) inside M4 + M2 with multiplicities (2, 1)
    spec = incl.InclusionSpec(AlgebraShape((2,), (0.5,)),
                              AlgebraShape((4, 2), (0.125, 0.25)), ((2, 1),))
    return incl.build_inclusion(spec, seed=3)


def identity_embedded(spec, label=""):
    return incl.Inclusion(spec, [("id", None)] * spec.m_shape.num_blocks, label=label)


MULTI_BLOCK_SPECS = {
    # M3 inside M3 + M6 with multiplicities (1, 2)
    "M3<M3+M6": incl.InclusionSpec(AlgebraShape((3,), (1 / 3,)),
                                   AlgebraShape((3, 6), (1 / 15, 2 / 15)), ((1, 2),)),
    # M1 + M2 inside M3
    "M1+M2<M3": incl.InclusionSpec(AlgebraShape((1, 2), (1 / 3, 1 / 3)),
                                   AlgebraShape.matrix(3), ((1,), (1,))),
    # M2 + M3 inside M7 + M5, the weights of m_weights [1, 2] normalized
    "M2+M3<M7+M5": incl.InclusionSpec(AlgebraShape((2, 3), (4 / 17, 3 / 17)),
                                      AlgebraShape((7, 5), (1 / 17, 2 / 17)),
                                      ((2, 1), (1, 1))),
}


@pytest.fixture(scope="module")
def multi_block():
    """Each multi-block spec under identity, Haar and permutation embeddings."""
    out = []
    for i, (name, spec) in enumerate(MULTI_BLOCK_SPECS.items()):
        rng = child_rng(31, i)
        out += [identity_embedded(spec, label=name + "/id"),
                incl.Inclusion(spec, incl.build_inclusion(spec, seed=i).embed_unitaries,
                               label=name + "/haar"),
                incl.Inclusion(spec, [("perm", rng.permutation(ml))
                                      for ml in spec.m_shape.block_dims],
                               label=name + "/perm")]
    return out


def closed_d_ob(inc):
    """max over (l, k) with Λ[k][l] > 0 of (s_k / t_l) sum_k' Λ[k'][l] ⌈n_k' / n_k⌉."""
    lam, n = inc.spec.inclusion_matrix, inc.n_shape.block_dims
    s, t = inc.n_shape.trace_weights, inc.m_shape.trace_weights
    return max(s[k] / t[l] * sum(lam[q][l] * -(-n[q] // n[k]) for q in range(len(n)))
               for k in range(len(n)) for l in range(len(t)) if lam[k][l] > 0)


class TestSpecValidation:
    def test_dimension_bookkeeping(self):
        with pytest.raises(incl.InclusionSpecError):
            incl.InclusionSpec(AlgebraShape((2,), (0.5,)),
                               AlgebraShape.matrix(3), ((1,),))

    def test_trace_compatibility(self):
        # weights on C + C must agree with the M2 trace through the embedding
        with pytest.raises(incl.InclusionSpecError, match="trace incompat"):
            incl.InclusionSpec(AlgebraShape((1, 1), (0.3, 0.7)),
                               AlgebraShape.matrix(2), ((1,), (1,)))

    def test_zero_row_and_column(self):
        with pytest.raises(incl.InclusionSpecError):
            incl.InclusionSpec(
                AlgebraShape((1, 1), (0.5, 0.5)),
                AlgebraShape((2,), (0.5,)),
                ((2,), (0,)))

    def test_trivial_flag(self):
        assert families.self_inclusion(3).spec.is_trivial
        assert not families.scalars_in(3).spec.is_trivial


class TestExpectations:
    def test_self_inclusion_identity_map(self):
        inc = families.self_inclusion(4)
        x = rand_m(inc, 1)
        assert op_norm(inc.cond_exp_n(x) - x) < 1e-13
        assert sum(v * v for row in inc.spec.inclusion_matrix for v in row) == 1

    def test_scalars_expectation(self):
        inc = families.scalars_in(3)
        x = rand_m(inc, 2)
        assert op_norm(inc.cond_exp_n(x) - trace(x) * identity(inc.m_shape)) < 1e-13
        # commutant is all of M; its expectation is the identity map
        assert sum(v * v for row in inc.spec.inclusion_matrix for v in row) == 9
        assert op_norm(inc.cond_exp_comm(x) - x) < 1e-13

    def test_tensor_partial_trace_oracle(self):
        inc = families.tensor_product(2, 3)
        rng = child_rng(4)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = Element(inc.m_shape, [np.kron(a, b)])
        ex = inc.cond_exp_n(x)
        oracle = np.kron(a * np.trace(b) / 3, np.eye(3))
        assert np.abs(ex.blocks[0] - oracle).max() < 1e-12
        ec = inc.cond_exp_comm(x)
        oracle_c = np.kron(np.eye(2) * np.trace(a) / 2, b)
        assert np.abs(ec.blocks[0] - oracle_c).max() < 1e-12
        assert sum(v * v for row in inc.spec.inclusion_matrix for v in row) == 9

    def test_tensor_oracle_on_generic_element(self):
        inc = families.tensor_product(3, 2)
        x = rand_m(inc, 5)
        ex = inc.cond_exp_n(x)
        oracle = np.kron(partial_trace_right(x.blocks[0], 3, 2), np.eye(2))
        assert np.abs(ex.blocks[0] - oracle).max() < 1e-12
        ec = inc.cond_exp_comm(x)
        oracle_c = np.kron(np.eye(3), partial_trace_left(x.blocks[0], 3, 2))
        assert np.abs(ec.blocks[0] - oracle_c).max() < 1e-12

    def test_embed_homomorphism(self, haar_spec_inclusion):
        inc = haar_spec_inclusion
        a = alg.random_element(inc.n_shape, alg.SELFADJOINT, 6)
        b = alg.random_element(inc.n_shape, alg.SELFADJOINT, 7)
        assert elements_close(inc.embed(identity(inc.n_shape)), identity(inc.m_shape),
                              alg.TOL_PROJ)
        assert abs(trace(inc.embed(a)) - trace(a)) < 1e-12
        assert op_norm(inc.embed(a) @ inc.embed(b) - inc.embed(a @ b)) < 1e-12

    def test_axioms_sampled(self, haar_spec_inclusion, corpus):
        for inc in [haar_spec_inclusion] + corpus:
            res = expectation_residuals(inc, seed=8, samples=4)
            assert res["bimodular"] <= 1e-9
            assert res["idempotent"] <= 1e-9
            assert res["trace"] <= 1e-9
            assert res["positive"] <= 1e-10
            assert res["comm_idempotent"] <= 1e-9
            assert res["comm_commutes"] <= 1e-9

    def test_tower_consistency_scalars(self):
        # for C in M_n, E_comm after E_N collapses to tau(.) 1
        inc = families.scalars_in(4)
        x = rand_m(inc, 9)
        comp = inc.cond_exp_comm(inc.cond_exp_n(x))
        assert op_norm(comp - trace(x) * identity(inc.m_shape)) < 1e-12

    def test_commutant_basis_orthonormal(self, haar_spec_inclusion):
        inc = haar_spec_inclusion
        basis = ref_commutant_basis(inc)
        assert len(basis) == sum(v * v for row in inc.spec.inclusion_matrix for v in row)
        for i, gi in enumerate(basis):
            for j, gj in enumerate(basis):
                val = trace(gi.adjoint() @ gj)
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-12

    def test_commutant_matches_nullspace_oracle(self, haar_spec_inclusion):
        # independent check: solve [x, g] = 0 over embedded generators of N
        inc = haar_spec_inclusion
        msh = inc.m_shape
        gens = []
        for k, nk in enumerate(inc.n_shape.block_dims):
            for i in range(nk):
                for j in range(nk):
                    unit = zero(inc.n_shape)
                    unit.blocks[k][i, j] = 1.0
                    gens.append(inc.embed(unit))
        dim = sum(ml * ml for ml in msh.block_dims)
        rows = []
        for g in gens:
            op_blocks = []
            for l, ml in enumerate(msh.block_dims):
                gb = g.blocks[l]
                op_blocks.append(np.kron(gb, np.eye(ml)) - np.kron(np.eye(ml), gb.T))
            full = np.zeros((dim, dim), dtype=complex)
            off = 0
            for blk, ml in zip(op_blocks, msh.block_dims):
                full[off:off + ml * ml, off:off + ml * ml] = blk
                off += ml * ml
            rows.append(full)
        system = np.concatenate(rows, axis=0)
        svals = np.linalg.svd(system, compute_uv=False)
        nullity = int(np.sum(svals < 1e-9))
        assert nullity == sum(v * v for row in inc.spec.inclusion_matrix for v in row)
        # and every structural basis vector is in the kernel
        for g in ref_commutant_basis(inc):
            vec = np.concatenate([b.reshape(-1) for b in g.blocks])
            assert np.linalg.norm(system @ vec) < 1e-9


# -- the per-copy loops over an `_offsets` table that the slab table
# replaced, kept as the reference its maps must match bit for bit; the
# offsets table and the frame references are in conftest ---------------------

def ref_to_grouped(inc, l, x_l):
    kind, u = inc.embed_unitaries[l]
    if kind == "id":
        return x_l
    if kind == "perm":
        return x_l[np.ix_(u, u)]
    return u.conj().T @ x_l @ u


def ref_from_grouped(inc, l, y_l):
    kind, u = inc.embed_unitaries[l]
    if kind == "id":
        return y_l
    if kind == "perm":
        out = np.zeros_like(y_l)
        out[np.ix_(u, u)] = y_l
        return out
    return u @ y_l @ u.conj().T


def ref_embed(inc, x):
    blocks = []
    for l, ml in enumerate(inc.m_shape.block_dims):
        y = np.zeros((ml, ml), dtype=np.complex128)
        for (k, c), off in ref_offsets(inc)[l].items():
            nk = inc.n_shape.block_dims[k]
            y[off:off + nk, off:off + nk] = x.blocks[k]
        blocks.append(ref_from_grouped(inc, l, y))
    return Element(inc.m_shape, blocks)


def ref_restrict_to_n(inc, x):
    acc = [np.zeros((d, d), dtype=np.complex128) for d in inc.n_shape.block_dims]
    for l, tl in enumerate(inc.m_shape.trace_weights):
        y = ref_to_grouped(inc, l, x.blocks[l])
        for (k, c), off in ref_offsets(inc)[l].items():
            nk = inc.n_shape.block_dims[k]
            acc[k] += tl * y[off:off + nk, off:off + nk]
    for k, sk in enumerate(inc.n_shape.trace_weights):
        acc[k] /= sk
    return Element(inc.n_shape, acc)


def ref_cond_exp_comm(inc, x):
    blocks = []
    offsets = ref_offsets(inc)
    for l in range(inc.m_shape.num_blocks):
        y = ref_to_grouped(inc, l, x.blocks[l])
        z = np.zeros_like(y)
        for k, nk in enumerate(inc.n_shape.block_dims):
            mult = inc.spec.inclusion_matrix[k][l]
            for c in range(mult):
                oc = offsets[l][(k, c)]
                for cp in range(mult):
                    op = offsets[l][(k, cp)]
                    val = np.trace(y[oc:oc + nk, op:op + nk]) / nk
                    z[oc:oc + nk, op:op + nk] = val * np.eye(nk)
        blocks.append(ref_from_grouped(inc, l, z))
    return Element(inc.m_shape, blocks)


def ref_commutant_basis(inc):
    basis = []
    offsets = ref_offsets(inc)
    for l, ml in enumerate(inc.m_shape.block_dims):
        tl = inc.m_shape.trace_weights[l]
        for k, nk in enumerate(inc.n_shape.block_dims):
            mult = inc.spec.inclusion_matrix[k][l]
            for c in range(mult):
                for cp in range(mult):
                    y = np.zeros((ml, ml), dtype=np.complex128)
                    oc, op = offsets[l][(k, c)], offsets[l][(k, cp)]
                    y[oc:oc + nk, op:op + nk] = np.eye(nk)
                    blocks = [np.zeros((d, d), dtype=np.complex128)
                              for d in inc.m_shape.block_dims]
                    blocks[l] = ref_from_grouped(inc, l, y) / np.sqrt(tl * nk)
                    basis.append(Element(inc.m_shape, blocks))
    return basis


def random_perm_inclusion(seed):
    spec = random_spec(seed)
    rng = child_rng(seed, 1)
    return incl.Inclusion(spec, [("perm", rng.permutation(ml))
                                 for ml in spec.m_shape.block_dims])


SLAB_CASES = {
    "tensor(5,3)": lambda: families.tensor_product(5, 3),
    "tensor(4,2)": lambda: families.tensor_product(4, 2),
    "tensor(6,3)": lambda: families.tensor_product(6, 3),
    "scalars-in(6)": lambda: families.scalars_in(6),
    "scalars-in(64)": lambda: families.scalars_in(64),
    "self(4)": lambda: families.self_inclusion(4),
    "haar-0": lambda: incl.build_inclusion(random_spec(0), seed=10),
    "haar-1": lambda: incl.build_inclusion(random_spec(1), seed=11),
    "haar-2": lambda: incl.build_inclusion(random_spec(2), seed=12),
    "haar-tensor": lambda: incl.build_inclusion(incl.InclusionSpec(
        AlgebraShape.matrix(4), AlgebraShape.matrix(8), ((2,),)), seed=13),
    "identity-3": lambda: identity_embedded(random_spec(3)),
    "perm-4": lambda: random_perm_inclusion(4),
}


def assert_same_bits(new, ref):
    if isinstance(new, Element):
        assert new.shape == ref.shape
        for a, b in zip(new.blocks, ref.blocks):
            assert_same_bits(a, b)
        return
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert new.tobytes() == ref.tobytes()  # signed zeros included


def general_element(shape, seed):
    """Complex blocks with no symmetry, and some signed zeros."""
    rng = child_rng(seed)
    blocks = []
    for d in shape.block_dims:
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b[rng.random((d, d)) < 0.2] = complex(-0.0, 0.0)
        b.imag[rng.random((d, d)) < 0.2] = -0.0
        blocks.append(b)
    return Element(shape, blocks)


def random_frames(inc, seed, empty_block=None):
    """Per N-block columns of random width (none in `empty_block`)."""
    rng = child_rng(seed)
    frames = []
    for k, nk in enumerate(inc.n_shape.block_dims):
        r = 0 if k == empty_block else int(rng.integers(1, nk + 1))
        frames.append(rng.standard_normal((nk, r)) + 1j * rng.standard_normal((nk, r)))
    return frames


@pytest.mark.parametrize("name", list(SLAB_CASES))
class TestSlabTable:
    def test_maps_match_reference(self, name):
        inc = SLAB_CASES[name]()
        for t in range(2):
            a = general_element(inc.n_shape, child_seed(20, t))
            x = general_element(inc.m_shape, child_seed(21, t))
            h = alg.random_element(inc.m_shape, alg.SELFADJOINT, child_seed(22, t))
            assert_same_bits(inc.embed(a), ref_embed(inc, a))
            for y in (x, h):
                assert_same_bits(inc.restrict_to_n(y), ref_restrict_to_n(inc, y))
                assert_same_bits(inc.cond_exp_n(y), ref_embed(inc, ref_restrict_to_n(inc, y)))
                assert_same_bits(inc.cond_exp_comm(y), ref_cond_exp_comm(inc, y))

    def test_frames_match_reference(self, name):
        # in slab coordinates a frame of N is ⊕_k 1 ⊗ F_k, one F_k per copy:
        # it compresses the centered slabs as the reference embedded frame
        # compresses x − E; the second and third frames have no columns in
        # the first or last N-block
        inc = SLAB_CASES[name]()
        x = general_element(inc.m_shape, 24)
        e, slabs = inc.cond_exp_comm(x), inc.center(x)[1]
        for t, empty in enumerate((None, 0, inc.n_shape.num_blocks - 1)):
            frames = random_frames(inc, child_seed(23, t), empty_block=empty)
            for l, g in enumerate(ref_embed_frame(inc, frames)):
                blocks = [np.kron(np.eye(mult), frames[k]) for k, mult in inc.slab_layout(l)]
                s = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
                             dtype=np.complex128)
                row = col = 0
                for b in blocks:
                    s[row:row + b.shape[0], col:col + b.shape[1]] = b
                    row, col = row + b.shape[0], col + b.shape[1]
                got = s.conj().T @ slabs[l] @ s
                want = g.conj().T @ (x.blocks[l] - e.blocks[l]) @ g
                assert got.shape == want.shape
                # an entry that vanishes in slab coordinates is rounding in M's
                np.testing.assert_allclose(got, want, rtol=1e-12,
                                           atol=1e-12 * max(np.abs(want).max(initial=0.0), 1.0))


@pytest.mark.parametrize("make", [
    lambda: families.tensor_product(8, 2), lambda: families.scalars_in(6),
    lambda: families.self_inclusion(16), two_block_inclusion,
], ids=["tensor(8,2)", "scalars-in(6)", "self(16)", "two-block"])
def test_commutant_norms(make):
    # ‖E(x)‖ and ‖E(x) − τ(x)1‖ from the per-slab T of `center` against
    # the M-coordinate E of `cond_exp_comm`; x = 1 ⊗ p, p a projection of
    # N, has scalar E(x) when N is a factor
    inc = make()
    xs = [alg.random_element(inc.m_shape, kind, child_seed(93, t),
                             theta=half_trace(inc.m_shape))
          for t, kind in enumerate((alg.SELFADJOINT, alg.POSITIVE, alg.PROJECTION))]
    p = alg.random_element(inc.n_shape, alg.PROJECTION, 94, theta=half_trace(inc.n_shape))
    xs.append(inc.embed(p))
    for x in xs:
        e = inc.cond_exp_comm(x)
        tau = trace(x)
        shifted = op_norm(e - tau * identity(inc.m_shape))
        assert abs(incl.commutant_norm(inc.center(x)[0]) - op_norm(e)) <= 1e-12
        assert abs(incl.commutant_norm(inc.center(x)[0], tau) - shifted) <= 1e-12
    if inc.n_shape.num_blocks == 1:
        assert incl.commutant_norm(inc.center(xs[-1])[0], trace(xs[-1])) <= 1e-12


@pytest.mark.parametrize("name", list(SLAB_CASES))
def test_part_norms_against_literal_blocks(name):
    # square random frames with labels from {0, 1, 2, 4}: part 3 is empty
    # everywhere, and a label may miss an N-block; one generic and one
    # self-adjoint x; all five parts, then a two-part subset and the empty
    # part read as columns of the all-parts norms
    inc = SLAB_CASES[name]()
    rng = child_rng(25)
    frames, labels = [], []
    for nk in inc.n_shape.block_dims:
        frames.append(rng.standard_normal((nk, nk)) + 1j * rng.standard_normal((nk, nk)))
        labels.append(np.sort(rng.choice([0, 1, 2, 4], size=nk)))
    ranks = tuple(tuple(np.bincount(lab, minlength=5).tolist()) for lab in labels)
    xs = [general_element(inc.m_shape, 26),
          alg.random_element(inc.m_shape, alg.SELFADJOINT, 27)]
    centered = [(inc.cond_exp_comm(x), inc.center(x)[1]) for x in xs]
    for l in range(inc.m_shape.num_blocks):
        ys = np.stack([slabs[l] for _, slabs in centered])
        layout = alg.part_layout(ranks, inc.slab_layout(l))
        all_norms, fro = alg.part_norms(frames, layout, ys)
        assert all_norms.shape == (len(xs), 5)
        for parts in (np.arange(5), np.array([1, 4]), np.array([3])):
            norms = all_norms[:, parts]
            for t, (x, (e, _)) in enumerate(zip(xs, centered)):
                diff = x.blocks[l] - e.blocks[l]
                blocks = []
                for i in parts:
                    g = ref_embed_frame(inc, [f[:, lab == i] for f, lab in zip(frames, labels)])[l]
                    blocks.append(g.conj().T @ diff @ g)
                ref = [np.linalg.norm(b, 2) if b.size else 0.0 for b in blocks]
                # a block that vanishes in slab coordinates is rounding in M's
                np.testing.assert_allclose(norms[t], ref, rtol=1e-12,
                                           atol=1e-12 * max(ref + [1.0]))
                if len(parts) == 5:
                    want = sum(np.sum(np.abs(b) ** 2) for b in blocks)
                    assert fro[t] == pytest.approx(want, rel=1e-12, abs=1e-24)


@pytest.mark.parametrize("make, r, exact", [
    (lambda: families.tensor_product(8, 2), 8, False),    # rank-one parts
    (lambda: families.tensor_product(8, 2), 3, False),    # ranks 3, 3, 2
    (two_block_inclusion, 3, False),
    (two_block_inclusion, 7, False),                      # each part in one N-block
    (SLAB_CASES["haar-1"], 6, False),                     # an M-block may score nothing
    (lambda: families.tensor_product(32, 2), 16, True),   # the benchmark's search
], ids=["tensor8-r8", "tensor8-r3", "two-block-r3", "two-block-r7", "haar-1-r6",
        "tensor32-r16"])
def test_pair_norms_match_part_norms(make, r, exact):
    # every pair (i, j) of a Haar partition in slot order, scored on the pair
    # layout as a move of `pave_search` scores it, by both kernels
    inc = make()
    orders, ranks = alg.slot_order(inc.n_shape, r)
    stacks = [alg.haar_block(child_rng(28, k), d)[:, o]
              for k, (d, o) in enumerate(zip(inc.n_shape.block_dims, orders))]
    offsets = [np.cumsum((0,) + rk) for rk in ranks]
    xs = [general_element(inc.m_shape, 26), alg.random_element(inc.m_shape, alg.SELFADJOINT, 27)]
    slabs = [inc.center(x)[1] for x in xs]
    yss = [np.stack([s[l] for s in slabs]) for l in range(inc.m_shape.num_blocks)]
    unscored = 0
    for i in range(r):
        for j in range(i + 1, r):
            frames = [np.concatenate((u[:, off[i]:off[i + 1]], u[:, off[j]:off[j + 1]]), axis=1)
                      for u, off in zip(stacks, offsets)]
            pair_ranks = tuple((rk[i], rk[j]) for rk in ranks)
            for l, ys in enumerate(yss):
                layout = alg.part_layout(pair_ranks, inc.slab_layout(l))
                unscored += not layout.batches
                ref, _ = alg.part_norms(frames, layout, ys)
                got = alg.pair_norms(frames, layout, ys)
                assert got.shape == ref.shape == (len(xs), 2)
                if exact:
                    assert got.tobytes() == ref.tobytes()
                else:
                    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))
    assert (unscored > 0) == (make is SLAB_CASES["haar-1"])


# scalars-in(64) has 4096 commutant basis elements of size 64 x 64
BASIS_CASES = [name for name in SLAB_CASES if name != "scalars-in(64)"]


@pytest.mark.parametrize("name", BASIS_CASES)
def test_cond_exp_comm_dense_formula(name):
    # E_{N' ∩ M}(x) = sum_b tau(b* x) b over the orthonormal commutant basis
    inc = SLAB_CASES[name]()
    x = general_element(inc.m_shape, 24)
    acc = zero(inc.m_shape)
    for b in ref_commutant_basis(inc):
        acc = acc + trace(b.adjoint() @ x) * b
    assert op_norm(inc.cond_exp_comm(x) - acc) < 1e-12


class TestIndexEstimate:
    def test_self_inclusion_is_one(self):
        est = incl.expectation_index_estimate(families.self_inclusion(4), trials=20, seed=1)
        # conditioning of regularized near-singular samples costs ~kappa * eps
        assert abs(est.index_est - 1.0) < 1e-4

    def test_tensor_2_2(self):
        est = incl.expectation_index_estimate(families.tensor_product(2, 2), trials=400, seed=2)
        assert abs(est.index_est - 4.0) / 4.0 < 0.05

    def test_probabilistic_values_on_reducible_inclusions(self):
        # the best expectation constant is n for scalars and d*min(k,d) for
        # tensors; it matches the squared-multiplicity index only when k >= d
        for inc, expected in ((families.scalars_in(2), 2.0),
                              (families.scalars_in(3), 3.0),
                              (families.tensor_product(2, 3), 6.0)):
            est = incl.expectation_index_estimate(inc, trials=400, seed=3)
            assert abs(est.index_est - expected) / expected < 0.05

    def test_underestimates_monotone(self):
        inc = families.tensor_product(2, 2)
        few = incl.expectation_index_estimate(inc, trials=5, seed=4)
        many = incl.expectation_index_estimate(inc, trials=200, seed=4)
        assert few.index_est <= many.index_est + 1e-12
        # regularized near-singular samples overshoot by at most O(1e-10/gap)
        assert many.index_est <= 4.0 + 1e-4

    def test_random_search_oracle_agrees(self):
        # denser random search over positive elements cannot beat the
        # estimator's minimum by more than noise
        inc = families.tensor_product(2, 2)
        est = incl.expectation_index_estimate(inc, trials=300, seed=5)
        rng = child_rng(99)
        best = np.inf
        for _ in range(600):
            r = int(rng.integers(1, 5))
            g = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
            x = g @ g.conj().T + 1e-10 * np.eye(4)
            ex = inc.cond_exp_n(Element(inc.m_shape, [x])).blocks[0]
            w, v = np.linalg.eigh(x)
            inv_half = (v * w ** -0.5) @ v.conj().T
            best = min(best, float(np.linalg.eigvalsh(inv_half @ ex @ inv_half)[0]))
        assert abs(1.0 / best - est.index_est) / est.index_est < 0.05


class TestPPInequality:
    def test_identity_margin(self):
        inc = families.scalars_in(2)
        margin = incl.expectation_inequality_margin(inc, 4.0, identity(inc.m_shape))
        assert abs(margin - 3.0) < 1e-12

    def test_embedded_element_margin(self):
        inc = families.tensor_product(2, 2)
        a = alg.random_element(inc.n_shape, alg.POSITIVE, 6)
        x = inc.embed(a)
        margin = incl.expectation_inequality_margin(inc, 4.0, x)
        lam_min = min(np.linalg.eigvalsh(b)[0] for b in a.blocks)
        assert abs(margin - 3.0 * lam_min) < 1e-10

    def test_random_psd_margins(self):
        inc = families.scalars_in(4)
        for t in range(25):
            x = rand_m(inc, child_seed(7, t), kind=alg.POSITIVE)
            assert incl.expectation_inequality_margin(inc, 16.0, x) >= -1e-9


class TestSupportBound:
    def test_full_projection(self):
        inc = families.scalars_in(3)
        lhs, rhs = incl.expectation_support_bound(inc, identity(inc.m_shape), 9.0)
        assert abs(lhs - 1.0) < 1e-12 and abs(rhs - 9.0) < 1e-12

    def test_zero_projection(self):
        inc = families.scalars_in(3)
        lhs, rhs = incl.expectation_support_bound(inc, zero(inc.m_shape), 9.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_negative_projection_rejected(self):
        inc = families.scalars_in(3)
        p = rand_m(inc, 9, kind=alg.PROJECTION, theta=1 / 3)
        with pytest.raises(alg.AlgebraError, match="not positive semidefinite"):
            incl.expectation_support_bound(inc, -p, 9.0)

    def test_non_hermitian_rejected(self):
        inc = families.self_inclusion(2)
        q = Element(inc.m_shape, [np.array([[0, 1], [0, 0]], dtype=complex)])
        with pytest.raises(alg.AlgebraError, match="not Hermitian"):
            incl.expectation_support_bound(inc, q, 1.0)

    def test_rank_one_in_scalars_in_8(self):
        inc = families.scalars_in(8)
        for t in range(20):
            q = rand_m(inc, child_seed(8, t), kind=alg.PROJECTION, theta=1 / 8)
            lhs, rhs = incl.expectation_support_bound(inc, q, 64.0)
            assert lhs <= rhs + 1e-9
            assert abs(rhs - 8.0) < 1e-12


class TestOrthonormalBasis:
    def test_self_inclusion_basis_is_identity(self):
        inc = families.self_inclusion(3)
        ob = incl.orthonormal_basis(inc)
        assert len(ob.elements) == 1
        assert elements_close(ob.elements[0], identity(inc.m_shape), 1e-10)
        assert abs(incl.d_ob(inc, ob) - 1.0) < 1e-10

    def test_scalars_matrix_unit_oracle(self):
        # explicit basis {sqrt(n) e_ij} witnesses the same frame-sum norm
        for n in (2, 3):
            inc = families.scalars_in(n)
            ob = incl.orthonormal_basis(inc)
            assert len(ob.elements) == n * n
            value = incl.d_ob(inc, ob)
            explicit = []
            for i in range(n):
                for j in range(n):
                    e = zero(inc.m_shape)
                    e.blocks[0][i, j] = np.sqrt(n)
                    explicit.append(e)
            acc = zero(inc.m_shape)
            for m in explicit:
                acc = acc + m.adjoint() @ m
            assert abs(op_norm(acc) - value) < 1e-8
            assert abs(value - n * n) < 1e-8

    def test_basis_gram_structure(self, multi_block):
        for inc in [families.tensor_product(2, 2)] + multi_block:
            ob = incl.orthonormal_basis(inc)
            for i, mi in enumerate(ob.elements):
                for j, mj in enumerate(ob.elements):
                    g = inc.restrict_to_n(mi.adjoint() @ mj)
                    if i == j:
                        assert projection_defect(g) < 1e-8, inc.label
                    else:
                        assert op_norm(g) < 1e-8, inc.label

    def test_expansion_identity(self, corpus, multi_block):
        for inc in corpus + multi_block:
            ob = incl.orthonormal_basis(inc)
            assert abs(incl.d_ob(inc, ob) - closed_d_ob(inc)) <= 1e-12, inc.label
            for t in range(5):
                x = rand_m(inc, child_seed(12, t))
                acc = zero(inc.m_shape)
                for m in ob.elements:
                    acc = acc + m @ inc.cond_exp_n(m.adjoint() @ x)
                assert op_norm(acc - x) <= 1e-8, inc.label

    def test_renormalized_frame_identity(self):
        # lambda sum_j m_j m_j* = 1 on product inclusions
        for inc in (families.scalars_in(3), families.tensor_product(2, 2)):
            ob = incl.orthonormal_basis(inc)
            acc = zero(inc.m_shape)
            for m in ob.elements:
                acc = acc + m @ m.adjoint()
            lam = 1.0 / inc.known_index
            assert op_norm(lam * acc - identity(inc.m_shape)) < 1e-8

    def test_d_ob_interval(self):
        inc = families.tensor_product(2, 2)
        value = incl.d_ob(inc)
        lo, hi = incl.d_ob_interval(4.0)
        assert lo - 1e-9 <= value <= hi + 1e-9
        assert incl.d_ob_interval(1.0) == (1.0, 1.0)

    def test_commutant_shortcut_scales(self):
        # tensor basis comes from the commutant candidates alone, so the big
        # tensor factor stays cheap
        inc = families.tensor_product(64, 2)
        ob = incl.orthonormal_basis(inc)
        assert len(ob.elements) == 4
        assert abs(incl.d_ob(inc, ob) - 4.0) < 1e-8


class TestFamilies:
    def test_parse(self):
        assert families.parse_family("tensor(4,2)").label == "tensor(4,2)"
        assert families.parse_family("scalars-in(3)").known_index == 9.0
        assert families.parse_family("self(5)").known_index == 1.0
        with pytest.raises(ValueError):
            families.parse_family("mystery(1)")

    def test_known_indices(self):
        assert families.scalars_in(4).known_index == 16.0
        assert families.tensor_product(512, 2).known_index == 4.0
