import fock_reference as ref
import numpy as np
import pytest

from chiralground import fnspace as fn
from chiralground import fock


class TestBasis:
    def test_vacuum_norm_one(self):
        assert fock.norm(fock.vacuum(8), 8) == 1.0

    def test_norm_sq_examples(self):
        # prod_j j^{m_j} m_j! computed by hand, read at each partition's position
        norm_sq, parts_of = fock.basis(6).norm_sq, fock.basis_partitions(6)
        for parts, want in [((), 1), ((1,), 1), ((1, 1), 2), ((3,), 3), ((2, 2, 1), 8),
                            ((3, 2, 1), 6)]:
            assert norm_sq[parts_of.index(parts)] == want

    def test_norm_sq_by_repeated_commutation(self):
        # <J_{-p} vac, J_{-p} vac> computed by moving J_p through J_{-p}: the
        # annihilators, applied in turn, leave that number times the vacuum
        norm_sq, parts_of = fock.basis(12).norm_sq, fock.basis_partitions(12)
        for parts in [(2,), (2, 1), (3, 3), (4, 2, 2, 1)]:
            v = fock.vacuum(12)
            for k in reversed(parts):
                v = fock.apply(fock.mode_triples(-k, 12), v)
            for k in parts:
                v = fock.apply(fock.mode_triples(k, 12), v)
            assert ref.amps(v, 12) == {(): norm_sq[parts_of.index(parts)]}

    def test_norm_sq_equals_the_exact_integers(self):
        # the float products of the factors j^m m! stay exact up to N = 24
        exact = np.array([ref.basis_norm_sq(p) for p in fock.basis_partitions(24)], dtype=float)
        assert np.array_equal(fock.basis(24).norm_sq, exact)
        for N in range(24):
            assert np.array_equal(fock.basis(N).norm_sq, exact[:fock.basis(N).offsets[-1]])

    def test_find_inverts_the_table(self):
        counts = fock.basis(10).counts
        assert np.array_equal(ref.find(10, counts), np.arange(len(counts)))
        with pytest.raises(ValueError):  # a part 0 is in no partition
            ref.find(10, np.eye(1, 11, dtype=np.uint8))

    @pytest.mark.parametrize("parts", [(2, 0), (3, -1), (4, 3)],
                             ids=["zero-part", "negative-part", "above-cutoff"])
    def test_from_amps_refuses_a_non_partition(self, parts):
        with pytest.raises(ValueError):
            ref.from_amps(6, {parts: 1.0})

    def test_basis_partitions_count(self):
        # partition numbers p(0..6) = 1,1,2,3,5,7,11; cumulative 30
        assert len(fock.basis_partitions(6)) == 30

    def test_orthogonality(self):
        u = ref.basis_vector(6, (2, 1))
        v = ref.basis_vector(6, (3,))
        assert fock.inner(u, v, 6) == 0

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            ref.basis_vector(3, (2, 2))


class TestModes:
    def test_annihilator_kills_vacuum(self):
        for n in [1, 2, 5]:
            assert not ref.amps(fock.apply(fock.mode_triples(n, 8), fock.vacuum(8)), 8)

    def test_zero_mode_is_zero(self):
        assert not ref.amps(fock.apply(fock.mode_triples(0, 8), ref.basis_vector(8, (3, 1))), 8)

    def test_creation_example(self):
        v = fock.apply(fock.mode_triples(-2, 8), ref.basis_vector(8, (3,)))
        assert ref.amps(v, 8) == {(3, 2): pytest.approx(1.0)}

    def test_annihilation_multiplicity(self):
        # J_2 on (2,2,1): coefficient 2 * multiplicity(2) = 4
        v = fock.apply(fock.mode_triples(2, 8), ref.basis_vector(8, (2, 2, 1)))
        assert ref.amps(v, 8) == {(2, 1): pytest.approx(4.0)}

    def test_creation_is_the_transpose_of_annihilation(self):
        # J_{-n} has weight 1 on each entry of J_n, transposed, and takes every basis
        # vector of level <= N - n once, in basis order
        for N in range(21):
            dim, off = fock.basis(N).offsets[-1], fock.basis(N).offsets
            for n in range(1, N + 2):
                src, dst, _ = fock.mode_triples(n, N)
                csrc, cdst, cw = fock.mode_triples(-n, N)
                assert np.array_equal(np.sort(csrc * dim + cdst), np.sort(dst * dim + src))
                assert np.all(cw == 1.0)
                assert np.array_equal(csrc, np.arange(off[N - n + 1] if n <= N else 0))

    def test_heisenberg_exact(self):
        for m, n in [(1, -1), (3, -3), (2, 1), (-2, 4), (4, -3)]:
            assert fock.heisenberg_residual(m, n, 10) == 0.0

    def test_adjointness_random(self):
        rng = np.random.default_rng(20)
        basis = fock.basis_partitions(6)
        for _ in range(10):
            pu, pv = basis[rng.integers(len(basis))], basis[rng.integers(len(basis))]
            u, v = ref.basis_vector(10, pu), ref.basis_vector(10, pv)
            k = int(rng.integers(1, 5))
            lhs = fock.inner(fock.apply(fock.mode_triples(-k, 10), u), v, 10)
            rhs = fock.inner(u, fock.apply(fock.mode_triples(k, 10), v), 10)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSmearedCurrent:
    def test_current_vacuum_norm_identity(self):
        # ||J(f) vac||^2 = sum_{k>=1} k |c_k|^2 = sobolev_half_sq(f)
        rng = np.random.default_rng(21)
        for _ in range(5):
            f = fn.random_real_circle(4, rng)
            v = fock.apply(ref.current(f, 10), fock.vacuum(10))
            assert fock.inner(v, v, 10).real == pytest.approx(fn.sobolev_half_sq(f), rel=1e-13)

    def test_constant_acts_as_zero(self):
        one = fn.circle_from_real_modes(2.0)
        assert not ref.amps(fock.apply(ref.current(one, 8), ref.basis_vector(8, (2, 1))), 8)

    def test_commutator_matches_sigma(self):
        rng = np.random.default_rng(22)
        f, g = fn.random_real_circle(3, rng), fn.random_real_circle(3, rng)
        v = ref.basis_vector(12, (2, 1))
        Jf, Jg = ref.current(f, 12), ref.current(g, 12)
        comm = fock.apply(Jf, fock.apply(Jg, v)) - fock.apply(Jg, fock.apply(Jf, v))
        assert fock.norm(comm - 1j * fn.sigma(f, g) / fn.SIGMA_NORM * v, 12) < 1e-13

    def test_L0_eigenvalues(self):
        for parts in [(), (1,), (3, 2), (4, 1, 1)]:
            v = ref.basis_vector(8, parts)
            w = ref.apply_L0(v, 8)
            if sum(parts) == 0:
                assert not ref.amps(w, 8)
            else:
                assert ref.amps(w, 8) == {parts: pytest.approx(float(sum(parts)))}


class TestMatrices:
    def test_operator_matrix_unitary_norms(self):
        # J_{-1} in the orthonormal basis must satisfy A^* = matrix of J_1
        N = 6
        A = ref.operator_matrix(lambda v: fock.apply(fock.mode_triples(-1, N), v), N)
        B = ref.operator_matrix(lambda v: fock.apply(fock.mode_triples(1, N), v), N)
        P = slice(len(fock.basis_partitions(N - 1)))
        assert np.linalg.norm((A.conj().T - B)[:, P], ord=2) < 1e-12

    def test_L0_matrix_diagonal(self):
        N = 5
        A = ref.operator_matrix(lambda v: ref.apply_L0(v, N), N)
        levels = np.array([sum(p) for p in fock.basis_partitions(N)], dtype=float)
        assert np.allclose(A, np.diag(levels))

    def test_projector_trace(self):
        # p(0)+p(1)+p(2) = 4 states of level <= 2 inside cutoff 5
        P = np.eye(len(fock.basis_partitions(5)))[:, : len(fock.basis_partitions(2))]
        assert np.trace(P) == pytest.approx(4.0)


class TestApply:
    def test_batch_equals_its_columns_and_the_dense_matrix(self):
        N = 7
        J1, Jm2 = fock.mode_triples(1, N), fock.mode_triples(-2, N)
        # J_1 twice and complex weights: the (src, dst) pairs of J_1 repeat
        op = fock.concat([fock.scaled(0.3 + 0.2j, J1), fock.scaled(-1.1j, J1),
                          fock.scaled(0.7 - 0.4j, Jm2), fock.identity(N, 0.25)])
        rng = np.random.default_rng(48)
        X = rng.standard_normal((fock.basis(N).offsets[-1], 4, 2)).view(complex)[..., 0]
        out = fock.apply(op, X)
        for j in range(X.shape[1]):
            assert np.array_equal(out[:, j], fock.apply(op, X[:, j]))
        assert np.max(np.abs(out - ref.triples_matrix(op, N) @ X)) < 1e-13

    def test_a_zero_multiple_has_no_entries(self):
        assert all(len(a) == 0 for a in fock.identity(6, 0))
        assert all(len(a) == 0 for a in fock.scaled(0.0, fock.mode_triples(-2, 6)))
        assert fock.identity(6, 0)[2].dtype == fock.identity(6, 1)[2].dtype == float
        assert fock.identity(6, 1j)[2].dtype == complex

    def test_entry_past_the_basis_is_refused(self):
        v = fock.vacuum(4)
        past = (np.array([0]), np.array([len(v)]), np.array([1.0]))
        with pytest.raises(IndexError):
            fock.apply(past, v)

    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "batch"])
    def test_apply_and_weyl_return_arrays_of_the_input_shape(self, shape):
        N = 6
        rng = np.random.default_rng(49)
        x = rng.standard_normal((fock.basis(N).offsets[-1], *shape)) + 0j
        g = fn.random_real_circle(2, rng)
        for out in (fock.apply(ref.current(g, N), x), fock.weyl(g, x, N)):
            assert type(out) is np.ndarray and out.shape == x.shape and out.dtype == complex

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_weyl_of_the_zero_generator_is_the_identity(self, dtype):
        # every displacement table is the identity, exactly
        zero = fn.CircleFourier(np.zeros(4))
        X = np.random.default_rng(50).standard_normal((len(fock.vacuum(5)), 3)).astype(dtype)
        assert np.array_equal(fock.weyl(zero, X, 5), X)

    def test_weyl_refuses_an_input_of_another_length(self):
        g = fn.random_real_circle(2, np.random.default_rng(51))
        for x in (fock.vacuum(5), np.eye(len(fock.vacuum(6)) + 1, 2)):
            with pytest.raises(ValueError, match="not the dimension 30 of cutoff 6"):
                fock.weyl(g, x, 6)

    def test_weyl_refuses_a_non_finite_result(self):
        g = fn.random_real_circle(2, np.random.default_rng(42), 0.5)
        X = np.full((len(fock.vacuum(6)), 1), np.nan)
        with pytest.raises(ArithmeticError, match="not finite"):
            fock.weyl(g, X, 6)
        # one NaN, at the vacuum row of column 1, among finite columns
        X = np.eye(len(X), 3, dtype=complex)
        X[0, 1] = np.nan
        with pytest.raises(ArithmeticError, match="not finite"):
            fock.weyl(g, X, 6)

    def test_inner_refuses_a_vector_of_another_length(self):
        # a length-1 vector would broadcast against the squared norms if not refused
        u, v = fock.vacuum(6), fock.vacuum(5)
        for a, b in ((u, v), (v, u), (u, u[:1]), (v, v)):
            with pytest.raises(ValueError, match="not the dimension 30 of cutoff 6"):
                fock.inner(a, b, 6)
        with pytest.raises(ValueError, match="not the dimension"):
            fock.norm(v, 6)
        assert fock.inner(u, u, 6) == 1.0 and fock.norm(v, 5) == 1.0

    def test_inner_and_norm_refuse_a_batch(self):
        # a (dim, k) batch would have its rows weighted by the squared norms of the columns
        V = np.zeros((4, 4))
        V[2, 0] = 1.0  # the basis vector (2) of cutoff 2, of squared norm 2
        for call in (lambda: fock.norm(V, 2), lambda: fock.inner(V, V, 2),
                     lambda: fock.inner(V[:, 0], V, 2), lambda: fock.norm(V[:, :2], 2),
                     lambda: fock.norm(V[0, 0], 2)):
            with pytest.raises(ValueError, match="not 1-d"):
                call()
        assert fock.norm(V[:, 0], 2) == np.sqrt(2.0) and fock.inner(V[:, 0], V[:, 0], 2) == 2.0
