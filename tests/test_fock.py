import math

import fock_reference as ref
import numpy as np
import pytest

from chiralground import fnspace as fn
from chiralground import fock


class TestBasis:
    def test_vacuum_norm_one(self):
        assert fock.norm(fock.vacuum(8)) == 1.0

    def test_norm_sq_examples(self):
        # prod_j j^{m_j} m_j! computed by hand
        assert fock.basis_norm_sq(()) == 1
        assert fock.basis_norm_sq((1,)) == 1
        assert fock.basis_norm_sq((1, 1)) == 2
        assert fock.basis_norm_sq((3,)) == 3
        assert fock.basis_norm_sq((2, 2, 1)) == 8
        assert fock.basis_norm_sq((3, 2, 1)) == 6

    def test_norm_sq_by_repeated_commutation(self):
        # <J_{-p} vac, J_{-p} vac> computed by moving J_p through J_{-p}
        for parts in [(2,), (2, 1), (3, 3), (4, 2, 2, 1)]:
            v = fock.vacuum(12)
            for k in reversed(parts):
                v = fock.apply_mode(-k, v)
            assert fock.inner(v, v).real == pytest.approx(fock.basis_norm_sq(parts))

    def test_basis_partitions_count(self):
        # partition numbers p(0..6) = 1,1,2,3,5,7,11; cumulative 30
        assert len(fock.basis_partitions(6)) == 30

    def test_orthogonality(self):
        u = ref.basis_vector(6, (2, 1))
        v = ref.basis_vector(6, (3,))
        assert fock.inner(u, v) == 0

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            ref.basis_vector(3, (2, 2))


class TestModes:
    def test_annihilator_kills_vacuum(self):
        for n in [1, 2, 5]:
            assert not fock.apply_mode(n, fock.vacuum(8)).amps

    def test_zero_mode_is_zero(self):
        assert not fock.apply_mode(0, ref.basis_vector(8, (3, 1))).amps

    def test_creation_example(self):
        v = fock.apply_mode(-2, ref.basis_vector(8, (3,)))
        assert v.amps == {(3, 2): pytest.approx(1.0)}

    def test_annihilation_multiplicity(self):
        # J_2 on (2,2,1): coefficient 2 * multiplicity(2) = 4
        v = fock.apply_mode(2, ref.basis_vector(8, (2, 2, 1)))
        assert v.amps == {(2, 1): pytest.approx(4.0)}

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
            lhs = fock.inner(fock.apply_mode(-k, u), v)
            rhs = fock.inner(u, fock.apply_mode(k, v))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestWindow:
    def test_exact_until_truncation(self):
        v = fock.apply_mode(-3, fock.vacuum(4))
        assert v.safe_level == math.inf
        v = fock.apply_mode(-3, v)  # level 6 > cutoff 4: dropped
        assert not v.amps
        assert min(v.safe_level, v.cutoff) == 4

    def test_annihilation_shrinks_window(self):
        v = fock.FockVector.from_amps(6, {(2,): 1.0}, 4.0)
        w = fock.apply_mode(2, v)
        assert w.safe_level == 2.0

    def test_add_takes_min_window(self):
        a = fock.FockVector.from_amps(6, {(1,): 1.0}, 3.0)
        b = fock.FockVector.from_amps(6, {(2,): 1.0}, 5.0)
        assert fock.vec_add(a, b).safe_level == 3.0


class TestSmearedCurrent:
    def test_current_vacuum_norm_identity(self):
        # ||J(f) vac||^2 = sum_{k>=1} k |c_k|^2 = sobolev_half_sq(f)
        rng = np.random.default_rng(21)
        for _ in range(5):
            f = fn.random_real_circle(4, rng)
            v = fock.apply_current(f, fock.vacuum(10))
            assert fock.inner(v, v).real == pytest.approx(fn.sobolev_half_sq(f), rel=1e-13)

    def test_constant_acts_as_zero(self):
        one = fn.circle_from_real_modes(2.0)
        assert not fock.apply_current(one, ref.basis_vector(8, (2, 1))).amps

    def test_commutator_matches_sigma(self):
        rng = np.random.default_rng(22)
        f, g = fn.random_real_circle(3, rng), fn.random_real_circle(3, rng)
        v = ref.basis_vector(12, (2, 1))
        comm = fock.vec_add(
            fock.apply_current(f, fock.apply_current(g, v)),
            fock.vec_scale(-1.0, fock.apply_current(g, fock.apply_current(f, v))),
        )
        expected = fock.vec_scale(1j * fn.sigma(f, g) / fn.SIGMA_NORM, v)
        diff = fock.vec_add(comm, fock.vec_scale(-1.0, expected))
        assert fock.norm(diff) < 1e-13

    def test_L0_eigenvalues(self):
        for parts in [(), (1,), (3, 2), (4, 1, 1)]:
            v = ref.basis_vector(8, parts)
            w = ref.apply_L0(v)
            if sum(parts) == 0:
                assert not w.amps
            else:
                assert w.amps == {parts: pytest.approx(float(sum(parts)))}


class TestMatrices:
    def test_operator_matrix_unitary_norms(self):
        # J_{-1} in the orthonormal basis must satisfy A^* = matrix of J_1
        N = 6
        A = ref.operator_matrix(lambda v: fock.apply_mode(-1, v), N)
        B = ref.operator_matrix(lambda v: fock.apply_mode(1, v), N)
        P = slice(len(fock.basis_partitions(N - 1)))
        assert np.linalg.norm((A.conj().T - B)[:, P], ord=2) < 1e-12

    def test_L0_matrix_diagonal(self):
        N = 5
        A = ref.operator_matrix(ref.apply_L0, N)
        levels = np.array([sum(p) for p in fock.basis_partitions(N)], dtype=float)
        assert np.allclose(A, np.diag(levels))

    def test_projector_trace(self):
        # p(0)+p(1)+p(2) = 4 states of level <= 2 inside cutoff 5
        P = np.eye(len(fock.basis_partitions(5)))[:, : len(fock.basis_partitions(2))]
        assert np.trace(P) == pytest.approx(4.0)
