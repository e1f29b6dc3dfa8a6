import math

import fock_reference as ref
import numpy as np
import pytest
from scipy.linalg import expm

from chiralground import fnspace as fn
from chiralground import fock, sugawara


def _unit_sobolev(f, size):
    return f.scale(size / max(1e-12, math.sqrt(fn.sobolev_half_sq(f))))


def _vector_fields():
    hF = fn.circle_from_real_modes(1.5, [-2.0, 0.5])  # (1 - cos)^2
    hG = fn.circle_from_real_modes(0.0, [], [1.25, -1.0, 0.25])  # (1 - cos)^2 sin
    F = fn.LineObject(hF, fn.Weight.VECTOR_FIELD, 4)
    G = fn.LineObject(hG, fn.Weight.VECTOR_FIELD, 5)
    return F, G


class TestVirasoroModes:
    def test_positive_modes_kill_vacuum(self):
        for n in [1, 2, 3]:
            assert not sugawara.apply_virasoro_mode(n, fock.vacuum(10)).amps

    def test_L0_matches_level_operator(self):
        for parts in [(1,), (2, 2), (3, 1, 1)]:
            v = ref.basis_vector(10, parts)
            a = sugawara.apply_virasoro_mode(0, v)
            b = ref.apply_L0(v)
            diff = fock.vec_add(a, fock.vec_scale(-1.0, b))
            assert fock.norm(diff) < 1e-13

    def test_Lm2_vacuum(self):
        # L_{-2} vac = (1/2) J_{-1} J_{-1} vac
        v = sugawara.apply_virasoro_mode(-2, fock.vacuum(10))
        assert v.amps == {(1, 1): pytest.approx(0.5)}

    def test_level2_vacuum_moment(self):
        # <vac, L_2 L_{-2} vac> = c/2 = 1/2 at c = 1
        v = sugawara.apply_virasoro_mode(-2, fock.vacuum(10))
        w = sugawara.apply_virasoro_mode(2, v)
        assert fock.inner(fock.vacuum(10), w) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_vacuum_moments(self, n):
        # ||L_{-n} vac||^2 = (n^3 - n)/12 at c = 1
        N = 2 * n + 2
        v = sugawara.apply_virasoro_mode(-n, fock.vacuum(N))
        assert fock.inner(v, v).real == pytest.approx((n**3 - n) / 12.0, abs=1e-12)

    def test_virasoro_relation_exact(self):
        for m, n in [(2, -2), (3, -3), (1, 2), (-1, 3), (2, -4)]:
            assert sugawara.virasoro_residual(m, n, 12) < 1e-13

    def test_mutation_detected(self):
        r = sugawara.virasoro_residual(2, -2, 12, drop_central=True)
        assert r == pytest.approx(0.5)  # (m^3 - m)/12 = 1/2 at m = 2

    def test_hermiticity(self):
        # L_n^* = L_{-n} as matrices restricted below the cutoff
        N = 8
        A = ref.operator_matrix(lambda v: sugawara.apply_virasoro_mode(2, v), N)
        B = ref.operator_matrix(lambda v: sugawara.apply_virasoro_mode(-2, v), N)
        P = slice(len(fock.basis_partitions(N - 2)))
        assert np.linalg.norm((A.conj().T - B)[P, P], ord=2) < 1e-12


class TestSmearedStress:
    def test_constant_gives_L0(self):
        one = fn.circle_from_real_modes(1.0)
        for parts in [(2,), (3, 1)]:
            v = ref.basis_vector(10, parts)
            a = sugawara.apply_stress_circle(one, v)
            b = ref.apply_L0(v)
            diff = fock.vec_add(a, fock.vec_scale(-1.0, b))
            assert fock.norm(diff) < 1e-13

    def test_vacuum_expectation_vanishes(self):
        rng = np.random.default_rng(30)
        f = fn.random_real_circle(4, rng)
        vac = fock.vacuum(12)
        assert abs(fock.inner(vac, sugawara.apply_stress_circle(f, vac))) < 1e-13

    def test_mixed_relation_random(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            f = fn.random_real_circle(3, rng)
            g = fn.random_real_circle(2, rng)
            assert sugawara.mixed_relation_residual(f, g, 12) < 1e-12

    def test_first_order_adjoint_action(self):
        # [J(g), T(f)] = -[T(f), J(g)] = -i J(f g') applied to the vacuum
        rng = np.random.default_rng(32)
        f = fn.random_real_circle(2, rng)
        g = fn.random_real_circle(2, rng)
        v = fock.vacuum(14)
        comm = fock.vec_add(
            fock.apply_current(g, sugawara.apply_stress_circle(f, v)),
            fock.vec_scale(-1.0, sugawara.apply_stress_circle(f, fock.apply_current(g, v))),
        )
        fgp = fn.pointwise_product(f, fn.derivative(g), 4)
        expected = fock.vec_scale(-1j, fock.apply_current(fgp, v))
        diff = fock.vec_add(comm, fock.vec_scale(-1.0, expected))
        assert fock.norm(diff) < 1e-12


class TestLineStress:
    def test_kappa_zero_reduces_to_circle(self):
        F, _ = _vector_fields()
        v = ref.basis_vector(10, (2,))
        a, resid = ref.apply_stress_line(F, 0.0, v, 8)
        b = sugawara.apply_stress_circle(F.circle_repr, v)
        diff = fock.vec_add(a, fock.vec_scale(-1.0, b))
        assert fock.norm(diff) < 1e-13
        assert resid == 0.0

    def test_derivative_repr_projection_exact(self):
        # (1 - cos)^2 t-multiplied is band-limited: residual at rounding level
        F, G = _vector_fields()
        for X in (F, G):
            _, resid = sugawara.line_derivative_repr(X, 2 * X.circle_repr.max_mode + 2)
            assert resid < 1e-8

    def test_scalar_weight_rejected(self):
        f = fn.LineObject(fn.circle_from_real_modes(1.0), fn.Weight.FUNCTION)
        with pytest.raises(ValueError):
            ref.apply_stress_line(f, 1.0, fock.vacuum(6))


class TestCentralCharge:
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0])
    def test_value(self, kappa):
        F, G = _vector_fields()
        c = sugawara.central_charge_estimate(F, G, kappa, 16)
        tol = 1e-6 if kappa == 0.0 else 1e-3
        assert c == pytest.approx(1.0 + kappa**2, abs=tol)

    def test_swap_invariance(self):
        F, G = _vector_fields()
        a = sugawara.central_charge_estimate(F, G, 1.0, 16)
        b = sugawara.central_charge_estimate(G, F, 1.0, 16)
        assert a == pytest.approx(b, abs=1e-9)

    def test_node_doubling_convergence(self, monkeypatch):
        F, G = _vector_fields()
        a = sugawara.central_charge_estimate(F, G, 0.5, 16)
        monkeypatch.setattr(fn, "GRID_NODES", 4096)
        b = sugawara.central_charge_estimate(F, G, 0.5, 16)
        assert abs(a - b) < 1e-6

    def test_cutoff_outside_exactness_window_rejected(self):
        # the bracket's vacuum amplitude has safe levels -5 / -7 at N = 1 and 0 / 6 at N = 6
        F, G = _vector_fields()
        with pytest.raises(ValueError, match="exactness window"):
            sugawara.central_charge_estimate(F, G, 1.0, 1)
        assert sugawara.central_charge_estimate(F, G, 1.0, 6) == pytest.approx(2.0, abs=1e-3)

    def test_degenerate_pair_rejected(self):
        F, _ = _vector_fields()
        with pytest.raises(ValueError):
            sugawara.central_charge_estimate(F, F, 1.0, 12)

    def test_parity_flip_conjugates_kappa(self):
        # P T^kappa(F) P = T^{-kappa}(F) on the truncated space
        F, _ = _vector_fields()
        v = ref.basis_vector(12, (2, 1))
        lhs, _ = ref.apply_stress_line(F, 1.0, ref.parity_flip(v), 8)
        lhs = ref.parity_flip(lhs)
        rhs, _ = ref.apply_stress_line(F, -1.0, v, 8)
        diff = fock.vec_add(lhs, fock.vec_scale(-1.0, rhs))
        assert fock.norm(diff) < 1e-12


class TestWeylAdjoint:
    def test_trivial_generator(self):
        rng = np.random.default_rng(33)
        f = fn.random_real_circle(2, rng)
        zero = fn.circle_from_real_modes(0.0)
        assert sugawara.weyl_adjoint_stress_residual(zero, f, 8) < 1e-12

    def test_residual_decreases_with_cutoff(self):
        rng = np.random.default_rng(34)
        g = _unit_sobolev(fn.random_real_circle(2, rng), 0.5)
        f = _unit_sobolev(fn.random_real_circle(2, rng), 0.5)
        r = [sugawara.weyl_adjoint_stress_residual(g, f, N) for N in (8, 10, 12)]
        assert r[0] > r[1] > r[2]

    def test_exponentiated_weyl_relation(self):
        # W(f) W(g) = exp(-i sigma(f,g) / (2 SIGMA_NORM)) W(f + g) on low levels
        rng = np.random.default_rng(35)
        f = _unit_sobolev(fn.random_real_circle(2, rng), 0.4)
        g = _unit_sobolev(fn.random_real_circle(2, rng), 0.4)
        N = 12
        Jf = ref.operator_matrix(lambda v: fock.apply_current(f, v), N)
        Jg = ref.operator_matrix(lambda v: fock.apply_current(g, v), N)
        Wf, Wg = expm(1j * Jf), expm(1j * Jg)
        Wfg = expm(1j * (Jf + Jg))
        phase = np.exp(-0.5j * fn.sigma(f, g) / fn.SIGMA_NORM)
        P = slice(len(fock.basis_partitions(2)))
        resid = np.linalg.norm((Wf @ Wg - phase * Wfg)[:, P], ord=2)
        assert resid < 1e-3
