import math

import fock_reference as ref
import numpy as np
import pytest
from scipy.linalg import expm

from chiralground import fnspace as fn
from chiralground import fock, sugawara


def _unit_sobolev(f, size):
    return f.scale(size / max(1e-12, math.sqrt(fn.sobolev_half_sq(f))))


def _virasoro(n, v, N):
    """L_n applied to the amplitudes v over basis(N)."""
    return fock.apply(sugawara.virasoro_triples(n, N), v)


def _vector_fields():
    hF = fn.circle_from_real_modes(1.5, [-2.0, 0.5])  # (1 - cos)^2
    hG = fn.circle_from_real_modes(0.0, [], [1.25, -1.0, 0.25])  # (1 - cos)^2 sin
    return hF, hG


class TestVirasoroModes:
    def test_positive_modes_kill_vacuum(self):
        for n in [1, 2, 3]:
            assert not ref.amps(_virasoro(n, fock.vacuum(10), 10), 10)

    def test_L0_matches_level_operator(self):
        for parts in [(1,), (2, 2), (3, 1, 1)]:
            v = ref.basis_vector(10, parts)
            assert fock.norm(_virasoro(0, v, 10) - ref.apply_L0(v, 10), 10) < 1e-13

    def test_Lm2_vacuum(self):
        # L_{-2} vac = (1/2) J_{-1} J_{-1} vac
        v = _virasoro(-2, fock.vacuum(10), 10)
        assert ref.amps(v, 10) == {(1, 1): pytest.approx(0.5)}

    def test_level2_vacuum_moment(self):
        # <vac, L_2 L_{-2} vac> = c/2 = 1/2 at c = 1
        w = _virasoro(2, _virasoro(-2, fock.vacuum(10), 10), 10)
        assert fock.inner(fock.vacuum(10), w, 10) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_vacuum_moments(self, n):
        # ||L_{-n} vac||^2 = (n^3 - n)/12 at c = 1
        N = 2 * n + 2
        v = _virasoro(-n, fock.vacuum(N), N)
        assert fock.inner(v, v, N).real == pytest.approx((n**3 - n) / 12.0, abs=1e-12)

    def test_virasoro_relation_exact(self):
        for m, n in [(2, -2), (3, -3), (1, 2), (-1, 3), (2, -4)]:
            assert sugawara.virasoro_residual(m, n, 12) < 1e-13

    def test_mutation_detected(self):
        r = sugawara.virasoro_residual(2, -2, 12, drop_central=True)
        assert r == pytest.approx(0.5)  # (m^3 - m)/12 = 1/2 at m = 2

    def test_hermiticity(self):
        # L_n^* = L_{-n} as matrices restricted below the cutoff
        N = 8
        A = ref.operator_matrix(lambda v: _virasoro(2, v, N), N)
        B = ref.operator_matrix(lambda v: _virasoro(-2, v, N), N)
        P = slice(len(fock.basis_partitions(N - 2)))
        assert np.linalg.norm((A.conj().T - B)[P, P], ord=2) < 1e-12


class TestSmearedStress:
    def test_constant_gives_L0(self):
        one = fn.circle_from_real_modes(1.0)
        for parts in [(2,), (3, 1)]:
            v = ref.basis_vector(10, parts)
            assert fock.norm(ref.apply_stress_circle(one, v, 10) - ref.apply_L0(v, 10), 10) < 1e-13

    def test_vacuum_expectation_vanishes(self):
        rng = np.random.default_rng(30)
        f = fn.random_real_circle(4, rng)
        vac = fock.vacuum(12)
        assert abs(fock.inner(vac, ref.apply_stress_circle(f, vac, 12), 12)) < 1e-13

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
        v, Jg = fock.vacuum(14), ref.current(g, 14)
        comm = (fock.apply(Jg, ref.apply_stress_circle(f, v, 14))
                - ref.apply_stress_circle(f, fock.apply(Jg, v), 14))
        fgp = fn.pointwise_product(f, fn.derivative(g), 4)
        assert fock.norm(comm + 1j * fock.apply(ref.current(fgp, 14), v), 14) < 1e-12


class TestLineStress:
    def test_kappa_zero_reduces_to_circle(self):
        F, _ = _vector_fields()
        v = ref.basis_vector(10, (2,))
        diff = ref.apply_stress_line(F, 0.0, v, 10) - ref.apply_stress_circle(F, v, 10)
        assert fock.norm(diff, 10) < 1e-13

    def test_derivative_repr_projection_exact(self):
        # F' = t h + h' pointwise, on h's own modes
        F, G = _vector_fields()
        theta = np.random.default_rng(29).uniform(0.1, 2 * math.pi - 0.1, 64)
        for h in (F, G):
            phi = sugawara.line_derivative_repr(h)
            assert phi.max_mode == h.max_mode
            want = -np.cos(theta / 2) / np.sin(theta / 2) * h(theta) + fn.derivative(h)(theta)
            assert np.max(np.abs(phi(theta) - want)) < 1e-13


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

    def test_charge_calls_no_grid(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a resampling grid was used")

        monkeypatch.setattr(fn, "_line_grid", refuse)
        F, G = _vector_fields()
        for kappa in (0.0, 0.5, 1.0, 2.0):
            c = sugawara.central_charge_estimate(F, G, kappa, 16)
            assert c == pytest.approx(1.0 + kappa**2, rel=1e-14)

    def test_cutoff_outside_exactness_window_rejected(self):
        # the fields reach modes 2 and 3: the level-2 term needs cutoff 2
        F, G = _vector_fields()
        for kappa in (0.0, 1.0):
            with pytest.raises(ValueError, match="exactness window"):
                sugawara.central_charge_estimate(F, G, kappa, 1)
        assert sugawara.central_charge_estimate(F, G, 1.0, 2) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_pair_rejected(self):
        F, _ = _vector_fields()
        with pytest.raises(ValueError):
            sugawara.central_charge_estimate(F, F, 1.0, 12)

    def test_parity_flip_conjugates_kappa(self):
        # P T^kappa(F) P = T^{-kappa}(F) on the truncated space
        F, _ = _vector_fields()
        v = ref.basis_vector(12, (2, 1))
        lhs = ref.parity_flip(ref.apply_stress_line(F, 1.0, ref.parity_flip(v, 12), 12), 12)
        rhs = ref.apply_stress_line(F, -1.0, v, 12)
        assert fock.norm(lhs - rhs, 12) < 1e-12


class TestWeylAdjoint:
    def test_trivial_generator(self):
        rng = np.random.default_rng(33)
        f = fn.random_real_circle(2, rng)
        zero = fn.circle_from_real_modes(0.0)
        assert sugawara.weyl_adjoint_stress_residual(zero, f, 8) < 1e-12

    def test_negative_cutoff_refused(self):
        rng = np.random.default_rng(33)
        g, f = fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)
        with pytest.raises(ValueError, match="^cutoff must be >= 0$"):
            sugawara.weyl_adjoint_stress_residual(g, f, -1)

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
        Jf = ref.operator_matrix(lambda v: fock.apply(ref.current(f, N), v), N)
        Jg = ref.operator_matrix(lambda v: fock.apply(ref.current(g, N), v), N)
        Wf, Wg = expm(1j * Jf), expm(1j * Jg)
        Wfg = expm(1j * (Jf + Jg))
        phase = np.exp(-0.5j * fn.sigma(f, g) / fn.SIGMA_NORM)
        P = slice(len(fock.basis_partitions(2)))
        resid = np.linalg.norm((Wf @ Wg - phase * Wfg)[:, P], ord=2)
        assert resid < 1e-3
