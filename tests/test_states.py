import cmath
import math

import fock_reference as ref
import numpy as np
import pytest
from scipy.linalg import expm

from chiralground import fnspace as fn
from chiralground import fock, states


def _bump(center=0.0, width=1.0, M=96):
    f, resid = fn.gaussian_bump_line(center, width, M)
    assert resid < 1e-8
    return f


class TestWeylReduce:
    def test_single_factor(self):
        f = _bump()
        phase, total = states.weyl_reduce(states.WeylWord((f,)), 96)
        assert phase == pytest.approx(1.0)
        assert fn.sobolev_half_sq(total.circle_repr - f.circle_repr.pad(96)) < 1e-20

    def test_inverse_pair_cancels(self):
        f = _bump(0.2, 0.8)
        phase, total = states.weyl_reduce(states.WeylWord((f, f.scale(-1.0))), 96)
        assert phase == pytest.approx(1.0)  # sigma(f, -f) = 0
        assert fn.sobolev_half_sq(total.circle_repr) < 1e-20

    def test_pair_phase_formula(self):
        f, g = _bump(0.0, 1.0), _bump(0.7, 0.5)
        phase, _ = states.weyl_reduce(states.WeylWord((f, g)), 96)
        expected = cmath.exp(
            -0.5j * fn.sigma(f.circle_repr.pad(96), g.circle_repr.pad(96)) / fn.SIGMA_NORM
        )
        assert phase == pytest.approx(expected, abs=1e-12)

    def test_reversal_conjugates_phase(self):
        f, g = _bump(0.0, 1.0), _bump(0.7, 0.5)
        a, _ = states.weyl_reduce(states.WeylWord((f, g)), 96)
        b, _ = states.weyl_reduce(states.WeylWord((g, f)), 96)
        assert a == pytest.approx(b.conjugate(), abs=1e-12)

    def test_vector_field_rejected(self):
        h = fn.LineObject(fn.circle_from_real_modes(1.5, [-2.0, 0.5]), fn.Weight.VECTOR_FIELD, 4)
        with pytest.raises(ValueError):
            states.WeylWord((h,))


class TestVacuumWeyl:
    def test_zero_function(self):
        z = fn.LineObject(fn.circle_from_real_modes(0.0), fn.Weight.FUNCTION)
        assert states.vacuum_weyl(z) == 1.0

    def test_gaussian_law_in_scale(self):
        f = _bump()
        v1 = states.vacuum_weyl(f, 96)
        v2 = states.vacuum_weyl(f.scale(2.0), 96)
        # exp(-2 s^2) law: log v scales like s^2
        assert math.log(v2) == pytest.approx(4.0 * math.log(v1), rel=1e-10)

    def test_fock_matrix_exponential_cross_check(self):
        # <vac, exp(i J(f)) vac> -> exp(-sobolev/2) as the cutoff grows
        rng = np.random.default_rng(40)
        f = fn.random_real_circle(2, rng)
        f = f.scale(0.4 / max(1e-9, math.sqrt(fn.sobolev_half_sq(f))))
        target = math.exp(-0.5 * fn.sobolev_half_sq(f))
        errs = []
        for N in (6, 10, 14):
            J = ref.operator_matrix(lambda v: fock.apply_current(f, v), N)
            W = expm(1j * J)
            errs.append(abs(W[0, 0] - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestGroundWeyl:
    def test_q_zero_is_vacuum_state(self):
        f = _bump()
        r = states.ground_weyl(states.GroundStateParams(0.0), states.WeylWord((f,)), 96)
        assert r.value == pytest.approx(states.vacuum_weyl(f, 96))
        assert not r.divergent

    def test_charge_shows_up_as_phase(self):
        f = _bump()
        w = states.WeylWord((f,))
        a = states.ground_weyl(states.GroundStateParams(1.5), w, 96)
        b = states.ground_weyl(states.GroundStateParams(0.0), w, 96)
        assert abs(a.value) == pytest.approx(abs(b.value), rel=1e-12)
        integral = fn.line_integral(f).value
        assert a.value / b.value == pytest.approx(cmath.exp(1.5j * integral), abs=1e-10)

    def test_divergent_word_flagged(self):
        tent = fn.LineObject(fn.g_limit(), fn.Weight.FUNCTION)
        r = states.ground_weyl(states.GroundStateParams(1.0), states.WeylWord((tent,)), 256)
        assert r.divergent

    def test_value_bounded_by_one(self):
        f = _bump(0.3, 0.7)
        for q in (-2.0, 0.0, 3.0):
            r = states.ground_weyl(states.GroundStateParams(q), states.WeylWord((f,)), 96)
            assert abs(r.value) <= 1.0 + 1e-12


class TestOnePoints:
    def test_current_fd_agrees(self):
        f = _bump()
        r = states.ground_current_onepoint(states.GroundStateParams(1.3), f, 96)
        assert r.finite_difference == pytest.approx(r.closed_form, abs=1e-6)

    def test_current_linear_in_q(self):
        f = _bump(0.5, 1.1)
        a = states.ground_current_onepoint(states.GroundStateParams(1.0), f, 96)
        b = states.ground_current_onepoint(states.GroundStateParams(3.0), f, 96)
        assert b.closed_form == pytest.approx(3.0 * a.closed_form, rel=1e-12)

    def test_stress_quadratic_and_even_in_q(self):
        hF = fn.circle_from_real_modes(1.5, [-2.0, 0.5])
        F = fn.LineObject(hF, fn.Weight.VECTOR_FIELD, 4)
        v1 = states.ground_stress_onepoint(states.GroundStateParams(1.0, 0.0), F)
        v2 = states.ground_stress_onepoint(states.GroundStateParams(-1.0, 2.0), F)
        v3 = states.ground_stress_onepoint(states.GroundStateParams(2.0, 0.5), F)
        assert v2 == v1  # q -> -q and kappa-independence, exactly
        assert v3 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_stress_against_scipy_value(self):
        # int (1-cos)^2 / (2 sin^2(theta/2)) dtheta = int (1 - cos) dtheta = 2 pi
        hF = fn.circle_from_real_modes(1.5, [-2.0, 0.5])
        F = fn.LineObject(hF, fn.Weight.VECTOR_FIELD, 4)
        v = states.ground_stress_onepoint(states.GroundStateParams(2.0, 0.0), F)
        assert v == pytest.approx(0.5 * 4.0 * 2.0 * math.pi, abs=1e-6)


class TestGramAndOrbits:
    def _family(self):
        return [
            _bump(0.0, 1.0),
            _bump(0.6, 0.8),
            _bump(-0.5, 1.3),
            _bump(1.2, 0.6),
        ]

    @pytest.mark.parametrize("q", [-2.0, 0.0, 1.0])
    def test_gram_psd(self, q):
        lam = states.gram_psd(states.GroundStateParams(q), self._family(), 96)
        assert lam > -1e-10

    @pytest.mark.parametrize("s", [-0.5, 0.5])
    def test_dilation_orbit(self, s):
        f = _bump(0.0, 1.0)
        assert states.dilation_orbit_residual(1.0, s, f, 96) < 1e-5

    def test_translation_invariance(self):
        f = _bump(0.0, 1.0)
        assert states.translation_invariance_residual(1.5, f, 0.7, 96) < 1e-5

    def test_divergent_sides_raise(self):
        # cos - 1 + 0.01 does not vanish at infinity
        f = fn.LineObject(fn.circle_from_real_modes(-0.99, [1.0]), fn.Weight.FUNCTION)
        with pytest.raises(states.DivergenceError):
            states.dilation_orbit_residual(1.0, 0.5, f, 32)
        with pytest.raises(states.DivergenceError):
            states.translation_invariance_residual(1.0, f, 1.0, 32)


class TestNonNormality:
    def test_table_shape_and_monotonicity(self):
        rows = states.nonnormality_series(1.0, [4, 8, 16, 32], 512)
        assert [r.n for r in rows] == [4, 8, 16, 32]
        assert all(r.converged for r in rows)
        qs = [r.q_n for r in rows]
        ds = [r.d_n for r in rows]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert all(b < a for a, b in zip(ds, ds[1:]))

    def test_log_slope(self):
        rows = states.nonnormality_series(1.0, [64, 128], 1024)
        slope = (rows[1].q_n - rows[0].q_n) / math.log(2.0)
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_log_slope_exact_at_large_n(self):
        q = 1.5
        rows = states.nonnormality_series(q, [8192, 16384], 64)
        slope = (rows[1].q_n - rows[0].q_n) / math.log(2.0)
        assert slope == pytest.approx(2.0 * q, abs=1e-6)

    def test_phase_scales_with_q(self):
        a = states.nonnormality_series(1.0, [16], 512)[0]
        b = states.nonnormality_series(-2.0, [16], 512)[0]
        assert b.q_n == pytest.approx(-2.0 * a.q_n, rel=1e-12)
        assert b.d_n == a.d_n

    def test_qn_against_scipy_oracle(self):
        from scipy.integrate import quad as scipy_quad

        n = 16
        gn = fn.gn_family(n)
        oracle, _ = scipy_quad(
            lambda th: gn(th) / (2 * math.sin(th / 2) ** 2),
            math.pi,
            2 * math.pi - 0.5 / n,
            limit=400,
        )
        row = states.nonnormality_series(1.0, [n], 512)[0]
        assert row.q_n == pytest.approx(oracle, abs=1e-6)
