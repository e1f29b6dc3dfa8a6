"""The ground states of chiralground.states: the closed form in the one-particle
form B against the left-to-right Weyl reduction of states_reference.py, and B
against the Fock layer; one-point values, the Gram matrix, the covariance
residuals and the non-normality table."""

import cmath
import math

import fock_reference as ref
import numpy as np
import pytest
import states_reference as sref
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
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
        phase, total = sref.weyl_reduce((f,), 96)
        assert phase == pytest.approx(1.0)
        assert fn.sobolev_half_sq(total - f.pad(96)) < 1e-20

    def test_inverse_pair_cancels(self):
        f = _bump(0.2, 0.8)
        phase, total = sref.weyl_reduce((f, f.scale(-1.0)), 96)
        assert phase == pytest.approx(1.0)  # sigma(f, -f) = 0
        assert fn.sobolev_half_sq(total) < 1e-20

    def test_pair_phase_formula(self):
        f, g = _bump(0.0, 1.0), _bump(0.7, 0.5)
        phase, _ = sref.weyl_reduce((f, g), 96)
        expected = cmath.exp(-0.5j * fn.sigma(f.pad(96), g.pad(96)) / fn.SIGMA_NORM)
        assert phase == pytest.approx(expected, abs=1e-12)
        # the cocycle is the imaginary part of the one-particle form
        B = states.one_particle_form((f, g), 96)
        assert phase == pytest.approx(cmath.exp(1j * B[0, 1].imag), abs=1e-12)

    def test_reversal_conjugates_phase(self):
        f, g = _bump(0.0, 1.0), _bump(0.7, 0.5)
        a, _ = sref.weyl_reduce((f, g), 96)
        b, _ = sref.weyl_reduce((g, f), 96)
        assert a == pytest.approx(b.conjugate(), abs=1e-12)


class TestVacuumWeyl:
    def test_zero_function(self):
        assert sref.vacuum_weyl(fn.circle_from_real_modes(0.0)) == 1.0
        assert states.ground_weyl(0.0, (fn.circle_from_real_modes(0.0),)).value == 1.0

    def test_gaussian_law_in_scale(self):
        f = _bump()
        v1 = states.ground_weyl(0.0, (f,), 96).value
        v2 = states.ground_weyl(0.0, (f.scale(2.0),), 96).value
        # exp(-2 s^2) law: log v scales like s^2
        assert cmath.log(v2) == pytest.approx(4.0 * cmath.log(v1), rel=1e-10)
        assert v1 == pytest.approx(sref.vacuum_weyl(f, 96), rel=1e-15)

    def test_fock_matrix_exponential_cross_check(self):
        # <vac, exp(i J(f)) vac> -> omega_0(W(f)) = exp(-sobolev/2) as the cutoff grows
        rng = np.random.default_rng(40)
        f = fn.random_real_circle(2, rng)
        f = f.scale(0.4 / max(1e-9, math.sqrt(fn.sobolev_half_sq(f))))
        target = states.ground_weyl(0.0, (f,), 2).value
        assert target == pytest.approx(sref.vacuum_weyl(f, 2), rel=1e-15)
        errs = []
        for N in (6, 10, 14):
            J = ref.operator_matrix(lambda v: fock.apply(ref.current(f, N), v), N)
            W = expm(1j * J)
            errs.append(abs(W[0, 0] - target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


seeds = st.integers(0, 2**32 - 1)


@st.composite
def weyl_words(draw):
    """A word of 1 to 4 factors, each a random real Fourier function of top mode
    1 to 6 or a tent g_n of the non-normality sequence."""
    rng = np.random.default_rng(draw(seeds))
    k = draw(st.integers(1, 4))
    return tuple(fn.gn_family(draw(st.integers(1, 64))) if draw(st.booleans())
                 else fn.random_real_circle(draw(st.integers(1, 6)), rng) for _ in range(k))


@settings(max_examples=200, deadline=None)
@given(weyl_words(), st.floats(-3.0, 3.0), st.sampled_from([8, 32, 96]))
def test_ground_weyl_matches_the_reduction(w, q, M):
    got = states.ground_weyl(q, w, M)
    assert got.value == pytest.approx(sref.ground_weyl(q, w, M), rel=0, abs=1e-14)
    assert got.divergent == any(fn.line_integral(f).divergent for f in w)


def test_one_particle_form_is_the_fock_inner_product():
    # <J(f_j) vac, J(f_l) vac> = B(f_l, f_j): the form is antilinear in its first slot
    rng = np.random.default_rng(23)
    fs = [fn.random_real_circle(m, rng) for m in range(1, 7)]
    B = states.one_particle_form(fs, 8)
    vecs = [fock.apply(ref.current(f, 8), fock.vacuum(8)) for f in fs]
    G = np.array([[fock.inner(u, v, 8) for v in vecs] for u in vecs])
    assert np.max(np.abs(G - B.T)) < 1e-14
    assert np.max(np.abs(G - B)) > 0.1  # the untransposed form differs


class TestGroundWeyl:
    def test_q_zero_is_vacuum_state(self):
        f = _bump()
        r = states.ground_weyl(0.0, (f,), 96)
        assert r.value == pytest.approx(sref.vacuum_weyl(f, 96), rel=1e-15)
        assert not r.divergent

    def test_charge_shows_up_as_phase(self):
        f = _bump()
        w = (f,)
        a = states.ground_weyl(1.5, w, 96)
        b = states.ground_weyl(0.0, w, 96)
        assert abs(a.value) == pytest.approx(abs(b.value), rel=1e-12)
        integral = fn.line_integral(f).value
        assert a.value / b.value == pytest.approx(cmath.exp(1.5j * integral), abs=1e-10)

    def test_divergent_word_flagged(self):
        r = states.ground_weyl(1.0, (fn.g_limit(),), 256)
        assert r.divergent

    def test_value_bounded_by_one(self):
        f = _bump(0.3, 0.7)
        for q in (-2.0, 0.0, 3.0):
            r = states.ground_weyl(q, (f,), 96)
            assert abs(r.value) <= 1.0 + 1e-12


class TestOnePoints:
    def test_current_fd_agrees(self):
        f = _bump()
        r = states.ground_current_onepoint(1.3, f, 96)
        assert r.finite_difference == pytest.approx(r.closed_form, abs=1e-6)

    def test_current_linear_in_q(self):
        f = _bump(0.5, 1.1)
        a = states.ground_current_onepoint(1.0, f, 96)
        b = states.ground_current_onepoint(3.0, f, 96)
        assert b.closed_form == pytest.approx(3.0 * a.closed_form, rel=1e-12)

    def test_stress_quadratic_and_even_in_q(self):
        f = fn.circle_from_real_modes(1.5, [-2.0, 0.5])
        v1 = states.ground_stress_onepoint(1.0, f)
        v2 = states.ground_stress_onepoint(-1.0, f)
        v3 = states.ground_stress_onepoint(2.0, f)
        assert v2 == v1  # q -> -q, exactly
        assert v3 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_stress_against_scipy_value(self):
        # int (1-cos)^2 / (2 sin^2(theta/2)) dtheta = int (1 - cos) dtheta = 2 pi
        f = fn.circle_from_real_modes(1.5, [-2.0, 0.5])
        v = states.ground_stress_onepoint(2.0, f)
        assert v == pytest.approx(0.5 * 4.0 * 2.0 * math.pi, abs=1e-6)

    def test_stress_reads_a_scalar_density(self):
        # h = (1 - cos) sin^2: int h(theta(t)) dt = int sin^2 dtheta = pi, while the
        # vector field ((t^2+1)/2) h(theta(t)) would integrate to int (1 + cos) dtheta = 2 pi
        h = fn.pointwise_product(fn.circle_from_real_modes(1.0, [-1.0]),
                                 fn.circle_from_real_modes(0.5, [0.0, -0.5]), 3)
        oracle, _ = scipy_quad(lambda t: h(float(fn.theta_of_t(t))), -np.inf, np.inf, limit=400)
        assert oracle == pytest.approx(math.pi, abs=1e-6)
        q = 1.5
        assert states.ground_stress_onepoint(q, h) == pytest.approx(0.5 * q**2 * oracle, abs=1e-6)


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
        lam = states.gram_psd(q, self._family(), 96)
        assert lam > -1e-10

    @pytest.mark.parametrize("q", [-2.0, 1.0])
    def test_gram_is_the_state_on_two_factor_words(self, q):
        # G_jl = omega_q(W(-f_j) W(f_l)) entry by entry against the reduction; its
        # spectrum cannot see the cocycle's orientation or q, which act on G by a
        # transpose and a diagonal unitary, so only the entries test them
        fs = [f.scale(s) for f, s in zip(self._family(), (1.0, -0.7, 0.9, -1.2))]
        G = np.array([[states.ground_weyl(q, (f.scale(-1.0), g), 96).value for g in fs]
                      for f in fs])
        want = np.array([[sref.ground_weyl(q, (f.scale(-1.0), g), 96) for g in fs] for f in fs])
        assert np.max(np.abs(G - want)) < 1e-14
        assert np.linalg.eigvalsh(G)[0] == pytest.approx(states.gram_psd(q, fs, 96), abs=1e-14)
        assert states.gram_psd(q, fs, 96) == pytest.approx(states.gram_psd(0.0, fs, 96),
                                                           abs=1e-14)

    def test_gram_refuses_a_divergent_function(self):
        with pytest.raises(states.DivergenceError):
            states.gram_psd(1.0, [_bump(), fn.g_limit()], 96)

    @pytest.mark.parametrize("s", [-0.5, 0.5])
    def test_dilation_orbit(self, s):
        f = _bump(0.0, 1.0)
        r = states.dilation_orbit_residual(1.0, s, f, 96)
        assert r.residual < 1e-5
        assert r.residual <= r.budget * (1 + 1e-12)

    def test_translation_invariance(self):
        f = _bump(0.0, 1.0)
        r = states.translation_invariance_residual(1.5, f, 0.7, 96)
        assert r.residual < 1e-5
        assert r.residual <= r.budget * (1 + 1e-12)

    def test_budget_catches_a_right_side_at_the_undilated_charge(self, monkeypatch):
        # mutation: every side at charge q = 1, so the right side misses its e^s
        f = _bump(0.0, 1.0)
        exact = states.ground_weyl
        monkeypatch.setattr(states, "ground_weyl", lambda q, w, M: exact(1.0, w, M))
        r = states.dilation_orbit_residual(1.0, 0.5, f, 96)
        assert r.residual > r.budget

    def test_divergent_sides_raise(self):
        # cos - 1 + 0.01 does not vanish at infinity
        f = fn.circle_from_real_modes(-0.99, [1.0])
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
