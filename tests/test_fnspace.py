import math

import fnspace_reference as ref
import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from chiralground import fnspace as fn
from chiralground import fock

TWO_PI = 2 * math.pi

def brute_fourier_coeff(func, n, npts=10**6):
    """Independent quadrature oracle for (1/2pi) int f e^{-in theta}."""
    th = np.linspace(0.0, TWO_PI, npts)
    vals = func(th) * np.exp(-1j * n * th)
    return np.trapezoid(vals, th) / TWO_PI


class TestFourierProject:
    def test_constant(self):
        f = fn.PiecewiseLinearCircle(np.array([0.0, math.pi]), np.array([1.0, 1.0]))
        c = fn.fourier_project(f, 8)
        assert ref.coeff(c, 0) == pytest.approx(1.0, abs=1e-14)
        for n in range(1, 9):
            assert abs(ref.coeff(c, n)) < 1e-14

    def test_tent_mean_value(self):
        # triangle of base pi and height pi/2: area pi^2/4, mean pi/8
        c = fn.fourier_project(fn.g_limit(), 8)
        assert ref.coeff(c, 0).real == pytest.approx(math.pi / 8, abs=1e-14)

    def test_symmetric_tent_against_quadrature_oracle(self):
        tent = fn.PiecewiseLinearCircle(
            np.array([0.0, math.pi / 2, math.pi, 1.5 * math.pi]),
            np.array([0.0, 0.0, 1.0, 0.0]),
        )
        c = fn.fourier_project(tent, 16)
        for n in range(-16, 17):
            oracle = brute_fourier_coeff(tent, n)
            assert ref.coeff(c, n) == pytest.approx(oracle, abs=1e-10)
        # even around theta = pi, so all coefficients are real
        assert np.max(np.abs(c.coeffs.imag)) < 1e-13

    def test_exactness_all_gn(self):
        g4 = fn.gn_family(4)
        c = fn.fourier_project(g4, 16)
        for n in range(0, 17):
            assert ref.coeff(c, n) == pytest.approx(brute_fourier_coeff(g4, n), abs=1e-10)


class TestDerivativeProduct:
    def test_cos_derivative(self):
        cos = fn.circle_from_real_modes(0.0, [1.0])
        d = fn.derivative(cos)
        assert ref.coeff(d, 1) == pytest.approx(1j / 2)
        assert ref.coeff(d, -1) == pytest.approx(-1j / 2)

    def test_constant_derivative_zero(self):
        one = fn.circle_from_real_modes(1.0)
        assert np.all(fn.derivative(one).coeffs == 0)

    def test_second_derivative_of_cos(self):
        cos = fn.circle_from_real_modes(0.0, [1.0])
        d2 = fn.derivative(fn.derivative(cos))
        assert np.allclose(d2.coeffs, -cos.coeffs)

    def test_product_cos_squared(self):
        cos = fn.circle_from_real_modes(0.0, [1.0])
        p = fn.pointwise_product(cos, cos, 2)
        assert ref.coeff(p, 0) == pytest.approx(0.5)
        assert ref.coeff(p, 2) == pytest.approx(0.25)
        assert ref.coeff(p, -2) == pytest.approx(0.25)

    def test_product_with_one_is_identity(self):
        rng = np.random.default_rng(3)
        f = fn.random_real_circle(4, rng)
        one = fn.circle_from_real_modes(1.0)
        p = fn.pointwise_product(f, one, 5)
        assert np.allclose(p.pad(4).coeffs, f.coeffs)

    def test_product_sampling_oracle(self):
        rng = np.random.default_rng(4)
        f = fn.random_real_circle(4, rng)
        g = fn.random_real_circle(4, rng)
        p = fn.pointwise_product(f, g, 8)
        th = np.linspace(0, TWO_PI, 64, endpoint=False)
        assert np.allclose(p(th), np.asarray(f(th)) * np.asarray(g(th)), atol=1e-12)


class TestSigmaSobolev:
    def test_sigma_self_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            f = fn.random_real_circle(5, rng)
            assert abs(fn.sigma(f, f)) < 1e-13

    def test_sigma_antisymmetric(self):
        rng = np.random.default_rng(7)
        f, g = fn.random_real_circle(5, rng), fn.random_real_circle(3, rng)
        assert fn.sigma(f, g) == pytest.approx(-fn.sigma(g, f), abs=1e-13)

    def test_sigma_cos_sin_quadrature_oracle(self):
        cos = fn.circle_from_real_modes(0.0, [1.0])
        sin = fn.circle_from_real_modes(0.0, [], [1.0])
        oracle, _ = scipy_quad(lambda th: math.cos(th) ** 2, 0, TWO_PI)
        assert fn.sigma(cos, sin) == pytest.approx(oracle, abs=1e-10)
        assert fn.sigma(cos, sin) == pytest.approx(math.pi, abs=1e-13)

    def test_sigma_fock_cross_check(self):
        # sigma(f, g) = SIGMA_NORM * 2 Im <J(f) vac, J(g) vac>
        rng = np.random.default_rng(8)
        f, g = fn.random_real_circle(4, rng), fn.random_real_circle(4, rng)
        v = fock.vacuum(10)
        jf, jg = (fock.apply(fock.smear(fock.mode_triples, h, 10), v) for h in (f, g))
        lhs = fn.sigma(f, g)
        rhs = fn.SIGMA_NORM * 2 * fock.inner(jf, jg, 10).imag
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("lam", [1j, 2.0 + 0j, np.complex128(2.0)])
    def test_scale_refuses_a_complex_factor(self, lam):
        with pytest.raises(TypeError, match="must be real"):
            fn.circle_from_real_modes(0.0, [1.0]).scale(lam)

    def test_sobolev_constant_zero(self):
        assert fn.sobolev_half_sq(fn.circle_from_real_modes(3.0)) == 0.0

    def test_sobolev_cos(self):
        assert fn.sobolev_half_sq(fn.circle_from_real_modes(0.0, [1.0])) == pytest.approx(0.25)

    def test_sobolev_quadratic_scaling(self):
        rng = np.random.default_rng(9)
        f = fn.random_real_circle(5, rng)
        assert fn.sobolev_half_sq(f.scale(3.0)) == pytest.approx(
            9.0 * fn.sobolev_half_sq(f), rel=1e-13
        )

    def test_sobolev_gn_minus_g_decreasing(self):
        glim = fn.fourier_project(fn.g_limit(), 256)
        prev = None
        for n in [4, 8, 16]:
            d = fn.sobolev_half_sq(fn.fourier_project(fn.gn_family(n), 256) - glim)
            if prev is not None:
                assert d < prev
            prev = d
        assert prev < 1e-3

    def test_parseval(self):
        rng = np.random.default_rng(10)
        f = fn.random_real_circle(6, rng)
        th = np.linspace(0, TWO_PI, 2 * 6 + 3, endpoint=False)
        grid_power = np.mean(np.asarray(f(th)) ** 2)
        assert grid_power == pytest.approx(np.sum(np.abs(f.full()) ** 2), abs=1e-12)


class TestCayley:
    def test_theta_pi_maps_to_zero(self):
        assert ref.cayley_t_of_theta(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_wrap_point_is_infinity(self):
        assert ref.cayley_t_of_theta(0.0) == math.inf
        assert abs(ref.cayley_t_of_theta(1e-8)) > 1e7
        assert abs(ref.cayley_t_of_theta(TWO_PI - 1e-8)) > 1e7

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for th in rng.uniform(1e-6, TWO_PI - 1e-6, 100):
            t = ref.cayley_t_of_theta(th)
            assert abs(-(t - 1j) / (t + 1j) + np.exp(1j * th)) < 1e-12
            assert fn.theta_of_t(t) == pytest.approx(th, abs=1e-9)


class TestGnFamily:
    def test_peak_value(self):
        for n in [1, 2, 7, 64]:
            assert fn.gn_family(n)(1.5 * math.pi) == pytest.approx(math.pi / 2)

    def test_corner_values(self):
        for n in [2, 5, 33]:
            g = fn.gn_family(n)
            assert g(TWO_PI - 1.0 / n) == pytest.approx(1.0 / n)
            assert g(TWO_PI - 0.5 / n) == pytest.approx(0.0, abs=1e-14)

    def test_zero_on_first_half(self):
        g = fn.gn_family(3)
        for th in np.linspace(0, math.pi, 40):
            assert g(th) == pytest.approx(0.0, abs=1e-14)

    def test_final_slope_is_minus_two(self):
        n = 6
        g = fn.gn_family(n)
        a, b = TWO_PI - 1.0 / n, TWO_PI - 0.5 / n
        slope = (g(b - 1e-9) - g(a + 1e-9)) / (b - a - 2e-9)
        assert slope == pytest.approx(-2.0, rel=1e-6)

    def test_limit_values(self):
        g = fn.g_limit()
        assert g(math.pi) == 0.0
        assert g(1.5 * math.pi) == pytest.approx(math.pi / 2)

    def test_difference_support(self):
        n = 8
        g, gn = fn.g_limit(), fn.gn_family(n)
        for th in np.linspace(0, TWO_PI - 1.0 / n, 200, endpoint=False):
            assert g(th) == pytest.approx(gn(th), abs=1e-13)

    def test_max_difference(self):
        # the limit is 2 pi - theta on the final wedge; the gap peaks at the
        # inner corner 2 pi - 1/(2n) where g_n has already dropped to zero
        for n in [4, 16]:
            th = np.linspace(TWO_PI - 1.0 / n, TWO_PI, 10001, endpoint=False)
            diff = np.abs(np.asarray(fn.g_limit()(th)) - np.asarray(fn.gn_family(n)(th)))
            assert np.max(diff) == pytest.approx(0.5 / n, rel=1e-3)

    def test_range(self):
        th = np.linspace(0, TWO_PI, 5000, endpoint=False)
        vals = np.asarray(fn.gn_family(9)(th))
        assert np.all(vals >= -1e-14)
        assert np.all(vals <= math.pi / 2 + 1e-14)


class TestLineIntegral:
    def test_zero_function(self):
        r = fn.line_integral(fn.circle_from_real_modes(0.0))
        assert r.value == pytest.approx(0.0, abs=1e-14)
        assert not r.divergent

    def test_g4_stable_under_node_doubling(self):
        # the same function with a node added at the midpoint of every segment
        g4 = fn.gn_family(4)
        ends = np.append(g4.nodes[1:], TWO_PI)
        nodes = np.sort(np.concatenate([g4.nodes, (g4.nodes + ends) / 2.0]))
        doubled = fn.PiecewiseLinearCircle(nodes, g4(nodes))
        r1 = fn.line_integral(g4)
        r2 = fn.line_integral(doubled)
        assert not r1.divergent
        assert abs(r1.value - r2.value) < 1e-8

    def test_g4_against_scipy_oracle(self):
        g4 = fn.gn_family(4)
        oracle, err = scipy_quad(
            lambda th: g4(th) / (2 * math.sin(th / 2) ** 2),
            math.pi,
            TWO_PI - 1.0 / 8,
            limit=400,
        )
        r = fn.line_integral(g4)
        assert r.value == pytest.approx(oracle, abs=1e-6)

    def test_limit_tent_divergence_flag(self):
        assert fn.line_integral(fn.g_limit()).divergent

    def test_constant_is_divergent(self):
        assert fn.line_integral(fn.circle_from_real_modes(1.0)).divergent

    @pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
    def test_divergence_test_is_scale_invariant(self, lam):
        # h = -1 + eps + cos has |h(0)| / sum|c_n| ~ eps / 2: line_integral and vanishing_order
        # apply one rule, which reads 1e-14 as rounding and 1e-8 as a pole (the parent's
        # 1e-5 tolerance called 1e-8 convergent)
        for eps, divergent in [(0.0, False), (1e-14, False), (1e-8, True), (1e-4, True)]:
            h = fn.circle_from_real_modes(-1.0 + eps, [1.0]).scale(lam)
            assert fn.line_integral(h).divergent == divergent
            assert fn.line_integral(h).divergent == (fn.vanishing_order(h) == 0)

    @pytest.mark.parametrize("M", [16, 32])
    def test_gaussian_vanishes_at_infinity(self, M):
        bump, _ = fn.gaussian_bump_line(0.0, 1.0, M)
        assert abs(bump(0.0)) < 1e-15
        assert not fn.line_integral(bump).divergent

    def test_gaussian_value(self):
        bump, resid = fn.gaussian_bump_line(0.0, 1.0, 96)
        assert resid < 1e-10
        r = fn.line_integral(bump)
        assert not r.divergent
        assert r.value == pytest.approx(math.sqrt(math.pi), abs=1e-8)


class TestDilation:
    def test_identity_dilation(self):
        bump, _ = fn.gaussian_bump_line(0.3, 1.0, 96)
        out, resid = fn.dilate_line(bump, 0.0, 96)
        diff = out - bump
        assert math.sqrt(fn.sobolev_half_sq(diff)) < 1e-8
        assert resid < 1e-8

    @pytest.mark.parametrize("s", [-0.5, 0.4])
    def test_integral_scales_like_exp_s(self, s):
        bump, _ = fn.gaussian_bump_line(0.0, 1.2, 96)
        base = fn.line_integral(bump).value
        dil, _ = fn.dilate_line(bump, s, 96)
        moved = fn.line_integral(dil).value
        assert moved == pytest.approx(math.exp(s) * base, abs=1e-6)

    @pytest.mark.parametrize("s", [-0.5, 0.5])
    def test_sobolev_invariance(self, s):
        bump, _ = fn.gaussian_bump_line(0.0, 1.0, 96)
        a = fn.sobolev_half_sq(bump)
        dil, _ = fn.dilate_line(bump, s, 96)
        b = fn.sobolev_half_sq(dil)
        assert a == pytest.approx(b, abs=1e-6)

    def test_constant_is_dilation_invariant(self):
        const = fn.circle_from_real_modes(1.0)
        out, resid = fn.dilate_line(const, 1.0, 32)
        assert resid < 1e-8
        assert ref.coeff(out, 0) == pytest.approx(1.0, abs=1e-8)


def _unshifted(h, preimage, M):
    """The projection of t -> f(preimage(t)) without the shift that makes it vanish at infinity."""
    _, t = fn._line_grid(M)
    return fn._project_samples(np.asarray(h(fn.theta_of_t(preimage(t)))), M, False)[0]


class TestVanishingProjection:
    @pytest.mark.parametrize("source", [
        lambda: fn.gaussian_bump_line(0.3, 1.1, 96)[0],
        lambda: fn.gn_family(8),
        lambda: fn.circle_from_real_modes(1.0, [-1.0]),
    ], ids=["bump", "gn", "one_minus_cos"])
    def test_images_of_a_vanishing_source_vanish(self, source):
        h = source()
        g = fn.random_real_circle(96, np.random.default_rng(5))
        lam = math.exp(-0.5)
        for (image, _), preimage in [(fn.dilate_line(h, 0.5, 96), lambda t: lam * t),
                                     (fn.translate_line(h, 1.0, 96), lambda t: t - 1.0)]:
            raw = _unshifted(h, preimage, 96)
            assert fn.vanishing_order(image) >= 1
            assert np.array_equal(image.coeffs[1:], raw.coeffs[1:])
            assert fn.line_integral(image).value == fn.line_integral(raw).value
            assert fn.sobolev_half_sq(image) == fn.sobolev_half_sq(raw)
            assert fn.sigma(image, g) == fn.sigma(raw, g)
            assert fn.sigma(g, image) == fn.sigma(g, raw)

    def test_non_vanishing_source_is_not_shifted(self):
        h = fn.circle_from_real_modes(-0.99, [1.0])
        image, _ = fn.dilate_line(h, 0.5, 32)
        lam = math.exp(-0.5)
        assert np.array_equal(image.coeffs, _unshifted(h, lambda t: lam * t, 32).coeffs)
        assert fn.vanishing_order(image) == 0
        assert fn.line_integral(image).divergent


def _vector_fields():
    hF = fn.circle_from_real_modes(1.5, [-2.0, 0.5])  # (1 - cos)^2
    hG = fn.circle_from_real_modes(0.0, [], [1.25, -1.0, 0.25])  # (1 - cos)^2 sin
    return hF, hG


class TestVectorFieldIntegral:
    def test_self_pairing_vanishes(self):
        F, _ = _vector_fields()
        r = fn.vectorfield_line_integral_f3g(F, F)
        assert abs(r) < 1e-8

    def test_swap_antisymmetry(self):
        F, G = _vector_fields()
        a = fn.vectorfield_line_integral_f3g(F, G)
        b = fn.vectorfield_line_integral_f3g(G, F)
        assert a == pytest.approx(-b, abs=1e-8)

    def test_integration_by_parts_chain(self):
        # int F''' G = int (h' + h''') g dtheta exactly on the circle side
        hF, hG = _vector_fields()
        r = fn.vectorfield_line_integral_f3g(hF, hG)
        M = max(hF.max_mode, hG.max_mode)
        a = hF.pad(M).full()
        b = hG.pad(M).full()
        ns = np.arange(-M, M + 1)
        exact = (TWO_PI * np.sum(1j * (ns - ns**3) * a * b[::-1])).real
        assert r == pytest.approx(exact, abs=1e-8)

    def test_insufficient_vanishing_order_rejected(self):
        # orders 1 + 1 and 0 + 2 are below 3, where the integral diverges
        sin = fn.circle_from_real_modes(0.0, [], [1.0])
        one_minus_cos = fn.circle_from_real_modes(1.0, [-1.0])
        for hF, hG in [(sin, sin), (fn.circle_from_real_modes(1.0), one_minus_cos)]:
            with pytest.raises(ValueError, match="vanishing order"):
                fn.vectorfield_line_integral_f3g(hF, hG)
        # orders 2 + 1 are enough
        assert math.isfinite(fn.vectorfield_line_integral_f3g(one_minus_cos, sin))

    def test_non_fourier_field_rejected(self):
        with pytest.raises(TypeError):
            fn.vectorfield_line_integral_f3g(fn.g_limit(), _vector_fields()[0])


def _mp_fourier_line_integral(h):
    """Principal value of int h / (1 - cos theta) dtheta for h(0) = 0.

    Folding theta -> 2pi - theta pairs h(theta) + h(-theta), which vanishes
    to second order at theta = 0, so the folded integrand is bounded.
    """
    M = h.max_mode
    with mpmath.workdps(50):
        c = [mpmath.mpc(z.real, z.imag) for z in h.full()]
        c[M] = -(mpmath.fsum(c[:M]) + mpmath.fsum(c[M + 1 :]))  # h(0) = 0 exactly

        def folded(th):
            even = sum(2 * c[k + M] * mpmath.cos(k * th) for k in range(-M, M + 1)).real
            return even / (1 - mpmath.cos(th))

        return float(mpmath.quad(folded, [mpmath.mpf("1e-15"), mpmath.pi]))


def _mp_pl_line_integral(h, cut=0.0):
    """int h(theta) / (2 sin^2(theta/2)) dtheta over [cut, 2pi - cut], segment by segment;
    the wrap segment, which ends past 2pi, on both sides of 2pi.

    Without a cut, every segment where h is nonzero must stay away from theta = 0.
    """
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        two_pi = 2 * mpmath.pi
        for a, b, va, vb in ref.segments(h):
            if va == 0.0 and vb == 0.0:
                continue
            a, b, va, vb = map(mpmath.mpf, (a, b, va, vb))
            for shift, lo, hi in ((0, max(a, cut), min(b, two_pi - cut)),
                                  (two_pi, max(a - two_pi, cut), b - two_pi)):
                if lo >= hi:
                    continue
                assert 0.0 < lo and hi < two_pi
                total += mpmath.quad(
                    lambda th: ((va + (vb - va) * (th + shift - a) / (b - a))
                                / (2 * mpmath.sin(th / 2) ** 2)),
                    [lo, hi],
                )
    return float(total)


def _mp_pl_finite_part(h, eps=1e-5):
    """Hadamard finite part of int h(theta) / (2 sin^2(theta/2)) dtheta, h piecewise linear.

    The integral over [eps, 2pi - eps], less 2 h(0) cot(eps/2), the integral of the constant
    h(0).  Near theta = 0, h - h(0) is s_+ theta on the right and s_- theta on the left, so
    the cut drops -2 (s_+ - s_-) ln(eps) of it, which is added back, and O(eps^2) besides.
    """
    a, b, va, vb = list(ref.segments(h))[-1]  # the wrap segment, which holds theta = 2pi
    h0 = va + (vb - va) * (TWO_PI - a) / (b - a)
    th, v = h.nodes, h.values
    ds0 = (v[1] - v[0]) / (th[1] - th[0]) - (vb - va) / (b - a) if th[0] == 0.0 else 0.0
    return (_mp_pl_line_integral(h, cut=eps) - 2.0 * h0 / math.tan(eps / 2.0)
            + 2.0 * ds0 * math.log(eps))


def _random_pl(seed):
    """Nodes and values of a seeded random piecewise-linear function: 3 to 6 nodes in
    [0.3, 2pi - 0.3] and normal values."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7))
    return np.sort(rng.uniform(0.3, TWO_PI - 0.3, m)), rng.standard_normal(m)


def _mp_f3g(F, G, T=1e4):
    """int_R (d^3/dt^3 F) G dt over [-T, T] with F(t) = ((t^2+1)/2) h(theta(t)).

    The integrand decays like t^-8, so the cut tails are far below 1e-9.
    """

    def pushforward(obj):
        M = obj.max_mode
        c = [mpmath.mpc(z.real, z.imag) for z in obj.full()]

        def value(t):
            z = (t - 1j) / (t + 1j)  # e^{i theta(t)}
            return ((t * t + 1) / 2 * sum(c[k + M] * z**k for k in range(-M, M + 1))).real

        return value

    f, g = pushforward(F), pushforward(G)
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda t: mpmath.diff(f, t, 3) * g(t), [-T, -10, 0, 10, T]))


class TestMpmathOracles:
    @pytest.mark.parametrize("M", [1, 3, 8])
    def test_fourier_with_zero_at_infinity(self, M):
        h = fn.random_real_circle(M, np.random.default_rng(50 + M))
        c = h.coeffs.copy()
        c[0] -= np.sum(h.full()).real
        h = fn.CircleFourier(c)
        r = fn.line_integral(h)
        assert not r.divergent
        assert r.value == pytest.approx(_mp_fourier_line_integral(h), abs=1e-9)

    # 10**8 is not dyadic, so its nodes 2pi - 1/n and 2pi - 1/(2n) are rounded
    @pytest.mark.parametrize("n", [1, 4, 8, 64, 1024, 2**20, 2**30, 10**8])
    def test_gn_family(self, n):
        gn = fn.gn_family(n)
        r = fn.line_integral(gn)
        assert not r.divergent
        assert r.value == pytest.approx(_mp_pl_line_integral(gn), abs=1e-9)

    def test_divergent_tent_returns_finite_part(self):
        # g_limit falls with slope -1 into theta = 2pi, so the integral cut at
        # 2pi - eps grows like -2 ln(eps); the finite part drops that term.
        eps = 1e-6
        r = fn.line_integral(fn.g_limit())
        assert r.divergent
        oracle = _mp_pl_line_integral(fn.g_limit(), cut=eps) + 2.0 * math.log(eps)
        assert r.value == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_pl_vanishing_near_infinity(self, seed):
        nodes, values = _random_pl(seed)
        values[[0, -1]] = 0.0  # zero on the wrap segment
        h = fn.PiecewiseLinearCircle(nodes, values)
        r = fn.line_integral(h)
        assert not r.divergent
        assert r.value == pytest.approx(_mp_pl_line_integral(h), rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kink_at_infinity_returns_finite_part(self, seed):
        # h(0) = 0 at a node there: the finite part 2 ds_0 of the kink beside the log sum
        nodes, values = _random_pl(seed)
        nodes[0] = values[0] = 0.0
        h = fn.PiecewiseLinearCircle(nodes, values)
        r = fn.line_integral(h)
        assert r.divergent and h.slope_jumps[0] != 0.0
        assert r.value == pytest.approx(_mp_pl_finite_part(h), rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_pole_at_infinity_returns_finite_part(self, seed):
        # no node at theta = 0 and h(0) != 0: the log sum alone is the finite part
        h = fn.PiecewiseLinearCircle(*_random_pl(seed))
        r = fn.line_integral(h)
        assert r.divergent and h(0.0) != 0.0
        assert r.value == pytest.approx(_mp_pl_finite_part(h), rel=1e-12, abs=1e-9)

    def test_f3g_default_vector_fields(self):
        F, G = _vector_fields()
        r = fn.vectorfield_line_integral_f3g(F, G)
        assert r == pytest.approx(_mp_f3g(F, G), abs=1e-9)
        assert r == pytest.approx(-3.0 * math.pi, abs=1e-12)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(12)
        f = fn.random_real_circle(5, rng)
        obj = fn.circle_to_json(f)
        assert obj["M"] == 5 and len(obj["re"]) == len(obj["im"]) == 6  # c_0 .. c_M
        g = ref.circle_from_json(obj)
        assert np.array_equal(f.coeffs, g.coeffs)
