"""The FFT, Horner and slope-jump Fourier kernels of chiralground.fnspace
against the dense kernels in fnspace_reference.py, on random band-limited
functions with up to 128 modes, grids of any size the resampling allows
(odd and prime ones included) and random piecewise-linear functions; the
exact multiplication by t against the sampled projection it replaced;
fourier_project against mpmath quadrature; the vanishing order at theta = 0
on products of known order and against sympy derivatives; and that any
coefficient array makes a real function, with a Hermitian current."""

import math

import fnspace_reference as ref
import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chiralground import cli, fock
from chiralground import fnspace as fn

SETTINGS = settings(max_examples=100, deadline=None)
TWO_PI = 2 * math.pi
PRIMES = [17, 101, 257, 521, 1031, 2053]
seeds = st.integers(0, 2**32 - 1)


def random_circle(M: int, seed: int) -> fn.CircleFourier:
    rng = np.random.default_rng(seed)
    return fn.random_real_circle(M, rng, float(rng.uniform(0.1, 10.0)))


@st.composite
def grids(draw):
    """(K, M): a half-shifted grid size the resampling uses, K >= max(4M + 4, 16)."""
    K = draw(st.one_of(st.integers(16, 700), st.sampled_from(PRIMES)))
    return K, draw(st.integers(1, (K - 4) // 4))


@st.composite
def piecewise_linear(draw):
    """A random continuous piecewise-linear circle function whose nodes are at
    least 1e-3 apart, with its first node at 0 or above it."""
    rng = np.random.default_rng(draw(seeds))
    k = draw(st.integers(2, 8))
    nodes = np.sort(rng.uniform(0.0, TWO_PI, k))
    if draw(st.booleans()):
        nodes[0] = 0.0
    assume(np.min(np.diff(np.append(nodes, nodes[0] + TWO_PI))) > 1e-3)
    return fn.PiecewiseLinearCircle(nodes, rng.uniform(-3.0, 3.0, k))


@SETTINGS
@given(st.integers(0, 128), seeds)
def test_call_matches_dense_sum(M, seed):
    h = random_circle(M, seed)
    theta = np.random.default_rng(seed + 1).uniform(-20.0, 20.0, 64)
    tol = 1e-12 * (1.0 + np.sum(np.abs(h.full())))
    assert np.max(np.abs(h(theta) - ref.dense_eval(h, theta))) < tol
    assert abs(h(float(theta[0])) - ref.dense_eval(h, theta[0])) < tol


@SETTINGS
@given(grids(), seeds)
def test_project_samples_matches_dense_sum(grid, seed):
    K, M = grid
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(K) * rng.uniform(0.1, 10.0)
    out, resid = fn._project_samples(values, M, False)
    want, want_resid = ref.dense_project_samples(fn._shifted_grid(K), values, M)
    tol = 1e-12 * np.max(np.abs(values))
    assert out.max_mode == M
    assert np.max(np.abs(out.coeffs - want.coeffs)) < tol
    assert resid == pytest.approx(want_resid, abs=tol)


def test_multiply_by_t_refuses_a_pole():
    # 1 - cos vanishes at theta = 0, so t (1 - cos) = -sin; 1e-6 more leaves a pole there
    h = fn.circle_from_real_modes(1.0, [-1.0])
    assert np.max(np.abs(fn.multiply_by_t(h).coeffs - fn.circle_from_real_modes(
        0.0, [], [-1.0]).coeffs)) < 1e-16
    with pytest.raises(ValueError, match="pole"):
        fn.multiply_by_t(h + fn.circle_from_real_modes(1e-6))


@pytest.mark.parametrize("M", [0, 3])
def test_multiply_by_t_of_the_zero_function_is_zero(M):
    out = fn.multiply_by_t(fn.CircleFourier(np.zeros(M + 1)))
    assert out.max_mode == M and not np.any(out.coeffs)


@SETTINGS
@given(st.integers(1, 24), seeds)
def test_multiply_by_t_matches_dense_kernels(Mh, seed):
    h = random_circle(Mh, seed)
    h = h - fn.circle_from_real_modes(h(0.0))  # vanish at theta = 0, up to rounding
    out = fn.multiply_by_t(h)
    assert out.max_mode == Mh
    want, want_resid = ref.sampled_multiply_by_t(h)
    scale = np.sum(np.abs(h.full()))
    assert np.max(np.abs(out.pad(want.max_mode).coeffs - want.coeffs)) < 1e-10 * scale
    assert want_resid < 1e-10 * scale
    theta = np.random.default_rng(seed).uniform(0.1, TWO_PI - 0.1, 64)
    assert np.max(np.abs(out(theta) + np.cos(theta / 2) / np.sin(theta / 2) * h(theta))) \
        < 1e-12 * scale


@SETTINGS
@given(piecewise_linear(), st.integers(1, 256))
def test_fourier_project_matches_segment_integrals(f, M):
    got, want = fn.fourier_project(f, M), ref.segment_fourier_project(f, M)
    assert got.max_mode == M
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-12 * (1.0 + np.max(np.abs(f.values)))


def _mpmath_coeff(f: fn.PiecewiseLinearCircle, n: int) -> complex:
    """(1/2pi) int f e^{-in theta} over [nodes[0], nodes[0] + 2pi], segment by segment."""
    mpmath.mp.dps = 30
    total = mpmath.mpc(0)
    for a, b, va, vb in ref.segments(f):
        a, b = mpmath.mpf(float(a)), mpmath.mpf(float(b))
        s = (vb - va) / (b - a)
        pts = mpmath.linspace(a, b, 2 + n // 4)
        total += mpmath.quad(lambda th: (va + s * (th - a)) * mpmath.expj(-n * th), pts)
    return complex(total / (2 * mpmath.pi))


@pytest.mark.parametrize("f", [
    fn.gn_family(8),
    fn.PiecewiseLinearCircle(np.array([0.4, 2.0, 3.1, 5.5]), np.array([1.0, -0.5, 2.0, 0.25])),
], ids=["g8", "first-node-above-zero"])
@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_fourier_project_against_mpmath(f, n):
    c = ref.coeff(fn.fourier_project(f, 64), n)
    assert abs(c - _mpmath_coeff(f, n)) < 1e-14


@SETTINGS
@given(st.integers(0, 3), st.integers(0, 6), seeds)
def test_vanishing_order_of_products_with_one_minus_cos(k, Mp, seed):
    # 1 - cos and sin vanish at theta = 0 to orders 2 and 1, and p(0) != 0 to order 0
    p = random_circle(Mp, seed)
    assume(abs(p(0.0)) > 1e-3 * np.sum(np.abs(p.full())))
    one_minus_cos = fn.circle_from_real_modes(1.0, [-1.0])
    h, s = p, fn.circle_from_real_modes(0.0, [], [1.0])
    for _ in range(k):
        h = fn.pointwise_product(one_minus_cos, h, h.max_mode + 1)
        s = fn.pointwise_product(one_minus_cos, s, s.max_mode + 1)
    assert fn.vanishing_order(h) == 2 * k
    assert fn.vanishing_order(s) == 2 * k + 1


@pytest.mark.parametrize("M", [0, 1, 4])
def test_vanishing_order_of_zero_exceeds_every_other(M):
    assert fn.vanishing_order(fn.CircleFourier(np.zeros(M + 1))) == 2 * M + 1


def _sympy_order(h: fn.CircleFourier) -> int:
    """The least n with d^n h / dtheta^n != 0 at theta = 0, in exact arithmetic."""
    th = sympy.symbols("theta", real=True)
    expr = sum((sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag))
               * sympy.exp(sympy.I * n * th)
               for n, c in zip(range(-h.max_mode, h.max_mode + 1), h.full()))
    n = 0
    while sympy.simplify(expr.subs(th, 0)) == 0:
        expr, n = sympy.diff(expr, th), n + 1
    return n


def test_vanishing_order_of_default_fields_against_sympy():
    F, G = cli._default_vector_fields()
    assert [_sympy_order(F), _sympy_order(G)] == [4, 5]
    assert [fn.vanishing_order(F), fn.vanishing_order(G)] == [4, 5]


complex_coeffs = st.lists(st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                             allow_infinity=False), min_size=1, max_size=9)


@SETTINGS
@given(complex_coeffs, seeds)
def test_any_coefficients_give_a_real_function(c, seed):
    # c is read as c_0 .. c_M: c_0 loses its imaginary part and c_{-n} = conj c_n
    h = fn.CircleFourier(np.array(c))
    M = len(c) - 1
    herm = np.concatenate([np.conj(c[:0:-1]), [c[0].real], c[1:]])
    assert np.array_equal(h.full(), herm)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-20.0, 20.0, 16)
    tol = 1e-12 * (1.0 + np.sum(np.abs(herm)))
    vals = h(theta)
    assert vals.dtype == np.float64 and isinstance(h(float(theta[0])), float)
    assert np.max(np.abs(vals - np.exp(1j * np.outer(theta, np.arange(-M, M + 1))) @ herm)) < tol
    assert abs(fn.sigma(h, h)) <= 1e-12 * (1.0 + np.sum(np.arange(M + 1) * np.abs(h.coeffs) ** 2))
    # J(h) is Hermitian on the truncated space: <u, J(h) v> = <J(h) u, v>
    N = 8
    u, v = rng.standard_normal((2, len(fock.basis(N).norm_sq), 2)).view(complex)[..., 0]
    J = fock.smear(fock.mode_triples, h, N)
    lhs = fock.inner(u, fock.apply(J, v), N)
    rhs = fock.inner(fock.apply(J, u), v, N)
    bound = 1e-12 * N * (1.0 + np.sum(np.abs(herm))) * fock.norm(u, N) * fock.norm(v, N)
    assert abs(lhs - rhs) <= bound
