"""The FFT, Horner and slope-jump Fourier kernels of chiralground.fnspace
against the dense kernels in fnspace_reference.py, on random band-limited
functions with up to 128 modes, grids of any size the resampling allows
(odd and prime ones included) and random piecewise-linear functions; and
fourier_project against mpmath quadrature."""

import math

import fnspace_reference as ref
import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chiralground import fnspace as fn

SETTINGS = settings(max_examples=100, deadline=None)
TWO_PI = 2 * math.pi
PRIMES = [17, 101, 257, 521, 1031, 2053]
seeds = st.integers(0, 2**32 - 1)


def random_circle(M: int, seed: int, real: bool) -> fn.CircleFourier:
    rng = np.random.default_rng(seed)
    if real:
        return fn.random_real_circle(M, rng, float(rng.uniform(0.1, 10.0)))
    return fn.CircleFourier(rng.standard_normal(2 * M + 1) + 1j * rng.standard_normal(2 * M + 1),
                            is_real=False)


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
@given(st.integers(0, 128), seeds, st.booleans())
def test_call_matches_dense_sum(M, seed, real):
    h = random_circle(M, seed, real)
    theta = np.random.default_rng(seed + 1).uniform(-20.0, 20.0, 64)
    tol = 1e-12 * (1.0 + np.sum(np.abs(h.coeffs)))
    assert np.max(np.abs(h(theta) - ref.dense_eval(h, theta))) < tol
    assert abs(h(float(theta[0])) - ref.dense_eval(h, theta[0])) < tol


@SETTINGS
@given(grids(), seeds)
def test_project_samples_matches_dense_sum(grid, seed):
    K, M = grid
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(K) * rng.uniform(0.1, 10.0)
    out, resid = fn._project_samples(values, M)
    want, want_resid = ref.dense_project_samples(fn._shifted_grid(K), values, M)
    tol = 1e-12 * np.max(np.abs(values))
    assert out.is_real and out.max_mode == M
    assert np.max(np.abs(out.coeffs - want.coeffs)) < tol
    assert np.array_equal(out.coeffs, np.conj(out.coeffs[::-1]))
    assert resid == pytest.approx(want_resid, abs=tol)


@SETTINGS
@given(st.one_of(st.integers(3, 600), st.sampled_from(PRIMES)), seeds, st.booleans())
def test_grid_values_match_dense_sum(K, seed, real):
    M = np.random.default_rng(seed).integers(0, min(128, (K - 1) // 2) + 1)
    h = random_circle(int(M), seed, real)
    th = fn._shifted_grid(K)
    tol = 1e-12 * (1.0 + np.sum(np.abs(h.coeffs)))
    assert np.max(np.abs(fn._on_grid(h, K) - ref.dense_eval(h, th))) < tol


@pytest.mark.parametrize("K", [16, 17])
def test_grid_refuses_aliased_modes(K):
    fn._on_grid(random_circle((K - 1) // 2, 0, True), K)
    with pytest.raises(ValueError, match="alias"):
        fn._on_grid(random_circle(K // 2 + K % 2, 0, True), K)


def test_multiply_by_t_refuses_aliased_modes(monkeypatch):
    # M = 1 and 16 nodes give a 16-point grid: modes up to 7 are resolved, 8 alias
    monkeypatch.setattr(fn, "GRID_NODES", 16)
    h = fn.circle_from_real_modes(-1.0, [1.0] + [0.0] * 6)
    fn.multiply_by_t(h, 1)
    wide = fn.circle_from_real_modes(-1.0, [1.0] + [0.0] * 6 + [1e-3])
    assert wide.max_mode == 8
    with pytest.raises(ValueError, match="alias"):
        fn.multiply_by_t(wide, 1)


@SETTINGS
@given(st.integers(1, 24), seeds, st.sampled_from([2048, 2053, 4099]))
def test_multiply_by_t_matches_dense_kernels(Mh, seed, nodes):
    h = random_circle(Mh, seed, True)
    h = h - fn.circle_from_real_modes(h(0.0))  # vanish at theta = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fn, "GRID_NODES", nodes)
        out, resid = fn.multiply_by_t(h, None)
    M = 2 * Mh + 2
    th = fn._shifted_grid(max(4 * M + 4, nodes))
    want, want_resid = ref.dense_project_samples(
        th, -np.cos(th / 2) / np.sin(th / 2) * ref.dense_eval(h, th), M)
    scale = np.sum(np.abs(h.coeffs))
    assert np.max(np.abs(out.coeffs - want.coeffs)) < 1e-10 * scale
    assert resid == pytest.approx(want_resid, abs=1e-10 * scale)


@SETTINGS
@given(piecewise_linear(), st.integers(1, 256))
def test_fourier_project_matches_segment_integrals(f, M):
    got, want = fn.fourier_project(f, M), ref.segment_fourier_project(f, M)
    assert got.is_real and got.max_mode == M
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-12 * (1.0 + np.max(np.abs(f.values)))
    assert np.array_equal(got.coeffs, np.conj(got.coeffs[::-1]))


def _mpmath_coeff(f: fn.PiecewiseLinearCircle, n: int) -> complex:
    """(1/2pi) int f e^{-in theta} over [nodes[0], nodes[0] + 2pi], segment by segment."""
    mpmath.mp.dps = 30
    total = mpmath.mpc(0)
    for a, b, va, vb in f.segments():
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
    c = fn.fourier_project(f, 64).coeff(n)
    assert abs(c - _mpmath_coeff(f, n)) < 1e-14
