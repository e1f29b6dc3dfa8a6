"""The level-block Fock layer against the dict reference in fock_reference.py,
on random sparse vectors at cutoffs N <= 10 and modes n in [-12, 12], which
covers every n in [-N - 2, N + 2]."""

import math
import os
import subprocess
import sys
from pathlib import Path

import fock_reference as ref
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import chiralground
from chiralground import fnspace as fn
from chiralground import fock, sugawara

SETTINGS = settings(max_examples=200, deadline=None)
amplitude = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False,
                               allow_infinity=False)
safe_level = st.one_of(st.just(math.inf), st.integers(-3, 13).map(float))


@st.composite
def vectors(draw, N=None):
    """A (reference, array) pair holding the same sparse vector."""
    N = draw(st.integers(0, 10)) if N is None else N
    basis = fock.basis_partitions(N)
    picked = draw(st.lists(st.sampled_from(basis), max_size=6, unique=True))
    amps = {p: draw(amplitude) for p in picked}
    s = draw(safe_level)
    return ref.DictVector(N, amps, s), fock.FockVector.from_amps(N, amps, s)


def same(d: ref.DictVector, v: fock.FockVector):
    assert v.safe_level == d.safe_level
    assert set(v.amps) == set(d.amps)
    for p, a in d.amps.items():
        assert v.amps[p] == pytest.approx(a, rel=1e-12, abs=1e-12)


@SETTINGS
@given(vectors(), st.integers(-12, 12))
def test_apply_mode(pair, n):
    d, v = pair
    same(ref.apply_mode(n, d), fock.apply_mode(n, v))


@SETTINGS
@given(vectors(), st.integers(-12, 12), st.integers(-12, 12))
def test_creation_then_annihilation(pair, m, n):
    d, v = pair
    same(ref.apply_mode(m, ref.apply_mode(n, d)), fock.apply_mode(m, fock.apply_mode(n, v)))


@SETTINGS
@given(vectors(), st.integers(-12, 12))
def test_virasoro_pair_sum(pair, n):
    d, v = pair
    same(ref.apply_virasoro_mode(n, d), sugawara.apply_virasoro_mode(n, v))


def test_virasoro_block_matches_pair_sum():
    for n in range(-6, 7):
        for level in range(17):
            assert np.array_equal(sugawara.virasoro_block(n, level), ref.virasoro_block(n, level))


@SETTINGS
@given(st.integers(0, 10).flatmap(lambda N: st.tuples(vectors(N), vectors(N))))
def test_add_and_inner(pairs):
    (du, u), (dv, v) = pairs
    same(ref.vec_add(du, dv), fock.vec_add(u, v))
    assert fock.inner(u, v) == pytest.approx(ref.inner(du, dv), rel=1e-12, abs=1e-12)


def _weyl_dense(g, f, N):
    """The dense formula: ||(W T(f) W* - T(f) - J(f g') - sigma) P|| with W = expm(i J(g))."""
    Jg = ref.dense_matrix(lambda v: ref.smeared(ref.apply_mode, g, v), N)
    Tf = ref.dense_matrix(lambda v: ref.smeared(ref.apply_virasoro_mode, f, v), N)
    fgp = fn.pointwise_product(f, fn.derivative(g), f.max_mode + g.max_mode)
    Jfgp = ref.dense_matrix(lambda v: ref.smeared(ref.apply_mode, fgp, v), N)
    W = expm(1j * Jg)
    scalar = fn.sigma(fgp, g) / (2.0 * fn.SIGMA_NORM)
    A = W @ Tf @ W.conj().T - Tf - Jfgp - scalar * np.eye(len(Tf))
    return np.linalg.norm(A[:, : len(ref.partitions_upto(N // 2))], ord=2)


@pytest.mark.parametrize("N", [6, 8, 10])
def test_weyl_adjoint_matches_dense_expm(N):
    rng = np.random.default_rng(36)
    g, f = (h.scale(0.5 / math.sqrt(fn.sobolev_half_sq(h)))
            for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(_weyl_dense(g, f, N), rel=1e-10)


def _sized_pair(seed, size):
    """Seeded real (g, f), each scaled to Sobolev-1/2 norm ``size``."""
    rng = np.random.default_rng(seed)
    return tuple(h.scale(size / math.sqrt(fn.sobolev_half_sq(h)))
                 for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("N", [12, 14, 16])
def test_weyl_adjoint_matches_eigh_formula(N, seed):
    g, f = _sized_pair(seed, 0.5)
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(ref.weyl_residual_eigh(g, f, N), rel=1e-10)


def _series_argument(g, N):
    """z = t b at t = 1: b is the largest row sum of J(g) in its real gauge."""
    _, _, W = fock._real_gauge(g, N)
    return np.max(W.sum(axis=1))


@pytest.mark.parametrize("size", [0.5, 3.0, 6.0])
@pytest.mark.parametrize("N", [8, 10])
def test_exp_current_matches_dense_expm(N, size):
    g, _ = _sized_pair(38, size)
    # beyond |z| = 10 the coefficients i^k J_k(z) oscillate in sign and size up to k ~ |z|
    assert (_series_argument(g, N) > 10) == (size > 1)
    rng = np.random.default_rng(39)
    dim = len(fock.basis_partitions(N))
    X = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
    X /= np.linalg.norm(X, axis=0)
    W = expm(1j * ref.operator_matrix(lambda v: fock.apply_current(g, v), N))
    for t, dense in ((1.0, W), (-1.0, W.conj().T)):
        assert np.max(np.abs(fock.exp_current(g, t, X, N) - dense @ X)) < 1e-12


def test_real_gauge_makes_the_current_real_symmetric():
    g, _ = _sized_pair(44, 1.0)
    N = 8
    phase, S, W = fock._real_gauge(g, N)
    A = np.zeros((len(phase), len(phase)))
    np.add.at(A, (np.arange(len(phase))[:, None], S), W)
    J = ref.operator_matrix(lambda v: fock.apply_current(g, v), N)
    assert np.max(np.abs(phase.conj()[:, None] * J * phase - A)) < 1e-13
    assert np.max(np.abs(A - A.T)) < 1e-14


@pytest.mark.parametrize("z", [0.0, 1e-3, 0.1, 0.6, 1.0, 3.2, -5.2, 10.0, 20.0, 40.0, 60.0])
def test_tail_degree_bounds_the_bessel_tail(z):
    K = fock._tail_degree(z)
    # past k = K + 60 the bound (|z|/2)^k / k! is below 1e-57 on this grid
    tail = 2 * sum(abs(mpmath.besselj(k, z)) for k in range(K + 1, K + 61))
    assert tail <= 2.0**-53
    # K is the least degree the bound 2 sum_{k>K} (|z|/2)^k / k! admits
    h = mpmath.mpf(abs(z)) / 2
    if K:
        assert 2 * sum(h**k / mpmath.factorial(k) for k in range(K, K + 200)) > 2.0**-53
    if z in (3.2, -5.2):
        assert K == {3.2: 21, -5.2: 26}[z]


def test_exp_current_refuses_a_non_real_generator():
    g = fn.CircleFourier(np.array([0.0, 0.0, 1.0]), is_real=False)  # J(g) = J_1
    with pytest.raises(ValueError, match="Hermitian"):
        fock.exp_current(g, 1.0, np.eye(len(fock.basis_partitions(6)), 3), 6)


def test_exp_current_round_trip():
    g, _ = _sized_pair(40, 3.0)
    N = 12
    X = np.random.default_rng(41).standard_normal((len(fock.basis_partitions(N)), 4))
    back = fock.exp_current(g, 1.0, fock.exp_current(g, -1.0, X, N), N)
    assert np.max(np.abs(back - X)) < 1e-12 * np.max(np.abs(X))


def test_exp_current_refuses_an_unconverged_series():
    g, _ = _sized_pair(42, 0.5)
    X = np.full((len(fock.basis_partitions(6)), 1), np.nan)
    with pytest.raises(ArithmeticError, match="did not converge"):
        fock.exp_current(g, 1.0, X, 6)


def test_weyl_adjoint_needs_no_eigendecomposition(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    g, f = _sized_pair(1, 0.5)
    assert 0.0 < sugawara.weyl_adjoint_stress_residual(g, f, 12) < 1.0


def test_weyl_adjoint_rejects_skew_generator_at_threshold():
    g, f = _sized_pair(43, 0.5)
    coeffs = g.coeffs.copy()
    coeffs[g.max_mode - 1] += 1e-6  # c_{-1}
    with pytest.raises(ValueError, match="Hermitian"):
        sugawara.weyl_adjoint_stress_residual(fn.CircleFourier(coeffs, is_real=False), f, 6)


def test_weyl_adjoint_rejects_complex_generator():
    g = fn.CircleFourier(np.array([0.0, 0.0, 1.0]), is_real=False)  # J(g) = J_1
    f = fn.random_real_circle(2, np.random.default_rng(37))
    with pytest.raises(ValueError, match="Hermitian"):
        sugawara.weyl_adjoint_stress_residual(g, f, 6)


def test_cli_import_leaves_scipy_out():
    code = "import sys, chiralground.cli; print('scipy' in sys.modules)"
    src = str(Path(chiralground.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
