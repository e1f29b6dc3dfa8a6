"""The level-block Fock layer against the dict reference in fock_reference.py,
on random sparse vectors at cutoffs N <= 10 and modes n in [-12, 12], which
covers every n in [-N - 2, N + 2]."""

import math
import os
import subprocess
import sys
from pathlib import Path

import fock_reference as ref
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


@pytest.mark.parametrize("size", [0.5, 3.0])
@pytest.mark.parametrize("N", [8, 10])
def test_exp_current_matches_dense_expm(N, size):
    g, _ = _sized_pair(38, size)
    bound = sum(abs(g.coeff(n)) * np.max(fock.mode_gather(n, N)[2]) for n in (-2, -1, 1, 2))
    assert (bound > 2 * fock.EXP_STEP_NORM) == (size == 3.0)  # several scaling steps at size 3
    rng = np.random.default_rng(39)
    dim = len(fock.basis_partitions(N))
    X = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
    X /= np.linalg.norm(X, axis=0)
    W = expm(1j * ref.operator_matrix(lambda v: fock.apply_current(g, v), N))
    for t, dense in ((1.0, W), (-1.0, W.conj().T)):
        assert np.max(np.abs(fock.exp_current(g, t, X, N) - dense @ X)) < 1e-12


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
