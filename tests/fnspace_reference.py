"""Reference Fourier kernels for the oracle tests: the dense e^{i n theta}
matrices and the per-segment integrals that chiralground.fnspace replaced by
FFTs on the half-shifted grid, Horner evaluation and slope jumps.
"""

import numpy as np

from chiralground import fnspace as fn


def dense_eval(h: fn.CircleFourier, theta) -> np.ndarray:
    """sum_n c_n e^{i n theta} through the (points x modes) exponential matrix."""
    th = np.asarray(theta, dtype=float)
    ns = np.arange(-h.max_mode, h.max_mode + 1)
    vals = (np.exp(1j * np.outer(th.ravel(), ns)) @ h.coeffs).reshape(th.shape)
    return vals.real if h.is_real else vals


def dense_project_samples(theta, values, M: int) -> tuple[fn.CircleFourier, float]:
    """(1/K) sum_j v_j e^{-i n theta_j} through the (modes x samples) matrix,
    symmetrized, with the rms mismatch of its dense reconstruction."""
    K = theta.size
    ns = np.arange(-M, M + 1)
    coeffs = np.exp(-1j * np.outer(ns, theta)) @ values / K
    coeffs = (coeffs + np.conj(coeffs[::-1])) / 2.0
    out = fn.CircleFourier(coeffs, is_real=True)
    resid = float(np.sqrt(np.mean(np.abs(dense_eval(out, theta) - values) ** 2)))
    return out, resid


def segment_fourier_project(f: fn.PiecewiseLinearCircle, M: int) -> fn.CircleFourier:
    """Fourier coefficients as the sum over segments of the closed-form integral
    of a linear function against e^{-i n theta}."""
    ns = np.arange(-M, M + 1)
    nz = ns != 0
    n = ns[nz].astype(float)
    coeffs = np.zeros(2 * M + 1, dtype=complex)
    for a, b, va, vb in f.segments():
        s = (vb - va) / (b - a)
        coeffs[M] += (va + vb) * (b - a) / 2.0
        ea = np.exp(-1j * n * a)
        eb = np.exp(-1j * n * b)
        inn = 1j * n
        i0 = (ea - eb) / inn
        i1 = -(b - a) * eb / inn + i0 / inn
        coeffs[nz] += va * i0 + s * i1
    coeffs /= fn.TWO_PI
    coeffs = (coeffs + np.conj(coeffs[::-1])) / 2.0
    return fn.CircleFourier(coeffs, is_real=True)
