"""Reference Fourier kernels for the oracle tests: the dense e^{i n theta}
matrices and the per-segment integrals that chiralground.fnspace replaced by
FFTs on the half-shifted grid, Horner evaluation and slope jumps, and the
sampled projection of t h that it replaced by an exact division.  Each sums
over the two-sided spectrum c_{-M} .. c_M of CircleFourier.full.  Also the
segments of a piecewise-linear function, the scalar Cayley map, the JSON
reader of circle functions and the coefficient c_n of any n, which only the
tests use.
"""

import math

import numpy as np

from chiralground import fnspace as fn


def coeff(h: fn.CircleFourier, n: int) -> complex:
    """c_n of h for any integer n: c_{-n} = conj c_n, and 0 past its top mode."""
    if abs(n) > h.max_mode:
        return 0.0 + 0.0j
    c = complex(h.coeffs[abs(n)])
    return c.conjugate() if n < 0 else c


def dense_eval(h: fn.CircleFourier, theta) -> np.ndarray:
    """sum_{|n| <= M} c_n e^{i n theta} through the (points x modes) exponential matrix,
    complex: its imaginary part is the rounding of a real sum."""
    th = np.asarray(theta, dtype=float)
    ns = np.arange(-h.max_mode, h.max_mode + 1)
    return (np.exp(1j * np.outer(th.ravel(), ns)) @ h.full()).reshape(th.shape)


def dense_project_samples(theta, values, M: int) -> tuple[fn.CircleFourier, float]:
    """(1/K) sum_j v_j e^{-i n theta_j}, 0 <= n <= M, through the (modes x samples)
    matrix, with the rms mismatch of its dense reconstruction."""
    K = theta.size
    out = fn.CircleFourier(np.exp(-1j * np.outer(np.arange(M + 1), theta)) @ values / K)
    resid = float(np.sqrt(np.mean(np.abs(dense_eval(out, theta) - values) ** 2)))
    return out, resid


def sampled_multiply_by_t(h: fn.CircleFourier) -> tuple[fn.CircleFourier, float]:
    """t(theta) h(theta) sampled on the half-shifted resampling grid of
    2 max_mode + 2 modes and projected onto those modes by the dense matrix,
    with the rms mismatch of the projection."""
    M = 2 * h.max_mode + 2
    th, t = fn._line_grid(M)
    return dense_project_samples(th, t * dense_eval(h, th), M)


def segments(f: fn.PiecewiseLinearCircle):
    """Yield (a, b, va, vb) with a < b; the wrap segment has b > 2pi - eps."""
    th, v = f.nodes, f.values
    for i in range(th.size - 1):
        yield th[i], th[i + 1], v[i], v[i + 1]
    yield th[-1], th[0] + fn.TWO_PI, v[-1], v[0]


def segment_fourier_project(f: fn.PiecewiseLinearCircle, M: int) -> fn.CircleFourier:
    """Fourier coefficients as the sum over segments of the closed-form integral
    of a linear function against e^{-i n theta}."""
    n = np.arange(1, M + 1, dtype=float)
    coeffs = np.zeros(M + 1, dtype=complex)
    for a, b, va, vb in segments(f):
        s = (vb - va) / (b - a)
        coeffs[0] += (va + vb) * (b - a) / 2.0
        ea = np.exp(-1j * n * a)
        eb = np.exp(-1j * n * b)
        inn = 1j * n
        i0 = (ea - eb) / inn
        i1 = -(b - a) * eb / inn + i0 / inn
        coeffs[1:] += va * i0 + s * i1
    return fn.CircleFourier(coeffs / fn.TWO_PI)


def cayley_t_of_theta(theta: float) -> float:
    """The unique t with -(t-i)/(t+i) = -e^{i theta}; t(theta) = -cot(theta/2).

    theta = 0 (the wrap point) maps to the point at infinity and returns inf.
    """
    if not 0.0 <= theta < fn.TWO_PI:
        raise ValueError("theta must lie in [0, 2pi)")
    if theta == 0.0:
        return math.inf
    return -math.cos(theta / 2.0) / math.sin(theta / 2.0)


def circle_from_json(obj: dict) -> fn.CircleFourier:
    """Inverse of fnspace.circle_to_json."""
    c = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    if c.size != int(obj["M"]) + 1:
        raise ValueError("inconsistent serialized mode count")
    return fn.CircleFourier(c)
