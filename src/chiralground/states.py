"""States as explicit functionals on finite Weyl words.

A Weyl word W(f_1) ... W(f_k) is the tuple (f_1, ..., f_k) of the circle
representatives of its real test functions, each read as a scalar function
on the line (see fnspace).

Every value is a closed form in the one-particle form

    B(f, g) = sum_{k>=1} k conj(c_k(f)) c_k(g),

whose diagonal is the Sobolev-1/2 seminorm (the vacuum is the Gaussian
omega_0(W(f)) = exp(-B(f, f)/2)) and whose imaginary part is the Weyl cocycle,
W(f) W(g) = exp(i Im B(f, g)) W(f + g).  The charge-q ground state
omega_q(W(f)) = exp(i q int f dt) omega_0(W(f)) therefore takes the word to

    exp(i q sum_j int f_j dt - sum_j B_jj / 2 - sum_{j<l} B_lj),  B_jl = B(f_j, f_l).

No GNS vectors are materialized and no word is reduced factor by factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fnspace import (CircleFourier, PiecewiseLinearCircle, dilate_line, fourier_project,
                      g_limit, gn_family, line_integral, sobolev_half_sq, translate_line)


class DivergenceError(ValueError):
    """A quantity needs the line integral of a function that does not vanish at infinity."""


@dataclass(frozen=True)
class GroundWeylResult:
    value: complex
    divergent: bool


@dataclass(frozen=True)
class OnePointResult:
    closed_form: float
    finite_difference: float


def as_fourier(f, M: int) -> CircleFourier:
    """The representative f on M modes, projected exactly if piecewise-linear."""
    if isinstance(f, PiecewiseLinearCircle):
        return fourier_project(f, M)
    return f.pad(M)


def one_particle_form(fs, M: int = 64) -> np.ndarray:
    """B_jl = sum_{k>=1} k conj(c_k(f_j)) c_k(f_l) for the representatives fs on M modes."""
    C = np.array([as_fourier(f, M).coeffs[1:] for f in fs]).reshape(len(fs), M)
    return C.conj() @ (np.arange(1, M + 1) * C).T


def ground_weyl(q: float, w: tuple, M: int = 64) -> GroundWeylResult:
    """Value of the charge-q ground functional on a Weyl word.

    The charge phase integrates each factor in its original representation
    (so divergence of a piecewise-linear factor is detected before any
    band-limited projection smooths it away); the form B uses the projections.
    """
    lis = [line_integral(f) for f in w]
    B = one_particle_form(w, M)
    exponent = (1j * q * sum(li.value for li in lis) - 0.5 * np.trace(B).real
                - np.tril(B, -1).sum())
    return GroundWeylResult(cmath.exp(exponent), any(li.divergent for li in lis))


def ground_current_onepoint(q: float, f, M: int = 64) -> OnePointResult:
    """One-point value of the current in the charge-q state: q * int f dt.

    Also returns the central finite difference, with step 1e-4, of the
    generating functional, (1/i) d/ds ground value of W(s f) at s = 0, which
    must agree.
    """
    li = line_integral(f)
    if li.divergent:
        raise DivergenceError("current one-point value diverges")
    closed = q * li.value

    def gw(s):
        return ground_weyl(q, (f.scale(s),), M).value

    fd = (gw(1e-4) - gw(-1e-4)) / (2.0 * 1e-4 * 1j)
    return OnePointResult(float(closed), float(fd.real))


def ground_stress_onepoint(q: float, f) -> float:
    """One-point value of the perturbed stress tensor on the scalar line density f:
    (q^2 / 2) int f dt.

    Independent of kappa and of the sign of q.  A vector field F of
    representative h has the density F(t) of representative h / (1 - cos theta).
    """
    li = line_integral(f)
    if li.divergent:
        raise DivergenceError("stress one-point value diverges")
    return 0.5 * q**2 * li.value


def gram_psd(q: float, fs, M: int = 64) -> float:
    """Smallest eigenvalue of the Gram matrix G_jl = omega_q(W(f_j)* W(f_l)), which is
    conj(d_j) d_l exp(B_lj) with d_l = exp(i q int f_l dt - B_ll / 2)."""
    lis = [line_integral(f) for f in fs]
    if any(li.divergent for li in lis):
        raise DivergenceError("divergent entry in Gram matrix")
    B = one_particle_form(fs, M)
    d = np.exp(1j * q * np.array([li.value for li in lis]) - 0.5 * B.diagonal().real)
    return float(np.linalg.eigvalsh(np.outer(d.conj(), d) * np.exp(B.T))[0])


@dataclass(frozen=True)
class CovarianceResult:
    residual: float
    budget: float  # a bound on residual, see _covariance_residual
    projection_error: float  # of the resampled side


def _covariance_residual(q: float, lam: float, f, image: tuple, M: int) -> CovarianceResult:
    """|omega_q(W(g)) - omega_{lam q}(W(f))| for the resampled image = (g, projection error).

    The budget |q| |int g - lam int f| + |norm^2 g - norm^2 f| / 2, norms on M modes,
    bounds it: |e^{ia - x} - e^{ib - y}| <= |a - b| + |x - y| for x, y >= 0.  Raises
    DivergenceError when the charge phase of either side diverges.
    """
    g, projection_error = image
    lhs = ground_weyl(q, (g,), M)
    rhs = ground_weyl(lam * q, (f,), M)
    if lhs.divergent or rhs.divergent:
        raise DivergenceError("covariance residual diverges")
    budget = (abs(q) * abs(line_integral(g).value - lam * line_integral(f).value)
              + abs(sobolev_half_sq(g) - sobolev_half_sq(as_fourier(f, M))) / 2.0)
    return CovarianceResult(abs(lhs.value - rhs.value), budget, projection_error)


def dilation_orbit_residual(q: float, s: float, f, M: int = 64) -> CovarianceResult:
    """|omega_q(W(f dilated by s)) - omega_{e^s q}(W(f))|, the dilation orbit of the
    ground-state family, f resampled to M modes here; lam = e^s in the budget."""
    return _covariance_residual(q, math.exp(s), f, dilate_line(f, s, M), M)


def translation_invariance_residual(q: float, f, t: float, M: int = 64) -> CovarianceResult:
    """|omega_q(W(f translated by t)) - omega_q(W(f))|, f resampled to M modes here;
    lam = 1 in the budget."""
    return _covariance_residual(q, 1.0, f, translate_line(f, t, M), M)


@dataclass(frozen=True)
class NonNormalityRow:
    n: int
    q_n: float
    d_n: float
    converged: bool


def nonnormality_series(q: float, ns, M: int = 2048) -> list:
    """The divergent-phase / convergent-orbit table of the tent sequence.

    q_n = q * int g_n dt diverges logarithmically while the Sobolev-1/2
    distance d_n of g_n to its limit goes to zero.
    """
    glim = fourier_project(g_limit(), M)
    rows = []
    for n in ns:
        gn = gn_family(n)
        li = line_integral(gn)
        d = sobolev_half_sq(fourier_project(gn, M) - glim)
        rows.append(NonNormalityRow(int(n), q * li.value, d, not li.divergent))
    return rows
