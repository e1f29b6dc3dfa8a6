"""States as explicit functionals on finite Weyl words.

A Weyl word W(f_1) ... W(f_k) is the tuple (f_1, ..., f_k) of the circle
representatives of its real test functions, each read as a scalar function
on the line (see fnspace).

The vacuum functional on a Weyl generator is the Gaussian
exp(-sobolev_half_sq/2); the charge-density family multiplies each
generator by the unimodular phase exp(i q int f dt).  No GNS vectors are
materialized: every quantity below is a finite formula in circle Fourier
data and line integrals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .fnspace import (SIGMA_NORM, CircleFourier, PiecewiseLinearCircle, dilate_line,
                      fourier_project, g_limit, gn_family, line_integral, sigma, sobolev_half_sq,
                      translate_line)


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


def weyl_reduce(w: tuple, M: int = 64) -> tuple[complex, CircleFourier]:
    """Left-to-right Weyl reduction: accumulated phase and summed generator.

    The phase cocycle uses the Fock-normalized symplectic form
    sigma / SIGMA_NORM, the one under which W(f) W(g) = phase * W(f+g) holds
    for the exponentials of the smeared current.
    """
    acc = CircleFourier(np.zeros(M + 1))
    phase = 1.0 + 0.0j
    for f in w:
        cf = as_fourier(f, M)
        phase *= cmath.exp(-0.5j * sigma(acc, cf) / SIGMA_NORM)
        acc = acc + cf
    return phase, acc


def vacuum_weyl(f, M: int = 64) -> float:
    """Vacuum value of a Weyl generator: exp(-norm^2/2) with the Sobolev-1/2 norm."""
    return math.exp(-0.5 * sobolev_half_sq(as_fourier(f, M)))


def ground_weyl(q: float, w: tuple, M: int = 64) -> GroundWeylResult:
    """Value of the charge-q ground functional on a Weyl word.

    The charge phase integrates each factor in its original representation
    (so divergence of a piecewise-linear factor is detected before any
    band-limited projection smooths it away); the cocycle phase and the
    Gaussian factor use the projected sum.
    """
    phase, total = weyl_reduce(w, M)
    integral = 0.0
    divergent = False
    for f in w:
        li = line_integral(f)
        integral += li.value
        divergent = divergent or li.divergent
    value = phase * cmath.exp(1j * q * integral) * vacuum_weyl(total, M)
    return GroundWeylResult(complex(value), bool(divergent))


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
    """Smallest eigenvalue of the Gram matrix G_jk = omega_q(W(f_j)* W(f_k))."""
    k = len(fs)
    G = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            r = ground_weyl(q, (fs[i].scale(-1.0), fs[j]), M)
            if r.divergent:
                raise DivergenceError("divergent entry in Gram matrix")
            G[i, j] = r.value
    G = (G + G.conj().T) / 2.0
    return float(np.linalg.eigvalsh(G)[0])


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
