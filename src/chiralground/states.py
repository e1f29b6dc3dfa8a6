"""States as explicit functionals on finite Weyl words.

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

from .fnspace import (
    SIGMA_NORM,
    CircleFourier,
    LineObject,
    PiecewiseLinearCircle,
    Weight,
    dilate_line,
    fourier_project,
    gn_family,
    g_limit,
    line_integral,
    sigma,
    sobolev_half_sq,
    translate_line,
)


class DivergenceError(ValueError):
    """A quantity needs the line integral of a function that does not vanish at infinity."""


@dataclass(frozen=True)
class GroundStateParams:
    q: float
    kappa: float = 0.0


@dataclass(frozen=True)
class WeylWord:
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.weight is not Weight.FUNCTION:
                raise ValueError("Weyl factors must be scalar functions")


@dataclass(frozen=True)
class GroundWeylResult:
    value: complex
    divergent: bool


@dataclass(frozen=True)
class OnePointResult:
    closed_form: float
    finite_difference: float


def as_fourier(f: LineObject, M: int) -> CircleFourier:
    """The circle representative of f on M modes, projected exactly if piecewise-linear."""
    r = f.circle_repr
    if isinstance(r, PiecewiseLinearCircle):
        return fourier_project(r, M)
    return r.pad(M)


def weyl_reduce(w: WeylWord, M: int = 64) -> tuple[complex, LineObject]:
    """Left-to-right Weyl reduction: accumulated phase and summed generator.

    The phase cocycle uses the Fock-normalized symplectic form
    sigma / SIGMA_NORM, the one under which W(f) W(g) = phase * W(f+g) holds
    for the exponentials of the smeared current.
    """
    acc = CircleFourier(np.zeros(2 * M + 1, dtype=complex))
    phase = 1.0 + 0.0j
    for f in w.factors:
        cf = as_fourier(f, M)
        phase *= cmath.exp(-0.5j * sigma(acc, cf) / SIGMA_NORM)
        acc = acc + cf
    return phase, LineObject(acc, Weight.FUNCTION)


def vacuum_weyl(f: LineObject, M: int = 64) -> float:
    """Vacuum value of a Weyl generator: exp(-norm^2/2) with the Sobolev-1/2 norm."""
    return math.exp(-0.5 * sobolev_half_sq(as_fourier(f, M)))


def ground_weyl(p: GroundStateParams, w: WeylWord, M: int = 64) -> GroundWeylResult:
    """Value of the charge-q ground functional on a Weyl word.

    The charge phase integrates each factor in its original representation
    (so divergence of a piecewise-linear factor is detected before any
    band-limited projection smooths it away); the cocycle phase and the
    Gaussian factor use the projected sum.
    """
    phase, total = weyl_reduce(w, M)
    integral = 0.0
    divergent = False
    for f in w.factors:
        li = line_integral(f)
        integral += li.value
        divergent = divergent or li.divergent
    value = phase * cmath.exp(1j * p.q * integral) * vacuum_weyl(total, M)
    return GroundWeylResult(complex(value), bool(divergent))


def ground_current_onepoint(
    p: GroundStateParams,
    f: LineObject,
    M: int = 64,
    fd_step: float = 1e-4,
) -> OnePointResult:
    """One-point value of the current in the charge-q state: q * int f dt.

    Also returns the central finite difference of the generating functional,
    (1/i) d/ds ground value of W(s f) at s = 0, which must agree.
    """
    li = line_integral(f)
    if li.divergent:
        raise DivergenceError("current one-point value diverges")
    closed = p.q * li.value

    def gw(s):
        word = WeylWord((f.scale(s),))
        return ground_weyl(p, word, M).value

    fd = (gw(fd_step) - gw(-fd_step)) / (2.0 * fd_step * 1j)
    return OnePointResult(float(closed), float(fd.real))


def ground_stress_onepoint(p: GroundStateParams, F: LineObject) -> float:
    """One-point value of the perturbed stress tensor: (q^2 / 2) int F dt.

    Independent of kappa and of the sign of q.
    """
    scalar = LineObject(F.circle_repr, Weight.FUNCTION, F.vanishing_order)
    li = line_integral(scalar)
    if li.divergent:
        raise DivergenceError("stress one-point value diverges")
    return 0.5 * p.q**2 * li.value


def gram_psd(p: GroundStateParams, fs, M: int = 64) -> float:
    """Smallest eigenvalue of the Gram matrix G_jk = omega_q(W(f_j)* W(f_k))."""
    k = len(fs)
    G = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            word = WeylWord((fs[i].scale(-1.0), fs[j]))
            r = ground_weyl(p, word, M)
            if r.divergent:
                raise DivergenceError("divergent entry in Gram matrix")
            G[i, j] = r.value
    G = (G + G.conj().T) / 2.0
    return float(np.linalg.eigvalsh(G)[0])


def _covariance_residual(lhs: GroundWeylResult, rhs: GroundWeylResult) -> float:
    if lhs.divergent or rhs.divergent:
        raise DivergenceError("covariance residual diverges")
    return abs(lhs.value - rhs.value)


def dilation_orbit_residual(
    q: float,
    s: float,
    f: LineObject,
    M: int = 64,
    dilated: LineObject = None,
) -> float:
    """|omega_q(W(f dilated by s)) - omega_{e^s q}(W(f))|.

    Both sides are evaluated independently; the identity is the dilation
    orbit of the ground-state family.  dilated, when given, is the first
    result of dilate_line(f, s, M), for a caller that also reports its
    projection error; otherwise f is resampled here.  Raises DivergenceError
    when the charge phase of either side diverges.
    """
    if dilated is None:
        dilated, _resid = dilate_line(f, s, M)
    lhs = ground_weyl(GroundStateParams(q), WeylWord((dilated,)), M)
    rhs = ground_weyl(GroundStateParams(math.exp(s) * q), WeylWord((f,)), M)
    return _covariance_residual(lhs, rhs)


def translation_invariance_residual(
    q: float,
    f: LineObject,
    t: float,
    M: int = 64,
    translated: LineObject = None,
) -> float:
    """|omega_q(W(f translated by t)) - omega_q(W(f))|.

    translated, when given, is the first result of translate_line(f, t, M);
    otherwise f is resampled here.  Raises DivergenceError when the
    charge phase of either side diverges.
    """
    if translated is None:
        translated, _resid = translate_line(f, t, M)
    lhs = ground_weyl(GroundStateParams(q), WeylWord((translated,)), M)
    rhs = ground_weyl(GroundStateParams(q), WeylWord((f,)), M)
    return _covariance_residual(lhs, rhs)


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
        li = line_integral(LineObject(gn, Weight.FUNCTION))
        d = sobolev_half_sq(fourier_project(gn, M) - glim)
        rows.append(NonNormalityRow(int(n), q * li.value, d, not li.divergent))
    return rows
