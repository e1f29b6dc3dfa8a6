"""Reference evaluation of the ground states for the oracle tests: the left-to-right
Weyl reduction that chiralground.states replaced by the closed form in the
one-particle form B.  Each factor is added to the accumulated generator with the
phase of the symplectic integral sigma, and the vacuum Gaussian is taken of the
summed generator.
"""

import cmath
import math

import numpy as np

from chiralground import fnspace as fn
from chiralground import states


def weyl_reduce(w: tuple, M: int = 64) -> tuple[complex, fn.CircleFourier]:
    """Left-to-right Weyl reduction: accumulated phase and summed generator.

    The phase cocycle uses the Fock-normalized symplectic form sigma / SIGMA_NORM,
    the one under which W(f) W(g) = phase * W(f+g) holds for the exponentials of
    the smeared current.
    """
    acc = fn.CircleFourier(np.zeros(M + 1))
    phase = 1.0 + 0.0j
    for f in w:
        cf = states.as_fourier(f, M)
        phase *= cmath.exp(-0.5j * fn.sigma(acc, cf) / fn.SIGMA_NORM)
        acc = acc + cf
    return phase, acc


def vacuum_weyl(f, M: int = 64) -> float:
    """Vacuum value of a Weyl generator: exp(-norm^2/2) with the Sobolev-1/2 norm."""
    return math.exp(-0.5 * fn.sobolev_half_sq(states.as_fourier(f, M)))


def ground_weyl(q: float, w: tuple, M: int = 64) -> complex:
    """The charge-q ground value of a Weyl word by reduction: the cocycle phase, the
    charge phase of the factors' line integrals and the vacuum value of their sum."""
    phase, total = weyl_reduce(w, M)
    integral = sum(fn.line_integral(f).value for f in w)
    return phase * cmath.exp(1j * q * integral) * vacuum_weyl(total, M)
