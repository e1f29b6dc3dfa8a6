"""Test-function calculus on the circle and on the real line.

Circle functions are real and stored by their Fourier coefficients c_0 .. c_M
with the convention f(theta) = sum_n c_n e^{i n theta}, c_n = (1/2pi) int f
e^{-i n theta}; c_0 is real and c_{-n} = conj c_n is implied.
The real line is identified with the circle minus one point through the
Cayley map: the circle point -e^{i theta} corresponds to t(theta) = -cot(theta/2),
so theta = 0 is the point at infinity and dt/dtheta = csc^2(theta/2)/2 > 0
(orientation preserving).

A test object on the line is carried by its circle representative h, a
CircleFourier or a PiecewiseLinearCircle, and the function that receives h
fixes how it is read: as a scalar function, the pullback f(t) = h(theta(t)),
or as a vector field, the pushforward F(t) = ((t^2+1)/2) h(theta(t)).  Either
vanishes at infinity as h vanishes at theta = 0, to the order vanishing_order(h).

With this coefficient convention the Fock-space bracket of smeared currents is

    [J(f), J(g)] = i * sigma(f, g) / SIGMA_NORM,

where sigma(f, g) = int f g' dtheta is the literal circle integral and
SIGMA_NORM = 2pi.  SIGMA_NORM is the single normalization constant of the
whole package; every phase and central-term factor is derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# [J(f), J(g)] = i * sigma(f, g) / SIGMA_NORM in the c_n mode convention above.
SIGMA_NORM = TWO_PI


@dataclass(frozen=True)
class CircleFourier:
    """Real band-limited function on the circle, coeffs[n] = c_n for 0 <= n <= M.

    c_0 is real and c_{-n} = conj c_n is implied, so the function is real by
    construction: the imaginary part of a given c_0 is dropped.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a 1-d array c_0 .. c_M")
        c[0] = c[0].real
        object.__setattr__(self, "coeffs", c)

    @property
    def max_mode(self) -> int:
        return self.coeffs.size - 1

    def full(self) -> np.ndarray:
        """The two-sided spectrum c_{-M} .. c_M."""
        return np.concatenate([np.conj(self.coeffs[:0:-1]), self.coeffs])

    def pad(self, M: int) -> "CircleFourier":
        """Re-embed with max mode M (zero padding or truncation)."""
        out = np.zeros(M + 1, dtype=complex)
        k = min(M, self.max_mode) + 1
        out[:k] = self.coeffs[:k]
        return CircleFourier(out)

    def __call__(self, theta):
        """Values at arbitrary angles: c_0 + 2 Re p, p = sum_{n>=1} c_n z^n by Horner's rule
        in z = e^{i theta}."""
        z = np.exp(1j * np.asarray(theta, dtype=float))
        c = self.coeffs
        p = np.zeros(z.shape, dtype=complex)
        for a in c[:0:-1]:
            p += a
            p *= z
        vals = (p.real + c[0].real) + p.real
        if np.ndim(theta) == 0:
            return vals.item()
        return vals

    def _binop(self, other, op):
        M = max(self.max_mode, other.max_mode)
        return CircleFourier(op(self.pad(M).coeffs, other.pad(M).coeffs))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def scale(self, lam: float) -> "CircleFourier":
        """lam times the function; TypeError for a complex lam, which would leave it not real."""
        if np.iscomplexobj(lam):  # float() of a numpy complex would only warn and drop its imag
            raise TypeError("scale factor must be real")
        return CircleFourier(lam * self.coeffs)


@dataclass(frozen=True)
class PiecewiseLinearCircle:
    """Continuous piecewise-linear circle function given by nodes and values.

    Linear interpolation between consecutive nodes, wrapping from the last
    node back to the first one (shifted by 2pi).  Continuity across the wrap
    is automatic in this representation.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.nodes, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if th.size < 2 or th.size != v.size:
            raise ValueError("need at least 2 nodes and matching values")
        if np.any(np.diff(th) <= 0) or th[0] < 0 or th[-1] >= TWO_PI:
            raise ValueError("nodes must be strictly increasing in [0, 2pi)")
        object.__setattr__(self, "nodes", th)
        object.__setattr__(self, "values", v)

    @cached_property
    def closed(self) -> tuple[np.ndarray, np.ndarray]:
        """The wrap rule: nodes and values closed by the first node again at nodes[0] + 2pi."""
        return np.append(self.nodes, self.nodes[0] + TWO_PI), np.append(self.values, self.values[0])

    @cached_property
    def slope_jumps(self) -> np.ndarray:
        """ds_k, the slope after node k less the one before: f'' = sum_k ds_k delta_{theta_k}."""
        xs, ys = self.closed
        slopes = np.diff(ys) / np.diff(xs)
        return slopes - np.roll(slopes, 1)

    def __call__(self, theta):
        th = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        # shift angles below the first node into the wrap segment
        th = np.where(th < self.nodes[0], th + TWO_PI, th)
        out = np.interp(th, *self.closed)
        if np.ndim(theta) == 0:
            return out.item()
        return out

    def scale(self, lam: float) -> "PiecewiseLinearCircle":
        return PiecewiseLinearCircle(self.nodes, lam * self.values)


@dataclass(frozen=True)
class LineIntegralResult:
    value: float
    divergent: bool


# ---------------------------------------------------------------------------
# Fourier operations


def fourier_project(f: PiecewiseLinearCircle, M: int) -> CircleFourier:
    """Exact Fourier coefficients of a piecewise-linear circle function.

    Integrating by parts twice, f'' is a sum of point masses ds_k at the nodes
    theta_k (ds_k the slope jump there), so c_n = -sum_k ds_k e^{-in theta_k}
    / (2pi n^2) for n >= 1, and c_0 is the trapezoid mean.
    No quadrature is involved.
    """
    if M < 1:
        raise ValueError("M must be positive")
    n = np.arange(1, M + 1, dtype=float)
    pos = np.zeros(M, dtype=complex)
    for th, ds in zip(f.nodes, f.slope_jumps):
        if ds != 0.0:
            pos += ds * np.exp(-1j * th * n)
    pos /= -TWO_PI * n**2
    xs, ys = f.closed
    c0 = np.sum((ys[:-1] + ys[1:]) * np.diff(xs)) / (2.0 * TWO_PI)
    return CircleFourier(np.concatenate([[c0], pos]))


def derivative(f: CircleFourier) -> CircleFourier:
    return CircleFourier(1j * np.arange(f.max_mode + 1) * f.coeffs)


def pointwise_product(f: CircleFourier, g: CircleFourier, M_out: int) -> CircleFourier:
    """Cauchy convolution of coefficients, truncated to |n| <= M_out."""
    if M_out < 1:
        raise ValueError("M_out must be positive")
    full = np.convolve(f.full(), g.full())  # modes -(Mf+Mg) .. Mf+Mg
    M_full = f.max_mode + g.max_mode
    return CircleFourier(full[M_full:]).pad(M_out)


def sigma(f: CircleFourier, g: CircleFourier) -> float:
    """Literal symplectic integral int f g' dtheta, exact from coefficients."""
    M = max(f.max_mode, g.max_mode)
    a, b = f.pad(M).full(), g.pad(M).full()
    ns = np.arange(-M, M + 1)
    # int f g' dtheta = -2 pi i sum_n n f_n g_{-n}
    s = -TWO_PI * 1j * np.sum(ns * a * b[::-1])
    return float(s.real)


def sobolev_half_sq(f: CircleFourier) -> float:
    """Sum_{k>=1} k |c_k|^2; equals the squared Fock norm of the smeared current on the vacuum."""
    ks = np.arange(1, f.max_mode + 1)
    return float(np.sum(ks * np.abs(f.coeffs[1:]) ** 2))


# ---------------------------------------------------------------------------
# Cayley transform


def theta_of_t(t):
    """Inverse of the Cayley map t(theta) = -cot(theta/2), valued in (0, 2pi)."""
    return 2.0 * np.arctan2(1.0, -np.asarray(t, dtype=float))


def _t_of_theta_arr(theta):
    return -np.cos(theta / 2.0) / np.sin(theta / 2.0)


# ---------------------------------------------------------------------------
# Line integrals


# The one test of vanishing at infinity, applied by line_integral and vanishing_order:
# h(0) = 0 iff |h(0)| <= POLE_TOL sum_n |c_n|, as the sum h(0) = sum_n c_n rounds by about
# (2M + 1) 2^-53 of it.  Projections vanish exactly where their source does (_project_samples).
POLE_TOL = 1e-12


def line_integral(h) -> LineIntegralResult:
    """int_R f(t) dt = int_0^{2pi} h(theta) / (1 - cos theta) dtheta for the scalar
    function f of representative h, in closed form.

    Fourier h: the Hadamard finite part -2pi sum_n |n| c_n.  The integral is
    divergent iff |h(0)| = |sum_n c_n| > POLE_TOL sum_n |c_n|, both sums taken
    over the two-sided spectrum: iff vanishing_order(h) is 0.

    Piecewise-linear h: the same sum over the slope-jump coefficients of
    fourier_project, with sum_{n>=1} cos(n theta)/n = -ln(2 sin(theta/2)), is
    -2 sum_k ds_k ln(2 sin(theta_k/2)) over the nodes theta_k > 0; a node at
    theta = 0 adds the finite part 2 ds_0 of its kink.  The integral is divergent
    iff h(0) != 0 or ds_0 != 0.

    A divergent integral returns its finite part with divergent=True.
    """
    if isinstance(h, PiecewiseLinearCircle):
        th, ds = h.nodes.tolist(), h.slope_jumps.tolist()
        kink = ds[0] if th[0] == 0.0 else 0.0  # only the first node can sit at theta = 0
        logs = sum(d * math.log(2.0 * math.sin(t / 2.0)) for t, d in zip(th, ds) if t > 0.0)
        h0 = np.interp(TWO_PI, *h.closed)  # h(0), read on the wrap segment
        return LineIntegralResult(2.0 * (kink - logs), bool(h0 != 0.0 or kink != 0.0))
    c = h.full()
    ns = np.arange(-h.max_mode, h.max_mode + 1)
    value = -TWO_PI * np.sum(np.abs(ns) * c).real
    divergent = abs(np.sum(c)) > POLE_TOL * np.sum(np.abs(c))
    return LineIntegralResult(float(value), bool(divergent))


def vectorfield_line_integral_f3g(hF: CircleFourier, hG: CircleFourier) -> float:
    """int_R F'''(t) G(t) dt for the vector fields of representatives hF, hG, in closed form.

    With hF = sum a_n e^{in theta} and hG = sum b_n e^{in theta} the integral
    equals int (hF' + hF''') hG dtheta = 2pi sum_n i(n - n^3) a_n b_{-n}.  It is
    finite when vanishing_order(hF) + vanishing_order(hG) >= 3 (ValueError otherwise).
    """
    if not isinstance(hF, CircleFourier) or not isinstance(hG, CircleFourier):
        raise TypeError("vector fields must carry Fourier representatives")
    if vanishing_order(hF) + vanishing_order(hG) < 3:
        raise ValueError("combined vanishing order at infinity must be >= 3")
    M = max(hF.max_mode, hG.max_mode)
    a, b = hF.pad(M).full(), hG.pad(M).full()
    ns = np.arange(-M, M + 1)
    return float(TWO_PI * np.sum(1j * (ns - ns**3) * a * b[::-1]).real)


# ---------------------------------------------------------------------------
# The g_n family


def gn_family(n: int) -> PiecewiseLinearCircle:
    """The n-th tent function of the non-normality sequence.

    Zero on [0, pi], rises to pi/2 at 3pi/2, falls back to 1/n at 2pi - 1/n,
    then drops with slope -2 to zero at 2pi - 1/(2n) and stays zero.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nodes = [0.0, math.pi, 1.5 * math.pi, TWO_PI - 1.0 / n, TWO_PI - 0.5 / n]
    values = [0.0, 0.0, math.pi / 2.0, 1.0 / n, 0.0]
    return PiecewiseLinearCircle(np.array(nodes), np.array(values))


def g_limit() -> PiecewiseLinearCircle:
    """Limit of the g_n family: the full tent returning to zero only at 2pi."""
    nodes = [0.0, math.pi, 1.5 * math.pi]
    values = [0.0, 0.0, math.pi / 2.0]
    return PiecewiseLinearCircle(np.array(nodes), np.array(values))


# ---------------------------------------------------------------------------
# Resampling (dilation, translation) and exact multiplication by t


# Fewest points of the resampling grid; a projection to M modes samples
# max(4M + 4, GRID_NODES) points.
GRID_NODES = 2048


def _shifted_grid(K: int):
    return (np.arange(K) + 0.5) * TWO_PI / K


def _line_grid(M: int):
    """The half-shifted resampling grid for M modes and its line points t(theta)."""
    th = _shifted_grid(max(4 * M + 4, GRID_NODES))
    return th, _t_of_theta_arr(th)


def _project_samples(values, M: int, vanishes: bool) -> tuple[CircleFourier, float]:
    """Fourier projection of real samples on the half-shifted grid of K = values.size points.

    c_n = (1/K) sum_j v_j e^{-i n theta_j} = e^{-i n pi/K} fft(v)[n mod K] / K
    for 0 <= n <= M, then c_0 shifted to make h(0) = sum_n c_n = 0 if the samples
    vanish at infinity; line integrals, the seminorm and sigma weight c_0 by 0.
    Returns the projection and the rms mismatch between its grid values and the
    samples, shift included, by Parseval: the squares of the dropped bins M < n <= K/2
    of fft(v) / K, twice (c_n and c_{-n}) but the Nyquist bin n = K/2, plus the shift
    squared.  Needs K > 2 M, where the kept modes do not alias.
    """
    K = values.size
    spectrum = np.fft.rfft(values)
    pos = spectrum[: M + 1] * np.exp(-1j * np.pi * np.arange(M + 1) / K) / K
    shift = CircleFourier(pos).full().sum().real if vanishes else 0.0
    pos[0] -= shift
    tail = np.abs(spectrum[M + 1:]) ** 2
    power = 2 * tail.sum() - (tail[-1] if K % 2 == 0 else 0.0)
    return CircleFourier(pos), math.sqrt(shift**2 + power / K**2)


def _resample_line(h, preimage, M: int) -> tuple[CircleFourier, float]:
    """Re-project t -> f(preimage(t)) onto M circle modes, f the scalar function of h;
    an affine preimage keeps f's vanishing at infinity, and so does the projection."""
    _, t = _line_grid(M)
    vals = np.asarray(h(theta_of_t(preimage(t))), dtype=float)
    return _project_samples(vals, M, not line_integral(h).divergent)


def dilate_line(h, s: float, M: int = 64) -> tuple[CircleFourier, float]:
    """Representative of t -> f(e^{-s} t), re-projected to M modes, f the scalar function of h.

    Returns the dilated representative together with the projection residual.
    """
    lam = math.exp(-s)
    return _resample_line(h, lambda t: lam * t, M)


def translate_line(h, a: float, M: int = 64) -> tuple[CircleFourier, float]:
    """Representative of t -> f(t - a), re-projected to M modes, f the scalar function of h."""
    return _resample_line(h, lambda t: t - a, M)


def vanishing_order(h: CircleFourier) -> int:
    """Order of the zero of h at theta = 0, the point at infinity of the line.

    z^M h = (z - 1) sum_{n<M} q_n z^{n+M} + h(0) at z = e^{i theta}, with the tail
    sums q_n = sum_{m>n} c_m.  The order is how often this division, applied to
    each quotient in turn, leaves a remainder that POLE_TOL reads as zero: at most
    POLE_TOL sum_n |c_n| of h, the scale of its rounding.  The zero function gets
    2M + 1, more than any other function on M modes.
    """
    c = h.full()
    k, tol = 0, POLE_TOL * np.sum(np.abs(c))
    while c.size and abs(c.sum()) <= tol:
        c, k = np.cumsum(c[::-1])[::-1][1:], k + 1
    return k


def multiply_by_t(h: CircleFourier) -> CircleFourier:
    """t(theta) h(theta) = -cot(theta/2) h(theta), exactly, on h's own modes.

    t = -i (z + 1)/(z - 1) at z = e^{i theta}, so t h has the coefficients
    -i (q_{n-1} + q_n) of the tail sums q_n of vanishing_order, q_{-M-1} = q_M = 0.
    Raises ValueError at a pole, where vanishing_order(h) is 0.
    """
    if vanishing_order(h) < 1:
        raise ValueError("t h has a pole at theta = 0: h must vanish there")
    q = np.cumsum(h.full()[::-1])[::-1][h.max_mode:]  # q_n for n = -1 .. M - 1
    return CircleFourier(-1j * (q + np.append(q[1:], 0.0)))


# ---------------------------------------------------------------------------
# Helpers for building test functions


def circle_from_real_modes(c0: float, cos_coeffs=(), sin_coeffs=()) -> CircleFourier:
    """Real function c0 + sum_k (a_k cos k theta + b_k sin k theta)."""
    M = max(len(cos_coeffs), len(sin_coeffs), 1)
    coeffs = np.zeros(M + 1, dtype=complex)
    coeffs[0] = c0
    for k in range(1, M + 1):
        a = cos_coeffs[k - 1] if k <= len(cos_coeffs) else 0.0
        b = sin_coeffs[k - 1] if k <= len(sin_coeffs) else 0.0
        coeffs[k] = (a - 1j * b) / 2.0
    return CircleFourier(coeffs)


def random_real_circle(M: int, rng: np.random.Generator, scale: float = 1.0) -> CircleFourier:
    c0 = scale * rng.standard_normal()
    pos = scale * (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / 2.0
    return CircleFourier(np.concatenate([[c0], pos]))


def gaussian_bump_line(center: float, width: float, M: int = 64) -> tuple[CircleFourier, float]:
    """Representative of the scalar exp(-((t - center)/width)^2), projected to M modes.

    The projection vanishes at infinity exactly, as the bump does; the returned
    residual includes that shift of c_0.
    """
    _, t = _line_grid(M)
    with np.errstate(over="ignore"):  # a square past the float range is exp(-inf) = 0, exactly
        vals = np.exp(-(((t - center) / width) ** 2))
    return _project_samples(vals, M, True)


def circle_to_json(f: CircleFourier) -> dict:
    """The stored coefficients c_0 .. c_M as lists of real and imaginary parts."""
    return {"M": f.max_mode, "re": f.coeffs.real.tolist(), "im": f.coeffs.imag.tolist()}
