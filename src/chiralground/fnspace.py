"""Test-function calculus on the circle and on the real line.

Circle functions are stored by their Fourier coefficients with the
convention f(theta) = sum_n c_n e^{i n theta}, c_n = (1/2pi) int f e^{-i n theta}.
The real line is identified with the circle minus one point through the
Cayley map: the circle point -e^{i theta} corresponds to t(theta) = -cot(theta/2),
so theta = 0 is the point at infinity and dt/dtheta = csc^2(theta/2)/2 > 0
(orientation preserving).

With this coefficient convention the Fock-space bracket of smeared currents is

    [J(f), J(g)] = i * sigma(f, g) / SIGMA_NORM,

where sigma(f, g) = int f g' dtheta is the literal circle integral and
SIGMA_NORM = 2pi.  SIGMA_NORM is the single normalization constant of the
whole package; every phase and central-term factor is derived from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

# [J(f), J(g)] = i * sigma(f, g) / SIGMA_NORM in the c_n mode convention above.
SIGMA_NORM = TWO_PI


class Weight(enum.Enum):
    """How a line object transforms under the circle identification."""

    FUNCTION = "function"
    VECTOR_FIELD = "vector_field"


@dataclass(frozen=True)
class CircleFourier:
    """Band-limited function on the circle, coeffs[n + M] = c_n for |n| <= M."""

    coeffs: np.ndarray
    is_real: bool = True
    truncated: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coeffs must be a 1-d array of odd length 2M+1")
        object.__setattr__(self, "coeffs", c)

    @property
    def max_mode(self) -> int:
        return (self.coeffs.size - 1) // 2

    def coeff(self, n: int) -> complex:
        M = self.max_mode
        if abs(n) > M:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + M])

    def pad(self, M: int) -> "CircleFourier":
        """Re-embed with max mode M (zero padding or truncation)."""
        old = self.max_mode
        out = np.zeros(2 * M + 1, dtype=complex)
        k = min(M, old)
        out[M - k : M + k + 1] = self.coeffs[old - k : old + k + 1]
        dropped = M < old and (
            np.any(self.coeffs[: old - M]) or np.any(self.coeffs[old + M + 1 :])
        )
        trunc = self.truncated or bool(dropped)
        return CircleFourier(out, self.is_real, trunc)

    def __call__(self, theta):
        """Values at arbitrary angles, by Horner's rule in z = e^{i theta} and its conjugate."""
        z = np.exp(1j * np.asarray(theta, dtype=float))
        w = np.conj(z)
        M, c = self.max_mode, self.coeffs
        up = np.full(z.shape, c[-1])  # sum_{n>=0} c_n z^n
        for a in c[M:-1][::-1]:
            up *= z
            up += a
        down = np.zeros(z.shape, dtype=complex)  # sum_{n>=1} c_{-n} w^n
        for a in c[:M]:
            down += a
            down *= w
        vals = up + down
        if self.is_real:
            vals = vals.real
        if np.ndim(theta) == 0:
            return vals.item()
        return vals

    def _binop(self, other, op):
        M = max(self.max_mode, other.max_mode)
        a, b = self.pad(M), other.pad(M)
        return CircleFourier(
            op(a.coeffs, b.coeffs),
            self.is_real and other.is_real,
            self.truncated or other.truncated,
        )

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def scale(self, lam: float) -> "CircleFourier":
        return CircleFourier(lam * self.coeffs, self.is_real and np.isreal(lam),
                             self.truncated)


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

    def segments(self):
        """Yield (a, b, va, vb) with a < b; the wrap segment has b > 2pi - eps."""
        th, v = self.nodes, self.values
        for i in range(th.size - 1):
            yield th[i], th[i + 1], v[i], v[i + 1]
        yield th[-1], th[0] + TWO_PI, v[-1], v[0]

    def __call__(self, theta):
        th = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        # shift angles below the first node into the wrap segment
        th = np.where(th < self.nodes[0], th + TWO_PI, th)
        xp = np.concatenate([self.nodes, [self.nodes[0] + TWO_PI]])
        fp = np.concatenate([self.values, [self.values[0]]])
        out = np.interp(th, xp, fp)
        if np.ndim(theta) == 0:
            return out.item()
        return out

    def scale(self, lam: float) -> "PiecewiseLinearCircle":
        return PiecewiseLinearCircle(self.nodes, lam * self.values)


@dataclass(frozen=True)
class LineObject:
    """Real-line test object carried by its circle representative.

    Weight.FUNCTION: scalar pullback, F(t) = h(theta(t)).
    Weight.VECTOR_FIELD: pushforward, F(t) = ((t^2+1)/2) h(theta(t)).
    vanishing_order is the declared order of the circle representative
    at the point at infinity (theta = 0); line integrals of derivatives of
    vector fields are finite only when the combined order is large enough.
    """

    circle_repr: object  # CircleFourier | PiecewiseLinearCircle
    weight: Weight = Weight.FUNCTION
    vanishing_order: int = 0

    def scale(self, lam: float) -> "LineObject":
        return replace(self, circle_repr=self.circle_repr.scale(lam))


@dataclass(frozen=True)
class LineIntegralResult:
    value: float
    divergent: bool
    err_estimate: float


# ---------------------------------------------------------------------------
# Fourier operations


def fourier_project(f: PiecewiseLinearCircle, M: int) -> CircleFourier:
    """Exact Fourier coefficients of a piecewise-linear circle function.

    Integrating by parts twice, f'' is a sum of point masses ds_k at the nodes
    theta_k (ds_k the slope jump there), so c_n = -sum_k ds_k e^{-in theta_k}
    / (2pi n^2) for n >= 1 and c_{-n} = conj(c_n); c_0 is the trapezoid mean.
    No quadrature is involved.
    """
    if M < 1:
        raise ValueError("M must be positive")
    xs = np.append(f.nodes, f.nodes[0] + TWO_PI)
    ys = np.append(f.values, f.values[0])
    widths = np.diff(xs)
    slopes = np.diff(ys) / widths
    jumps = slopes - np.roll(slopes, 1)
    n = np.arange(1, M + 1, dtype=float)
    pos = np.zeros(M, dtype=complex)
    for th, ds in zip(f.nodes, jumps):
        if ds != 0.0:
            pos += ds * np.exp(-1j * th * n)
    pos /= -TWO_PI * n**2
    c0 = np.sum((ys[:-1] + ys[1:]) * widths) / (2.0 * TWO_PI)
    coeffs = np.concatenate([np.conj(pos[::-1]), [c0], pos])
    return CircleFourier(coeffs, is_real=True)


def derivative(f: CircleFourier) -> CircleFourier:
    ns = np.arange(-f.max_mode, f.max_mode + 1)
    return CircleFourier(1j * ns * f.coeffs, f.is_real, f.truncated)


def pointwise_product(f: CircleFourier, g: CircleFourier, M_out: int) -> CircleFourier:
    """Cauchy convolution of coefficients, truncated to |n| <= M_out."""
    if M_out < 1:
        raise ValueError("M_out must be positive")
    full = np.convolve(f.coeffs, g.coeffs)  # modes -(Mf+Mg) .. Mf+Mg
    M_full = f.max_mode + g.max_mode
    out = np.zeros(2 * M_out + 1, dtype=complex)
    k = min(M_out, M_full)
    out[M_out - k : M_out + k + 1] = full[M_full - k : M_full + k + 1]
    truncated = f.truncated or g.truncated or (M_out < M_full)
    return CircleFourier(out, f.is_real and g.is_real, truncated)


def sigma(f: CircleFourier, g: CircleFourier) -> float:
    """Literal symplectic integral int f g' dtheta, exact from coefficients."""
    if not (f.is_real and g.is_real):
        raise ValueError("sigma requires real functions")
    M = max(f.max_mode, g.max_mode)
    a, b = f.pad(M).coeffs, g.pad(M).coeffs
    ns = np.arange(-M, M + 1)
    # int f g' dtheta = -2 pi i sum_n n f_n g_{-n}
    s = -TWO_PI * 1j * np.sum(ns * a * b[::-1])
    return float(s.real)


def sobolev_half_sq(f: CircleFourier) -> float:
    """Sum_{k>=1} k |c_k|^2; equals the squared Fock norm of the smeared current on the vacuum."""
    if not f.is_real:
        raise ValueError("sobolev_half_sq requires a real function")
    M = f.max_mode
    ks = np.arange(1, M + 1)
    return float(np.sum(ks * np.abs(f.coeffs[M + 1 :]) ** 2))


# ---------------------------------------------------------------------------
# Cayley transform


def cayley_t_of_theta(theta: float) -> float:
    """The unique t with -(t-i)/(t+i) = -e^{i theta}; t(theta) = -cot(theta/2).

    theta = 0 (the wrap point) maps to the point at infinity and returns inf.
    """
    if not 0.0 <= theta < TWO_PI:
        raise ValueError("theta must lie in [0, 2pi)")
    if theta == 0.0:
        return math.inf
    return -math.cos(theta / 2.0) / math.sin(theta / 2.0)


def theta_of_t(t):
    """Inverse of cayley_t_of_theta, valued in (0, 2pi)."""
    return 2.0 * np.arctan2(1.0, -np.asarray(t, dtype=float))


def _t_of_theta_arr(theta):
    return -np.cos(theta / 2.0) / np.sin(theta / 2.0)


# ---------------------------------------------------------------------------
# Line integrals


def _pl_antiderivative(theta: float, c: float, s: float) -> float:
    """Antiderivative of (c + s theta) / (2 sin^2(theta/2)) on (0, 2pi).

    At theta = 0 and 2pi it returns the Hadamard finite part, which drops the
    1/theta and log(theta) terms and leaves -2s(1 + ln 2) at either end.
    """
    if theta == 0.0 or theta == TWO_PI:
        return -2.0 * s * (1.0 + math.log(2.0))
    half = theta / 2.0
    return -(c + s * theta) * math.cos(half) / math.sin(half) + 2.0 * s * math.log(math.sin(half))


def _pl_line_integral(h: PiecewiseLinearCircle) -> LineIntegralResult:
    th, v = h.nodes, h.values
    s_wrap = (v[0] - v[-1]) / (th[0] + TWO_PI - th[-1])
    h0 = v[0] - s_wrap * th[0]  # value at the wrap point
    # cut the wrap segment at 2pi so that every piece lies in [0, 2pi]
    xs, ys = [*th, TWO_PI], [*v, h0]
    if th[0] > 0.0:
        xs, ys = [0.0, *xs], [h0, *ys]
    total = 0.0
    for a, b, va, vb in zip(xs, xs[1:], ys, ys[1:]):
        s = (vb - va) / (b - a)
        c = va - s * a
        total += _pl_antiderivative(b, c, s) - _pl_antiderivative(a, c, s)
    # the one-sided slopes can differ only when the wrap point is a node
    kink = th[0] == 0.0 and (v[1] - v[0]) / (th[1] - th[0]) != s_wrap
    return LineIntegralResult(float(total), bool(h0 != 0.0 or kink), 0.0)


def line_integral(f: LineObject) -> LineIntegralResult:
    """int_R f(t) dt = int_0^{2pi} h(theta) / (1 - cos theta) dtheta, in closed form.

    Fourier h: the Hadamard finite part -2pi sum_n |n| c_n.  The integral is
    divergent iff |h(0)| = |sum_n c_n| > 1e-5 sum_n |c_n|; err_estimate holds
    |h(0)|.  Piecewise-linear h: each segment is integrated exactly, the wrap
    segment being cut at 2pi, and the integral is divergent iff h(0) != 0 or
    the one-sided slopes at theta = 0 differ; err_estimate is 0.  A divergent
    integral returns its finite part with divergent=True.
    """
    if f.weight is not Weight.FUNCTION:
        raise ValueError("line_integral expects a scalar function")
    h = f.circle_repr
    if isinstance(h, PiecewiseLinearCircle):
        return _pl_line_integral(h)
    if not h.is_real:
        raise ValueError("line_integral requires a real function")
    ns = np.arange(-h.max_mode, h.max_mode + 1)
    value = -TWO_PI * np.sum(np.abs(ns) * h.coeffs).real
    h0 = abs(np.sum(h.coeffs))
    divergent = h0 > 1e-5 * np.sum(np.abs(h.coeffs))
    return LineIntegralResult(float(value), bool(divergent), float(h0))


def vectorfield_line_integral_f3g(F: LineObject, G: LineObject) -> LineIntegralResult:
    """int_R F'''(t) G(t) dt for vector fields, in closed form.

    With circle representatives hF = sum a_n e^{in theta} and
    hG = sum b_n e^{in theta} the integral equals int (hF' + hF''') hG dtheta
    = 2pi sum_n i(n - n^3) a_n b_{-n}.  It is finite when the declared
    vanishing orders at infinity add up to at least 3 (ValueError otherwise),
    so the result is never divergent and err_estimate is 0.
    """
    if F.weight is not Weight.VECTOR_FIELD or G.weight is not Weight.VECTOR_FIELD:
        raise ValueError("both arguments must be vector fields")
    if F.vanishing_order + G.vanishing_order < 3:
        raise ValueError("combined vanishing order at infinity must be >= 3")
    hF, hG = F.circle_repr, G.circle_repr
    if not isinstance(hF, CircleFourier) or not isinstance(hG, CircleFourier):
        raise TypeError("vector fields must carry Fourier representatives")
    M = max(hF.max_mode, hG.max_mode)
    a, b = hF.pad(M).coeffs, hG.pad(M).coeffs
    ns = np.arange(-M, M + 1)
    value = TWO_PI * np.sum(1j * (ns - ns**3) * a * b[::-1]).real
    return LineIntegralResult(float(value), False, 0.0)


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
# Resampling (dilation, translation, multiplication by t)


# Fewest points of the resampling grid; a projection to M modes samples
# max(4M + 4, GRID_NODES) points.
GRID_NODES = 2048


def _shifted_grid(K: int):
    return (np.arange(K) + 0.5) * TWO_PI / K


def _line_grid(M: int):
    """The half-shifted resampling grid for M modes and its line points t(theta)."""
    th = _shifted_grid(max(4 * M + 4, GRID_NODES))
    return th, _t_of_theta_arr(th)


def _on_grid(h: CircleFourier, K: int) -> np.ndarray:
    """h at the half-shifted grid theta_j = (j + 1/2) 2pi/K, j < K.

    One inverse FFT of the coefficients twisted by e^{i n pi/K}; raises
    ValueError when K <= 2 * max_mode, where distinct modes would alias.
    """
    M = h.max_mode
    if K <= 2 * M:
        raise ValueError(f"{K} grid points alias the modes of a function with max mode {M}")
    n = np.arange(-M, M + 1)
    b = np.zeros(K, dtype=complex)
    b[n % K] = h.coeffs * np.exp(1j * np.pi * n / K)
    vals = K * np.fft.ifft(b)
    return vals.real if h.is_real else vals


def _project_samples(values, M: int) -> tuple[CircleFourier, float]:
    """Fourier projection of real samples on the half-shifted grid of K = values.size points.

    c_n = (1/K) sum_j v_j e^{-i n theta_j} = e^{-i n pi/K} fft(v)[n mod K] / K
    for 0 <= n <= M, and c_{-n} = conj(c_n) as the samples are real.  Returns
    the projection and the rms mismatch between its grid values and the
    samples (the reported projection residual).
    """
    K = values.size
    n = np.arange(M + 1)
    pos = np.fft.rfft(values)[: M + 1] * np.exp(-1j * np.pi * n / K) / K
    out = CircleFourier(np.concatenate([np.conj(pos[:0:-1]), pos]), is_real=True)
    resid = float(np.sqrt(np.mean((_on_grid(out, K) - values) ** 2)))
    return out, resid


def _resample_line(f: LineObject, preimage, M: int) -> tuple[LineObject, float]:
    """Re-project the line function t -> f(preimage(t)) onto M circle modes."""
    if f.weight is not Weight.FUNCTION:
        raise ValueError("resampling is defined for scalar functions")
    _, t = _line_grid(M)
    vals = np.asarray(f.circle_repr(theta_of_t(preimage(t))), dtype=float)
    proj, resid = _project_samples(vals, M)
    return LineObject(proj, Weight.FUNCTION, f.vanishing_order), resid


def dilate_line(f: LineObject, s: float, M: int = 64) -> tuple[LineObject, float]:
    """Line object for t -> f(e^{-s} t), re-projected to M modes.

    Returns the dilated object together with the projection residual.
    """
    lam = math.exp(-s)
    return _resample_line(f, lambda t: lam * t, M)


def translate_line(f: LineObject, a: float, M: int = 64) -> tuple[LineObject, float]:
    """Line object for t -> f(t - a), re-projected to M modes."""
    return _resample_line(f, lambda t: t - a, M)


def multiply_by_t(h: CircleFourier, M: int = None) -> tuple[CircleFourier, float]:
    """Projection of t(theta) * h(theta) = -cot(theta/2) h(theta).

    Well defined (bounded) when h vanishes at theta = 0; the caller is
    responsible for that.  Returns the projection and its residual; raises
    ValueError when h.max_mode >= K/2 for the K-point sample grid, which
    would alias h's modes.
    """
    if M is None:
        M = 2 * h.max_mode + 2
    th, t = _line_grid(M)
    return _project_samples(t * _on_grid(h, th.size), M)


# ---------------------------------------------------------------------------
# Helpers for building test functions


def circle_from_real_modes(c0: float, cos_coeffs=(), sin_coeffs=()) -> CircleFourier:
    """Real function c0 + sum_k (a_k cos k theta + b_k sin k theta)."""
    M = max(len(cos_coeffs), len(sin_coeffs), 1)
    coeffs = np.zeros(2 * M + 1, dtype=complex)
    coeffs[M] = c0
    for k in range(1, M + 1):
        a = cos_coeffs[k - 1] if k <= len(cos_coeffs) else 0.0
        b = sin_coeffs[k - 1] if k <= len(sin_coeffs) else 0.0
        coeffs[M + k] = (a - 1j * b) / 2.0
        coeffs[M - k] = (a + 1j * b) / 2.0
    return CircleFourier(coeffs, is_real=True)


def random_real_circle(M: int, rng: np.random.Generator, scale: float = 1.0) -> CircleFourier:
    coeffs = np.zeros(2 * M + 1, dtype=complex)
    coeffs[M] = scale * rng.standard_normal()
    pos = scale * (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / 2.0
    coeffs[M + 1 :] = pos
    coeffs[:M] = np.conj(pos[::-1])
    return CircleFourier(coeffs, is_real=True)


def gaussian_bump_line(center: float, width: float, M: int = 64) -> tuple[LineObject, float]:
    """Line object for exp(-((t - center)/width)^2), projected to M modes.

    The bump vanishes at the point at infinity, so c_0 is shifted to make the
    projection vanish there exactly too; the returned residual includes the
    shift.
    """
    th, t = _line_grid(M)
    vals = np.exp(-(((t - center) / width) ** 2))
    proj, _ = _project_samples(vals, M)
    c = proj.coeffs.copy()
    c[M] -= c.sum().real
    proj = CircleFourier(c, is_real=True)
    resid = float(np.sqrt(np.mean((_on_grid(proj, th.size) - vals) ** 2)))
    return LineObject(proj, Weight.FUNCTION), resid


def circle_to_json(f: CircleFourier) -> dict:
    return {
        "M": f.max_mode,
        "re": f.coeffs.real.tolist(),
        "im": f.coeffs.imag.tolist(),
    }


def circle_from_json(obj: dict) -> CircleFourier:
    coeffs = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    if coeffs.size != 2 * int(obj["M"]) + 1:
        raise ValueError("inconsistent serialized mode count")
    sym = np.allclose(coeffs, np.conj(coeffs[::-1]), atol=1e-12)
    return CircleFourier(coeffs, is_real=bool(sym))
