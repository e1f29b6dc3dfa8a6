"""Virasoro modes via the normal-ordered quadratic (Sugawara) construction.

L_n is the finite sum over index pairs j <= k, j + k = n, of J_j J_k, built
once per level as a block from the J mode maps; the algebra checks are exact
up to floating rounding.  The perturbed stress tensor couples its current term
with KAPPA_SCALE * kappa, so that its central charge is exactly 1 + kappa^2.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache, partial

import numpy as np

from . import fock
from .fnspace import (SIGMA_NORM, CircleFourier, LineObject, Weight, derivative, multiply_by_t,
                      pointwise_product, sigma, vectorfield_line_integral_f3g)
from .fock import FockVector, apply_current, vec_add, vec_scale

# Coupling of the current term in the perturbed stress tensor; with
# [J_m, J_n] = m delta the perturbation (kappa/sqrt(12)) J(f') shifts the
# central charge from 1 to exactly 1 + kappa^2.
KAPPA_SCALE = 1.0 / math.sqrt(12.0)


@lru_cache(maxsize=None)
def virasoro_block(n: int, level: int) -> np.ndarray:
    """Dense block of L_n from ``level`` to ``level - n``.

    L_n = sum weight J_j J_k over k >= j, j + k = n, j and k nonzero, with
    weight 1/2 iff j = k.  Each pair sends column c to the single row rj[rk[c]]
    with weight weight * vk[c] * vj[rk[c]] (mode_map), so the block is one
    scatter-add of all pairs.  Its entries are small integers or halves, hence exact.
    """
    shape = (len(fock.partitions_at(level - n)), len(fock.partitions_at(level)))
    index, weights = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for k in range(-((-n) // 2), max(0, level) + 1):  # k > level annihilates every column
        j = n - k
        if j == 0 or k == 0:
            continue
        rk, vk = fock.mode_map(k, level)
        rj, vj = fock.mode_map(j, level - k)
        w = (0.5 if j == k else 1.0) * vk * vj[rk]
        hit = np.flatnonzero(w)
        index.append(rj[rk[hit]] * shape[1] + hit)
        weights.append(w[hit])
    flat = np.bincount(np.concatenate(index), np.concatenate(weights), shape[0] * shape[1])
    return flat.reshape(shape)


def apply_virasoro_mode(n: int, v: FockVector) -> FockVector:
    """L_n = (1/2) sum_m :J_{-m} J_{n+m}: through its level blocks; L_0 is the level."""
    if n == 0:
        level = np.repeat(np.arange(v.cutoff + 1), np.diff(fock.basis(v.cutoff).offsets))
        return FockVector(v.cutoff, (level * v.data.T).T)
    return fock.apply_homogeneous(lambda lvl: virasoro_block(n, lvl), n, v)


def apply_stress_circle(f: CircleFourier, v: FockVector) -> FockVector:
    """Smeared stress tensor T(f) = sum_n c_n L_n."""
    return fock.smeared(apply_virasoro_mode, f, v)


def line_derivative_repr(F: LineObject) -> CircleFourier:
    """Circle representative of the line derivative of the pushforward of F.

    For F(t) = ((t^2+1)/2) h(theta(t)) one has F'(t) = t h + h' pointwise on
    the circle; both terms are exact and live on h's modes.
    """
    h = F.circle_repr
    if not isinstance(h, CircleFourier):
        raise TypeError("vector field must carry a Fourier representative")
    return multiply_by_t(h) + derivative(h)


def stress_line_operator(F: LineObject, kappa: float) -> Callable[[FockVector], FockVector]:
    """The perturbed stress tensor T(h) + kappa-scaled J(F') on a vector field,
    as a map of Fock vectors.  F' is computed once, however often the map is
    applied."""
    if F.weight is not Weight.VECTOR_FIELD:
        raise ValueError("the perturbed stress tensor expects a vector field")
    if kappa == 0.0:
        return partial(apply_stress_circle, F.circle_repr)
    phi = line_derivative_repr(F)
    return lambda v: vec_add(apply_stress_circle(F.circle_repr, v),
                             vec_scale(KAPPA_SCALE * kappa, apply_current(phi, v)))


def virasoro_residual(m: int, n: int, N: int, drop_central: bool = False) -> float:
    """Max residual of [L_m, L_n] = (m-n) L_{m+n} + (m^3-m)/12 delta_{m+n,0}.

    The central term is the scalar at c = 1; drop_central omits it for
    mutation testing.
    """
    central = 0.0 if drop_central or m + n != 0 else (m**3 - m) / 12.0
    return fock.bracket_residual(virasoro_block, m, n, lambda lvl: (m - n) * virasoro_block(
        m + n, lvl) + central * np.eye(*virasoro_block(m + n, lvl).shape), N)


def mixed_relation_residual(f: CircleFourier, g: CircleFourier, N: int) -> float:
    """Max residual of [T(f), J(g)] = i J(f g') over the exactness window."""
    # the bracket and J(f g') each move the level by up to Mf + Mg
    window = fock.exactness_window(N, f.max_mode + g.max_mode, f.max_mode + g.max_mode)
    if window < 0:
        raise ValueError("window too small")
    fgp = pointwise_product(f, derivative(g), f.max_mode + g.max_mode)
    T, J, worst = partial(apply_stress_circle, f), partial(apply_current, g), 0.0
    for level in range(window + 1):
        v = fock.identity_batch(N, level)
        r = FockVector(N, T(J(v)).data - J(T(v)).data - 1j * apply_current(fgp, v).data)
        worst = max(worst, float(np.max(fock.column_norms(r) / fock.column_norms(v))))
    return worst


def central_charge_estimate(F: LineObject, G: LineObject, kappa: float, N: int) -> float:
    """Estimate the central charge from the vacuum bracket of stress tensors.

    c_est = 12 * SIGMA_NORM * <vac, [T^k(F), T^k(G)] vac> / (i * int F''' G dt);
    the vacuum expectation of the stress-tensor part of the bracket vanishes,
    leaving the central scalar, whose target value is 1 + kappa^2.  Raises
    ValueError for a pair whose cocycle integral is below 1e-6, or if that
    vacuum amplitude lies outside its exactness window.
    """
    denom = vectorfield_line_integral_f3g(F, G)
    if abs(denom.value) < 1e-6:
        raise ValueError("degenerate test pair: cocycle integral too small")
    # <vac, T(F) T(G) vac> is a sum of level-n terms <vac, L_n L_{-n} vac> and
    # <vac, J_n J_{-n} vac> over the modes n of both fields (F' has F's max
    # mode); mixed terms vanish, as [L_n, J_{-n}] vac = n J_0 vac = 0.  A term
    # is exact iff its level n is at most N.
    reach = min(F.circle_repr.max_mode, G.circle_repr.max_mode)
    if fock.exactness_window(N, reach) < 0:
        raise ValueError(f"cutoff {N} too small: the vacuum amplitude of the bracket is "
                         f"outside its exactness window (it needs cutoff {reach})")
    vac = fock.vacuum(N)
    TF, TG = (stress_line_operator(X, kappa) for X in (F, G))
    num = fock.inner(vac, TF(TG(vac))) - fock.inner(vac, TG(TF(vac)))
    c = 12.0 * SIGMA_NORM * num / (1j * denom.value)
    return float(c.real)


def weyl_adjoint_stress_residual(g: CircleFourier, f: CircleFourier, N: int) -> float:
    """Operator-norm residual of the exponentiated adjoint action on T(f).

    With W(g) = exp(i J(g)) on the truncated space, the identity
    W(g) T(f) W(g)* = T(f) + J(f g') + sigma(f g', g) / (2 * SIGMA_NORM)
    holds on the untruncated domain; the residual is measured on the slab P of
    levels <= N // 2 and converges as N grows.  The 2-norm is unitarily
    invariant and U* P = P times a phase, so the residual R is taken in the real
    gauge J(g) = U A U* of fock._real_gauge (ValueError unless g is real), where
    exp(-i A) acts on the real P; its norm is the root of the top eigenvalue of R* R.
    """
    fgp = pointwise_product(f, derivative(g), f.max_mode + g.max_mode)
    phase, S, W = fock._real_gauge(g, N)
    d = phase[:, None] / np.sqrt(fock.basis(N).norm_sq)[:, None]  # U, then to amplitudes

    def hat(op, h, Y):  # U* op(h) U in the orthonormalized basis, on the columns of Y
        return op(h, FockVector(N, d * Y)).data / d

    P = np.eye(len(d), fock.basis(N).offsets[N // 2 + 1])  # the level slab
    R = fock._exp_gauged(S, W, 1.0, hat(apply_stress_circle, f, fock._exp_gauged(S, W, -1.0, P)))
    R -= hat(apply_stress_circle, f, P)
    R -= hat(apply_current, fgp, P)
    R -= sigma(fgp, g) / (2.0 * SIGMA_NORM) * P
    return math.sqrt(max(np.linalg.eigvalsh(R.conj().T @ R)[-1], 0.0))
