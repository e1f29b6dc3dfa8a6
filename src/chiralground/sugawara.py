"""Virasoro modes via the normal-ordered quadratic (Sugawara) construction.

L_n is the finite sum over index pairs j <= k, j + k = n, of J_j J_k, built
from the J triples of fock and its raise map, on every column or on those with
parts <= max_part alone; its weights, and so the algebra checks, are exact.  The
perturbed stress tensor couples its current term with KAPPA_SCALE * kappa, so
that its central charge is exactly 1 + kappa^2.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import fock
from .fnspace import (SIGMA_NORM, CircleFourier, derivative, multiply_by_t, pointwise_product,
                      sigma, vectorfield_line_integral_f3g)
from .fock import mode_triples, smear

# Coupling of the current term in the perturbed stress tensor; with
# [J_m, J_n] = m delta the perturbation (kappa/sqrt(12)) J(f') shifts the
# central charge from 1 to exactly 1 + kappa^2.
KAPPA_SCALE = 1.0 / math.sqrt(12.0)

# The Weyl adjoint residual is taken on the basis vectors of the levels <= WEYL_SLAB:
# vac, J_{-1} vac, J_{-1}^2 vac and J_{-2} vac.
WEYL_SLAB = 2


def virasoro_triples(n: int, N: int, max_part: int | None = None) -> fock.Op:
    """L_n on basis(N, max_part), truncated at N, as triples by (dst, src), each (src, dst) once.

    L_n = sum weight J_j J_k over k >= j, j + k = n, j and k nonzero, with
    weight 1/2 iff j = k, and J_k applied first.  Truncating J_k at N drops
    nothing that J_j would keep, since the middle level is never above the
    last.  L_0 is the level operator.  For n != 0 no two pairs meet at one
    (src, dst), so the triples are the entries of the pairs side by side, sorted:
    the pairs J_{c-n} J_c with c > 0 and c > n raise the middle rows of the slice
    of J_c by a part c - n through the raise map fock.basis(N, max_part).up, and the at most
    |n|/2 pairs whose modes both lower or both raise run through that map from the
    lower row.  The weights are products of small integers and halves, hence exact.
    With max_part, P_R L_n P_R on the modes <= R: J_c for c <= R alone, a raise past R dropped
    as one past N is; the full triples on the rows and columns with parts <= R, in order.
    """
    return _virasoro(n, N, fock.top_part(N, max_part))


@lru_cache(maxsize=None)
def _virasoro(n: int, N: int, R: int) -> fock.Op:
    offsets, counts, _, up = fock.basis(N, R)
    dim = len(counts)
    if abs(n) > N:  # no level <= N reaches another by |n|
        return fock.concat([])
    if n == 0:  # sum_k J_{-k} J_k = sum_k k m_k: the level, on every partition but the vacuum
        src = dst = np.arange(1, dim)
        w = np.repeat(np.arange(N + 1.0), np.diff(offsets))[1:]
    else:
        # J_{c-n} J_c for c > 0 and c > n: the slice of J_c, each middle row raised by c - n
        (src, mid, w), c = fock.lowering(max(1, n + 1), min(N, N + n), N, R)
        dst = up[c - n, mid]
    if abs(n) >= 2:  # else no such pair
        # J_a J_b for n > 0, J_{-a} J_{-b} for n < 0, a <= b = |n| - a: the slice of J_a,
        # from between down to low, with between raised by b to high
        (between, low, wa), a = fock.lowering(1, abs(n) // 2, N, R)
        high = up[abs(n) - a, between]
        on = high < dim
        low, high, wa, a = low[on], high[on], wa[on], a[on]
        b = abs(n) - a
        half = np.where(a == b, 0.5, 1.0)
        pairs = (high, low, half * wa * (b * counts[high, b])) if n > 0 else (low, high, half)
        src, dst, w = (np.concatenate(x) for x in zip((src, dst, w), pairs))
    on = dst < dim  # raised past level N or past the part R
    src, dst, w = src[on], dst[on].astype(int), w[on]  # int rows, as in J_n, and no overflow below
    # the keys are distinct, so any sort gives this order; each c's entries ascend, a run that
    # the stable sort merges
    order = np.argsort(dst * dim + src, kind="stable")
    return src[order], dst[order], w[order]


virasoro_triples.cache_clear = _virasoro.cache_clear


def line_derivative_repr(h: CircleFourier) -> CircleFourier:
    """Circle representative of the line derivative of the vector field of h.

    For F(t) = ((t^2+1)/2) h(theta(t)) one has F'(t) = t h + h' pointwise on
    the circle; both terms are exact and live on h's modes.
    """
    if not isinstance(h, CircleFourier):
        raise TypeError("vector field must carry a Fourier representative")
    return multiply_by_t(h) + derivative(h)


def stress_line_triples(h: CircleFourier, kappa: float, N: int) -> fock.Op:
    """The perturbed stress tensor T(h) + kappa-scaled J(F') on the vector field F
    of h, as triples over basis(N); F' is computed only for kappa != 0."""
    T = smear(virasoro_triples, h, N)
    if kappa == 0.0:
        return T
    return fock.concat([T, fock.scaled(KAPPA_SCALE * kappa,
                                       smear(mode_triples, line_derivative_repr(h), N))])


def virasoro_residual(m: int, n: int, N: int, drop_central: bool = False) -> float:
    """Max residual of [L_m, L_n] = (m-n) L_{m+n} + (m^3-m)/12 delta_{m+n,0}.

    The central term is the scalar at c = 1; drop_central omits it for
    mutation testing.
    """
    central = 0.0 if drop_central or m + n != 0 else (m**3 - m) / 12.0
    rhs = fock.concat([fock.scaled(m - n, virasoro_triples(m + n, N)), fock.identity(N, central)])
    return fock.bracket_residual(virasoro_triples(m, N), virasoro_triples(n, N), rhs,
                                 fock.exactness_window(N, m, n), N)


def mixed_relation_residual(f: CircleFourier, g: CircleFourier, N: int) -> float:
    """Max residual of [T(f), J(g)] = i J(f g') over the exactness window."""
    # the bracket and J(f g') each move the level by up to Mf + Mg
    reach = f.max_mode + g.max_mode
    fgp = pointwise_product(f, derivative(g), reach)
    return fock.bracket_residual(smear(virasoro_triples, f, N), smear(mode_triples, g, N),
                                 fock.scaled(1j, smear(mode_triples, fgp, N)),
                                 fock.exactness_window(N, reach, reach), N)


def central_charge_estimate(F: CircleFourier, G: CircleFourier, kappa: float, N: int) -> float:
    """Estimate the central charge from the vacuum bracket of stress tensors
    on the vector fields of representatives F and G.

    c_est = 12 * SIGMA_NORM * <vac, [T^k(F), T^k(G)] vac> / (i * int F''' G dt);
    the vacuum expectation of the stress-tensor part of the bracket vanishes,
    leaving the central scalar, whose target value is 1 + kappa^2.  Raises
    ValueError for a pair whose cocycle integral is below 1e-6, or if that
    vacuum amplitude lies outside its exactness window.
    """
    denom = vectorfield_line_integral_f3g(F, G)
    if abs(denom) < 1e-6:
        raise ValueError("degenerate test pair: cocycle integral too small")
    # <vac, T(F) T(G) vac> is a sum of level-n terms <vac, L_n L_{-n} vac> and
    # <vac, J_n J_{-n} vac> over the modes n of both fields (F' has F's max
    # mode); mixed terms vanish, as [L_n, J_{-n}] vac = n J_0 vac = 0.  No term lies
    # above the reach, so every cutoff N >= reach gives the amplitude at cutoff reach.
    reach = min(F.max_mode, G.max_mode)
    if fock.exactness_window(N, reach) < 0:
        raise ValueError(f"cutoff {N} too small: the vacuum amplitude of the bracket is "
                         f"outside its exactness window (it needs cutoff {reach})")
    vac = fock.vacuum(reach)
    TF, TG = (stress_line_triples(X, kappa, reach) for X in (F, G))
    # <vac, x> is x[0]: the vacuum is the first basis vector, of norm 1
    num = fock.apply(TF, fock.apply(TG, vac))[0] - fock.apply(TG, fock.apply(TF, vac))[0]
    c = 12.0 * SIGMA_NORM * num / (1j * denom)
    return float(c.real)


def weyl_adjoint_stress_residual(g: CircleFourier, f: CircleFourier, N: int) -> float:
    """Operator-norm residual of the exponentiated adjoint action on T(f).

    With W(g) = exp(i J(g)) on the untruncated space, the identity
    W(g) T(f) W(g)* = T(f) + J(f g') + sigma(f g', g) / (2 * SIGMA_NORM)
    holds on its domain; the residual is measured on the fixed slab P of levels
    <= WEYL_SLAB, with W* compressed to the levels <= N, and converges as N grows.
    In the orthonormalized basis it is ||T(f) P_N W* P - P_N W* P_N X P||, with
    X = T(f) + J(f g') + the scalar: one fock.weyl of -g on the stacked columns [P | X P].
    W* moves only the parts <= M_g, g's top mode, so P_N W* P has parts <= max(M_g, WEYL_SLAB);
    T(f) and J(f g') add a part <= M_f + max(M_g, 2), and W* keeps the parts above M_g, so X P
    and W* X P too lie on basis(N, R), R = max(M_g, WEYL_SLAB) + M_f, the modes <= R: the
    residual there is the one on basis(N) without its zero rows.  X P is read off the k slab
    columns of X, those of J(f g') a prefix of each J_n's triples, its products (1 / e[src]) w
    summed onto (dst, src) in op order.
    """
    if N < 0:
        raise ValueError("cutoff must be >= 0")
    R = max(g.max_mode, WEYL_SLAB) + f.max_mode
    fgp = pointwise_product(f, derivative(g), f.max_mode + g.max_mode)
    b = fock.basis(N, R)
    e = np.sqrt(b.norm_sq)[:, None]  # triples act on orthonormal Y as e A(Y / e)
    T = smear(virasoro_triples, f, N, R)
    k = b.offsets[min(WEYL_SLAB, N) + 1]
    P = np.eye(len(e), k, dtype=complex)
    src, dst, w = fock.concat([fock.columns(T, k), fock.current_columns(fgp, N, R, k)])
    w = (1 / e[src, 0]) * w
    XP = np.zeros(P.shape, dtype=complex)
    at = dst * k + src  # the flat index of (dst, src); bincount sums in op order
    XP.real, XP.imag = (np.bincount(at, part, P.size).reshape(P.shape) for part in (w.real, w.imag))
    XP = e * XP + sigma(fgp, g) / (2.0 * SIGMA_NORM) * P
    Ws = fock.weyl(g.scale(-1.0), np.hstack([P, XP]), N, R)  # [W* P | W* X P]
    return float(np.linalg.norm(e * fock.apply(T, Ws[:, :k] / e) - Ws[:, k:], ord=2))
