"""Virasoro modes via the normal-ordered quadratic (Sugawara) construction.

L_n is the finite sum over index pairs j <= k, j + k = n, of J_j J_k: the
merged products of the J triples of fock, whose weights, and so the algebra
checks, are exact.  The perturbed stress tensor couples its current term with
KAPPA_SCALE * kappa, so that its central charge is exactly 1 + kappa^2.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from . import fock
from .fnspace import (SIGMA_NORM, CircleFourier, derivative, multiply_by_t, pointwise_product,
                      sigma, vectorfield_line_integral_f3g)
from .fock import FockVector, mode_triples, smear

# Coupling of the current term in the perturbed stress tensor; with
# [J_m, J_n] = m delta the perturbation (kappa/sqrt(12)) J(f') shifts the
# central charge from 1 to exactly 1 + kappa^2.
KAPPA_SCALE = 1.0 / math.sqrt(12.0)


@lru_cache(maxsize=None)
def virasoro_triples(n: int, N: int) -> fock.Op:
    """L_n on basis(N), truncated at N, as merged triples.

    L_n = sum weight J_j J_k over k >= j, j + k = n, j and k nonzero, with
    weight 1/2 iff j = k, and J_k applied first.  Truncating J_k at N drops
    nothing that J_j would keep, since the middle level is never above the
    last.  The weights are sums of small integers and halves, hence exact.  All
    pairs are one product, the middle row of pair t offset by t dim.
    """
    dim = fock.basis(N).offsets[-1]
    ks = [k for k in range(-((-n) // 2), N + 1) if k and n - k]
    A = fock.concat([(s + t * dim, d, w) for t, k in enumerate(ks)
                     for s, d, w in [mode_triples(n - k, N)]])
    B = fock.concat([(s, d + t * dim, (0.5 if 2 * k == n else 1.0) * w) for t, k in enumerate(ks)
                     for s, d, w in [mode_triples(k, N)]])
    return fock.merge(fock.product(A, B), dim)


def apply_virasoro_mode(n: int, v: FockVector) -> FockVector:
    """L_n = (1/2) sum_m :J_{-m} J_{n+m}:; L_0 is the level."""
    return fock.apply(virasoro_triples(n, v.cutoff), v)


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
    num = (fock.inner(vac, fock.apply(TF, fock.apply(TG, vac)))
           - fock.inner(vac, fock.apply(TG, fock.apply(TF, vac))))
    c = 12.0 * SIGMA_NORM * num / (1j * denom)
    return float(c.real)


def weyl_adjoint_stress_residual(g: CircleFourier, f: CircleFourier, N: int) -> float:
    """Operator-norm residual of the exponentiated adjoint action on T(f).

    With W(g) = exp(i J(g)) on the truncated space, the identity
    W(g) T(f) W(g)* = T(f) + J(f g') + sigma(f g', g) / (2 * SIGMA_NORM)
    holds on the untruncated domain; the residual is measured on the slab P of
    levels <= N // 2 and converges as N grows.  The 2-norm is unitarily
    invariant and U* P = P times a phase, so the residual is taken in the real
    gauge J(g) = U A U* of fock._real_gauge, on the rows sorted by
    fock.spectators, where exp(i A) is one dense block E_r per budget r, and as
    W* R = T(f) W*P - W* X P, with X = T(f) + J(f g') + the scalar.  A row's
    local level is that of its parts <= m, g's top mode, and X raises it by at
    most max(min(F, 2 m), m), F f's top mode: J(f g') creates at most one part
    and an L_n of T(f) one part in place of another, each adding at most m, or,
    for n < 0, two parts of sum -n <= F, adding at most min(F, 2 m).  So W* X P
    reads only the first k columns of each E_r, k the spectator-free rows of
    level <= N // 2 + that lift; exp_blocks yields no others.  W*P = exp(-i A) P is held as its entries: column j is
    conj E_r[:, local j] on the rows of j's spectator, read from the first chunk
    that exp_blocks yields, which has every local row of P.  T(f) and X are their
    triples carried into that gauge, built after that chunk.  The rows Y_r of
    T(f) W*P in budget r are the product of T(f)'s entries into them with those of
    W*P, scattered into one (d_r n_r, slab) block (_stress_rows).  From Y_r each
    chunk of columns c, c + 1, ... of E_r subtracts conj E_r[:, chunk] times the
    rows of X P with those local rows, and once E_r has no chunk to come Y_r is
    the budget's rows of W* R.  The norm is the root of the top eigenvalue of
    R* R, summed over the budgets as they are done.  So neither W*P nor R is held
    whole, and T(f) W*P only in the budgets whose E_r comes in more than one chunk.
    """
    if N < 0:
        raise ValueError("cutoff must be >= 0")
    m = min(g.max_mode, N)
    phase, S, W = fock._real_gauge(g, N)
    sp = fock.spectators(N, m)
    off = fock.basis(N).offsets
    slab = off[N // 2 + 1]
    top = min(N // 2 + max(min(f.max_mode, 2 * m), m), N)  # the top local level of X P
    k = np.count_nonzero(sp.budget[:off[top + 1]] == len(sp.sizes) - 1)  # free rows to top
    cells = len(phase) * slab  # the series' chunk, and the cap on a chunk of products
    start = np.cumsum(sp.sizes * sp.counts) - sp.sizes * sp.counts  # the first row of each budget
    G = np.zeros((slab, slab), dtype=complex)
    kept = {}  # Y_r of the budgets whose E_r has chunks to come
    blocks = sp.exp_blocks(S, W, 1.0, cells, k)
    del S, W  # exp_blocks frees the gather once it holds the direct sum of the blocks
    for c, Es in blocks:
        if c == 0:  # T(f) is built once the series' temporaries are gone
            T, (src, dst, w), first = _weyl_operands(g, f, N, sp, phase, start)
            col_first = first[sp.pos[:slab]]  # the first row of each column's spectator
            cols = (col_first, sp.sizes[sp.budget[:slab]],
                    np.bincount(col_first, minlength=len(first)))
            # a chunk of W*P is built once for every budget when all of P is one chunk
            wsp = lru_cache(maxsize=1)(partial(_wsp_entries, sp, Es, col_first))
        for r, (E, d, n, a) in enumerate(zip(Es, sp.sizes, sp.counts, start)):
            if E.shape[1] == 0:  # E_r ended in an earlier chunk
                continue
            Y = kept.pop(r) if c else _stress_rows(T, wsp, first, cols, cells, a, d * n)
            lo, hi = np.searchsorted(dst, (a + c * n, a + (c + E.shape[1]) * n))
            XP = np.zeros((E.shape[1] * n, slab), dtype=complex)  # the rows of this chunk
            np.add.at(XP, (dst[lo:hi] - a - c * n, src[lo:hi]), w[lo:hi])
            Y.reshape(d, -1)[:] -= E.conj() @ XP.reshape(E.shape[1], -1)
            if c + E.shape[1] < min(d, k):
                kept[r] = Y
            else:
                G += Y.conj().T @ Y
        if c == 0:  # the later chunks read only the rows kept
            del T, wsp
        del Es, E, XP, Y  # free the table and the rows before the next chunk is built
    return math.sqrt(max(np.linalg.eigvalsh(G)[-1], 0.0))


def _weyl_operands(g: CircleFourier, f: CircleFourier, N: int, sp: fock.Spectators,
                   phase: np.ndarray, start: np.ndarray) -> tuple:
    """For weyl_adjoint_stress_residual: T(f) in the real gauge on the sorted rows,
    ordered by dst; the entries on P of X = T(f) + J(f g') + the scalar, ordered by
    dst, a sorted row; and the first sorted row of each sorted row's spectator."""
    fgp = pointwise_product(f, derivative(g), f.max_mode + g.max_mode)
    e = np.sqrt(fock.basis(N).norm_sq) / phase  # amplitudes to U* in the orthonormalized basis
    T = fock.rescaled(smear(virasoro_triples, f, N), e)
    src, dst, w = fock.concat([T, fock.rescaled(smear(mode_triples, fgp, N), e),
                               fock.identity(N, sigma(fgp, g) / (2.0 * SIGMA_NORM))])
    on = np.flatnonzero(src < fock.basis(N).offsets[N // 2 + 1])
    on = on[np.argsort(sp.pos[dst[on]], kind="stable")]  # by sorted row
    order = np.argsort(sp.pos[T[1]], kind="stable")
    a, n = start[sp.budget], sp.counts[sp.budget]
    first = np.empty(len(e), dtype=int)
    first[sp.pos] = a + (sp.pos - a) % n  # row a_r + i n_r + s has spectator s
    return (tuple(x[order] for x in (sp.pos[T[0]], sp.pos[T[1]], T[2])),
            (src[on], sp.pos[dst[on]], w[on]), first)


def _wsp_entries(sp: fock.Spectators, Es: list, col_first: np.ndarray, j0: int,
                 j1: int) -> fock.Op:
    """The entries of W*P in P's columns [j0, j1), sorted by dst, a sorted row: column
    j is conj E_r[:, local j] on the rows col_first[j] + i n_r of j's spectator, E_r
    from the first chunk."""
    j = np.arange(j0, j1)
    parts = []
    for r in np.flatnonzero(np.bincount(sp.budget[j])):
        J = j[sp.budget[j] == r]
        J = J[np.argsort(col_first[J], kind="stable")]  # by spectator: the rows ascend
        rows = col_first[J] + np.arange(sp.sizes[r])[:, None] * sp.counts[r]
        parts.append((np.broadcast_to(J, rows.shape).ravel(), rows.ravel(),
                      Es[r][:, sp.local[J]].conj().ravel()))
    return fock.concat(parts)


def _stress_rows(T: fock.Op, wsp, first: np.ndarray, cols: tuple, cells: int, a: int,
                 rows: int) -> np.ndarray:
    """Y, the sorted rows [a, a + rows) of T(f) W*P: the entries A of T(f) into them
    times those of W*P, wsp(j0, j1) for P's columns [j0, j1), summed into Y one chunk
    of columns at a time.  Column j of W*P has cols[1][j] entries, on the rows of the
    spectator whose first row is cols[0][j], and the product meets them with the
    entries of A out of those rows; cols[2] counts the columns on each spectator.  A
    chunk's entries of W*P and of the product, triples of two cells' bytes each, fill
    at most ``cells`` cells, past the column that reaches the cap."""
    lo, hi = np.searchsorted(T[1], (a, a + rows))
    A = tuple(x[lo:hi] for x in T)
    slab, reads = len(cols[0]), first[A[0]]  # the spectators of the rows that A reads
    if 2 * (cols[1].sum() + cols[2][reads].sum()) <= cells:  # all of P in one chunk
        edges = []
    else:
        cost = cols[1] + np.bincount(reads, minlength=len(first))[cols[0]]
        edges = np.flatnonzero(np.diff(2 * (np.cumsum(cost) - cost) // cells)) + 1
    Y = np.zeros((rows, slab), dtype=complex)
    span = A[0].min(initial=len(first)), A[0].max(initial=-1) + 1  # the rows that A reads
    for j0, j1 in zip([0, *edges], [*edges, slab]):
        B = wsp(j0, j1)
        src, dst, w = fock.product(A, tuple(x[slice(*np.searchsorted(B[1], span))] for x in B))
        np.add.at(Y.reshape(-1), (dst - a) * slab + src, w)
        del B, src, dst, w  # before the next chunk's product
    return Y
