"""Level-truncated charge-zero bosonic Fock space, indexed by part multiplicities.

Basis vectors are integer partitions (parts sorted descending) in level
order; (n_1, ..., n_k) stands for the unnormalized J_{-n_1} ... J_{-n_k} vac.
basis(N) indexes them by one table, counts[i, j] = m_j, the number of parts j
of partition i; the squared norm prod_j j^{m_j} m_j!, the position of a
multiplicity row (Basis.find) and every J_n, from one find, come from it.  A
vector is a numpy array of complex amplitudes over that basis, (dim,) or a
(dim, k) batch.  J_n maps level l to l - n (Kac-Raina, Bombay Lectures, lecture 2).
J_n and J(f) here, and L_n and T(f) in sugawara, have one sparse form: triples
(src, dst, w) over basis(N), column src going to w times row dst, w in the
amplitude basis, so that J_n and L_n have exact integer and half weights.  apply
sums the products w v[src] onto their rows by one scatter; triples are composed
by products.  exp_current gives exp(i t A) X for a Hermitian A, such as J(f) in
the orthonormalized basis, by a Chebyshev series: A is laid out once by rows, and
each step of the series is a few gathers over that layout.

Truncation contract: mode operators never throw past the cutoff; the
overflowing components are dropped.  exactness_window(N, *reach) gives, from
the modes alone, the top input level whose amplitudes stay exact.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .fnspace import CircleFourier

Op = tuple  # (src, dst, w): column src goes to w times row dst; entries may repeat

_EMPTY = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))


def exactness_window(N: int, *reach: int) -> int:
    """Top input level at which operators moving the level by ``reach`` stay below N."""
    return N - sum(abs(r) for r in reach)


@lru_cache(maxsize=None)
def partitions_at(level: int, max_part: int = None) -> tuple:
    """Partitions of one level (none below 0) with parts <= max_part, in basis order."""
    if level <= 0:
        return ((),) if level == 0 else ()
    return tuple((first,) + rest for first in range(min(level, max_part or level), 0, -1)
                 for rest in partitions_at(level - first, first))


class Basis(NamedTuple):
    partitions: tuple
    offsets: np.ndarray  # level l occupies [offsets[l], offsets[l + 1])
    counts: np.ndarray  # (dim, N + 1) uint8: counts[i, j] = m_j, the parts j in partition i
    norm_sq: np.ndarray  # prod_j j^{m_j} m_j!, exact where below 2^53
    keys: np.ndarray  # the rows of counts as byte strings, sorted
    order: np.ndarray  # keys[k] is the row of partition order[k]

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Positions of the partitions with multiplicity rows ``rows``; ValueError for a
        row that is no partition of the basis."""
        keys = _row_keys(rows)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        if np.any(self.keys[at] != keys):
            raise ValueError("partition not in the basis")
        return self.order[at]


def _row_keys(rows: np.ndarray) -> np.ndarray:  # rows as byte strings, which sort and compare
    return np.ascontiguousarray(rows, dtype=np.uint8).view(f"V{np.shape(rows)[1]}")[:, 0]


@lru_cache(maxsize=None)
def basis(N: int) -> Basis:
    parts = tuple(p for lvl in range(N + 1) for p in partitions_at(lvl))
    # multiplicities are at most N, far below 256 for any basis that fits in memory
    at = (np.repeat(np.arange(len(parts)) * (N + 1), [len(p) for p in parts])
          + np.fromiter(chain.from_iterable(parts), dtype=int))
    counts = np.bincount(at, minlength=len(parts) * (N + 1)).astype(np.uint8).reshape(-1, N + 1)
    factor = np.array([[float(j**m * math.factorial(m)) for m in range(N + 1)]
                       for j in range(N + 1)])  # j^m m!
    keys = _row_keys(counts)
    order = np.argsort(keys)
    return Basis(parts, np.cumsum([0] + [len(partitions_at(lvl)) for lvl in range(N + 1)]),
                 counts, np.prod(factor[np.arange(N + 1), counts], axis=1), keys[order], order)


def basis_partitions(N: int) -> tuple:
    """All partitions of level 0..N, ordered by level."""
    return basis(N).partitions


@lru_cache(maxsize=None)
def _modes(N: int) -> tuple:
    """J_n for n > 0, each partition with m_n > 0 to n m_n times it less a part n, and J_{-n},
    its transpose with weight 1 sorted by src: triples stacked by n, and where each n starts."""
    counts = basis(N).counts
    n, src = np.nonzero(counts.T)  # by part, then src ascending; no partition has a part 0
    dst = basis(N).find(counts[src] - np.eye(N + 1, dtype=np.uint8)[n])
    order = np.lexsort((dst, n))
    return (np.searchsorted(n, np.arange(N + 2)), (src, dst, n * counts[src, n].astype(float)),
            (dst[order], src[order], np.ones(len(src))))


def mode_triples(n: int, N: int) -> Op:
    """J_n on basis(N), truncated at N; src ascending, dst without repeats."""
    if abs(n) > N:  # no partition of level <= N has a part |n|
        return _EMPTY
    ends, down, up = _modes(N)
    return tuple(a[ends[abs(n)]:ends[abs(n) + 1]] for a in (up if n < 0 else down))


def concat(ops) -> Op:
    """The sum of the operators in ops, their triples side by side."""
    return tuple(map(np.concatenate, zip(_EMPTY, *ops)))


def scaled(c, op: Op) -> Op:
    return op[0], op[1], c * op[2]


def identity(N: int, c) -> Op:
    """c times the identity on basis(N)."""
    diag = np.arange(basis(N).offsets[-1])
    return diag, diag, np.full(len(diag), c, dtype=np.result_type(c, 1.0))


def smear(op, f: CircleFourier, N: int) -> Op:
    """sum_n c_n op(n, N) over the modes n of f."""
    return concat([scaled(f.coeff(n), op(n, N)) for n in range(-f.max_mode, f.max_mode + 1)
                   if f.coeff(n) != 0])


def rescaled(op: Op, e: np.ndarray) -> Op:
    """op in the coordinates e x of an amplitude vector x: w becomes w e[dst] / e[src]."""
    src, dst, w = op
    return src, dst, w * e[dst] / e[src]


def product(A: Op, B: Op) -> Op:
    """A B, B applied first: each entry of B followed by every entry of A at its row."""
    (sa, da, wa), (sb, db, wb) = A, B
    order = np.argsort(sa, kind="stable")
    lo, hi = (np.searchsorted(sa, db, side, sorter=order) for side in ("left", "right"))
    count = hi - lo
    ib = np.repeat(np.arange(len(db)), count)
    ia = order[np.arange(len(ib)) + np.repeat(lo - np.cumsum(count) + count, count)]
    return sb[ib], da[ia], wa[ia] * wb[ib]


def merge(op: Op, dim: int) -> Op:
    """op with the weights of each (src, dst) summed into one entry, ordered by (dst, src)."""
    src, dst, w = op
    key, inv = np.unique(dst * dim + src, return_inverse=True)
    out = np.zeros(len(key), dtype=w.dtype)
    out.real = np.bincount(inv, w.real, len(key))  # sums in order, as np.add.at does
    if np.iscomplexobj(w):
        out.imag = np.bincount(inv, w.imag, len(key))
    return key % dim, key // dim, out


def vacuum(N: int) -> np.ndarray:
    if N < 0:
        raise ValueError("cutoff must be >= 0")
    return np.eye(1, len(basis(N).norm_sq), dtype=complex)[0]


def apply(op: Op, x: np.ndarray) -> np.ndarray:
    """The operator with triples op applied to the amplitudes x, (dim,) or (dim, k), by one
    scatter: the products w x[src] summed onto their rows dst in op order; IndexError off
    the basis."""
    src, dst, w = op
    cols = x.reshape(len(x), -1)
    dim, k = cols.shape
    if np.max(dst, initial=-1) >= dim:  # bincount would lengthen the vector, not refuse
        raise IndexError("an entry of the operator maps past the basis")
    terms = cols[src].astype(complex, copy=False)  # w x[src], one row per entry
    terms *= w[:, None]
    at = (dst[:, None] * k + np.arange(k)).ravel()  # the place of each product in out
    out = np.empty(dim * k, dtype=complex)
    out.real, out.imag = (np.bincount(at, p.ravel(), dim * k) for p in (terms.real, terms.imag))
    return out.reshape(x.shape)


def _norm_sq(N: int, *vs: np.ndarray) -> np.ndarray:
    """The squared norms of basis(N); ValueError for a batch or a vector of another length."""
    norm_sq = basis(N).norm_sq
    if any(np.ndim(v) != 1 or len(v) != len(norm_sq) for v in vs):
        raise ValueError(f"a vector is not 1-d or not the dimension {len(norm_sq)} of cutoff {N}")
    return norm_sq


def inner(u: np.ndarray, v: np.ndarray, N: int) -> complex:
    return complex(np.vdot(u, _norm_sq(N, u, v) * v))


def norm(v: np.ndarray, N: int) -> float:
    return float(np.sqrt((_norm_sq(N, v) * np.abs(v) ** 2).sum()))


def bracket_residual(A: Op, B: Op, rhs: Op, window: int, N: int) -> float:
    """Largest relative norm of ([A, B] - rhs) e over the basis vectors e of the
    levels <= window, from the merged triples of A B - B A - rhs on those columns."""
    if window < 0:
        raise ValueError("window too small")
    top, norm_sq = basis(N).offsets[window + 1], basis(N).norm_sq

    def cols(op):  # op on the basis vectors of the window
        return tuple(a[op[0] < top] for a in op)

    src, dst, r = merge(concat([product(A, cols(B)), scaled(-1, product(B, cols(A))),
                                scaled(-1, cols(rhs))]), len(norm_sq))
    worst = np.bincount(src, norm_sq[dst] * np.abs(r) ** 2, minlength=top) / norm_sq[:top]
    return math.sqrt(np.max(worst, initial=0.0))


def heisenberg_residual(m: int, n: int, N: int) -> float:
    """Max residual of [J_m, J_n] = m delta_{m+n,0} over the exactness window."""
    return bracket_residual(mode_triples(m, N), mode_triples(n, N),
                            identity(N, m if m + n == 0 else 0), exactness_window(N, m, n), N)


def _tail_degree(z: float) -> int:
    """Least K with 2 sum_{k>K} (|z|/2)^k / k! <= 2^-53.

    The sum bounds 2 sum_{k>K} |J_k(z)| for real z (DLMF 10.14.4), the error of
    the Jacobi-Anger series of exp(i z x) cut after T_K, for |x| <= 1.
    """
    h = abs(z) / 2
    if h == 0:
        return 0
    # beyond the last k the terms are below 2^-89 and shrink by a factor 2e or more per step
    k = np.arange(1, math.ceil(2 * math.e * h) + 90)
    log_terms = k * math.log(h) - np.cumsum(np.log(k))
    # a term above 1 only occurs in tails far above 2^-53, so capping it decides nothing
    tails = np.append(np.cumsum(np.exp(np.minimum(log_terms, 0.0))[::-1])[::-1], 0.0)
    return int(np.argmax(2 * tails <= 2.0**-53))


def exp_current(A: Op, t: float, X: np.ndarray) -> np.ndarray:
    """exp(i t A) X for the triples A of a Hermitian operator over the basis that the
    columns X run over, such as J(f) rescaled to the orthonormalized basis.

    ||A|| <= b, its largest absolute row sum, and exp(i t A) is the Chebyshev series
    sum_k eps_k i^k J_k(z) T_k(A / b), z = t b (Jacobi-Anger; Tal-Ezer and Kosloff,
    J. Chem. Phys. 81, 3967, 1984), cut at the degree _tail_degree(z) fixed in
    advance.  2 A / b is laid out once by rows, by falling entry count, so that the r-th
    entries of the rows in op order fill the first rows; each step T_k = 2 (A / b)
    T_{k-1} - T_{k-2} on the columns of X is one gather per rank, in apply's order.
    IndexError for an entry off the basis; ArithmeticError for a non-finite result.
    """
    src, dst, w = A
    per_row = np.bincount(dst, minlength=len(X))
    b = np.max(np.bincount(dst, np.abs(w), len(X)), initial=0.0)
    K = _tail_degree(t * b)
    M = 2 * K + 2  # FFT length: the aliases k +- M of each k <= K lie past K, in the tail bound
    coef = np.fft.fft(np.exp(1j * t * b * np.cos(2 * np.pi * np.arange(M) / M)))[:K + 1] / M
    coef[1:] *= 2  # now eps_k i^k J_k(t b)
    perm = np.argsort(-per_row, kind="stable")  # past the basis, X[perm] raises IndexError
    at = np.argsort(perm)  # row d is row at[d] of the layout
    order = np.argsort(dst, kind="stable")
    rank = np.arange(len(dst)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    order = order[np.lexsort((at[dst[order]], rank))]  # by rank, then by layout row
    ends = np.cumsum(np.bincount(rank))[:-1]
    ranks = list(zip(np.split(at[src[order]], ends), np.split(2 / (b or 1.0) * w[order], ends)))

    def step(V):  # 2 A V / b on the layout's rows
        out = np.zeros(V.shape, dtype=complex)
        for i, c in ranks:
            out[:len(i)] += V[i] * c[:, None]
        return out

    cur = X.reshape(len(X), -1)[perm]  # T_0 X on the layout's rows
    Y = coef[0] * cur
    for k in range(1, K + 1):
        last, cur = cur, step(cur) / 2 if k == 1 else step(cur) - last
        Y += coef[k] * cur
    if not np.all(np.isfinite(Y)):
        raise ArithmeticError("exp(i t J(f)) did not converge: the series is not finite")
    return Y[at].reshape(X.shape)
