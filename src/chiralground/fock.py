"""Level-truncated charge-zero bosonic Fock space, indexed by part multiplicities.

Basis vectors are integer partitions (parts sorted descending) in level
order; (n_1, ..., n_k) stands for the unnormalized J_{-n_1} ... J_{-n_k} vac.
basis(N) indexes them by one table, counts[i, j] = m_j, the number of parts j
of partition i; the squared norm prod_j j^{m_j} m_j!, the position of a
multiplicity row (Basis.find) and every J_n, from one find, come from it.  A
FockVector holds complex amplitudes over that basis, one column or a batch.
J_n maps level l to l - n (Kac-Raina, Bombay Lectures, lecture 2).  J_n and
J(f) here, and L_n and T(f) in sugawara, have one sparse form: triples (src,
dst, w) over basis(N), column src going to w times row dst, w in the amplitude
basis, so that J_n and L_n have exact integer and half weights.  A vector is
applied by one scatter of the entries, the products w v[src] summed onto their
rows.  Triples are composed by products, which is also how the Weyl path
applies T(f) to exp(-i J(g)) P, held as its entries.  In the orthonormalized
basis, gauged to make J(f) real symmetric, J(f) changes only the parts up to
f's top mode: one small block per budget (spectators); _exp_gauged gives every
block's exp(i t J(f)), complex symmetric, at once, by a Chebyshev series that
applies J(f) as a fixed-width gather, a block of rows at a time, which bounds
its temporaries.  Spectators.exp_blocks runs it on the first k columns of the
blocks only, the columns that the Weyl path reads.

Truncation contract: mode operators never throw past the cutoff; the
overflowing components are dropped.  exactness_window(N, *reach) gives, from
the modes alone, the top input level whose amplitudes stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .fnspace import CircleFourier

Op = tuple  # (src, dst, w): column src goes to w times row dst; entries may repeat

GATHER_ENTRIES = 512  # gathered entries (rows x width) per row block: caps a gather's temporary
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


def gather(op: Op, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """op as a fixed-width gather (S, W): row r of op Z is sum_k W[r, k] Z[S[r, k]].
    A row keeps its entries in the order of op; zero weights pad a short row."""
    src, dst, w = op
    order = np.argsort(dst, kind="stable")
    count = np.bincount(dst, minlength=dim)
    slot = np.arange(len(dst)) - np.repeat(np.cumsum(count) - count, count)
    S = np.zeros((dim, np.max(count, initial=0)), dtype=int)
    W = np.zeros(S.shape, dtype=w.dtype)
    S[dst[order], slot], W[dst[order], slot] = src[order], w[order]
    return S, W


def _row_blocks(S: np.ndarray):
    """Slices of the rows of a gather, each gathering at most GATHER_ENTRIES entries per column."""
    step = max(1, GATHER_ENTRIES // max(S.shape[1], 1))
    return (slice(r, r + step) for r in range(0, len(S), step))


def _gathered(S: np.ndarray, W: np.ndarray, Z: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of the gather (S, W) applied to the columns of Z."""
    return np.matmul(W[rows, None], Z[S[rows]])[:, 0]


@dataclass(frozen=True, eq=False)
class FockVector:
    """Amplitudes over basis_partitions(cutoff): data is (dim,) or a (dim, k) batch."""

    cutoff: int
    data: np.ndarray


def vacuum(N: int) -> FockVector:
    if N < 0:
        raise ValueError("cutoff must be >= 0")
    return FockVector(N, np.eye(1, len(basis(N).norm_sq), dtype=complex)[0])


def apply(op: Op, v: FockVector) -> FockVector:
    """The operator with triples op over basis(v.cutoff), applied to v by one scatter: the
    products w v[src] summed onto their rows dst in op order; IndexError off the basis."""
    src, dst, w = op
    x = v.data.reshape(len(v.data), -1)
    dim, k = x.shape
    if np.max(dst, initial=-1) >= dim:  # bincount would lengthen the vector, not refuse
        raise IndexError("an entry of the operator maps past the basis")
    terms = x[src].astype(complex, copy=False)  # w v[src], one row per entry
    terms *= w[:, None]
    at = (dst[:, None] * k + np.arange(k)).ravel()  # the place of each product in out
    out = np.empty(dim * k, dtype=complex)
    out.real, out.imag = (np.bincount(at, p.ravel(), dim * k) for p in (terms.real, terms.imag))
    return FockVector(v.cutoff, out.reshape(v.data.shape))


def apply_mode(n: int, v: FockVector) -> FockVector:
    """Current mode J_n: creation for n < 0, annihilation for n > 0, zero for n = 0."""
    return apply(mode_triples(n, v.cutoff), v)


def apply_current(f: CircleFourier, v: FockVector) -> FockVector:
    """Smeared current J(f) = sum_n c_n J_n."""
    return apply(smear(mode_triples, f, v.cutoff), v)


def inner(u: FockVector, v: FockVector) -> complex:
    if u.cutoff != v.cutoff:
        raise ValueError("cutoff mismatch")
    return complex(np.vdot(u.data, basis(u.cutoff).norm_sq * v.data))


def norm(v: FockVector) -> float:
    return float(np.sqrt((basis(v.cutoff).norm_sq * np.abs(v.data) ** 2).sum()))


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


def _real_gauge(f: CircleFourier, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal phase U that makes J(f) a real symmetric matrix.

    With c_{-n} = conj c_n and U e_p = e^{i phi(p)} e_p, phi(p) = -sum_{parts j of
    p} arg c_j, one has U* J(f) U = sum_{n>0} |c_n| (J_n + J_{-n}) in the
    orthonormalized basis.  Returns (e^{i phi}, S, W), with that operator as the
    gather (S, W).
    """
    # orthonormalized, J_n and J_{-n} = J_n* have the entries sqrt(w), w those of J_n
    c = np.array([f.coeff(n) for n in range(1, min(f.max_mode, N) + 1)])
    J = {n: mode_triples(n, N) for n in range(1, c.size + 1)}
    S, W = gather(concat([(a, b, abs(c[n - 1]) * np.sqrt(J[n][2])) for n in range(1, c.size + 1)
                          if c[n - 1] != 0 for a, b in (J[n][:2], J[n][1::-1])]),  # J_n, J_-n
                  len(basis(N).norm_sq))
    phase = np.exp(-1j * (basis(N).counts[:, 1:c.size + 1] @ np.angle(c)))
    return phase, S, W


class Spectators(NamedTuple):
    """basis(N) split for an operator of the parts <= m, as by spectators(N, m)."""
    local: np.ndarray  # local[i]: row i without its spectator, among the spectator-free rows
    pos: np.ndarray  # pos[i]: the place of row i sorted by budget, local row and spectator
    budget: np.ndarray  # budget[i]: the index in sizes of row i's budget
    sizes: np.ndarray  # d_r, the spectator-free rows of level <= r, per budget r ascending
    counts: np.ndarray  # n_r, the spectators of budget r

    def exp_blocks(self, S: np.ndarray, W: np.ndarray, t: float, cells: int, k: int):
        """Yield (c, [E_r]): the columns c, c + 1, ... below k of E_r = exp(i t A_r),
        A_r the block of level <= r of the spectator-free rows of the gather (S, W) of
        _real_gauge, from one _exp_gauged call on their direct sum per chunk of columns;
        a chunk has at most ``cells`` entries, and at least cells / dim columns.  So E_r
        comes as its first min(d_r, k) columns.  The gather is released once the direct
        sum is built: a caller that holds no reference to it frees it then."""
        free = np.flatnonzero(self.budget == len(self.sizes) - 1)  # the rows of budget N
        Sf, ends = self.local[S[free]], np.cumsum(self.sizes)
        S2 = np.concatenate([Sf[:d] + e - d for d, e in zip(self.sizes, ends)])
        W2 = np.concatenate([W[free[:d]] * (Sf[:d] < d) for d in self.sizes])  # cut at level r
        del S, W, Sf
        k = min(k, self.sizes[-1])
        width = cells // ends[-1]  # >= cells // dim: each budget has a spectator
        for c in range(0, k, width):
            E = _exp_gauged(S2, W2, t, np.concatenate(
                [np.eye(d, min(width, k - c), -c) for d in self.sizes]))
            yield c, [Er[:, :max(d - c, 0)] for Er, d in zip(np.split(E, ends[:-1]), self.sizes)]
            del E  # before the next chunk is built


def spectators(N: int, m: int) -> Spectators:
    """Row i of basis(N) is a spectator-free row (no part above m) with the parts of its
    spectator rho added.  An operator of the parts <= m, truncated at N, acts on the rows
    of rho as on the spectator-free rows of level <= r = N - |rho|, the budget."""
    b = basis(N)
    level = np.repeat(np.arange(N + 1), np.diff(b.offsets))
    low = b.counts * (np.arange(N + 1) <= m)
    spec = b.find(b.counts - low)  # the spectator's row, the vacuum's for none
    local = np.searchsorted(np.flatnonzero(spec == 0), b.find(low))
    budgets, budget = np.unique(N - level[spec], return_inverse=True)
    return Spectators(local, np.argsort(np.lexsort((spec, local, budget))), budget,
                      np.searchsorted(level[spec == 0], budgets, "right"),
                      np.bincount(budget[local == 0]))


def _exp_gauged(S: np.ndarray, W: np.ndarray, t: float, X: np.ndarray) -> np.ndarray:
    """exp(i t A) X for the real symmetric A of the gather (S, W) of _real_gauge.

    ||A|| <= b, its largest row sum, and exp(i t A) is the Chebyshev series
    sum_k eps_k i^k J_k(z) T_k(A / b), z = t b (Jacobi-Anger; Tal-Ezer and
    Kosloff, J. Chem. Phys. 81, 3967, 1984), cut at the degree _tail_degree(z)
    fixed in advance.  The recurrence runs on the real columns of X (its real
    and imaginary parts when X is complex) in two buffers, T_k overwriting
    T_{k-2} one row block at a time, and sums the real (k even) and imaginary
    (k odd) coefficients apart in the same blocks.  For A a direct sum of
    spectator blocks and X their stacked identities (Spectators.exp_blocks),
    this is every block's exponential.  Raises ArithmeticError rather than
    return a non-finite result.
    """
    b = np.max(W.sum(axis=1), initial=0.0)
    K = _tail_degree(t * b)
    M = 2 * K + 2  # FFT length: the aliases k +- M of each k <= K lie past K, in the tail bound
    coef = np.fft.fft(np.exp(1j * t * b * np.cos(2 * np.pi * np.arange(M) / M)))[:K + 1] / M
    coef[1:] *= 2  # now eps_k i^k J_k(t b)
    W = 2 * W / (b or 1.0)

    prev = np.array(X, dtype=np.result_type(X, float)).view(float)  # T_0 X on real columns
    Y = np.zeros(X.shape, dtype=complex)  # for real X, the two sums are its two parts
    yr, yi = (Y.view(float), np.zeros_like(prev)) if np.iscomplexobj(X) else (Y.real, Y.imag)
    np.multiply(prev, coef[0].real, out=yr)
    cur = np.empty_like(prev)
    for k in range(1, K + 1):
        y, a = (yi, coef[k].imag) if k % 2 else (yr, coef[k].real)  # i^k J_k(z): real iff k even
        last, out = (prev, cur) if k == 1 else (cur, prev)  # T_k = 2 x T_{k-1} - T_{k-2} into out
        for rows in _row_blocks(S):
            if k == 1:  # T_1 = x T_0
                np.multiply(_gathered(S, W, last, rows), 0.5, out=out[rows])
            else:
                np.subtract(_gathered(S, W, last, rows), out[rows], out=out[rows])
            y[rows] += a * out[rows]
        if k > 1:
            prev, cur = cur, prev
    if np.iscomplexobj(X):  # Y = yr + i yi on the complex columns
        for rows in _row_blocks(S):
            Y[rows] += 1j * yi.view(complex)[rows]
    if not np.all(np.isfinite(Y)):
        raise ArithmeticError("exp(i t J(f)) did not converge: the series is not finite")
    return Y
