"""Reference Fock layer for the oracle tests: one dict of partition -> amplitude
per vector and one Python loop per basis vector, with the truncation rules
the array layer in chiralground.fock must reproduce; the compressed Weyl
operator P_N exp(i J(g)) P_N as single-mode tables (expm or the exponential
series) applied to dict vectors one mode at a time, and as the exponential of
J(g) at a larger cutoff (expm or the eigh formula), and the Weyl adjoint
residual on the fixed slab built on any of them, and with T(f) on every
column; fock.displacement's table with the factors of its Laguerre recurrence
formed at each degree; dense level
blocks of J_n and of L_n (summed pair by pair), the dense bracket
residual built on them, and the dense matrix of a set of triples; verify's Sobolev-norm
row with J(f) vac from the smeared J(f) of each draw; the triples
of J_n one n at a time and of L_n one pair at a time, and the raise map from them;
the slices of J_c with each entry's part by np.repeat, and L_n with the pairs
that both lower or both raise built for every n; the tables of basis(N) from
the partitions of each level, with a lookup of a
partition by a binary search of its multiplicity row, and those tables and any
triples on the partitions with parts <= R, re-indexed; and small helpers of the
array layer that only the tests use, among them a vector from and to its
amplitudes by partition and the smeared stress tensor T(f).

Partitions are tuples of parts sorted descending; the partition
(n_1, ..., n_k) stands for J_{-n_1} ... J_{-n_k} vac, whose squared norm is
prod_j j^{m_j} m_j!.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np
from scipy.linalg import expm

from chiralground import fnspace as fn
from chiralground import fock, sugawara


@dataclass(frozen=True)
class DictVector:
    cutoff: int
    amps: dict

    def level_max(self) -> int:
        return max((sum(p) for p in self.amps), default=0)


def basis_norm_sq(parts) -> int:
    out = 1
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for j, m in mult.items():
        out *= j**m * math.factorial(m)
    return out


def dict_mode(n: int, v: DictVector) -> DictVector:
    """J_n: creation for n < 0, annihilation for n > 0, zero for n = 0."""
    if n == 0:
        return DictVector(v.cutoff, {})
    out = {}
    if n < 0:
        k = -n
        for p, a in v.amps.items():
            if sum(p) + k > v.cutoff:
                continue
            q = tuple(sorted(p + (k,), reverse=True))
            b = out.get(q, 0.0) + a
            if b == 0:
                out.pop(q, None)
            else:
                out[q] = b
        return DictVector(v.cutoff, out)
    k = n
    for p, a in v.amps.items():
        m = p.count(k)
        if m == 0:
            continue
        q = list(p)
        q.remove(k)
        q = tuple(q)
        b = out.get(q, 0.0) + a * k * m
        if b == 0:
            out.pop(q, None)
        else:
            out[q] = b
    return DictVector(v.cutoff, out)


def vec_add(u: DictVector, v: DictVector) -> DictVector:
    out = dict(u.amps)
    for p, a in v.amps.items():
        b = out.get(p, 0.0) + a
        if b == 0:
            out.pop(p, None)
        else:
            out[p] = b
    return DictVector(u.cutoff, out)


def vec_scale(lam, v: DictVector) -> DictVector:
    if lam == 0:
        return DictVector(v.cutoff, {})
    return DictVector(v.cutoff, {p: lam * a for p, a in v.amps.items()})


def inner(u: DictVector, v: DictVector) -> complex:
    s = 0.0 + 0.0j
    for p, a in u.amps.items():
        b = v.amps.get(p)
        if b is not None:
            s += np.conj(a) * b * basis_norm_sq(p)
    return complex(s)


def dict_virasoro_mode(n: int, v: DictVector) -> DictVector:
    """L_n as the pair sum over k >= j, j + k = n, annihilator first."""
    out = DictVector(v.cutoff, {})
    for k in range(-((-n) // 2), max(0, v.level_max()) + 1):
        j = n - k
        if j == 0 or k == 0:
            continue
        weight = 0.5 if j == k else 1.0
        out = vec_add(out, vec_scale(weight, dict_mode(j, dict_mode(k, v))))
    return out


def smeared(apply, f, v: DictVector) -> DictVector:
    """sum_n c_n apply(n, v) over the modes of a CircleFourier f."""
    out = DictVector(v.cutoff, {})
    for n, c in enumerate(f.full(), -f.max_mode):
        if c != 0:
            out = vec_add(out, vec_scale(c, apply(n, v)))
    return out


def partitions_upto(N: int) -> list:
    def parts(n, max_part):
        if n == 0:
            yield ()
            return
        for first in range(min(n, max_part), 0, -1):
            for rest in parts(n - first, first):
                yield (first,) + rest

    return [p for lvl in range(N + 1) for p in parts(lvl, lvl)]


def dense_matrix(op, N: int) -> np.ndarray:
    """Matrix of op in the orthonormalized basis, one basis vector at a time."""
    basis = partitions_upto(N)
    index = {p: i for i, p in enumerate(basis)}
    A = np.zeros((len(basis), len(basis)), dtype=complex)
    for j, p in enumerate(basis):
        for q, a in op(DictVector(N, {p: 1.0 + 0.0j})).amps.items():
            A[index[q], j] = a * math.sqrt(basis_norm_sq(q) / basis_norm_sq(p))
    return A


def operator_matrix(op, N: int) -> np.ndarray:
    """Dense matrix of a linear operator on the amplitude arrays over basis(N), in the
    orthonormalized partition basis, built from the basis vectors of each level as one
    batch."""
    off, s = fock.basis(N).offsets, np.sqrt(fock.basis(N).norm_sq)
    A = np.zeros((len(s), len(s)), dtype=complex)
    for lvl in range(N + 1):
        batch = np.eye(len(s), off[lvl + 1] - off[lvl], -off[lvl], dtype=complex)
        A[:, off[lvl]:off[lvl + 1]] = op(batch)
    A *= s[:, None] / s
    return A


def triples_matrix(op, N: int) -> np.ndarray:
    """Dense amplitude-basis matrix of the triples op over basis(N)."""
    src, dst, w = op
    dim = fock.basis(N).offsets[-1]
    A = np.zeros((dim, dim), dtype=np.result_type(w, float))
    np.add.at(A, (dst, src), w)
    return A


def blocks_matrix(block, n: int, N: int) -> np.ndarray:
    """Dense amplitude-basis matrix over basis(N) of the operator with blocks
    block(n, l) from level l to l - n, truncated at N like J_n."""
    off = fock.basis(N).offsets
    A = np.zeros((off[-1], off[-1]))
    for lvl in range(max(0, n), min(N, N + n) + 1):
        A[off[lvl - n]:off[lvl - n + 1], off[lvl]:off[lvl + 1]] = block(n, lvl)
    return A


@lru_cache(maxsize=None)
def mode_block(n: int, level: int) -> np.ndarray:
    """Dense block of J_n from ``level`` to ``level - n``, column by column from dict_mode."""
    rows = {p: i for i, p in enumerate(fock.partitions_at(level - n))}
    out = np.zeros((len(rows), len(fock.partitions_at(level))))
    for c, p in enumerate(fock.partitions_at(level)):
        for q, a in dict_mode(n, DictVector(max(level, level - n), {p: 1.0})).amps.items():
            out[rows[q], c] = a
    return out


def bracket_residual(block, m: int, n: int, rhs, N: int) -> float:
    """Largest relative norm of ([A_m, A_n] - rhs) e over the basis vectors e of
    each level in the exactness window; A_k and rhs are given by their blocks
    block(k, l) and rhs(l), so a level costs a few block products."""
    window = fock.exactness_window(N, m, n)
    if window < 0:
        raise ValueError("window too small")
    worst = 0.0
    for lvl in range(window + 1):
        r = block(m, lvl - n) @ block(n, lvl) - block(n, lvl - m) @ block(m, lvl) - rhs(lvl)
        worst = max(worst, np.max(_norm_sq_at(lvl - m - n) @ r**2 / _norm_sq_at(lvl),
                                  initial=0.0))
    return math.sqrt(worst)


def _norm_sq_at(level: int) -> np.ndarray:
    return np.array([basis_norm_sq(p) for p in fock.partitions_at(level)], dtype=float)


def heisenberg_residual(m: int, n: int, N: int) -> float:
    return bracket_residual(mode_block, m, n, lambda lvl: m * np.eye(len(fock.partitions_at(lvl)))
                            if m + n == 0 else 0.0, N)


def virasoro_residual(m: int, n: int, N: int, drop_central: bool = False) -> float:
    central = 0.0 if drop_central or m + n != 0 else (m**3 - m) / 12.0
    return bracket_residual(virasoro_block, m, n, lambda lvl: (m - n) * virasoro_block(
        m + n, lvl) + central * np.eye(*virasoro_block(m + n, lvl).shape), N)


def current(f, N: int) -> fock.Op:
    """The triples of the smeared current J(f) = sum_n c_n J_n on basis(N)."""
    return fock.smear(fock.mode_triples, f, N)


def current_orthonormal(f, N: int) -> fock.Op:
    """The triples of J(f) on basis(N) rescaled to the orthonormalized basis: w e[dst] / e[src],
    e the basis norms."""
    (src, dst, w), e = current(f, N), np.sqrt(fock.basis(N).norm_sq)
    return src, dst, w * e[dst] / e[src]


@lru_cache(maxsize=None)
def displacement_expm(alpha: complex, L: int, levels: int = 120) -> np.ndarray:
    """<j|D(alpha)|k> for j, k <= L from scipy's expm of alpha a^+ - conj(alpha) a on the
    lowest ``levels`` levels of one mode; the default serves |alpha| <= 3 and L <= 24."""
    a = np.diag(np.sqrt(np.arange(1.0, levels)), 1)
    return expm(alpha * a.T - np.conj(alpha) * a)[:L + 1, :L + 1]


def displacement(alpha: complex, L: int) -> np.ndarray:
    """fock.displacement with the factors of the Laguerre recurrence formed anew at each
    degree k inside its loop, as one expression, in place of once for all k before it."""
    x, a = abs(alpha) ** 2, np.arange(L + 1)
    lag = np.outer(np.eye(1, L + 2), np.ones(L + 1))  # lag[k, a] = L_k^(a)(x), row -1 as k = -1
    for k in range(L):
        lag[k + 1] = ((2 * k + 1 + a - x) * lag[k] - (k + a) * lag[k - 1]) / (k + 1)
    j, k = np.indices((L + 1, L + 1))
    lo, hi = np.minimum(j, k), np.maximum(j, k)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, L + 1)))])
    b = np.where(j >= k, complex(alpha), -np.conj(alpha))
    return np.exp((log_fact[lo] - log_fact[hi] - x) / 2) * b ** (hi - lo) * lag[lo, hi - lo]


def displacement_series(alpha: complex, L: int, degree: int = 80) -> np.ndarray:
    """<j|D(alpha)|k> for j, k <= L from the exponential series of alpha a^+ - conj(alpha) a
    to ``degree``, on the lowest L + degree // 2 + 1 levels of one mode, which carry every
    path of up to ``degree`` steps between levels <= L: only the series is cut.  Its terms
    cancel as |alpha| grows (1e-13 at |alpha| = 1, L = 24); it serves |alpha| <= 1."""
    a = np.diag(np.sqrt(np.arange(1.0, L + degree // 2 + 1)), 1)
    A = alpha * a.T - np.conj(alpha) * a
    term = out = np.eye(len(A), dtype=complex)
    for k in range(1, degree + 1):
        term = term @ A / k
        out = out + term
    return out[:L + 1, :L + 1]


def weyl(g, amps: dict, N: int, table=displacement_expm) -> dict:
    """P_N exp(i J(g)) P_N on the vector with amplitudes amps in the orthonormalized basis,
    keyed by partition: the displacement table of each mode n of g, alpha_n =
    i sqrt(n) conj c_n, applied to the multiplicity of the parts n, one mode after another
    on the untruncated space.  A row is dropped as soon as the parts that no later factor
    changes (those up to n and those above g's top mode) exceed level N, since it can only
    end above N; the other rows above N are dropped at the end."""
    out = dict(amps)
    for n in range(1, g.max_mode + 1):
        D = table(1j * math.sqrt(n) * np.conj(g.coeffs[n]), N // n)
        step = {}
        for p, a in out.items():
            rest = [k for k in p if k != n]
            room = N - sum(k for k in rest if k < n or k > g.max_mode)  # for j parts n
            for j in range(room // n + 1):
                q = tuple(sorted(rest + [n] * j, reverse=True))
                step[q] = step.get(q, 0.0) + D[j, p.count(n)] * a
        out = step
    return {p: a for p, a in out.items() if sum(p) <= N}


def weyl_columns(g, X: np.ndarray, N: int, table=displacement_expm) -> np.ndarray:
    """weyl on the columns X, (dim, k) over the orthonormalized basis(N), one basis vector
    per nonzero row of X."""
    parts = fock.basis_partitions(N)
    index = {p: i for i, p in enumerate(parts)}
    table = lru_cache(maxsize=None)(table)
    Y = np.zeros(X.shape, dtype=complex)
    for i in np.flatnonzero(np.any(X != 0, axis=1)):
        for q, a in weyl(g, {parts[i]: 1.0}, N, table).items():
            Y[index[q]] += a * X[i]
    return Y


def exp_i_eigh(A: np.ndarray) -> np.ndarray:
    """exp(i A) of the Hermitian A by the eigh formula V exp(i Lambda) V*."""
    lam, V = np.linalg.eigh(A)
    return (V * np.exp(1j * lam)) @ V.conj().T


def weyl_expm(g, X: np.ndarray, N: int, N_big: int,
              exp_i=lambda A: expm(1j * A)) -> np.ndarray:
    """P_N exp(i J(g)) P_N X from exp_i, by default scipy's expm, of the orthonormalized J(g)
    on basis(N_big), which tends to the untruncated exp(i J(g)) as N_big grows.  J(g) keeps
    the parts above g's top mode, so on basis(N_big) it is block diagonal over their
    multiplicities and its exponential is taken block by block, on the blocks of the nonzero
    rows of X; basis(N) is the head of basis(N_big)."""
    src, dst, w = current_orthonormal(g, N_big)
    keys = [bytes(row[g.max_mode + 1:]) for row in fock.basis(N_big).counts]
    Y = np.zeros(X.shape, dtype=complex)
    for key in {keys[i] for i in np.flatnonzero(np.any(X != 0, axis=1))}:
        R = np.array([i for i, k in enumerate(keys) if k == key])
        at = np.full(len(keys), -1)
        at[R] = np.arange(len(R))
        on = at[src] >= 0
        A = np.zeros((len(R), len(R)), dtype=complex)
        np.add.at(A, (at[dst[on]], at[src[on]]), w[on])
        keep = R < len(X)
        Y[R[keep]] += exp_i(A)[np.ix_(keep, keep)] @ X[R[keep]]
    return Y


def _weyl_slab_columns(g, f, N: int) -> tuple:
    """The orthonormalized T(f), the slab P of levels <= WEYL_SLAB and X P, with
    X = T(f) + J(f g') + sigma(f g', g) / (2 SIGMA_NORM), as dense columns."""
    fgp = fn.pointwise_product(f, fn.derivative(g), f.max_mode + g.max_mode)
    s = np.sqrt(fock.basis(N).norm_sq)[:, None]

    def hat(op, Y):
        return s * fock.apply(op, Y / s)

    T = fock.smear(sugawara.virasoro_triples, f, N)
    P = np.eye(len(s), fock.basis(N).offsets[min(sugawara.WEYL_SLAB, N) + 1])
    XP = hat(T, P) + hat(current(fgp, N), P) + fn.sigma(fgp, g) / (2.0 * fn.SIGMA_NORM) * P
    return (lambda Y: hat(T, Y)), P, XP


def weyl_residual(g, f, N: int, W) -> float:
    """The Weyl adjoint residual ||T(f) W* P - W* X P|| on the fixed slab P, with
    W* = P_N exp(-i J(g)) P_N from W(-g, Y, N), one of the oracles above."""
    T, P, XP = _weyl_slab_columns(g, f, N)
    WsP, WsXP = (W(g.scale(-1.0), Y, N) for Y in (P, XP))
    return float(np.linalg.norm(T(WsP) - WsXP, ord=2))


def weyl_residual_full(g, f, N: int) -> float:
    """sugawara.weyl_adjoint_stress_residual on every row and column of basis(N), not on
    basis(N, R) alone: the same sums, X P as fock.apply of the slab columns of X on P / e."""
    fgp = fn.pointwise_product(f, fn.derivative(g), f.max_mode + g.max_mode)
    e = np.sqrt(fock.basis(N).norm_sq)[:, None]
    T = fock.smear(sugawara.virasoro_triples, f, N)
    P = np.eye(len(e), fock.basis(N).offsets[min(sugawara.WEYL_SLAB, N) + 1], dtype=complex)
    X = fock.concat([fock.columns(op, P.shape[1]) for op in (T, current(fgp, N))])
    XP = e * fock.apply(X, P / e) + fn.sigma(fgp, g) / (2.0 * fn.SIGMA_NORM) * P
    WsP, WsXP = np.split(fock.weyl(g.scale(-1.0), np.hstack([P, XP]), N), [P.shape[1]], axis=1)
    return float(np.linalg.norm(e * fock.apply(T, WsP / e) - WsXP, ord=2))


def sobolev_norm_identity(N: int, rng) -> float:
    """cli.sobolev_norm_identity with J(f) vac taken as fock.apply of the smeared J(f) on
    the vacuum, one smear per draw."""
    worst = 0.0
    for _ in range(50):
        f = fn.random_real_circle(int(rng.integers(1, N + 1)), rng)
        jf = fock.apply(fock.smear(fock.mode_triples, f, N), fock.vacuum(N))
        worst = max(worst, abs(fock.inner(jf, jf, N).real - fn.sobolev_half_sq(f)))
    return worst


def virasoro_block(n: int, level: int) -> np.ndarray:
    """Dense block of L_n from ``level`` to ``level - n``, summed pair by pair as
    sum weight J_j J_k over k >= j, j + k = n, k and j nonzero."""
    out = np.zeros((len(fock.partitions_at(level - n)), len(fock.partitions_at(level))))
    for k in range(-((-n) // 2), max(0, level) + 1):
        j = n - k
        if j == 0 or k == 0:
            continue
        out += (0.5 if j == k else 1.0) * mode_block(j, level - k) @ mode_block(k, level)
    return out


@lru_cache(maxsize=None)
def basis(N: int) -> tuple:
    """offsets, counts and norm_sq of basis(N) from the partitions of each level
    (fock.partitions_at), flattened into one table of part multiplicities; norm_sq is the
    product of the factors j^m m! in order of j.  Also the rows of counts as byte strings,
    sorted, and the row of each, for find."""
    parts = [p for lvl in range(N + 1) for p in fock.partitions_at(lvl)]
    at = (np.repeat(np.arange(len(parts)) * (N + 1), [len(p) for p in parts])
          + np.fromiter(chain.from_iterable(parts), dtype=int))
    counts = np.bincount(at, minlength=len(parts) * (N + 1)).astype(np.uint8).reshape(-1, N + 1)
    factor = np.array([[float(j**m * math.factorial(m)) for m in range(N + 1)]
                       for j in range(N + 1)])  # j^m m!
    keys = _row_keys(counts)
    order = np.argsort(keys)
    return (np.cumsum([0] + [len(fock.partitions_at(lvl)) for lvl in range(N + 1)]), counts,
            np.prod(factor[np.arange(N + 1), counts], axis=1), keys[order], order)


def kept_rows(N: int, R: int) -> tuple:
    """The rows of basis(N) whose parts are all <= R, as a mask, and the place of each among
    them: their number for every other row and for the sentinel dim."""
    keep = ~np.any(basis(N)[1][:, R + 1:], axis=1)
    at = np.full(len(keep) + 1, np.count_nonzero(keep))
    at[np.flatnonzero(keep)] = np.arange(at[-1])
    return keep, at


def restricted(op: fock.Op, N: int, R: int) -> fock.Op:
    """The triples op over basis(N) on the rows and columns with parts <= R, in their order,
    re-indexed to those rows."""
    keep, at = kept_rows(N, R)
    src, dst, w = op
    on = keep[src] & keep[dst]
    return at[src[on]], at[dst[on]], w[on]


def restricted_basis(N: int, R: int) -> tuple:
    """offsets, counts, norm_sq and the raise map of the partitions of basis(N) with parts <= R,
    filtered from the tables above and re-indexed, the raise past R going to the sentinel."""
    offsets, counts, norm_sq, *_ = basis(N)
    keep, at = kept_rows(N, R)
    level = np.repeat(np.arange(N + 1), np.diff(offsets))
    return (np.concatenate([[0], np.cumsum(np.bincount(level[keep], minlength=N + 1))]),
            counts[keep], norm_sq[keep],
            at[raise_map(N)[:, np.append(keep, True)]].astype(np.int32))


def _row_keys(rows: np.ndarray) -> np.ndarray:  # rows as byte strings, which sort and compare
    return np.ascontiguousarray(rows, dtype=np.uint8).view(f"V{np.shape(rows)[1]}")[:, 0]


def find(N: int, rows: np.ndarray) -> np.ndarray:
    """Positions in basis(N) of the partitions with multiplicity rows ``rows``, by a binary
    search of their byte strings; ValueError for a row that is no partition of the basis."""
    *_, keys, order = basis(N)
    want = _row_keys(rows)
    at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    if np.any(keys[at] != want):
        raise ValueError("partition not in the basis")
    return order[at]


def mode_triples(n: int, N: int) -> fock.Op:
    """J_n on basis(N), one n at a time: J_n for n > 0 from the rows with m_n > 0 and
    a part n removed, J_{-n} its transpose sorted by src."""
    if n < 0:
        src, dst, _ = mode_triples(-n, N)
        order = np.argsort(dst)
        return dst[order], src[order], np.ones(len(src))
    if n > N:
        return np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
    counts = basis(N)[1]
    src = np.flatnonzero(counts[:, n])
    e_n = np.eye(1, N + 1, n, dtype=np.uint8)
    return src, find(N, counts[src] - e_n), n * counts[src, n].astype(float)


@lru_cache(maxsize=None)
def raise_map(N: int) -> np.ndarray:
    """up[a, i], the position in basis(N) of partition i with one more part a, or dim where
    that passes level N, and dim in column dim: J_a's src scattered onto its dst."""
    dim = len(basis(N)[1])
    up = np.full((N + 1, dim + 1), dim, dtype=np.int32)
    for a in range(1, N + 1):
        src, dst, _ = mode_triples(a, N)
        up[a, dst] = src
    return up


def virasoro_triples(n: int, N: int) -> fock.Op:
    """L_n on basis(N) as one product of mode_triples per pair, the pairs side by
    side and merged with np.add.at."""
    pairs = [(n - k, k) for k in range(-((-n) // 2), N + 1) if k and n - k]
    src, dst, w = fock.concat([fock.scaled(0.5 if j == k else 1.0, fock.product(
        mode_triples(j, N), mode_triples(k, N))) for j, k in pairs])
    dim = fock.basis(N).offsets[-1]
    key, inv = np.unique(dst * dim + src, return_inverse=True)
    out = np.zeros(len(key), dtype=w.dtype)
    np.add.at(out, inv, w)
    return key % dim, key // dim, out


def lowering(lo: int, hi: int, N: int, max_part: int | None = None) -> tuple:
    """fock.lowering with the part of each entry spelled out by np.repeat over the ends of the
    stacked J_c, c <= R, of fock._modes."""
    ends, down, *_ = fock._modes(N, fock.top_part(N, max_part))
    lo, hi = min(lo, len(ends) - 1), min(hi, len(ends) - 2)
    return (tuple(a[ends[lo]:ends[hi + 1]] for a in down),
            np.repeat(np.arange(lo, hi + 1), np.diff(ends[lo:hi + 2])))


def virasoro_with_every_pair(n: int, N: int, max_part: int | None = None) -> fock.Op:
    """sugawara.virasoro_triples with the pairs J_a J_b, a <= b = |n| - a, that both lower or
    both raise taken for every n != 0, none of them for |n| < 2, and this module's lowering."""
    R = fock.top_part(N, max_part)
    offsets, counts, _, up = fock.basis(N, R)
    dim = len(counts)
    if abs(n) > N:
        return fock.concat([])
    if n == 0:
        src = dst = np.arange(1, dim)
        w = np.repeat(np.arange(N + 1.0), np.diff(offsets))[1:]
    else:
        (src, mid, w), c = lowering(max(1, n + 1), min(N, N + n), N, R)
        dst = up[c - n, mid]
        (between, low, wa), a = lowering(1, abs(n) // 2, N, R)
        high = up[abs(n) - a, between]
        on = high < dim
        low, high, wa, a = low[on], high[on], wa[on], a[on]
        b = abs(n) - a
        half = np.where(a == b, 0.5, 1.0)
        pairs = (high, low, half * wa * (b * counts[high, b])) if n > 0 else (low, high, half)
        src, dst, w = (np.concatenate(x) for x in zip((src, dst, w), pairs))
    on = dst < dim
    src, dst, w = src[on], dst[on].astype(int), w[on]
    order = np.argsort(dst * dim + src)
    return src[order], dst[order], w[order]


def from_amps(cutoff: int, amps: dict) -> np.ndarray:
    """The vector with amplitude a at each partition p of amps (parts in any order)."""
    rows = np.zeros((len(amps), cutoff + 1), dtype=np.uint8)
    for row, p in zip(rows, amps):
        if min(p, default=1) < 1 or sum(p) > cutoff:
            raise ValueError(f"{p!r} is no partition of a level <= {cutoff}")
        np.add.at(row, list(p), 1)
    data = np.zeros(len(basis(cutoff)[1]), dtype=complex)
    data[find(cutoff, rows)] = list(amps.values())
    return data


def amps(v: np.ndarray, N: int) -> dict:
    """The nonzero amplitudes of a single vector over basis(N), keyed by partition."""
    return {p: complex(a) for p, a in zip(fock.basis_partitions(N), v, strict=True) if a != 0}


def basis_vector(N: int, parts) -> np.ndarray:
    return from_amps(N, {tuple(parts): 1.0})


def apply_stress_circle(f, v: np.ndarray, N: int) -> np.ndarray:
    """Smeared stress tensor T(f) = sum_n c_n L_n."""
    return fock.apply(fock.smear(sugawara.virasoro_triples, f, N), v)


def apply_L0(v: np.ndarray, N: int) -> np.ndarray:
    """L_0 as the level of each basis vector."""
    levels = np.array([sum(p) for p in fock.basis_partitions(N)], dtype=float)
    return (levels * v.T).T


def parity_flip(v: np.ndarray, N: int) -> np.ndarray:
    """Diagonal involution (-1)^{#parts}; conjugation sends J(f) to J(-f)."""
    sign = np.array([(-1.0) ** len(p) for p in fock.basis_partitions(N)])
    return (sign * v.T).T


def apply_stress_line(F, kappa: float, v: np.ndarray, N: int) -> np.ndarray:
    """Perturbed stress tensor on a vector field: T(h) + kappa-scaled J(F')."""
    return fock.apply(sugawara.stress_line_triples(F, kappa, N), v)
