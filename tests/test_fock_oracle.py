"""The sparse Fock layer against the dict reference in fock_reference.py,
on random sparse vectors at cutoffs N <= 10 and modes n in [-12, 12], which
covers every n in [-N - 2, N + 2]; its triples and brackets against the dense
level blocks kept there, and its triples against the builds one n or one pair
at a time, and J_n and L_n on the modes <= R against the full ones on the rows
and columns with parts <= R; the slices of J_c with their parts against the
np.repeat form, L_n against the build that runs every pair branch, and J(f)
on the first columns against its column mask; the tables of the basis, grown
level by level in any order of cutoffs, and of the modes <= R, against those
built from the partition tuples; the closed-form Weyl operator and its
displacement tables against single-mode expm tables applied one mode at a time
to dict vectors, dense expm of J(g) at a larger cutoff, the coherent vector and
the vacuum value of the states layer, the full operator's rows with parts <= R,
and the tables, whole or cut to the columns that X's rows reach, against the
Laguerre loop of the reference; the Weyl adjoint residual on its fixed slab
against residuals built on the dense expm, on the eigh formula of J(g) at a
larger cutoff, on the dict oracle with each single-mode factor summed as its
exponential series and, matrix for matrix, on T(f) over every column of the
full basis, and its mutations, and pinned on perfbench's sweep; the identity
in its exact form, with W* P taken to the levels T(f) can reach, at rounding;
and the exactness window of the central charge against the same amplitude at a
larger cutoff."""

import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import fnspace_reference as fref
import fock_reference as ref
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import factorial

import chiralground
from chiralground import fnspace as fn
from chiralground import fock, states, sugawara

SETTINGS = settings(max_examples=200, deadline=None)
amplitude = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False,
                               allow_infinity=False)


@st.composite
def vectors(draw, N=None):
    """A (reference, array) pair holding the same sparse vector."""
    N = draw(st.integers(0, 10)) if N is None else N
    basis = fock.basis_partitions(N)
    picked = draw(st.lists(st.sampled_from(basis), max_size=6, unique=True))
    amps = {p: draw(amplitude) for p in picked}
    return ref.DictVector(N, amps), ref.from_amps(N, amps)


def same(d: ref.DictVector, v: np.ndarray):
    got = ref.amps(v, d.cutoff)
    assert set(got) == set(d.amps)
    for p, a in d.amps.items():
        assert got[p] == pytest.approx(a, rel=1e-12, abs=1e-12)


@SETTINGS
@given(vectors(), st.integers(-12, 12))
def test_current_mode(pair, n):
    d, v = pair
    same(ref.dict_mode(n, d), fock.apply(fock.mode_triples(n, d.cutoff), v))


@SETTINGS
@given(vectors(), st.integers(-12, 12), st.integers(-12, 12))
def test_creation_then_annihilation(pair, m, n):
    d, v = pair
    Jm, Jn = fock.mode_triples(m, d.cutoff), fock.mode_triples(n, d.cutoff)
    same(ref.dict_mode(m, ref.dict_mode(n, d)), fock.apply(Jm, fock.apply(Jn, v)))


@SETTINGS
@given(vectors(), st.integers(-12, 12))
def test_virasoro_pair_sum(pair, n):
    d, v = pair
    same(ref.dict_virasoro_mode(n, d), fock.apply(sugawara.virasoro_triples(n, d.cutoff), v))


def test_virasoro_block_matches_pair_sum():
    # every L_n and J_n that is nonzero at cutoff N, and one zero mode past it on each side
    for N in range(15):
        for n in range(-N - 1, N + 2):
            assert np.array_equal(ref.triples_matrix(sugawara.virasoro_triples(n, N), N),
                                  ref.blocks_matrix(ref.virasoro_block, n, N))
            assert np.array_equal(ref.triples_matrix(fock.mode_triples(n, N), N),
                                  ref.blocks_matrix(ref.mode_block, n, N))


@pytest.mark.parametrize("N", [0, 1, 2, 5, 10, 16, 18, 22])
def test_triples_equal_the_one_at_a_time_builds(N):
    # J_n sliced from one table for every n and L_n as one product over all pairs are the
    # arrays that one n and one pair at a time give, bit for bit and dtype for dtype
    for n in range(-N - 2, N + 3):
        for new, old in ((fock.mode_triples(n, N), ref.mode_triples(n, N)),
                         (sugawara.virasoro_triples(n, N), ref.virasoro_triples(n, N))):
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(new, old))
    want = [np.bincount(p, minlength=N + 1) for p in fock.basis_partitions(N)]
    assert np.array_equal(fock.basis(N).counts, np.reshape(want, (-1, N + 1)))
    assert fock.basis(N).counts.dtype == np.uint8


@pytest.mark.parametrize("N", range(23))
def test_restricted_triples_are_the_full_on_their_columns(N):
    # J_n and L_n on basis(N, R), the modes <= R, are the full triples on the rows and columns
    # with parts <= R, re-indexed: the same values and dtypes, in the same order; R = N + 1
    # is the full basis
    for R in range(N + 2):
        for n in range(-N - 2, N + 3):
            for op in (fock.mode_triples, sugawara.virasoro_triples):
                want = ref.restricted(op(n, N), N, R)
                assert all(map(_same, op(n, N, R), want))


def _same(a, b) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("N", range(23))
def test_basis_equals_the_reference(N):
    # offsets, counts, norm_sq, every J_n and the raise map of the level-by-level build are
    # those of the partition tuples, their byte-key lookup and a scatter of the J_n triples
    b, (offsets, counts, norm_sq, *_) = fock.basis(N), ref.basis(N)
    assert _same(b.offsets, offsets) and _same(b.counts, counts) and _same(b.norm_sq, norm_sq)
    assert _same(b.up, ref.raise_map(N))
    for n in range(-N - 1, N + 2):
        assert all(map(_same, fock.mode_triples(n, N), ref.mode_triples(n, N)))


@pytest.mark.parametrize("order", ["cold", "grown", "from the full basis"])
def test_restricted_basis_equals_the_reference(order):
    # basis(N, R) is the reference's partitions with parts <= R, their tables filtered and
    # re-indexed, built alone, grown from basis(M, R) or grown from the full basis(M), M <= R,
    # beside a full basis and a basis of top part R - 1 of a cutoff in (R, N), which it must
    # not grow from
    rng = np.random.default_rng(2)
    for N in range(23):
        for R in range(N + 1):
            fock.basis.cache_clear()
            if order == "grown" and R < N - 1:
                fock.basis(int(rng.integers(R + 1, N)), R)
            elif order == "from the full basis" and N > 0:
                fock.basis(int(rng.integers(0, min(R, N - 1) + 1)))
            if order != "cold" and 0 < R < N - 1:
                M = int(rng.integers(R + 1, N))
                fock.basis(M), fock.basis(M, R - 1)
            assert all(map(_same, fock.basis(N, R), ref.restricted_basis(N, R)))


def test_the_modes_up_to_0_are_the_vacuum_alone():
    # basis(N, 0) holds the vacuum alone: every J_n and L_n on it is empty, and the Weyl
    # operator is its vacuum value exp(-sum_n n |c_n|^2 / 2); a negative top part is refused
    g = fn.random_real_circle(3, np.random.default_rng(4), 0.3)
    vacuum_value = math.exp(-0.5 * sum(n * abs(g.coeffs[n]) ** 2 for n in range(1, 4)))
    for N in range(8):
        assert len(fock.basis(N, 0).norm_sq) == 1
        for n in range(-N - 2, N + 3):
            for op in (fock.mode_triples, sugawara.virasoro_triples):
                assert len(op(n, N, 0)[0]) == 0
        assert fock.weyl(g, np.ones(1), N, 0)[0] == pytest.approx(vacuum_value, rel=1e-15)
    with pytest.raises(ValueError, match="top part must be >= 0"):
        fock.basis(4, -1)


@pytest.mark.parametrize("max_mode", [1, 3, 6])
def test_restricted_weyl_is_the_full_on_its_rows(max_mode):
    # fock.weyl on basis(N, R) is P_R W P_R, the rows of fock.weyl on basis(N) with parts
    # <= R: the same arithmetic for M_g <= R, and the factors <0|D(alpha_n)|0>, R < n <= M_g,
    # multiplied in another order above it
    rng = np.random.default_rng(5)
    g = fn.random_real_circle(max_mode, rng, 0.3)
    for N in range(13):
        for R in range(N + 1):
            keep, _ = ref.kept_rows(N, R)
            X = np.zeros((len(keep), 3), dtype=complex)
            X[keep] = rng.normal(size=(np.count_nonzero(keep), 3))
            got, want = fock.weyl(g, X[keep], N, R), fock.weyl(g, X, N)[keep]
            if max_mode <= R:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) < 1e-14  # entries of size 1


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_basis_is_the_same_whatever_was_built_before(order):
    # basis(N) grows from the largest basis already built below N, or from the vacuum
    alone = []
    for N in range(26):
        fock.basis.cache_clear()
        alone.append(fock.basis(N))
    fock.basis.cache_clear()
    cutoffs = {"ascending": range(26), "descending": range(25, -1, -1),
               "shuffled": map(int, np.random.default_rng(1).permutation(26))}[order]
    for N in cutoffs:
        assert all(map(_same, fock.basis(N), alone[N]))


def test_sparse_brackets_equal_dense_blocks():
    pairs = [(m, n) for m in range(-4, 5) for n in range(m, 5)]
    assert len(pairs) == 45
    for m, n in pairs:
        assert fock.heisenberg_residual(m, n, 12) == ref.heisenberg_residual(m, n, 12)
        for drop in (False, True):
            assert (sugawara.virasoro_residual(m, n, 12, drop_central=drop)
                    == ref.virasoro_residual(m, n, 12, drop_central=drop))


@pytest.mark.parametrize("seed", range(4))
def test_mixed_relation_matches_dict_oracle(seed):
    rng = np.random.default_rng(60 + seed)
    f, g = (fn.random_real_circle(int(rng.integers(1, 3)), rng) for _ in range(2))
    N, reach = 10, f.max_mode + g.max_mode
    fgp = fn.pointwise_product(f, fn.derivative(g), reach)
    Tf, Jg, Jfgp = (ref.dense_matrix(lambda v, h=h, a=a: ref.smeared(a, h, v), N) for h, a in
                    ((f, ref.dict_virasoro_mode), (g, ref.dict_mode), (fgp, ref.dict_mode)))
    cols = len(ref.partitions_upto(fock.exactness_window(N, reach, reach)))
    comm = (Tf @ Jg - Jg @ Tf)[:, :cols]  # orthonormal columns: norms are relative norms
    want = np.max(np.linalg.norm(comm - 1j * Jfgp[:, :cols], axis=0))
    assert abs(sugawara.mixed_relation_residual(f, g, N) - want) < 1e-13
    # the bracket alone, far from zero, checks the products and the column norms
    bracket = fock.bracket_residual(fock.smear(sugawara.virasoro_triples, f, N),
                                    fock.smear(fock.mode_triples, g, N), fock.concat([]),
                                    fock.exactness_window(N, reach, reach), N)
    assert bracket == pytest.approx(np.max(np.linalg.norm(comm, axis=0)), rel=1e-12)
    assert bracket > 0.1


@SETTINGS
@given(st.integers(0, 10).flatmap(lambda N: st.tuples(vectors(N), vectors(N))))
def test_add_and_inner(pairs):
    (du, u), (dv, v) = pairs
    assert fock.inner(u, v, du.cutoff) == pytest.approx(ref.inner(du, dv), rel=1e-12, abs=1e-12)


@st.composite
def vector_field_pairs(draw):
    """Two vector fields with representatives (1 - cos theta) p, p real with
    max mode 1..3 (so the fields reach 2..4), and a kappa in [-2, 2]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    one_minus_cos = fn.circle_from_real_modes(1.0, [-1.0])
    F, G = (fn.pointwise_product(one_minus_cos, p, p.max_mode + 1)
            for p in (fn.random_real_circle(draw(st.integers(1, 3)), rng) for _ in range(2)))
    return F, G, draw(st.floats(-2.0, 2.0))


def _bracket(F, G, kappa, N):
    """<vac, [T(F), T(G)] vac> at cutoff N, inside its exactness window or not."""
    vac = fock.vacuum(N)
    TF, TG = (sugawara.stress_line_triples(X, kappa, N) for X in (F, G))
    return (fock.inner(vac, fock.apply(TF, fock.apply(TG, vac)), N)
            - fock.inner(vac, fock.apply(TG, fock.apply(TF, vac)), N))


@settings(max_examples=60, deadline=None)
@given(vector_field_pairs())
def test_charge_window_is_exact_and_tight(pair):
    F, G, kappa = pair
    assume(abs(fn.vectorfield_line_integral_f3g(F, G)) >= 1e-6)
    reach = min(F.max_mode, G.max_mode)
    scale = (np.sum(np.abs(F.full())) * np.sum(np.abs(G.full()))
             * (1.0 + kappa**2) * (reach + 1) ** 3)
    # every cutoff the window admits gives the amplitude at cutoff N + 2 reach
    for N in range(reach, reach + 3):
        exact = _bracket(F, G, kappa, N + 2 * reach)
        assert abs(_bracket(F, G, kappa, N) - exact) <= 1e-12 * scale
    # one level below, the level-reach term is dropped, and the estimate refuses
    assert abs(_bracket(F, G, kappa, reach - 1) - exact) > 1e-9 * scale
    with pytest.raises(ValueError, match=f"cutoff {reach - 1} too small"):
        sugawara.central_charge_estimate(F, G, kappa, reach - 1)
    # from the reach on, c_est is 1 + kappa^2 up to that rounding times 12 SIGMA_NORM / denom
    c = sugawara.central_charge_estimate(F, G, kappa, reach)
    denom = fn.vectorfield_line_integral_f3g(F, G)
    assert abs(c - (1.0 + kappa**2)) <= 1e-10 * scale / abs(denom)


# The residual is a difference of O(1) terms: near 1e-12 the rounding of those terms
# dominates it, so the oracles compare it with a relative and an absolute tolerance.
WEYL_REL, WEYL_ABS = 1e-10, 1e-14


@pytest.mark.parametrize("N", [6, 8, 10])
def test_weyl_adjoint_matches_dense_expm(N):
    # W* from scipy's expm of J(-g) on basis(N + 20), compressed to the levels <= N
    rng = np.random.default_rng(36)
    g, f = (h.scale(0.5 / math.sqrt(fn.sobolev_half_sq(h)))
            for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    want = ref.weyl_residual(g, f, N, lambda h, Y, n: ref.weyl_expm(h, Y, n, n + 20))
    assert r == pytest.approx(want, rel=WEYL_REL, abs=WEYL_ABS)


def _sized_pair(seed, size):
    """Seeded real (g, f), each scaled to Sobolev-1/2 norm ``size``."""
    rng = np.random.default_rng(seed)
    return tuple(h.scale(size / math.sqrt(fn.sobolev_half_sq(h)))
                 for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))


def _eigh_residual(g, f, N):
    """The residual with W* from the eigh formula of J(-g) on basis(N + 16), block by block,
    compressed to the levels <= N; for these top-mode-2 pairs it is within 2.2e-15 of the
    dict oracle's residual up to N = 20."""
    return ref.weyl_residual(
        g, f, N, lambda h, Y, n: ref.weyl_expm(h, Y, n, n + 16, ref.exp_i_eigh))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("N", [12, 14, 16])
def test_weyl_adjoint_matches_eigh_formula(N, seed):
    g, f = _sized_pair(seed, 0.5)
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(_eigh_residual(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


@pytest.mark.parametrize("N", [N for N in range(10, 21) if N not in (12, 14, 16)])
def test_weyl_adjoint_matches_eigh_formula_to_cutoff_20(N):
    g, f = _sized_pair(1, 0.5)
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(_eigh_residual(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


def _series_residual(g, f, N):
    """The residual with W* on the column blocks P and X P from the dict oracle, each
    single-mode factor summed as its exponential series."""
    return ref.weyl_residual(
        g, f, N, lambda h, Y, n: ref.weyl_columns(h, Y, n, ref.displacement_series))


@pytest.mark.parametrize("N, seed", [(N, seed) for N in range(10, 21) for seed in (1, 2)]
                         + [(22, 1), (24, 1)])
def test_weyl_adjoint_blocks_match_the_series(N, seed):
    g, f = _sized_pair(seed, 0.5)
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(_series_residual(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


@pytest.mark.parametrize("max_mode", [0, 1, 3, None])
def test_weyl_adjoint_blocks_match_the_series_for_other_generators(max_mode):
    # None stands for a generator of top mode N, which moves every part; |alpha_n| is at
    # most 0.74 on the tables of three levels or more, where the series holds to 2.5e-15
    rng = np.random.default_rng(50)
    for N in range(15 if max_mode is not None else 13):
        g = fn.random_real_circle(N if max_mode is None else max_mode, rng, 0.3)
        f = fn.random_real_circle(2, rng, 0.3)
        r = sugawara.weyl_adjoint_stress_residual(g, f, N)
        assert r == pytest.approx(_series_residual(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weyl_adjoint_equals_the_residual_on_every_column(monkeypatch, seed):
    # On basis(N, R), R = max(M_g, WEYL_SLAB) + M_f, the residual matrix is the one of T(f) on
    # every column of basis(N) and of fock.apply on P / e on its rows with parts <= R, bit for
    # bit, and that one is 0 on every other row.  The 2-norms then differ by the SVD's rounding
    # alone, which sees fewer zero rows: at most 3 ulp here (0 in 36 of these 63 cutoffs).
    norm, matrices = np.linalg.norm, []
    monkeypatch.setattr(np.linalg, "norm", lambda M, *a, **k: matrices.append(M) or norm(M, *a, **k))
    g, f = _sized_pair(seed, 0.5)
    R = max(g.max_mode, sugawara.WEYL_SLAB) + f.max_mode
    for N in range(10, 31):
        r, want = sugawara.weyl_adjoint_stress_residual(g, f, N), ref.weyl_residual_full(g, f, N)
        got, full = matrices[-2:]
        keep, _ = ref.kept_rows(N, R)
        assert _same(got, full[keep]) and not np.any(full[~keep])
        assert r == norm(got, ord=2)
        assert abs(r - want) <= 4 * np.spacing(want)


@pytest.mark.parametrize("max_mode", [0, 1, 3, None])
def test_weyl_adjoint_on_every_column_for_other_generators(max_mode):
    # the columns T(f) is built on follow g's top mode; None stands for top mode N, where
    # they are every column
    rng = np.random.default_rng(51)
    for N in range(15):
        g = fn.random_real_circle(N if max_mode is None else max_mode, rng, 0.3)
        f = fn.random_real_circle(2, rng, 0.3)
        r = sugawara.weyl_adjoint_stress_residual(g, f, N)
        assert r == pytest.approx(ref.weyl_residual_full(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weyl_adjoint_reaches_rounding_on_the_fixed_slab(seed):
    # measured 2.9e-12, 4.3e-12 and 7.7e-16 at N = 30 on seeds 1, 2 and 3
    g, f = _sized_pair(seed, 0.5)
    assert sugawara.weyl_adjoint_stress_residual(g, f, 30) < 1e-10


def test_weyl_adjoint_sees_a_wrong_scalar(monkeypatch):
    # the scalar shifted by 1e-6 reads 1e-6 where the identity holds to 2.8e-9
    g, f = _sized_pair(1, 0.5)
    assert sugawara.weyl_adjoint_stress_residual(g, f, 24) < 1e-8
    sigma = sugawara.sigma
    monkeypatch.setattr(sugawara, "sigma",
                        lambda a, b: sigma(a, b) + 2e-6 * fn.SIGMA_NORM)
    assert sugawara.weyl_adjoint_stress_residual(g, f, 24) == pytest.approx(1e-6, rel=1e-2)


def test_weyl_adjoint_sees_the_sign_of_the_current_term(monkeypatch):
    # f g' with its sign flipped, in J(f g') and in the scalar, measured 2.42
    g, f = _sized_pair(1, 0.5)
    product = sugawara.pointwise_product
    monkeypatch.setattr(sugawara, "pointwise_product",
                        lambda a, b, m: product(a, b, m).scale(-1.0))
    assert sugawara.weyl_adjoint_stress_residual(g, f, 24) > 1.0


def _exact_weyl_terms(g, f, N, shift=0.0, sign=1.0):
    """P_N T(f) W* P and P_N W* X P on the fixed slab P, X = T(f) + J(f g') + the scalar
    (shifted by ``shift``, f g' times ``sign``), in the orthonormalized basis, where an
    operator A of amplitude triples acts on columns Y as e A(Y / e), e the basis norms.
    T(f) lowers the level by at most M_f, so its rows <= N need W* P only to level
    N + M_f, which fock.weyl gives exactly at that cutoff; X P lies below level
    L + M_f + M_g <= N."""
    top = N + f.max_mode
    fgp = fn.pointwise_product(f, fn.derivative(g), f.max_mode + g.max_mode).scale(sign)
    e = np.sqrt(fock.basis(top).norm_sq)[:, None]
    T, J = (fock.smear(op, h, top)
            for op, h in ((sugawara.virasoro_triples, f), (fock.mode_triples, fgp)))
    P = np.eye(len(e), fock.basis(top).offsets[sugawara.WEYL_SLAB + 1], dtype=complex)
    XP = (e * (fock.apply(T, P / e) + fock.apply(J, P / e))
          + (fn.sigma(fgp, g) / (2 * fn.SIGMA_NORM) + shift) * P)
    WsP, WsXP = np.split(fock.weyl(g.scale(-1.0), np.hstack([P, XP]), top), [P.shape[1]], axis=1)
    rows = fock.basis(N).offsets[-1]
    return (e * fock.apply(T, WsP / e))[:rows], WsXP[:rows]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weyl_adjoint_exact_form_reaches_rounding(seed):
    # The identity with W* P taken to level N + M_f holds exactly from N = L + M_f + M_g on.
    # Its two sides have 2-norms of 1.4 to 3.0 on these pairs, and each entry sums a few
    # dozen rounded products, so rounding leaves a few ulp of the larger side: 16 ulp of it
    # is 4.9e-15 to 1.1e-14, where 4.6e-16 ... 5.7e-16 was measured.
    g, f = _sized_pair(seed, 0.5)
    for N in range(sugawara.WEYL_SLAB + f.max_mode + g.max_mode, 21):
        lhs, rhs = _exact_weyl_terms(g, f, N)
        bound = 16 * np.finfo(float).eps * max(np.linalg.norm(lhs, 2), np.linalg.norm(rhs, 2))
        assert np.linalg.norm(lhs - rhs, 2) < bound


def test_weyl_adjoint_exact_form_sees_its_mutations():
    # at N = 8, a scalar shifted by 1e-6 reads 1e-6 (W* P is an isometry to 1e-9 there), and
    # f g' with its sign flipped, in J(f g') and in the scalar, measured 2.4
    g, f = _sized_pair(1, 0.5)
    lhs, rhs = _exact_weyl_terms(g, f, 8, shift=1e-6)
    assert np.linalg.norm(lhs - rhs, 2) == pytest.approx(1e-6, rel=1e-6)
    lhs, rhs = _exact_weyl_terms(g, f, 8, sign=-1.0)
    assert np.linalg.norm(lhs - rhs, 2) > 1.0


@pytest.mark.parametrize("size", [0.0, 1e-3, 0.3, 1.0, 1.66, 3.16, 5.0])
def test_displacement_matches_expm(size):
    alpha = size * np.exp(0.7j)
    for L in (0, 1, 2, 5, 20, 40):
        err = np.max(np.abs(fock.displacement(alpha, L) - ref.displacement_expm(alpha, L, 300)))
        assert err < 1e-13


def test_displacement_is_the_reference_loop():
    # the recurrence's factors formed once for all degrees give the loop's table bit for bit
    rng = np.random.default_rng(53)
    for _ in range(300):
        alpha = rng.uniform(0.0, 10.0) * np.exp(2j * np.pi * rng.uniform())
        L = int(rng.integers(0, 40))
        assert np.array_equal(fock.displacement(alpha, L), ref.displacement(alpha, L))


def test_displacement_to_degree_K_is_the_loops_columns():
    # the recurrence run only to the degree K that the columns k <= K reach gives the columns
    # of the loop's whole table bit for bit, for L = N // n and every K <= L
    rng = np.random.default_rng(57)
    for _ in range(300):
        alpha = rng.uniform(0.0, 10.0) * np.exp(2j * np.pi * rng.uniform())
        L = int(rng.integers(0, 41)) // int(rng.integers(1, 5))
        K = int(rng.integers(0, L + 1))
        got = fock.displacement(alpha, L, K)
        assert got.shape == (L + 1, K + 1) and _same(got, ref.displacement(alpha, L)[:, :K + 1])


def _spy_tables(monkeypatch) -> list:
    """The (alpha, L, K, table) of every fock.displacement call from here on."""
    calls, build = [], fock.displacement

    def spy(alpha, L, K):
        calls.append((alpha, L, K, build(alpha, L, K)))
        return calls[-1][-1]

    monkeypatch.setattr(fock, "displacement", spy)
    return calls


@pytest.mark.parametrize("max_mode", [1, 2, 4])
def test_weyl_builds_each_table_to_the_degree_its_rows_reach(monkeypatch, max_mode):
    # the table of mode n <= top has the rows m <= N // n and the columns m <= K_n, the
    # largest m_n of X's nonzero rows: the loop's table cut there, bit for bit
    calls = _spy_tables(monkeypatch)
    rng = np.random.default_rng(58)
    for N in range(15):
        g = fn.random_real_circle(max_mode, rng, 0.5)
        counts = fock.basis(N).counts
        rows = rng.choice(len(counts), min(5, len(counts)), replace=False)
        X = np.zeros((len(counts), 2), dtype=complex)
        X[rows] = rng.standard_normal((len(rows), 2))
        calls.clear()
        fock.weyl(g, X, N)
        modes = range(1, min(max_mode, N) + 1)
        assert [(L, K) for _, L, K, _ in calls] == [(N // n, counts[rows, n].max()) for n in modes]
        for n, (alpha, L, K, D) in zip(modes, calls):
            assert alpha == pytest.approx(1j * math.sqrt(n) * np.conj(g.coeffs[n]), rel=1e-15)
            assert _same(D, ref.displacement(alpha, L)[:, :K + 1])


def test_weyl_edge_cases(monkeypatch):
    N = 8
    rng = np.random.default_rng(59)
    g = fn.random_real_circle(2, rng, 0.5)
    parts = fock.basis_partitions(N)
    calls = _spy_tables(monkeypatch)
    # an all-zero X: no row reaches past m_n = 0, and the result is 0
    for shape in ((len(parts),), (len(parts), 3)):
        out = fock.weyl(g, np.zeros(shape), N)
        assert out.shape == shape and out.dtype == complex and not np.any(out)
    assert [K for _, _, K, _ in calls] == [0, 0] * 2
    # a generator of top mode 0 is c_0 J_0 = 0 in charge zero: no table, and the identity
    X = rng.standard_normal((len(parts), 3)) + 1j * rng.standard_normal((len(parts), 3))
    calls.clear()
    assert np.array_equal(fock.weyl(fn.CircleFourier([0.7]), X, N), X) and not calls
    # nonzero rows only with parts, all above the top mode 2: one column per table, and the
    # result is the dict oracle's
    X[[not p or min(p) <= 2 for p in parts]] = 0.0
    assert 0 < np.count_nonzero(X[:, 0]) < len(parts) - 1
    assert np.max(np.abs(fock.weyl(g, X, N) - ref.weyl_columns(g, X, N))) < 1e-13
    assert [K for _, _, K, _ in calls] == [0, 0]


@pytest.mark.parametrize("max_mode", [0, 1, 2, 3, None])
def test_weyl_matches_the_dict_oracle(max_mode):
    # None stands for a generator of top mode N; X has unit columns over every row
    rng = np.random.default_rng(51)
    for N in range(11):
        g = fn.random_real_circle(N if max_mode is None else max_mode, rng)
        dim = fock.basis(N).offsets[-1]
        X = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        X /= np.linalg.norm(X, axis=0)
        assert np.max(np.abs(fock.weyl(g, X, N) - ref.weyl_columns(g, X, N))) < 1e-13


@pytest.mark.parametrize("max_mode", [1, 2, 3, 12])
def test_grouped_weyl_matches_the_dict_oracle(max_mode):
    # fock.weyl groups the nonzero rows of X by their parts above g's top mode and takes a
    # group k rows at a time for k columns: here the rows fall into 3 groups or more (into
    # one below top mode 12 = N, which moves every part), one of them over k rows
    N, k = 12, 2
    rng = np.random.default_rng(55)
    g = fn.random_real_circle(max_mode, rng)
    parts = fock.basis_partitions(N)
    rows = rng.choice(len(parts), 40, replace=False)
    X = np.zeros((len(parts), k), dtype=complex)
    X[rows] = rng.standard_normal((len(rows), k)) + 1j * rng.standard_normal((len(rows), k))
    X /= np.linalg.norm(X, axis=0)
    groups = Counter(tuple(p for p in parts[i] if p > max_mode) for i in rows)
    assert len(groups) >= (3 if max_mode < N else 1) and max(groups.values()) > k
    assert np.max(np.abs(fock.weyl(g, X, N) - ref.weyl_columns(g, X, N))) < 1e-13


@pytest.mark.parametrize("size", [0.5, 1.0])
@pytest.mark.parametrize("N", [6, 8, 10])
def test_weyl_matches_dense_expm(N, size):
    # g of top mode 2 on every basis vector: the expm of J(g) compressed from N + 24
    # measured within 1.2e-15 (5.7e-14 from N + 20 at size 1)
    g, _ = _sized_pair(38, size)
    X = np.eye(fock.basis(N).offsets[-1])
    assert np.max(np.abs(fock.weyl(g, X, N) - ref.weyl_expm(g, X, N, N + 24))) < 1e-14


@pytest.mark.parametrize("max_mode", [1, 2, 3, 12])
def test_weyl_of_the_vacuum_is_the_coherent_vector(max_mode):
    # W(g) vac = exp(-||g||^2 / 2) prod_n alpha_n^{m_n} / sqrt(m_n!) on the rows without
    # parts above g's top mode, 0 on the others; modes above N = 10 only scale it
    N = 10
    g = fn.random_real_circle(max_mode, np.random.default_rng(52))
    g = g.scale(1.0 / math.sqrt(fn.sobolev_half_sq(g)))
    counts = fock.basis(N).counts.astype(int)
    want = np.full(len(counts), math.exp(-0.5 * fn.sobolev_half_sq(g)), dtype=complex)
    for n in range(1, min(max_mode, N) + 1):
        alpha = 1j * math.sqrt(n) * np.conj(g.coeffs[n])
        want *= alpha ** counts[:, n] / np.sqrt(factorial(counts[:, n]))
    want[np.any(counts[:, max_mode + 1:] > 0, axis=1)] = 0.0
    assert np.max(np.abs(fock.weyl(g, fock.vacuum(N), N) - want)) < 1e-15


@pytest.mark.parametrize("max_mode", [1, 2, 3, 4])
def test_weyl_vacuum_amplitude_is_the_ground_state_value(max_mode):
    # <vac, W(g) vac> = exp(-||g||^2 / 2) = omega_0(W(g)) at every cutoff, also below
    # g's top mode, where each mode above the cutoff gives its factor exp(-|alpha_n|^2 / 2)
    rng = np.random.default_rng(53)
    for _ in range(5):
        g = fn.random_real_circle(max_mode, rng, 0.5)
        want = states.ground_weyl(0.0, (g,), 8).value
        assert want.real > 0.05 and want.imag == 0.0
        for N in range(13):
            assert abs(fock.weyl(g, fock.vacuum(N), N)[0] - want) <= 1e-15


@pytest.mark.parametrize("N", [0, 1, 6, 10])
def test_L0_equals_its_pair_sum_block(N):
    off = fock.basis(N).offsets
    rng = np.random.default_rng(47)
    for shape in ((off[-1],), (off[-1], 3)):  # one vector and a batch
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = fock.apply(sugawara.virasoro_triples(0, N), x)
        want = np.concatenate([ref.virasoro_block(0, lvl) @ x[off[lvl]:off[lvl + 1]]
                               for lvl in range(N + 1)])
        assert np.max(np.abs(out - want), initial=0.0) < 1e-12


@pytest.mark.parametrize("N, want", [
    (10, 0.003054588510230954), (12, 0.0005491625572519872), (14, 8.797768741977588e-05),
    (16, 1.2810313954577824e-05), (18, 1.7195820157785263e-06), (24, 2.8081710863456686e-09),
    (32, 2.6923990988206537e-13)])
def test_weyl_adjoint_sweep_residuals_are_pinned(N, want):
    # the pair of perfbench's weyl-adjoint workload at seed 1: random_real_circle(2,
    # default_rng(1)) twice, each at Sobolev-1/2 norm 0.5
    g, f = _sized_pair(1, 0.5)
    assert sugawara.weyl_adjoint_stress_residual(g, f, N) == pytest.approx(want, rel=1e-13)


def test_weyl_adjoint_needs_no_eigendecomposition(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    g, f = _sized_pair(1, 0.5)
    assert 0.0 < sugawara.weyl_adjoint_stress_residual(g, f, 12) < 1.0


def test_lowering_is_the_repeat_form():
    # a slice of _modes' triples and of the part of each entry, cached with them, is the
    # np.repeat of each part over its J_c, bit for bit and dtype for dtype
    for N in range(17):
        for max_part in (None, 0, 1, 2, 3, 4):
            for hi in range(N + 2):
                for lo in range(hi + 1):
                    (got, part), (want, want_part) = (fock.lowering(lo, hi, N, max_part),
                                                      ref.lowering(lo, hi, N, max_part))
                    assert all(map(_same, (*got, part), (*want, want_part)))


@pytest.mark.parametrize("N", range(17))
def test_virasoro_triples_skip_the_pairs_below_2(N):
    # no pair J_a J_b, a <= b, of two lowering or two raising modes sums to |n| < 2: L_n
    # without that branch there, and sorted stably, is the build that runs it for every
    # n != 0, bit for bit and dtype for dtype
    for max_part in (None, 0, 1, 2, 3, 4):
        for n in range(-N - 2, N + 3):
            want = ref.virasoro_with_every_pair(n, N, max_part)
            assert all(map(_same, sugawara.virasoro_triples(n, N, max_part), want))


def test_current_columns_are_the_smeared_current_on_the_first_columns():
    # smear over f's spectrum read once is the sum over f's coefficients one mode at a time,
    # and J(f) cut per mode to the prefix of its ascending src is its column mask, bit for bit
    rng = np.random.default_rng(60)
    for N in range(13):
        for max_part in (None, 0, 1, 2, 4):
            f = fn.random_real_circle(int(rng.integers(0, 6)), rng)
            J = fock.smear(fock.mode_triples, f, N, max_part)
            want = fock.concat([fock.scaled(fref.coeff(f, n), fock.mode_triples(n, N, max_part))
                                for n in range(-f.max_mode, f.max_mode + 1)
                                if fref.coeff(f, n) != 0])
            assert all(map(_same, J, want))
            for top in range(len(fock.basis(N, max_part).norm_sq) + 1):
                got = fock.current_columns(f, N, max_part, top)
                assert all(map(_same, got, fock.columns(J, top)))


@pytest.mark.parametrize("N", [0, 1, 2, 5, 16])
def test_virasoro_triples_need_no_product_or_merge(monkeypatch, N):
    # every L_n, on every column or on those with parts <= max_part, is composed from
    # slices of the J triples and the raise map; the generic product and merge stay for
    # the brackets alone
    def refuse(*_args, **_kwargs):
        raise AssertionError("fock.product or fock.merge called")

    monkeypatch.setattr(fock, "product", refuse)
    monkeypatch.setattr(fock, "merge", refuse)
    for cached in (fock.basis, fock._modes, sugawara.virasoro_triples):
        cached.cache_clear()
    for n in range(-N - 2, N + 3):
        for max_part in (None, 0, 1, 2, 3):
            sugawara.virasoro_triples(n, N, max_part)


def test_cli_import_leaves_scipy_out():
    # the package depends on numpy alone, and importing scipy would dominate its start-up
    code = "import sys, chiralground.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    src = str(Path(chiralground.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
