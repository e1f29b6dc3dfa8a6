"""The sparse Fock layer against the dict reference in fock_reference.py,
on random sparse vectors at cutoffs N <= 10 and modes n in [-12, 12], which
covers every n in [-N - 2, N + 2]; its triples and brackets against the dense
level blocks kept there, and its triples against the builds one n or one pair
at a time; the Weyl adjoint residual on its fixed slab against dense expm, the
eigendecomposition of J(g) and the series applied on both sides, and its
mutations; and the exactness window of the central charge
against the same amplitude at a larger cutoff."""

import math
import os
import subprocess
import sys
from pathlib import Path

import fock_reference as ref
import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import chiralground
from chiralground import fnspace as fn
from chiralground import fock, sugawara

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


@pytest.mark.parametrize("N", [0, 1, 2, 5, 10, 16, 18])
def test_triples_equal_the_one_at_a_time_builds(N):
    # J_n sliced from one table for every n and L_n as one product over all pairs are the
    # arrays that one n and one pair at a time give, bit for bit and dtype for dtype
    for n in range(-N - 2, N + 3):
        for new, old in ((fock.mode_triples(n, N), ref.mode_triples(n, N)),
                         (sugawara.virasoro_triples(n, N), ref.virasoro_triples(n, N))):
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(new, old))
    want = [np.bincount(p, minlength=N + 1) for p in fock.basis(N).partitions]
    assert np.array_equal(fock.basis(N).counts, np.reshape(want, (-1, N + 1)))
    assert fock.basis(N).counts.dtype == np.uint8


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


def _weyl_dense(g, f, N):
    """The dense formula: ||(W T(f) W* - T(f) - J(f g') - sigma) P|| with W = expm(i J(g)),
    P the fixed slab of levels <= WEYL_SLAB."""
    Jg = ref.dense_matrix(lambda v: ref.smeared(ref.dict_mode, g, v), N)
    Tf = ref.dense_matrix(lambda v: ref.smeared(ref.dict_virasoro_mode, f, v), N)
    fgp = fn.pointwise_product(f, fn.derivative(g), f.max_mode + g.max_mode)
    Jfgp = ref.dense_matrix(lambda v: ref.smeared(ref.dict_mode, fgp, v), N)
    W = expm(1j * Jg)
    scalar = fn.sigma(fgp, g) / (2.0 * fn.SIGMA_NORM)
    A = W @ Tf @ W.conj().T - Tf - Jfgp - scalar * np.eye(len(Tf))
    return np.linalg.norm(A[:, : len(ref.partitions_upto(sugawara.WEYL_SLAB))], ord=2)


# The residual is a difference of O(1) terms: near 1e-12 the rounding of those terms
# dominates it, so the oracles compare it with a relative and an absolute tolerance.
WEYL_REL, WEYL_ABS = 1e-10, 1e-14


@pytest.mark.parametrize("N", [6, 8, 10])
def test_weyl_adjoint_matches_dense_expm(N):
    rng = np.random.default_rng(36)
    g, f = (h.scale(0.5 / math.sqrt(fn.sobolev_half_sq(h)))
            for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(_weyl_dense(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


def _sized_pair(seed, size):
    """Seeded real (g, f), each scaled to Sobolev-1/2 norm ``size``."""
    rng = np.random.default_rng(seed)
    return tuple(h.scale(size / math.sqrt(fn.sobolev_half_sq(h)))
                 for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("N", [12, 14, 16])
def test_weyl_adjoint_matches_eigh_formula(N, seed):
    g, f = _sized_pair(seed, 0.5)
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(ref.weyl_residual_eigh(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


@pytest.mark.parametrize("N", [N for N in range(10, 21) if N not in (12, 14, 16)])
def test_weyl_adjoint_matches_eigh_formula_to_cutoff_20(N):
    g, f = _sized_pair(1, 0.5)
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(ref.weyl_residual_eigh(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


@pytest.mark.parametrize("N, seed", [(N, seed) for N in range(10, 21) for seed in (1, 2)]
                         + [(22, 1), (24, 1)])
def test_weyl_adjoint_blocks_match_the_series(N, seed):
    # one series on the stacked column blocks [P | X P] against the series applied on
    # both sides of T(f), W T(f) W* P - X P, also past the cutoffs the eigh formula reaches
    g, f = _sized_pair(seed, 0.5)
    r = sugawara.weyl_adjoint_stress_residual(g, f, N)
    assert r == pytest.approx(ref.weyl_residual_two_sided(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


@pytest.mark.parametrize("max_mode", [0, 1, 3, None])
def test_weyl_adjoint_blocks_match_the_series_for_other_generators(max_mode):
    # None stands for a generator of top mode N, which moves every part
    rng = np.random.default_rng(50)
    for N in range(15 if max_mode is not None else 13):
        g = fn.random_real_circle(N if max_mode is None else max_mode, rng, 0.3)
        f = fn.random_real_circle(2, rng, 0.3)
        r = sugawara.weyl_adjoint_stress_residual(g, f, N)
        assert r == pytest.approx(ref.weyl_residual_two_sided(g, f, N), rel=WEYL_REL,
                                  abs=WEYL_ABS)
        assert r == pytest.approx(ref.weyl_residual_eigh(g, f, N), rel=WEYL_REL, abs=WEYL_ABS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weyl_adjoint_reaches_rounding_on_the_fixed_slab(seed):
    # measured 5.3e-12, 1.3e-11 and 4.2e-15 at N = 30 on seeds 1, 2 and 3
    g, f = _sized_pair(seed, 0.5)
    assert sugawara.weyl_adjoint_stress_residual(g, f, 30) < 1e-10


def test_weyl_adjoint_sees_a_wrong_scalar(monkeypatch):
    # the scalar shifted by 1e-6 reads 1e-6 where the identity holds to 5.3e-9
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


def _series_argument(g, N):
    """z = t b at t = 1: b is the largest absolute row sum of the orthonormalized J(g)."""
    _, dst, w = ref.current_orthonormal(g, N)
    return np.max(np.bincount(dst, np.abs(w)))


@pytest.mark.parametrize("size", [0.5, 3.0, 6.0])
@pytest.mark.parametrize("N", [8, 10])
def test_exp_current_matches_dense_expm(N, size):
    g, _ = _sized_pair(38, size)
    # beyond |z| = 10 the coefficients i^k J_k(z) oscillate in sign and size up to k ~ |z|
    assert (_series_argument(g, N) > 10) == (size > 1)
    rng = np.random.default_rng(39)
    dim = len(fock.basis_partitions(N))
    X = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
    X /= np.linalg.norm(X, axis=0)
    W = expm(1j * ref.operator_matrix(lambda v: fock.apply(ref.current(g, N), v), N))
    for t, dense in ((1.0, W), (-1.0, W.conj().T)):
        assert np.max(np.abs(ref.exp_current(g, t, X, N) - dense @ X)) < 1e-12


@pytest.mark.parametrize("z", [0.0, 1e-3, 0.1, 0.6, 1.0, 3.2, -5.2, 10.0, 20.0, 40.0, 60.0])
def test_tail_degree_bounds_the_bessel_tail(z):
    K = fock._tail_degree(z)
    # past k = K + 60 the bound (|z|/2)^k / k! is below 1e-57 on this grid
    tail = 2 * sum(abs(mpmath.besselj(k, z)) for k in range(K + 1, K + 61))
    assert tail <= 2.0**-53
    # K is the least degree the bound 2 sum_{k>K} (|z|/2)^k / k! admits
    h = mpmath.mpf(abs(z)) / 2
    if K:
        assert 2 * sum(h**k / mpmath.factorial(k) for k in range(K, K + 200)) > 2.0**-53
    if z in (3.2, -5.2):
        assert K == {3.2: 21, -5.2: 26}[z]


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


def test_exp_current_round_trip():
    g, _ = _sized_pair(40, 3.0)
    N = 12
    X = np.random.default_rng(41).standard_normal((len(fock.basis_partitions(N)), 4))
    back = ref.exp_current(g, 1.0, ref.exp_current(g, -1.0, X, N), N)
    assert np.max(np.abs(back - X)) < 1e-12 * np.max(np.abs(X))


def test_exp_current_refuses_an_unconverged_series():
    g, _ = _sized_pair(42, 0.5)
    X = np.full((len(fock.basis_partitions(6)), 1), np.nan)
    with pytest.raises(ArithmeticError, match="did not converge"):
        ref.exp_current(g, 1.0, X, 6)
    # one NaN, at the vacuum row of column 1, among finite columns
    X = np.eye(len(X), 3, dtype=complex)
    X[0, 1] = np.nan
    with pytest.raises(ArithmeticError, match="did not converge"):
        ref.exp_current(g, 1.0, X, 6)


def _series_cases():
    """The orthonormalized J(g) of perfbench's Weyl pair at N = 10 ... 18, and of a g of
    top mode N, whose J(g) has entries in every row, at N = 12 and 16."""
    for N in range(10, 19, 2):
        yield _sized_pair(1, 0.5)[0], N
    for N in (12, 16):
        rng = np.random.default_rng(N)
        g = fn.random_real_circle(N, rng)
        yield g.scale(0.5 / math.sqrt(fn.sobolev_half_sq(g))), N


@pytest.mark.parametrize("columns", [(), (8,)], ids=["vector", "batch"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_exp_current_is_bitwise_the_series_by_apply(columns, dtype):
    # the row layout adds each row's products in op order, as apply's scatter does
    for g, N in _series_cases():
        A = ref.current_orthonormal(g, N)
        rng = np.random.default_rng(N)
        X = rng.standard_normal((len(fock.basis_partitions(N)), *columns, 2))
        X = X.view(complex)[..., 0] if dtype is complex else X[..., 0]
        for t in (1.0, -1.0):
            assert np.array_equal(fock.exp_current(A, t, X), ref.exp_current_by_apply(A, t, X))


def test_exp_current_calls_no_apply(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("fock.apply called")

    g, _ = _sized_pair(1, 0.5)
    A = ref.current_orthonormal(g, 12)
    X = np.eye(len(fock.basis_partitions(12)), 4)
    want = ref.exp_current_by_apply(A, -1.0, X)
    monkeypatch.setattr(fock, "apply", refuse)
    assert np.array_equal(fock.exp_current(A, -1.0, X), want)


def test_weyl_adjoint_needs_no_eigendecomposition(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    g, f = _sized_pair(1, 0.5)
    assert 0.0 < sugawara.weyl_adjoint_stress_residual(g, f, 12) < 1.0


def test_cli_import_leaves_scipy_out():
    # the package depends on numpy alone, and importing scipy would dominate its start-up
    code = "import sys, chiralground.cli; print(any(m.startswith('scipy') for m in sys.modules))"
    src = str(Path(chiralground.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
