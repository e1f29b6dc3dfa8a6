"""Traced peak memory of the Weyl path, in bytes per entry of T(f), of its
Weyl operator fock.weyl, in bytes per basis row and column, of one cold L_n
build, and of one fock.apply, in bytes per entry of its operator; that a
residual whose top part reaches the cutoff shares the full basis's L_n; and
that clearing the package's caches leaves no basis behind.

tracemalloc counts numpy's array allocations, so these peaks do not depend on
the host.  Each call runs once untraced first, so that the level caches are
built before the traced call; the cold sweep starts from cleared caches
instead, so that it sees them.
"""

import math
import tracemalloc

import numpy as np
import pytest

from chiralground import cli, fock, states, sugawara
from chiralground import fnspace as fn


def _pair():
    rng = np.random.default_rng(1)
    return tuple(h.scale(0.5 / math.sqrt(fn.sobolev_half_sq(h)))
                 for h in (fn.random_real_circle(2, rng), fn.random_real_circle(2, rng)))


def _clear_caches():
    """Clear every cache of the package, found by its cache_clear, as a benchmark pass does."""
    for mod in (cli, fn, fock, states, sugawara):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _traced_peak(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _weyl_peak_per_stress_entry(g, f, N):
    """The warm traced peak of the Weyl residual in bytes per entry of T(f)."""
    entries = len(fock.smear(sugawara.virasoro_triples, f, N)[0])
    return _traced_peak(lambda: sugawara.weyl_adjoint_stress_residual(g, f, N)) / entries


# The Weyl residual works on basis(N, R), the modes <= R = max(M_g, WEYL_SLAB) + M_f = 4
# for these top-mode-2 pairs: 515 of 1,597 rows at N = 18 and 2,724 of 28,629 at N = 30.
# So T(f) and the dense columns of the sweep, P, X P, [P | X P] and fock.weyl's result,
# are held on those rows alone.  The peaks stay quoted per entry of the full T(f), so that
# they compare with the earlier builds: 110.7, 97.6 and 93.8 bytes per entry at N = 16, 24
# and 28 holding all of T(f), and 58.3, 42.4 and 38.1 with T(f) on the columns with parts
# <= max(M_g, WEYL_SLAB) and the dense columns on every row of basis(N).  Each bound is
# about 10% over the value measured at that cutoff.

def test_weyl_residual_peak():
    # 7,998 entries of the full T(f), 359 rows of 915: measured 40.9 bytes per entry of
    # the full T(f)
    g, f = _pair()
    assert _weyl_peak_per_stress_entry(g, f, 16) < 45


def test_weyl_residual_peak_at_cutoff_24():
    # 83,313 entries of the full T(f), 1,292 rows of 7,338: measured 15.05 bytes per entry
    # of the full T(f)
    g, f = _pair()
    assert _weyl_peak_per_stress_entry(g, f, 24) < 16.5


def test_weyl_residual_peak_at_cutoff_28():
    # 230,951 entries of the full T(f), 22 MB, 2,157 rows of 18,460: measured 9.27 bytes
    # per entry of the full T(f)
    g, f = _pair()
    assert _weyl_peak_per_stress_entry(g, f, 28) < 10.2


@pytest.mark.parametrize("N, bound", [(12, 170), (16, 142)], ids=["12", "16"])
def test_wide_generator_peak(N, bound):
    # g of top mode N, so J(g) has entries from every row and R = N + 2 is the full basis:
    # measured 154.2 and 128.6 bytes per entry of T(f) at N = 12 and 16 (155.0 and 128.8
    # with T(f) on the columns with parts <= max(M_g, WEYL_SLAB), 154.4 and 128.7 with
    # X P from fock.apply on P / e, 249.9 and 213.1 scattering all columns at once)
    rng = np.random.default_rng(1)
    g, f = (h.scale(0.5 / math.sqrt(fn.sobolev_half_sq(h)))
            for h in (fn.random_real_circle(N, rng), fn.random_real_circle(2, rng)))
    assert _weyl_peak_per_stress_entry(g, f, N) < bound


def test_weyl_peak_on_the_slab():
    # fock.weyl on the 2 x 4 columns of [P | X P] on the fixed slab at N = 18, here the
    # first 8 basis vectors: measured 22.26 bytes per basis row and column, 16 of them the
    # (dim, 8) complex result
    g, _ = _pair()
    N, k = 18, 2 * fock.basis(18).offsets[sugawara.WEYL_SLAB + 1]
    X = np.eye(fock.basis(N).offsets[-1], k, dtype=complex)
    assert _traced_peak(lambda: fock.weyl(g.scale(-1.0), X, N)) / (len(X) * k) < 24.5


def test_cold_weyl_sweep_peak_and_caches():
    # From cleared caches the N = 10..18 sweep measured a 0.97 MB peak and left 0.49 MB of
    # caches behind, first in its process (0.96 MB and 0.48 MB when repeated): every
    # basis, J_n and L_n is cached on the modes <= 4 alone (1.42 MB and 0.62 MB with the
    # full bases and J_n and L_n on the columns with parts <= 2, 2.87 MB and 1.27 MB with
    # L_n on every column), J_n is cached once, J_{-n} being its swapped slice, and each
    # basis holds its raise map but no partition tuples or sorted row keys (4.67 MB and
    # 1.53 MB with them, L_n on every column and fock.apply scattering all columns at
    # once).  The bounds are about 10% over.
    g, f = _pair()
    _clear_caches()
    tracemalloc.start()
    try:
        for N in range(10, 19, 2):
            sugawara.weyl_adjoint_stress_residual(g, f, N)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.05e6
    assert held < 0.53e6


def test_a_generator_reaching_the_cutoff_shares_the_full_virasoro_modes():
    # g of top mode 16 at N = 16 makes the residual's top part 18 >= N, the full basis, so
    # T(f) by default then finds its five L_n cached under the same keys, not held twice
    rng = np.random.default_rng(1)
    g, f = fn.random_real_circle(16, rng, 0.3), fn.random_real_circle(2, rng, 0.3)
    _clear_caches()
    sugawara.weyl_adjoint_stress_residual(g, f, 16)
    before = sugawara._virasoro.cache_info()
    fock.smear(sugawara.virasoro_triples, f, 16)
    after = sugawara._virasoro.cache_info()
    assert (after.hits - before.hits, after.misses, after.currsize) == (5, before.misses, 5)
    assert fock.basis(16, 18) is fock.basis(16) and fock.basis(16, 16) is fock.basis(16)


def test_clearing_the_caches_leaves_no_basis():
    # a new cutoff grows the largest basis built below it, so a basis left behind by the
    # clearing would make the next pass start warm
    built = fock.basis(10), fock.basis(12)
    _clear_caches()
    assert fock.basis(12) is not built[1] and fock.basis(10) is not built[0]


def test_cold_virasoro_build_peak():
    # L_{-2} at N = 24, 18,994 entries, built from the slices of J_c and the raise map with
    # the basis, which holds that map, and the J triples cached: measured 1.49 MB (2.23 MB
    # building the map per L_n, 3.18 MB as one product over all pairs and a merge); the
    # bound is about 10% over
    fock.mode_triples(1, 24)
    sugawara.virasoro_triples.cache_clear()
    tracemalloc.start()
    try:
        sugawara.virasoro_triples(-2, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.64e6


def test_apply_peak_per_entry():
    # J(f), f of top mode 20, on vacuum(20): 16,532 entries over dim 2,714.  The scatter
    # measured 0.49 MB, one complex product per entry, a copy of its real or imaginary
    # part and little else; 0.62 MB with the places of the products, and the whole-basis
    # gather before that 2.12 MB.
    f = fn.random_real_circle(20, np.random.default_rng(1))
    J, v = fock.smear(fock.mode_triples, f, 20), fock.vacuum(20)
    assert (len(J[0]), len(v)) == (16532, 2714)
    assert _traced_peak(lambda: fock.apply(J, v)) < 2 * 16 * len(J[0])
