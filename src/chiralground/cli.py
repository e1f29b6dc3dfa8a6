"""Command-line driver for the verification suites and numerical demonstrations.

Subcommands: verify | charge | nonnormal | ground.  verify, charge and nonnormal print a
table as CSV, whose numbers carry 12 significant digits, or as JSON; ground prints a JSON
report.  JSON numbers are the shortest repr of each float.  The exit status is 0 iff every
executed check passed or was explicitly skipped by the window rules; charge checks each
c_est.  ground and nonnormal run no gated check yet, so for them that rule is vacuous.
Every printed number is finite: a run that overflows (a numpy overflow or invalid result
among others), or would print inf or nan, ends with a one-line error and exit status 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import fock, states, sugawara
from .fnspace import (CircleFourier, circle_from_real_modes, circle_to_json, gaussian_bump_line,
                      gn_family, line_integral, random_real_circle, sobolev_half_sq)

HEADERS = {
    "verify": ("name", "window", "residual", "threshold", "status"),
    "charge": ("kappa", "c_est", "abs_error"),
    "nonnormal": ("n", "q_n", "d_n", "flag"),
}


# charge refuses a larger |kappa| before any work.  The largest intermediate of c_est
# on the default fields is 12 SIGMA_NORM <vac, [T(F), T(G)] vac> = 3 pi kappa^2, which
# overflows from |kappa| = 4.4e153; at 1e150 it and 1 + kappa^2 stay below 1e301.
KAPPA_MAX = 1e150

# verify refuses a larger cutoff before any work: its basis has p(0) + ... + p(N) vectors,
# and --cutoff 40 took 16.3 s and 949 MiB peak RSS on a 2-core Intel Xeon host (Python
# 3.11, numpy 2.4), each further level multiplying both by about 1.25 (N = 50 would need
# some 8 GiB).
VERIFY_CUTOFF_MAX = 40


class UsageError(ValueError):
    """Input the command line accepted but the computation cannot honour (exit 2)."""


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def parse_function_spec(spec: str, M: int):
    """Mini-language for test functions: gn:<n> | bump:<center>:<width> | fourier:<a0>,<a1>,...

    Returns the circle representative of the scalar function and, for a bump, the
    residual of its projection and the error |int f dt - width sqrt(pi)| (else None).
    fourier coefficients are read as a0 + sum_k (a_k cos k theta + b_k sin k theta)
    with the list a0,a1,b1,a2,b2,...  Raises UsageError for a spec it cannot honour,
    a fourier spec with a nonzero mode above M among them.
    """
    kind, _, rest = spec.partition(":")
    try:
        if kind == "gn":
            return gn_family(int(rest)), None
        if kind == "bump":
            center_s, _, width_s = rest.partition(":")
            center, width = _finite(center_s), _finite(width_s)
            if width <= 0:
                raise ValueError("bump width must be > 0")
            obj, resid = gaussian_bump_line(center, width, M)
            if not np.any(obj.coeffs):  # no grid sample sees the bump: all of them are 0
                raise ValueError(f"the sampling grid of --modes {M} misses the bump")
            error = abs(line_integral(obj).value - width * math.sqrt(math.pi))
            return obj, {"projection_error": resid, "integral_error": error}
        if kind == "fourier":
            vals = [_finite(x) for x in rest.split(",") if x] or [0.0]
            h = circle_from_real_modes(vals[0], vals[1::2], vals[2::2])
            if np.any(h.coeffs[M + 1:]):
                raise UsageError(f"{spec!r} has modes above --modes {M}")
            return h, None
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"function spec {spec!r}: {exc}") from None
    raise UsageError(f"unknown function spec: {spec!r}")


# ---------------------------------------------------------------------------
# verify


def run_verify(N: int, seed: int, drop_central: bool = False) -> tuple[list, bool]:
    """The operator-identity suite at cutoff N: rows of HEADERS["verify"], and
    whether every check passed or was skipped."""
    rng = np.random.default_rng(seed)
    rows = []

    def check(name, window, residual_fn, threshold, label=None):
        if window < 0:
            rows.append((name, "none", 0.0, threshold, "skip"))
            return
        r = residual_fn()
        rows.append((name, label or f"level<={window}", r, threshold,
                     "pass" if r < threshold else "fail"))

    pairs = [(m, n) for m in range(-4, 5) for n in range(-4, 5) if m <= n]
    for m, n in pairs:
        check(f"heisenberg({m},{n})", fock.exactness_window(N, m, n),
              lambda: fock.heisenberg_residual(m, n, N), 1e-10)
    for m, n in pairs:
        check(f"virasoro({m},{n})", fock.exactness_window(N, m, n),
              lambda: sugawara.virasoro_residual(m, n, N, drop_central=drop_central), 1e-9)

    def vacuum_moment(n):  # <vac, x> is x[0], the vacuum being the first basis vector
        L = sugawara.virasoro_triples
        return abs(fock.apply(L(n, N), fock.apply(L(-n, N), fock.vacuum(N)))[0]
                   - (n**3 - n) / 12.0)

    for n in range(2, 6):  # L_{-n} vac lies on level n, which L_n takes back to the vacuum
        check(f"vacuum_moment({n})", fock.exactness_window(N, n),
              lambda: vacuum_moment(n), 1e-10, label=f"level<={N}")

    for trial in range(3):
        Mf, Mg = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        check(f"mixed_TJ(trial={trial})", fock.exactness_window(N, Mf + Mg, Mf + Mg),
              lambda: sugawara.mixed_relation_residual(
                  random_real_circle(Mf, rng), random_real_circle(Mg, rng), N), 1e-9)

    def adjointness(n):  # u, v on the levels <= the window, amplitudes drawn as (re, im) pairs
        off = fock.basis(N).offsets
        amps = rng.standard_normal((2, off[fock.exactness_window(N, n) + 1], 2)).view(complex)
        u, v = (np.pad(a[:, 0], (0, off[-1] - len(a))) for a in amps)
        lhs = fock.inner(fock.apply(fock.mode_triples(-n, N), u), v, N)
        rhs = fock.inner(u, fock.apply(fock.mode_triples(n, N), v), N)
        return abs(lhs - rhs) / (fock.norm(u, N) * fock.norm(v, N))

    for trial in range(3):
        n = int(rng.integers(1, 4))
        check(f"adjointness(n={n},trial={trial})", fock.exactness_window(N, n),
              lambda: adjointness(n), 1e-12)

    def sobolev_norm_identity():
        worst = 0.0
        for _ in range(50):
            f = random_real_circle(int(rng.integers(1, N + 1)), rng)
            jf = fock.apply(fock.smear(fock.mode_triples, f, N), fock.vacuum(N))
            worst = max(worst, abs(fock.inner(jf, jf, N).real - sobolev_half_sq(f)))
        return worst

    # at N = 0 no mode of a test function fits under the cutoff
    check("sobolev_norm_identity", N if N >= 1 else -1, sobolev_norm_identity, 1e-12)
    return rows, all(row[-1] != "fail" for row in rows)


# ---------------------------------------------------------------------------
# charge


def run_charge(N: int, kappas) -> tuple[list, bool]:
    """c_est against 1 + kappa^2 at cutoff N: rows of HEADERS["charge"], and
    whether every c_est lies within 1e-9 of 1 + kappa^2, relative."""
    rows = []
    F, G = _default_vector_fields()
    for kappa in kappas:
        c_est = sugawara.central_charge_estimate(F, G, kappa, N)
        rows.append((kappa, c_est, abs(c_est - (1.0 + kappa**2))))
    return rows, all(err <= 1e-9 * (1.0 + kappa**2) for kappa, _, err in rows)


def _default_vector_fields() -> tuple[CircleFourier, CircleFourier]:
    # Band-limited fields vanishing at the point at infinity to orders 4 and 5;
    # the (1 - cos)^2 factor keeps the perturbation term band-limited too.
    F = circle_from_real_modes(1.5, [-2.0, 0.5])  # (1 - cos)^2
    G = circle_from_real_modes(0.0, [], [1.25, -1.0, 0.25])  # (1 - cos)^2 sin
    return F, G


# ---------------------------------------------------------------------------
# nonnormal


def run_nonnormal(q: float, n_max: int, modes: int) -> tuple[list, bool]:
    """The tent-sequence table for n = 4, 8, ... <= n_max: rows of HEADERS["nonnormal"]."""
    ns = [4 * 2**k for k in range(n_max.bit_length() - 2)]  # 4, 8, ... <= n_max
    series = states.nonnormality_series(q, ns, max(modes, 2 * n_max))
    return [(r.n, r.q_n, r.d_n, "ok" if r.converged else "divergent") for r in series], True


# ---------------------------------------------------------------------------
# ground


def run_ground(q: float, fspec: str, M: int, seed: int) -> dict:
    f, projection = parse_function_spec(fspec, M)
    report = {"q": q, "function": fspec}
    if projection is not None:
        report["input"] = projection
    gw = states.ground_weyl(q, (f,), M)
    report["ground_weyl"] = {"re": gw.value.real, "im": gw.value.imag,
                             "divergent": gw.divergent}
    one = states.ground_current_onepoint(q, f, M)
    report["current_onepoint"] = {"closed_form": one.closed_form,
                                  "finite_difference": one.finite_difference}
    report["stress_onepoint"] = states.ground_stress_onepoint(q, f)
    rng = np.random.default_rng(seed)
    draws = [(*gaussian_bump_line(float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 1.5)), M),
              float(rng.uniform(-1, 1))) for _ in range(4)]  # (bump, residual, scale)
    report["gram_min_eigenvalue"] = states.gram_psd(q, [b.scale(s) for b, _, s in draws], M)
    report["gram_projection_error"] = max(resid for _, resid, _ in draws)
    # f vanishes at infinity here (a divergent f ended the run above), so its images do too
    for key, arg, value, r in (
            ("dilation_orbit", "s", 0.5, states.dilation_orbit_residual(q, 0.5, f, M)),
            ("translation", "t", 1.0, states.translation_invariance_residual(q, f, 1.0, M))):
        report[key] = {arg: value, "projection_error": r.projection_error,
                       "residual": r.residual, "budget": r.budget}
    report["circle_representative"] = circle_to_json(states.as_fourier(f, M))
    return report


# ---------------------------------------------------------------------------
# output


def _check_finite(result):
    """Refuse, with OverflowError, a table or report that holds a non-finite float."""
    try:
        json.dumps(result, allow_nan=False)
    except ValueError:
        raise OverflowError("a number to print is not finite") from None


def _emit(header, rows, fmt: str, out):
    """Write a table as CSV (floats through _fmt) or as a JSON list of objects."""
    if fmt == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [header] + [[_fmt(x) if isinstance(x, float) else x for x in row] for row in rows])
        text = buf.getvalue()
    _write(text, out)


def _write(text: str, out):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--out: {exc.strerror}: {out!r}") from None


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chiralground")
    sub = ap.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the operator-identity suite")
    verify.add_argument("--drop-central-term", action="store_true",
                        help="mutation testing: omit the Virasoro central scalar")

    charge = sub.add_parser("charge", help="central-charge table over kappa values")
    charge.add_argument("--kappa", default="0,0.5,1,2",
                        help="comma-separated kappa values")

    nonnormal = sub.add_parser("nonnormal", help="non-normality table (n, q_n, d_n)")
    nonnormal.add_argument("--q", type=float, default=1.0)
    nonnormal.add_argument("--n-max", type=int, default=256)

    ground = sub.add_parser("ground", help="ground-state report for one test function (JSON)")
    ground.add_argument("--q", type=float, default=1.0)
    ground.add_argument("--function", default="bump:0:1",
                        help="gn:<n> | bump:<center>:<width> | fourier:<a0>,<a1>,<b1>,...")

    for sp in (verify, charge):
        sp.add_argument("--cutoff", type=int, default=12)
    for sp in (nonnormal, ground):
        sp.add_argument("--modes", type=int, default=64)
    for sp in (verify, charge, nonnormal):
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
    for sp in (verify, charge, nonnormal, ground):
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=0,
                        help="seed of the random inputs (charge and nonnormal draw none)")
    return ap


def _option(flag: str, text) -> float:
    """A finite number given for flag; UsageError otherwise."""
    try:
        return _finite(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _check_options(args):
    """Refuse options the computation cannot honour, with UsageError, before any work."""
    if args.command in ("verify", "charge") and args.cutoff < 0:
        raise UsageError("--cutoff must be >= 0")
    if args.command == "verify" and args.cutoff > VERIFY_CUTOFF_MAX:
        raise UsageError(f"--cutoff must be <= {VERIFY_CUTOFF_MAX} for verify")
    if args.seed < 0:  # numpy's default_rng refuses it with a message that names no option
        raise UsageError("--seed must be >= 0")
    if args.command in ("nonnormal", "ground"):
        if args.modes < 1:
            raise UsageError("--modes must be >= 1")
        _option("--q", args.q)
    if args.command == "nonnormal" and args.n_max < 4:  # the table starts at n = 4
        raise UsageError("--n-max must be >= 4")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise UsageError(f"--out: No such file or directory: {args.out!r}")


def _kappas(text: str) -> list:
    entries = text.split(",")
    if not any(entries):
        raise UsageError("--kappa: no value given")
    if not all(entries):
        raise UsageError("--kappa: empty entry")
    kappas = [_option("--kappa", x) for x in entries]
    for kappa in kappas:
        if abs(kappa) > KAPPA_MAX:
            raise UsageError(f"--kappa: {kappa:g} is out of range: |kappa| must be "
                             f"<= {KAPPA_MAX:g} for c_est to stay finite")
    return kappas


@np.errstate(over="raise", invalid="raise")  # a numpy overflow ends in one error line
def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_options(args)
        if args.command == "ground":
            report = run_ground(args.q, args.function, args.modes, args.seed)
            _check_finite(report)
            _write(json.dumps(report, indent=2) + "\n", args.out)
            return 0
        if args.command == "verify":
            rows, ok = run_verify(args.cutoff, args.seed, args.drop_central_term)
        elif args.command == "charge":
            rows, ok = run_charge(args.cutoff, _kappas(args.kappa))
        else:
            rows, ok = run_nonnormal(args.q, args.n_max, args.modes)
        _check_finite(rows)
        _emit(HEADERS[args.command], rows, args.format, args.out)
        return 0 if ok else 1
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:  # e.g. a DivergenceError, or a cutoff outside a window
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (OverflowError, FloatingPointError) as exc:  # e.g. q^2 at --q 1e160, numpy overflow
        sys.stderr.write(f"error: an input is out of range: {exc.args[-1]}\n")
        return 1
    except MemoryError as exc:  # e.g. numpy refusing an array of 10^12 modes
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
