import csv
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import chiralground
from chiralground import cli, fnspace, fock, states, sugawara


class TestFunctionSpec:
    def test_gn(self):
        f, projection = cli.parse_function_spec("gn:8", 64)
        assert projection is None
        assert isinstance(f, fnspace.PiecewiseLinearCircle)
        assert f(1.5 * math.pi) == pytest.approx(math.pi / 2)

    def test_bump(self):
        f, _ = cli.parse_function_spec("bump:0.5:1.2", 64)
        assert isinstance(f, fnspace.CircleFourier) and f.max_mode == 64
        assert isinstance(f(1.0), float)

    def test_fourier(self):
        f, projection = cli.parse_function_spec("fourier:1,0.5,0.25", 64)
        assert projection is None
        # a0 + a1 cos + b1 sin at theta = 0
        assert f(0.0) == pytest.approx(1.5)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_function_spec("nope:1", 64)

    def test_fourier_above_the_modes_refused(self):
        with pytest.raises(cli.UsageError, match=r"^'fourier:-1,0,0,1' has modes above --modes 1$"):
            cli.parse_function_spec("fourier:-1,0,0,1", 1)
        f, _ = cli.parse_function_spec("fourier:1,-1,0,0,0", 1)  # zero modes above 1 are kept
        assert f.max_mode == 2 and f.coeffs[1] == -0.5


class TestVerify:
    def test_exit_zero_and_all_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        rc = cli.main(["verify", "--cutoff", "10", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "name,window,residual,threshold,status"
        statuses = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
        assert statuses <= {"pass", "skip"}
        assert "fail" not in statuses

    def test_mutation_fails_with_exit_one(self, tmp_path):
        out = tmp_path / "mut.csv"
        rc = cli.main(["verify", "--cutoff", "10", "--drop-central-term",
                       "--out", str(out)])
        assert rc == 1
        rows = list(csv.reader(out.read_text().splitlines()))
        assert ["virasoro(-2,2)", "fail"] in [[row[0], row[-1]] for row in rows]

    def test_small_cutoff_skips_out_of_window(self, tmp_path):
        out = tmp_path / "small.csv"
        rc = cli.main(["verify", "--cutoff", "4", "--out", str(out)])
        lines = out.read_text().strip().splitlines()[1:]
        assert any(ln.endswith("skip") for ln in lines)
        assert rc == 0

    def test_vacuum_moments_exact_from_their_level(self, capsys):
        # <vac, L_n L_{-n} vac> needs level n only; these rows were skipped below cutoff 2n
        assert cli.main(["verify", "--cutoff", "5"]) == 0
        rows = {row[0]: row for row in csv.reader(capsys.readouterr().out.splitlines())}
        for n in (3, 4, 5):
            assert rows[f"vacuum_moment({n})"][-1] == "pass"

    def test_cutoff_zero_skips_sobolev_identity(self, capsys):
        # the Sobolev draw asked rng.integers(1, 1) and ended in a traceback
        rc = cli.main(["verify", "--cutoff", "0"])
        assert rc == 0
        name, window, _, _, status = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        assert (name, window, status) == ("sobolev_norm_identity", "none", "skip")

    @pytest.mark.parametrize("cutoff", [cli.VERIFY_CUTOFF_MAX + 1, 100000])
    def test_cutoff_above_the_cap_refused_before_any_work(self, cutoff, monkeypatch, capsys):
        # --cutoff 100000 enumerated the partitions of every level up to it until the process
        # was killed for its memory; a refused cutoff builds no basis
        def refuse(*_args):
            raise AssertionError("a basis built for a refused cutoff")

        monkeypatch.setattr(fock, "basis", refuse)
        monkeypatch.setattr(fock, "partitions_at", refuse)
        assert cli.main(["verify", "--cutoff", str(cutoff)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: --cutoff must be <= {cli.VERIFY_CUTOFF_MAX} for verify")
        # the cap itself passes the option checks, and charge takes any cutoff
        for argv in (["verify", "--cutoff", str(cli.VERIFY_CUTOFF_MAX)],
                     ["charge", "--cutoff", str(cutoff)]):
            cli._check_options(cli._parser().parse_args(argv))

    def test_json_format(self, tmp_path):
        out = tmp_path / "verify.json"
        rc = cli.main(["verify", "--cutoff", "8", "--format", "json",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert {"name", "window", "residual", "threshold", "status"} <= set(payload[0])


class TestCharge:
    def test_table(self, tmp_path):
        out = tmp_path / "charge.csv"
        rc = cli.main(["charge", "--cutoff", "14", "--kappa", "0,1",
                       "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kappa,c_est,abs_error"
        k0 = [float(x) for x in lines[1].split(",")]
        k1 = [float(x) for x in lines[2].split(",")]
        assert k0[1] == pytest.approx(1.0, abs=1e-6)
        assert k1[1] == pytest.approx(2.0, abs=1e-3)

    def test_cutoff_below_exactness_window_refused(self, capsys):
        # at cutoff 1 the bracket's vacuum amplitude is outside its window (c_est was
        # 0.5 at kappa 1, and -0 at kappa 0, which was printed with exit status 0)
        for kappa in ("1", "0"):
            rc = cli.main(["charge", "--cutoff", "1", "--kappa", kappa])
            assert rc == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: cutoff 1 too small")
            assert captured.err.count("\n") == 1

    def test_smallest_exact_cutoff_accepted(self, capsys):
        # cutoffs 2 to 5 were refused, although the values there are exact
        rc = cli.main(["charge", "--cutoff", "2", "--kappa", "0.5,1", "--format", "json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["c_est"] for r in rows] == pytest.approx([1.25, 2.0], abs=1e-12)

    def test_estimate_off_target_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(sugawara, "central_charge_estimate",
                            lambda F, G, kappa, N: 1.0 + kappa**2 + (kappa == 1.0) * 1e-6)
        rc = cli.main(["charge", "--kappa", "0,1,2"])
        assert rc == 1
        assert len(capsys.readouterr().out.strip().splitlines()) == 4  # every row is printed

    @pytest.mark.parametrize("kappas", ["1.3e154", "2e154", "1e300", "0,-2e154"])
    def test_kappa_beyond_the_bound_refused_before_any_work(self, kappas, monkeypatch, capsys,
                                                            recwarn):
        # 1.3e154 printed c_est = inf with exit 1 and nothing on stderr; 2e154 and
        # 1e300 ended in RuntimeWarnings and an OverflowError traceback
        def refuse(*_args):
            raise AssertionError("c_est computed for a refused kappa")

        monkeypatch.setattr(sugawara, "central_charge_estimate", refuse)
        rc = cli.main(["charge", "--kappa", kappas])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --kappa: ") and err.count("\n") == 1
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_kappa_at_the_bound_is_exact(self, capsys):
        rc = cli.main(["charge", "--kappa", "1e150", "--format", "json"])
        assert rc == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["c_est"] == pytest.approx(1.0 + 1e300, rel=1e-9)

    def test_each_field_resampled_once_per_estimate(self, monkeypatch, capsys):
        # two vector fields, three nonzero kappas: F' and G' once per kappa (was 12)
        calls, resample = [], sugawara.multiply_by_t

        def counted(*args, **kwargs):
            calls.append(args)
            return resample(*args, **kwargs)

        monkeypatch.setattr(sugawara, "multiply_by_t", counted)
        rc = cli.main(["charge", "--cutoff", "16", "--kappa", "0,0.5,1,2"])
        assert rc == 0
        assert len(calls) == 6


@pytest.mark.parametrize("command", ["verify", "charge"])
def test_negative_cutoff_is_a_one_line_error(command, capsys):
    rc = cli.main([command, "--cutoff", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --cutoff must be >= 0\n"


@pytest.mark.parametrize("argv, message", [
    (["--function", "bump:0:0"], "function spec 'bump:0:0': bump width must be > 0"),
    (["--function", "bump:0:-1"], "function spec 'bump:0:-1': bump width must be > 0"),
    (["--function", "bump:nan:1"], "function spec 'bump:nan:1': 'nan' is not a finite number"),
    (["--function", "gn:0"], "function spec 'gn:0': n must be >= 1"),
    (["--modes", "0"], "--modes must be >= 1"),
    (["--function", "bump:1e300:1", "--modes", "8"],
     "function spec 'bump:1e300:1': the sampling grid of --modes 8 misses the bump"),
    (["--function", "bump:0:1e-9", "--modes", "8"],
     "function spec 'bump:0:1e-9': the sampling grid of --modes 8 misses the bump"),
], ids=["bump-width-0", "bump-width-negative", "bump-center-nan", "gn-0", "modes-0",
        "bump-far-off-grid", "bump-between-nodes"])
def test_ground_input_is_validated(argv, message, capsys, recwarn):
    # bump:0:0 divided by zero with a RuntimeWarning, bump:0:-1 was accepted,
    # bump:nan:1 printed NaN values, gn:0 ended in a traceback and --modes 0
    # printed vacuous values; bump:1e300:1 overflowed with a RuntimeWarning, and it
    # and bump:0:1e-9, whose every grid sample is 0, reported zeros as values
    rc = cli.main(["ground"] + argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv, message", [
    (["charge", "--kappa", "abc"], "--kappa: could not convert string to float: 'abc'"),
    (["charge", "--kappa", "0,nan"], "--kappa: 'nan' is not a finite number"),
    (["nonnormal", "--q", "nan"], "--q: nan is not a finite number"),
    (["ground", "--q", "inf"], "--q: inf is not a finite number"),
    (["charge", "--kappa", ","], "--kappa: no value given"),
    (["charge", "--kappa", "1,,2"], "--kappa: empty entry"),
    (["charge", "--kappa", "0,1,"], "--kappa: empty entry"),
    (["charge", "--kappa", ",1"], "--kappa: empty entry"),
    (["verify", "--cutoff", "4", "--seed", "-1"], "--seed must be >= 0"),
    (["ground", "--seed", "-1"], "--seed must be >= 0"),
], ids=["charge-kappa-abc", "charge-kappa-nan", "nonnormal-q-nan", "ground-q-inf",
        "charge-kappa-empty", "charge-kappa-empty-entry", "charge-kappa-trailing-comma",
        "charge-kappa-leading-comma", "verify-seed-negative", "ground-seed-negative"])
def test_numeric_options_are_validated(argv, message, capsys):
    # charge --kappa abc ended in a traceback, --kappa nan and nonnormal --q nan
    # printed nan, ground --q inf raised LinAlgError, --kappa , printed an
    # empty table, --kappa 1,,2 and 0,1, dropped the empty entry and printed the
    # other rows with exit status 0, and --seed -1 ended in numpy's error, which
    # names no option, with exit status 1
    rc = cli.main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--cutoff", "8"],
    ["charge", "--cutoff", "8", "--kappa", "0,1"],
    ["nonnormal", "--n-max", "32"],
], ids=["verify", "charge", "nonnormal"])
def test_csv_and_json_tables_agree(argv, capsys):
    assert cli.main(argv) == 0
    header, *lines = csv.reader(capsys.readouterr().out.splitlines())
    assert cli.main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == len(lines)
    for line, row in zip(lines, payload):
        assert list(row) == header
        assert line == [cli._fmt(v) if isinstance(v, float) else str(v) for v in row.values()]


@pytest.mark.parametrize("argv, runner", [
    (["verify", "--cutoff", "2"], "run_verify"),
    (["charge", "--cutoff", "6", "--kappa", "0"], "run_charge"),
    (["nonnormal", "--n-max", "4"], "run_nonnormal"),
    (["ground", "--modes", "16"], "run_ground"),
], ids=["verify", "charge", "nonnormal", "ground"])
def test_out_into_missing_directory_is_a_one_line_error(argv, runner, tmp_path, capsys,
                                                        monkeypatch):
    # the table or report was computed and then open() ended in a traceback;
    # then the computation ran in full before the error
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"cli.{runner} ran before --out was checked")

    monkeypatch.setattr(cli, runner, refuse)
    path = tmp_path / "no" / "such" / "x.csv"
    rc = cli.main(argv + ["--out", str(path)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: --out: No such file or directory: {str(path)!r}\n")


@pytest.mark.parametrize("argv", [
    ["ground", "--format", "csv"],
    ["ground", "--cutoff", "2"],
    ["nonnormal", "--cutoff", "1"],
    ["charge", "--modes", "3"],
    ["ground", "--kappa", "0.5"],
    ["verify", "--modes", "3"],
], ids=["ground-format", "ground-cutoff", "nonnormal-cutoff", "charge-modes", "ground-kappa",
        "verify-modes"])
def test_options_a_subcommand_does_not_read_are_refused(argv, capsys):
    # each was accepted and then ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ground", "--q", "1e160"],
    ["ground", "--q", "1e200"],
    ["nonnormal", "--q", "1e308", "--n-max", "8"],
], ids=["ground-q-1e160", "ground-q-1e200", "nonnormal-q-1e308"])
def test_overflow_is_a_one_line_error(argv, capsys):
    # ground ended in an OverflowError traceback from q**2, and nonnormal
    # printed q_n = inf, flagged ok, with exit status 0
    rc = cli.main(argv)
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: an input is out of range: ") and err.count("\n") == 1


@pytest.mark.parametrize("fspec", ["fourier:1e308,1e308", "fourier:0,1e200,0,1e200"])
def test_numpy_overflow_is_a_one_line_error(fspec, capsys):
    # each printed numpy RuntimeWarnings (overflow in square, in matmul, ...) before its
    # one-line error
    rc = cli.main(["ground", "--function", fspec])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: an input is out of range: overflow encountered in ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["ground", "--q", "1e150"],
    ["nonnormal", "--q", "1e300", "--n-max", "8", "--format", "json"],
], ids=["ground-q-1e150", "nonnormal-q-1e300"])
def test_large_q_with_finite_results_runs(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "Infinity" not in out and "NaN" not in out


class TestNonNormal:
    def test_csv_schema_and_monotone(self, tmp_path):
        out = tmp_path / "nn.csv"
        rc = cli.main(["nonnormal", "--n-max", "32", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,q_n,d_n,flag"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == [4, 8, 16, 32]
        assert all(r[3] == "ok" for r in rows)
        qs = [float(r[1]) for r in rows]
        assert qs == sorted(qs)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["nonnormal", "--n-max", "16", "--out", str(a)])
        cli.main(["nonnormal", "--n-max", "16", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_n_max_below_first_row_refused(self, capsys):
        rc = cli.main(["nonnormal", "--n-max", "3"])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: --n-max must be >= 4\n")


class TestGround:
    def test_report_keys(self, tmp_path):
        out = tmp_path / "ground.json"
        rc = cli.main(["ground", "--q", "1",
                       "--function", "bump:0:1", "--modes", "96",
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        for key in ["ground_weyl", "current_onepoint", "stress_onepoint",
                    "gram_min_eigenvalue", "gram_projection_error", "dilation_orbit",
                    "translation", "circle_representative"]:
            assert key in report
        assert not report["ground_weyl"]["divergent"]
        one = report["current_onepoint"]
        assert one["finite_difference"] == pytest.approx(one["closed_form"], abs=1e-6)
        assert report["gram_min_eigenvalue"] > -1e-10

    def test_gram_projection_error_and_representative(self, capsys):
        # the largest projection residual of the four seeded Gram bumps, and the
        # stored coefficients c_0 .. c_M of the input
        assert cli.main(["ground", "--function", "bump:0:1", "--modes", "96", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        err = report["gram_projection_error"]
        assert math.isfinite(err) and 0.0 < err < 1e-8
        rep = report["circle_representative"]
        f, _ = cli.parse_function_spec("bump:0:1", 96)
        assert rep["M"] == 96 and len(rep["re"]) == len(rep["im"]) == 97
        assert rep["re"] == f.coeffs.real.tolist() and rep["im"] == f.coeffs.imag.tolist()

    def test_gn_function_accepted(self, tmp_path):
        out = tmp_path / "gn.json"
        rc = cli.main(["ground", "--q", "2", "--function", "gn:8",
                       "--modes", "128", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert not report["ground_weyl"]["divergent"]

    def test_gn8_current_onepoint_is_exact(self, tmp_path):
        out = tmp_path / "gn8.json"
        rc = cli.main(["ground", "--q", "1", "--function", "gn:8", "--modes", "96",
                       "--out", str(out)])
        assert rc == 0
        one = json.loads(out.read_text())["current_onepoint"]
        assert one["closed_form"] == pytest.approx(6.930820615543, abs=1e-9)

    @pytest.mark.parametrize("modes", ["16", "32"])
    def test_bump_at_low_mode_counts(self, tmp_path, modes):
        out = tmp_path / "low.json"
        rc = cli.main(["ground", "--function", "bump:0:1", "--modes", modes,
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert not report["ground_weyl"]["divergent"]
        assert report["gram_min_eigenvalue"] > -1e-10

    @pytest.mark.parametrize("argv", [
        ["--function", "bump:0:1", "--modes", "96", "--seed", "1"],
        ["--function", "gn:8", "--modes", "96"],
        ["--function", "bump:0.5:1.2", "--q", "0.7", "--seed", "3"],
        ["--function", "fourier:1,-1", "--modes", "800"],
    ], ids=["bump:0:1", "gn:8", "bump:0.5:1.2", "fourier:1,-1"])
    def test_covariance_residual_within_budget(self, argv, capsys):
        # gn:8's entries read divergent before its projections were made to vanish at
        # infinity; it now reports residuals of about 0.70 and 0.27 within their budgets
        rc = cli.main(["ground"] + argv)
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for key in ["dilation_orbit", "translation"]:
            entry = report[key]
            assert set(entry) >= {"projection_error", "residual", "budget"}
            assert entry["residual"] <= entry["budget"] * (1 + 1e-12)

    def test_bump_input_budget(self, capsys):
        # bump:100:1 lies where the line grid is sparse: its projection integrates to -6.52,
        # not sqrt(pi), and the report says so
        inputs = {}
        for fspec in ("bump:0:1", "bump:100:1"):
            assert cli.main(["ground", "--function", fspec, "--modes", "96"]) == 0
            report = json.loads(capsys.readouterr().out)
            one = report["current_onepoint"]["closed_form"]
            assert report["input"]["integral_error"] == abs(one - math.sqrt(math.pi))
            inputs[fspec] = report["input"]
        assert inputs["bump:0:1"]["integral_error"] < 1e-11
        assert inputs["bump:0:1"]["projection_error"] < 1e-13
        assert inputs["bump:100:1"]["integral_error"] == pytest.approx(8.29, abs=0.01)
        assert inputs["bump:100:1"]["projection_error"] > 0.04

    @pytest.mark.parametrize("fspec", ["bump:0:1", "gn:8"])
    def test_each_covariance_side_resampled_once(self, fspec, monkeypatch, capsys):
        # each covariance residual resamples f once and reports that projection's error
        calls = []
        for name in ("dilate_line", "translate_line"):
            def counted(*args, _orig=getattr(fnspace, name), _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(states, name, counted)
        rc = cli.main(["ground", "--function", fspec, "--modes", "32"])
        assert rc == 0
        assert sorted(calls) == ["dilate_line", "translate_line"]
        report = json.loads(capsys.readouterr().out)
        for key in ["dilation_orbit", "translation"]:
            assert "projection_error" in report[key]

    def test_divergent_function_is_a_one_line_error(self, capsys):
        # h = -0.99999999 + cos has h(0) = 1e-8, within line_integral's tolerance for
        # projected input: it printed a current one-point value of -2 pi and exited 0
        for fspec in ("fourier:1", "fourier:-0.99999999,1"):
            rc = cli.main(["ground", "--function", fspec, "--modes", "16"])
            assert rc == 1
            assert capsys.readouterr().err == "error: current one-point value diverges\n"

    def test_wide_grid_resamples_a_function_vanishing_at_infinity(self, capsys):
        # 1 - cos vanishes at infinity like 2/t^2; from 785 modes on, the
        # resampling grid once reached into a support-collision guard that
        # refused it with exit 1
        rc = cli.main(["ground", "--modes", "800", "--function", "fourier:1,-1"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for key in ["dilation_orbit", "translation"]:
            assert report[key]["residual"] < 1e-5

    def test_fourier_spec_wider_than_modes_refused(self, capsys):
        # at --modes 1 the Gaussian factor would see only the first mode of four
        rc = cli.main(["ground", "--function", "fourier:-1,0,0,1", "--modes", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: 'fourier:-1,0,0,1' has modes above --modes 1\n"


def test_out_of_memory_is_a_one_line_error():
    # 2^41 modes need 16 TiB; the address-space cap makes that allocation fail whatever
    # the host's overcommit setting, and numpy's MemoryError must end in one line
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(chiralground.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "chiralground.cli", "nonnormal", "--n-max",
                          "1099511627776"], capture_output=True, text=True, preexec_fn=cap,
                         env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: out of memory: Unable to allocate")
    assert out.stderr.count("\n") == 1
