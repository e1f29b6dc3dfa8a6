import json
import math

import pytest

from chiralground import cli
from chiralground.fnspace import QuadratureSpec, Weight


class TestFunctionSpec:
    QUAD = QuadratureSpec(2048, 1e-3)

    def test_gn(self):
        f = cli.parse_function_spec("gn:8", 64, self.QUAD)
        assert f.weight is Weight.FUNCTION
        assert f.circle_repr(1.5 * math.pi) == pytest.approx(math.pi / 2)

    def test_bump(self):
        f = cli.parse_function_spec("bump:0.5:1.2", 64, self.QUAD)
        assert f.circle_repr.is_real

    def test_fourier(self):
        f = cli.parse_function_spec("fourier:1,0.5,0.25", 64, self.QUAD)
        # a0 + a1 cos + b1 sin at theta = 0
        assert f.circle_repr(0.0) == pytest.approx(1.5)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_function_spec("nope:1", 64, self.QUAD)


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
        text = out.read_text()
        assert any(
            ln.startswith("virasoro(-2,2)") and ln.endswith("fail")
            for ln in text.splitlines()
        )

    def test_small_cutoff_skips_out_of_window(self, tmp_path):
        out = tmp_path / "small.csv"
        rc = cli.main(["verify", "--cutoff", "4", "--out", str(out)])
        lines = out.read_text().strip().splitlines()[1:]
        assert any(ln.endswith("skip") for ln in lines)
        assert rc == 0

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
        # at cutoff 1 the bracket's vacuum amplitude is outside its window (c_est was 0.5)
        rc = cli.main(["charge", "--cutoff", "1", "--kappa", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cutoff 1 too small") and err.count("\n") == 1

    def test_smallest_exact_cutoff_accepted(self, capsys):
        rc = cli.main(["charge", "--cutoff", "6", "--kappa", "1", "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)[0]["c_est"] == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("command", ["verify", "charge"])
def test_negative_cutoff_is_a_one_line_error(command, capsys):
    rc = cli.main([command, "--cutoff", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: --cutoff must be >= 0\n"


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


class TestGround:
    def test_report_keys(self, tmp_path):
        out = tmp_path / "ground.json"
        rc = cli.main(["ground", "--q", "1", "--kappa", "0.5",
                       "--function", "bump:0:1", "--modes", "96",
                       "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        for key in ["ground_weyl", "current_onepoint", "stress_onepoint",
                    "gram_min_eigenvalue", "dilation_orbit", "translation",
                    "circle_representative"]:
            assert key in report
        assert not report["ground_weyl"]["divergent"]
        one = report["current_onepoint"]
        assert one["finite_difference"] == pytest.approx(one["closed_form"], abs=1e-6)
        assert report["gram_min_eigenvalue"] > -1e-10

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

    def test_gn8_covariance_reported_divergent(self, tmp_path):
        # the resampled g_8 keeps |h(0)| ~ 6e-4 sum|c_n| at 96 modes
        out = tmp_path / "gn8.json"
        rc = cli.main(["ground", "--function", "gn:8", "--modes", "96", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        for key in ["dilation_orbit", "translation"]:
            assert report[key]["divergent"]
            assert "residual" not in report[key]

    def test_divergent_function_is_a_one_line_error(self, capsys):
        rc = cli.main(["ground", "--function", "fourier:1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: current one-point value diverges\n"

    def test_fourier_spec_wider_than_modes_refused(self, capsys):
        # at --modes 1 the Gaussian factor would see only the first mode of four
        rc = cli.main(["ground", "--function", "fourier:-1,0,0,1", "--modes", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "error: 'fourier:-1,0,0,1' has modes above --modes 1\n"
