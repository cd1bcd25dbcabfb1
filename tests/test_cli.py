import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracmaxwell import cli


def run_cli(args):
    return cli.main(args)


def digest_dir(d, skip_wall_clock=True):
    out = {}
    for p in sorted(Path(d).iterdir()):
        data = p.read_bytes()
        if p.name == "manifest.json" and skip_wall_clock:
            m = json.loads(data)
            m.pop("wall_clock")
            data = json.dumps(m, sort_keys=True).encode()
        out[p.name] = hashlib.sha256(data).hexdigest()
    return out


class TestRunDM:
    def test_minimal_zero_config(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["run-dm", "--config", "preset:minimal-zero", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "diagnostics.csv")))
        assert rows, "diagnostics.csv empty"
        for row in rows:
            for col in ("charge", "h1_psi", "h1dot_A", "eps_l2_dtA", "h1_pi_minus_psi"):
                assert float(row[col]) == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config_hash" in manifest and "seed" in manifest

    def test_stationary_charge_constant(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["run-dm", "--config", "preset:stationary", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "diagnostics.csv")))
        charges = [float(r["charge"]) for r in rows]
        assert max(abs(c - charges[0]) for c in charges) < 1e-10

    def test_odd_n_rejected_with_field_name(self, tmp_path, capsys):
        cfg = {
            "grid": {"n": 7, "period": 6.28},
            "eps": 0.5,
            "T": 0.1,
            "dt": 0.01,
            "data": {"family": "zero"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["run-dm", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code != 0
        assert "grid.n" in capsys.readouterr().err

    @pytest.mark.parametrize("every", [2.5, 0])
    def test_bad_sample_every_rejected_with_field_name(self, tmp_path, capsys, every):
        cfg = {
            "grid": {"n": 8, "period": 6.28},
            "eps": 0.5,
            "T": 0.1,
            "dt": 0.01,
            "sample_every": every,
            "data": {"family": "zero"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run-dm", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error at sample_every" in capsys.readouterr().err

    def test_config_error_leaves_no_out_dir(self, tmp_path):
        cfg = {
            "grid": {"n": 8, "period": 6.28},
            "eps": 0.5,
            "T": 0.1,
            "dt": 0.01,
            "sample_every": 0,
            "data": {"family": "zero"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["run-dm", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli(["run-dm", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code != 0

    def test_snapshots_readable(self, tmp_path):
        from diracmaxwell.fourier import read_fld

        out = tmp_path / "run"
        run_cli(["run-dm", "--config", "preset:stationary", "--out", str(out)])
        header, psi = read_fld(out / "psi_0000.fld")
        assert header["components"] == 4
        assert psi.shape == (4, 8, 8, 8)


class TestConverge:
    def test_too_few_eps_values(self, tmp_path, capsys):
        cfg = {
            "grid": {"n": 8, "period": 6.283185307179586},
            "eps_list": [0.4, 0.2],
            "T": 0.05,
            "dt_ref": 5e-3,
            "data": {"family": "zero"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["converge", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code != 0
        assert "eps_list" in capsys.readouterr().err

    @pytest.mark.parametrize("every", [2.5, 0])
    def test_bad_sample_every_rejected_with_field_name(self, tmp_path, capsys, every):
        cfg = {
            "grid": {"n": 8, "period": 6.283185307179586},
            "eps_list": [0.4, 0.2, 0.1],
            "T": 0.05,
            "dt_ref": 5e-3,
            "data": {"family": "zero"},
            "sample_every": every,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["converge", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error at sample_every" in capsys.readouterr().err

    def test_zero_preset_rates_undefined(self, tmp_path):
        cfg = {
            "grid": {"n": 8, "period": 6.283185307179586},
            "eps_list": [0.4, 0.2, 0.1],
            "T": 0.05,
            "dt_ref": 5e-3,
            "dt_schedule": "fixed",
            "data": {"family": "zero"},
            "sample_every": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["converge", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "rate_report.json").read_text())
        assert report["rates"]["h1_spinor_rate"] == "undefined"
        assert "h1_spinor_rate" in report["rates"]

    def test_report_contains_rate_field(self, tmp_path):
        cfg = {
            "grid": {"n": 8, "period": 6.283185307179586},
            "eps_list": [0.4, 0.2, 0.1],
            "T": 0.05,
            "dt_ref": 2e-3,
            "dt_schedule": "eps_linear",
            "data": {"family": "upper_projected", "params": {"amplitude": 0.5}},
            "sample_every": 25,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["converge", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "rate_report.json").read_text())
        assert isinstance(report["rates"]["h1_spinor_rate"], float)


    def test_misaligned_sample_grid_exits_with_message(self, tmp_path, capsys):
        cfg = {
            "grid": {"n": 8, "period": 6.283185307179586},
            "eps_list": [0.4, 0.3, 0.2],
            "T": 0.1,
            "dt_ref": 0.01,
            "dt_schedule": "eps_squared",
            "data": {"family": "upper_projected", "params": {"amplitude": 0.5}},
            "sample_every": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["converge", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "study grid" in capsys.readouterr().err


class TestOptions:
    def test_threads_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run-dm", "--config", "preset:stationary", "--out", str(tmp_path), "--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run-sp", "run-pauli", "converge", "seminonrel", "probe-dyadic"])
    def test_dealias_rejected_where_ignored(self, command, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--config", "preset:stationary", "--out", str(tmp_path), "--dealias"])
        assert exc.value.code == 2

    def test_dealias_accepted_by_run_dm(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["run-dm", "--config", "preset:stationary", "--out", str(out), "--dealias"]) == 0
        assert (out / "diagnostics.csv").exists()


class TestProbe:
    def test_single_cell_csv(self, tmp_path):
        cfg = {
            "grid": {"n": 16, "period": 6.283185307179586},
            "case": "iii",
            "eps": 0.5,
            "mu_list": [1.0],
            "lam_list": [2.0],
            "trials": 1,
            "T": 0.1,
            "dt": 0.05,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run_cli(["probe-dyadic", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "mu,lambda,eps,trial,ratio"
        assert len(lines) == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg = {
            "grid": {"n": 16, "period": 6.283185307179586},
            "case": "iii",
            "eps": 0.5,
            "mu_list": [1.0, 2.0],
            "lam_list": [2.0],
            "trials": 2,
            "T": 0.1,
            "dt": 0.05,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["probe-dyadic", "--config", str(path), "--out", str(a)])
        run_cli(["probe-dyadic", "--config", str(path), "--out", str(b)])
        assert digest_dir(a) == digest_dir(b)


class TestCheckSuites:
    @pytest.mark.parametrize("suite", ["matrices", "symbols", "projections", "null-1"])
    def test_suites_pass(self, suite):
        assert run_cli(["check", suite]) == 0

    def test_symbols_suite_checks_the_code_symbols(self, monkeypatch, capsys):
        from diracmaxwell import fourier

        monkeypatch.setattr(fourier, "h_eps_symbol", lambda lat, eps: lat.k_sq / 2.0)
        assert cli.cmd_check("symbols") == 1
        assert "FAIL dispersion_gap" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        assert run_cli(["check", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err


class TestRunSPAndPauli:
    def test_run_sp(self, tmp_path):
        out = tmp_path / "sp"
        assert run_cli(["run-sp", "--config", "preset:minimal-zero", "--out", str(out)]) == 0
        assert (out / "diagnostics.csv").exists()

    def test_run_pauli(self, tmp_path):
        out = tmp_path / "pl"
        assert run_cli(["run-pauli", "--config", "preset:stationary", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out / "diagnostics.csv")))
        masses = [float(r["mass"]) for r in rows]
        assert max(abs(m - masses[0]) for m in masses) < 1e-8


class TestDeterminism:
    def test_run_dm_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["run-dm", "--config", "preset:stationary", "--out", str(a)])
        run_cli(["run-dm", "--config", "preset:stationary", "--out", str(b)])
        assert digest_dir(a) == digest_dir(b)


class TestImportCost:
    def test_cli_and_studies_leave_scipy_unimported(self):
        # importing scipy.fft adds about 0.3 s and 27 MB RSS to every process
        # (measured on a 2-vCPU host), so the package keeps to numpy.fft
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import sys, diracmaxwell.cli, diracmaxwell.studies; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
