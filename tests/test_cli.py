import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diracmaxwell import cli, fourier, harness
from diracmaxwell.presets import PRESETS

INF, NAN = float("inf"), float("nan")


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


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def dm_config(**changes):
    """A short run-dm config whose charge and current carry modes that the
    2/3 rule removes at n = 8."""
    cfg = {
        "grid": {"n": 8, "period": 6.283185307179586},
        "eps": 0.5,
        "T": 0.02,
        "dt": 0.01,
        "data": {"family": "upper_projected", "params": {"amplitude": 0.5, "gauge_amplitude": 0.3}},
        "gauge": "bandlimited_divfree",
        "sample_every": 1,
    }
    return {**cfg, **changes}


def probe_config(**changes):
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
    return {**cfg, **changes}


def study_config(**changes):
    cfg = {
        "grid": {"n": 8, "period": 6.283185307179586},
        "eps_list": [0.4, 0.2, 0.1],
        "T": 0.05,
        "dt_ref": 5e-3,
        "data": {"family": "zero"},
    }
    return {**cfg, **changes}


def sp_config():
    return {k: v for k, v in dm_config().items() if k not in ("eps", "gauge")}


CONFIGS = {"run-dm": dm_config, "run-sp": sp_config, "run-pauli": dm_config, "converge": study_config,
           "seminonrel": study_config, "probe-dyadic": probe_config}


def with_value(cfg, path, value):
    """A copy of cfg with the dotted path set to value."""
    cfg = copy.deepcopy(cfg)
    *parents, name = path.split(".")
    node = cfg
    for parent in parents:
        node = node.setdefault(parent, {})
    node[name] = value
    return cfg


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
        assert "config_hash" in manifest and "seed" not in manifest

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

    @pytest.mark.parametrize("command", ["run-dm", "run-sp"])
    def test_unknown_data_family_exits_1(self, command, tmp_path, capsys):
        path = write_config(tmp_path, dm_config(data={"family": "nope"}))
        assert run_cli([command, "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "unknown data family 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, data, gauge, key", [
        ("run-dm", {"family": "upper_projected", "params": {"amplitud": 0.3}}, "zero", "amplitud"),
        ("run-dm", {"family": "upper_projected", "params": {"gauge_amplitude": 0.3}}, "zero", "gauge_amplitude"),
        ("run-pauli", {"family": "zero", "params": {"amplitude": 0.3}}, "bandlimited_divfree", "amplitude"),
        ("run-sp", {"family": "upper_projected", "params": {"gauge_amplitude": 0.3}}, "zero", "gauge_amplitude"),
        ("converge", {"family": "upper_lower", "params": {"minus_amplitud": 0.3}}, "zero", "minus_amplitud"),
    ])
    def test_param_read_by_neither_family_nor_gauge_exits_1(self, command, data, gauge, key, tmp_path, capsys):
        cfg = CONFIGS[command]()
        cfg = {**cfg, "data": data, **({"gauge": gauge} if "gauge" in cli.KEYS[command] else {})}
        out = tmp_path / "o"
        assert run_cli([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"not read by family {data['family']!r}" in err and err.rstrip().endswith(f": {key}")
        assert not out.exists()

    @pytest.mark.parametrize("gauge, params", [("zero", {"amplitude": 0.5}),
                                               ("bandlimited_divfree", {"amplitude": 0.5, "gauge_amplitude": 0.3})])
    def test_params_read_by_family_and_gauge_run(self, gauge, params, tmp_path):
        cfg = dm_config(gauge=gauge, data={"family": "upper_projected", "params": params})
        assert run_cli(["run-dm", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0


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
        cfg = {**cli.load_config("preset:stationary"), "dealias": True}
        out = tmp_path / "run"
        assert run_cli(["run-dm", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "diagnostics.csv").exists()

    @pytest.mark.parametrize("command", ["run-dm", "run-sp", "run-pauli", "converge", "seminonrel",
                                         "probe-dyadic", "check"])
    @pytest.mark.parametrize("flag", [["--seed", "0"], ["--dealias"]])
    def test_run_is_its_config(self, command, flag, tmp_path):
        args = ["matrices"] if command == "check" else ["--config", "preset:stationary", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            run_cli([command, *args, *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["run-dm", "run-pauli"])
    def test_dealias_key_changes_the_run_and_its_hash(self, command, tmp_path):
        runs = {}
        for flag in (False, True):
            out = tmp_path / str(flag)
            path = write_config(tmp_path, dm_config(dealias=flag), f"{flag}.json")
            assert run_cli([command, "--config", path, "--out", str(out)]) == 0
            runs[flag] = (digest_dir(out), json.loads((out / "manifest.json").read_text())["config_hash"])
        assert runs[True][1] != runs[False][1]
        assert runs[True][0]["diagnostics.csv"] != runs[False][0]["diagnostics.csv"]
        rerun = tmp_path / "rerun"
        assert run_cli([command, "--config", str(tmp_path / "True.json"), "--out", str(rerun)]) == 0
        assert digest_dir(rerun) == runs[True][0]

    def test_dealias_key_runs_the_dealiased_step(self, tmp_path):
        from diracmaxwell import data_families as df
        from diracmaxwell import evolve_dm as dm
        from diracmaxwell.fourier import make_lattice

        cfg = dm_config(dealias=True)
        out = tmp_path / "o"
        assert run_cli(["run-dm", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        lat = make_lattice(8, cfg["grid"]["period"])
        params = cfg["data"]["params"]
        a0, a1 = df.gauge_data(lat, cfg["gauge"], params)
        init = dm.DMState(lat, 0.0, df.spinor_data(lat, "upper_projected", 0.5, params), a0, a1, 0.5)
        step_cfg = dm.StepConfig(dt=0.01, dealias=True)
        rows = []
        dm.run_dm(init, 0.02, step_cfg, 1, lambda s: rows.append(dm.checked_diagnostics(s, step_cfg)))
        written = list(csv.DictReader(open(out / "diagnostics.csv")))
        assert [[float(v) for v in r.values()] for r in written] == [list(r.values()) for r in rows]


class TestConfigTypes:
    @pytest.mark.parametrize("command, changes, field", [
        ("run-dm", {"grid": 5}, "grid"),
        ("run-dm", {"grid": {"n": 8, "period": "x"}}, "grid.period"),
        ("run-dm", {"data": {"family": "zero", "params": 5}}, "data.params"),
        ("run-dm", {"data": 5}, "data"),
        ("run-dm", {"dealias": 1}, "dealias"),
        ("run-pauli", {"dealias": "yes"}, "dealias"),
        ("run-sp", {"data": {"family": "zero", "params": [1]}}, "data.params"),
        # every data.params value is a finite number, and a bool is not one
        *(("run-dm", {"data": {"family": "upper_projected", "params": {"amplitude": bad}}}, "data.params")
          for bad in ([0.5], None, True, "0.5", {"re": 0.5}, NAN, INF)),
        ("run-sp", {"data": {"family": "upper_lower", "params": {"minus_amplitude": False}}}, "data.params"),
    ])
    def test_wrong_type_exits_2_naming_the_field(self, command, changes, field, tmp_path, capsys):
        path = write_config(tmp_path, dm_config(**changes))
        assert run_cli([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"config error at {field}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConfigReader:
    @pytest.mark.parametrize("command, path, value", [
        *((command, path, None) for command in cli.KEYS for path in cli.KEYS[command]),
        ("run-dm", "T", [1]), ("run-dm", "sample_every", True), ("run-dm", "eps", "0.5"),
        ("probe-dyadic", "trials", "2"), ("converge", "eps_list", [0.4, "0.2", 0.1]),
        # JSON parsers accept Infinity, -Infinity, NaN and integers of any length; a number must be a finite float
        pytest.param("run-dm", "T", 10**400, id="run-dm-T-int_10**400"),
        pytest.param("probe-dyadic", "lam_list", [4.0, -10**400], id="probe-dyadic-lam_list-int_-10**400"),
        ("run-dm", "grid.period", INF), ("run-dm", "eps", INF), ("run-dm", "T", NAN), ("run-dm", "dt", -INF),
        ("run-sp", "T", -INF), ("converge", "eps_list", [0.4, 0.2, NAN]), ("converge", "dt_ref", INF),
        ("converge", "eps_list", [INF, 0.2, 0.1]), ("probe-dyadic", "mu_list", [1.0, NAN]),
        ("probe-dyadic", "eps", INF), ("probe-dyadic", "dt", INF),
    ])
    def test_wrong_type_exits_2_naming_the_key(self, command, path, value, tmp_path, capsys):
        out = tmp_path / "o"
        config = write_config(tmp_path, with_value(CONFIGS[command](), path, value))
        assert run_cli([command, "--config", config, "--out", str(out)]) == 2
        assert f"config error at {path}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, path", [(command, path) for command in cli.KEYS
                                               for path, (_, default) in cli.KEYS[command].items()
                                               if default is not cli.REQUIRED])
    def test_default_written_out_or_left_out_hashes_the_same(self, command, path):
        left_out = cli.read_config(command, CONFIGS[command]())
        written = cli.read_config(command, with_value(CONFIGS[command](), path, left_out[path]))
        assert cli.config_hash(written) == cli.config_hash(left_out)

    @pytest.mark.parametrize("command, path", [(command, path) for command in cli.KEYS for path in cli.KEYS[command]])
    def test_every_value_read_changes_the_hash(self, command, path):
        def other(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, (int, float)):
                return value + 2
            if isinstance(value, str):
                return value + "x"
            if isinstance(value, list):
                return value + [value[-1] / 2]
            return {**value, "amplitude": 0.25}

        values = cli.read_config(command, CONFIGS[command]())
        changed = cli.read_config(command, with_value(CONFIGS[command](), path, other(values[path])))
        assert cli.config_hash(changed) != cli.config_hash(values)

    def test_run_dm_and_run_pauli_hash_apart(self):
        assert (cli.config_hash(cli.read_config("run-dm", dm_config()))
                != cli.config_hash(cli.read_config("run-pauli", dm_config())))

    def test_dealias_false_or_missing_runs_the_same(self, tmp_path):
        runs = []
        for name, cfg in (("off", dm_config(dealias=False)), ("missing", dm_config())):
            out = tmp_path / name
            assert run_cli(["run-dm", "--config", write_config(tmp_path, cfg, f"{name}.json"), "--out", str(out)]) == 0
            runs.append(digest_dir(out))
        assert runs[0] == runs[1]

    def test_integer_period_runs_as_its_float(self, tmp_path):
        runs = []
        for period in (6, 6.0):
            out = tmp_path / str(period)
            cfg = dm_config(grid={"n": 8, "period": period})
            path = write_config(tmp_path, cfg, f"{period}.json")
            assert run_cli(["run-dm", "--config", path, "--out", str(out)]) == 0
            runs.append(digest_dir(out))
        assert runs[0] == runs[1]

    def test_unread_keys_are_named_and_change_nothing(self, tmp_path, capsys):
        runs = []
        for name, cfg in (("clean", cli.load_config("preset:minimal-zero")),
                          ("noisy", {**cli.load_config("preset:minimal-zero"), "dealias": True, "sample_evry": 2,
                                     "grid": {"n": 8, "period": 6.283185307179586, "m": 4}})):
            out = tmp_path / "runs" / name
            assert run_cli(["run-sp", "--config", write_config(tmp_path, cfg, f"{name}.json"), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            runs.append((digest_dir(out), captured.out.replace(name, "<out>"), captured.err))
        assert runs[0][:2] == runs[1][:2]
        assert runs[0][2] == "run-sp: config keys not read: eps, gauge\n"
        assert runs[1][2] == "run-sp: config keys not read: dealias, eps, gauge, grid.m, sample_evry\n"

    @staticmethod
    def preset_command(name):
        return {"minimal-zero": "run-dm", "stationary": "run-dm", "thm4": "seminonrel"}.get(
            name, "probe-dyadic" if name.startswith("dyadic-") else "converge")

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_read_every_key(self, name, capsys):
        cli.read_config(self.preset_command(name), cli.load_config(f"preset:{name}"))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name, digest", [("thm2", "eafd5b6ab02a0f1b"), ("thm3", "f2d7677409ee490f"),
                                              ("thm4", "7c8d91994d40dec3"), ("counterexample", "90d6748ba19c21e0")])
    def test_rate_study_presets_keep_their_hash(self, name, digest):
        values = cli.read_config(self.preset_command(name), cli.load_config(f"preset:{name}"))
        assert cli.config_hash(values) == digest

    @pytest.mark.parametrize("command", ["converge", "seminonrel"])
    @pytest.mark.parametrize("path, value", [
        *((path, value) for path in ("T", "dt_ref", "eps_ref") for value in (0.0, -0.1)),
        ("eps_list", [0.4, 0.2, 0.0]), ("eps_list", [0.4, 0.2, -0.1]),
    ])
    def test_non_positive_study_value_exits_2_naming_the_key(self, command, path, value, tmp_path, capsys):
        out = tmp_path / "o"
        config = write_config(tmp_path, with_value(study_config(), path, value))
        assert run_cli([command, "--config", config, "--out", str(out)]) == 2
        assert f"config error at {path}: must be a " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("changes, message", [({"dt_schedule": "nope"}, "unknown dt_schedule 'nope'"),
                                                  ({"eps_list": [0.1, 0.2, 0.4]}, "strictly decreasing")])
    def test_study_range_checks_exit_1(self, changes, message, tmp_path, capsys):
        out = tmp_path / "o"
        path = write_config(tmp_path, study_config(**changes))
        assert run_cli(["converge", "--config", path, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_seed_key_changes_the_sweep(self, tmp_path):
        sweeps = []
        for seed in (0, 1):
            out = tmp_path / str(seed)
            path = write_config(tmp_path, probe_config(seed=seed), f"{seed}.json")
            assert run_cli(["probe-dyadic", "--config", path, "--out", str(out)]) == 0
            sweeps.append((out / "sweep.csv").read_text())
        assert sweeps[0] != sweeps[1]

    @pytest.mark.parametrize("T, dt, message", [(0.1, 0.03, "not an integer multiple of dt"),
                                                 (0.0, 0.05, "T and dt must be positive")])
    def test_steps_must_fill_T(self, T, dt, message, tmp_path, capsys):
        out = tmp_path / "o"
        path = write_config(tmp_path, probe_config(T=T, dt=dt))
        assert run_cli(["probe-dyadic", "--config", path, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


    def test_sweep_without_cells_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "o"
        path = write_config(tmp_path, probe_config(case="i", mu_list=[4.0], lam_list=[2.0]))
        assert run_cli(["probe-dyadic", "--config", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "probe case i: no (mu, lambda) cell to run for mu_list [4.0] and lam_list [2.0]" in err
        assert not out.exists()


# the rows of each harness.CHECKS suite, in print order; null-1 went from 3
# draws to the 20 of criterion 03, and null-2 gained the dt = 2e-3 rows and
# the halving ratio of criterion 04
CHECK_ROWS = {
    "matrices": [*(f"{kind}_{j}{k}" for j in range(3) for k in range(3) for kind in ("anticommute", "spin_identity")),
                 "gamma0_sq", "hermitian"],
    "projections": [f"{kind}_eps{eps}" for eps in (1.0, 0.5, 0.25)
                    for kind in ("completeness", "idempotent", "orthogonal", "spectral_decomp")],
    "symbols": [f"{kind}_eps{eps}" for eps in (0.125, 0.25, 0.5, 1.0)
                for kind in ("one_minus_invlambda_lower", "one_minus_invlambda_upper", "dispersion_gap_lower",
                             "dispersion_gap_upper")],
    "null-1": [f"null_identity_1_trial{trial}" for trial in range(20)],
    "null-2": ["null_identity_1_freedirac", "null_identity_2_freedirac", "null_identity_1_freedirac_dt0.002",
               "null_identity_2_freedirac_dt0.002", "null_identity_2_halving_ratio_in_2.5_6"],
    "squared-dirac": ["squared_dirac_dt0.002", "squared_dirac_dt0.001", "squared_dirac_halving_ratio_ge_3"],
}


class TestCheckSuites:
    def test_the_table_holds_every_suite(self):
        assert list(harness.CHECKS) == list(CHECK_ROWS)

    @pytest.mark.parametrize("suite", list(CHECK_ROWS))
    def test_suites_pass(self, suite, capsys):
        assert run_cli(["check", suite]) == 0
        printed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert printed == [f"PASS {name}" for name in CHECK_ROWS[suite]]

    def test_symbols_rows_print_no_negative_zero(self, capsys):
        assert run_cli(["check", "symbols"]) == 0
        out = capsys.readouterr().out
        assert "residual 0.000e+00" in out and "-0.000e+00" not in out

    def test_symbols_suite_checks_the_code_symbols(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "h_eps_symbol", lambda lat, eps: lat.k_sq / 2.0)
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


    def test_split_transforms_write_the_serial_bytes(self, tmp_path, monkeypatch):
        # n = 32 is the smallest grid whose multi-component transforms and
        # pointwise spinor products (kick, block products, current) are spread
        # over the cores; two are assumed so the pool runs on any host
        cfg = dm_config(grid={"n": 32, "period": 6.283185307179586}, dealias=True)
        path = write_config(tmp_path, cfg)
        runs = {}
        for cores in (2, 1):
            monkeypatch.setattr(fourier, "_CORES", cores)
            assert run_cli(["run-dm", "--config", path, "--out", str(tmp_path / str(cores))]) == 0
            runs[cores] = digest_dir(tmp_path / str(cores))
        assert len(runs[1]) == 6 and runs[2] == runs[1]


class TestImportCost:
    def _python(self, code):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              check=True).stdout.splitlines()[-1]

    def test_cli_and_studies_leave_scipy_unimported(self):
        # importing scipy.fft adds about 0.3 s and 27 MB RSS to every process
        # (measured on a 2-vCPU host), so the package keeps to numpy.fft
        code = "import sys, diracmaxwell.cli, diracmaxwell.studies; print('scipy' in sys.modules)"
        assert self._python(code) == "False"

    def test_small_runs_start_no_thread(self, tmp_path):
        # below the split cutover every transform is one batched call and every
        # slab of a pointwise product runs on the calling thread, so no pool is
        # started
        path = write_config(tmp_path, dm_config(grid={"n": 24, "period": 6.283185307179586}))
        for command in ("run-dm", "run-pauli"):
            code = ("import threading, diracmaxwell.cli as cli; "
                    f"cli.main([{command!r}, '--config', {path!r}, '--out', {str(tmp_path / command)!r}]); "
                    "print(threading.active_count())")
            assert self._python(code) == "1", command
