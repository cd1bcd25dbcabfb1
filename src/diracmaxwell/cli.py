"""Command-line entry point.

Commands: run-dm, run-sp, run-pauli, converge, seminonrel, probe-dyadic,
check <suite>.  A run is what its command reads: every run command takes
only ``--config`` (a JSON file or ``preset:<name>``) and ``--out``; KEYS
lists the keys each command reads, and read_config checks them, fills in
the defaults and names unread keys on stderr.  The manifest's config hash
covers the command and the values read, so reruns of one config are
comparable byte for byte (wall-clock fields aside).  ``check`` prints the
rows of one suite of harness.CHECKS, which acceptance criteria 01-04 assert.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import data_families as df
from .evolve_dm import DMState, StepConfig, checked_diagnostics, run_dm
from .evolve_limits import SPState, pauli_diagnostics, run_pauli, run_sp, sp_diagnostics
from .fourier import Lattice, make_lattice, write_fld
from .presets import get_preset
from .studies import ExperimentConfig, dyadic_sweep, nonrel_convergence_study, seminonrel_study


class ConfigError(Exception):
    """Validation failure; the message names the offending field."""


def _is_number(v) -> bool:
    """An int or float, not a bool, that is a finite float (JSON parses Infinity, NaN and huge ints)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    """An int, not a bool, within the float range (as _is_number)."""
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(_is_number, v))


# key kinds: (what a value must be, its test, what the command gets)
NUMBER = ("a finite number", _is_number, float)
POSITIVE = ("a finite positive number", lambda v: _is_number(v) and v > 0, float)
INTEGER = ("an integer in the float range", _is_int, int)
COUNT = ("a positive integer in the float range", lambda v: _is_int(v) and v >= 1, int)
GRID_N = ("an even integer >= 4 in the float range", lambda v: _is_int(v) and v % 2 == 0 and v >= 4, int)
BOOL = ("true or false", lambda v: isinstance(v, bool), bool)
STRING = ("a string", lambda v: isinstance(v, str), str)
PARAMS = ("an object of finite numbers", lambda v: isinstance(v, dict) and all(map(_is_number, v.values())), dict)
NUMBERS = ("a list of finite numbers", _is_numbers, lambda v: [float(x) for x in v])
EPS_LIST = ("a list of >= 3 finite positive numbers (a rate fit needs 3 eps values)",
            lambda v: _is_numbers(v) and len(v) >= 3 and min(v) > 0, lambda v: [float(x) for x in v])
REQUIRED = object()

# every key each command reads, as (kind, default or REQUIRED); a callable
# default is computed from the values read before it
_GRID = {"grid.n": (GRID_N, REQUIRED), "grid.period": (POSITIVE, REQUIRED)}
_DATA = {"data.family": (STRING, REQUIRED), "data.params": (PARAMS, {})}
_RUN = {**_GRID, "T": (NUMBER, REQUIRED), "dt": (NUMBER, REQUIRED), "sample_every": (COUNT, 1), **_DATA}
_DM_RUN = {**_RUN, "eps": (POSITIVE, REQUIRED), "gauge": (STRING, "zero"), "dealias": (BOOL, False)}
# the study keys end in the ExperimentConfig field names
_STUDY = {**_GRID, "eps_list": (EPS_LIST, REQUIRED), "T": (POSITIVE, REQUIRED), "dt_ref": (POSITIVE, REQUIRED),
          "eps_ref": (POSITIVE, lambda v: v["eps_list"][0]), "dt_schedule": (STRING, "eps_linear"),
          **_DATA, "gauge": (STRING, "zero"), "sample_every": (COUNT, 10)}
KEYS = {
    "run-dm": _DM_RUN,
    "run-sp": _RUN,
    "run-pauli": _DM_RUN,
    "converge": _STUDY,
    "seminonrel": _STUDY,
    "probe-dyadic": {**_GRID, "case": (STRING, REQUIRED), "eps": (POSITIVE, REQUIRED),
                     "mu_list": (NUMBERS, REQUIRED), "lam_list": (NUMBERS, REQUIRED), "trials": (COUNT, 8),
                     "seed": (INTEGER, 0), "T": (NUMBER, 1.0), "dt": (NUMBER, 0.02)},
}


def _lookup(cfg, path: str, default):
    """The value at the dotted path, or default where it or a parent is missing."""
    parent, _, name = path.rpartition(".")
    if parent:
        cfg = _lookup(cfg, parent, {})
    if not isinstance(cfg, dict):
        raise ConfigError(f"config error at {parent or 'top level'}: must be an object, got {cfg!r}")
    return cfg.get(name, default)


def _unread(cfg: dict, keys, prefix: str = "") -> list:
    """The paths in cfg that name no key in keys and hold none."""
    paths = []
    for name, value in cfg.items():
        path = prefix + name
        if any(k.startswith(path + ".") for k in keys):
            paths += _unread(value, keys, path + ".")
        elif path not in keys:
            paths.append(path)
    return paths


def read_config(command: str, cfg) -> dict:
    """The values of the keys ``command`` reads (KEYS), checked, converted
    and with defaults filled in, under their dotted paths, plus the command
    name.  A missing required key or a value of the wrong kind raises
    ConfigError naming it; keys the command does not read are named once on
    stderr."""
    values = {"command": command}
    for path, ((must, ok, convert), default) in KEYS[command].items():
        value = _lookup(cfg, path, default)
        if value is REQUIRED:
            raise ConfigError(f"config error at {path}: missing required field")
        if callable(value):
            value = value(values)
        if not ok(value):
            raise ConfigError(f"config error at {path}: must be {must}, got {value!r}")
        values[path] = convert(value)
    unread = _unread(cfg, KEYS[command])
    if unread:
        print(f"{command}: config keys not read: {', '.join(sorted(unread))}", file=sys.stderr)
    return values


def load_config(spec: str) -> dict:
    if spec.startswith("preset:"):
        try:
            return get_preset(spec.split(":", 1)[1])
        except KeyError as exc:
            raise ConfigError(str(exc)) from None
    path = Path(spec)
    if not path.exists():
        raise ConfigError(f"config file not found: {spec}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config error: invalid JSON in {spec}: {exc}")


def config_hash(values: dict) -> str:
    """Hash of the values read_config returns: the command and every key it
    reads, defaults filled in."""
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def write_manifest(out_dir: Path, values: dict, stages: dict, outputs: list) -> None:
    manifest = {
        "config_hash": config_hash(values),
        "code_version": __version__,
        "wall_clock": {k: round(v, 6) for k, v in stages.items()},
        "outputs": sorted(Path(p).name for p in outputs),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(x) if isinstance(x, float) else str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


# -- run commands -------------------------------------------------------------


class _SampleWriter:
    """observe() of the run commands: each sample writes ``<stem>_<i>.fld``
    and appends its diagnostics row to diagnostics.csv, so no run keeps its
    samples in memory.  The first sample creates the output directory, so a
    run that fails its checks before stepping leaves none."""

    def __init__(self, out_dir: Path, stem: str, lat: Lattice, snapshot, diagnose):
        self.out_dir, self.stem, self.lat = out_dir, stem, lat
        self.snapshot, self.diagnose = snapshot, diagnose
        self.csv_path = out_dir / "diagnostics.csv"
        self.snapshots = []
        self.write_seconds = 0.0

    def __call__(self, state):
        row = self.diagnose(state)
        t0 = time.perf_counter()
        if not self.snapshots:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.stem}_{len(self.snapshots):04d}.fld"
        write_fld(path, self.lat, self.snapshot(state), state.t)
        lines = [",".join(row)] if not self.snapshots else []
        lines.append(",".join(repr(float(v)) for v in row.values()))
        with open(self.csv_path, "w" if not self.snapshots else "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self.snapshots.append(path)
        self.write_seconds += time.perf_counter() - t0


def _dm_setup(v: dict) -> tuple:
    """The lattice and the StepConfig of a DM run."""
    return make_lattice(v["grid.n"], v["grid.period"]), StepConfig(dt=v["dt"], dealias=v["dealias"])


def _dm_init(v: dict, lat: Lattice) -> DMState:
    """The initial DMState of a DM run.  The run commands hand it straight to
    the run entry, which then holds it alone and drops it as the run starts."""
    return df.initial_dm_state(lat, v["data.family"], v["gauge"], v["eps"], v["data.params"])


def _finish(out_dir: Path, v: dict, t0: float, writer: _SampleWriter, extra: tuple = ()) -> int:
    total = time.perf_counter() - t0
    stages = {"simulate": total - writer.write_seconds, "write": writer.write_seconds}
    write_manifest(out_dir, v, stages, [*writer.snapshots, *extra, writer.csv_path])
    print(f"{v['command']}: {len(writer.snapshots)} samples -> {out_dir}")
    return 0


def cmd_run_dm(v: dict, out_dir: Path) -> int:
    t0 = time.perf_counter()
    lat, step_cfg = _dm_setup(v)
    writer = _SampleWriter(out_dir, "psi", lat, lambda s: s.psi, lambda s: checked_diagnostics(s, step_cfg))
    final = run_dm(_dm_init(v, lat), v["T"], step_cfg, v["sample_every"], writer)
    a_path = out_dir / "A_final.fld"
    write_fld(a_path, lat, final.A, final.t)
    return _finish(out_dir, v, t0, writer, (a_path,))


def cmd_run_sp(v: dict, out_dir: Path) -> int:
    df.check_params(v["data.params"], v["data.family"])
    lat = make_lattice(v["grid.n"], v["grid.period"])
    t0 = time.perf_counter()
    v0p, v0m = df.limit_data(lat, v["data.family"], v["data.params"])
    writer = _SampleWriter(out_dir, "vplus", lat, lambda s: s.v_plus, sp_diagnostics)
    run_sp(SPState(lat, 0.0, v0p, v0m), v["T"], v["dt"], v["sample_every"], writer)
    return _finish(out_dir, v, t0, writer)


def cmd_run_pauli(v: dict, out_dir: Path) -> int:
    """Advances the Pauli spinor in lockstep with a DM run, in its fields."""
    t0 = time.perf_counter()
    lat, step_cfg = _dm_setup(v)
    writer = _SampleWriter(out_dir, "chi", lat, lambda s: s.chi, pauli_diagnostics)
    run_pauli(_dm_init(v, lat), v["T"], step_cfg, v["sample_every"], writer)
    return _finish(out_dir, v, t0, writer)


def cmd_converge(v: dict, out_dir: Path, study) -> int:
    t0 = time.perf_counter()
    report = study(ExperimentConfig(**{p.rpartition(".")[2]: x for p, x in v.items() if p != "command"}))
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path, csv_path = out_dir / "rate_report.json", out_dir / "rate_report.csv"
    json_path.write_text(report.to_json() + "\n")
    rows = report.to_csv_rows()
    _write_csv(csv_path, rows[0], rows[1:])
    write_manifest(out_dir, v, {"study": time.perf_counter() - t0}, [json_path, csv_path])
    print(f"rates: {report.rates}")
    print(f"report -> {json_path}")
    return 0


def cmd_probe(v: dict, out_dir: Path) -> int:
    t0 = time.perf_counter()
    rows = dyadic_sweep(v["case"], v["grid.n"], v["grid.period"], v["eps"], v["mu_list"], v["lam_list"],
                        v["trials"], v["seed"], v["T"], v["dt"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    _write_csv(csv_path, ("mu", "lambda", "eps", "trial", "ratio"), rows)
    write_manifest(out_dir, v, {"probe": time.perf_counter() - t0}, [csv_path])
    ratios = np.array([r[-1] for r in rows])
    print(f"probe case {v['case']}: {len(rows)} cells, max ratio {ratios.max():.4f}")
    return 0


def cmd_check(suite: str) -> int:
    from .harness import CHECKS, check_rows  # imported here, so the run commands do not load harness

    if suite not in CHECKS:
        print(f"unknown suite {suite!r}; have {sorted(CHECKS)}", file=sys.stderr)
        return 2
    rows = check_rows(suite)
    for name, residual, tol, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'} {name}: residual {residual:.3e} (tol {tol:.1e})")
    return 0 if all(ok for *_, ok in rows) else 1


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    # built per call, so a handler rebound on the module after import is the one called
    commands = {
        "run-dm": cmd_run_dm,
        "run-sp": cmd_run_sp,
        "run-pauli": cmd_run_pauli,
        "converge": lambda v, out_dir: cmd_converge(v, out_dir, nonrel_convergence_study),
        "seminonrel": lambda v, out_dir: cmd_converge(v, out_dir, seminonrel_study),
        "probe-dyadic": cmd_probe,
    }
    parser = argparse.ArgumentParser(prog="dmx", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path or preset:<name>")
        p.add_argument("--out", default="out", help="output directory")
    sub.add_parser("check").add_argument("suite")

    args = parser.parse_args(argv)
    if args.command == "check":
        return cmd_check(args.suite)
    try:
        return commands[args.command](read_config(args.command, load_config(args.config)), Path(args.out))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
