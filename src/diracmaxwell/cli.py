"""Command-line entry point.

Commands: run-dm, run-sp, run-pauli, converge, seminonrel, probe-dyadic,
check <suite>.  A run is its config: every run command takes only
``--config`` (a JSON file or ``preset:<name>``) and ``--out``, and writes a
manifest with the config hash, so reruns of one config are comparable byte
for byte (wall-clock fields aside).
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
from . import spinors as sp
from .evolve_dm import DMState, StepConfig, checked_diagnostics, integrate, n_steps_for, run_dm
from .evolve_limits import DMPauliState, SPState, dm_pauli_step, pauli_diagnostics, sp_diagnostics, sp_step
from .fourier import Lattice, make_lattice, write_fld
from .presets import get_preset
from .studies import ExperimentConfig, dyadic_sweep, nonrel_convergence_study, seminonrel_study


class ConfigError(Exception):
    """Validation failure; the message names the offending field."""


def _need(cfg: dict, key: str, path: str = ""):
    path = path or key
    if not isinstance(cfg, dict):
        parent = path.rpartition(".")[0] or "top level"
        raise ConfigError(f"config error at {parent}: must be an object, got {cfg!r}")
    if key not in cfg:
        raise ConfigError(f"config error at {path}: missing required field {key!r}")
    return cfg[key]


def _validate_grid(cfg: dict) -> tuple:
    grid = _need(cfg, "grid")
    n = _need(grid, "n", "grid.n")
    if not isinstance(n, int) or n % 2 != 0 or n < 4:
        raise ConfigError(f"config error at grid.n: must be an even integer >= 4, got {n!r}")
    period = _need(grid, "period", "grid.period")
    if not (isinstance(period, (int, float)) and period > 0):
        raise ConfigError(f"config error at grid.period: must be a positive number, got {period!r}")
    return n, float(period)


def _data(cfg: dict) -> tuple:
    """The data family and its params."""
    data = _need(cfg, "data")
    family = _need(data, "family", "data.family")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"config error at data.params: must be an object, got {params!r}")
    return family, params


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


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def write_manifest(out_dir: Path, cfg: dict, stages: dict, outputs: list) -> None:
    manifest = {
        "config_hash": config_hash(cfg),
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
        t0 = time.time()
        if not self.snapshots:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.stem}_{len(self.snapshots):04d}.fld"
        write_fld(path, self.lat, self.snapshot(state), state.t)
        lines = [",".join(row)] if not self.snapshots else []
        lines.append(",".join(repr(float(v)) for v in row.values()))
        with open(self.csv_path, "w" if not self.snapshots else "a") as fh:
            fh.write("\n".join(lines) + "\n")
        self.snapshots.append(path)
        self.write_seconds += time.time() - t0


def _sample_every(cfg: dict, default: int) -> int:
    every = cfg.get("sample_every", default)
    if not isinstance(every, int) or every < 1:
        raise ConfigError(f"config error at sample_every: must be a positive integer, got {every!r}")
    return every


def _run_times(cfg: dict) -> tuple:
    T = float(_need(cfg, "T"))
    dt = float(_need(cfg, "dt"))
    return T, dt, _sample_every(cfg, 1)


def _dm_init(cfg: dict, dt: float) -> tuple:
    """The initial DMState and the StepConfig of a DM run."""
    dealias = cfg.get("dealias", False)
    if not isinstance(dealias, bool):
        raise ConfigError(f"config error at dealias: must be true or false, got {dealias!r}")
    n, period = _validate_grid(cfg)
    eps = float(_need(cfg, "eps"))
    if not (eps > 0):
        raise ConfigError(f"config error at eps: must be positive, got {eps}")
    family, params = _data(cfg)
    lat = make_lattice(n, period)
    psi0 = df.spinor_data(lat, family, eps, params)
    a0, a1 = df.gauge_data(lat, cfg.get("gauge", "zero"), params)
    return DMState(lat, 0.0, psi0, a0, a1, eps), StepConfig(dt=dt, dealias=dealias)


def _finish(command: str, out_dir: Path, cfg: dict, t0: float, writer: _SampleWriter, extra: tuple = ()) -> int:
    total = time.time() - t0
    stages = {"simulate": total - writer.write_seconds, "write": writer.write_seconds}
    write_manifest(out_dir, cfg, stages, [*writer.snapshots, *extra, writer.csv_path])
    print(f"{command}: {len(writer.snapshots)} samples -> {out_dir}")
    return 0


def cmd_run_dm(cfg: dict, out_dir: Path) -> int:
    T, dt, every = _run_times(cfg)
    t0 = time.time()
    init, step_cfg = _dm_init(cfg, dt)
    writer = _SampleWriter(out_dir, "psi", init.lat, lambda s: s.psi,
                           lambda s: checked_diagnostics(s, step_cfg))
    final = run_dm(init, T, step_cfg, every, writer)
    a_path = out_dir / "A_final.fld"
    write_fld(a_path, init.lat, final.A, final.t)
    return _finish("run-dm", out_dir, cfg, t0, writer, (a_path,))


def cmd_run_sp(cfg: dict, out_dir: Path) -> int:
    T, dt, every = _run_times(cfg)
    n, period = _validate_grid(cfg)
    family, params = _data(cfg)
    lat = make_lattice(n, period)
    t0 = time.time()
    v0p, v0m = df.limit_data(lat, family, params)
    writer = _SampleWriter(out_dir, "vplus", lat, lambda s: s.v_plus, sp_diagnostics)
    integrate(SPState(lat, 0.0, v0p, v0m), lambda s: sp_step(s, dt), n_steps_for(T, dt), every, writer)
    return _finish("run-sp", out_dir, cfg, t0, writer)


def cmd_run_pauli(cfg: dict, out_dir: Path) -> int:
    """Advances the Pauli spinor in lockstep with a DM run, in its fields."""
    T, dt, every = _run_times(cfg)
    t0 = time.time()
    init, step_cfg = _dm_init(cfg, dt)
    writer = _SampleWriter(out_dir, "chi", init.lat, lambda s: s.pauli.chi, lambda s: pauli_diagnostics(s.pauli))
    integrate(DMPauliState.start(init, sp.upper(init.psi)), lambda s: dm_pauli_step(s, step_cfg),
              n_steps_for(T, dt), every, writer)
    return _finish("run-pauli", out_dir, cfg, t0, writer)


def _experiment_config(cfg: dict) -> ExperimentConfig:
    n, period = _validate_grid(cfg)
    eps_list = _need(cfg, "eps_list")
    if len(eps_list) < 3:
        raise ConfigError(
            f"config error at eps_list: rate fits need >= 3 eps values, got {len(eps_list)}"
        )
    family, params = _data(cfg)
    return ExperimentConfig(
        n=n,
        period=period,
        eps_list=[float(e) for e in eps_list],
        T=float(_need(cfg, "T")),
        dt_ref=float(_need(cfg, "dt_ref")),
        eps_ref=float(cfg.get("eps_ref", eps_list[0])),
        dt_schedule=cfg.get("dt_schedule", "eps_linear"),
        family=family,
        params=params,
        gauge=cfg.get("gauge", "zero"),
        sample_every=_sample_every(cfg, 10),
    )


def cmd_converge(cfg: dict, out_dir: Path, study) -> int:
    t0 = time.time()
    try:
        exp_cfg = _experiment_config(cfg)
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from None
    report = study(exp_cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path, csv_path = out_dir / "rate_report.json", out_dir / "rate_report.csv"
    json_path.write_text(report.to_json() + "\n")
    rows = report.to_csv_rows()
    _write_csv(csv_path, rows[0], rows[1:])
    write_manifest(out_dir, cfg, {"study": time.time() - t0}, [json_path, csv_path])
    print(f"rates: {report.rates}")
    print(f"report -> {json_path}")
    return 0


def cmd_probe(cfg: dict, out_dir: Path) -> int:
    n, period = _validate_grid(cfg)
    case = _need(cfg, "case")
    t0 = time.time()
    rows = dyadic_sweep(
        case,
        n,
        period,
        float(_need(cfg, "eps")),
        [float(m) for m in _need(cfg, "mu_list")],
        [float(m) for m in _need(cfg, "lam_list")],
        int(cfg.get("trials", 8)),
        int(cfg.get("seed", 0)),
        float(cfg.get("T", 1.0)),
        float(cfg.get("dt", 0.02)),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    _write_csv(csv_path, ("mu", "lambda", "eps", "trial", "ratio"), rows)
    write_manifest(out_dir, cfg, {"probe": time.time() - t0}, [csv_path])
    ratios = np.array([r[-1] for r in rows])
    print(f"probe case {case}: {len(rows)} cells, max ratio {ratios.max():.4f}")
    return 0


# -- check suites ---------------------------------------------------------------


def _suite_matrices() -> list:
    results = []
    for j in range(3):
        for k in range(3):
            anti = sp.ALPHA[j] @ sp.ALPHA[k] + sp.ALPHA[k] @ sp.ALPHA[j] - 2 * (j == k) * np.eye(4)
            results.append((f"anticommute_{j}{k}", float(np.abs(anti).max()), 1e-15))
            prod = sp.ALPHA[j] @ sp.ALPHA[k] - (
                (j == k) * np.eye(4)
                + 1j * sum(sp.LEVI_CIVITA[j, k, l] * sp.SPIN[l] for l in range(3))
            )
            results.append((f"spin_identity_{j}{k}", float(np.abs(prod).max()), 1e-15))
    results.append(("gamma0_sq", float(np.abs(sp.GAMMA0 @ sp.GAMMA0 - np.eye(4)).max()), 1e-15))
    herm = max(
        float(np.abs(m - m.conj().T).max()) for m in (sp.GAMMA0, *sp.ALPHA)
    )
    results.append(("hermitian", herm, 1e-15))
    return results


def _suite_projections() -> list:
    lat = make_lattice(16, 6.283185307179586)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((4, 16, 16, 16)) + 1j * rng.standard_normal((4, 16, 16, 16))
    from .fourier import lambda_eps

    results = []
    for eps in (1.0, 0.5, 0.25):
        pp = sp.pi_eps(lat, psi, eps, +1)
        pm = sp.pi_eps(lat, psi, eps, -1)
        results.append((f"completeness_eps{eps}", float(np.abs(pp + pm - psi).max()), 1e-12))
        results.append((f"idempotent_eps{eps}", float(np.abs(sp.pi_eps(lat, pp, eps, +1) - pp).max()), 1e-12))
        results.append((f"orthogonal_eps{eps}", float(np.abs(sp.pi_eps(lat, pm, eps, +1)).max()), 1e-12))
        q = sp.free_dirac_apply(lat, psi, eps)
        results.append(
            (
                f"spectral_decomp_eps{eps}",
                float(np.abs(q - (lambda_eps(lat, pp, eps, 1) - lambda_eps(lat, pm, eps, 1))).max()),
                1e-12,
            )
        )
    return results


def _suite_symbols() -> list:
    """Bounds on the code's own symbols: 1 - 1/lambda from mode_multipliers
    and the dispersion gap |k|/eps - h_eps from h_eps_symbol."""
    from .fourier import h_eps_symbol, mode_multipliers

    lat = make_lattice(16, 6.283185307179586)
    k_abs = lat.k_abs
    k_sq = lat.k_sq
    results = []
    for eps in (0.125, 0.25, 0.5, 1.0):
        sym = 1.0 - 1.0 / mode_multipliers(lat, eps, 0.0).lam
        lower_ok = float((-sym).max())
        upper = np.minimum(1.0, np.minimum(eps * k_abs, eps**2 * k_sq))
        upper_ok = float((sym - upper).max())
        results.append((f"one_minus_invlambda_lower_eps{eps}", max(lower_ok, 0.0), 1e-15))
        results.append((f"one_minus_invlambda_upper_eps{eps}", max(upper_ok, 0.0), 1e-15))
        nz = k_sq > 0
        h = h_eps_symbol(lat, eps)
        gap = k_abs[nz] / eps - h[nz]
        results.append((f"dispersion_gap_lower_eps{eps}", max(float((-gap).max()), 0.0), 1e-15))
        results.append((f"dispersion_gap_upper_eps{eps}", max(float((gap - 1.0 / eps**2).max()), 0.0), 1e-15))
    return results


def _suite_null1() -> list:
    from .fourier import dealias, leray_project
    from .harness import null_identity_one_residual

    lat = make_lattice(24, 6.283185307179586)
    rng = np.random.default_rng(0)
    results = []
    for trial in range(3):
        A = np.stack([rng.standard_normal((24, 24, 24)) for _ in range(3)])
        A = leray_project(lat, dealias(lat, A))
        A -= A.mean(axis=(1, 2, 3), keepdims=True)
        psi = dealias(
            lat, rng.standard_normal((4, 24, 24, 24)) + 1j * rng.standard_normal((4, 24, 24, 24))
        )
        results.append((f"null_identity_1_trial{trial}", null_identity_one_residual(lat, A, psi), 1e-10))
    return results


def _suite_null2() -> list:
    from .data_families import gauge_profile, v_plus_profile, v_minus_profile
    from .evolve_dm import free_dirac_U
    from .harness import null_identity_check

    lat = make_lattice(16, 6.283185307179586)
    eps, T, dt = 0.5, 0.25, 1e-3
    psi0 = sp.pi_eps(lat, sp.embed_upper(v_plus_profile(lat, 0.5)), eps, +1) + sp.pi_eps(
        lat, sp.embed_lower(v_minus_profile(lat, 0.3)), eps, -1
    )
    psi, U, dtU = free_dirac_U(lat, psi0, T, dt, eps)
    Aprof = gauge_profile(lat, 0.2)
    om = 1.3
    A_t = np.cos(om * T) * Aprof
    W_t = -eps * om * np.sin(om * T) * Aprof
    r1, r2 = null_identity_check(lat, A_t, W_t, psi, U, dtU, eps)
    return [("null_identity_1_freedirac", r1, 1e-10), ("null_identity_2_freedirac", r2, 1e-5)]


def _suite_squared_dirac() -> list:
    from .harness import SquaredDiracResiduals

    lat = make_lattice(12, 6.283185307179586)
    eps = 0.25
    psi0 = df.spinor_data(lat, "upper_projected", eps, {"amplitude": 0.5})
    a0, a1 = df.gauge_data(lat, "bandlimited_divfree", {"gauge_amplitude": 0.2})
    res = {}
    for dt in (2e-3, 1e-3):
        check = SquaredDiracResiduals()
        run_dm(DMState(lat, 0.0, psi0, a0, a1, eps), 0.1, StepConfig(dt=dt), 1, check)
        res[dt] = float(np.max(check.result()))
    ratio = res[2e-3] / res[1e-3]
    return [*((f"squared_dirac_dt{dt}", r, 1.0) for dt, r in res.items()),
            ("squared_dirac_halving_ratio_ge_3", 3.0 - min(ratio, 3.0), 1e-9)]


CHECK_SUITES = {
    "matrices": _suite_matrices,
    "projections": _suite_projections,
    "symbols": _suite_symbols,
    "null-1": _suite_null1,
    "null-2": _suite_null2,
    "squared-dirac": _suite_squared_dirac,
}


def cmd_check(suite: str) -> int:
    if suite not in CHECK_SUITES:
        print(f"unknown suite {suite!r}; have {sorted(CHECK_SUITES)}", file=sys.stderr)
        return 2
    failed = 0
    for name, residual, tol in CHECK_SUITES[suite]():
        ok = residual <= tol
        failed += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: residual {residual:.3e} (tol {tol:.1e})")
    return 1 if failed else 0


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    # built per call, so a handler rebound on the module after import is the one called
    commands = {
        "run-dm": cmd_run_dm,
        "run-sp": cmd_run_sp,
        "run-pauli": cmd_run_pauli,
        "converge": lambda cfg, out_dir: cmd_converge(cfg, out_dir, nonrel_convergence_study),
        "seminonrel": lambda cfg, out_dir: cmd_converge(cfg, out_dir, seminonrel_study),
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
        return commands[args.command](load_config(args.config), Path(args.out))
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
