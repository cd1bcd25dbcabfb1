"""Convergence-rate experiments and dyadic spacetime-estimate probes.

The rate studies run the coupled solver against the limit solvers over a
decreasing eps list, record the theorem's error norms at sample times, and
fit log2(error) against log2(eps).  The DM potential is the A0 each state
carries, every Pauli and limit current is spinors.pauli_current, and the
weak-* study pairs the DM and limit currents through one loop,
_run_pairing.  The dyadic sweep evolves LP-localized data under the exact
free flows, once per (lambda, trial) and f scale, and compares spacetime L2
norms of products against the claimed right-hand sides.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import data_families as df
from . import spinors as sp
from .evolve_dm import StepConfig, n_steps_for, run_dm, sample_steps
from .evolve_limits import SPState, run_pauli, run_sp
from .fourier import (Lattice, apply_symbol, h_eps_symbol, lp_norm, lp_window, make_lattice, poisson_solve,
                      sobolev_norm, sobolev_norm_hat)

# -- configuration ---------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """A rate study's settings; every field is required, and cli.KEYS holds
    the defaults of the study commands."""

    n: int
    period: float
    eps_list: list
    T: float
    dt_ref: float                 # dt at eps_ref
    eps_ref: float
    dt_schedule: str              # "eps_linear", the one schedule: dt = dt_ref * eps / eps_ref
    family: str
    params: dict
    gauge: str
    sample_every: int

    def __post_init__(self):
        eps = list(self.eps_list)
        if len(eps) != len(set(eps)) or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if self.dt_schedule != "eps_linear":
            raise ValueError(f"unknown dt_schedule {self.dt_schedule!r}: the one schedule is 'eps_linear'")
        df.check_params(self.params, self.family, self.gauge)

    def dt_for(self, eps: float) -> float:
        return self.dt_ref * eps / self.eps_ref

    def lattice(self) -> Lattice:
        return make_lattice(self.n, self.period)


def fit_rate(eps_list, errors):
    """Least-squares slope of log2(error) vs log2(eps); returns (rate, resid).

    The rate is the convergence order: error ~ C eps^rate.  Undefined (nan)
    when fewer than 3 points or any error is at roundoff level.
    """
    eps_arr = np.asarray(eps_list, dtype=float)
    err = np.asarray(errors, dtype=float)
    if len(eps_arr) < 3:
        raise ValueError("rate fit needs at least 3 eps values")
    if np.any(err < 1e-13):
        return float("nan"), float("nan")
    x = np.log2(eps_arr)
    y = np.log2(err)
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    resid = float(np.sqrt(res[0] / len(x))) if len(res) else 0.0
    return float(coef[0]), resid


@dataclass
class RateReport:
    eps_list: list
    errors: dict                  # norm name -> list of sup-in-time errors
    rates: dict                   # norm name -> fitted rate (nan = undefined)
    fit_residuals: dict
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        def clean(x):
            if isinstance(x, float) and np.isnan(x):
                return "undefined"
            return x

        payload = {
            "eps_list": list(self.eps_list),
            "errors": {k: list(map(float, v)) for k, v in self.errors.items()},
            "rates": {k: clean(float(v) if not np.isnan(v) else v) for k, v in self.rates.items()},
            "fit_residuals": {k: clean(v) for k, v in self.fit_residuals.items()},
            "meta": self.meta,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_csv_rows(self):
        rows = [("norm", "eps", "error")]
        for name in sorted(self.errors):
            for e, v in zip(self.eps_list, self.errors[name]):
                rows.append((name, repr(float(e)), repr(float(v))))
        return rows


# -- nonrelativistic limit study ----------------------------------------------------


def _dm_schedule(cfg: ExperimentConfig, eps: float):
    """dt, step count and sampling stride of the DM run at eps: T is split
    into whole steps, and samples fall on the eps-independent grid of
    multiples of dt_ref * sample_every."""
    dt = cfg.dt_for(eps)
    steps = int(round(cfg.T / dt))
    if steps < 1:
        raise ValueError(f"T = {cfg.T} is shorter than half a DM step at eps = {eps} (dt = {dt:.6g})")
    dt = cfg.T / steps
    return dt, steps, max(1, int(round(cfg.dt_ref * cfg.sample_every / dt)))


def _integrate_dm(cfg: ExperimentConfig, lat: Lattice, eps: float, run, observe):
    """Run DM at eps over [0, T] through the run entry ``run`` (run_dm, or
    run_pauli for the Pauli spinor in lockstep), calling observe at the
    study's sample times."""
    dt, _, every = _dm_schedule(cfg, eps)
    run(df.initial_dm_state(lat, cfg.family, cfg.gauge, eps, cfg.params), cfg.T, StepConfig(dt=dt), every, observe)


def _sup_errors(cfg: ExperimentConfig, lat: Lattice, eps: float, run, errors) -> dict:
    """sup over the study samples of the DM run at eps (through ``run``, as
    in _integrate_dm) of each error in the dict errors(state) returns."""
    sups = {}

    def observe(state):
        for name, value in errors(state).items():
            sups[name] = max(sups.get(name, 0.0), value)

    _integrate_dm(cfg, lat, eps, run, observe)
    return sups


def _integrate_sp(cfg: ExperimentConfig, lat: Lattice, sample_every: int, observe):
    """Run the limit system at dt_ref over [0, T] from the study's limit data."""
    v0p, v0m = df.limit_data(lat, cfg.family, cfg.params)
    run_sp(SPState(lat, 0.0, v0p, v0m), cfg.T, cfg.dt_ref, sample_every, observe)


def _check_sample_grid(cfg: ExperimentConfig):
    """Every eps must sample DM at the SP sample times: multiples of
    dt_ref * sample_every, and T."""
    want = cfg.dt_ref * np.array(sample_steps(n_steps_for(cfg.T, cfg.dt_ref), cfg.sample_every))
    for eps in cfg.eps_list:
        dt, steps, every = _dm_schedule(cfg, eps)
        got = dt * np.array(sample_steps(steps, every))
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-6 * cfg.dt_ref:
            raise ValueError(
                f"DM samples at eps = {eps} (every {every} steps of dt = {dt:.6g}) miss the study "
                f"grid of multiples of dt_ref * sample_every = {cfg.dt_ref * cfg.sample_every:.6g}"
            )


def _rate_report(cfg: ExperimentConfig, study: str, per_eps: list, t_start: float) -> RateReport:
    """Rates fitted over the eps list to the per-eps error dicts."""
    errors = {k: [e[k] for e in per_eps] for k in per_eps[0]}
    rates, resids = {}, {}
    for k in errors:
        rates[k], resids[k] = fit_rate(cfg.eps_list, errors[k])
    meta = {"study": study, "family": cfg.family, "n": cfg.n, "T": cfg.T, "dt_schedule": cfg.dt_schedule,
            "wall_seconds": round(_time.perf_counter() - t_start, 3)}
    return RateReport(list(cfg.eps_list), errors, rates, resids, meta)


def modulated_limit_spinor(v_plus: np.ndarray, v_minus: np.ndarray, t: float, eps: float) -> np.ndarray:
    """exp(-it/eps^2) (v+, 0) + exp(+it/eps^2) (0, v-)."""
    return np.exp(-1j * t / eps**2) * sp.embed_upper(v_plus) + np.exp(1j * t / eps**2) * sp.embed_lower(v_minus)


def _nonrel_errors(cfg: ExperimentConfig, lat: Lattice, eps: float, limit: list) -> dict:
    """sup over the samples of the DM run at eps against the limit samples
    (v+, v-, charge, potential) taken at the same times; the DM potential is
    the A0 each state carries."""
    samples = iter(limit)

    def errors(state):
        vp, vm, n_lim, u = next(samples)
        rho = sp.charge_density(state.psi)
        return {"h1_spinor": sobolev_norm(lat, state.psi - modulated_limit_spinor(vp, vm, state.t, eps), 1.0),
                "h1dot_A0": sobolev_norm(lat, state.carried.A0 - u, 1.0, homogeneous=True),
                **{f"lp{p}_charge": lp_norm(lat, rho - n_lim, float(p)) for p in (1, 2, 3)}}

    return _sup_errors(cfg, lat, eps, run_dm, errors)


def nonrel_convergence_study(cfg: ExperimentConfig) -> RateReport:
    """Errors of the coupled run against the limit system, per eps:
    sup_t of the H1 spinor error, the Hdot1 potential error and the L^p
    (p = 1, 2, 3) charge errors; rates fitted over the eps list.

    The limit system is run once; DM sample j of every eps is compared with
    its sample j."""
    t_start = _time.perf_counter()
    _check_sample_grid(cfg)
    lat = cfg.lattice()
    limit = []

    def keep(state):
        n_lim = sp.charge_density(state.v_plus) + sp.charge_density(state.v_minus)
        limit.append((state.v_plus, state.v_minus, n_lim, poisson_solve(lat, n_lim)))

    _integrate_sp(cfg, lat, cfg.sample_every, keep)
    per_eps = [_nonrel_errors(cfg, lat, eps, limit) for eps in cfg.eps_list]
    report = _rate_report(cfg, "nonrel_convergence", per_eps, t_start)
    report.rates["h1_spinor_rate"] = report.rates["h1_spinor"]
    return report


# -- semi-nonrelativistic (Pauli) study ----------------------------------------------


def _pauli_errors(cfg: ExperimentConfig, lat: Lattice, eps: float) -> dict:
    """sup over the samples of the DM run at eps, with Pauli in lockstep."""

    def errors(state):
        psi, chi_P = state.dm.psi, state.chi
        chi = sp.upper(np.exp(1j * state.t / eps**2) * psi)
        J = sp.current_density(psi, eps) - sp.pauli_current(lat, chi_P, state.dm.A, eps)
        return {"h1_pauli_spinor": sobolev_norm(lat, chi - chi_P, 1.0), "l1_current_defect": lp_norm(lat, J, 1.0)}

    return _sup_errors(cfg, lat, eps, run_pauli, errors)


def seminonrel_study(cfg: ExperimentConfig) -> RateReport:
    """Pauli comparison per eps: sup_t H1 of chi^eps - chi_P (expected
    O(eps^2)) and sup_t L1 of the current defect J - J_P, J_P the Pauli
    current with its spin curl (expected O(eps)), with the Pauli spinor
    advanced in lockstep with the DM run and driven by its fields."""
    t_start = _time.perf_counter()
    lat = cfg.lattice()
    return _rate_report(cfg, "seminonrel", [_pauli_errors(cfg, lat, eps) for eps in cfg.eps_list], t_start)


# -- weak-* current pairing ------------------------------------------------------------


def test_bump(lat: Lattice, T: float):
    """Fixed smooth bump G(t, x) = g(t) b(x), compactly supported in time
    on (0.2 T, 0.8 T) and smooth on the torus; returns callables."""
    t0, t1 = 0.2 * T, 0.8 * T

    def g(t):
        s = (np.asarray(t, dtype=float) - t0) / (t1 - t0)
        inside = (s > 0) & (s < 1)
        out = np.zeros_like(s, dtype=float)
        with np.errstate(over="ignore"):
            out[inside] = np.exp(-1.0 / np.maximum(s[inside] * (1.0 - s[inside]), 1e-300))
        return out * np.exp(4.0)  # normalized to 1 at the midpoint

    X1, X2, X3 = lat.grid()
    b = (1.0 + np.cos(X1)) * (1.0 + 0.5 * np.sin(X2)) * (1.0 + 0.5 * np.cos(X3)) / 4.0
    b = b + np.zeros((lat.n, lat.n, lat.n))
    return g, b


def _run_pairing(lat: Lattice, run, current, g, b) -> np.ndarray:
    """Integral of current(state)_k G dt dx, G = g(t) b(x), over the samples
    of run(observe): a grid quadrature in space, taken as each sample is
    reached, and the trapezoid rule in time."""
    times, vals = [], []

    def pair(s):
        times.append(s.t)
        J = current(s)
        vals.append([float(np.sum(J[k] * b)) * lat.cell_volume for k in range(3)])

    run(pair)
    times, vals = np.asarray(times, dtype=float), np.array(vals)
    weights = g(times)
    return np.array([float(np.trapezoid(weights * vals[:, k], times)) for k in range(3)])


def weak_pairing_study(cfg: ExperimentConfig) -> dict:
    """Pairing <J^eps, G> of the DM current against <J^0, G> of the limit
    current along the eps list."""
    lat = cfg.lattice()
    g, b = test_bump(lat, cfg.T)
    pairing_limit = _run_pairing(lat, partial(_integrate_sp, cfg, lat, 1),
                                 lambda s: sp.limit_current(lat, s.v_plus, s.v_minus), g, b)
    pairings = [_run_pairing(lat, partial(_integrate_dm, cfg, lat, eps, run_dm),
                             lambda s: sp.current_density(s.psi, s.eps), g, b) for eps in cfg.eps_list]
    defects = [float(np.linalg.norm(p - pairing_limit)) for p in pairings]
    return {
        "eps_list": list(cfg.eps_list),
        "defects": defects,
        "pairing_limit": [float(x) for x in pairing_limit],
        "strictly_decreasing": all(b < a for a, b in zip(defects, defects[1:])),
    }


# -- dyadic probes ------------------------------------------------------------------


def lp_localized_data(lat: Lattice, window: np.ndarray, seed_key: tuple) -> np.ndarray:
    """Random complex scalar field localized by a Littlewood-Paley window (lp_window)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    w = rng.standard_normal((lat.n, lat.n, lat.n)) + 1j * rng.standard_normal(
        (lat.n, lat.n, lat.n)
    )
    return apply_symbol(lat, w, window)


def dyadic_sweep(case: str, n: int, period: float, eps: float, mu_list, lam_list,
                 trials: int, seed: int, T: float, dt: float) -> list:
    """Ratio statistics for the spacetime product estimates over a (mu, lambda)
    sweep; returns rows (mu, lambda, eps, trial, ratio), mu-major, trials inner.

    u solves box_eps u = 0 with data (f, 0); v solves the modulated-Dirac
    scalar flow i dt v = h_eps_symbol(D) v with data g at scale lambda.  Case
    'i'/'ii' measures ||LP_mu(u_lam v_lam)||_{L2_{t,x}} on the cells mu <= lambda,
    case 'iii' ||u_mu v_lam|| without outer localization; denominators follow
    the respective claims.  Each (lambda, trial) evolves v once and u once per
    f scale, so in cases i and ii every mu windows one product.  Each scale's
    window is built once, for its data and its products.  The case, the cells
    and every scale are checked before any cell runs.
    """
    if case not in ("i", "ii", "iii"):
        raise ValueError(f"case must be 'i', 'ii' or 'iii', got {case}")
    cells = [(mu, lam) for mu in mu_list for lam in lam_list if case == "iii" or mu <= lam]
    if not cells:
        raise ValueError(f"probe case {case}: no (mu, lambda) cell to run for mu_list {list(mu_list)} "
                         f"and lam_list {list(lam_list)}; cases i and ii need mu <= lambda")
    lat = make_lattice(n, period)
    beta = {mu: lp_window(lat, mu, "mu_list") for mu in mu_list}
    gamma = {lam: lp_window(lat, lam, "lam_list") for lam in lam_list}
    scale, limit = max(map(max, cells)), float(np.max(lat.k_abs)) / 2.0
    if scale > limit:
        raise ValueError(f"dyadic scale {scale} beyond lattice resolution: at most {limit} at n = {n}")
    times = np.arange(n_steps_for(T, dt) + 1) * dt
    omega, h_sym = lat.k_abs / eps, h_eps_symbol(lat, eps)
    ratios, f_window = {}, beta if case == "iii" else gamma
    for lam in dict.fromkeys(lam for _, lam in cells):
        mus = [mu for mu, cell_lam in cells if cell_lam == lam]
        f_scale = {mu: mu if case == "iii" else lam for mu in mus}
        for trial in range(trials):
            ghat = lat.fft(lp_localized_data(lat, gamma[lam], (seed, 23, trial)))
            fhat = {s: lat.fft(lp_localized_data(lat, f_window[s], (seed, 11, trial))) for s in f_scale.values()}
            sq = np.zeros((len(mus), len(times)))
            for it, t in enumerate(times):
                v, c = lat.ifft(np.exp(-1j * h_sym * t) * ghat), np.cos(omega * t)
                prod = {s: lat.fft(lat.ifft(c * f) * v) for s, f in fhat.items()}
                for i, mu in enumerate(mus):
                    p = prod[f_scale[mu]]
                    sq[i, it] = sobolev_norm_hat(lat, p if case == "iii" else beta[mu] * p, 0.0) ** 2
            norm_g = sobolev_norm_hat(lat, ghat, 0.0)
            for i, mu in enumerate(mus):
                claim = {"i": mu, "ii": np.sqrt(mu) * np.sqrt(lam), "iii": min(mu, lam)}[case]
                denom = np.sqrt(eps) * claim * sobolev_norm_hat(lat, fhat[f_scale[mu]], 0.0) * norm_g
                ratios[mu, lam, trial] = np.sqrt(np.trapezoid(sq[i], times)) / denom if denom > 0 else 0.0
    return [(float(mu), float(lam), float(eps), trial, float(ratios[mu, lam, trial]))
            for mu, lam in cells for trial in range(trials)]
