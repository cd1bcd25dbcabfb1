"""Convergence-rate experiments and dyadic spacetime-estimate probes.

The rate studies run the coupled solver against the limit solvers over a
decreasing eps list, record the theorem's error norms at sample times, and
fit log2(error) against log2(eps).  The dyadic probes evolve LP-localized
data under the exact free flows and compare spacetime L2 norms of products
against the claimed right-hand sides.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field

import numpy as np

from . import data_families as df
from . import spinors as sp
from .evolve_dm import StepConfig, integrate, n_steps_for, run_dm, sample_steps
from .evolve_limits import SPState, run_pauli, sp_step
from .fourier import (Lattice, bump_profile, curl, h_eps_symbol, littlewood_paley, lp_norm, make_lattice,
                      poisson_solve, sobolev_norm)

# -- configuration ---------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """A rate study's settings; every field is required, and cli.KEYS holds
    the defaults of the study commands."""

    n: int
    period: float
    eps_list: list
    T: float
    dt_ref: float                 # dt at eps_ref; scaled per the schedule
    eps_ref: float
    dt_schedule: str              # "fixed" | "eps_linear" | "eps_squared"
    family: str
    params: dict
    gauge: str
    sample_every: int

    def __post_init__(self):
        eps = list(self.eps_list)
        if len(eps) != len(set(eps)) or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if self.dt_schedule not in ("fixed", "eps_linear", "eps_squared"):
            raise ValueError(f"unknown dt_schedule {self.dt_schedule!r}")
        df.check_params(self.params, self.family, self.gauge)

    def dt_for(self, eps: float) -> float:
        if self.dt_schedule == "fixed":
            return self.dt_ref
        if self.dt_schedule == "eps_linear":
            return self.dt_ref * eps / self.eps_ref
        return self.dt_ref * (eps / self.eps_ref) ** 2

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


def _integrate_sp(cfg: ExperimentConfig, lat: Lattice, sample_every: int, observe):
    """Run the limit system at dt_ref over [0, T] from the study's limit data."""
    v0p, v0m = df.limit_data(lat, cfg.family, cfg.params)
    integrate(SPState(lat, 0.0, v0p, v0m), lambda s: sp_step(s, cfg.dt_ref),
              n_steps_for(cfg.T, cfg.dt_ref), sample_every, observe)


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
            "wall_seconds": round(_time.time() - t_start, 3)}
    return RateReport(list(cfg.eps_list), errors, rates, resids, meta)


def modulated_limit_spinor(v_plus: np.ndarray, v_minus: np.ndarray, t: float, eps: float) -> np.ndarray:
    """exp(-it/eps^2) (v+, 0) + exp(+it/eps^2) (0, v-)."""
    return np.exp(-1j * t / eps**2) * sp.embed_upper(v_plus) + np.exp(
        1j * t / eps**2
    ) * sp.embed_lower(v_minus)


def _nonrel_errors(cfg: ExperimentConfig, lat: Lattice, eps: float, limit: list) -> dict:
    """sup over the samples of the DM run at eps against the limit samples
    (v+, v-, charge, potential) taken at the same times."""
    errs = {"h1_spinor": 0.0, "h1dot_A0": 0.0, "lp1_charge": 0.0, "lp2_charge": 0.0, "lp3_charge": 0.0}
    samples = iter(limit)

    def observe(state):
        vp, vm, n_lim, u = next(samples)
        psi = state.psi
        ref = modulated_limit_spinor(vp, vm, state.t, eps)
        errs["h1_spinor"] = max(errs["h1_spinor"], sobolev_norm(lat, psi - ref, 1.0))
        rho = sp.charge_density(psi)
        A0 = poisson_solve(lat, rho)
        errs["h1dot_A0"] = max(errs["h1dot_A0"], sobolev_norm(lat, A0 - u, 1.0, homogeneous=True))
        for p in (1, 2, 3):
            errs[f"lp{p}_charge"] = max(errs[f"lp{p}_charge"], lp_norm(lat, rho - n_lim, float(p)))

    _integrate_dm(cfg, lat, eps, run_dm, observe)
    return errs


def nonrel_convergence_study(cfg: ExperimentConfig) -> RateReport:
    """Errors of the coupled run against the limit system, per eps:
    sup_t of the H1 spinor error, the Hdot1 potential error and the L^p
    (p = 1, 2, 3) charge errors; rates fitted over the eps list.

    The limit system is run once; DM sample j of every eps is compared with
    its sample j."""
    t_start = _time.time()
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
    errs = {"h1_pauli_spinor": 0.0, "l1_current_defect": 0.0}

    def observe(state):
        t, psi, A, chi_P = state.t, state.dm.psi, state.dm.A, state.pauli.chi
        chi = sp.upper(np.exp(1j * t / eps**2) * psi)
        errs["h1_pauli_spinor"] = max(errs["h1_pauli_spinor"], sobolev_norm(lat, chi - chi_P, 1.0))
        J = sp.current_density(psi, eps)
        J_P = sp.pauli_current(lat, chi_P, A, eps)
        spin_curl = 0.5 * curl(lat, sp.spin_density(chi_P))
        errs["l1_current_defect"] = max(errs["l1_current_defect"], lp_norm(lat, J - J_P - spin_curl, 1.0))

    _integrate_dm(cfg, lat, eps, run_pauli, observe)
    return errs


def seminonrel_study(cfg: ExperimentConfig) -> RateReport:
    """Pauli comparison per eps: sup_t H1 of chi^eps - chi_P (expected
    O(eps^2)) and sup_t L1 of the current defect J - J_P - spin curl
    (expected O(eps)), with the Pauli spinor advanced in lockstep with the
    DM run and driven by its fields."""
    t_start = _time.time()
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


def _space_pairing(lat: Lattice, J: np.ndarray, b_of_x: np.ndarray) -> list:
    """Grid quadrature of integral J_k b dx, k = 1..3."""
    return [float(np.sum(J[k] * b_of_x)) * lat.cell_volume for k in range(3)]


def _time_pairing(times, space_pairings, g_of_t) -> np.ndarray:
    """Trapezoid quadrature in time of g(t) times the per-sample space pairings."""
    times = np.asarray(times, dtype=float)
    weights = g_of_t(times)
    vals = np.array(space_pairings)
    return np.array(
        [float(np.trapezoid(weights * vals[:, k], times)) for k in range(3)]
    )


def current_weak_pairing(lat: Lattice, times, currents, g_of_t, b_of_x) -> np.ndarray:
    """Trapezoid-in-time, grid-in-space quadrature of integral J_k G dt dx."""
    return _time_pairing(times, [_space_pairing(lat, J, b_of_x) for J in currents], g_of_t)


def _dm_pairing(cfg: ExperimentConfig, lat: Lattice, eps: float, g, b) -> np.ndarray:
    times, vals = [], []

    def pair(s):
        times.append(s.t)
        vals.append(_space_pairing(lat, sp.current_density(s.psi, eps), b))

    _integrate_dm(cfg, lat, eps, run_dm, pair)
    return _time_pairing(times, vals, g)


def weak_pairing_study(cfg: ExperimentConfig) -> dict:
    """Pairing <J^eps, G> against <J^0, G> along the eps list; the space
    pairings are taken as each sample is reached."""
    lat = cfg.lattice()
    g, b = test_bump(lat, cfg.T)
    times, vals = [], []

    def pair_limit(s):
        times.append(s.t)
        vals.append(_space_pairing(lat, sp.limit_current(lat, s.v_plus, s.v_minus), b))

    _integrate_sp(cfg, lat, 1, pair_limit)
    pairing_limit = _time_pairing(times, vals, g)
    defects = [float(np.linalg.norm(_dm_pairing(cfg, lat, eps, g, b) - pairing_limit))
               for eps in cfg.eps_list]
    return {
        "eps_list": list(cfg.eps_list),
        "defects": defects,
        "pairing_limit": [float(x) for x in pairing_limit],
        "strictly_decreasing": all(b < a for a, b in zip(defects, defects[1:])),
    }


# -- dyadic probes ------------------------------------------------------------------


def lp_localized_data(lat: Lattice, scale: float, seed_key: tuple) -> np.ndarray:
    """Random complex scalar field localized at dyadic scale by the LP bump."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    w = rng.standard_normal((lat.n, lat.n, lat.n)) + 1j * rng.standard_normal(
        (lat.n, lat.n, lat.n)
    )
    return littlewood_paley(lat, w, scale)


def dyadic_probe(lat: Lattice, mu: float, lam: float, eps: float, trials: int,
                 case: str, T: float, dt: float, seed: int) -> list:
    """Ratio statistics for the spacetime product estimates.

    u solves box_eps u = 0 with data (f, 0); v solves the modulated-Dirac
    scalar flow i dt v = h_eps_symbol(D) v with data g.  Case 'i'/'ii' measures
    ||LP_mu(u_lam v_lam)||_{L2_{t,x}}, case 'iii' measures ||u_mu v_lam||
    without outer localization; denominators follow the respective claims.
    """
    if case not in ("i", "ii", "iii"):
        raise ValueError(f"case must be 'i', 'ii' or 'iii', got {case}")
    if max(mu, lam) > float(np.max(lat.k_abs)) / 2.0:
        raise ValueError("dyadic scale beyond lattice resolution")
    steps = n_steps_for(T, dt)
    times = np.arange(steps + 1) * dt
    omega = lat.k_abs / eps
    h_sym = h_eps_symbol(lat, eps)
    r_mu = lat.k_abs / mu
    beta_mu = bump_profile(r_mu) - bump_profile(2.0 * r_mu)
    ratios = []
    for trial in range(trials):
        f_scale = mu if case == "iii" else lam
        fhat = lat.fft(lp_localized_data(lat, f_scale, (seed, 11, trial)))
        ghat = lat.fft(lp_localized_data(lat, lam, (seed, 23, trial)))
        norm_f = np.sqrt(np.sum(np.abs(fhat) ** 2)) * np.sqrt(lat.volume) / lat.n**3
        norm_g = np.sqrt(np.sum(np.abs(ghat) ** 2)) * np.sqrt(lat.volume) / lat.n**3
        if norm_f == 0.0 or norm_g == 0.0:
            ratios.append(0.0)
            continue
        sq_accum = np.zeros(steps + 1)
        for it, t in enumerate(times):
            u = lat.ifft(np.cos(omega * t) * fhat)
            v = lat.ifft(np.exp(-1j * h_sym * t) * ghat)
            prod_hat = lat.fft(u * v)
            if case in ("i", "ii"):
                prod_hat = beta_mu * prod_hat
            sq_accum[it] = np.sum(np.abs(prod_hat) ** 2) * lat.volume / lat.n**6
        sq_spacetime = float(np.trapezoid(sq_accum, times))
        numerator = np.sqrt(sq_spacetime)
        if case == "i":
            denom = np.sqrt(eps) * mu * norm_f * norm_g
        elif case == "ii":
            denom = np.sqrt(eps) * np.sqrt(mu) * np.sqrt(lam) * norm_f * norm_g
        else:
            denom = np.sqrt(eps) * min(mu, lam) * norm_f * norm_g
        ratios.append(numerator / denom if denom > 0 else 0.0)
    return ratios


def dyadic_sweep(case: str, n: int, period: float, eps: float, mu_list, lam_list,
                 trials: int, seed: int, T: float, dt: float) -> list:
    """Run a (mu, lambda) sweep; returns rows (mu, lambda, eps, trial, ratio).
    Cases 'i' and 'ii' skip the cells with mu > lambda."""
    cells = [(mu, lam) for mu in mu_list for lam in lam_list if case not in ("i", "ii") or mu <= lam]
    if not cells:
        raise ValueError(f"probe case {case}: no (mu, lambda) cell to run for mu_list {list(mu_list)} "
                         f"and lam_list {list(lam_list)}; cases i and ii need mu <= lambda")
    lat = make_lattice(n, period)
    rows = []
    for mu, lam in cells:
        ratios = dyadic_probe(lat, mu, lam, eps, trials, case, T, dt, seed)
        for trial, r in enumerate(ratios):
            rows.append((float(mu), float(lam), float(eps), trial, float(r)))
    return rows
