"""Shipped experiment presets, one per theorem-level experiment.

Each preset is a plain JSON-compatible dict; the CLI accepts either a config
file path or ``preset:<name>``.  The dt schedules keep the solver error far
below the eps-power being measured: the stiff parts are exact, so dt shrinks
only linearly with eps.
"""

from __future__ import annotations

TWO_PI = 6.283185307179586

# what the rate-study presets share; get_preset deep-copies, so the nested
# values are never shared between returned configs
_RATE_STUDY = {
    "grid": {"n": 24, "period": TWO_PI},
    "eps_list": [0.4, 0.2, 0.1],
    "T": 0.5,
    "dt_ref": 2e-3,
    "eps_ref": 0.4,
    "dt_schedule": "eps_linear",
    "gauge": "zero",
    "sample_every": 25,
}

PRESETS: dict[str, dict] = {
    # sanity: nothing happens, quickly
    "minimal-zero": {
        "grid": {"n": 8, "period": TWO_PI},
        "eps": 0.5,
        "T": 0.1,
        "dt": 0.01,
        "data": {"family": "zero", "params": {}},
        "gauge": "zero",
        "sample_every": 5,
    },
    # closed-form: psi(t) = exp(-i t / eps^2) (amp, 0, 0, 0)
    "stationary": {
        "grid": {"n": 8, "period": TWO_PI},
        "eps": 0.5,
        "T": 1.0,
        "dt": 0.01,
        "data": {"family": "stationary", "params": {"amplitude": 1.0}},
        "gauge": "zero",
        "sample_every": 10,
    },
    # Theorem 2 regime: eps-independent data with both components
    "thm2": {**_RATE_STUDY, "data": {"family": "upper_lower", "params": {"amplitude": 0.5, "minus_amplitude": 0.3}}},
    # Theorem 3 regime: positron part exactly zero, band-limited v0+
    "thm3": {**_RATE_STUDY, "data": {"family": "upper_projected", "params": {"amplitude": 0.5}}},
    # Theorem 4 regime: same spinor data plus O(1) magnetic data, which makes
    # the O(eps) current defect visible
    "thm4": {
        **_RATE_STUDY,
        "data": {"family": "upper_projected", "params": {"amplitude": 0.5, "gauge_amplitude": 0.3}},
        "gauge": "bandlimited_divfree",
    },
    # data (v0+, eps v0+): strong current convergence fails at t = 0
    "counterexample": {**_RATE_STUDY, "data": {"family": "counterexample", "params": {"amplitude": 0.5}}},
    # dyadic spacetime-estimate sweeps; grids sized so products are alias-free
    # inside the measured band
    "dyadic-i": {
        "case": "i",
        "grid": {"n": 32, "period": TWO_PI},
        "eps": 0.25,
        "mu_list": [1.0, 2.0, 4.0],
        "lam_list": [4.0],
        "trials": 8,
        "T": 1.0,
        "dt": 0.02,
    },
    "dyadic-ii": {
        "case": "ii",
        "grid": {"n": 64, "period": TWO_PI},
        "eps": 0.5,
        "mu_list": [1.0, 2.0],
        "lam_list": [8.0],
        "trials": 8,
        "T": 1.0,
        "dt": 0.04,
    },
    "dyadic-iii": {
        "case": "iii",
        "grid": {"n": 32, "period": TWO_PI},
        "eps": 0.25,
        "mu_list": [1.0, 2.0, 4.0],
        "lam_list": [2.0],
        "trials": 8,
        "T": 1.0,
        "dt": 0.02,
    },
}


def get_preset(name: str) -> dict:
    import copy

    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
