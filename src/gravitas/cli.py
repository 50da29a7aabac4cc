"""Command-line entry point: deterministic runs, CSV/JSON outputs, manifests.

Each subcommand is one ``Command`` row of the ``COMMANDS`` table: name,
help, default configuration and ``run(cfg) -> (data, checks, message)``,
which calls the library directly. A row's default keys are exactly the
settings it reads; each key has one ``FLAGS`` entry (flag, type, help with
units, bound or choices), and ``build_parser`` builds the parser from the
table, so a subcommand accepts only the flags it reads. ``main`` builds the
invoked subcommand's parser alone; for any other first argument, such as
``--help``, it builds every subcommand's.

A run has two phases, and the phase alone decides the exit code. Phase 1,
``_resolve``, takes each setting as flag over the config file's section for
the subcommand over its top level over default (the seed over GRAVITAS_SEED
below the file), and meets every rule before numpy loads: the ``FLAGS``
bounds and choices, mu < m through ``ModelParams``, each command's
``check``, the seed and the output path. Anything it raises, and a usage
error of the parser, exits 2, "config error". Phase 2, ``cmd.run`` and the
check of its data for a nan or inf, exits 1, "numerical failure", on an
``ArithmeticError``, ``ValueError`` (numpy's ``LinAlgError`` too) or
``GravitasError``. Neither failure writes a file. A completed run writes
the data (JSON for a dict, CSV for a header and rows) and a manifest with
the resolved configuration, the checks and the wall time, and exits 0 if
every check passes, else 1; a write's ``OSError`` exits 1, "write failed",
and removes a written data file. Numpy commands run under ``np.errstate``,
so numpy's overflow, division by zero and invalid operation raise;
``deflection`` and ``optical-tree`` rely on Python's own float errors.

Each run imports the library modules it calls when it starts, so neither
``import gravitas.cli`` nor a ``deflection`` or ``optical-tree`` run loads
numpy, and neither ``import gravitas.cli`` nor a ``deflection`` run loads
``dataclasses``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .errors import GravitasError, NumericalCheckError, StepSizeError
from .params import FIG1_DEFAULTS, N_STRATA, RECORD_EVERY, ModelParams, guard_steps

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
# what either phase raises: a configuration error, then a numerical failure
FAILURES = (ArithmeticError, ValueError, GravitasError)

# Family-wise false-failure rate of each statistical gate on a correct run.
GATE_ALPHA = 1e-3
# A Gaussian state passes as separable with E_N below SEPARABLE_E_N and the
# Duan product at least SEPARABLE_DUAN: floating-point slack on E_N = 0, duan >= 1.
SEPARABLE_E_N = 1e-10
SEPARABLE_DUAN = 1.0 - 1e-9


class ConfigError(GravitasError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a configuration error
        self.exit(EXIT_CONFIG, f"config error: {message}\n")


class Flag(NamedTuple):
    """How one configuration key is set from the command line."""

    help: str
    type: Callable = float
    gt: float | None = None       # every value must be greater than this
    ge: float | None = None       # every value must be at least this
    nargs: str | None = None
    choices: tuple[str, ...] | None = None
    flag: str | None = None       # default: --key-with-dashes


FLAGS = {
    "g_newton": Flag("gravitational coupling G_N (natural units, mass^-2)", gt=0),
    "m": Flag("matter mass m, in entangle/semiclassical/compare the mass of "
              "each body (mass units)", gt=0),
    "mu": Flag("mediator regulator mass mu; in phase-space-check the on-shell "
               "mass (mass units)", gt=0),
    "lambda_probe": Flag("photon-matter coupling lambda (mass units)",
                         flag="--lambda"),
    "alpha_tilde": Flag("particle-antiparticle box coupling alpha~ (dimensionless)"),
    "eps_ladder": Flag("relative epsilon ladder, units of m^2",
                       gt=0, nargs="+"),
    "tolerance": Flag("slack on |ratio - 1|: the pass/fail bound of optical-tree, "
                      "a floor under the z-sigma bound of box-cut (dimensionless)",
                      ge=0),
    "s_grid": Flag("Mandelstam s values, absolute (mass^2 units, not scaled "
                   "by m^2); points below 4 m^2 are flagged below-threshold",
                   nargs="+"),
    "n_samples": Flag(f"Monte Carlo samples per estimator; box-cut draws "
                      f"{N_STRATA}*floor(n/{N_STRATA}) per side", type=int, gt=0),
    "threads": Flag("worker threads; results must not depend on them", type=int, gt=0),
    "d": Flag("mean separation (length units)", gt=0),
    "var_x": Flag("initial per-mass position variance (length^2)", gt=0),
    "delta_t": Flag("interaction time horizon (time units)", ge=0),
    "n_grid": Flag("time grid intervals", type=int, gt=0),
    "axis": Flag("displacement axis of the quadratized coupling", type=str,
                 choices=("separation", "transverse")),
    "gamma": Flag("measurement rate (1/time)", gt=0),
    "horizon": Flag("total evolution time (time units)", gt=0),
    "n_steps": Flag(f"time steps, a multiple of the snapshot stride {RECORD_EVERY}",
                    type=int, gt=0),
    "n_traj": Flag("trajectories, rounded up to an even count (pairs with "
                   "opposite-sign noise); cost and memory do not grow with it",
                   type=int, gt=0),
    "mass_g": Flag("source mass (grams)", gt=0),
    "impact_um": Flag("impact parameter (micrometers)", gt=0),
    "separation_um": Flag("superposition separation (micrometers)", gt=0),
    "wavelength_nm": Flag("laser wavelength (nanometers)", gt=0),
    "cavity_m": Flag("cavity length (meters)", gt=0),
    "target_time_s": Flag("target integration time (seconds)", gt=0),
    "t_integration_s": Flag("override the derived single-photon integration "
                            "time (seconds)", gt=0),
    "kmax": Flag("sampling radius, units of mu", gt=0),
    "out": Flag("output data file path", type=str),
    "seed": Flag("64-bit master seed (fallback: GRAVITAS_SEED)", type=int, ge=0),
}


class Command(NamedTuple):
    name: str
    help: str
    defaults: dict
    run: Callable[[dict], tuple]
    # raises ConfigError for a setting no flag bound covers
    check: Callable[[dict], None] | None = None


def _load_config_file(path: str | None, cmd: Command) -> dict:
    """The settings a JSON config file gives the subcommand: the top-level
    keys it reads, overridden by those of its own section."""
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} not found")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {p} must hold a JSON object, "
                          f"got {type(doc).__name__}")
    commands = {c.name: c for c in COMMANDS}
    unknown = sorted(set(doc) - set(commands) - set(FLAGS))
    if unknown:
        raise ConfigError(f"config file {p}: no subcommand reads {unknown}")
    for name, section in doc.items():
        if name not in commands:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"config file {p}: section {name!r} must be a JSON "
                              f"object, got {section!r}")
        unknown = sorted(set(section) - set(commands[name].defaults))
        if unknown:
            raise ConfigError(f"config file {p}: {name} does not read {unknown}")
    cfg = {k: v for k, v in doc.items() if k in cmd.defaults}
    cfg.update((k, v) for k, v in doc.get(cmd.name, {}).items() if v is not None)
    return cfg


def _convert(key: str, value, source: str):
    """A config-file or environment value converted to its flag's type; a
    boolean, a non-integral number for an int, a non-string for a str or a
    single value for a list setting is rejected, not cut, cast or split."""
    f = FLAGS[key]
    if f.nargs and not (isinstance(value, list) and value):
        raise ConfigError(f"{key}={value!r} from {source}: expected a list of "
                          "at least one value")
    if any(isinstance(v, bool) or (f.type is int and isinstance(v, float)
                                   and not v.is_integer())
           or (f.type is str and not isinstance(v, str))
           for v in (value if f.nargs else [value])):
        raise ConfigError(f"{key}={value!r} from {source}: expected {f.type.__name__}")
    try:
        return [f.type(v) for v in value] if f.nargs else f.type(value)
    except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
        raise ConfigError(f"{key}={value!r} from {source}: {exc}") from exc


def _resolve(cmd: Command, args: argparse.Namespace) -> dict:
    """Phase 1: the settings by the module docstring's precedence, a value set
    when not None; each meets its flag's bound or choices, and the set meets
    ``ModelParams`` and the command's ``check`` and names a seed and a file."""
    file_cfg = _load_config_file(args.config, cmd)
    cfg = dict(cmd.defaults)
    for key in cfg:
        if file_cfg.get(key) is not None:
            cfg[key] = _convert(key, file_cfg[key], "the config file")
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        elif key == "seed" and cfg[key] is None and "GRAVITAS_SEED" in os.environ:
            cfg[key] = _convert(key, os.environ["GRAVITAS_SEED"], "GRAVITAS_SEED")
        f, value = FLAGS[key], cfg[key]
        if value is None:
            continue
        values = value if isinstance(value, list) else [value]
        if f.choices is not None and value not in f.choices:
            raise ConfigError(f"{key} must be one of {list(f.choices)}, got {value!r}")
        # nan and +/-inf pass every bound below: nan <= gt is False
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite, got {value}")
        if f.gt is not None and any(v <= f.gt for v in values):
            raise ConfigError(f"{key} must be > {f.gt}, got {value}")
        if f.ge is not None and any(v < f.ge for v in values):
            raise ConfigError(f"{key} must be >= {f.ge}, got {value}")
    if {"m", "mu"} <= cfg.keys():
        try:
            _params(cfg)
        except ValueError as exc:
            raise ConfigError(f"--mu must be below --m, got --mu {cfg['mu']} and "
                              f"--m {cfg['m']} ({exc})") from exc
    if cmd.check is not None:
        cmd.check(cfg)
    if "seed" in cfg and cfg["seed"] is None:
        raise ConfigError("a seed is required (flag --seed, config file, or GRAVITAS_SEED)")
    if "n_traj" in cfg:
        cfg["n_traj"] += cfg["n_traj"] % 2
    out = Path(cfg["out"])
    if out.is_dir():  # "" resolves to "." too
        raise ConfigError(f"output path {str(out)!r} is a directory, not a file")
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {out.parent} does not exist")
    return cfg


def _params(cfg: dict) -> ModelParams:
    """The model couplings a subcommand reads; the rest keep their defaults."""
    keys = ("g_newton", "m", "mu", "lambda_probe", "alpha_tilde")
    return ModelParams(**{k: cfg[k] for k in keys if k in cfg})


def _sidak_z(n: int, alpha: float = GATE_ALPHA) -> float:
    """Two-sided z bound so that n independent gates fail together at rate alpha."""
    from statistics import NormalDist

    per_test = -math.expm1(math.log1p(-alpha) / n)
    return NormalDist().inv_cdf(1.0 - per_test / 2.0)


# ---------------------------------------------------------------------------
# subcommands: run(cfg) -> (data, checks, message)
# ---------------------------------------------------------------------------

def _numpy_errors_raise(run: Callable[[dict], tuple]) -> Callable[[dict], tuple]:
    """``run`` under ``np.errstate``, so that a numpy overflow, division by
    zero or invalid operation raises ``FloatingPointError``, an
    ``ArithmeticError``, instead of warning; numpy loads when it starts."""
    def under_errstate(cfg: dict) -> tuple:
        import numpy as np

        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return run(cfg)
    return under_errstate


def _check_optical_tree(cfg: dict) -> None:
    from .optical import TreePoleFamily, max_smallest_eps

    if cfg["lambda_probe"] == 0.0:
        raise ConfigError("--lambda must be nonzero: both sides of the optical "
                          "theorem scale as lambda^2, so their ratio is 0/0 at 0")
    ladder = cfg["eps_ladder"]
    if len(ladder) < 2 or len(set(ladder)) < len(ladder):
        raise ConfigError("--eps-ladder needs at least two entries, all distinct "
                          "(the LHS is extrapolated from the two smallest), "
                          f"got {ladder}")
    params = _params(cfg)
    eps_max = max_smallest_eps(TreePoleFamily(params), params)
    if min(ladder) >= eps_max:
        raise ConfigError(
            f"--eps-ladder: the smallest entry must be below {eps_max:.6g} at "
            f"these masses, got {min(ladder)}; from there on the pole cell "
            "omega* +/- Delta reaches zero photon energy")


def _check_n_samples(cfg: dict) -> None:
    if cfg["n_samples"] < 2 * N_STRATA:
        raise ConfigError(f"--n-samples must be at least {2 * N_STRATA}, two per "
                          "stratum of both the box-cut and the annihilation "
                          f"estimator, got {cfg['n_samples']}")


def _check_two_samples(cfg: dict) -> None:
    if cfg["n_samples"] < 2:
        raise ConfigError(f"--n-samples must be >= 2 for an error bar, got {cfg['n_samples']}")


def _optical_tree(cfg: dict):
    from .optical import TreePoleFamily, optical_tree_check

    params = _params(cfg)
    report = optical_tree_check(TreePoleFamily(params), None, params,
                                eps_ladder=cfg["eps_ladder"])
    ok = abs(report.ratio_restored - 1.0) <= cfg["tolerance"]
    where = "within" if ok else "outside (tolerance unachievable at these settings?)"
    return (report._asdict(), {"ratio_restored_within_tolerance": ok},
            f"ratio_restored = {report.ratio_restored:.6f}, {where} "
            f"1 +/- {cfg['tolerance']}")


@_numpy_errors_raise
def _box_cut(cfg: dict):
    from .unitarity import unitarity_violation_scan

    rows = unitarity_violation_scan(_params(cfg), cfg["s_grid"], cfg["n_samples"],
                                    cfg["seed"], n_threads=cfg["threads"])
    gated = [r for r in rows if r.ratio_restored is not None]
    z = _sidak_z(max(len(gated), 1))
    ok = bool(gated) and all(abs(r.ratio_restored - 1.0)
                             <= max(z * (r.ratio_restored_err or 0.0), cfg["tolerance"])
                             for r in gated)
    table = [[r.s, r.lhs, r.lhs_err, r.rhs_restored, r.rhs_err, r.rhs_elastic,
              r.ratio_restored, r.ratio_elastic, r.flag] for r in rows]
    header = ["s", "im_box", "mc_err", "rhs_annih", "mc_err_annih",
              "rhs_elastic", "ratio_restored", "ratio_elastic", "flag"]
    below = sum(r.flag == "below-threshold" for r in rows)
    if gated:
        verdict = (f"restored ratios {'within' if ok else 'outside'} "
                   f"max({z:.2f} sigma, tolerance) of 1")
    else:
        verdict = "no point was gated (each is below threshold or has an undefined ratio)"
    return ((header, table), {"restored_ratios_within_sidak_z": ok},
            f"{len(rows)} grid points ({below} below threshold), {verdict}")


def _initial(cfg: dict):
    from .entanglement import product_state

    vx = cfg["var_x"]
    return product_state((vx, vx), (1.0 / (4.0 * vx), 1.0 / (4.0 * vx)))


@_numpy_errors_raise
def _entangle(cfg: dict):
    import numpy as np

    from .entanglement import (duan_variances, evolve_gaussian_grid,
                               log_negativity, quadratize_newton)

    initial = _initial(cfg)
    h = quadratize_newton(cfg["d"], _params(cfg), (cfg["m"], cfg["m"]),
                          axis=cfg["axis"])
    states = evolve_gaussian_grid(initial, h, cfg["delta_t"] / cfg["n_grid"],
                                  cfg["n_grid"])
    grid = np.linspace(0.0, cfg["delta_t"], cfg["n_grid"] + 1)
    var_xm, var_pp = duan_variances(states)  # duan_witness is their product
    duan = var_xm * var_pp
    rows = np.column_stack((grid, duan, log_negativity(states), var_xm, var_pp)).tolist()
    return ((["t", "duan", "E_N", "var_xminus", "var_pplus"], rows),
            {"final_state_valid": bool(states[-1].is_valid())},
            f"min duan = {duan.min():.6f} over [0, {cfg['delta_t']}]")


def _check_n_steps(cfg: dict) -> None:
    if cfg["n_steps"] % RECORD_EVERY:
        raise ConfigError(f"--n-steps must be a multiple of the snapshot stride "
                          f"{RECORD_EVERY}, got {cfg['n_steps']}")
    try:
        guard_steps(cfg["gamma"], cfg["horizon"] / cfg["n_steps"])
    except StepSizeError as exc:
        raise ConfigError(f"--horizon/--n-steps must lie in (0, 0.1/--gamma]: {exc}") from exc


def _feedback(cfg: dict, axis: str = "separation"):
    """Feedback model of both ensemble subcommands."""
    from .semiclassical import FeedbackConfig

    return FeedbackConfig(cfg["gamma"], cfg["d"], (cfg["m"], cfg["m"]),
                          _params(cfg), axis=axis,
                          meas_length=math.sqrt(cfg["var_x"]))


def _snapshot_times(cfg: dict):
    """The ensemble subcommands' time axis: every ``RECORD_EVERY`` steps from t = 0."""
    import numpy as np

    return np.arange(0, cfg["n_steps"] + 1, RECORD_EVERY) * (cfg["horizon"] / cfg["n_steps"])


def _separable(log_neg, duan) -> tuple[bool, bool]:
    """(every E_N < SEPARABLE_E_N, every Duan product >= SEPARABLE_DUAN)."""
    return bool((log_neg < SEPARABLE_E_N).all()), bool((duan >= SEPARABLE_DUAN).all())


@_numpy_errors_raise
def _semiclassical(cfg: dict):
    import numpy as np

    from .entanglement import duan_witness, log_negativity
    from .semiclassical import run_ensemble

    fb = _feedback(cfg, cfg["axis"])
    states = run_ensemble(fb, _initial(cfg), cfg["n_traj"], cfg["n_steps"],
                          cfg["horizon"] / cfg["n_steps"], cfg["seed"])
    log_neg, duan = log_negativity(states), duan_witness(states)
    var_p_mean = 0.5 * (states.cov[:, 1, 1] + states.cov[:, 3, 3])
    columns = (_snapshot_times(cfg), log_neg, duan, var_p_mean)
    rows = [[*row, cfg["n_traj"]] for row in np.column_stack(columns).tolist()]
    checks = dict(zip(("no_entanglement", "duan_never_below_1"),
                      _separable(log_neg, duan)))
    return ((["t", "E_N_unconditional", "duan", "var_p_mean", "n_traj"], rows),
            checks, f"max E_N = {float(np.max(log_neg)):.2e}, "
                    f"min duan = {float(np.min(duan)):.6f}")


@_numpy_errors_raise
def _compare(cfg: dict):
    import numpy as np

    from .entanglement import duan_witness, log_negativity
    from .semiclassical import compare_channels

    fb = _feedback(cfg)
    unitary, feedback, sep = compare_channels(
        fb, _initial(cfg), cfg["horizon"], cfg["n_steps"], cfg["n_traj"], cfg["seed"])
    duan_u, log_neg_u = duan_witness(unitary), log_negativity(unitary)
    duan_f, log_neg_f = duan_witness(feedback), log_negativity(feedback)
    mean_sep = sep[:, 0] - sep[:, 2]   # one series: both channels' mean
    columns = (_snapshot_times(cfg), duan_u, log_neg_u, duan_f, log_neg_f,
               mean_sep, mean_sep)
    rows = np.column_stack(columns).tolist()
    header = ["t", "duan_unitary", "E_N_unitary", "duan_semiclassical",
              "E_N_semiclassical", "mean_sep_unitary", "mean_sep_semiclassical"]
    checks = {
        "unitary_entangles": bool(np.max(log_neg_u) > 0.0 and np.min(duan_u) < 1.0),
        "semiclassical_does_not": all(_separable(log_neg_f, duan_f)),
    }
    return ((header, rows), checks,
            "unitary entangles={unitary_entangles}, "
            "semiclassical does not={semiclassical_does_not}".format(**checks))


# deflection's settings with the BendingConfig field and SI factor of each
SI_FIELDS = {"mass_g": ("mass_kg", 1e-3), "impact_um": ("impact_parameter_m", 1e-6),
             "separation_um": ("superposition_separation_m", 1e-6),
             "wavelength_nm": ("wavelength_m", 1e-9), "cavity_m": ("cavity_length_m", 1.0)}


def _bending(cfg: dict):
    """``deflection``'s BendingConfig, and its check: a setting must not underflow to 0."""
    from .estimators import BendingConfig

    try:
        return BendingConfig(t_integration_s=cfg["t_integration_s"],
                             **{fd: cfg[k] * f for k, (fd, f) in SI_FIELDS.items()})
    except ValueError as exc:
        key = next(k for k, (_, f) in SI_FIELDS.items() if not cfg[k] * f > 0)
        raise ConfigError(f"--{key.replace('_', '-')} underflows to 0 in SI units, "
                          f"got {cfg[key]}") from exc


def _deflection(cfg: dict):
    from .estimators import estimate_record, schwarzschild_radius

    bc = _bending(cfg)
    record = estimate_record(bc, target_time=cfg["target_time_s"])
    r_s_over_b = schwarzschild_radius(bc) / bc.impact_parameter_m
    return (record, {"weak_field": r_s_over_b < 1.0},
            f"dtheta = {record['deflection_diff_rad']:.3e} rad, "
            f"r_s/b = {r_s_over_b:.1e}")


@_numpy_errors_raise
def _phase_space_check(cfg: dict):
    from dataclasses import asdict

    import numpy as np

    from .kinematics import check_invariant_measure_identity, stream

    mu = cfg["mu"]

    def k2(k4: np.ndarray) -> np.ndarray:
        return np.sum(k4[:, 1:] ** 2, axis=1)

    test_fns = {
        "gaussian": lambda k4: np.exp(-k2(k4) / (2.0 * mu * mu)),
        "shell-indicator": lambda k4: (k2(k4) < (2.0 * mu) ** 2).astype(float),
        "rational": lambda k4: 1.0 / (1.0 + k2(k4) / mu**2) ** 3,
    }
    z = _sidak_z(len(test_fns))
    results = {}
    for idx, (name, fn) in enumerate(test_fns.items()):
        rep = check_invariant_measure_identity(
            fn, mu, stream(cfg["seed"], idx), cfg["n_samples"],
            kmax=cfg["kmax"] * mu)
        results[name] = dict(asdict(rep), discrepancy_sigmas=rep.discrepancy_sigmas)
    worst = max(r["discrepancy_sigmas"] for r in results.values())
    return ({"mu": mu, "results": results},
            {"discrepancies_within_sidak_z": worst <= z},
            f"worst discrepancy {worst:.2f} sigma against a bound of {z:.2f}")


ENSEMBLE = dict(FIG1_DEFAULTS, gamma=1.0, horizon=20.0, n_steps=2000, n_traj=500)

COMMANDS = (
    Command("optical-tree", "tree-level optical theorem at the mediator pole",
            dict(g_newton=1.0, m=1.0, mu=0.05, lambda_probe=1.0,
                 eps_ladder=[1e-2, 1e-3, 1e-4], tolerance=0.01,
                 out="optical_tree.json"), _optical_tree, _check_optical_tree),
    Command("box-cut", "Cutkosky cut of the crossed box vs annihilation sum",
            dict(m=1.0, mu=1e-3, alpha_tilde=1.0,
                 s_grid=[4.1, 5.575, 7.05, 8.525, 10.0], n_samples=10**6,
                 tolerance=0.0, threads=1, out="box_cut.csv", seed=None),
            _box_cut, _check_n_samples),
    Command("entangle", "unitary Fig.-1 circuit time series",
            dict(FIG1_DEFAULTS, delta_t=30.0, n_grid=300, axis="transverse",
                 out="entangle.csv"), _entangle),
    Command("semiclassical", "measurement-feedback ensemble time series",
            dict(ENSEMBLE, axis="separation", out="semiclassical.csv", seed=None),
            _semiclassical, _check_n_steps),
    Command("compare", "unitary vs semiclassical channel comparison",
            dict(ENSEMBLE, out="compare.csv", seed=None), _compare, _check_n_steps),
    Command("deflection", "SI light-bending design estimates",
            dict(mass_g=1.0, impact_um=100.0, separation_um=10.0,
                 wavelength_nm=1000.0, cavity_m=0.1, target_time_s=1.0,
                 t_integration_s=None, out="deflection.json"),
            _deflection, _bending),
    Command("phase-space-check", "Lorentz-invariant measure identity check",
            dict(mu=1.0, n_samples=200000, kmax=6.0, out="phase_space.json",
                 seed=None), _phase_space_check, _check_two_samples),
)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    import csv

    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)  # RFC-4180 quoting
        w.writerow(header)
        w.writerows(rows)


def _nonfinite(value, path: str = "") -> str | None:
    """``key/path = value`` of the first nan or +/-inf float in a run's
    data, or None: ``np.errstate`` does not reach worker threads, and a
    Python float overflows to inf without raising."""
    if isinstance(value, float):
        return None if math.isfinite(value) else f"{path[1:]} = {value}"
    if not isinstance(value, (dict, list, tuple)):
        return None
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        bad = _nonfinite(item, f"{path}/{key}")
        if bad is not None:
            return bad
    return None


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of subcommand ``name`` alone: the
    others appear only in top-level help and usage, which ``_Parser.error`` and
    the subparser's ``--help`` never print."""
    ap = _Parser(
        prog="gravitas",
        description="Numerical unitarity and entanglement checks for "
                    "Lorentz-invariant Newtonian scattering models")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        if name not in (None, cmd.name):
            continue
        p = sub.add_parser(cmd.name, help=cmd.help, description=cmd.help)
        p.set_defaults(cmd=cmd)
        p.add_argument("--config", help="JSON config file (values at top level, "
                       "overridden by those under the subcommand key)")
        for key in cmd.defaults:
            f = FLAGS[key]
            p.add_argument(f.flag or "--" + key.replace("_", "-"), dest=key,
                           type=f.type, nargs=f.nargs, choices=f.choices,
                           help=f.help)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    invoked = argv[0] if argv and argv[0] in {c.name for c in COMMANDS} else None
    args = build_parser(invoked).parse_args(argv)
    cmd = args.cmd
    try:
        cfg = _resolve(cmd, args)
    except FAILURES as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out, t0 = Path(cfg["out"]), time.perf_counter()
    try:
        data, checks, message = cmd.run(cfg)
        table = not isinstance(data, dict)
        # a table's floats in one flat pass; the walk runs only to name a bad value
        if not (table and all(math.isfinite(v) for row in data[1] for v in row
                              if isinstance(v, float))):
            bad = _nonfinite([dict(zip(data[0], r)) for r in data[1]] if table else data)
            if bad is not None:
                raise NumericalCheckError(f"non-finite output value {bad}; nothing written")
    except FAILURES as exc:
        print(f"{cmd.name}: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    written = False
    try:
        if table:
            _write_csv(out, *data)
        else:
            _write_json(out, {"schema_version": SCHEMA_VERSION, **data})
        written = True
        _write_json(out.with_suffix(out.suffix + ".manifest.json"), {
            "schema_version": SCHEMA_VERSION,
            "toolkit_version": __version__,
            "command": cmd.name,
            "resolved_config": cfg,
            "wall_time_s": time.perf_counter() - t0,
            "outputs": [out.name],
            "checks": checks,
            "provenance": {} if table else {k.removesuffix("_provenance"): v for k, v
                                            in data.items() if k.endswith("_provenance")},
        })
    except OSError as exc:  # no complete data file stays without its manifest
        if written:
            out.unlink()
        print(f"{cmd.name}: write failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    ok = all(checks.values())
    print(f"{cmd.name}: {message} -> {out}", file=sys.stdout if ok else sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
