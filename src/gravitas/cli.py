"""Command-line entry point: deterministic runs, CSV/JSON outputs, manifests.

Each subcommand is one ``Command`` row of the ``COMMANDS`` table: name,
help, default configuration and ``run(cfg) -> (data, checks, message)``,
which calls the library directly. A row's default keys are exactly the
settings it reads; each key has one ``FLAGS`` entry (flag, type, help with
units, lower bound), and one loop builds the parser from the table, so a
subcommand accepts only the flags it reads. One harness, ``_execute``,
resolves every setting as flag over config file over default, checks the
bounds, takes the seed of a stochastic subcommand (``--seed``, config file
or GRAVITAS_SEED), runs, and writes the data file (JSON for a dict, CSV
for a header and rows) and a manifest next to it with the resolved
configuration, the checks and the wall time.

Exit codes: 0 when every check passes; 1 when a check fails (data and
manifest are still written) or an ``ArithmeticError`` stops the computation
(a ``NumericalCheckError``, raised too for a nan or inf in the run's data,
or an overflow, division by zero or invalid operation, which numpy raises
under the command's ``np.errstate``; one line on stderr, nothing written);
2 on a configuration error (bad flag, value, config file or seed), before
any file is written.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

from . import __version__
from .entanglement import (FIG1_DEFAULTS, duan_variances, duan_witness,
                           evolve_gaussian_grid, log_negativity, product_state,
                           quadratize_newton)
from .errors import GravitasError, NumericalCheckError
from .estimators import BendingConfig, estimate_record
from .kinematics import check_invariant_measure_identity, stream
from .params import ModelParams
from .semiclassical import FeedbackConfig, compare_channels, run_ensemble
from .unitarity import (N_STRATA, TreePoleFamily, max_smallest_eps,
                        optical_tree_check, unitarity_violation_scan)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

# Family-wise false-failure rate of each statistical gate on a correct run.
GATE_ALPHA = 1e-3


class ConfigError(GravitasError):
    pass


@dataclass(frozen=True)
class Flag:
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
    "eps_ladder": Flag("relative epsilon ladder, units of max(m^2, mu^2)",
                       gt=0, nargs="+"),
    "tolerance": Flag("slack on |ratio - 1|: the pass/fail bound of optical-tree, "
                      "a floor under the z-sigma bound of box-cut (dimensionless)"),
    "s_grid": Flag("Mandelstam s values, absolute (mass^2 units, not scaled "
                   "by m^2); points below 4 m^2 are flagged below-threshold",
                   nargs="+"),
    "n_samples": Flag("Monte Carlo samples per estimator (per side in "
                      "phase-space-check)", type=int, gt=0),
    "threads": Flag("worker threads; results must not depend on them "
                    "(self-test compares this count with 1)", type=int, gt=0),
    "d": Flag("mean separation (length units)", gt=0),
    "var_x": Flag("initial per-mass position variance (length^2)", gt=0),
    "delta_t": Flag("interaction time horizon (time units)", ge=0),
    "n_grid": Flag("time grid intervals", type=int, gt=0),
    "axis": Flag("displacement axis of the quadratized coupling", type=str,
                 choices=("separation", "transverse")),
    "gamma": Flag("measurement rate (1/time)", gt=0),
    "horizon": Flag("total evolution time (time units)", gt=0),
    "n_steps": Flag("time steps", type=int, gt=0),
    "n_traj": Flag("trajectories, rounded up to an even count (pairs with "
                   "opposite-sign noise)", type=int, gt=0),
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
    "seed": Flag("64-bit master seed (fallback: GRAVITAS_SEED)", type=int),
}


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    defaults: dict
    run: Callable[[dict], tuple]
    # raises ConfigError for a combination of values no flag bound covers
    check: Callable[[dict], None] | None = None


def _load_config_file(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} not found")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and isinstance(doc.get(section), dict):
        return doc[section]
    return doc if isinstance(doc, dict) else {}


def _from_file(key: str, value):
    """A config-file value converted to the type its flag would give."""
    f = FLAGS[key]
    try:
        return [f.type(v) for v in value] if f.nargs else f.type(value)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ConfigError(f"config value {key}={value!r}: {exc}") from exc


def _resolve(cmd: Command, args: argparse.Namespace) -> dict:
    """flag > config file > default; a flag or file value is set when not None."""
    file_cfg = _load_config_file(args.config, cmd.name)
    cfg = dict(cmd.defaults)
    for key in cfg:
        if file_cfg.get(key) is not None:
            cfg[key] = _from_file(key, file_cfg[key])
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
        f, value = FLAGS[key], cfg[key]
        if value is None:
            continue
        values = value if isinstance(value, list) else [value]
        # nan and +/-inf pass every bound below: nan <= gt is False
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite, got {value}")
        if f.gt is not None and any(v <= f.gt for v in values):
            raise ConfigError(f"{key} must be > {f.gt}, got {value}")
        if f.ge is not None and any(v < f.ge for v in values):
            raise ConfigError(f"{key} must be >= {f.ge}, got {value}")
    if cmd.check is not None:
        cmd.check(cfg)
    return cfg


def _need_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("GRAVITAS_SEED")
    if env is None:
        raise ConfigError("a seed is required (flag --seed, config file, or GRAVITAS_SEED)")
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"GRAVITAS_SEED={env!r} is not an integer") from exc


def _params(cfg: dict) -> ModelParams:
    """The model couplings a subcommand reads; the rest keep their defaults."""
    keys = ("g_newton", "m", "mu", "lambda_probe", "alpha_tilde")
    return ModelParams(**{k: cfg[k] for k in keys if k in cfg})


def _sidak_z(n: int, alpha: float = GATE_ALPHA) -> float:
    """Two-sided z bound so that n independent gates fail together at rate alpha."""
    per_test = -math.expm1(math.log1p(-alpha) / n)
    return NormalDist().inv_cdf(1.0 - per_test / 2.0)


# ---------------------------------------------------------------------------
# subcommands: run(cfg) -> (data, checks, message)
# ---------------------------------------------------------------------------

def _check_eps_ladder(cfg: dict) -> None:
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
                          f"stratum of the annihilation sum, got {cfg['n_samples']}")


def _optical_tree(cfg: dict):
    params = _params(cfg)
    report = optical_tree_check(TreePoleFamily(params), None, params,
                                eps_ladder=cfg["eps_ladder"])
    ok = abs(report.ratio_restored - 1.0) <= cfg["tolerance"]
    where = "within" if ok else "outside (tolerance unachievable at these settings?)"
    return (asdict(report), {"ratio_restored_within_tolerance": ok},
            f"ratio_restored = {report.ratio_restored:.6f}, {where} "
            f"1 +/- {cfg['tolerance']}")


def _box_cut(cfg: dict):
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
    vx = cfg["var_x"]
    return product_state((vx, vx), (1.0 / (4.0 * vx), 1.0 / (4.0 * vx)))


def _entangle(cfg: dict):
    initial = _initial(cfg)
    h = quadratize_newton(cfg["d"], _params(cfg), (cfg["m"], cfg["m"]),
                          axis=cfg["axis"])
    states = evolve_gaussian_grid(initial, h, cfg["delta_t"] / cfg["n_grid"],
                                  cfg["n_grid"])
    rows = [[float(t), duan_witness(st), log_negativity(st), *duan_variances(st)]
            for t, st in zip(np.linspace(0.0, cfg["delta_t"], cfg["n_grid"] + 1),
                             states)]
    return ((["t", "duan", "E_N", "var_xminus", "var_pplus"], rows),
            {"final_state_valid": states[-1].is_valid()},
            f"min duan = {min(r[1] for r in rows):.6f} over [0, {cfg['delta_t']}]")


def _feedback(cfg: dict, axis: str = "separation") -> FeedbackConfig:
    """Feedback model of both ensemble subcommands; rounds n_traj up to even."""
    cfg["n_traj"] += cfg["n_traj"] % 2
    return FeedbackConfig(cfg["gamma"], cfg["d"], (cfg["m"], cfg["m"]),
                          _params(cfg), axis=axis,
                          meas_length=math.sqrt(cfg["var_x"]))


def _semiclassical(cfg: dict):
    fb = _feedback(cfg, cfg["axis"])
    res = run_ensemble(fb, _initial(cfg), cfg["n_traj"], cfg["n_steps"],
                       cfg["horizon"] / cfg["n_steps"], cfg["seed"])
    rows = [[float(t), float(en), float(dv), float(vp), cfg["n_traj"]]
            for t, en, dv, vp in zip(res.times, res.log_neg, res.duan,
                                     res.var_p_mean)]
    checks = {
        "no_entanglement": bool(np.all(res.log_neg < 1e-10)),
        "duan_never_below_1": bool(np.all(res.duan >= 1.0 - 1e-9)),
    }
    return ((["t", "E_N_unconditional", "duan", "var_p_mean", "n_traj"], rows),
            checks, f"max E_N = {float(np.max(res.log_neg)):.2e}, "
                    f"min duan = {float(np.min(res.duan)):.6f}")


def _compare(cfg: dict):
    fb = _feedback(cfg)
    comp = compare_channels(fb, _initial(cfg), cfg["horizon"], cfg["n_steps"],
                            cfg["n_traj"], cfg["seed"])
    columns = (comp.times, comp.duan_unitary, comp.log_neg_unitary,
               comp.duan_semiclassical, comp.log_neg_semiclassical,
               comp.mean_sep_unitary, comp.mean_sep_semiclassical)
    rows = [[float(v) for v in row] for row in zip(*columns)]
    header = ["t", "duan_unitary", "E_N_unitary", "duan_semiclassical",
              "E_N_semiclassical", "mean_sep_unitary", "mean_sep_semiclassical"]
    checks = {
        "unitary_entangles": bool(np.max(comp.log_neg_unitary) > 0.0
                                  and np.min(comp.duan_unitary) < 1.0),
        "semiclassical_does_not": bool(np.all(comp.log_neg_semiclassical < 1e-10)
                                       and np.all(comp.duan_semiclassical >= 1.0 - 1e-9)),
    }
    return ((header, rows), checks,
            "unitary entangles={unitary_entangles}, "
            "semiclassical does not={semiclassical_does_not}".format(**checks))


def _deflection(cfg: dict):
    bc = BendingConfig(
        mass_kg=cfg["mass_g"] * 1e-3,
        impact_parameter_m=cfg["impact_um"] * 1e-6,
        superposition_separation_m=cfg["separation_um"] * 1e-6,
        wavelength_m=cfg["wavelength_nm"] * 1e-9,
        cavity_length_m=cfg["cavity_m"],
        t_integration_s=cfg["t_integration_s"],
    )
    record = estimate_record(bc, target_time=cfg["target_time_s"])
    return (record, {"computed": True},
            f"dtheta = {record['deflection_diff_rad']:.3e} rad")


def _phase_space_check(cfg: dict):
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


def _self_test(cfg: dict):
    """Determinism check: identical seeds must give bit-identical outputs."""
    params = ModelParams(mu=1e-3)
    fb, initial = _feedback(dict(ENSEMBLE)), _initial(ENSEMBLE)

    def digest(threads: int) -> str:
        rows = unitarity_violation_scan(params, [4.1, 6.0], cfg["n_samples"],
                                        cfg["seed"], n_threads=threads)
        ens = run_ensemble(fb, initial, 16, 50, 0.01, cfg["seed"])
        blob = json.dumps([[r.s, r.lhs, r.rhs_restored] for r in rows]).encode()
        blob += ens.mean_means.tobytes() + ens.cov_unconditional.tobytes()
        return hashlib.sha256(blob).hexdigest()

    base = digest(1)
    rerun = base == digest(1)
    threaded = base == digest(cfg["threads"])
    return ({"digest": base, "rerun_identical": rerun,
             "thread_count_invariant": threaded},
            {"deterministic": rerun and threaded},
            f"deterministic={rerun and threaded}")


ENSEMBLE = dict(FIG1_DEFAULTS, gamma=1.0, horizon=20.0, n_steps=2000, n_traj=500)

COMMANDS = (
    Command("optical-tree", "tree-level optical theorem at the mediator pole",
            dict(g_newton=1.0, m=1.0, mu=0.05, lambda_probe=1.0,
                 eps_ladder=[1e-2, 1e-3, 1e-4], tolerance=0.01,
                 out="optical_tree.json"), _optical_tree, _check_eps_ladder),
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
            _semiclassical),
    Command("compare", "unitary vs semiclassical channel comparison",
            dict(ENSEMBLE, out="compare.csv", seed=None), _compare),
    Command("deflection", "SI light-bending design estimates",
            dict(mass_g=1.0, impact_um=100.0, separation_um=10.0,
                 wavelength_nm=1000.0, cavity_m=0.1, target_time_s=1.0,
                 t_integration_s=None, out="deflection.json"), _deflection),
    Command("phase-space-check", "Lorentz-invariant measure identity check",
            dict(mu=1.0, n_samples=200000, kmax=6.0, out="phase_space.json",
                 seed=None), _phase_space_check),
    Command("self-test", "bit-identical rerun and thread-invariance check",
            dict(n_samples=20000, threads=2, out="self_test.json", seed=None),
            _self_test, _check_n_samples),
)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()  # numpy scalars become the matching Python scalar
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True,
                               default=_json_default) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)  # RFC-4180 quoting
        w.writerow(header)
        w.writerows(rows)


def _nonfinite(value) -> tuple[tuple, object] | None:
    """(key path, value) of the first nan or +/-inf float in a run's data, or
    None. Python float arithmetic overflows to inf without raising, and
    ``np.errstate`` does not reach worker threads, so the data is checked."""
    if isinstance(value, (float, np.floating)):
        return None if math.isfinite(value) else ((), value)
    if isinstance(value, np.ndarray):
        return None if np.all(np.isfinite(value)) else ((), value)
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        bad = _nonfinite(item)
        if bad is not None:
            return (key, *bad[0]), bad[1]
    return None


def _execute(cmd: Command, args: argparse.Namespace) -> int:
    cfg = _resolve(cmd, args)
    if "seed" in cfg:
        cfg["seed"] = _need_seed(cfg["seed"])
    out = Path(cfg["out"])
    if not out.parent.is_dir():
        raise ConfigError(f"output directory {out.parent} does not exist")
    t0 = time.perf_counter()
    data, checks, message = cmd.run(cfg)
    bad = _nonfinite(data if isinstance(data, dict) else data[1])
    if bad is not None:
        path, value = bad
        if not isinstance(data, dict):
            path = (f"row {path[0]}", data[0][path[1]])
        raise NumericalCheckError(f"non-finite output value {'/'.join(map(str, path))}"
                                  f" = {value}; nothing written")
    provenance = {}
    if isinstance(data, dict):
        _write_json(out, {"schema_version": SCHEMA_VERSION, **data})
        provenance = {k.removesuffix("_provenance"): v for k, v in data.items()
                      if k.endswith("_provenance")}
    else:
        _write_csv(out, *data)
    _write_json(out.with_suffix(out.suffix + ".manifest.json"), {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": cmd.name,
        "resolved_config": cfg,
        "wall_time_s": time.perf_counter() - t0,
        "outputs": [out.name],
        "checks": checks,
        "provenance": provenance,
    })
    ok = all(checks.values())
    print(f"{cmd.name}: {message} -> {out}", file=sys.stdout if ok else sys.stderr)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gravitas",
        description="Numerical unitarity and entanglement checks for "
                    "Lorentz-invariant Newtonian scattering models")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd.name, help=cmd.help, description=cmd.help)
        p.add_argument("--config", help="JSON config file (values under the "
                       "subcommand key or at top level)")
        for key in cmd.defaults:
            f = FLAGS[key]
            p.add_argument(f.flag or "--" + key.replace("_", "-"), dest=key,
                           type=f.type, nargs=f.nargs, choices=f.choices,
                           help=f.help)
        p.set_defaults(cmd=cmd)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _execute(args.cmd, args)
    except ArithmeticError as exc:
        print(f"{args.cmd.name}: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (GravitasError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
