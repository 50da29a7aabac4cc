"""Independent reference computations for the benchmark's output checks.

Nothing here calls into ``gravitas``: every reference value is derived
from a closed form or a quadrature written out below, so a fault in the
program cannot also hide in its own reference. Each ``check_*`` function
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Family-wise false-failure rate of each statistical check (one check per
# program output). The per-comparison level is Sidak-corrected from it.
FAMILY_ALPHA = 1e-6

# Target relative standard error of the restored box-cut ratio, for the
# time-to-sigma metric.
SIGMA_TARGET = 1e-3

# Deterministic (non-statistical) tolerances.
REL_TOL_GAUSSIAN = 1e-12     # closed-form Gaussian moments vs the CSV
REL_TOL_OPTICAL_RHS = 1e-8   # emission-side RHS vs its closed form at the pole
REL_TOL_OPTICAL_LHS = 0.01   # extrapolated LHS vs the same closed form
REL_TOL_DEFLECTION = 1e-12
EN_ZERO = 1e-10              # largest E_N still read as "no entanglement"
DUAN_FLOOR = 1.0 - 1e-9      # smallest Duan product still read as separable

# CODATA 2018
G_SI = 6.67430e-11
C_SI = 299792458.0

# Inputs of the workloads, as the benchmark defines them, under the names
# of the CLI's resolved config. The CLI runs use the subcommand defaults;
# check_config compares each run's manifest against these.
BOX = dict(g_newton=1.0, m=1.0, mu=1e-3, alpha_tilde=1.0,
           s_grid=(4.1, 5.575, 7.05, 8.525, 10.0), n_samples=10**6)
FIG1 = dict(g_newton=10.0, m=1.0, mu=1e-6, d=10.0, var_x=9.0)
ENTANGLE = dict(FIG1, delta_t=30.0, n_grid=300)
COMPARE = dict(FIG1, horizon=20.0, n_steps=2000, n_traj=500)
RECORD_EVERY = 10            # ensemble snapshot stride of compare/semiclassical
OPTICAL = dict(g_newton=1.0, m=1.0, mu=0.05, lambda_probe=1.0)
TREE_FAMILY = dict(q_out=0.4, spectator_pz=0.6)  # TreePoleFamily geometry
DEFLECTION = dict(mass_g=1.0, impact_um=100.0, separation_um=10.0)
PHASE_SPACE = dict(mu=1.0, kmax=6.0)


def sidak_z(n_tests: int, family_alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided z bound so that n independent tests fail together at rate alpha."""
    per_test = -math.expm1(math.log1p(-family_alpha) / n_tests)
    return NormalDist().inv_cdf(1.0 - per_test / 2.0)


def check_config(name: str, resolved: dict, expected: dict) -> list[str]:
    """The run used the workload's inputs (guards the checks' assumptions)."""
    diff = {k: (resolved.get(k), v) for k, v in expected.items()
            if resolved.get(k) != v}
    return [f"{name}: config (used, expected) differs: {diff}"] if diff else []


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# box cut at forward kinematics
# ---------------------------------------------------------------------------

def _cm_momentum(s: float, m1: float, m2: float) -> float:
    lam = (s - (m1 + m2) ** 2) * (s - (m1 - m2) ** 2)
    return math.sqrt(max(lam, 0.0)) / (2.0 * math.sqrt(s))


def box_forward_closed_form(s: float, m: float, mu: float,
                            alpha_tilde: float) -> float:
    """Exact forward Cutkosky cut: the angular integral of (A - B c)^-2 is
    2/(A^2 - B^2), with A = 2 E E_k - mu^2 and B = 2 p k in the CM frame."""
    roots = math.sqrt(s)
    p = _cm_momentum(s, m, m)
    k = _cm_momentum(s, mu, mu)
    a = 2.0 * (roots / 2.0) * (roots / 2.0) - mu * mu
    b = 2.0 * p * k
    angular = 2.0 / ((a - b) * (a + b))
    return -math.pi**2 * alpha_tilde**4 * 2.0 * math.pi * k / (4.0 * roots) * angular


def check_box_scan(rows, cfg: dict = BOX) -> list[str]:
    """Both estimators agree with the closed form at every grid point
    (Sidak-corrected), and the elastic-only RHS is rejected by a wide margin."""
    fails = []
    if [r.s for r in rows] != sorted(cfg["s_grid"]):
        return [f"box: grid {[r.s for r in rows]} != {sorted(cfg['s_grid'])}"]
    z = sidak_z(2 * len(rows))
    for r in rows:
        if r.flag:
            fails.append(f"box s={r.s}: unexpected flag {r.flag!r}")
            continue
        ref = box_forward_closed_form(r.s, cfg["m"], cfg["mu"], cfg["alpha_tilde"])
        for name, val, err in (("lhs", r.lhs, r.lhs_err),
                               ("rhs", r.rhs_restored, r.rhs_err)):
            if not err > 0 or abs(val - ref) > z * err:
                fails.append(f"box s={r.s}: {name}={val!r} +/- {err!r} vs closed "
                             f"form {ref!r} (bound {z:.2f} sigma)")
        z_ela = abs(r.lhs - r.rhs_elastic) / r.lhs_err if r.lhs_err > 0 else 0.0
        if not z_ela > 10.0 * z:
            fails.append(f"box s={r.s}: elastic-only RHS not rejected "
                         f"({z_ela:.1f} sigma)")
    return fails


def ratio_sigma_rel(rows) -> float:
    """Largest relative standard error of the restored ratio over the grid."""
    return max(r.ratio_restored_err / abs(r.ratio_restored) for r in rows)


# ---------------------------------------------------------------------------
# Gaussian channels
# ---------------------------------------------------------------------------

def _yukawa(d: float, g: float, mu: float, m1: float, m2: float):
    """(V', V'') of V(r) = -G m1 m2 exp(-mu r)/r at r = d."""
    a = g * m1 * m2 * math.exp(-mu * d)
    return a * (1.0 / d**2 + mu / d), -a * (2.0 / d**3 + 2.0 * mu / d**2 + mu**2 / d)


def transverse_moments(t: np.ndarray, cfg: dict = FIG1):
    """Var(x1 - x2) and Var(p1 + p2) of the transverse relative-mode oscillator."""
    vp, _ = _yukawa(cfg["d"], cfg["g_newton"], cfg["mu"], cfg["m"], cfg["m"])
    m_r = cfg["m"] / 2.0
    omega = math.sqrt(vp / (cfg["d"] * m_r))
    v = cfg["var_x"]
    c, s = np.cos(omega * t), np.sin(omega * t)
    var_xm = 2.0 * v * c * c + s * s / (8.0 * v * m_r**2 * omega**2)
    var_pp = np.full_like(t, 1.0 / (2.0 * v))
    return var_xm, var_pp


def separation_mean(t: np.ndarray, cfg: dict = FIG1):
    """Mean relative displacement r(t) = (V'/V'')(cosh Omega t - 1), Omega^2 = -V''/m_r,
    and its first-order Euler error bound |V'/V''| cosh(Omega t) Omega^2 dt t."""
    vp, vpp = _yukawa(cfg["d"], cfg["g_newton"], cfg["mu"], cfg["m"], cfg["m"])
    m_r = cfg["m"] / 2.0
    big = math.sqrt(-vpp / m_r)
    r = (vp / vpp) * (np.cosh(big * t) - 1.0)
    dt = cfg["horizon"] / cfg["n_steps"]
    euler = abs(vp / vpp) * np.cosh(big * t) * big**2 * dt * t
    return r, euler


def _close(name: str, got: np.ndarray, want: np.ndarray, rel: float) -> list[str]:
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    worst = int(np.argmax(err))
    if not err[worst] <= rel:
        return [f"{name}: relative error {err[worst]:.3e} at row {worst} "
                f"({got[worst]!r} vs {want[worst]!r})"]
    return []


def check_entangle(cols: dict, cfg: dict = ENTANGLE) -> list[str]:
    t = cols["t"]
    want_t = np.linspace(0.0, cfg["delta_t"], cfg["n_grid"] + 1)
    if t.shape != want_t.shape or not np.allclose(t, want_t, rtol=0, atol=1e-12):
        return [f"entangle: time grid has {t.size} points, expected {want_t.size}"]
    var_xm, var_pp = transverse_moments(t, cfg)
    fails = (_close("entangle var_xminus", cols["var_xminus"], var_xm, REL_TOL_GAUSSIAN)
             + _close("entangle var_pplus", cols["var_pplus"], var_pp, REL_TOL_GAUSSIAN)
             + _close("entangle duan", cols["duan"], var_xm * var_pp, REL_TOL_GAUSSIAN))
    witnessed = cols["duan"] < 1.0
    if not np.all(cols["E_N"][witnessed] > 0.0):
        fails.append("entangle: E_N = 0 where duan < 1")
    if not np.any(witnessed):
        fails.append("entangle: duan never drops below 1")
    return fails


def check_compare(cols: dict, cfg: dict = COMPARE) -> list[str]:
    t = cols["t"]
    n_rows = cfg["n_steps"] // RECORD_EVERY + 1
    if t.size != n_rows:
        return [f"compare: {t.size} rows, expected {n_rows}"]
    r, euler = separation_mean(t, cfg)
    scale = float(np.max(np.abs(r)))
    fails = []
    dev_u = np.abs(cols["mean_sep_unitary"] - r)
    if not np.all(dev_u <= 1e-9 * scale):
        fails.append(f"compare: mean_sep_unitary off r(t) by {np.max(dev_u):.3e} "
                     f"(scale {scale:.3e})")
    dev_s = np.abs(cols["mean_sep_semiclassical"] - r)
    if not np.all(dev_s <= euler + 1e-9 * scale):
        i = int(np.argmax(dev_s - euler))
        fails.append(f"compare: mean_sep_semiclassical off r(t) by {dev_s[i]:.3e} "
                     f"at t={t[i]}, Euler bound {euler[i]:.3e}")
    var_xm, var_pp = transverse_moments(t, cfg)
    fails += _close("compare duan_unitary", cols["duan_unitary"], var_xm * var_pp,
                    REL_TOL_GAUSSIAN)
    fails += _separable("compare semiclassical", cols["E_N_semiclassical"],
                        cols["duan_semiclassical"])
    return fails


def _separable(name: str, e_n: np.ndarray, duan: np.ndarray) -> list[str]:
    fails = []
    if not np.all(e_n <= EN_ZERO):
        fails.append(f"{name}: E_N reaches {np.max(e_n):.3e} > {EN_ZERO}")
    if not np.all(duan >= DUAN_FLOOR):
        fails.append(f"{name}: duan falls to {np.min(duan)!r} < {DUAN_FLOOR}")
    return fails


def check_semiclassical(cols: dict, n_steps: int, n_traj: int) -> list[str]:
    n_rows = n_steps // RECORD_EVERY + 1
    if cols["t"].size != n_rows:
        return [f"semiclassical: {cols['t'].size} rows, expected {n_rows}"]
    fails = _separable("semiclassical", cols["E_N_unconditional"], cols["duan"])
    if not np.all(cols["n_traj"] == n_traj):
        fails.append(f"semiclassical: n_traj column != {n_traj}")
    return fails


# ---------------------------------------------------------------------------
# cold-CLI outputs
# ---------------------------------------------------------------------------

def deflection_reference(cfg: dict = DEFLECTION) -> float:
    """G M Db / (c^2 b^2) with CODATA 2018 constants."""
    return (G_SI * cfg["mass_g"] * 1e-3 * cfg["separation_um"] * 1e-6
            / (C_SI**2 * (cfg["impact_um"] * 1e-6) ** 2))


def check_deflection(doc: dict) -> list[str]:
    got, want = doc["deflection_diff_rad"], deflection_reference()
    if not _rel(got, want) <= REL_TOL_DEFLECTION:
        return [f"deflection: {got!r} rad vs G M Db/(c^2 b^2) = {want!r}"]
    return []


def optical_rhs_closed_form(cfg: dict = OPTICAL, geo: dict = TREE_FAMILY) -> float:
    """Emission-side RHS at the pole: pi G m^4 lam^2 e^-1 / (d1 d1' |dktil^2/domega|),
    d1 = -2 m omega*, d1' = m^2 - s2, with the bump weight e^-1 at its centre."""
    m, mu, q = cfg["m"], cfg["mu"], geo["q_out"]
    ep = math.hypot(m, q)
    jac = 2.0 * (q + m - ep)
    omega = (2.0 * m * (ep - m) + mu * mu) / jac
    e2 = math.hypot(m, geo["spectator_pz"])
    t2_e = omega + m + e2 - ep
    t2_z = omega + geo["spectator_pz"] - q
    s2 = t2_e * t2_e - t2_z * t2_z
    d1 = -2.0 * m * omega
    d1p = m * m - s2
    return (math.pi * cfg["g_newton"] * m**4 * cfg["lambda_probe"] ** 2
            * math.exp(-1.0) / (d1 * d1p * jac))


def check_optical_tree(doc: dict) -> list[str]:
    ref = optical_rhs_closed_form()
    fails = []
    if not _rel(doc["rhs_with_gravitons"], ref) <= REL_TOL_OPTICAL_RHS:
        fails.append(f"optical-tree: rhs {doc['rhs_with_gravitons']!r} vs closed "
                     f"form {ref!r}")
    if not _rel(doc["extrapolated_lhs"], ref) <= REL_TOL_OPTICAL_LHS:
        fails.append(f"optical-tree: extrapolated lhs {doc['extrapolated_lhs']!r} "
                     f"vs closed form {ref!r}")
    return fails


def _radial(k: np.ndarray, mu: float) -> dict:
    k2 = k * k
    return {"gaussian": np.exp(-k2 / (2.0 * mu * mu)),
            "shell-indicator": (k2 < (2.0 * mu) ** 2).astype(float),
            "rational": 1.0 / (1.0 + k2 / mu**2) ** 3}


def measure_quadrature(mu: float, kmax: float, nodes: int = 200) -> dict:
    """int_{|k|<kmax} d^3k / ((2 pi)^3 2 E_k) f for each test function, by
    Gauss-Legendre in |k| on [0, 2 mu] and [2 mu, kmax] (the shell edge)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    out = {}
    for lo, hi in ((0.0, 2.0 * mu), (2.0 * mu, kmax)):
        k = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        jac = 0.5 * (hi - lo) * w * 4.0 * math.pi * k * k \
            / ((2.0 * math.pi) ** 3 * 2.0 * np.sqrt(mu * mu + k * k))
        for name, f in _radial(k, mu).items():
            out[name] = out.get(name, 0.0) + float(np.sum(jac * f))
    return out


def check_phase_space(doc: dict, cfg: dict = PHASE_SPACE) -> list[str]:
    ref = measure_quadrature(cfg["mu"], cfg["kmax"] * cfg["mu"])
    results = doc["results"]
    if set(results) != set(ref):
        return [f"phase-space: test functions {sorted(results)} != {sorted(ref)}"]
    z = sidak_z(2 * len(ref))
    fails = []
    for name, q in ref.items():
        res = results[name]
        for side in ("lhs", "rhs"):
            val, err = res[side], res[side + "_error"]
            if not err > 0 or abs(val - q) > z * err:
                fails.append(f"phase-space {name}: {side}={val!r} +/- {err!r} vs "
                             f"quadrature {q!r} (bound {z:.2f} sigma)")
    return fails
