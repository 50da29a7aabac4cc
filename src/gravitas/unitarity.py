"""The particle-antiparticle box cut at forward kinematics.

The Cutkosky imaginary part of the crossed box, stratified in its
importance variable, against the two-mediator annihilation sum, stratified
in cos(theta), with the elastic-only cross-section as the mismatched
alternative. Neither forward integrand depends on the azimuth: each side
draws one variable. The two sides are computed by code paths that share
no integrand evaluation. The tree-level check at the mediator pole is in
``gravitas.optical``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BelowThresholdError
from .kinematics import cm_momentum
# the benchmark's layer probes import these two names from here; the
# re-export goes when ROADMAP item 1a drops the probe's CountingFamily
from .optical import TreePoleFamily, optical_tree_check  # noqa: F401
from .params import N_STRATA, ModelParams


# ---------------------------------------------------------------------------
# box cut at forward kinematics
# ---------------------------------------------------------------------------

def _forward_p1(s: float, params: ModelParams) -> tuple[float, float]:
    """(E, p) of the incoming p1 of the forward pair, in the CM frame along +z."""
    m = params.m
    if s < 4.0 * m * m * (1.0 - 1e-12):
        raise BelowThresholdError(f"s={s} below the incoming-pair threshold 4m^2")
    if s <= 4.0 * params.mu**2:
        raise BelowThresholdError(f"s={s} below the two-mediator cut 4mu^2")
    return math.sqrt(s) / 2.0, cm_momentum(s, m, m)


def _stratified(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                n_samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """(sum of the cell means, sqrt of the sum of the cell-mean variances) of
    f over [lo, hi] cut into N_STRATA equal cells of width w, drawing ``per``
    = floor(n_samples / N_STRATA) points lo + i w + w r in cell i, cell by
    cell, r uniform on [0, 1). A cell mean's variance is its sample variance over ``per``,
    so ``n_samples`` must be at least 2 * N_STRATA, two per cell; nothing
    here checks it. Memory scales with ``per`` rows. The caller scales both
    sums to its estimate and standard error: by 1/N_STRATA for a mean over
    [lo, hi], by the cell's measure for an integral."""
    per = n_samples // N_STRATA
    w = (hi - lo) / N_STRATA
    means, variances = [], []
    for i in range(N_STRATA):
        v = f(lo + i * w + w * rng.random(per))
        means.append(float(np.mean(v)))
        variances.append(float(np.var(v) / per))
    return math.fsum(means), math.sqrt(math.fsum(variances))


def box_cut_im_forward(s: float, params: ModelParams, n_samples: int,
                       rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate of the Cutkosky imaginary part of the crossed box.

    Im M = -pi^2 alpha~^4 int d^3k1/(2E1) d^3k2/(2E2)
           |1/((p1-k1)^2 + m^2 - i eps)|^2 delta^4(k1+k2-p1-p2)

    with the cut legs on shell at the mediator mass mu and forward
    kinematics p1' = p1, p2' = p2, built in the CM frame where the sample
    is drawn (Im M is Lorentz invariant). Returns (value, standard error).

    In the CM frame the squared denominator is (A - B c)^2, with c the
    cosine of the angle between k1 and p1, A = sqrt(s) E_k - mu^2 and
    B = 2 p k. The polar angle is importance-sampled from

        pdf(c) = B / (L (A - B c)),   L = ln((A + B)/(A - B)),

    by its closed-form inverse CDF of a uniform u (uniform c at B = 0), one
    draw per sample. Each sample carries the weight

        w = 2 pi k/(4 sqrt(s)) * L (A - B c)/B

    (the measure density over the sampling density; its 2 pi is the azimuth
    integral done in closed form) and is evaluated on the full quadratic form
    (p1 - k1)^2 + m^2 = k^2 (1 - c^2) + (p - k c)^2 - (E - E_k)^2 + m^2,
    transverse, longitudinal and time parts. The density is deliberately not
    the integrand's own (A - B c)^-2, so w times the integrand varies and a
    wrong density shows as a bias against the closed form 2/(A^2 - B^2).

    u is stratified by :func:`_stratified`. In u, w times the integrand is
    smooth and monotone, so this removes nearly all of its variance.

    The matter propagator has no pole on the cut: A - B c >= A - B >= m^2,
    as A = s/2 - mu^2 and B = 2 p k <= p^2 + k^2 = s/2 - m^2 - mu^2.
    """
    e, p = _forward_p1(s, params)
    m, mu = params.m, params.mu
    kmag = cm_momentum(s, mu, mu)
    roots = math.sqrt(s)
    ek = math.hypot(mu, kmag)
    a = roots * ek - mu * mu
    b = 2.0 * p * kmag
    # inverse CDF c = -1 + ((A+B)/B) (1 - ((A-B)/(A+B))^u), with log1p/expm1
    # so that B -> 0 degrades to uniform c without cancellation; at B = 0
    # (s = 4m^2) the density is uniform and L/B = 2/A
    log_ratio = math.log1p(-2.0 * b / (a + b)) if b > 0.0 else 0.0   # -L
    l_over_b = -log_ratio / b if b > 0.0 else 2.0 / a
    measure = 2.0 * math.pi * kmag / (4.0 * roots)
    pref = math.pi**2 * params.alpha_tilde**4

    def integrand(u: np.ndarray) -> np.ndarray:
        c = -1.0 - ((a + b) / b) * np.expm1(u * log_ratio) if b > 0.0 else 2.0 * u - 1.0
        den = kmag * kmag * (1.0 - c * c) + (p - kmag * c) ** 2 - (e - ek) ** 2 + m * m
        return (measure * l_over_b) * (a - b * c) / den**2

    total, err = _stratified(integrand, 0.0, 1.0, n_samples, rng)
    return -pref * total / N_STRATA, pref * err / N_STRATA


def annihilation_rhs(s: float, params: ModelParams, n_samples: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Two-mediator annihilation sum on the optical-theorem right-hand side.

    Same phase-space measure as :func:`box_cut_im_forward` but estimated by a
    route independent by its variable and by its denominator: one draw per
    sample, stratified uniform in cos(theta) rather than in u, and the squared
    t-channel matter denominator -2 p1.k1 - mu^2 = 2 (E E_k - p k c) - mu^2
    instead of the full quadratic form. The azimuth is the measure's 2 pi.
    cos(theta) is stratified by :func:`_stratified`.
    """
    e, p = _forward_p1(s, params)
    mu = params.mu
    kmag = cm_momentum(s, mu, mu)
    roots = math.sqrt(s)
    ek = math.hypot(mu, kmag)
    pref = math.pi**2 * params.alpha_tilde**4

    total, err = _stratified(lambda c: 1.0 / (2.0 * (e * ek - p * kmag * c) - mu * mu) ** 2,
                             -1.0, 1.0, n_samples, rng)
    # measure: int dOmega k/(4 sqrt s); each stratum covers dc = 2/N_STRATA
    cell = 2.0 * math.pi * (kmag / (4.0 * roots)) * (2.0 / N_STRATA)
    return -pref * (cell * total), pref * (cell * err)


def elastic_only_rhs(s: float, params: ModelParams) -> float:
    """Total elastic cross-section integral: mediator pole, matter-mass phase space.

    Closed form of the angular integral: the final-state legs carry mass m
    and the squared denominator is (p1-k1)^2 + mu^2 = 2 p^2 (1 - cos th) + mu^2,
    so int dc (...)^-2 = 2 / (mu^2 (mu^2 + 4 p^2)).
    """
    m, mu = params.m, params.mu
    if s < 4.0 * m * m * (1.0 - 1e-12):
        raise BelowThresholdError(f"s={s} below the elastic threshold 4m^2")
    p = cm_momentum(s, m, m)
    angular = 2.0 / (mu**2 * (mu**2 + 4.0 * p * p))
    value = 2.0 * math.pi * (p / (4.0 * math.sqrt(s))) * angular
    return -math.pi**2 * params.alpha_tilde**4 * value


# ---------------------------------------------------------------------------
# headline scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    s: float
    lhs: float
    lhs_err: float
    rhs_restored: float
    rhs_err: float
    rhs_elastic: float
    ratio_restored: float | None
    ratio_restored_err: float | None
    ratio_elastic: float | None
    flag: str = ""


def _scan_point(args) -> ScanRow:
    i, s, params, n_samples, master_seed = args
    from .kinematics import stream

    try:
        lhs, lerr = box_cut_im_forward(s, params, n_samples,
                                       stream(master_seed, 2 * i))
        rhs, rerr = annihilation_rhs(s, params, n_samples,
                                     stream(master_seed, 2 * i + 1))
        ela = elastic_only_rhs(s, params)
    except BelowThresholdError:
        return ScanRow(s, 0.0, 0.0, 0.0, 0.0, 0.0,
                       None, None, None, flag="below-threshold")
    if rhs == 0.0:
        return ScanRow(s, lhs, lerr, rhs, rerr, ela,
                       None, None, None, flag="undefined-ratio")
    ratio = lhs / rhs
    ratio_err = abs(ratio) * math.hypot(lerr / abs(lhs) if lhs else 0.0,
                                        rerr / abs(rhs))
    ratio_ela = lhs / ela if ela != 0.0 else None
    return ScanRow(s, lhs, lerr, rhs, rerr, ela, ratio, ratio_err, ratio_ela)


def unitarity_violation_scan(params: ModelParams, s_grid: Sequence[float],
                             n_samples: int, master_seed: int,
                             n_threads: int = 1) -> list[ScanRow]:
    """Per-grid-point LHS, elastic-only RHS, restored RHS, and both ratios.

    Free theory (alpha_tilde = 0) rows carry zero entries and ratios flagged
    as undefined rather than NaN. Grid points own disjoint RNG streams, so
    the output is independent of ``n_threads``.
    """
    jobs = [(i, s, params, n_samples, master_seed)
            for i, s in enumerate(sorted(s_grid))]
    if n_threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(_scan_point, jobs))
    return [_scan_point(j) for j in jobs]
