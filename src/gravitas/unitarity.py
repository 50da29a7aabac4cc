"""Numerical optical-theorem checks.

Two regimes:

* the 6-point tree pole: Im M of the probe-Newton-probe amplitude,
  integrated against a smooth weight over a kinematic path crossing
  ktil^2 = -mu^2, against the collapsed graviton-emission final state;

* the particle-antiparticle box cut: the Cutkosky imaginary part of the
  crossed box at forward kinematics against the two-mediator annihilation
  sum, with the elastic-only cross-section as the mismatched alternative.

LHS and RHS of every check are computed by code paths that share no
integrand evaluation and carry provenance tags saying so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .amplitudes import m_3to3_tree, m_graviton_emission, tree_denominators
from .errors import BelowThresholdError, NoPoleCrossingError
from .kinematics import (FourVector, KinematicConfig, boost, cm_momentum,
                         minkowski_dot, on_shell, two_body_batch)
from .params import ModelParams

LHS_TAG = "lhs:im-m3to3-tree/quadrature"
RHS_TAG = "rhs:graviton-emission-product/root-finding"


# ---------------------------------------------------------------------------
# canonical kinematic path for the tree-level check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreePoleFamily:
    """One-parameter family of 3->3 configurations crossing the mediator pole.

    The path parameteromega is the incoming photon energy. Mass 1 sits at
    rest and absorbs the photon (along +z); its outgoing momentum is fixed
    at q_out along +z, so ktil^2 = (p1' - p1 - k)^2 is exactly linear in
    omega and sweeps through -mu^2. The second photon and outgoing spectator
    are built by a deterministic two-body split of the remaining total, so
    every member conserves momentum and is fully on shell.
    """

    params: ModelParams
    q_out: float = 0.4
    spectator_pz: float = 0.6

    def config(self, omega: float) -> KinematicConfig:
        m, mu = self.params.m, self.params.mu
        if omega <= 0:
            raise ValueError("photon energy must be positive")
        p1 = FourVector(m, 0.0, 0.0, 0.0)
        p2 = on_shell(m, (0.0, 0.0, self.spectator_pz))
        k = FourVector(omega, 0.0, 0.0, omega)
        p1p = on_shell(m, (0.0, 0.0, self.q_out))
        t2 = k + p1 + p2 - p1p
        s2 = float(-minkowski_dot(t2, t2))
        if s2 <= m * m or t2[0] <= 0:
            raise ValueError(f"family leaves the physical region at omega={omega}")
        # deterministic split t2 -> photon (massless, +z in the t2 frame) + mass m
        kmag = cm_momentum(s2, 0.0, m)
        rest = np.array([[kmag, 0.0, 0.0, kmag],
                         [math.sqrt(m * m + kmag * kmag), 0.0, 0.0, -kmag]])
        kp, p2p = boost(rest, t2[1:] / t2[0])
        return KinematicConfig((k, p1, p2), (kp, p1p, p2p),
                               (0.0, m, m, 0.0, m, m))

    def ktil2_plus_mu2(self, omega: float) -> float:
        _, d2, _ = tree_denominators(self.config(omega), self.params)
        return d2

    def omega_window(self) -> tuple[float, float]:
        """Bracket [lo, hi] known to contain the pole crossing."""
        m, mu = self.params.m, self.params.mu
        ep = math.hypot(m, self.q_out)
        slope = 2.0 * (ep - self.q_out - m)       # d(ktil^2)/d omega, exact
        if slope >= 0.0:
            raise NoPoleCrossingError(
                "ktil^2 does not decrease along the path; no pole is reachable "
                f"(q_out={self.q_out})")
        omega_star = (2.0 * m * (ep - m) + mu * mu) / (-slope)
        return 0.2 * omega_star, 3.0 * omega_star


def bump_weight(center: float, width: float) -> Callable[[float], float]:
    """Smooth compactly supported bump on (center - width, center + width)."""
    def w(x: float) -> float:
        u = (x - center) / width
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - u * u))
    return w


# ---------------------------------------------------------------------------
# tree-level optical theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpticalReport:
    lhs: float
    rhs_elastic: float
    rhs_with_gravitons: float
    mc_error_rhs: float
    eps_ladder: tuple[tuple[float, float], ...]
    extrapolated_lhs: float
    ratio_restored: float
    ratio_elastic_only: float
    lhs_provenance: str = LHS_TAG
    rhs_provenance: str = RHS_TAG

    def __post_init__(self) -> None:
        if self.mc_error_rhs <= 0:
            raise ValueError("mc_error_rhs must be positive")
        epss = [e for e, _ in self.eps_ladder]
        if any(b >= a for a, b in zip(epss, epss[1:])):
            raise ValueError("eps ladder must be strictly decreasing")


def optical_tree_check(
    family: TreePoleFamily,
    weight_fn: Callable[[float], float] | None,
    params: ModelParams,
    eps_ladder: Sequence[float] = (1e-2, 1e-3, 1e-4),
    n_samples: int = 400,
) -> OpticalReport:
    """Integrated Im M against the collapsed emission-state sum.

    LHS: integral of weight * Im[m_3to3_tree] along the path, once per
    epsilon in the ladder (relative epsilons, scaled by max(m^2, mu^2)),
    extrapolated linearly from the two smallest.

    RHS: pi * (emission amplitude) * (emission amplitude)* * weight at the
    pole / |d(ktil^2)/d omega|, with the delta support located by bisection
    and the Jacobian by central finite difference. The disconnected
    spectator factors 2E (2 pi)^3 cancel against the final-state phase-space
    normalization exactly once and never appear numerically.

    ``n_samples`` bounds the number of adaptive quadrature subdivisions.
    """
    epss = sorted(eps_ladder, reverse=True)
    lo, hi = family.omega_window()
    d_lo = family.ktil2_plus_mu2(lo)
    d_hi = family.ktil2_plus_mu2(hi)
    if d_lo * d_hi > 0:
        raise NoPoleCrossingError(
            f"ktil^2 + mu^2 does not change sign on [{lo}, {hi}]: "
            f"({d_lo}, {d_hi})")

    omega_star = brentq(family.ktil2_plus_mu2, lo, hi, xtol=1e-12)
    h = 1e-6 * omega_star
    jac = abs(family.ktil2_plus_mu2(omega_star + h)
              - family.ktil2_plus_mu2(omega_star - h)) / (2.0 * h)

    if weight_fn is None:
        width = 10.0 * math.sqrt(min(epss) * max(params.m**2, params.mu**2)) / jac
        weight_fn = bump_weight(omega_star, width)
        support = (omega_star - width, omega_star + width)
    else:
        support = (lo, hi)

    ladder = []
    for eps_rel in epss:
        pe = replace(params, eps_rel=eps_rel)

        def integrand(omega: float) -> float:
            return weight_fn(omega) * m_3to3_tree(family.config(omega), pe).value.imag

        val, _ = quad(integrand, support[0], support[1], limit=n_samples,
                      points=[omega_star])
        ladder.append((eps_rel, val))

    (e1, l1), (e2, l2) = ladder[-2], ladder[-1]
    extrapolated = l2 + (l2 - l1) * e2 / (e1 - e2)

    # RHS through the emission amplitudes (independent code path)
    cfg_pole = family.config(omega_star)
    k, p1, p2 = cfg_pole.incoming
    kp, p1p, p2p = cfg_pole.outgoing
    ktil_out = k + p1 - p1p  # radiated quantum; positive energy at the pole
    if ktil_out[0] <= 0:
        raise NoPoleCrossingError("radiated quantum has nonpositive energy at the pole")
    emis_in = KinematicConfig((k, p1, p2), (ktil_out, p1p, p2),
                              (0.0, params.m, params.m,
                               params.mu, params.m, params.m))
    emis_out = KinematicConfig((kp, p2p, p1p), (ktil_out, p2, p1p),
                               (0.0, params.m, params.m,
                                params.mu, params.m, params.m))
    a1 = m_graviton_emission(emis_in, params).require_support()
    a2 = m_graviton_emission(emis_out, params).require_support()
    rhs = float(math.pi * (a1 * np.conj(a2)).real * weight_fn(omega_star) / jac)
    rhs_err = max(abs(rhs) * 1e-9, 1e-300)  # root/Jacobian procedure error

    lhs_final = ladder[-1][1]
    ratio_restored = extrapolated / rhs if rhs != 0.0 else math.inf
    return OpticalReport(
        lhs=lhs_final,
        rhs_elastic=0.0,
        rhs_with_gravitons=rhs,
        mc_error_rhs=rhs_err,
        eps_ladder=tuple(ladder),
        extrapolated_lhs=extrapolated,
        ratio_restored=ratio_restored,
        ratio_elastic_only=math.inf,
    )


# ---------------------------------------------------------------------------
# box cut at forward kinematics
# ---------------------------------------------------------------------------

def _forward_pair(s: float, params: ModelParams,
                  beta: Sequence[float] | None) -> tuple[np.ndarray, np.ndarray]:
    """Incoming p1 and the total momentum of the forward pair at this s."""
    m = params.m
    if s < 4.0 * m * m * (1.0 - 1e-12):
        raise BelowThresholdError(f"s={s} below the incoming-pair threshold 4m^2")
    if s <= 4.0 * params.mu**2:
        raise BelowThresholdError(f"s={s} below the two-mediator cut 4mu^2")
    p = cm_momentum(s, m, m)
    p1 = np.array([math.sqrt(s) / 2.0, 0.0, 0.0, p])
    total = FourVector(math.sqrt(s), 0.0, 0.0, 0.0)
    if beta is not None:
        p1, total = boost(np.stack([p1, total]), beta)
    return p1, total


def box_cut_im_forward(s: float, params: ModelParams, n_samples: int,
                       rng: np.random.Generator,
                       beta: Sequence[float] | None = None,
                       chunk_size: int = 1 << 17) -> tuple[float, float]:
    """Monte Carlo estimate of the Cutkosky imaginary part of the crossed box.

    Im M = -pi^2 alpha~^4 int d^3k1/(2E1) d^3k2/(2E2)
           |1/((p1-k1)^2 + m^2 - i eps)|^2 delta^4(k1+k2-p1-p2)

    with the cut legs on shell at the mediator mass mu. Forward kinematics
    p1' = p1, p2' = p2 are constructed internally in the CM frame (optionally
    boosted by ``beta``). Returns (value, standard error). The chunk size is
    fixed so results do not depend on scheduling.
    """
    p1, total = _forward_pair(s, params, beta)
    pref = math.pi**2 * params.alpha_tilde**4
    floor = 0.5 * (params.m**2 - params.mu**2)

    sums, sqs, count = [], [], 0
    while count < n_samples:
        n = min(chunk_size, n_samples - count)
        mom, w = two_body_batch(total, params.mu, params.mu, rng, n)
        diff = p1[None, :] - mom[:, 0, :]
        den = minkowski_dot(diff, diff) + params.m**2
        if float(np.min(den)) < floor:
            raise AssertionError(
                "squared matter propagator approached its pole; "
                "forward-limit regularization assumption violated")
        f = w / den**2
        sums.append(float(np.sum(f)))
        sqs.append(float(np.sum(f * f)))
        count += n
    total_sum = math.fsum(sums)
    total_sq = math.fsum(sqs)
    mean = total_sum / count
    var = max(total_sq / count - mean * mean, 0.0)
    return -pref * mean, pref * math.sqrt(var / count)


def annihilation_rhs(s: float, params: ModelParams, n_samples: int,
                     rng: np.random.Generator,
                     n_strata: int = 64) -> tuple[float, float]:
    """Two-mediator annihilation sum on the optical-theorem right-hand side.

    Same phase-space measure as :func:`box_cut_im_forward` but estimated by a
    structurally independent route: the polar angle is stratified, the
    azimuth is drawn first, and the squared t-channel matter denominator is
    assembled as -2 p1.k1 - mu^2 instead of the full quadratic form.
    """
    p1, total = _forward_pair(s, params, beta=None)
    m, mu = params.m, params.mu
    kmag = cm_momentum(s, mu, mu)
    roots = math.sqrt(s)
    ek = math.hypot(mu, kmag)
    pref = math.pi**2 * params.alpha_tilde**4

    per = max(1, n_samples // n_strata)
    edges = np.linspace(-1.0, 1.0, n_strata + 1)
    strat_means, strat_vars = [], []
    for i in range(n_strata):
        phi = rng.uniform(0.0, 2.0 * math.pi, per)
        c = rng.uniform(edges[i], edges[i + 1], per)
        st = np.sqrt(1.0 - c * c)
        k1 = np.stack([np.full(per, ek), kmag * st * np.cos(phi),
                       kmag * st * np.sin(phi), kmag * c], axis=1)
        den = -2.0 * minkowski_dot(p1, k1) - mu * mu
        f = 1.0 / den**2
        strat_means.append(float(np.mean(f)))
        strat_vars.append(float(np.var(f) / per))
    # measure: int dOmega k/(4 sqrt s); each stratum covers dc = 2/n_strata
    cell = 2.0 * math.pi * (kmag / (4.0 * roots)) * (2.0 / n_strata)
    value = cell * math.fsum(strat_means)
    err = cell * math.sqrt(math.fsum(strat_vars))
    return -pref * value, pref * err


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
