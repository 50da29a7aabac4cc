"""Numerical optical-theorem checks.

Two regimes:

* the 6-point tree pole: Im M of the probe-Newton-probe amplitude,
  integrated against a smooth weight over a kinematic path crossing
  ktil^2 = -mu^2 by nested Clenshaw-Curtis quadrature in one array pass, against
  the collapsed graviton-emission final state at the closed-form pole;

* the particle-antiparticle box cut: the Cutkosky imaginary part of the
  crossed box at forward kinematics, stratified in its importance variable,
  against the two-mediator annihilation sum, stratified in cos(theta), with
  the elastic-only cross-section as the mismatched alternative. Neither
  forward integrand depends on the azimuth: each side draws one variable.

LHS and RHS of every check are computed by code paths that share no
integrand evaluation and carry provenance tags saying so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .amplitudes import m_3to3_tree, m_graviton_emission
from .errors import BelowThresholdError
from .kinematics import (FourVector, KinematicConfig, cm_momentum,
                         minkowski_dot, on_shell)
from .params import N_STRATA, ModelParams

LHS_TAG = "lhs:im-m3to3-tree/quadrature"
RHS_TAG = "rhs:graviton-emission-product/closed-form-pole"


# ---------------------------------------------------------------------------
# canonical kinematic path for the tree-level check
# ---------------------------------------------------------------------------

# TreePoleFamily geometry, in units of m: the p_z of the outgoing p1' and of p2
Q_OUT = 0.4
SPECTATOR_PZ = 0.6


@dataclass(frozen=True)
class TreePoleFamily:
    """One-parameter family of 3->3 configurations crossing the mediator pole.

    The path parameter omega is the incoming photon energy. Mass 1 sits at
    rest and absorbs the photon (along +z); its outgoing momentum is fixed
    at Q_OUT * m along +z, so ktil^2 = (p1' - p1 - k)^2 is exactly linear in
    omega and sweeps through -mu^2. The spectator p2 moves along +z with
    SPECTATOR_PZ * m. The second photon and outgoing spectator are built by
    a deterministic two-body split of the remaining total t2 = k + p1 + p2 - p1',
    so every member conserves momentum and is fully on shell. The geometry
    scales with m, so a dimensionless result depends on mu / m, not on the
    mass scale.

    Every omega > 0 is physical, and ``config`` needs nothing more:
    t2_e - t2_z = c = m (0.8 + sqrt(1.36) - sqrt(1.16)) ~ 0.889 m does not
    depend on omega, t2_e = omega + m (1 + sqrt(1.36) - sqrt(1.16)) > 0, and
    with 2 t2_z = 2 omega + 2 (SPECTATOR_PZ - Q_OUT) m = 2 omega + 0.4 m,
    s2 = c (2 omega + c + 0.4 m) > c (c + 0.4 m) ~ 1.146 m^2 > m^2.
    """

    params: ModelParams

    def config(self, omega: float | np.ndarray) -> KinematicConfig:
        """The member at photon energy ``omega``; an array of energies gives
        a batched configuration with the same leading axes."""
        m = self.params.m
        w = np.asarray(omega, dtype=float)
        zhat = np.array([1.0, 0.0, 0.0, 1.0])
        p1 = FourVector(m, 0.0, 0.0, 0.0)
        p2 = on_shell(m, (0.0, 0.0, SPECTATOR_PZ * m))
        k = w[..., None] * zhat
        p1p = on_shell(m, (0.0, 0.0, Q_OUT * m))
        t2 = k + p1 + p2 - p1p
        s2 = -minkowski_dot(t2, t2)
        # deterministic split t2 -> photon (massless, +z in the t2 frame) + mass m;
        # t2 points along z, so the boost to the lab scales the photon by
        # gamma (1 + beta) = (E + pz) / sqrt(s2)
        kmag = cm_momentum(s2, 0.0, m)
        kp = (kmag * (t2[..., 0] + t2[..., 3]) / np.sqrt(s2))[..., None] * zhat
        legs = np.empty(w.shape + (6, 4))
        for i, p in enumerate((k, p1, p2, kp, p1p, t2 - kp)):
            legs[..., i, :] = p
        return KinematicConfig(legs[..., :3, :], legs[..., 3:, :],
                               (0.0, m, m, 0.0, m, m))

    def pole(self) -> tuple[float, float]:
        """(omega*, |d(ktil^2)/d omega|), both exact: ktil^2 + mu^2 is linear
        in omega, with slope 2 m (sqrt(1 + Q_OUT^2) - Q_OUT - 1) < 0."""
        m, mu = self.params.m, self.params.mu
        q = Q_OUT * m
        ep = math.hypot(m, q)
        slope = 2.0 * (ep - q - m)       # d(ktil^2)/d omega
        return (2.0 * m * (ep - m) + mu * mu) / (-slope), -slope

    def omega_window(self) -> tuple[float, float]:
        """Bracket [lo, hi] known to contain the pole crossing."""
        omega_star, _ = self.pole()
        return 0.2 * omega_star, 3.0 * omega_star


def bump_weight(center: float, width: float) -> Callable:
    """Smooth compactly supported bump on (center - width, center + width),
    elementwise on arrays; a float argument gives a float."""
    def w(x):
        u = (np.asarray(x, dtype=float) - center) / width
        inside = np.abs(u) < 1.0
        out = np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - u * u, 1.0)), 0.0)
        return float(out) if out.ndim == 0 else out
    return w


# ---------------------------------------------------------------------------
# tree-level optical theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpticalReport:
    lhs: float
    rhs_with_gravitons: float
    eps_ladder: tuple[tuple[float, float], ...]
    lhs_quadrature_error: tuple[float, ...]   # |I_513 - I_257|, nested Clenshaw-Curtis
    extrapolated_lhs: float
    ratio_restored: float
    lhs_provenance: str = LHS_TAG
    rhs_provenance: str = RHS_TAG


# half-width of the default bump and of the pole cell, omega* +/- Delta, in
# units of sqrt(eps) m^2 / |slope|: 1/sqrt(eps) Lorentzian half-widths eps m^2 / |slope|
POLE_CELL_WIDTHS = 10.0
# nested Clenshaw-Curtis: N_NODES + 1 nodes per panel, the coarse rule on every other
N_NODES = 512


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Weights of the (n + 1)-point Clenshaw-Curtis rule on [-1, 1], nodes
    cos(pi k / n) for k = 0..n and n even: the cosine sum over 1 / (1 - 4 j^2)
    of Trefethen, SIAM Rev. 50 (2008), evaluated by one real FFT."""
    j = np.arange(n)
    d = 1.0 / (1.0 - 4.0 * np.minimum(j, n - j) ** 2)
    d[0] = 0.0
    w = 2.0 / n * (1.0 + np.fft.rfft(d).real)
    w = np.concatenate([w, w[-2::-1]])
    w[[0, -1]] *= 0.5
    return w


def max_smallest_eps(family: TreePoleFamily, params: ModelParams) -> float:
    """Bound (exclusive) on the smallest ladder epsilon of the default bump:
    at and above it the pole cell reaches omega <= 0, where no photon is."""
    omega_star, slope = family.pole()
    return (omega_star * slope / (POLE_CELL_WIDTHS * params.m**2)) ** 2


def optical_tree_check(
    family: TreePoleFamily,
    weight_fn: Callable | None,
    params: ModelParams,
    eps_ladder: Sequence[float] = (1e-2, 1e-3, 1e-4),
) -> OpticalReport:
    """Integrated Im M against the collapsed emission-state sum.

    LHS: integral of weight * Im[m_3to3_tree] along the path, once per
    epsilon in the ladder (relative epsilons, scaled by m^2),
    extrapolated linearly from the two smallest. The integral runs over the
    support of the default bump, or over the whole window [lo, hi] for a
    user ``weight_fn``. On the pole cell, omega* +/- Delta (Delta the
    half-width of the default bump) clipped to that support, the nodes are
    uniform in theta, omega = omega* + (eps/slope) tan(theta), which
    flattens the Lorentzian; the support outside the cell gets plain panels.
    Every panel takes the ``N_NODES`` + 1 nested Clenshaw-Curtis nodes, ends
    included, for every epsilon in one batched ``family.config`` call: I_513
    uses them all, I_257 every other one. |I_513 - I_257| is a conservative
    estimate of I_513's quadrature error: it exceeds the distance to an
    adaptive reference at every ladder entry of
    ``test_optical_tree_quadrature_error_bounds_the_true_error``. The ladder
    needs at least two entries, all distinct, and with the default bump a
    smallest entry below :func:`max_smallest_eps`; nothing here checks either.

    RHS: pi * (emission amplitude) * (emission amplitude)* * weight at the
    pole / |d(ktil^2)/d omega|, with the pole and the slope in closed form
    from :meth:`TreePoleFamily.pole`. The disconnected spectator factors
    2E (2 pi)^3 cancel against the final-state phase-space normalization
    exactly once and never appear numerically.

    No sign test re-checks the pole: ktil^2 + mu^2 is linear in omega with
    a negative slope and its root at omega*, and the radiated quantum
    k + p1 - p1' has energy ((E - m)(E - q) + mu^2/2) / (q + m - E) > 0
    there, with q = Q_OUT * m and E = sqrt(m^2 + q^2).

    Every length in omega (the pole, the cell half-width
    POLE_CELL_WIDTHS sqrt(eps) m^2 / |slope|, the window) is m times a
    number, so ``ratio_restored`` depends on mu / m and the ladder only,
    not on the mass scale.

    ``weight_fn`` maps omega (a float or an array, elementwise) to weights.
    """
    epss = sorted(eps_ladder, reverse=True)
    omega_star, slope = family.pole()
    scale = params.m**2
    # below max_smallest_eps, half < omega* in floating point too: the ends are nodes
    half = omega_star * math.sqrt(min(epss) / max_smallest_eps(family, params))
    if weight_fn is None:
        weight_fn = bump_weight(omega_star, half)
        support = (omega_star - half, omega_star + half)
    else:
        support = family.omega_window()
    cell = (max(support[0], omega_star - half), min(support[1], omega_star + half))
    panels = [(a, b) for a, b in ((support[0], cell[0]), (cell[1], support[1])) if b > a]

    # one row of (omega, d omega / dx) per ladder entry: the pole cell, then
    # each panel, on the nodes x; the rows of w are the fine and coarse weights
    x = np.cos(np.pi * np.arange(N_NODES + 1) / N_NODES)
    w = np.zeros((2, N_NODES + 1))
    w[0], w[1, ::2] = clenshaw_curtis_weights(N_NODES), clenshaw_curtis_weights(N_NODES // 2)
    rows = []
    for eps_rel in epss:
        c = eps_rel * scale / slope
        th_a, th_b = (math.atan((end - omega_star) / c) for end in cell)
        t = np.tan(0.5 * (th_a + th_b) + 0.5 * (th_b - th_a) * x)
        parts = [(omega_star + c * t, 0.5 * (th_b - th_a) * c * (1.0 + t * t))]
        parts += [(0.5 * (a + b) + 0.5 * (b - a) * x, np.full_like(x, 0.5 * (b - a)))
                  for a, b in panels]
        rows.append([np.concatenate(z) for z in zip(*parts)])
    omega, jac = (np.array(z) for z in zip(*rows))
    omega = np.clip(omega, *support)  # the ends are nodes: no rounding past them
    cfg = family.config(omega)
    f = jac * weight_fn(omega)
    ladder, quad_err = [], []
    for i, eps_rel in enumerate(epss):
        amp = m_3to3_tree(KinematicConfig(cfg.incoming[i], cfg.outgoing[i], cfg.masses),
                          params._replace(eps_rel=eps_rel))
        fine, coarse = w @ (f[i] * amp.imag).reshape(-1, N_NODES + 1).sum(axis=0)
        ladder.append((eps_rel, float(fine)))
        quad_err.append(abs(float(fine - coarse)))

    (e1, l1), (e2, l2) = ladder[-2], ladder[-1]
    extrapolated = l2 + (l2 - l1) * e2 / (e1 - e2)

    # RHS through the emission amplitudes (independent code path)
    cfg_pole = family.config(omega_star)
    k, p1, p2 = cfg_pole.incoming
    kp, p1p, p2p = cfg_pole.outgoing
    ktil_out = k + p1 - p1p  # radiated quantum
    masses = (0.0, params.m, params.m, params.mu, params.m, params.m)
    a1 = m_graviton_emission(
        KinematicConfig((k, p1, p2), (ktil_out, p1p, p2), masses), params)
    a2 = m_graviton_emission(
        KinematicConfig((kp, p2p, p1p), (ktil_out, p2, p1p), masses), params)
    rhs = float(math.pi * (a1 * np.conj(a2)).real * weight_fn(omega_star) / slope)

    return OpticalReport(
        lhs=ladder[-1][1],
        rhs_with_gravitons=rhs,
        eps_ladder=tuple(ladder),
        lhs_quadrature_error=tuple(quad_err),
        extrapolated_lhs=extrapolated,
        ratio_restored=extrapolated / rhs if rhs != 0.0 else math.inf,
    )


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
