"""Tree-level optical theorem at the mediator pole, on Python floats.

Im M of the probe-Newton-probe amplitude, integrated against a smooth
weight over a kinematic path crossing ktil^2 = -mu^2 by nested
Clenshaw-Curtis quadrature, against the collapsed graviton-emission final
state at the closed-form pole. Along the path every denominator is linear
in the photon energy, so both sides run on the closed-form invariants of
:meth:`TreePoleFamily.denominators` and the ``math`` module: this module
imports neither numpy nor ``gravitas.kinematics``. An error in those
invariants moves both sides alike, so no ratio gate sees it; the tests hold
them to the four-vector build, :meth:`TreePoleFamily.config`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .amplitudes import emission_amplitude, tree_amplitude
from .params import ModelParams

LHS_TAG = "lhs:im-m3to3-tree/quadrature"
RHS_TAG = "rhs:graviton-emission-product/closed-form-pole"

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

    Every omega > 0 is physical, and neither method needs more:
    t2_e - t2_z = c = m (0.8 + sqrt(1.36) - sqrt(1.16)) ~ 0.889 m does not
    depend on omega, t2_e = omega + m (1 + sqrt(1.36) - sqrt(1.16)) > 0, and
    with 2 t2_z = 2 omega + 2 (SPECTATOR_PZ - Q_OUT) m = 2 omega + 0.4 m,
    s2 = c (2 omega + c + 0.4 m) > c (c + 0.4 m) ~ 1.146 m^2 > m^2.
    """

    params: ModelParams

    def denominators(self, omega: float) -> tuple[float, float, float]:
        """(d1, d2, d3) of the tree amplitude at photon energy ``omega``, in
        closed form. With q = Q_OUT m, E' = sqrt(m^2 + q^2),
        E2 = sqrt(m^2 + (SPECTATOR_PZ m)^2) and b = (SPECTATOR_PZ - Q_OUT) m:

        d1 = (p1 + k)^2 + m^2 = -2 m omega,
        d2 = ktil^2 + mu^2 = 2 m (E' - m) + mu^2 + 2 omega (E' - m - q),
        d3 = (p2' + k')^2 + m^2 = m^2 - s2, s2 = c (2 omega + m + E2 - E' + b),

        c = m + E2 - E' - b the omega-independent t2_e - t2_z above."""
        m, mu = self.params.m, self.params.mu
        q = Q_OUT * m
        ep = math.hypot(m, q)
        e2 = math.hypot(m, SPECTATOR_PZ * m)
        b = (SPECTATOR_PZ - Q_OUT) * m
        c = m + e2 - ep - b
        return (-2.0 * m * omega,
                2.0 * m * (ep - m) + mu * mu + 2.0 * omega * (ep - m - q),
                m * m - c * (2.0 * omega + m + e2 - ep + b))

    def config(self, omega):
        """The member at photon energy ``omega`` as a ``KinematicConfig``; an
        array of energies gives a batched configuration with the same leading
        axes. Imports numpy and ``gravitas.kinematics`` when called."""
        import numpy as np

        from .kinematics import (FourVector, KinematicConfig, cm_momentum,
                                 minkowski_dot, on_shell)

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


def bump_weight(center: float, width: float) -> Callable[[float], float]:
    """Smooth compactly supported bump exp(-1 / (1 - u^2)), u = (x - center)
    / width, on (center - width, center + width), of a float x."""
    def w(x: float) -> float:
        u = (x - center) / width
        return math.exp(-1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0
    return w


class OpticalReport(NamedTuple):
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


def _fft(x: list, twiddles: list) -> list:
    """sum_j x_j exp(-2 pi i j k / n) for k = 0..n-1, n = len(x) a power of
    two and at least 2, by radix-2 decimation in time; ``twiddles`` holds
    exp(-2 pi i k / n) for k < n / 2, every other one serving each half."""
    n = len(x)
    if n == 2:
        return [x[0] + x[1], x[0] - x[1]]
    half = twiddles[0::2]
    even, odd = _fft(x[0::2], half), _fft(x[1::2], half)
    odd = [t * v for t, v in zip(twiddles, odd)]
    return [e + v for e, v in zip(even, odd)] + [e - v for e, v in zip(even, odd)]


def clenshaw_curtis_weights(n: int) -> list[float]:
    """Weights of the (n + 1)-point Clenshaw-Curtis rule on [-1, 1], nodes
    cos(pi k / n) for k = 0..n and n a power of two: the cosine sum over
    1 / (1 - 4 j^2) of Trefethen, SIAM Rev. 50 (2008), evaluated as one
    discrete Fourier transform of length n, as in Waldvogel, BIT 46 (2006)."""
    d = [0.0] + [1.0 / (1.0 - 4.0 * min(j, n - j) ** 2) for j in range(1, n)]
    angles = (2.0 * math.pi * k / n for k in range(n // 2))
    twiddles = [complex(math.cos(a), -math.sin(a)) for a in angles]
    w = [2.0 / n * (1.0 + z.real) for z in _fft(d, twiddles)[:n // 2 + 1]]
    w += w[-2::-1]
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def max_smallest_eps(family: TreePoleFamily, params: ModelParams) -> float:
    """Bound (exclusive) on the smallest ladder epsilon of the default bump:
    at and above it the pole cell reaches omega <= 0, where no photon is."""
    omega_star, slope = family.pole()
    return (omega_star * slope / (POLE_CELL_WIDTHS * params.m**2)) ** 2


def optical_tree_check(
    family: TreePoleFamily,
    weight_fn: Callable[[float], float] | None,
    params: ModelParams,
    eps_ladder: Sequence[float] = (1e-2, 1e-3, 1e-4),
) -> OpticalReport:
    """Integrated Im M against the collapsed emission-state sum.

    LHS: integral of weight * Im[tree_amplitude] along the path, once per
    epsilon in the ladder (relative epsilons, scaled by m^2),
    extrapolated linearly from the two smallest. The integral runs over the
    support of the default bump, or over the whole window [lo, hi] for a
    user ``weight_fn``. On the pole cell, omega* +/- Delta (Delta the
    half-width of the default bump) clipped to that support, the nodes are
    uniform in theta, omega = omega* + (eps/slope) tan(theta), which
    flattens the Lorentzian; the support outside the cell gets plain panels.
    Every panel takes the ``N_NODES`` + 1 nested Clenshaw-Curtis nodes, ends
    included, for every epsilon, node by node on the closed-form
    :meth:`TreePoleFamily.denominators`: I_513 uses them all, I_257 every
    other one. |I_513 - I_257| is a conservative estimate of I_513's
    quadrature error: it exceeds the distance to an adaptive reference at
    every ladder entry of
    ``test_optical_tree_quadrature_error_bounds_the_true_error``. The ladder
    needs at least two entries, all distinct, and with the default bump a
    smallest entry below :func:`max_smallest_eps`; nothing here checks either.

    RHS: pi * (emission amplitude) * (emission amplitude)* * weight at the
    pole / |d(ktil^2)/d omega|, with the pole and the slope in closed form
    from :meth:`TreePoleFamily.pole`; the two emission factors take d1 and
    d3 there. The disconnected spectator factors 2E (2 pi)^3 cancel against
    the final-state phase-space normalization exactly once and never appear
    numerically.

    No sign test re-checks the pole: ktil^2 + mu^2 is linear in omega with
    a negative slope and its root at omega*, and the radiated quantum
    k + p1 - p1' has energy ((E - m)(E - q) + mu^2/2) / (q + m - E) > 0
    there, with q = Q_OUT * m and E = sqrt(m^2 + q^2).

    Every length in omega (the pole, the cell half-width
    POLE_CELL_WIDTHS sqrt(eps) m^2 / |slope|, the window) is m times a
    number, so ``ratio_restored`` depends on mu / m and the ladder only,
    not on the mass scale.

    ``weight_fn`` maps a float omega to its weight.
    """
    epss = sorted(eps_ladder, reverse=True)
    omega_star, slope = family.pole()
    scale = params.m**2
    # below max_smallest_eps, half < omega* in floating point too: the ends are nodes
    half = omega_star * math.sqrt(min(epss) / max_smallest_eps(family, params))
    if weight_fn is None:
        weight_fn = bump_weight(omega_star, half)
        lo, hi = omega_star - half, omega_star + half
    else:
        lo, hi = family.omega_window()
    cell = (max(lo, omega_star - half), min(hi, omega_star + half))
    panels = [(a, b) for a, b in ((lo, cell[0]), (cell[1], hi)) if b > a]

    x = [math.cos(math.pi * i / N_NODES) for i in range(N_NODES + 1)]
    fine_w, coarse_w = clenshaw_curtis_weights(N_NODES), clenshaw_curtis_weights(N_NODES // 2)
    ladder, quad_err = [], []
    for eps_rel in epss:
        p_eps = params._replace(eps_rel=eps_rel)

        def integrand(omega: float, jac: float) -> float:
            omega = min(max(omega, lo), hi)  # the ends are nodes: no rounding past them
            return (jac * weight_fn(omega)
                    * tree_amplitude(*family.denominators(omega), p_eps).imag)

        c = eps_rel * scale / slope
        th_a, th_b = (math.atan((end - omega_star) / c) for end in cell)
        th_mid, th_half = 0.5 * (th_a + th_b), 0.5 * (th_b - th_a)
        # on each node x: the pole cell, plus each plain panel
        f = [integrand(omega_star + c * t, th_half * c * (1.0 + t * t))
             for t in (math.tan(th_mid + th_half * xi) for xi in x)]
        for a, b in panels:
            f = [v + integrand(0.5 * (a + b) + 0.5 * (b - a) * xi, 0.5 * (b - a))
                 for v, xi in zip(f, x)]
        fine = sum(w * v for w, v in zip(fine_w, f))
        coarse = sum(w * v for w, v in zip(coarse_w, f[::2]))
        ladder.append((eps_rel, fine))
        quad_err.append(abs(fine - coarse))

    (e1, l1), (e2, l2) = ladder[-2], ladder[-1]
    extrapolated = l2 + (l2 - l1) * e2 / (e1 - e2)

    # RHS: the emission amplitudes at the pole
    d1, _, d3 = family.denominators(omega_star)
    a1, a2 = emission_amplitude(d1, params), emission_amplitude(d3, params)
    rhs = math.pi * (a1 * a2.conjugate()).real * weight_fn(omega_star) / slope

    return OpticalReport(
        lhs=ladder[-1][1],
        rhs_with_gravitons=rhs,
        eps_ladder=tuple(ladder),
        lhs_quadrature_error=tuple(quad_err),
        extrapolated_lhs=extrapolated,
        ratio_restored=extrapolated / rhs if rhs != 0.0 else math.inf,
    )
