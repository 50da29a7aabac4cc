"""Four-momenta, boosts, kinematic configurations and phase-space sampling.

A momentum is a float array of shape ``(..., 4)`` ordered ``(e, px, py, pz)``;
every function here takes and returns such arrays, a single momentum being
shape ``(4,)`` and a batch ``(n, 4)``. :func:`FourVector` and :func:`on_shell`
are constructors of ``(4,)`` arrays, not a separate type.

Conventions: metric signature (-,+,+,+), so an on-shell momentum satisfies
p.p = -m^2.

Natural units hbar = c = 1. All samplers take an explicit
``numpy.random.Generator`` so ensembles can be split over independent,
reproducible streams (see :func:`stream`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BelowThresholdError, ConfigShapeError, SuperluminalBoostError

TOL_ONSHELL = 1e-9
TOL_CONSERVATION = 1e-10


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Independent, reproducible PCG64 stream: (master_seed, index) fixes output."""
    return np.random.default_rng((master_seed, index))


# ---------------------------------------------------------------------------
# four-momenta
# ---------------------------------------------------------------------------

def FourVector(e: float, px: float, py: float, pz: float) -> np.ndarray:
    """The momentum (e, px, py, pz) as a (4,) array."""
    return np.array([e, px, py, pz], dtype=float)


def on_shell(mass: float, p3: Sequence[float]) -> np.ndarray:
    """The positive-energy momentum of rest mass ``mass`` and 3-momentum ``p3``."""
    px, py, pz = (float(c) for c in p3)
    return FourVector(math.sqrt(mass * mass + px * px + py * py + pz * pz), px, py, pz)


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minkowski inner product over the last axis, signature (-,+,+,+).

    A sum of components rather than a reduce over the strided length-3
    spatial axis, which costs several times more; the additions run in the
    order that reduce uses, so the two agree to the bit.
    """
    return (a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3]
            - a[..., 0] * b[..., 0])


# ---------------------------------------------------------------------------
# Lorentz boosts
# ---------------------------------------------------------------------------

def boost_matrix(beta: Sequence[float]) -> np.ndarray:
    b = np.asarray(beta, dtype=float)
    b2 = float(b @ b)
    if b2 >= 1.0:
        raise SuperluminalBoostError(f"|beta|^2 = {b2} >= 1")
    if b2 == 0.0:
        return np.eye(4)
    g = 1.0 / math.sqrt(1.0 - b2)
    L = np.eye(4)
    L[0, 0] = g
    L[0, 1:] = g * b
    L[1:, 0] = g * b
    L[1:, 1:] += (g - 1.0) * np.outer(b, b) / b2
    return L


def boost(p: np.ndarray, beta: Sequence[float]) -> np.ndarray:
    """Active boost of momenta (..., 4): a particle at rest acquires velocity ``beta``."""
    return p @ boost_matrix(beta).T


# ---------------------------------------------------------------------------
# kinematic configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KinematicConfig:
    """Incoming/outgoing momenta, (..., n_in, 4) and (..., n_out, 4), with rest masses per leg.

    Masses are listed incoming first, then outgoing. Sequences of (4,) rows
    are accepted and stacked. Leading axes, shared by both sides, hold a
    batch of configurations with the same legs. Construction validates the
    shapes, total four-momentum conservation and the on-shell condition of
    every leg of every configuration.
    """

    incoming: np.ndarray
    outgoing: np.ndarray
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("incoming", "outgoing"):
            try:
                legs = np.array(getattr(self, name), dtype=float)
            except ValueError as exc:  # ragged rows
                raise ConfigShapeError(f"{name} legs: {exc}") from exc
            if legs.ndim < 2 or legs.shape[-1] != 4:
                raise ConfigShapeError(
                    f"{name} legs must form an (..., n, 4) array, got shape {legs.shape}")
            object.__setattr__(self, name, legs)
        if self.incoming.shape[:-2] != self.outgoing.shape[:-2]:
            raise ConfigShapeError(
                f"batch shapes differ: incoming {self.incoming.shape}, "
                f"outgoing {self.outgoing.shape}")
        legs = np.concatenate([self.incoming, self.outgoing], axis=-2)
        if legs.shape[-2] != len(self.masses):
            raise ConfigShapeError(
                f"{legs.shape[-2]} legs but {len(self.masses)} declared masses")
        p_in = self.incoming.sum(axis=-2)
        p_out = self.outgoing.sum(axis=-2)
        scale = np.maximum(np.maximum(abs(p_in).max(axis=-1), abs(p_out).max(axis=-1)),
                           1e-300)
        bad = abs(p_in - p_out).max(axis=-1) > TOL_CONSERVATION * scale
        if bad.any():
            raise ConfigShapeError(
                f"four-momentum not conserved: in={p_in[bad][0]}, out={p_out[bad][0]}")
        # |p^2 + m^2| <= tol * max(m, e)^2 (covers massless legs) and e > 0
        m2 = np.asarray(self.masses, dtype=float) ** 2
        p2 = minkowski_dot(legs, legs)
        e = legs[..., 0]
        ok = (abs(p2 + m2) <= TOL_ONSHELL * np.maximum(m2, e * e)) & (e > 0)
        if not ok.all():
            i = tuple(np.argwhere(~ok)[0])
            raise ConfigShapeError(
                f"leg {i[-1]} = {legs[i]} off shell for declared mass "
                f"{self.masses[i[-1]]}: p^2={p2[i]}")


# ---------------------------------------------------------------------------
# phase-space sampling
#
# Measure convention (no 2 pi factors): a weighted sample estimates
#   E[w f] = int prod_i d^3k_i / (2 E_i) delta^4(sum k_i - P) f .
# ---------------------------------------------------------------------------

def _kallen(a: float | np.ndarray, b: float | np.ndarray,
            c: float | np.ndarray) -> float | np.ndarray:
    """Kallen function, elementwise on floats or arrays."""
    return a * a + b * b + c * c - 2 * (a * b + b * c + c * a)


def cm_momentum(s: float | np.ndarray, m1: float | np.ndarray,
                m2: float | np.ndarray) -> float | np.ndarray:
    """Magnitude of the back-to-back momentum of a two-body state of mass sqrt(s).

    Elementwise on arrays; scalar arguments give a Python float.
    """
    lam = _kallen(s, m1 * m1, m2 * m2)
    below = lam <= -1e-12 * s * s
    if np.count_nonzero(below):
        s_, m1_, m2_ = (np.broadcast_to(x, np.shape(lam))[below].flat[0]
                        for x in (s, m1, m2))
        raise BelowThresholdError(f"s={s_} below threshold ({m1_}+{m2_})^2")
    k = np.sqrt(np.maximum(lam, 0.0)) / (2.0 * np.sqrt(s))
    return k if isinstance(k, np.ndarray) else float(k)


def _uniform_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    ct = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    st = np.sqrt(1.0 - ct * ct)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=1)


def two_body_batch(total: np.ndarray, m1: float, m2: float,
                   rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n two-body samples; returns momenta (n, 2, 4) and weights (n,)."""
    s = -minkowski_dot(total, total)
    if s < (m1 + m2) ** 2 * (1.0 - 1e-12):
        raise BelowThresholdError(
            f"total invariant mass^2 {s} below ({m1}+{m2})^2 = {(m1 + m2) ** 2}")
    s = max(s, (m1 + m2) ** 2)
    k = cm_momentum(s, m1, m2)
    roots = math.sqrt(s)

    nhat = _uniform_directions(rng, n)
    k1 = np.empty((n, 4))
    k2 = np.empty((n, 4))
    k1[:, 0] = math.hypot(m1, k)
    k2[:, 0] = math.hypot(m2, k)
    k1[:, 1:] = k * nhat
    k2[:, 1:] = -k * nhat

    beta = total[1:] / total[0]
    if float(beta @ beta) > 0:
        k1 = boost(k1, beta)
        k2 = boost(k2, beta)

    # uniform directions have pdf 1/(4 pi); measure density is k/(4 sqrt(s))
    w = np.full(n, 4.0 * math.pi * k / (4.0 * roots))
    return np.stack([k1, k2], axis=1), w


# ---------------------------------------------------------------------------
# Lorentz-invariant measure identity
#   int d^3k / ((2 pi)^3 2 E_k) f = int d^4k delta(k^2 + mu^2) Theta(k^0) f
# checked with a Gaussian-regularized shell delta of width w in k^2
# ---------------------------------------------------------------------------

# shell widths w of the right-hand side, in units of mu^2
WIDTH_LADDER = (1e-1, 1e-2, 1e-3)


@dataclass(frozen=True)
class MeasureIdentityReport:
    lhs: float
    lhs_error: float
    rhs: float
    rhs_error: float
    rhs_per_width: tuple[tuple[float, float, float], ...]  # (w, estimate, error)

    @property
    def discrepancy_sigmas(self) -> float:
        """|lhs - rhs| over the combined error; 0/0 (equal sides) is no discrepancy."""
        err = math.hypot(self.lhs_error, self.rhs_error)
        if err > 0:
            return abs(self.lhs - self.rhs) / err
        return 0.0 if self.lhs == self.rhs else math.inf


def check_invariant_measure_identity(
    test_fn: Callable[[np.ndarray], np.ndarray],
    mu: float,
    rng: np.random.Generator,
    n: int,
    kmax: float,
) -> MeasureIdentityReport:
    """Estimate both sides of the on-shell measure identity for ``test_fn``.

    ``test_fn`` maps an array of four-vectors (n, 4) to values (n,); it must
    be negligible for |k3| > kmax. The left side samples 3-momenta on shell;
    the right side samples 4-momenta with a Gaussian shell of width w in k^2,
    swept over WIDTH_LADDER * mu^2 and Richardson-extrapolated linearly in
    w^2.
    """
    widths = [w * mu * mu for w in WIDTH_LADDER]

    def ball() -> tuple[np.ndarray, np.ndarray]:
        """k3 uniform in the ball of radius kmax, and its on-shell energy."""
        u = rng.random(n) ** (1.0 / 3.0)
        k3 = (kmax * u)[:, None] * _uniform_directions(rng, n)
        return k3, np.sqrt(mu * mu + np.sum(k3 * k3, axis=1))

    # LHS: k3 on shell
    k3, e = ball()
    k4 = np.concatenate([e[:, None], k3], axis=1)
    vol3 = 4.0 / 3.0 * math.pi * kmax**3
    vals = test_fn(k4) * vol3 / ((2.0 * math.pi) ** 3 * 2.0 * e)
    lhs = float(np.mean(vals))
    lhs_err = float(np.std(vals) / math.sqrt(n))

    # RHS: k3 in the ball, k0 from a proposal concentrated on the shell
    # (the delta has k0-width ~ w/(2E); a flat k0 proposal would almost
    # never hit it for small w). The integrand keeps the explicit
    # regularized delta; only the sampling density adapts.
    per_width = []
    for w in widths:
        k3, e_shell = ball()
        prop_sigma = 4.0 * w / (2.0 * e_shell)
        k0 = e_shell + prop_sigma * rng.standard_normal(n)
        q = np.exp(-0.5 * ((k0 - e_shell) / prop_sigma) ** 2) \
            / (prop_sigma * math.sqrt(2.0 * math.pi))
        k4 = np.concatenate([k0[:, None], k3], axis=1)
        ksq = minkowski_dot(k4, k4)
        delta = np.exp(-0.5 * ((ksq + mu * mu) / w) ** 2) / (w * math.sqrt(2.0 * math.pi))
        vals = np.where(k0 > 0,
                        test_fn(k4) * delta * vol3 / ((2.0 * math.pi) ** 3 * q),
                        0.0)
        per_width.append((w, float(np.mean(vals)), float(np.std(vals) / math.sqrt(n))))

    # linear-in-w^2 Richardson step from the two narrowest shells
    (w1, r1, e1), (w2, r2, e2) = per_width[-2], per_width[-1]
    x1, x2 = w1 * w1, w2 * w2
    rhs = r2 + (r2 - r1) * x2 / (x1 - x2)
    rhs_err = math.hypot(e2 * (1 + x2 / (x1 - x2)), e1 * x2 / (x1 - x2))
    return MeasureIdentityReport(lhs, lhs_err, rhs, rhs_err, tuple(per_width))
