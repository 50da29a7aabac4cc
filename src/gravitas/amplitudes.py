"""Closed-form Feynman amplitudes of the model, in natural units.

Every amplitude is a Lorentz-invariant function of external momenta built
from propagator factors 1/(x - i eps). Overall phases follow the convention
in which the bootstrapped elastic amplitude is

    M_newton(t) = -16 pi G m^4 / (-t + mu^2),

real and negative for spacelike transfer. That amplitude, and the spin-0
and spin-2 exchange amplitudes phased to reproduce it in the static limit,
are the paper's 2->2 derivation; no runtime path reads them, so they live
in ``tests/oracles.py``, where the tests hold them to the paper.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigShapeError, SpectatorMismatchError
from .kinematics import KinematicConfig, minkowski_dot
from .params import ModelParams

SPECTATOR_TOL = 1e-9  # relative, on equal spectator momenta in emission


@dataclass(frozen=True)
class ComplexAmplitude:
    """A Feynman amplitude value together with its diagram provenance.

    ``value`` is a complex number, or a complex array for a batch of
    configurations.
    """

    value: complex | np.ndarray
    channel_tag: str

    def __post_init__(self) -> None:
        if not np.isfinite(self.value).all():
            raise ValueError(f"non-finite amplitude in channel {self.channel_tag}")


def feynman_propagator(x: float | np.ndarray, eps: float) -> complex | np.ndarray:
    """1/(x - i eps) = x/(x^2+eps^2) + i eps/(x^2+eps^2), elementwise on arrays.

    The imaginary part is a normalized Lorentzian: against a smooth test
    function it integrates to pi * g(0) as eps -> 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = x * x + eps * eps
    return x / d + 1j * (eps / d)


# ---------------------------------------------------------------------------
# 3 -> 3 tree amplitude with external probes
# ---------------------------------------------------------------------------

def _check_3to3(cfg: KinematicConfig, m: float) -> None:
    n_in, n_out = cfg.incoming.shape[-2], cfg.outgoing.shape[-2]
    if n_in != 3 or n_out != 3:
        raise ConfigShapeError(
            f"need legs (k, p1, p2) -> (k', p1', p2'), got {n_in}->{n_out}")
    expected = (0.0, m, m, 0.0, m, m)
    for got, want in zip(cfg.masses, expected):
        if got != want:
            raise ConfigShapeError(
                f"leg masses must be (0, m, m, 0, m, m) with m={m}, got {cfg.masses}")


def tree_denominators(cfg: KinematicConfig, params: ModelParams) -> tuple:
    """The three real denominators of the 6-point tree amplitude.

    d1 = (p1+k)^2 + m^2,  d2 = ktil^2 + mu^2,  d3 = (p2'+k')^2 + m^2,
    with ktil = p1' - (p1 + k): Python floats for one configuration, arrays
    over the batch axes of a batched one.
    """
    _check_3to3(cfg, params.m)
    inc, out = cfg.incoming, cfg.outgoing
    k, p1 = inc[..., 0, :], inc[..., 1, :]
    kp, p1p, p2p = out[..., 0, :], out[..., 1, :], out[..., 2, :]
    a = p1 + k
    v = np.array([a, p1p - a, p2p + kp])
    d = minkowski_dot(v, v)
    a2, ktil2, b2 = d.tolist() if d.ndim == 1 else d
    return a2 + params.m**2, ktil2 + params.mu**2, b2 + params.m**2


def m_3to3_tree(cfg: KinematicConfig, params: ModelParams) -> ComplexAmplitude:
    """Probe-Newton-probe tree amplitude, one value per configuration of a batch.

    M = [lam/((p1+k)^2+m^2-i eps)] [G m^4/(ktil^2+mu^2-i eps)]
        [lam/((p2'+k')^2+m^2-i eps)].
    """
    d1, d2, d3 = tree_denominators(cfg, params)
    eps = params.eps_abs
    lam = params.lambda_probe
    value = (lam * feynman_propagator(d1, eps)
             * params.g_newton * params.m**4 * feynman_propagator(d2, eps)
             * lam * feynman_propagator(d3, eps))
    return ComplexAmplitude(value, "tree-6pt")


# ---------------------------------------------------------------------------
# graviton emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmissionAmplitude:
    """Graviton-emission amplitude with its disconnected factor kept symbolic.

    The full matrix element is connected * delta^3(spectator' - spectator)
    * spectator_norm; the delta is never realized numerically. When the
    supplied spectator momenta differ the delta has no support and the
    amplitude is flagged zero.
    """

    connected: complex
    spectator_norm: float  # 2 E_spectator (2 pi)^3
    delta_support: bool
    channel_tag: str = "graviton-emission"

    @property
    def value(self) -> complex:
        return self.connected if self.delta_support else 0.0j

    def require_support(self) -> complex:
        if not self.delta_support:
            raise SpectatorMismatchError(
                "spectator momenta differ: disconnected delta vanishes")
        return self.connected


def m_graviton_emission(cfg: KinematicConfig, params: ModelParams) -> EmissionAmplitude:
    """Emission of a mediator quantum off the probe-struck mass.

    Legs (k, p1, p2) -> (kg, p1', p2'), kg the radiated quantum of mass mu.
    Connected factor sqrt(G) m^2 lam / ((p1+k)^2 + m^2 - i eps); the
    spectator contributes delta^3 * 2 E (2 pi)^3 symbolically.
    """
    if len(cfg.incoming) != 3 or len(cfg.outgoing) != 3:
        raise ConfigShapeError("need (k, p1, p2) -> (kg, p1', p2')")
    expected = (0.0, params.m, params.m, params.mu, params.m, params.m)
    if cfg.masses != expected:
        raise ConfigShapeError(
            f"leg masses must be {expected}, got {cfg.masses}")
    k, p1, p2 = cfg.incoming
    _, _, p2p = cfg.outgoing
    a = p1 + k
    d1 = minkowski_dot(a, a) + params.m**2
    connected = (math.sqrt(params.g_newton) * params.m**2 * params.lambda_probe
                 * feynman_propagator(d1, params.eps_abs))
    e2 = float(p2[0])
    support = bool(np.max(np.abs(p2 - p2p)) <= SPECTATOR_TOL * max(abs(e2), 1.0))
    norm = 2.0 * e2 * (2.0 * math.pi) ** 3
    return EmissionAmplitude(connected, norm, support)
