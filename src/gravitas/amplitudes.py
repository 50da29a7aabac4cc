"""Closed-form Feynman amplitudes of the model, in natural units.

Every amplitude is a Lorentz-invariant function of external momenta built
from propagator factors 1/(x - i eps), and is returned as a plain complex
number, or a complex array for a batch of configurations. The tree and
emission kernels take the Lorentz invariants, the real denominators; the
``KinematicConfig`` routes compute those from four-vectors and import numpy
and ``gravitas.kinematics`` only when called, so the optical-tree check,
which has the invariants in closed form, loads neither. Overall phases
follow the convention in which the bootstrapped elastic amplitude is

    M_newton(t) = -16 pi G m^4 / (-t + mu^2),

real and negative for spacelike transfer. That amplitude, and the spin-0
and spin-2 exchange amplitudes phased to reproduce it in the static limit,
are the paper's 2->2 derivation; no runtime path reads them, so they live
in ``tests/oracles.py``, where the tests hold them to the paper.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import ConfigShapeError, SpectatorMismatchError
from .params import ModelParams

if TYPE_CHECKING:
    import numpy as np

    from .kinematics import KinematicConfig

SPECTATOR_TOL = 1e-9  # relative, on equal spectator momenta in emission


def feynman_propagator(x: float | np.ndarray, eps: float) -> complex | np.ndarray:
    """1/(x - i eps) = x/(x^2+eps^2) + i eps/(x^2+eps^2), elementwise on arrays.

    The imaginary part is a normalized Lorentzian: against a smooth test
    function it integrates to pi * g(0) as eps -> 0. Needs eps > 0.
    """
    d = x * x + eps * eps
    return x / d + 1j * (eps / d)


# ---------------------------------------------------------------------------
# 3 -> 3 tree amplitude with external probes
# ---------------------------------------------------------------------------

def _check_legs(cfg: KinematicConfig, masses: tuple[float, ...]) -> None:
    n_in, n_out = cfg.incoming.shape[-2], cfg.outgoing.shape[-2]
    if n_in != 3 or n_out != 3:
        raise ConfigShapeError(
            f"need legs (k, p1, p2) -> (k', p1', p2'), got {n_in}->{n_out}")
    if tuple(cfg.masses) != masses:
        raise ConfigShapeError(f"leg masses must be {masses}, got {cfg.masses}")


def tree_denominators(cfg: KinematicConfig, params: ModelParams) -> tuple:
    """The three real denominators of the 6-point tree amplitude.

    d1 = (p1+k)^2 + m^2,  d2 = ktil^2 + mu^2,  d3 = (p2'+k')^2 + m^2,
    with ktil = p1' - (p1 + k): Python floats for one configuration, arrays
    over the batch axes of a batched one.
    """
    import numpy as np

    from .kinematics import minkowski_dot

    _check_legs(cfg, (0.0, params.m, params.m, 0.0, params.m, params.m))
    inc, out = cfg.incoming, cfg.outgoing
    k, p1 = inc[..., 0, :], inc[..., 1, :]
    kp, p1p, p2p = out[..., 0, :], out[..., 1, :], out[..., 2, :]
    a = p1 + k
    v = np.array([a, p1p - a, p2p + kp])
    d = minkowski_dot(v, v)
    a2, ktil2, b2 = d.tolist() if d.ndim == 1 else d
    return a2 + params.m**2, ktil2 + params.mu**2, b2 + params.m**2


def tree_amplitude(d1, d2, d3, params: ModelParams):
    """Probe-Newton-probe tree amplitude from its three real denominators,
    Python floats or arrays of one shape:

    M = [lam/(d1 - i eps)] [G m^4/(d2 - i eps)] [lam/(d3 - i eps)].
    """
    eps = params.eps_abs
    lam = params.lambda_probe
    return (lam * feynman_propagator(d1, eps)
            * params.g_newton * params.m**4 * feynman_propagator(d2, eps)
            * lam * feynman_propagator(d3, eps))


def m_3to3_tree(cfg: KinematicConfig, params: ModelParams) -> complex | np.ndarray:
    """:func:`tree_amplitude` of a configuration, one value per configuration
    of a batch: d1 = (p1+k)^2 + m^2, d2 = ktil^2 + mu^2, d3 = (p2'+k')^2 + m^2."""
    return tree_amplitude(*tree_denominators(cfg, params), params)


# ---------------------------------------------------------------------------
# graviton emission
# ---------------------------------------------------------------------------

def emission_amplitude(d1: float, params: ModelParams) -> complex:
    """Connected factor sqrt(G) m^2 lam / (d1 - i eps) of the emission of a
    mediator quantum off the probe-struck mass, d1 = (p1+k)^2 + m^2."""
    return (math.sqrt(params.g_newton) * params.m**2 * params.lambda_probe
            * feynman_propagator(d1, params.eps_abs))


def m_graviton_emission(cfg: KinematicConfig, params: ModelParams) -> complex:
    """:func:`emission_amplitude` of a configuration.

    Legs (k, p1, p2) -> (kg, p1', p2') of one configuration, not a batch, kg
    the radiated quantum of mass mu. The spectator's factor
    delta^3(p2' - p2) 2 E (2 pi)^3 stays symbolic; when p2' differs from p2
    it has no support and ``SpectatorMismatchError`` is raised.
    """
    import numpy as np

    from .kinematics import minkowski_dot

    if cfg.incoming.ndim != 2:
        raise ConfigShapeError("emission takes one configuration, got a batch "
                               f"of shape {cfg.incoming.shape[:-2]}")
    m = params.m
    _check_legs(cfg, (0.0, m, m, params.mu, m, m))
    k, p1, p2 = cfg.incoming
    p2p = cfg.outgoing[2]
    if np.max(np.abs(p2 - p2p)) > SPECTATOR_TOL * max(abs(float(p2[0])), 1.0):
        raise SpectatorMismatchError(
            "spectator momenta differ: disconnected delta vanishes")
    a = p1 + k
    return emission_amplitude(minkowski_dot(a, a) + m**2, params)
