"""Closed-form Feynman amplitudes of the model, in natural units.

Every amplitude is a Lorentz-invariant function of external momenta built
from propagator factors 1/(x - i eps). Overall phases follow the convention
in which the bootstrapped elastic amplitude is

    M_newton(t) = -16 pi G m^4 / (-t + mu^2),

real and negative for spacelike transfer; the mediator-exchange amplitudes
are phased to reproduce it in the static limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigShapeError, PoleError, SpectatorMismatchError
from .kinematics import METRIC, KinematicConfig, minkowski_dot
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


def newton_potential_element(q: np.ndarray, params: ModelParams) -> float:
    """Momentum-space matrix element of the regulated potential: 4 pi G m^2/(q^2+mu^2)."""
    q = np.asarray(q, dtype=float)
    q2 = float(q @ q)
    return 4.0 * math.pi * params.g_newton * params.m**2 / (q2 + params.mu**2)


def m_2to2_newton(t: float, params: ModelParams) -> ComplexAmplitude:
    """Bootstrapped elastic amplitude -16 pi G m^4 / (-t + mu^2); real for t <= 0."""
    den = -t + params.mu**2
    if abs(den) < params.pole_guard:
        raise PoleError(f"-t + mu^2 = {den} within pole guard {params.pole_guard}")
    value = -16.0 * math.pi * params.g_newton * params.m**4 / den
    return ComplexAmplitude(complex(value, 0.0), "newton-contact")


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
# mediator exchange: spin-2 and spin-0 numerators
#
# Numerators are quoted in the convention M = -4 pi G N / ((p1'-p1)^2 - i eps)
# so that both reduce to m_2to2_newton (at mu = 0) in the static limit where
# N -> 4 m^4. The tensor route uses the graviton-matter rules with the
# standard 1/2-normalized propagator numerator.
# ---------------------------------------------------------------------------

def spin2_vertex(p: np.ndarray, p_out: np.ndarray, params: ModelParams) -> np.ndarray:
    """Graviton-matter vertex sqrt(8 pi G) [p a p'b + p'a p b - eta (p.p' + m^2)]."""
    dot = minkowski_dot(p, p_out)
    g = math.sqrt(8.0 * math.pi * params.g_newton)
    return g * (np.outer(p, p_out) + np.outer(p_out, p) - METRIC * (dot + params.m**2))


def spin0_vertex(p: np.ndarray, p_out: np.ndarray, params: ModelParams) -> float:
    """Scalar-gravity vertex: the index trace of the spin-2 one, -2 sqrt(8 pi G)(p.p'+2m^2)."""
    g = math.sqrt(8.0 * math.pi * params.g_newton)
    return -2.0 * g * (minkowski_dot(p, p_out) + 2.0 * params.m**2)


def graviton_propagator_tensor(q2: float, eps: float) -> tuple[np.ndarray, complex]:
    """Tensor numerator eta^ac eta^bd + eta^ad eta^bc - eta^ab eta^cd and scalar i/(q^2-i eps)."""
    e = METRIC
    tensor = (np.einsum("ac,bd->abcd", e, e)
              + np.einsum("ad,bc->abcd", e, e)
              - np.einsum("ab,cd->abcd", e, e))
    return tensor, 1j * feynman_propagator(q2, eps)


def _check_elastic_2to2(cfg: KinematicConfig, m: float) -> None:
    if len(cfg.incoming) != 2 or len(cfg.outgoing) != 2:
        raise ConfigShapeError("need an elastic 2->2 configuration")
    if any(mass != m for mass in cfg.masses):
        raise ConfigShapeError(f"all legs must carry mass m={m}, got {cfg.masses}")


def spin2_numerator_closed(cfg: KinematicConfig, params: ModelParams) -> float:
    """Closed-form N2 from the graviton-exchange diagram.

    N2 = 4[(p1.p2')(p1'.p2) + (p1.p2)(p1'.p2') - (p1.p1')(p2.p2')
         - m^2 (p1.p1') - m^2 (p2.p2') - 2 m^4]
       = s^2 + u^2 - t^2 + 4 m^2 t - 12 m^4  ->  4 m^4 as velocities -> 0.
    """
    m2 = params.m**2
    p1, p2 = cfg.incoming
    p1p, p2p = cfg.outgoing
    d = minkowski_dot
    return 4.0 * (d(p1, p2p) * d(p1p, p2) + d(p1, p2) * d(p1p, p2p)
                  - d(p1, p1p) * d(p2, p2p)
                  - m2 * d(p1, p1p) - m2 * d(p2, p2p) - 2.0 * m2 * m2)


def spin2_numerator_contracted(cfg: KinematicConfig, params: ModelParams) -> float:
    """N2 by brute-force index contraction vertex x propagator-tensor x vertex.

    The standard propagator numerator carries 1/2 relative to
    :func:`graviton_propagator_tensor`; with it the contraction divided by
    4 pi G lands in the same normalization as the closed form.
    """
    p1, p2 = cfg.incoming
    p1p, p2p = cfg.outgoing
    v1 = spin2_vertex(p1, p1p, params)
    v2 = spin2_vertex(p2, p2p, params)
    tensor, _ = graviton_propagator_tensor(1.0, 1.0)  # numerator only
    contracted = 0.5 * np.einsum("ab,abcd,cd->", v1, tensor, v2)
    return float(contracted) / (4.0 * math.pi * params.g_newton)


def spin0_numerator_closed(cfg: KinematicConfig, params: ModelParams) -> float:
    """N0 = 4 (p1.p1' + 2m^2)(p2.p2' + 2m^2)  ->  4 m^4 as velocities -> 0."""
    m2 = params.m**2
    p1, p2 = cfg.incoming
    p1p, p2p = cfg.outgoing
    return 4.0 * ((minkowski_dot(p1, p1p) + 2.0 * m2)
                  * (minkowski_dot(p2, p2p) + 2.0 * m2))


def spin0_numerator_contracted(cfg: KinematicConfig, params: ModelParams) -> float:
    """N0 from the scalar Feynman rules, same normalization as the spin-2 route."""
    p1, p2 = cfg.incoming
    p1p, p2p = cfg.outgoing
    v1 = spin0_vertex(p1, p1p, params)
    v2 = spin0_vertex(p2, p2p, params)
    return 0.5 * v1 * v2 / (4.0 * math.pi * params.g_newton)


def _mediator_amplitude(cfg: KinematicConfig, params: ModelParams,
                        numerator, tag: str) -> ComplexAmplitude:
    _check_elastic_2to2(cfg, params.m)
    q = cfg.outgoing[0] - cfg.incoming[0]
    q2 = float(minkowski_dot(q, q))
    value = (-4.0 * math.pi * params.g_newton * float(numerator(cfg, params))
             * feynman_propagator(q2, params.eps_abs))
    return ComplexAmplitude(value, tag)


def m_2to2_spin2(cfg: KinematicConfig, params: ModelParams) -> ComplexAmplitude:
    """Graviton-exchange elastic amplitude from the closed-form numerator.

    :func:`spin2_numerator_contracted` is the independent tensor route the
    tests hold it against.
    """
    return _mediator_amplitude(cfg, params, spin2_numerator_closed, "spin2-exchange")


def m_2to2_spin0(cfg: KinematicConfig, params: ModelParams) -> ComplexAmplitude:
    """Scalar-gravity elastic amplitude from the closed-form numerator.

    :func:`spin0_numerator_contracted` is the independent scalar-rules route
    the tests hold it against.
    """
    return _mediator_amplitude(cfg, params, spin0_numerator_closed, "spin0-exchange")


# ---------------------------------------------------------------------------
# probe Compton amplitude and graviton emission
# ---------------------------------------------------------------------------

def m_compton_probe(cfg: KinematicConfig, params: ModelParams) -> ComplexAmplitude:
    """Absorption-then-emission probe amplitude.

    M = lam^2/(2 pi)^3 [1/((p+k)^2+m^2-i eps) + 1/((p-k')^2+m^2-i eps)],
    legs ordered (k, p) -> (k', p') with k, k' massless.
    """
    if len(cfg.incoming) != 2 or len(cfg.outgoing) != 2:
        raise ConfigShapeError("need (k, p) -> (k', p')")
    if cfg.masses != (0.0, params.m, 0.0, params.m):
        raise ConfigShapeError(
            f"leg masses must be (0, m, 0, m) with m={params.m}, got {cfg.masses}")
    k, p = cfg.incoming
    kp, _ = cfg.outgoing
    eps = params.eps_abs
    m2 = params.m**2
    a = p + k
    b = p - kp
    value = params.lambda_probe**2 / (2.0 * math.pi) ** 3 * (
        feynman_propagator(minkowski_dot(a, a) + m2, eps)
        + feynman_propagator(minkowski_dot(b, b) + m2, eps))
    return ComplexAmplitude(value, "compton-probe")


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
