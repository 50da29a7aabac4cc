"""The paper's 2->2 derivation, which no runtime path reads, its kinematics,
the numerical references for the closed-form tree-level pole, its emission
amplitudes and its quadrature weights, and the quadratized Hamiltonian of a
measurement-feedback configuration.

The bootstrapped elastic amplitude M_newton(t) = -16 pi G m^4 / (-t + mu^2)
fixes the phase convention of ``gravitas.amplitudes``; the spin-2 and spin-0
exchange amplitudes reproduce it in the static limit. Inputs come from the
tests only, so nothing here checks leg structure, and values are plain
numbers. Elastic legs are (p1, p2) -> (p1', p2'), with s = -(p1 + p2)^2,
t = -(p1' - p1)^2 and u = -(p2' - p1)^2.
"""

import math

import numpy as np

from gravitas.amplitudes import feynman_propagator, tree_denominators
from gravitas.entanglement import quadratize_newton
from gravitas.kinematics import KinematicConfig, boost, minkowski_dot

METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def boosted(cfg, beta):
    """``cfg`` with every leg actively boosted by velocity ``beta``."""
    return KinematicConfig(boost(cfg.incoming, beta), boost(cfg.outgoing, beta),
                           cfg.masses)


def mandelstam(cfg):
    """(s, t, u) of a 2->2 configuration; s + t + u = sum of squared masses."""
    p1, p2 = cfg.incoming
    p1p, p2p = cfg.outgoing
    v = np.stack([p1 + p2, p1p - p1, p2p - p1])
    s, t, u = (-minkowski_dot(v, v)).tolist()
    return s, t, u


def elastic_cm_config(m, p, theta, phi=0.0):
    """Equal-mass elastic 2->2 scattering in the CM frame at angle theta."""
    e = math.hypot(m, p)
    st, ct = math.sin(theta), math.cos(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    k = (p * st * cp, p * st * sp, p * ct)
    return KinematicConfig([[e, 0.0, 0.0, p], [e, 0.0, 0.0, -p]],
                           [[e, *k], [e, *(-c for c in k)]], (m, m, m, m))


# ---------------------------------------------------------------------------
# potential element and contact amplitude
# ---------------------------------------------------------------------------

def newton_potential_element(q, params):
    """Momentum-space matrix element of the regulated potential: 4 pi G m^2/(q^2+mu^2)."""
    q = np.asarray(q, dtype=float)
    return 4.0 * math.pi * params.g_newton * params.m**2 / (float(q @ q) + params.mu**2)


def m_2to2_newton(t, params):
    """Bootstrapped elastic amplitude -16 pi G m^4 / (-t + mu^2), a real float."""
    return -16.0 * math.pi * params.g_newton * params.m**4 / (-t + params.mu**2)


# ---------------------------------------------------------------------------
# mediator exchange: spin-2 and spin-0 numerators
#
# Numerators are quoted in the convention M = -4 pi G N / ((p1'-p1)^2 - i eps)
# so that both reduce to m_2to2_newton (at mu = 0) in the static limit where
# N -> 4 m^4. The tensor route uses the graviton-matter rules with the
# standard 1/2-normalized propagator numerator.
# ---------------------------------------------------------------------------

def spin2_vertex(p, p_out, params):
    """Graviton-matter vertex sqrt(8 pi G) [p a p'b + p'a p b - eta (p.p' + m^2)]."""
    g = math.sqrt(8.0 * math.pi * params.g_newton)
    return g * (np.outer(p, p_out) + np.outer(p_out, p)
                - METRIC * (minkowski_dot(p, p_out) + params.m**2))


def spin0_vertex(p, p_out, params):
    """Scalar-gravity vertex: the index trace of the spin-2 one, -2 sqrt(8 pi G)(p.p'+2m^2)."""
    g = math.sqrt(8.0 * math.pi * params.g_newton)
    return -2.0 * g * (minkowski_dot(p, p_out) + 2.0 * params.m**2)


def graviton_propagator_tensor(q2, eps):
    """Tensor numerator eta^ac eta^bd + eta^ad eta^bc - eta^ab eta^cd and scalar i/(q^2-i eps)."""
    e = METRIC
    tensor = (np.einsum("ac,bd->abcd", e, e)
              + np.einsum("ad,bc->abcd", e, e)
              - np.einsum("ab,cd->abcd", e, e))
    return tensor, 1j * feynman_propagator(q2, eps)


def spin2_numerator_closed(cfg, params):
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


def spin2_numerator_contracted(cfg, params):
    """N2 by brute-force index contraction vertex x propagator-tensor x vertex.

    The standard propagator numerator carries 1/2 relative to
    :func:`graviton_propagator_tensor`; with it the contraction divided by
    4 pi G lands in the same normalization as the closed form.
    """
    p1, p2 = cfg.incoming
    p1p, p2p = cfg.outgoing
    tensor, _ = graviton_propagator_tensor(1.0, 1.0)  # numerator only
    contracted = 0.5 * np.einsum("ab,abcd,cd->", spin2_vertex(p1, p1p, params),
                                 tensor, spin2_vertex(p2, p2p, params))
    return float(contracted) / (4.0 * math.pi * params.g_newton)


def spin0_numerator_closed(cfg, params):
    """N0 = 4 (p1.p1' + 2m^2)(p2.p2' + 2m^2)  ->  4 m^4 as velocities -> 0."""
    m2 = params.m**2
    p1, p2 = cfg.incoming
    p1p, p2p = cfg.outgoing
    return 4.0 * ((minkowski_dot(p1, p1p) + 2.0 * m2)
                  * (minkowski_dot(p2, p2p) + 2.0 * m2))


def spin0_numerator_contracted(cfg, params):
    """N0 from the scalar Feynman rules, same normalization as the spin-2 route."""
    p1, p2 = cfg.incoming
    p1p, p2p = cfg.outgoing
    v1 = spin0_vertex(p1, p1p, params)
    v2 = spin0_vertex(p2, p2p, params)
    return 0.5 * v1 * v2 / (4.0 * math.pi * params.g_newton)


def _exchange(cfg, params, numerator):
    q = cfg.outgoing[0] - cfg.incoming[0]
    return (-4.0 * math.pi * params.g_newton * float(numerator(cfg, params))
            * feynman_propagator(float(minkowski_dot(q, q)), params.eps_abs))


def m_2to2_spin2(cfg, params):
    """Graviton-exchange elastic amplitude from the closed-form numerator."""
    return _exchange(cfg, params, spin2_numerator_closed)


def m_2to2_spin0(cfg, params):
    """Scalar-gravity elastic amplitude from the closed-form numerator."""
    return _exchange(cfg, params, spin0_numerator_closed)


# ---------------------------------------------------------------------------
# probe Compton amplitude
# ---------------------------------------------------------------------------

def m_compton_probe(cfg, params):
    """Absorption-then-emission probe amplitude.

    M = lam^2/(2 pi)^3 [1/((p+k)^2+m^2-i eps) + 1/((p-k')^2+m^2-i eps)],
    legs ordered (k, p) -> (k', p') with k, k' massless.
    """
    k, p = cfg.incoming
    kp, _ = cfg.outgoing
    eps = params.eps_abs
    m2 = params.m**2
    a = p + k
    b = p - kp
    return params.lambda_probe**2 / (2.0 * math.pi) ** 3 * (
        feynman_propagator(minkowski_dot(a, a) + m2, eps)
        + feynman_propagator(minkowski_dot(b, b) + m2, eps))


# ---------------------------------------------------------------------------
# tree-level pole
# ---------------------------------------------------------------------------

def ktil2_plus_mu2(family, omega):
    """ktil^2 + mu^2 along a ``TreePoleFamily``, from the built configuration:
    the brentq and finite-difference reference for ``family.pole()``."""
    _, d2, _ = tree_denominators(family.config(omega), family.params)
    return d2


def emission_configs(family):
    """The two emission configurations of the optical check's right-hand
    side, from the configuration built at the pole: (k, p1, p2) ->
    (ktil, p1', p2), whose connected factor carries d1, and (k', p2', p1')
    -> (ktil, p2, p1'), whose factor carries d3, ktil = k + p1 - p1' the
    radiated quantum, on shell at mass mu there."""
    cfg = family.config(family.pole()[0])
    k, p1, p2 = cfg.incoming
    kp, p1p, p2p = cfg.outgoing
    ktil = k + p1 - p1p
    m, mu = family.params.m, family.params.mu
    masses = (0.0, m, m, mu, m, m)
    return (KinematicConfig((k, p1, p2), (ktil, p1p, p2), masses),
            KinematicConfig((kp, p2p, p1p), (ktil, p2, p1p), masses))


def clenshaw_curtis_weights(n):
    """Weights of the (n + 1)-point Clenshaw-Curtis rule on [-1, 1], nodes
    cos(pi k / n) for k = 0..n and n even: the cosine sum over 1 / (1 - 4 j^2)
    of Trefethen, SIAM Rev. 50 (2008), evaluated by numpy's real FFT."""
    j = np.arange(n)
    d = 1.0 / (1.0 - 4.0 * np.minimum(j, n - j) ** 2)
    d[0] = 0.0
    w = 2.0 / n * (1.0 + np.fft.rfft(d).real)
    w = np.concatenate([w, w[-2::-1]])
    w[[0, -1]] *= 0.5
    return w


# ---------------------------------------------------------------------------
# measurement-feedback ensemble
# ---------------------------------------------------------------------------

def feedback_hamiltonian(cfg):
    """The quadratized Hamiltonian of a ``FeedbackConfig``'s axis."""
    return quadratize_newton(cfg.d, cfg.params, cfg.masses, axis=cfg.axis)
