import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gravitas.amplitudes import (feynman_propagator, m_3to3_tree,
                                 m_graviton_emission, tree_denominators)
from gravitas.errors import ConfigShapeError, SpectatorMismatchError
from gravitas.kinematics import (FourVector, KinematicConfig, boost,
                                 cm_momentum, minkowski_dot, on_shell)
from gravitas.optical import TreePoleFamily
from gravitas.params import ModelParams
from oracles import (METRIC, boosted, elastic_cm_config,
                     graviton_propagator_tensor, ktil2_plus_mu2,
                     m_2to2_newton, m_2to2_spin0,
                     m_2to2_spin2, m_compton_probe, mandelstam,
                     newton_potential_element, spin0_numerator_closed,
                     spin0_numerator_contracted, spin2_numerator_closed,
                     spin2_numerator_contracted, spin2_vertex)

betas = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)


# ---------------------------------------------------------------------------
# Feynman propagator
# ---------------------------------------------------------------------------

def test_propagator_on_pole_purely_imaginary():
    v = feynman_propagator(0.0, 1e-3)
    assert v.real == 0.0
    assert v.imag == pytest.approx(1e3, rel=1e-14)


def test_propagator_asymptotics():
    v = feynman_propagator(10.0, 1e-6)
    assert v.real == pytest.approx(0.1, rel=1e-10)
    assert abs(v.imag) < 2e-8  # O(eps/x^2)


def test_propagator_imag_integrates_to_pi_g0():
    g = lambda x: math.exp(-x * x / 2.0)
    vals = []
    for eps in (1e-2, 1e-3, 1e-4):
        v, _ = quad(lambda x: feynman_propagator(x, eps).imag * g(x),
                    -10, 10, limit=400, points=[0.0])
        vals.append(v)
    extrapolated = vals[-1] + (vals[-1] - vals[-2]) * 1e-4 / (1e-3 - 1e-4)
    assert extrapolated == pytest.approx(math.pi * g(0.0), rel=5e-3)


# ---------------------------------------------------------------------------
# 6-point tree amplitude
# ---------------------------------------------------------------------------

def test_tree_amplitude_batch_matches_scalar_calls(params):
    fam = TreePoleFamily(params)
    omegas = np.linspace(*fam.omega_window(), 9).reshape(3, 3)
    batch = m_3to3_tree(fam.config(omegas), params)
    assert batch.shape == (3, 3)
    for idx in np.ndindex(3, 3):
        one = m_3to3_tree(fam.config(float(omegas[idx])), params)
        assert type(one) is complex
        assert batch[idx] == pytest.approx(one, rel=1e-14)


def test_tree_amplitude_is_product_of_propagators(params):
    fam = TreePoleFamily(params)
    cfg = fam.config(0.31)
    d1, d2, d3 = tree_denominators(cfg, params)
    eps = params.eps_abs
    lam, g, m = params.lambda_probe, params.g_newton, params.m
    expected = (lam * feynman_propagator(d1, eps)
                * g * m**4 * feynman_propagator(d2, eps)
                * lam * feynman_propagator(d3, eps))
    got = m_3to3_tree(cfg, params)
    assert got == pytest.approx(expected, rel=1e-14)


def test_tree_amplitude_soft_photon_mediator_nearly_real(params):
    # k -> 0: ktil^2 >= 0, so the mediator factor sits off its pole and its
    # imaginary part is O(eps) relative (the probe denominators, by
    # contrast, approach their own poles in this limit)
    fam = TreePoleFamily(params)
    _, d2, _ = tree_denominators(fam.config(1e-3), params)
    assert d2 > 0
    middle = feynman_propagator(d2, params.eps_abs)
    assert abs(middle.imag) / abs(middle.real) < 10 * params.eps_abs / d2


def test_tree_amplitude_on_pole_imaginary_dominates(params):
    fam = TreePoleFamily(params)
    lo, hi = fam.omega_window()
    from scipy.optimize import brentq

    omega_star = brentq(lambda w: ktil2_plus_mu2(fam, w), lo, hi, xtol=1e-13)
    v = m_3to3_tree(fam.config(omega_star), params)
    assert abs(v.imag) > 1e3 * abs(v.real)


def test_tree_amplitude_shape_error(params):
    cfg = elastic_cm_config(params.m, 0.3, 0.5)
    with pytest.raises(ConfigShapeError):
        m_3to3_tree(cfg, params)
    with pytest.raises(ConfigShapeError, match="leg masses"):  # legs of mass m, not 2m
        m_3to3_tree(TreePoleFamily(params).config(0.1), params._replace(m=2.0 * params.m))


def _im_near_pole(cfg, params, delta_width):
    """Near-pole form of Im M: the mediator delta against real outer factors,
    pi G m^4 [lam/d1] delta_w(ktil^2 + mu^2) [lam/d3], the delta a normalized
    Gaussian of width ``delta_width`` in ktil^2. The factor pi is the weight
    of the distributional limit Im 1/(x - i eps) -> pi delta(x)."""
    d1, d2, d3 = tree_denominators(cfg, params)
    lam = params.lambda_probe
    delta = math.exp(-0.5 * (d2 / delta_width) ** 2) / (delta_width * math.sqrt(2.0 * math.pi))
    return math.pi * params.g_newton * params.m**4 * (lam / d1) * delta * (lam / d3)


def test_near_pole_form_matches_integrated_im(params):
    # integrate Im M over the path and compare with the delta-form evaluated
    # with a matched eps/width ladder and linear extrapolation
    fam = TreePoleFamily(params)
    lo, hi = fam.omega_window()
    from scipy.optimize import brentq

    omega_star = brentq(lambda w: ktil2_plus_mu2(fam, w), lo, hi, xtol=1e-13)
    a, b = omega_star - 0.08, omega_star + 0.08

    ladder = []
    for eps_rel in (1e-3, 1e-4, 1e-5):
        pe = params._replace(eps_rel=eps_rel)
        v, _ = quad(lambda w: m_3to3_tree(fam.config(w), pe).imag,
                    a, b, limit=400, points=[omega_star])
        ladder.append(v)
    lhs = ladder[-1] + (ladder[-1] - ladder[-2]) * 1e-5 / (1e-4 - 1e-5)

    h = 1e-6
    jac = abs(ktil2_plus_mu2(fam, omega_star + h)
              - ktil2_plus_mu2(fam, omega_star - h)) / (2 * h)
    widths = []
    for dw in (1e-3, 1e-4, 1e-5):
        # window matched to the Gaussian's omega-width so quadrature resolves it
        half = 10.0 * dw / jac
        v, _ = quad(lambda w: _im_near_pole(fam.config(w), params, dw),
                    omega_star - half, omega_star + half, limit=400,
                    points=[omega_star])
        widths.append(v)
    rhs = widths[-1] + (widths[-1] - widths[-2]) * 1e-5 / (1e-4 - 1e-5)
    assert lhs == pytest.approx(rhs, rel=0.01)


def test_near_pole_form_off_pole_negligible(params):
    # the premise of the near-pole form: Im M sits on the mediator pole, and
    # 0.1 off it falls by (eps / (ktil^2 + mu^2))^2 ~ 1e-10
    fam = TreePoleFamily(params)
    omega_star, _ = fam.pole()
    on = m_3to3_tree(fam.config(omega_star), params).imag
    off = m_3to3_tree(fam.config(omega_star + 0.1), params).imag
    assert abs(off) < 1e-9 * abs(on)

# ---------------------------------------------------------------------------
# graviton emission
# ---------------------------------------------------------------------------

def _emission_config(params, omega):
    fam = TreePoleFamily(params)
    from scipy.optimize import brentq

    lo, hi = fam.omega_window()
    omega_star = brentq(lambda w: ktil2_plus_mu2(fam, w), lo, hi, xtol=1e-13)
    cfg = fam.config(omega_star)
    k, p1, p2 = cfg.incoming
    _, p1p, _ = cfg.outgoing
    kg = k + p1 - p1p
    return KinematicConfig((k, p1, p2), (kg, p1p, p2),
                           (0.0, params.m, params.m,
                            params.mu, params.m, params.m))


def test_emission_connected_factor(params):
    cfg = _emission_config(params, None)
    k, p1, _ = cfg.incoming
    d1 = minkowski_dot(p1 + k, p1 + k) + params.m**2
    expected = (math.sqrt(params.g_newton) * params.m**2 * params.lambda_probe
                * feynman_propagator(d1, params.eps_abs))
    assert m_graviton_emission(cfg, params) == pytest.approx(expected, rel=1e-14)


def test_emission_spectator_mismatch_raises(params):
    # outgoing spectator deflected; the radiated quantum and the struck mass
    # share the recoil via a fresh on-shell two-body split of the remainder
    m, mu = params.m, params.mu
    k = FourVector(0.4, 0.0, 0.0, 0.4)
    p1 = FourVector(m, 0.0, 0.0, 0.0)
    p2 = on_shell(m, (0.0, 0.0, 0.6))
    p2_new = on_shell(m, (0.2, 0.0, 0.55))
    remainder = k + p1 + p2 - p2_new
    kk = cm_momentum(-minkowski_dot(remainder, remainder), mu, m)
    kg_rest = np.array([math.hypot(mu, kk), 0.0, 0.0, kk])
    p1p_rest = np.array([math.hypot(m, kk), 0.0, 0.0, -kk])
    kg, p1p = boost(np.stack([kg_rest, p1p_rest]), remainder[1:] / remainder[0])
    cfg = KinematicConfig((k, p1, p2), (kg, p1p, p2_new), (0.0, m, m, mu, m, m))
    with pytest.raises(SpectatorMismatchError):
        m_graviton_emission(cfg, params)


@pytest.mark.parametrize("n", [2, 3])
def test_emission_rejects_batch(params, n):
    # a batch of n configurations has n as its first axis; the legs sit on
    # the second-to-last axis, so n = 3 must not pass for three legs
    one = _emission_config(params, None)
    batch = KinematicConfig(np.stack([one.incoming] * n),
                            np.stack([one.outgoing] * n), one.masses)
    with pytest.raises(ConfigShapeError, match="one configuration"):
        m_graviton_emission(batch, params)


def test_emission_coupling_scaling(params):
    cfg = _emission_config(params, None)
    quadrupled = ModelParams(g_newton=4 * params.g_newton, m=params.m,
                             mu=params.mu, lambda_probe=params.lambda_probe)
    a1 = m_graviton_emission(cfg, params)
    # same kinematics, sqrt(G) m^2 doubled -> connected factor doubles
    a2 = m_graviton_emission(cfg, quadrupled)
    assert abs(a2) == pytest.approx(2 * abs(a1), rel=1e-12)

# ---------------------------------------------------------------------------
# the paper's 2->2 derivation (tests/oracles.py)
#
# These tests check the derivation, not the package: no runtime path reads
# the contact, exchange or Compton amplitudes. They hold the potential
# element to the Yukawa potential, the exchange numerators to an
# independent index contraction and to 4 m^4 in the static limit, spin-2
# exchange to the contact amplitude, and spin-0 against spin-2.
# ---------------------------------------------------------------------------

def test_potential_element_zero_transfer(params):
    expected = 4 * math.pi * params.g_newton * params.m**2 / params.mu**2
    assert newton_potential_element(np.zeros(3), params) == pytest.approx(expected)


def test_potential_element_half_at_mu(params):
    v0 = newton_potential_element(np.zeros(3), params)
    vmu = newton_potential_element(np.array([params.mu, 0, 0]), params)
    assert vmu == pytest.approx(0.5 * v0, rel=1e-14)


def test_potential_element_fourier_is_yukawa(params):
    # radial inverse Fourier transform of the momentum-space element against
    # -G m^2 exp(-mu r)/r over mu r in [0.1, 5]
    g, m, mu = params.g_newton, params.m, params.mu
    for mur in (0.1, 0.5, 1.0, 2.0, 5.0):
        r = mur / mu
        # V(r) = (2 pi)^-3 (4 pi/r) int_0^inf dq q sin(qr) (-4 pi G m^2/(q^2+mu^2))
        #      = -(2 G m^2 / (pi r)) int_0^inf dq q sin(qr)/(q^2+mu^2)
        val, _ = quad(lambda q: q / (q * q + mu * mu), 0.0, np.inf,
                      weight="sin", wvar=r, limit=400)
        ft = -g * m**2 * 2.0 / (math.pi * r) * val
        yukawa = -g * m**2 * math.exp(-mu * r) / r
        assert ft == pytest.approx(yukawa, rel=0.01)


def test_newton_amplitude_values(params):
    g, m, mu = params.g_newton, params.m, params.mu
    a0 = m_2to2_newton(0.0, params)
    assert a0 == pytest.approx(-16 * math.pi * g * m**4 / mu**2)
    ratio = m_2to2_newton(-mu * mu, params) / a0
    assert ratio == pytest.approx(0.5, rel=1e-14)


def test_newton_amplitude_real_below_zero(params):
    # real and negative (attractive) for spacelike transfer: the phase
    # convention of gravitas.amplitudes
    for t in (-1e-6, -0.3, -7.0):
        v = m_2to2_newton(t, params)
        assert isinstance(v, float) and v < 0.0


def test_spin2_vertex_rest_frame(params):
    v = FourVector(params.m, 0, 0, 0)
    tensor = spin2_vertex(v, v, params)
    expected = np.zeros((4, 4))
    expected[0, 0] = 2 * math.sqrt(8 * math.pi * params.g_newton) * params.m**2
    assert np.allclose(tensor, expected, atol=1e-14)


def test_spin2_vertex_symmetric(params, rng):
    for _ in range(20):
        p = on_shell(params.m, rng.uniform(-2, 2, 3))
        q = on_shell(params.m, rng.uniform(-2, 2, 3))
        t = spin2_vertex(p, q, params)
        assert np.max(np.abs(t - t.T)) < 1e-14 * max(1.0, np.max(np.abs(t)))


def test_spin2_vertex_trace_oracle(params, rng):
    # trace via metric contraction against an explicit index loop
    p = on_shell(params.m, rng.uniform(-2, 2, 3))
    q = on_shell(params.m, rng.uniform(-2, 2, 3))
    t = spin2_vertex(p, q, params)
    tr = float(np.einsum("ab,ab->", METRIC, t))
    loop = sum(METRIC[a, b] * t[a, b] for a in range(4) for b in range(4))
    pq = minkowski_dot(p, q)
    analytic = math.sqrt(8 * math.pi * params.g_newton) * (
        2 * pq - 4 * (pq + params.m**2))
    assert tr == pytest.approx(loop, rel=1e-14)
    assert tr == pytest.approx(analytic, rel=1e-12)


def test_graviton_tensor_double_metric_contraction():
    tensor, _ = graviton_propagator_tensor(1.0, 1e-6)
    got = float(np.einsum("ab,abcd,cd->", METRIC, tensor, METRIC))
    assert got == pytest.approx(4 + 4 - 16)


def test_graviton_tensor_pair_exchange_symmetry():
    tensor, _ = graviton_propagator_tensor(1.0, 1e-6)
    assert np.max(np.abs(tensor - np.transpose(tensor, (2, 3, 0, 1)))) == 0.0


def test_graviton_tensor_scalar_finite_at_zero():
    _, scalar = graviton_propagator_tensor(0.0, 1e-3)
    assert scalar == pytest.approx(1j * complex(0.0, 1e3))


def test_numerators_static_limit(params):
    cfg = elastic_cm_config(params.m, 1e-6, math.pi / 2)
    n2 = spin2_numerator_closed(cfg, params)
    n0 = spin0_numerator_closed(cfg, params)
    assert n2 == pytest.approx(4 * params.m**4, rel=1e-10)
    assert n0 == pytest.approx(4 * params.m**4, rel=1e-10)


NUMERATOR_ROUTES = {
    "spin2": (spin2_numerator_closed, spin2_numerator_contracted),
    "spin0": (spin0_numerator_closed, spin0_numerator_contracted),
}


def test_contraction_matches_closed_form(params, rng):
    # the amplitudes use the closed form only; the contraction is its
    # independent reference, in the CM frame and in boosted frames
    for _ in range(200):
        p = float(rng.uniform(0.05, 3.0))
        th = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        cm = elastic_cm_config(params.m, p, th, phi)
        moving = boosted(cm, rng.uniform(-0.5, 0.5, 3))
        for closed, contracted in NUMERATOR_ROUTES.values():
            for cfg in (cm, moving):
                n_a = closed(cfg, params)
                n_b = contracted(cfg, params)
                assert abs(n_a - n_b) <= 1e-10 * max(abs(n_a), params.m**4)


def test_spin2_recovers_newton_static(params):
    # static limit against the contact amplitude at negligible regulator
    # mass; the pole displacement must sit far below |t| ~ p^2 too
    pars = ModelParams(g_newton=params.g_newton, m=params.m, mu=1e-9,
                       eps_rel=1e-13)
    for p in (1e-2, 1e-3):
        cfg = elastic_cm_config(pars.m, p, math.pi / 2)
        _, t, _ = mandelstam(cfg)
        ratio = m_2to2_spin2(cfg, pars) / m_2to2_newton(t, pars)
        assert ratio.imag == pytest.approx(0.0, abs=1e-6)
        assert ratio.real == pytest.approx(1.0, rel=30 * p * p)


def test_spin0_equals_spin2_nonrelativistically(params):
    cfg = elastic_cm_config(params.m, 1e-4, 0.8)
    n2 = spin2_numerator_closed(cfg, params)
    n0 = spin0_numerator_closed(cfg, params)
    assert n0 == pytest.approx(n2, rel=1e-6)


def test_spin0_differs_relativistically(params):
    cfg = elastic_cm_config(params.m, params.m, math.pi / 2)
    n2 = spin2_numerator_closed(cfg, params)
    n0 = spin0_numerator_closed(cfg, params)
    assert abs(n2 - n0) / max(abs(n2), abs(n0)) > 0.10


def test_spin0_amplitude_contraction_consistent(params):
    cfg = elastic_cm_config(params.m, 0.7, 1.1)
    amp = m_2to2_spin0(cfg, params)
    _, t, _ = mandelstam(cfg)
    expected = -4 * math.pi * params.g_newton * spin0_numerator_closed(cfg, params) / (-t)
    assert amp.real == pytest.approx(expected, rel=1e-9)


def _compton_config(m, omega, theta):
    k = FourVector(omega, 0.0, 0.0, omega)
    p = FourVector(m, 0.0, 0.0, 0.0)
    total = k + p
    s = -minkowski_dot(total, total)
    kk = cm_momentum(s, 0.0, m)
    kp_rest = np.array([kk, kk * math.sin(theta), 0.0, kk * math.cos(theta)])
    pp_rest = np.array([math.hypot(m, kk), -kk * math.sin(theta), 0.0,
                        -kk * math.cos(theta)])
    outgoing = boost(np.stack([kp_rest, pp_rest]), total[1:] / total[0])
    return KinematicConfig((k, p), outgoing, (0.0, m, 0.0, m))


def test_compton_soft_limit(params):
    omega = 0.01 * params.m
    cfg = _compton_config(params.m, omega, 0.9)
    k, p = cfg.incoming
    kp, _ = cfg.outgoing
    # dominant behavior lam^2/(2 pi)^3 [1/(2 p.k) + 1/(-2 p.k')]
    approx = params.lambda_probe**2 / (2 * math.pi) ** 3 * (
        1.0 / (2 * minkowski_dot(p, k)) + 1.0 / (-2 * minkowski_dot(p, kp)))
    assert m_compton_probe(cfg, params).real == pytest.approx(approx, rel=1e-3)


def test_compton_term_crossing_symmetry(params):
    # crossing the photon lines (k -> -k', k' -> -k) exchanges the two
    # denominators, so the amplitude is symmetric under the term swap
    cfg = _compton_config(params.m, 0.4, 1.2)
    k, p = cfg.incoming
    kp, _ = cfg.outgoing
    m2 = params.m**2
    d1 = minkowski_dot(p + k, p + k) + m2
    d2 = minkowski_dot(p - kp, p - kp) + m2
    d1_crossed = minkowski_dot(p - kp, p - kp) + m2   # term 1 at k -> -k'
    d2_crossed = minkowski_dot(p + k, p + k) + m2     # term 2 at k' -> -k
    assert d1_crossed == pytest.approx(d2, rel=1e-14)
    assert d2_crossed == pytest.approx(d1, rel=1e-14)
    v = m_compton_probe(cfg, params)
    swapped = params.lambda_probe**2 / (2 * math.pi) ** 3 * (
        feynman_propagator(d2, params.eps_abs) + feynman_propagator(d1, params.eps_abs))
    assert v == pytest.approx(swapped, rel=1e-14)


# ---------------------------------------------------------------------------
# boost invariance of every amplitude
# ---------------------------------------------------------------------------

@given(betas)
@settings(max_examples=25, deadline=None)
def test_amplitudes_boost_invariant(beta):
    params = ModelParams(g_newton=1.0, m=1.0, mu=0.05, lambda_probe=0.7)
    fam = TreePoleFamily(params)
    cfg3 = fam.config(0.27)
    cfg2 = elastic_cm_config(params.m, 0.9, 1.1)
    cfgc = _compton_config(params.m, 0.4, 1.2)
    cfge = _emission_config(params, None)
    for cfg, f in ((cfg3, m_3to3_tree), (cfge, m_graviton_emission),
                   (cfg2, m_2to2_spin2), (cfg2, m_2to2_spin0),
                   (cfgc, m_compton_probe)):
        v0 = f(cfg, params)
        v1 = f(boosted(cfg, beta), params)
        assert abs(v1 - v0) <= 1e-9 * abs(v0)
