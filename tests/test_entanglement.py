import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from gravitas.entanglement import (FIG1_DEFAULTS, OMEGA, GaussianState,
                                   QuadraticHamiltonian, duan_witness,
                                   evolve_gaussian, evolve_gaussian_grid,
                                   expm, log_negativity,
                                   product_state, quadratize_newton,
                                   symplectic_propagator, yukawa_derivatives)
from gravitas.kinematics import stream
from gravitas.params import ModelParams


def _two_mode_squeezed_cov(r):
    """Standard two-mode squeezed covariance (vacuum variance 1/2)."""
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    return 0.5 * np.array([[c, 0, s, 0],
                           [0, c, 0, -s],
                           [s, 0, c, 0],
                           [0, -s, 0, c]])


def _minimal_product(vx):
    return product_state((vx, vx), (0.25 / vx, 0.25 / vx))


def _initial():
    return _minimal_product(FIG1_DEFAULTS["var_x"])


def _fig1_params():
    return ModelParams(g_newton=FIG1_DEFAULTS["g_newton"], m=FIG1_DEFAULTS["m"],
                       mu=FIG1_DEFAULTS["mu"])


def _fig1_hamiltonian(params=None, axis="transverse"):
    m = FIG1_DEFAULTS["m"]
    return quadratize_newton(FIG1_DEFAULTS["d"], params or _fig1_params(),
                             (m, m), axis=axis)


# ---------------------------------------------------------------------------
# quadratized potential
# ---------------------------------------------------------------------------

def test_newton_second_derivative_closed_form():
    # mu -> 0: V'' at r = d is -2 G m1 m2 / d^3
    d, g, m1, m2 = 7.0, 0.3, 2.0, 5.0
    _, _, vpp = yukawa_derivatives(d, g, 0.0, m1, m2)
    assert vpp == pytest.approx(-2 * g * m1 * m2 / d**3, rel=1e-14)


def test_yukawa_derivatives_match_finite_differences():
    d, g, mu, m1, m2 = 4.0, 1.3, 0.21, 1.0, 2.0

    def v(r):
        return -g * m1 * m2 * math.exp(-mu * r) / r

    h = 1e-5
    _, vp, vpp = yukawa_derivatives(d, g, mu, m1, m2)
    fd1 = (v(d + h) - v(d - h)) / (2 * h)
    fd2 = (v(d + h) - 2 * v(d) + v(d - h)) / (h * h)
    assert vp == pytest.approx(fd1, rel=1e-8)
    assert vpp == pytest.approx(fd2, rel=1e-6)


def test_quadratize_coupling_coefficients():
    pars = ModelParams(g_newton=0.5, m=1.0, mu=1e-12)
    m1, m2, d = 2.0, 3.0, 5.0
    h = quadratize_newton(d, pars, (m1, m2))
    k = 2 * pars.g_newton * m1 * m2 / d**3
    assert h.hmat[0, 2] == pytest.approx(k, rel=1e-9)     # +2 G m1 m2/d^3 x1 x2
    assert h.hmat[0, 0] == pytest.approx(-k, rel=1e-9)    # matching diagonals
    assert h.hmat[2, 2] == pytest.approx(-k, rel=1e-9)
    assert h.hmat[1, 1] == pytest.approx(1 / m1)
    assert h.hmat[3, 3] == pytest.approx(1 / m2)
    assert h.linear[0] == -h.linear[2]


def test_quadratize_free_limit_block_diagonal():
    pars = ModelParams(g_newton=1e-300, m=1.0, mu=1e-6)
    h = quadratize_newton(10.0, pars, (1.0, 1.0))
    free = np.diag([0.0, 1.0, 0.0, 1.0])
    assert np.max(np.abs(h.hmat - free)) < 1e-290
    assert np.max(np.abs(h.linear)) < 1e-290


def test_transverse_spring_is_stable():
    pars = _fig1_params()
    h = quadratize_newton(10.0, pars, (1.0, 1.0), axis="transverse")
    assert h.hmat[0, 0] > 0          # stable spring
    assert h.linear[0] == 0.0        # no transverse mean force


# ---------------------------------------------------------------------------
# symplectic evolution
# ---------------------------------------------------------------------------

def _affine_generator(h):
    gen = np.zeros((5, 5))
    gen[:4, :4] = OMEGA @ h.hmat
    gen[:4, 4] = OMEGA @ h.linear
    return gen


@pytest.mark.parametrize("axis", ["transverse", "separation"])
def test_expm_matches_scipy_on_both_axes(axis):
    h = _fig1_hamiltonian(axis=axis)
    gen = _affine_generator(h)
    for t in np.linspace(0.0, 30.0, 31):
        ref = scipy_expm(gen * t)
        assert np.max(np.abs(expm(gen * t) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_expm_scaling_and_squaring_matches_scipy():
    a = 4.0 * stream(3, 0).normal(size=(5, 5))
    assert np.abs(a).sum(axis=0).max() > 5.371920351148152  # theta_13: squarings run
    ref = scipy_expm(a)
    assert np.max(np.abs(expm(a) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_expm_of_zero_is_exactly_identity():
    for n in (2, 4, 5):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))


def test_grid_matches_per_point_scipy_route():
    h = _fig1_hamiltonian()
    initial = _initial()
    gen = _affine_generator(h)
    states = evolve_gaussian_grid(initial, h, 30.0 / 40, 40)
    assert states.mean.shape == (41, 4) and states.cov.shape == (41, 4, 4)
    assert np.array_equal(states[0].mean, initial.mean)
    assert np.array_equal(states[0].cov, initial.cov)
    for j, st in enumerate(states):
        full = scipy_expm(gen * (j * 30.0 / 40))
        s, drift = full[:4, :4], full[:4, 4]
        cov = s @ initial.cov @ s.T
        assert np.max(np.abs(st.cov - cov)) <= 1e-12 * np.max(np.abs(cov))
        assert np.max(np.abs(st.mean - (s @ initial.mean + drift))) <= 1e-12


def test_evolve_identity_at_zero_time():
    st0 = _minimal_product(1.0)
    pars = _fig1_params()
    h = quadratize_newton(10.0, pars, (1.0, 1.0))
    st1 = evolve_gaussian(st0, h, 0.0)
    assert np.allclose(st1.cov, st0.cov)
    assert np.allclose(st1.mean, st0.mean)


def test_free_particle_spreading():
    m, t = 2.0, 3.0
    vx, vp = 1.5, 0.7
    st0 = product_state((vx, vx), (vp, vp))
    h = QuadraticHamiltonian(np.diag([0.0, 1 / m, 0.0, 1 / m]), np.zeros(4))
    st1 = evolve_gaussian(st0, h, t)
    assert st1.cov[0, 0] == pytest.approx(vx + t * t * vp / m**2, rel=1e-12)


@given(st.floats(-0.5, 0.5), st.floats(0.1, 2.0), st.floats(0.0, 5.0))
@settings(max_examples=40)
def test_symplectic_condition(spring, mass, t):
    h = QuadraticHamiltonian(
        np.array([[spring, 0, -spring, 0],
                  [0, 1 / mass, 0, 0],
                  [-spring, 0, spring, 0],
                  [0, 0, 0, 1 / mass]], dtype=float), np.zeros(4))
    s, _ = symplectic_propagator(h, t)
    assert np.max(np.abs(s.T @ OMEGA @ s - OMEGA)) < 1e-10 * max(
        1.0, float(np.max(np.abs(s))) ** 2)


def test_purity_conserved():
    pars = _fig1_params()
    h = quadratize_newton(10.0, pars, (1.0, 1.0), axis="transverse")
    st0 = _minimal_product(9.0)
    d0 = np.linalg.det(st0.cov)
    for t in (1.0, 5.0, 20.0):
        d1 = np.linalg.det(evolve_gaussian(st0, h, t).cov)
        assert d1 == pytest.approx(d0, rel=1e-9)


def test_validity_preserved():
    pars = _fig1_params()
    for axis in ("separation", "transverse"):
        h = quadratize_newton(10.0, pars, (1.0, 1.0), axis=axis)
        st0 = _minimal_product(4.0)
        for t in (0.5, 3.0, 12.0):
            assert evolve_gaussian(st0, h, t).is_valid()


def test_substep_composition_oracle():
    pars = _fig1_params()
    h = quadratize_newton(10.0, pars, (1.0, 1.0), axis="transverse")
    st_big = evolve_gaussian(_minimal_product(9.0), h, 6.0)
    st_small = _minimal_product(9.0)
    for _ in range(1000):
        st_small = evolve_gaussian(st_small, h, 6.0 / 1000)
    assert np.max(np.abs(st_big.cov - st_small.cov)) < 1e-8 * np.max(np.abs(st_big.cov))
    assert np.max(np.abs(st_big.mean - st_small.mean)) < 1e-8 + 0.0


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

def test_duan_saturated_by_matched_product():
    # identical minimal Gaussians: Var(x-) Var(p+) = 1 exactly (hbar = 1)
    for vx in (0.5, 1.0, 4.0):
        assert duan_witness(_minimal_product(vx)) == pytest.approx(1.0, rel=1e-14)


def test_duan_two_mode_squeezed_value():
    for r in (0.2, 0.7, 1.5):
        st2 = GaussianState(np.zeros(4), _two_mode_squeezed_cov(r))
        assert duan_witness(st2) == pytest.approx(math.exp(-4 * r), rel=1e-12)


def test_duan_product_states_never_below_one(rng):
    for _ in range(1000):
        vx = rng.uniform(0.1, 5.0, 2)
        extra = rng.uniform(1.0, 3.0, 2)      # mixedness factor
        vp = extra * 0.25 / vx
        c_max = np.sqrt(vx * vp - 0.25)
        c = rng.uniform(-1.0, 1.0, 2) * c_max
        cov = np.zeros((4, 4))
        for i in range(2):
            cov[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[vx[i], c[i]], [c[i], vp[i]]]
        state = GaussianState(np.zeros(4), cov)
        assert duan_witness(state) >= 1.0 - 1e-12


def test_duan_displacement_invariant():
    st0 = _minimal_product(2.0)
    shifted = GaussianState(st0.mean + np.array([3.0, -1.0, 0.5, 2.0]), st0.cov)
    assert duan_witness(shifted) == duan_witness(st0)


def test_log_negativity_product_zero():
    assert log_negativity(_minimal_product(3.0)) == 0.0


def test_log_negativity_two_mode_squeezed():
    # E_N = 2r in the natural-log convention (= 2r/ln 2 in log2 units)
    for r in (0.3, 1.0):
        st2 = GaussianState(np.zeros(4), _two_mode_squeezed_cov(r))
        assert log_negativity(st2) == pytest.approx(2 * r, rel=1e-10)


def test_duan_violation_implies_log_negativity():
    pars = _fig1_params()
    h = quadratize_newton(10.0, pars, (1.0, 1.0), axis="transverse")
    st0 = _initial()
    for t in np.linspace(0.5, 20.0, 30):
        st1 = evolve_gaussian(st0, h, float(t))
        if duan_witness(st1) < 1.0:
            assert log_negativity(st1) > 0.0


# ---------------------------------------------------------------------------
# Fig.-1 circuit
# ---------------------------------------------------------------------------

def test_fig1_zero_time():
    st = evolve_gaussian(_initial(), _fig1_hamiltonian(), 0.0)
    assert duan_witness(st) >= 1.0 - 1e-12
    assert log_negativity(st) == 0.0


def test_fig1_no_coupling_no_entanglement():
    h = _fig1_hamiltonian(ModelParams(g_newton=1e-30, m=1.0, mu=1e-6))
    for t in (1.0, 10.0):
        assert log_negativity(evolve_gaussian(_initial(), h, t)) <= 1e-12


def test_fig1_default_crossing_vs_substep_oracle():
    # the initial product state sits exactly on the Duan boundary, so the
    # crossing is detected against a threshold slightly below 1
    h = _fig1_hamiltonian()
    dt = 30.0 / 600
    states = evolve_gaussian_grid(_initial(), h, dt, 600)
    j = next(j for j, st in enumerate(states) if duan_witness(st) < 1.0 - 1e-3)
    t_star, duan_at = j * dt, duan_witness(states[j])
    # substep-composition oracle: dense small-step evolution to t_star
    state = _initial()
    n = 1000
    for _ in range(n):
        state = evolve_gaussian(state, h, t_star / n)
    assert duan_witness(state) == pytest.approx(duan_at, rel=0.01)


def test_fig1_entanglement_monotone_onset():
    # E_N nondecreasing over the first quarter period of the relative mode
    h = _fig1_hamiltonian()
    spring = h.hmat[0, 0]
    quarter = 0.25 * 2 * math.pi / math.sqrt(2 * spring / 1.0)
    st0 = _initial()
    values = [log_negativity(evolve_gaussian(st0, h, float(t)))
              for t in np.linspace(0.0, quarter, 25)]
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


def test_fig1_default_drops_below_one():
    st = evolve_gaussian(_initial(), _fig1_hamiltonian(), 11.1)
    assert duan_witness(st) < 0.2
    assert log_negativity(st) > 1.0


def test_state_validity_definition():
    st0 = _minimal_product(1.0)
    assert st0.is_valid()
    bad = GaussianState(np.zeros(4), 0.01 * np.eye(4))  # sub-Heisenberg
    assert not bad.is_valid()


# ---------------------------------------------------------------------------
# a time series is one state with a leading axis
# ---------------------------------------------------------------------------

def test_batch_witnesses_match_single_states_bit_for_bit():
    states = evolve_gaussian_grid(_initial(), _fig1_hamiltonian(), 30.0 / 40, 40)
    log_neg, duan, valid = log_negativity(states), duan_witness(states), states.is_valid()
    assert log_neg.shape == duan.shape == valid.shape == (41,)
    for j in range(41):
        assert log_neg[j] == log_negativity(states[j])
        assert duan[j] == duan_witness(states[j])
        assert valid[j] == states[j].is_valid()


def test_log_negativity_of_product_state_is_positive_zero():
    # 2 nu_- = 1 exactly: -ln(1) is -0.0, which the clamp must not pass on
    assert not np.signbit(log_negativity(_minimal_product(1.0)))


def test_state_rejects_disagreeing_leading_shapes():
    with pytest.raises(ValueError, match="leading axes"):
        GaussianState(np.zeros((3, 4)), np.zeros((2, 4, 4)))
    with pytest.raises(ValueError, match=r"hmat must be \(4, 4\)"):
        QuadraticHamiltonian(np.eye(2), np.zeros(4))


def test_symmetry_is_checked_against_each_state_scale():
    # the small state's asymmetry is below TOL_SYMMETRY times the batch's
    # max |cov| but far above its own scale
    small = np.eye(4)
    small[0, 1] += 1e-9
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(np.zeros((2, 4)), np.stack([1e6 * np.eye(4), small]))
    with pytest.raises(ValueError, match="hmat must be symmetric"):
        QuadraticHamiltonian(small - np.eye(4), np.zeros(4))
