import math
from statistics import NormalDist

import numpy as np
import pytest

from gravitas.entanglement import (GaussianState, evolve_gaussian,
                                   product_state, quadratize_newton,
                                   yukawa_derivatives)
from gravitas.errors import StepSizeError
from gravitas.params import ModelParams
from gravitas.semiclassical import (RECORD_EVERY, FeedbackConfig,
                                    _mean_drift, _riccati_apply,
                                    _riccati_step_matrix, compare_channels,
                                    run_ensemble)


def _cfg(gamma=1.0, axis="separation", g_newton=10.0, d=10.0, meas_length=3.0):
    return FeedbackConfig(gamma=gamma, d=d, masses=(1.0, 1.0),
                          params=ModelParams(g_newton=g_newton, m=1.0, mu=1e-6),
                          axis=axis, meas_length=meas_length)


def _initial(vx=9.0):
    return product_state((vx, vx), (0.25 / vx, 0.25 / vx))


def _separation_gains(cfg):
    """(V'(d), V''(d)) of the unit-mass pair: the linear force and spring of
    the separation-axis feedback potential."""
    _, vp, vpp = yukawa_derivatives(cfg.d, cfg.params.g_newton, cfg.params.mu, 1, 1)
    return vp, vpp


def test_step_size_guard():
    with pytest.raises(StepSizeError):
        run_ensemble(_cfg(gamma=5.0), _initial(), n_traj=2, n_steps=1, dt=0.1,
                     master_seed=0)


def test_single_step_feedback_momentum_kick():
    # the pair's opposite-sign innovations cancel in the ensemble mean, which
    # takes the dW = 0 steps: momenta move by -dV_i/dx_i dt at the estimates
    cfg = _cfg()
    lin, spring = _separation_gains(cfg)
    mean0 = np.array([0.3, 0.0, -0.2, 0.0])
    dt = 1e-3
    ens = run_ensemble(cfg, GaussianState(mean0, _initial().cov), n_traj=2,
                       n_steps=RECORD_EVERY, dt=dt, master_seed=1)
    z = mean0.copy()
    for _ in range(RECORD_EVERY):  # explicit Euler steps of the same force
        f1 = -lin - spring * (z[0] - z[2])
        z = z + dt * np.array([z[1], f1, z[3], -f1])
    assert ens.mean_means[1, 1] == pytest.approx(z[1], rel=1e-12)
    assert ens.mean_means[1, 3] == pytest.approx(z[3], rel=1e-12)


def test_weak_measurement_free_covariance_closed_form():
    # gamma -> 0, G -> 0: covariance follows ballistic spreading; the spread
    # of the pair's means is O(gamma) and stays below the tolerance
    cfg = _cfg(gamma=1e-12, g_newton=1e-300)
    dt, n = 0.01, 500
    ens = run_ensemble(cfg, _initial(1.0), n_traj=2, n_steps=n, dt=dt,
                       master_seed=2)
    cov = ens.cov_unconditional[-1]
    t = dt * n
    vx0, vp0 = 1.0, 0.25
    assert cov[0, 0] == pytest.approx(vx0 + t * t * vp0, rel=1e-6)
    assert cov[1, 1] == pytest.approx(vp0, rel=1e-6)


def test_ito_consistency_of_noise():
    # measurement alone moves position variance from the conditional state
    # into the spread of the means without changing their sum, exactly when
    # the increments have variance dt; so the unconditional Var(x) of free
    # masses follows the unmeasured spreading plus the backaction heating,
    # vx0 + vp0 t^2 + (2/3) k t^3 (unit masses, hbar = 1)
    cfg = _cfg(g_newton=1e-300)
    n_traj, n_steps, dt = 2000, 400, 0.005
    ens = run_ensemble(cfg, _initial(), n_traj, n_steps, dt, master_seed=42)
    t, vx0, vp0 = n_steps * dt, 9.0, 0.25 / 9.0
    want = vx0 + vp0 * t * t + 2.0 / 3.0 * cfg.k_meas * t**3
    bound = 5.0 * math.sqrt(2.0 / (n_traj // 2))  # relative sigma of the spread
    for i in (0, 2):
        assert abs(ens.cov_unconditional[-1, i, i] / want - 1.0) < bound


def test_conditional_cov_stays_block_diagonal():
    # local measurement and feedback never correlate the conditional
    # covariances of the two masses; with the measurement nearly off the
    # means do not spread, so the unconditional covariance is the conditional
    # one, while the unitary channel correlates the masses at this coupling
    cfg = _cfg(gamma=1e-20)
    ens = run_ensemble(cfg, _initial(), n_traj=2, n_steps=200, dt=0.01,
                       master_seed=3)
    h = quadratize_newton(cfg.d, cfg.params, cfg.masses, axis=cfg.axis)
    assert np.max(np.abs(evolve_gaussian(_initial(), h, 2.0).cov[:2, 2:])) > 1e-2
    for cov in ens.cov_unconditional[::50 // RECORD_EVERY]:
        assert np.max(np.abs(cov[:2, 2:])) < 1e-12


def test_ensemble_no_entanglement_and_duan():
    ens = run_ensemble(_cfg(axis="transverse"), _initial(), n_traj=200,
                       n_steps=500, dt=0.01, master_seed=11)
    assert np.all(ens.log_neg < 1e-10)
    assert np.all(ens.duan >= 1.0 - 1e-9)


def test_ensemble_mean_matches_classical_integrator():
    # noise-averaged trajectories against a velocity-Verlet integration of
    # the linearized two-body equations over one characteristic period
    cfg = _cfg()
    lin, spring = _separation_gains(cfg)
    horizon = 2 * math.pi * math.sqrt(cfg.d**3 / (cfg.params.g_newton * 2.0))
    n_steps = 4000
    dt = horizon / n_steps
    mean0 = np.array([0.5, 0.0, -0.1, 0.0])
    initial = GaussianState(mean0, _initial().cov)
    ens = run_ensemble(cfg, initial, n_traj=64, n_steps=n_steps, dt=dt,
                       master_seed=5)
    stride = n_steps // 8 // RECORD_EVERY

    # classical oracle: symplectic leapfrog of the same linearized force
    x = np.array([mean0[0], mean0[2]])
    p = np.array([mean0[1], mean0[3]])

    def force(x):
        f1 = -lin - spring * (x[0] - x[1])
        return np.array([f1, -f1])

    taus = [0.0]
    xs = [x.copy()]
    small = dt / 4
    for i in range(4 * n_steps):
        p = p + 0.5 * small * force(x)
        x = x + small * p
        p = p + 0.5 * small * force(x)
        if (i + 1) % (4 * (n_steps // 8)) == 0:
            taus.append((i + 1) * small)
            xs.append(x.copy())
    xs = np.array(xs)

    scale = np.max(np.abs(xs))
    for k, mean in enumerate(ens.mean_means[::stride]):
        assert abs(mean[0] - xs[k, 0]) < 0.01 * scale
        assert abs(mean[2] - xs[k, 1]) < 0.01 * scale


def _lyapunov_moments(cfg, initial, n_steps, dt):
    """Exact ensemble moments every RECORD_EVERY steps: the noise-free mean
    recursion, the module's Riccati path Sigma_j and the covariance of the
    conditional means, C <- M (C + G_j G_j^T dt) M^T with M = I + A dt and
    G_j = gain Sigma_j[:, [0, 2]] (the unconditional master-equation picture)."""
    a, b = _mean_drift(cfg)
    blocks = np.kron(np.eye(2), np.ones((2, 2)))
    theta = _riccati_step_matrix(a * blocks, cfg.k_meas, dt)
    m = np.eye(4) + a * dt
    gain = math.sqrt(8.0 * cfg.k_meas)
    mean, sigma, c = initial.mean, initial.cov * blocks, np.zeros((4, 4))
    means, sigmas, cs = [], [], []
    for j in range(n_steps + 1):
        if j % RECORD_EVERY == 0:
            means.append(mean)
            sigmas.append(sigma)
            cs.append(c)
        g = gain * sigma[:, [0, 2]]
        c = m @ (c + g @ g.T * dt) @ m.T
        mean = mean + (a @ mean + b) * dt
        sigma = _riccati_apply(theta, sigma)
    return np.array(means), np.array(sigmas), np.array(cs)


def test_ensemble_moments_match_lyapunov_recursion():
    # the pair mean is exactly the noise-free recursion; each diagonal entry
    # of the sampled spread (2/n_traj) delta^T delta is C_ii chi2_P / P with
    # P = n_traj/2 independent pairs, so it sits within z sqrt(2/P) C_ii of
    # C_ii. z = 4.52 is the normal Bonferroni bound over every (snapshot,
    # entry) for a family-wise false-failure rate of 1e-3; the exact chi2
    # tails at P = 2000 make it at most 1.4e-3, and less, as the snapshots
    # are correlated. Scaling the spread by 1/n_traj puts it C_ii/2 off,
    # 3.5x the bound.
    cfg = _cfg()
    n_traj, n_steps, dt = 4000, 400, 0.01
    initial = GaussianState(np.array([0.5, 0.0, -0.1, 0.0]), _initial().cov)
    ens = run_ensemble(cfg, initial, n_traj, n_steps, dt, master_seed=21)
    means, sigmas, cs = _lyapunov_moments(cfg, initial, n_steps, dt)
    assert np.all(np.abs(ens.mean_means - means) <= 1e-12 * np.max(np.abs(means)))
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 4 * len(cs)))
    rel_sigma = math.sqrt(2.0 / (n_traj // 2))
    for got, sigma, c in zip(ens.cov_unconditional, sigmas, cs):
        dev = np.abs(np.diag(got) - np.diag(sigma) - np.diag(c))
        assert np.all(dev <= z * rel_sigma * np.diag(c) + 1e-12 * np.diag(sigma))


def test_momentum_heating_linear_in_gamma():
    # unconditional Var(p) grows at the backaction rate 2 k per mass (hbar = 1)
    slopes = []
    gammas = (0.2, 0.5, 1.0, 2.0)
    for i, gamma in enumerate(gammas):
        cfg = _cfg(gamma=gamma, g_newton=1e-300)
        ens = run_ensemble(cfg, _initial(), n_traj=128, n_steps=400,
                           dt=0.05 / gamma, master_seed=100 + i)
        rows = slice(None, None, 40 // RECORD_EVERY)
        fit = np.polyfit(ens.times[rows], ens.var_p_mean[rows], 1)
        slopes.append(fit[0])
        assert fit[0] == pytest.approx(2 * cfg.k_meas, rel=0.15)
    logs = np.polyfit(np.log(gammas), np.log(slopes), 1)
    assert logs[0] == pytest.approx(1.0, abs=0.1)


def test_conditional_cov_steady_state_independent_of_initial_width():
    # localization rate must beat 1.4/gamma for 1e-6 by t = 10/gamma;
    # meas_length 0.6 puts the steady width near that scale
    cfg = _cfg(gamma=1.0, g_newton=1e-300, meas_length=0.6)
    dt, t_end = 0.01, 10.0 / cfg.gamma
    theta = _riccati_step_matrix(_mean_drift(cfg)[0][:2, :2], cfg.k_meas, dt)
    wide, narrow = _initial(9.0).cov[:2, :2], _initial(0.25).cov[:2, :2]
    for _ in range(int(t_end / dt)):
        wide = _riccati_apply(theta, wide)
        narrow = _riccati_apply(theta, narrow)
    diff = np.max(np.abs(wide - narrow)) / np.max(np.abs(wide))
    assert diff < 1e-6


def test_ensemble_bit_identical_reruns():
    cfg = _cfg()
    a = run_ensemble(cfg, _initial(), 32, 100, 0.01, master_seed=77)
    b = run_ensemble(cfg, _initial(), 32, 100, 0.01, master_seed=77)
    assert np.array_equal(a.mean_means, b.mean_means)
    assert np.array_equal(a.cov_unconditional, b.cov_unconditional)
    assert np.array_equal(a.duan, b.duan)


def test_compare_channels_headline():
    cfg = _cfg()
    comp = compare_channels(cfg, _initial(), horizon=15.0,
                            n_steps=1500, n_traj=128, master_seed=9)
    assert np.min(comp.duan_unitary) < 1.0
    assert np.max(comp.log_neg_unitary) > 0.0
    assert np.all(comp.duan_semiclassical >= 1.0 - 1e-9)
    assert np.all(comp.log_neg_semiclassical < 1e-10)
    # Newtonian attraction: both channels pull the means together identically
    late = comp.times >= 5.0
    u = comp.mean_sep_unitary[late]
    s = comp.mean_sep_semiclassical[late]
    assert np.all(np.abs(u - s) <= 0.01 * np.abs(u))


def test_compare_channels_free_theory_identical():
    # G = 0 and the measurement resource off (nothing to simulate): both
    # channels reduce to the same free spreading
    cfg = FeedbackConfig(gamma=1e-6, d=10.0, masses=(1.0, 1.0),
                         params=ModelParams(g_newton=1e-300, m=1.0, mu=1e-6),
                         meas_length=3.0)
    comp = compare_channels(cfg, _initial(), horizon=5.0,
                            n_steps=500, n_traj=64, master_seed=13)
    assert np.max(np.abs(comp.duan_semiclassical - comp.duan_unitary)) < 1e-3
    assert np.all(comp.log_neg_semiclassical < 1e-12)
    assert np.all(comp.log_neg_unitary < 1e-12)
