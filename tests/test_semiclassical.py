import math

import numpy as np
import pytest

from gravitas.entanglement import (GaussianState, evolve_gaussian,
                                   fig1_default_initial, fig1_default_params,
                                   product_state, quadratize_newton)
from gravitas.errors import StepSizeError
from gravitas.kinematics import stream
from gravitas.params import ModelParams
from gravitas.semiclassical import (ConditionalState, FeedbackConfig,
                                    compare_channels, run_ensemble,
                                    run_trajectory, step_trajectory)


def _cfg(gamma=1.0, axis="separation", g_newton=10.0, d=10.0, meas_length=3.0):
    return FeedbackConfig(gamma=gamma, d=d, masses=(1.0, 1.0),
                          params=ModelParams(g_newton=g_newton, m=1.0, mu=1e-6),
                          axis=axis, meas_length=meas_length)


def _initial(vx=9.0):
    return product_state((vx, vx), (0.25 / vx, 0.25 / vx))


def test_step_size_guard():
    cfg = _cfg(gamma=5.0)
    state = ConditionalState(np.zeros(4), _initial().cov.copy())
    with pytest.raises(StepSizeError):
        step_trajectory(state, cfg, 0.1, (0.0, 0.0))


def test_single_step_feedback_momentum_kick():
    # dW = 0: momenta move by -dV_i/dx_i dt at the current estimates
    cfg = _cfg()
    lin, spring = cfg.feedback_gains
    mean0 = np.array([0.3, 0.0, -0.2, 0.0])
    state = ConditionalState(mean0.copy(), _initial().cov.copy())
    dt = 1e-3
    new, _ = step_trajectory(state, cfg, dt, (0.0, 0.0))
    f1 = -lin - spring * (mean0[0] - mean0[2])
    f2 = lin + spring * (mean0[0] - mean0[2])
    assert new.mean[1] == pytest.approx(f1 * dt, rel=1e-12)
    assert new.mean[3] == pytest.approx(f2 * dt, rel=1e-12)


def test_weak_measurement_free_covariance_closed_form():
    # gamma -> 0, G -> 0: covariance follows ballistic spreading
    cfg = _cfg(gamma=1e-12, g_newton=1e-300)
    state = ConditionalState(np.zeros(4), _initial(1.0).cov.copy())
    dt, n = 0.01, 500
    for _ in range(n):
        state, _ = step_trajectory(state, cfg, dt, (0.0, 0.0))
    t = dt * n
    vx0, vp0 = 1.0, 0.25
    assert state.cov[0, 0] == pytest.approx(vx0 + t * t * vp0, rel=1e-6)
    assert state.cov[1, 1] == pytest.approx(vp0, rel=1e-6)


def test_ito_consistency_of_noise():
    traj = run_trajectory(_cfg(), _initial(), n_steps=4000, dt=0.005,
                          master_seed=42)
    var = np.var(traj.noise, axis=0) / 0.005
    bound = 5.0 / math.sqrt(4000)
    assert np.all(np.abs(var - 1.0) < bound)


def test_records_follow_means():
    traj = run_trajectory(_cfg(), _initial(), n_steps=50, dt=0.01,
                          master_seed=7, record_every=1)
    gain = math.sqrt(8.0 * _cfg().k_meas)
    # dy - dW/gain = <x> dt, within roundoff
    lhs = traj.records[0] - traj.noise[0] / gain
    assert lhs == pytest.approx([0.0, 0.0], abs=1e-15)


def test_trajectory_matches_unshared_steps():
    # run_trajectory builds the Riccati step matrices once; stepping with
    # step_trajectory's own per-call matrices gives the same bits
    cfg, dt = _cfg(), 0.01
    traj = run_trajectory(cfg, _initial(), n_steps=30, dt=dt, master_seed=5)
    state = ConditionalState(_initial().mean.copy(), _initial().cov.copy())
    for j in range(30):
        state, rec = step_trajectory(state, cfg, dt, traj.noise[j])
        assert np.array_equal(rec, traj.records[j])
        assert np.array_equal(state.cov, traj.covs[j + 1])
        assert np.array_equal(state.mean, traj.means[j + 1])


def test_conditional_cov_stays_block_diagonal():
    traj = run_trajectory(_cfg(), _initial(), n_steps=200, dt=0.01,
                          master_seed=3, record_every=50)
    for cov in traj.covs:
        assert np.max(np.abs(cov[:2, 2:])) == 0.0


def test_ensemble_no_entanglement_and_duan():
    ens = run_ensemble(_cfg(axis="transverse"), _initial(), n_traj=200,
                       n_steps=500, dt=0.01, master_seed=11)
    assert np.all(ens.log_neg < 1e-10)
    assert np.all(ens.duan >= 1.0 - 1e-9)


def test_ensemble_mean_matches_classical_integrator():
    # noise-averaged trajectories against a velocity-Verlet integration of
    # the linearized two-body equations over one characteristic period
    cfg = _cfg()
    lin, spring = cfg.feedback_gains
    horizon = 2 * math.pi * math.sqrt(cfg.d**3 / (cfg.params.g_newton * 2.0))
    n_steps = 4000
    dt = horizon / n_steps
    mean0 = np.array([0.5, 0.0, -0.1, 0.0])
    initial = GaussianState(mean0, _initial().cov)
    ens = run_ensemble(cfg, initial, n_traj=64, n_steps=n_steps, dt=dt,
                       master_seed=5, record_every=n_steps // 8)

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
    for k, t in enumerate(ens.times):
        assert abs(ens.mean_means[k, 0] - xs[k, 0]) < 0.01 * scale
        assert abs(ens.mean_means[k, 2] - xs[k, 1]) < 0.01 * scale


def test_momentum_heating_linear_in_gamma():
    # unconditional Var(p) grows at the backaction rate 2 hbar^2 k per mass
    slopes = []
    gammas = (0.2, 0.5, 1.0, 2.0)
    for i, gamma in enumerate(gammas):
        cfg = _cfg(gamma=gamma, g_newton=1e-300)
        ens = run_ensemble(cfg, _initial(), n_traj=128, n_steps=400,
                           dt=0.05 / gamma, master_seed=100 + i,
                           record_every=40)
        fit = np.polyfit(ens.times, ens.var_p_mean, 1)
        slopes.append(fit[0])
        assert fit[0] == pytest.approx(2 * cfg.k_meas, rel=0.15)
    logs = np.polyfit(np.log(gammas), np.log(slopes), 1)
    assert logs[0] == pytest.approx(1.0, abs=0.1)


def test_conditional_cov_steady_state_independent_of_initial_width():
    # localization rate must beat 1.4/gamma for 1e-6 by t = 10/gamma;
    # meas_length 0.6 puts the steady width near that scale
    cfg = _cfg(gamma=1.0, g_newton=1e-300, meas_length=0.6)
    wide = ConditionalState(np.zeros(4), _initial(9.0).cov.copy())
    narrow = ConditionalState(np.zeros(4), _initial(0.25).cov.copy())
    dt, t_end = 0.01, 10.0 / cfg.gamma
    for _ in range(int(t_end / dt)):
        wide, _ = step_trajectory(wide, cfg, dt, (0.0, 0.0))
        narrow, _ = step_trajectory(narrow, cfg, dt, (0.0, 0.0))
    diff = np.max(np.abs(wide.cov - narrow.cov)) / np.max(np.abs(wide.cov))
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
    comp = compare_channels(cfg, fig1_default_initial(), horizon=15.0,
                            n_steps=1500, n_traj=128, master_seed=9)
    assert np.min(comp.duan_unitary) < 1.0
    assert np.max(comp.log_neg_unitary) > 0.0
    assert np.all(comp.duan_semiclassical >= 1.0 - 1e-9)
    assert np.all(comp.log_neg_semiclassical < 1e-10)
    # Newtonian attraction: both channels pull the means together identically
    late = comp.times_attraction >= 5.0
    u = comp.mean_sep_unitary[late]
    s = comp.mean_sep_semiclassical[late]
    assert np.all(np.abs(u - s) <= 0.01 * np.abs(u))


def test_compare_channels_free_theory_identical():
    # G = 0 and the measurement resource off (nothing to simulate): both
    # channels reduce to the same free spreading
    cfg = FeedbackConfig(gamma=1e-6, d=10.0, masses=(1.0, 1.0),
                         params=ModelParams(g_newton=1e-300, m=1.0, mu=1e-6),
                         meas_length=3.0)
    comp = compare_channels(cfg, fig1_default_initial(), horizon=5.0,
                            n_steps=500, n_traj=64, master_seed=13)
    assert np.max(np.abs(comp.duan_semiclassical - comp.duan_unitary)) < 1e-3
    assert np.all(comp.log_neg_semiclassical < 1e-12)
    assert np.all(comp.log_neg_unitary < 1e-12)
