import math
import tracemalloc
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from gravitas import cli, semiclassical
from gravitas.entanglement import (OMEGA, GaussianState, _powers,
                                   duan_witness, evolve_gaussian,
                                   evolve_gaussian_grid, log_negativity,
                                   product_state, quadratize_newton,
                                   symplectic_propagator, yukawa_derivatives)
from gravitas.errors import StepSizeError
from gravitas.params import ModelParams
from gravitas.semiclassical import (RECORD_EVERY, FeedbackConfig,
                                    _riccati_apply, _riccati_step_matrix,
                                    compare_channels, run_ensemble)
from oracles import feedback_hamiltonian, run_ensemble_by_interval


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
    with pytest.raises(StepSizeError, match="dt must be positive"):
        run_ensemble(_cfg(), _initial(), n_traj=2, n_steps=10, dt=0.0, master_seed=0)


def test_single_step_feedback_momentum_kick():
    # the pair's opposite-sign innovations cancel in the ensemble mean, which
    # follows the force -dV_i/dx_i at the estimates: on the separation axis
    # the relative coordinate r = x1 - x2 of the unit masses (reduced mass
    # m_r = 1/2) obeys r'' = Omega^2 (r - r_eq), Omega^2 = -V''/m_r and
    # r_eq = -V'/V'', so it moves in cosh/sinh, and the centre of mass is free
    cfg = _cfg()
    lin, spring = _separation_gains(cfg)
    mean0 = np.array([0.3, 0.1, -0.2, 0.04])
    dt = 1e-3
    ens = run_ensemble(cfg, GaussianState(mean0, _initial().cov), n_traj=2,
                       n_steps=RECORD_EVERY, dt=dt, master_seed=1)
    t, big = RECORD_EVERY * dt, math.sqrt(-2.0 * spring)
    r0, v0, r_eq = mean0[0] - mean0[2], mean0[1] - mean0[3], -lin / spring
    r = r_eq + (r0 - r_eq) * math.cosh(big * t) + v0 / big * math.sinh(big * t)
    v = (r0 - r_eq) * big * math.sinh(big * t) + v0 * math.cosh(big * t)
    p_cm = mean0[1] + mean0[3]
    x_cm = 0.5 * (mean0[0] + mean0[2]) + 0.5 * p_cm * t
    want = [x_cm + 0.5 * r, 0.5 * (p_cm + v), x_cm - 0.5 * r, 0.5 * (p_cm - v)]
    assert ens.mean[1] == pytest.approx(want, rel=1e-12)


def test_weak_measurement_free_covariance_closed_form():
    # gamma -> 0, G -> 0: covariance follows ballistic spreading; the spread
    # of the pair's means is O(gamma) and stays below the tolerance
    cfg = _cfg(gamma=1e-12, g_newton=1e-300)
    dt, n = 0.01, 500
    ens = run_ensemble(cfg, _initial(1.0), n_traj=2, n_steps=n, dt=dt,
                       master_seed=2)
    cov = ens.cov[-1]
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
        assert abs(ens.cov[-1, i, i] / want - 1.0) < bound


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
    for cov in ens.cov[::50 // RECORD_EVERY]:
        assert np.max(np.abs(cov[:2, 2:])) < 1e-12


def test_ensemble_no_entanglement_and_duan():
    ens = run_ensemble(_cfg(axis="transverse"), _initial(), n_traj=200,
                       n_steps=500, dt=0.01, master_seed=11)
    assert np.all(log_negativity(ens) < 1e-10)
    assert np.all(duan_witness(ens) >= 1.0 - 1e-9)


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
    for k, mean in enumerate(ens.mean[::stride]):
        assert abs(mean[0] - xs[k, 0]) < 0.01 * scale
        assert abs(mean[2] - xs[k, 1]) < 0.01 * scale


def _lyapunov_moments(cfg, initial, n_steps, dt):
    """Exact ensemble moments every RECORD_EVERY steps: the noise-free mean
    recursion z <- S z + drift, the module's Riccati path Sigma_j and the
    covariance of the conditional means, C <- S (C + G_j G_j^T dt) S^T with
    (S, drift) the affine flow over dt and G_j = gain Sigma_j[:, [0, 2]]
    (the unconditional master-equation picture)."""
    h = feedback_hamiltonian(cfg)
    s, drift = symplectic_propagator(h, dt)
    blocks = np.kron(np.eye(2), np.ones((2, 2)))
    theta = _riccati_step_matrix(OMEGA @ h.hmat * blocks, cfg.k_meas, dt)
    gain = math.sqrt(8.0 * cfg.k_meas)
    mean, sigma, c = initial.mean, initial.cov * blocks, np.zeros((4, 4))
    means, sigmas, cs = [], [], []
    for j in range(n_steps + 1):
        if j % RECORD_EVERY == 0:
            means.append(mean)
            sigmas.append(sigma)
            cs.append(c)
        g = gain * sigma[:, [0, 2]]
        c = s @ (c + g @ g.T * dt) @ s.T
        mean = s @ mean + drift
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
    assert np.all(np.abs(ens.mean - means) <= 1e-12 * np.max(np.abs(means)))
    z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 4 * len(cs)))
    rel_sigma = math.sqrt(2.0 / (n_traj // 2))
    for got, sigma, c in zip(ens.cov, sigmas, cs):
        dev = np.abs(np.diag(got) - np.diag(sigma) - np.diag(c))
        assert np.all(dev <= z * rel_sigma * np.diag(c) + 1e-12 * np.diag(sigma))


@pytest.mark.parametrize("axis", ["separation", "transverse"])
def test_moment_recursion_is_first_order_in_dt_with_an_exact_mean(axis):
    # the drift is the exact flow over dt, so the mean agrees with a dt/16
    # reference to rounding; the left-point Kalman kick makes the covariance
    # first order, whose errors against a dt/16 reference fall by
    # (1 - 1/16)/(1/2 - 1/16) = 2.14, then 2.33, per halving (a second-order
    # scheme would read above 4, a non-converging one 1)
    cfg, horizon, n = _cfg(axis=axis), 2.0, 40
    initial = GaussianState(np.array([0.5, 0.0, -0.1, 0.0]), _initial().cov)

    def final_moments(refine):
        means, sigmas, cs = _lyapunov_moments(cfg, initial, n * refine,
                                              horizon / (n * refine))
        return means[-1], sigmas[-1] + cs[-1]

    mean_ref, cov_ref = final_moments(16)
    mean_errs, cov_errs = [], []
    for refine in (1, 2, 4):
        mean, cov = final_moments(refine)
        mean_errs.append(np.max(np.abs(mean - mean_ref)) / np.max(np.abs(mean_ref)))
        cov_errs.append(np.max(np.abs(cov - cov_ref)) / np.max(np.abs(cov_ref)))
    assert max(mean_errs) < 1e-11
    assert min(cov_errs) > 1e-4
    for coarse, fine in zip(cov_errs, cov_errs[1:]):
        assert 1.8 <= coarse / fine <= 2.4


def test_momentum_heating_linear_in_gamma():
    # unconditional Var(p) grows at the backaction rate 2 k per mass (hbar = 1)
    slopes = []
    gammas = (0.2, 0.5, 1.0, 2.0)
    for i, gamma in enumerate(gammas):
        cfg = _cfg(gamma=gamma, g_newton=1e-300)
        ens = run_ensemble(cfg, _initial(), n_traj=128, n_steps=400,
                           dt=0.05 / gamma, master_seed=100 + i)
        times = np.arange(0, 400 + 1, RECORD_EVERY) * (0.05 / gamma)
        var_p_mean = 0.5 * (ens.cov[:, 1, 1] + ens.cov[:, 3, 3])
        rows = slice(None, None, 40 // RECORD_EVERY)
        fit = np.polyfit(times[rows], var_p_mean[rows], 1)
        slopes.append(fit[0])
        assert fit[0] == pytest.approx(2 * cfg.k_meas, rel=0.15)
    logs = np.polyfit(np.log(gammas), np.log(slopes), 1)
    assert logs[0] == pytest.approx(1.0, abs=0.1)


def test_conditional_cov_steady_state_independent_of_initial_width():
    # localization rate must beat 1.4/gamma for 1e-6 by t = 10/gamma;
    # meas_length 0.6 puts the steady width near that scale
    cfg = _cfg(gamma=1.0, g_newton=1e-300, meas_length=0.6)
    dt, t_end = 0.01, 10.0 / cfg.gamma
    a = OMEGA @ feedback_hamiltonian(cfg).hmat
    theta = _riccati_step_matrix(a[:2, :2], cfg.k_meas, dt)
    wide, narrow = _initial(9.0).cov[:2, :2], _initial(0.25).cov[:2, :2]
    for _ in range(int(t_end / dt)):
        wide = _riccati_apply(theta, wide)
        narrow = _riccati_apply(theta, narrow)
    diff = np.max(np.abs(wide - narrow)) / np.max(np.abs(wide))
    assert diff < 1e-6


def test_riccati_apply_stack_matches_repeated_steps():
    # Theta^i applied at once is i single Riccati steps from the same Sigma
    cfg = _cfg()
    blocks = np.kron(np.eye(2), np.ones((2, 2)))
    a = OMEGA @ feedback_hamiltonian(cfg).hmat
    theta = _riccati_step_matrix(a * blocks, cfg.k_meas, 0.01)
    sigma = _initial().cov * blocks
    for got in _riccati_apply(_powers(theta, RECORD_EVERY), sigma):
        assert np.max(np.abs(got - sigma)) <= 1e-13 * np.max(np.abs(sigma))
        sigma = _riccati_apply(theta, sigma)


class _BlockOrthogonalDraws:
    """A stand-in for ``stream``'s generator: its k-th (P, 4) draw is
    sqrt(P) I_4 in rows 4k..4k+3 and zero elsewhere, so z_k^T z_l = P I_4
    when k = l and 0 otherwise, the expectation of Gaussian draws."""

    def __init__(self, master_seed):
        self.k = 0

    def standard_normal(self, shape):
        z = np.zeros(shape)
        z[4 * self.k:4 * self.k + 4] = math.sqrt(shape[0]) * np.eye(4)
        self.k += 1
        return z


@pytest.mark.parametrize("axis, n_steps, horizon, bound", [
    ("separation", 100, 2.0, 1e-12),      # the CLI digest shape
    ("transverse", 100, 2.0, 1e-12),
    ("separation", 2000, 20.0, 1e-12),    # the CLI defaults
    ("transverse", 2000, 20.0, 1e-12),
    ("separation", 20000, 20.0, 1e-11),
])
def test_ensemble_matches_stepped_filter(monkeypatch, axis, n_steps, horizon, bound):
    # each interval's kick z F has covariance F^T F = B^T B, the sum of the
    # per-step Kalman kicks carried to the interval's end; with draws whose
    # second moments are exact (P = 4 pairs per interval) the sampled spread
    # (2/n_traj) delta^T delta is its expectation, so the whole state is the
    # per-step Lyapunov recursion Sigma_t + C_t to rounding
    monkeypatch.setattr(semiclassical, "stream", _BlockOrthogonalDraws)
    n_traj, dt = 8 * (n_steps // RECORD_EVERY), horizon / n_steps
    fb, initial = cli._feedback(dict(cli.ENSEMBLE), axis), cli._initial(cli.ENSEMBLE)
    got = run_ensemble(fb, initial, n_traj, n_steps, dt, 7)
    means, sigmas, cs = _lyapunov_moments(fb, initial, n_steps, dt)
    for g, w in ((got.mean, means), (got.cov, sigmas + cs)):
        assert np.max(np.abs(g - w)) <= bound * np.max(np.abs(w))


C = semiclassical.CHUNK


@pytest.mark.parametrize("axis", ["separation", "transverse"])
@pytest.mark.parametrize("n_intervals, n_traj, gamma, dt", [
    (C // 2 + 1, 8, 1.0, 0.01),       # fewer intervals than one chunk
    (C, 8, 1.0, 0.01),                # exactly one chunk
    (2 * C + 1, 8, 1.0, 0.01),        # a ragged last chunk of one interval
    (1, 8, 1.0, 0.01),                # a single interval
    (C + 3, 2, 1.0, 0.01),            # one trajectory pair
    (3 * C + 5, 4, 1e-300, 2e-4),     # a vanishing measurement rate
])
def test_chunked_ensemble_is_the_interval_loop(axis, n_intervals, n_traj, gamma, dt):
    # stacking a chunk's noise-free Riccati, kick and QR work changes no
    # operation of any interval, and the draws keep their interval order
    cfg = replace(cli._feedback(dict(cli.ENSEMBLE), axis), gamma=gamma)
    initial = cli._initial(cli.ENSEMBLE)
    args = (cfg, initial, n_traj, n_intervals * RECORD_EVERY, dt, 7)
    got, want = run_ensemble(*args), run_ensemble_by_interval(*args)
    assert got.cov.shape == (n_intervals + 1, 4, 4)
    assert np.array_equal(got.cov, want.cov)
    assert np.array_equal(got.mean, want.mean)


def test_ensemble_bit_identical_reruns():
    cfg = _cfg()
    a = run_ensemble(cfg, _initial(), 32, 100, 0.01, master_seed=77)
    b = run_ensemble(cfg, _initial(), 32, 100, 0.01, master_seed=77)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov, b.cov)
    assert np.array_equal(duan_witness(a), duan_witness(b))


def test_ensemble_rejects_partial_record_interval():
    # a streaming loop over whole intervals would drop the trailing steps
    with pytest.raises(ValueError, match="multiple"):
        run_ensemble(_cfg(), _initial(), 8, 10 * RECORD_EVERY + 3, 0.01, 7)


def test_ensemble_run_is_prefix_of_longer_run():
    # the draws are consumed one interval at a time, so a run of N
    # steps is bitwise the first N/R + 1 records of a 2N-step run
    cfg, n = _cfg(axis="transverse"), 30 * RECORD_EVERY
    short = run_ensemble(cfg, _initial(), 12, n, 0.01, 7)
    long = run_ensemble(cfg, _initial(), 12, 2 * n, 0.01, 7)
    assert np.array_equal(short.mean, long.mean[:n // RECORD_EVERY + 1])
    assert np.array_equal(short.cov, long.cov[:n // RECORD_EVERY + 1])


def test_ensemble_memory_does_not_grow_with_steps():
    # the traced peak stays within two (2R, n_traj/2) blocks at any n_steps:
    # each interval draws only (n_traj/2, 4) normals, a fifth of a block, and
    # drawing all 2R innovations of an interval would exceed the bound; the
    # whole draw at 2,000 steps would be 100 blocks
    cfg, n_traj = _cfg(), 2000
    block = 2 * RECORD_EVERY * (n_traj // 2) * 8
    run_ensemble(cfg, _initial(), n_traj, RECORD_EVERY, 0.01, 3)   # warm-up
    for n_steps in (200, 2000):
        tracemalloc.start()
        try:
            run_ensemble(cfg, _initial(), n_traj, n_steps, 0.01, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block


def test_ensemble_survives_a_vanishing_measurement_rate():
    # at gamma = 1e-300 the kick covariance B^T B is about 1e-301, and in
    # this run (the CLI's `semiclassical --gamma 1e-300 --n-traj 4 --n-steps
    # 100000 --horizon 20`) too ill-conditioned for a Cholesky factor, which
    # raises LinAlgError; B's QR factor never forms B^T B
    cfg = replace(cli._feedback(dict(cli.ENSEMBLE), "transverse"), gamma=1e-300)
    ens = run_ensemble(cfg, cli._initial(cli.ENSEMBLE), 4, 100_000, 2e-4, 7)
    assert np.all(np.isfinite(ens.mean)) and np.all(np.isfinite(ens.cov))


def test_compare_channels_headline():
    cfg = _cfg()
    unitary, feedback, sep = compare_channels(
        cfg, _initial(), horizon=15.0, n_steps=1500, n_traj=128, master_seed=9)
    assert np.min(duan_witness(unitary)) < 1.0
    assert np.max(log_negativity(unitary)) > 0.0
    assert np.all(duan_witness(feedback) >= 1.0 - 1e-9)
    assert np.all(log_negativity(feedback) < 1e-10)
    # Newtonian attraction: both channels pull the means together identically
    unitary_sep = evolve_gaussian_grid(_initial(), feedback_hamiltonian(cfg),
                                       RECORD_EVERY * 0.01, 1500 // RECORD_EVERY)
    feedback_sep = run_ensemble(cfg, _initial(), 2, 1500, 0.01, master_seed=9)
    assert np.array_equal(sep, unitary_sep.mean)
    assert np.array_equal(sep, feedback_sep.mean)


@pytest.mark.parametrize("axis", ["separation", "transverse"])
def test_feedback_mean_is_the_unitary_mean(axis):
    # both channels take the same propagator, so from a nonzero mean the
    # ensemble mean is the unitary one bit for bit
    cfg = _cfg(axis=axis)
    initial = GaussianState(np.array([0.4, -0.02, -0.3, 0.05]), _initial().cov)
    ens = run_ensemble(cfg, initial, 8, 300, 0.02, master_seed=4)
    unitary = evolve_gaussian_grid(initial, feedback_hamiltonian(cfg),
                                   RECORD_EVERY * 0.02, 300 // RECORD_EVERY)
    assert np.any(ens.mean[-1] != initial.mean)
    assert np.array_equal(ens.mean, unitary.mean)


def test_compare_channels_runs_one_ensemble(monkeypatch):
    # the separation axis needs only the noise-free mean path: one ensemble,
    # on the transverse axis, whose states are returned as they are, and the
    # same means a separation run would give; one grid per axis, the
    # transverse one shared by both channels
    cfg, calls, grids = _cfg(), [], []
    feedback_covs = semiclassical._feedback_covs

    def counted(fb, *args, **kwargs):
        calls.append(fb.axis)
        return feedback_covs(fb, *args, **kwargs)

    def counted_grid(*args, **kwargs):
        grids.append(args[1])
        return evolve_gaussian_grid(*args, **kwargs)

    monkeypatch.setattr(semiclassical, "_feedback_covs", counted)
    monkeypatch.setattr(semiclassical, "evolve_gaussian_grid", counted_grid)
    _, feedback, sep = compare_channels(cfg, _initial(), horizon=2.0,
                                        n_steps=200, n_traj=8, master_seed=5)
    assert calls == ["transverse"]
    assert len(grids) == 2
    ens = run_ensemble(cfg, _initial(), 8, 200, 0.01, master_seed=5)
    assert np.array_equal(sep, ens.mean)
    ens_t = run_ensemble(_cfg(axis="transverse"), _initial(), 8, 200, 0.01,
                         master_seed=5)
    assert np.array_equal(feedback.mean, ens_t.mean)
    assert np.array_equal(feedback.cov, ens_t.cov)


def test_compare_channels_free_theory_identical():
    # G = 0 and the measurement resource off (nothing to simulate): both
    # channels reduce to the same free spreading
    cfg = FeedbackConfig(gamma=1e-6, d=10.0, masses=(1.0, 1.0),
                         params=ModelParams(g_newton=1e-300, m=1.0, mu=1e-6),
                         meas_length=3.0)
    unitary, feedback, _ = compare_channels(cfg, _initial(), horizon=5.0,
                                            n_steps=500, n_traj=64, master_seed=13)
    assert np.max(np.abs(duan_witness(feedback) - duan_witness(unitary))) < 1e-3
    assert np.all(log_negativity(feedback) < 1e-12)
    assert np.all(log_negativity(unitary) < 1e-12)
