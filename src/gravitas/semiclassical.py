"""Measurement-and-feedback realization of semiclassical gravity.

Each timestep weakly measures both positions, feeds the Kalman estimates
into a local potential for the other mass, and applies the product feedback
unitary exp(-i sum_i V_i(x_i) dt). The feedback is linearized about the
mean separation d with the same spring constants as the quadratized unitary
channel, so comparing the two isolates the channel structure:

* conditional covariances stay block-diagonal across the 1|2 partition
  (local measurement, local feedback), so the unconditional state is a
  classically correlated mixture of products and carries no entanglement;

* ensemble-mean positions follow the same linear Newtonian dynamics as the
  unitary channel.

Measurement convention (hbar = 1 unless stated): continuous position
measurement of strength k = gamma / (8 meas_length^2), record
dy = <x> dt + dW / sqrt(8 k), conditional moment equations of the standard
Kalman-Bucy form with backaction heating dVar(p)/dt = 2 hbar^2 k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import (GaussianState, duan_witness, evolve_gaussian_grid,
                           expm, log_negativity, quadratize_newton,
                           yukawa_derivatives)
from .errors import StepSizeError
from .kinematics import stream
from .params import ModelParams


@dataclass(frozen=True)
class FeedbackConfig:
    """Measurement rate, geometry, and feedback gains of the adversarial model."""

    gamma: float
    d: float
    masses: tuple[float, float]
    params: ModelParams
    axis: str = "separation"
    meas_length: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("measurement rate gamma must be positive")
        if self.d <= 0:
            raise ValueError("separation d must be positive")

    @property
    def k_meas(self) -> float:
        """Measurement strength (units 1/(length^2 time))."""
        return self.gamma / (8.0 * self.meas_length**2)

    @property
    def feedback_gains(self) -> tuple[float, float]:
        """(linear, spring) of the local feedback potential
        V_i = linear (x_i - est_j) (+/-) + spring (x_i - est_j)^2 / 2,
        matching the quadratized unitary channel on the same axis."""
        _, vp, vpp = yukawa_derivatives(self.d, self.params.g_newton,
                                        self.params.mu, *self.masses)
        if self.axis == "separation":
            return vp, vpp
        if self.axis == "transverse":
            return 0.0, vp / self.d
        raise ValueError(f"axis must be 'separation' or 'transverse', got {self.axis!r}")


def _riccati_step_matrix(mass: float, grad: float, k: float, dt: float,
                         hbar: float) -> np.ndarray:
    """exp(dt * [[A, D], [Ctil, -A^T]]) for the per-mass 2x2 Riccati flow
    Sigma' = A Sigma + Sigma A^T + D - Sigma Ctil Sigma."""
    a = np.array([[0.0, 1.0 / mass], [grad, 0.0]])
    d = np.array([[0.0, 0.0], [0.0, 2.0 * hbar**2 * k]])
    c = np.array([[8.0 * k, 0.0], [0.0, 0.0]])
    gen = np.zeros((4, 4))
    gen[:2, :2] = a
    gen[:2, 2:] = d
    gen[2:, :2] = c
    gen[2:, 2:] = -a.T
    return expm(gen * dt)


def _riccati_apply(theta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    num = theta[:2, :2] @ sigma + theta[:2, 2:]
    den = theta[2:, :2] @ sigma + theta[2:, 2:]
    out = num @ np.linalg.inv(den)
    return 0.5 * (out + out.T)


def _mean_drift(cfg: FeedbackConfig) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) of the deterministic mean flow dz = (A z + b) dt with the
    estimate of the other mass inserted for its coordinate."""
    m1, m2 = cfg.masses
    lin, spring = cfg.feedback_gains
    a = np.zeros((4, 4))
    a[0, 1] = 1.0 / m1
    a[2, 3] = 1.0 / m2
    a[1, 0] = -spring
    a[1, 2] = spring
    a[3, 0] = spring
    a[3, 2] = -spring
    b = np.array([0.0, -lin, 0.0, lin])
    return a, b


def _riccati_thetas(cfg: FeedbackConfig, dt: float) -> list[np.ndarray]:
    """The two per-mass Riccati step matrices; fixed for a given (cfg, dt)."""
    _, spring = cfg.feedback_gains
    return [_riccati_step_matrix(m, -spring, cfg.k_meas, dt, cfg.hbar) for m in cfg.masses]


def _guard_dt(cfg: FeedbackConfig, dt: float) -> None:
    if dt <= 0:
        raise StepSizeError("dt must be positive")
    if dt * cfg.gamma > 0.1:
        raise StepSizeError(f"dt*gamma = {dt * cfg.gamma} exceeds the 0.1 accuracy guard")


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleResult:
    times: np.ndarray
    mean_means: np.ndarray          # (n_times, 4) ensemble average of cond. means
    cov_unconditional: np.ndarray   # (n_times, 4, 4)
    log_neg: np.ndarray
    duan: np.ndarray
    var_p_mean: np.ndarray          # average of Var(p1), Var(p2), unconditional
    n_traj: int


def run_ensemble(cfg: FeedbackConfig, initial: GaussianState, n_traj: int,
                 n_steps: int, dt: float, master_seed: int,
                 record_every: int = 10) -> EnsembleResult:
    """Ensemble statistics of the measurement-feedback model.

    The conditional covariance path is deterministic and shared by all
    trajectories; only the means are stochastic, and they follow a linear
    recursion, so the whole ensemble is advanced with one matrix multiply
    per step. ``n_traj`` must be even: trajectory j < n_traj/2 draws its
    increments from stream (master_seed, j) and trajectory j + n_traj/2
    takes them with opposite sign, which cancels the innovation noise in
    ensemble means exactly for this linear model.

    Unconditional covariance = shared conditional covariance + sample
    covariance of the conditional means (a classically correlated, PSD
    addition), from which the witnesses are evaluated.
    """
    _guard_dt(cfg, dt)
    if n_traj % 2:
        raise ValueError("n_traj must be even (opposite-sign noise pairs)")
    gain = math.sqrt(8.0 * cfg.k_meas)
    a, b = _mean_drift(cfg)

    dws = np.empty((n_traj // 2, n_steps, 2))
    for j in range(n_traj // 2):
        dws[j] = stream(master_seed, j).normal(0.0, math.sqrt(dt), size=(n_steps, 2))
    dws = np.concatenate([dws, -dws], axis=0)

    means = np.broadcast_to(initial.mean, (n_traj, 4)).copy()
    cov_blocks = [initial.cov[0:2, 0:2].copy(), initial.cov[2:4, 2:4].copy()]
    thetas = _riccati_thetas(cfg, dt)

    def snapshot(step_idx: int, out: dict) -> None:
        cov_cond = np.zeros((4, 4))
        cov_cond[0:2, 0:2] = cov_blocks[0]
        cov_cond[2:4, 2:4] = cov_blocks[1]
        centered = means - means.mean(axis=0)
        cov_cls = centered.T @ centered / n_traj
        cov_unc = cov_cond + cov_cls
        st = GaussianState(means.mean(axis=0), cov_unc, cfg.hbar)
        out["times"].append(step_idx * dt)
        out["mean_means"].append(means.mean(axis=0))
        out["covs"].append(cov_unc)
        out["log_neg"].append(log_negativity(st))
        out["duan"].append(duan_witness(st))
        out["var_p"].append(0.5 * (cov_unc[1, 1] + cov_unc[3, 3]))

    out: dict = {"times": [], "mean_means": [], "covs": [],
                 "log_neg": [], "duan": [], "var_p": []}
    snapshot(0, out)
    for j in range(n_steps):
        gx1 = gain * cov_blocks[0][0, 0]
        gp1 = gain * cov_blocks[0][0, 1]
        gx2 = gain * cov_blocks[1][0, 0]
        gp2 = gain * cov_blocks[1][0, 1]
        means = means + np.stack([gx1 * dws[:, j, 0], gp1 * dws[:, j, 0],
                                  gx2 * dws[:, j, 1], gp2 * dws[:, j, 1]], axis=1)
        means = means + (means @ a.T + b) * dt
        cov_blocks = [_riccati_apply(thetas[i], cov_blocks[i]) for i in range(2)]
        if (j + 1) % record_every == 0:
            snapshot(j + 1, out)

    return EnsembleResult(
        times=np.array(out["times"]),
        mean_means=np.array(out["mean_means"]),
        cov_unconditional=np.array(out["covs"]),
        log_neg=np.array(out["log_neg"]),
        duan=np.array(out["duan"]),
        var_p_mean=np.array(out["var_p"]),
        n_traj=n_traj,
    )


# ---------------------------------------------------------------------------
# unitary vs semiclassical comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelComparison:
    times: np.ndarray
    duan_unitary: np.ndarray
    log_neg_unitary: np.ndarray
    duan_semiclassical: np.ndarray
    log_neg_semiclassical: np.ndarray
    times_attraction: np.ndarray
    mean_sep_unitary: np.ndarray        # <x1 - x2> displacement, separation axis
    mean_sep_semiclassical: np.ndarray
    n_traj: int


def compare_channels(cfg: FeedbackConfig, initial: GaussianState,
                     horizon: float, n_steps: int, n_traj: int,
                     master_seed: int, record_every: int = 10) -> ChannelComparison:
    """Side-by-side witness curves (transverse axis) and mean Newtonian
    attraction (separation axis) for the unitary and feedback channels.

    Headline behavior: the unitary curve crosses duan < 1 with E_N > 0; the
    semiclassical ensemble keeps E_N = 0 and duan >= 1; and the two
    channels' ensemble-mean positions agree.
    """
    dt = horizon / n_steps

    def unitary_series(axis: str):
        h = quadratize_newton(cfg.d, cfg.params, cfg.masses, axis=axis)
        states = evolve_gaussian_grid(initial, h, record_every * dt,
                                      n_steps // record_every)
        return (np.arange(0, n_steps + 1, record_every) * dt,
                np.array([duan_witness(st) for st in states]),
                np.array([log_negativity(st) for st in states]),
                np.array([st.mean[0] - st.mean[2] for st in states]))

    # witness section: transverse
    cfg_t = FeedbackConfig(cfg.gamma, cfg.d, cfg.masses, cfg.params,
                           axis="transverse", meas_length=cfg.meas_length,
                           hbar=cfg.hbar)
    t_u, duan_u, en_u, _ = unitary_series("transverse")
    ens_t = run_ensemble(cfg_t, initial, n_traj, n_steps, dt, master_seed,
                         record_every=record_every)

    # attraction section: separation axis, means only
    cfg_s = FeedbackConfig(cfg.gamma, cfg.d, cfg.masses, cfg.params,
                           axis="separation", meas_length=cfg.meas_length,
                           hbar=cfg.hbar)
    t_a, _, _, sep_u = unitary_series("separation")
    ens_s = run_ensemble(cfg_s, initial, n_traj, n_steps, dt, master_seed + 1,
                         record_every=record_every)
    sep_sc = ens_s.mean_means[:, 0] - ens_s.mean_means[:, 2]

    return ChannelComparison(
        times=t_u,
        duan_unitary=duan_u,
        log_neg_unitary=en_u,
        duan_semiclassical=ens_t.duan,
        log_neg_semiclassical=ens_t.log_neg,
        times_attraction=t_a,
        mean_sep_unitary=sep_u,
        mean_sep_semiclassical=sep_sc,
        n_traj=n_traj,
    )
