"""Measurement-and-feedback realization of semiclassical gravity.

Each timestep weakly measures both positions, feeds the Kalman estimates
into a local potential for the other mass, and applies the product feedback
unitary exp(-i sum_i V_i(x_i) dt). The feedback force is the unitary
channel's: the mean drift dz = (A z + b) dt has (A, b) = (Omega h,
Omega linear) from :func:`~gravitas.entanglement.quadratize_newton`, each
mass's estimate of the other standing in for its coordinate, and each
conditional covariance follows its mass's diagonal 2x2 block of A. So
comparing the two channels isolates the channel structure:

* conditional covariances stay block-diagonal across the 1|2 partition
  (local measurement, local feedback), so the unconditional state is a
  classically correlated mixture of products and carries no entanglement;

* ensemble-mean positions follow the same linear Newtonian dynamics as the
  unitary channel.

Measurement convention (hbar = 1): continuous position measurement of
strength k = gamma / (8 meas_length^2), record dy = <x> dt + dW / sqrt(8 k),
conditional moment equations of the standard Kalman-Bucy form with
backaction heating dVar(p)/dt = 2 k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entanglement import (OMEGA, GaussianState, duan_witness,
                           evolve_gaussian_grid, expm, log_negativity,
                           quadratize_newton)
from .errors import StepSizeError
from .kinematics import stream
from .params import ModelParams

# ensemble snapshot stride, in steps, of run_ensemble and compare_channels
RECORD_EVERY = 10


@dataclass(frozen=True)
class FeedbackConfig:
    """Measurement rate and geometry of the adversarial model."""

    gamma: float
    d: float
    masses: tuple[float, float]
    params: ModelParams
    axis: str = "separation"
    meas_length: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("measurement rate gamma must be positive")
        if self.d <= 0:
            raise ValueError("separation d must be positive")

    @property
    def k_meas(self) -> float:
        """Measurement strength (units 1/(length^2 time))."""
        return self.gamma / (8.0 * self.meas_length**2)


def _mean_drift(cfg: FeedbackConfig) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) of the deterministic mean flow dz = (A z + b) dt: the Hamiltonian
    flow of the quadratized potential on the configured axis."""
    h = quadratize_newton(cfg.d, cfg.params, cfg.masses, axis=cfg.axis)
    return OMEGA @ h.hmat, OMEGA @ h.linear


def _riccati_step_matrix(a: np.ndarray, k: float, dt: float) -> np.ndarray:
    """exp(dt * [[a, D], [C, -a^T]]) for the per-mass 2x2 Riccati flow
    Sigma' = a Sigma + Sigma a^T + D - Sigma C Sigma, with D = diag(0, 2k)
    the backaction heating and C = diag(8k, 0) the measurement."""
    gen = np.zeros((4, 4))
    gen[:2, :2] = a
    gen[1, 3] = 2.0 * k
    gen[2, 0] = 8.0 * k
    gen[2:, 2:] = -a.T
    return expm(gen * dt)


def _riccati_apply(theta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    num = theta[:2, :2] @ sigma + theta[:2, 2:]
    den = theta[2:, :2] @ sigma + theta[2:, 2:]
    out = num @ np.linalg.inv(den)
    return 0.5 * (out + out.T)


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
                 n_steps: int, dt: float, master_seed: int) -> EnsembleResult:
    """Ensemble statistics of the measurement-feedback model, every
    ``RECORD_EVERY`` steps from t = 0.

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
    thetas = [_riccati_step_matrix(a[i:i + 2, i:i + 2], cfg.k_meas, dt) for i in (0, 2)]

    mean_means, covs = [], []

    def snapshot() -> None:
        cov_unc = np.zeros((4, 4))
        cov_unc[0:2, 0:2], cov_unc[2:4, 2:4] = cov_blocks
        mean = means.mean(axis=0)
        centered = means - mean
        mean_means.append(mean)
        covs.append(cov_unc + centered.T @ centered / n_traj)

    snapshot()
    for j in range(n_steps):
        gx1 = gain * cov_blocks[0][0, 0]
        gp1 = gain * cov_blocks[0][0, 1]
        gx2 = gain * cov_blocks[1][0, 0]
        gp2 = gain * cov_blocks[1][0, 1]
        means = means + np.stack([gx1 * dws[:, j, 0], gp1 * dws[:, j, 0],
                                  gx2 * dws[:, j, 1], gp2 * dws[:, j, 1]], axis=1)
        means = means + (means @ a.T + b) * dt
        cov_blocks = [_riccati_apply(thetas[i], cov_blocks[i]) for i in range(2)]
        if (j + 1) % RECORD_EVERY == 0:
            snapshot()

    mean_means, covs = np.array(mean_means), np.array(covs)
    states = [GaussianState(mean, cov) for mean, cov in zip(mean_means, covs)]
    return EnsembleResult(
        times=np.arange(0, n_steps + 1, RECORD_EVERY) * dt,
        mean_means=mean_means,
        cov_unconditional=covs,
        log_neg=np.array([log_negativity(st) for st in states]),
        duan=np.array([duan_witness(st) for st in states]),
        var_p_mean=0.5 * (covs[:, 1, 1] + covs[:, 3, 3]),
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
    mean_sep_unitary: np.ndarray        # <x1 - x2> displacement, separation axis
    mean_sep_semiclassical: np.ndarray


def compare_channels(cfg: FeedbackConfig, initial: GaussianState,
                     horizon: float, n_steps: int, n_traj: int,
                     master_seed: int) -> ChannelComparison:
    """Side-by-side witness curves (transverse axis) and mean Newtonian
    attraction (separation axis) for the unitary and feedback channels,
    every ``RECORD_EVERY`` steps.

    Headline behavior: the unitary curve crosses duan < 1 with E_N > 0; the
    semiclassical ensemble keeps E_N = 0 and duan >= 1; and the two
    channels' ensemble-mean positions agree.
    """
    dt = horizon / n_steps

    def unitary_states(axis: str) -> list[GaussianState]:
        h = quadratize_newton(cfg.d, cfg.params, cfg.masses, axis=axis)
        return evolve_gaussian_grid(initial, h, RECORD_EVERY * dt,
                                    n_steps // RECORD_EVERY)

    # witness section: transverse
    witness_u = unitary_states("transverse")
    ens_t = run_ensemble(replace(cfg, axis="transverse"), initial, n_traj,
                         n_steps, dt, master_seed)

    # attraction section: separation axis, means only
    attraction_u = unitary_states("separation")
    ens_s = run_ensemble(replace(cfg, axis="separation"), initial, n_traj,
                         n_steps, dt, master_seed + 1)

    return ChannelComparison(
        times=np.arange(0, n_steps + 1, RECORD_EVERY) * dt,
        duan_unitary=np.array([duan_witness(st) for st in witness_u]),
        log_neg_unitary=np.array([log_negativity(st) for st in witness_u]),
        duan_semiclassical=ens_t.duan,
        log_neg_semiclassical=ens_t.log_neg,
        mean_sep_unitary=np.array([st.mean[0] - st.mean[2] for st in attraction_u]),
        mean_sep_semiclassical=ens_s.mean_means[:, 0] - ens_s.mean_means[:, 2],
    )
