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

The ensemble is one filter state (mean, Sigma, delta): the noise-free mean
path, the conditional covariance Sigma that every trajectory shares, and
the deviation delta_j of each opposite-sign trajectory pair j, driven by
row j of one normal draw from stream (master_seed, 0). The seed drives
only the deviations; the mean path, and with it the separation-axis
attraction of :func:`compare_channels`, is noise-free.

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
from .params import RECORD_EVERY, ModelParams


@dataclass(frozen=True)
class FeedbackConfig:
    """Measurement rate and geometry of the adversarial model."""

    gamma: float
    d: float
    masses: tuple[float, float]
    params: ModelParams
    axis: str = "separation"
    meas_length: float = 1.0

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
    """exp(dt * [[a, D], [C, -a^T]]) for the Riccati flow Sigma' = a Sigma +
    Sigma a^T + D - Sigma C Sigma of n/2 masses in (x, p) order, with D the
    backaction heating 2k on each momentum and C the measurement 8k on each
    position."""
    n = a.shape[0]
    gen = np.zeros((2 * n, 2 * n))
    gen[:n, :n] = a
    gen[range(1, n, 2), range(n + 1, 2 * n, 2)] = 2.0 * k
    gen[range(n, 2 * n, 2), range(0, n, 2)] = 8.0 * k
    gen[n:, n:] = -a.T
    return expm(gen * dt)


def _riccati_apply(theta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    n = sigma.shape[0]
    num = theta[:n, :n] @ sigma + theta[:n, n:]
    den = theta[n:, :n] @ sigma + theta[n:, n:]
    out = num @ np.linalg.inv(den)
    return 0.5 * (out + out.T)


def _guard_steps(cfg: FeedbackConfig, dt: float) -> None:
    """StepSizeError for a step outside the accuracy guard: dt <= 0, which a
    positive horizon over many steps can underflow to, or dt * gamma > 0.1."""
    if dt <= 0:
        raise StepSizeError("dt must be positive")
    if dt * cfg.gamma > 0.1:
        raise StepSizeError(f"dt*gamma = {dt * cfg.gamma} exceeds the 0.1 accuracy guard")


def _mean_path(cfg: FeedbackConfig, initial: GaussianState, n_steps: int,
               dt: float) -> np.ndarray:
    """The noise-free mean path z <- z + (A z + b) dt from the initial mean,
    every ``RECORD_EVERY`` steps from t = 0."""
    a, b = _mean_drift(cfg)
    mean, path = initial.mean, [initial.mean]
    for j in range(1, n_steps + 1):
        mean = mean + (a @ mean + b) * dt
        if j % RECORD_EVERY == 0:
            path.append(mean)
    return np.array(path)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleResult:
    """The snapshots of :func:`run_ensemble`, each series on one time axis."""
    times: np.ndarray
    unconditional: GaussianState    # ensemble mean, unconditional covariance
    log_neg: np.ndarray
    duan: np.ndarray
    var_p_mean: np.ndarray          # average of Var(p1), Var(p2), unconditional


def run_ensemble(cfg: FeedbackConfig, initial: GaussianState, n_traj: int,
                 n_steps: int, dt: float, master_seed: int) -> EnsembleResult:
    """Ensemble statistics of the measurement-feedback model, every
    ``RECORD_EVERY`` steps from t = 0, from one filter state: the
    unconditional state as one time series, and its witnesses; ``n_steps``
    must be a multiple of ``RECORD_EVERY``, so that the last step is recorded.

    ``n_traj`` must be even: trajectories j and j + n_traj/2 take
    opposite-sign innovations, so the noise-free mean path is their exact
    mean and pair j sits at mean +/- delta_j. Sigma, the 4x4 conditional
    covariance shared by all trajectories, keeps the two per-mass 2x2 blocks
    and takes one Riccati (Moebius) step per dt; delta_j takes the Kalman
    kick dW_j @ (gain Sigma[[0, 2]]) and then the linear drift. dW_j is row j
    of one draw of shape (n_traj/2, n_steps, 2) from stream (master_seed, 0),
    so it does not depend on n_traj. The unconditional covariance, which the
    witnesses read, is Sigma + (2/n_traj) delta^T delta: the conditional one
    plus a classically correlated, PSD spread of the conditional means.
    Neither precondition on ``n_steps`` and ``n_traj`` is checked here.
    """
    _guard_steps(cfg, dt)
    gain = math.sqrt(8.0 * cfg.k_meas)
    a, _ = _mean_drift(cfg)
    blocks = np.kron(np.eye(2), np.ones((2, 2)))   # the two per-mass blocks
    theta = _riccati_step_matrix(a * blocks, cfg.k_meas, dt)
    dws = stream(master_seed).normal(0.0, math.sqrt(dt), size=(n_traj // 2, n_steps, 2))

    sigma, dev = initial.cov * blocks, np.zeros((n_traj // 2, 4))
    covs = []
    for j in range(n_steps + 1):
        if j % RECORD_EVERY == 0:
            covs.append(sigma + (2.0 / n_traj) * (dev.T @ dev))
        if j < n_steps:
            dev = dev + dws[:, j] @ (gain * sigma[[0, 2]])
            dev = dev + dev @ a.T * dt
            sigma = _riccati_apply(theta, sigma)

    unconditional = GaussianState(_mean_path(cfg, initial, n_steps, dt), covs)
    return EnsembleResult(
        times=np.arange(0, n_steps + 1, RECORD_EVERY) * dt,
        unconditional=unconditional,
        log_neg=log_negativity(unconditional),
        duan=duan_witness(unconditional),
        var_p_mean=0.5 * (unconditional.cov[:, 1, 1] + unconditional.cov[:, 3, 3]),
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
    every ``RECORD_EVERY`` steps (``n_steps`` a multiple of it and ``n_traj``
    even, neither checked here). The seed drives only the transverse
    ensemble; the separation axis is the noise-free mean path alone.

    Headline behavior: the unitary curve crosses duan < 1 with E_N > 0; the
    semiclassical ensemble keeps E_N = 0 and duan >= 1; and the two
    channels' ensemble-mean positions agree.
    """
    dt = horizon / n_steps
    _guard_steps(cfg, dt)

    def unitary_states(axis: str) -> GaussianState:
        h = quadratize_newton(cfg.d, cfg.params, cfg.masses, axis=axis)
        return evolve_gaussian_grid(initial, h, RECORD_EVERY * dt,
                                    n_steps // RECORD_EVERY)

    # witness section: transverse
    witness_u = unitary_states("transverse")
    ens_t = run_ensemble(replace(cfg, axis="transverse"), initial, n_traj,
                         n_steps, dt, master_seed)

    # attraction section: separation axis, means only
    attraction_u = unitary_states("separation")
    mean_s = _mean_path(replace(cfg, axis="separation"), initial, n_steps, dt)

    return ChannelComparison(
        times=np.arange(0, n_steps + 1, RECORD_EVERY) * dt,
        duan_unitary=duan_witness(witness_u),
        log_neg_unitary=log_negativity(witness_u),
        duan_semiclassical=ens_t.duan,
        log_neg_semiclassical=ens_t.log_neg,
        mean_sep_unitary=attraction_u.mean[:, 0] - attraction_u.mean[:, 2],
        mean_sep_semiclassical=mean_s[:, 0] - mean_s[:, 2],
    )
