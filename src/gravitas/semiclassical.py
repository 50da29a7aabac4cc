"""Measurement-and-feedback realization of semiclassical gravity.

Each timestep weakly measures both positions, feeds the Kalman estimates
into a local potential for the other mass, and applies the product feedback
unitary exp(-i sum_i V_i(x_i) dt). The feedback force is the unitary
channel's, each mass's estimate of the other standing in for its
coordinate: the drift is the affine flow of
:func:`~gravitas.entanglement.quadratize_newton`'s Hamiltonian, stepped by
the unitary channel's propagator S = exp(Omega h dt), and each conditional
covariance follows its mass's diagonal 2x2 block of Omega h. So comparing
the two channels isolates the channel structure:

* conditional covariances stay block-diagonal across the 1|2 partition
  (local measurement, local feedback), so the unconditional state is a
  classically correlated mixture of products and carries no entanglement;

* the ensemble mean is the unitary channel's, bit for bit.

The ensemble is one filter state (mean, Sigma, delta): the noise-free mean
path, the conditional covariance Sigma that every trajectory shares, and
the deviation delta_j of each opposite-sign trajectory pair j. The filter
steps record intervals of R = ``RECORD_EVERY`` steps, through the step
powers Theta^i and (S^T)^i, i <= R. Over an interval the Kalman kicks add
to delta_j a Gaussian increment of covariance B^T B, B the interval's (2R,
4) kick stack; it is drawn as z_j F, z one (n_traj/2, 4) standard-normal
draw per interval from stream (master_seed, 0), taken interval by
interval, and F the 4x4 R factor of B's QR decomposition, so F^T F = B^T
B. Sigma, B and F do not depend on the noise, so they are computed for a
chunk of ``CHUNK`` intervals at once; only the draw and delta's update go
interval by interval. The seed drives only the deviations. The drift and
the Riccati step are exact over dt; only the Kalman kick, at the left point
of each step, is first order in dt.

Both channels return :class:`~gravitas.entanglement.GaussianState` time
series, from which the caller reads witnesses, times and separations.

Measurement convention (hbar = 1): continuous position measurement of
strength k = gamma / (8 meas_length^2), record dy = <x> dt + dW / sqrt(8 k),
conditional moment equations of the standard Kalman-Bucy form with
backaction heating dVar(p)/dt = 2 k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entanglement import (OMEGA, GaussianState, QuadraticHamiltonian, _powers,
                           evolve_gaussian_grid, expm, quadratize_newton,
                           symplectic_propagator)
from .kinematics import stream
from .params import RECORD_EVERY, ModelParams, guard_steps


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
    """The symmetrized Moebius map of each step matrix of ``theta`` on ``sigma``."""
    n = sigma.shape[-1]
    num = theta[..., :n, :n] @ sigma + theta[..., :n, n:]
    den = theta[..., n:, :n] @ sigma + theta[..., n:, n:]
    out = np.linalg.solve(np.swapaxes(den, -1, -2), np.swapaxes(num, -1, -2))
    return 0.5 * (out + np.swapaxes(out, -1, -2))   # out is (num den^-1)^T


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

# Record intervals per stacked call of the filter's noise-free work. One
# chunk's stacks are most of the filter's working memory, which
# test_ensemble_memory_does_not_grow_with_steps bounds; 32 exceeds it.
CHUNK = 16


def _feedback_covs(cfg: FeedbackConfig, initial: GaussianState, n_traj: int,
                   n_steps: int, dt: float, master_seed: int
                   ) -> tuple[QuadraticHamiltonian, np.ndarray]:
    """``run_ensemble``'s quadratized Hamiltonian and its (n_records, 4, 4)
    unconditional covariances; the mean is the caller's to build."""
    guard_steps(cfg.gamma, dt)
    r, pairs = RECORD_EVERY, n_traj // 2
    if n_steps % r:
        raise ValueError(f"n_steps = {n_steps} is not a multiple of {r}")
    n = n_steps // r
    gain = math.sqrt(8.0 * cfg.k_meas * dt)
    h = quadratize_newton(cfg.d, cfg.params, cfg.masses, axis=cfg.axis)
    blocks = np.kron(np.eye(2), np.ones((2, 2)))   # the two per-mass blocks
    thetas = _powers(_riccati_step_matrix(OMEGA @ h.hmat * blocks, cfg.k_meas, dt), r)
    st_pows = _powers(symplectic_propagator(h, dt)[0].T, r)
    rng = stream(master_seed)

    sigmas = np.empty((n + 1, 4, 4))   # the conditional covariance per record
    sigmas[0] = initial.cov * blocks
    for i in range(n):
        sigmas[i + 1] = _riccati_apply(thetas[-1], sigmas[i])
    covs, spread, dev = sigmas.copy(), np.empty((CHUNK, 4, 4)), np.zeros((pairs, 4))
    for lo in range(0, n, CHUNK):
        starts = sigmas[lo:min(lo + CHUNK, n)]   # the chunk's interval starts
        c = len(starts)
        subs = _riccati_apply(thetas[:-1], starts[:, None])   # (c, R, 4, 4)
        kicks = (gain * subs[:, :, [0, 2]]) @ st_pows[:0:-1]
        for k, f in enumerate(np.linalg.qr(kicks.reshape(c, 2 * r, 4), mode="r")):
            dev = dev @ st_pows[-1] + rng.standard_normal((pairs, 4)) @ f
            spread[k] = dev.T @ dev
        covs[lo + 1:lo + 1 + c] += (2.0 / n_traj) * spread[:c]
    return h, covs


def run_ensemble(cfg: FeedbackConfig, initial: GaussianState, n_traj: int,
                 n_steps: int, dt: float, master_seed: int) -> GaussianState:
    """The unconditional state of the measurement-feedback ensemble as one
    time series, every R = ``RECORD_EVERY`` steps from t = 0, from one filter
    state; an ``n_steps`` that is not a multiple of R raises ValueError. Its
    mean is the noise-free mean path, the unitary channel's mean.

    ``n_traj`` must be even, unchecked: trajectories j and j + n_traj/2 take
    opposite-sign innovations, so the noise-free mean path is their exact
    mean and pair j sits at mean +/- delta_j. Sigma, the 4x4 conditional
    covariance shared by all trajectories, keeps the two per-mass 2x2 blocks
    and takes one Riccati (Moebius) step Theta per dt; delta_j takes the
    Kalman kick dW_j @ (gain Sigma[[0, 2]]), dW_j = sqrt(dt) z_j, and then
    the unitary flow's S. Over one interval, Sigma_i = Theta^i(Sigma_0),
    i <= R, and B, the (2R, 4) stack of gain sqrt(dt) Sigma_i[[0, 2]]
    (S^T)^(R-i), i < R, maps the interval's 2R innovations to delta's
    increment. That increment is Gaussian with covariance B^T B, so it is
    drawn as z F: z one (n_traj/2, 4) standard-normal draw from stream
    (master_seed, 0), taken interval by interval, and F the R factor of
    ``np.linalg.qr(B)``, with F^T F = B^T B; QR, unlike a Cholesky factor of
    B^T B, holds at any measurement rate. So delta <- delta (S^T)^R + z F.
    The unconditional covariance, which the witnesses read, is Sigma +
    (2/n_traj) delta^T delta: the conditional one plus a classically
    correlated, PSD spread of the conditional means.

    None of Sigma, B or F depends on the noise. So the chain of interval
    starts, one Theta^R step each, runs first, and each chunk of ``CHUNK``
    intervals then takes one stacked call for its Riccati sub-steps, one
    for its kick stacks and one for their QR factors; the loop over the
    chunk's intervals makes only the draw and the updates of delta and its
    spread. The law, the draws' order and every output bit are those of one
    interval at a time. Beside the (n_traj/2, 4) deviations, memory grows
    with one chunk's noise-free stack and the O(n_steps/R) output.
    """
    h, covs = _feedback_covs(cfg, initial, n_traj, n_steps, dt, master_seed)
    return GaussianState(evolve_gaussian_grid(initial, h, RECORD_EVERY * dt,
                                              n_steps // RECORD_EVERY).mean, covs)


# ---------------------------------------------------------------------------
# unitary vs semiclassical comparison
# ---------------------------------------------------------------------------

def compare_channels(cfg: FeedbackConfig, initial: GaussianState,
                     horizon: float, n_steps: int, n_traj: int, master_seed: int
                     ) -> tuple[GaussianState, GaussianState, np.ndarray]:
    """The unitary and feedback channels side by side, every
    ``RECORD_EVERY`` steps (``n_steps`` a multiple of it, else ValueError,
    and ``n_traj`` even, unchecked): ``(unitary, feedback,
    separation_means)``. ``unitary`` and ``feedback`` are the transverse-axis
    state series, from which the witnesses are read. ``separation_means`` is
    the separation-axis (n, 4) mean path, which carries the Newtonian
    attraction; it is both channels' mean, since both follow the same
    unitary flow. The seed drives only the transverse ensemble.

    Headline behavior: the unitary states cross duan < 1 with E_N > 0, and
    the feedback ensemble keeps E_N = 0 and duan >= 1.
    """
    dt, n_records = horizon / n_steps, n_steps // RECORD_EVERY
    h, covs = _feedback_covs(replace(cfg, axis="transverse"), initial, n_traj,
                             n_steps, dt, master_seed)
    unitary = evolve_gaussian_grid(initial, h, RECORD_EVERY * dt, n_records)
    h_sep = quadratize_newton(cfg.d, cfg.params, cfg.masses, axis="separation")
    separation = evolve_gaussian_grid(initial, h_sep, RECORD_EVERY * dt, n_records)
    return unitary, GaussianState(unitary.mean, covs), separation.mean
