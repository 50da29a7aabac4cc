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

The ensemble is one filter state (mean, Sigma, X): the noise-free mean
path, the conditional covariance Sigma that every trajectory shares, and a
root X of the spread W = delta^T delta of the deviations delta_j of the P =
n_traj/2 opposite-sign trajectory pairs. The output reads delta only
through W, so the filter keeps X, X^T X = W, with min(P, 4) rows, and never
delta. The filter steps record intervals of R = ``RECORD_EVERY`` steps,
through the step powers Theta^i and (S^T)^i, i <= R; a Riccati (Moebius)
step is one product, numerator and denominator stacked, and one solve. Over
an interval the Kalman kicks add to delta the draw Z F, Z (P, 4) standard
normal and F^T F = B^T B with B the interval's (2R, 4) kick stack; X takes
the same step through two small draws G and E (see :func:`run_ensemble`).
Sigma, B and F do not depend on the noise, so they are computed for a chunk
of ``CHUNK`` intervals at once; only X's update goes interval by interval,
and neither cost nor memory grows with n_traj. The seed drives only the
spread. The drift and the Riccati step are exact over dt; only the Kalman
kick, at the left point of each step, is first order in dt.

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
    both = theta[..., :n] @ sigma + theta[..., n:]   # [num; den]
    out = np.linalg.solve(both[..., n:, :].mT, both[..., :n, :].mT)
    return 0.5 * (out + out.mT)   # out is (num den^-1)^T


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

# Record intervals per stacked call of the filter's noise-free work. One
# chunk's stacks are most of the filter's working memory, which
# test_ensemble_memory_does_not_grow_with_steps bounds; 32 exceeds it.
CHUNK = 16


def _spread_draws(rng: np.random.Generator, pairs: int) -> np.ndarray:
    """One chunk's (``CHUNK``, min(P, 4) + min(P - 4, 4), 4) draws [G; E],
    ``CHUNK`` intervals whatever the chunk's length, in the order G, E's chi2
    variates, E's normals. G is each interval's (min(P, 4), 4) standard
    normals; E is the Bartlett root of a Wishart_4(P - 4, I) matrix, upper
    trapezoidal with min(P - 4, 4) (or no) rows, sqrt(chi2(P - 4 - i)) on the
    diagonal of row i and N(0, 1) above it."""
    draws = np.zeros((CHUNK, min(pairs, 4) + min(max(pairs - 4, 0), 4), 4))
    g, e = np.split(draws, [min(pairs, 4)], axis=1)
    g[:] = rng.standard_normal(g.shape)
    diag = np.arange(e.shape[1])
    e[:, diag, diag] = np.sqrt(rng.chisquare(pairs - 4 - diag, (CHUNK, len(diag))))
    upper = np.triu_indices(len(diag), 1, 4)
    e[:, upper[0], upper[1]] = rng.standard_normal((CHUNK, len(upper[0])))
    return draws


def _spreads(rng: np.random.Generator, pairs: int, a: np.ndarray,
             fs: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) spreads delta^T delta of P = ``pairs`` deviation rows
    that each step delta <- delta a + Z F over the n kick factors ``fs``,
    from delta = 0, carried as the root X, X^T X = delta^T delta, with
    min(P, 4) rows (see :func:`run_ensemble`)."""
    spread = np.empty_like(fs)
    root = np.zeros((min(pairs, 4), 4))
    for lo in range(0, len(fs), CHUNK):
        chunk = fs[lo:lo + CHUNK]
        for k, kick in enumerate(_spread_draws(rng, pairs)[:len(chunk)] @ chunk):
            kick[:len(root)] += root @ a   # [X a + G F; E F]
            root = np.linalg.qr(kick, mode="r") if len(kick) > len(root) else kick
            np.matmul(root.T, root, out=spread[lo + k])
    return spread


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

    sigmas = np.empty((n + 1, 4, 4))   # the conditional covariance per record
    sigmas[0] = initial.cov * blocks
    for i in range(n):
        sigmas[i + 1] = _riccati_apply(thetas[-1], sigmas[i])
    fs = np.empty((n, 4, 4))   # each interval's kick factor F, F^T F = B^T B
    for lo in range(0, n, CHUNK):
        starts = sigmas[lo:min(lo + CHUNK, n), None]   # the chunk's interval starts
        c = len(starts)
        subs = np.concatenate((starts, _riccati_apply(thetas[1:-1], starts)), axis=1)
        kicks = (gain * subs[:, :, [0, 2]]) @ st_pows[:0:-1]
        fs[lo:lo + c] = np.linalg.qr(kicks.reshape(c, 2 * r, 4), mode="r")
    covs = sigmas.copy()
    covs[1:] += (2.0 / n_traj) * _spreads(stream(master_seed), pairs, st_pows[-1], fs)
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
    and takes one Riccati (Moebius) step Theta per dt: numerator and
    denominator are the halves of one product Theta[:, :4] Sigma +
    Theta[:, 4:]. delta_j takes the Kalman kick dW_j @ (gain Sigma[[0, 2]]),
    dW_j = sqrt(dt) z_j, and then the unitary flow's S. Over one interval,
    Sigma_i = Theta^i(Sigma_0), i <= R, and B, the (2R, 4) stack of gain
    sqrt(dt) Sigma_i[[0, 2]] (S^T)^(R-i), i < R, maps the interval's 2R
    innovations to delta's increment. That increment is Gaussian with
    covariance B^T B, so it is drawn as Z F: Z a (P, 4) standard-normal
    draw, P = n_traj/2, and F the R factor of ``np.linalg.qr(B)``, with F^T
    F = B^T B; QR, unlike a Cholesky factor of B^T B, holds at any
    measurement rate. So delta <- delta (S^T)^R + Z F. The unconditional
    covariance, which the witnesses read, is Sigma + (2/n_traj) W, W =
    delta^T delta: the conditional one plus a classically correlated, PSD
    spread of the conditional means.

    W is all the output reads of delta, and the next W's law given delta
    depends on delta only through W (Z is rotation invariant). So the
    filter keeps a root X, X^T X = W, with min(P, 4) rows (Bartlett 1933).
    Write delta = Q X, Q with orthonormal columns, and Q_perp for the rest
    of R^P: G = Q^T Z and H = Q_perp^T Z are independent standard normals,
    and H^T H ~ Wishart_4(P - 4, I). So X steps to the R factor of the
    stacked [X (S^T)^R + G F; E F], with E^T E ~ Wishart_4(P - 4, I): E is
    the R factor of a (P - 4, 4) normal draw, upper trapezoidal with min(P -
    4, 4) rows, sqrt(chi2(P - 4 - i)) on the diagonal of row i and N(0, 1)
    above it. With P <= 4 there is no E and no QR, and X is delta itself:
    G is the (P, 4) draw Z itself. Each chunk draws from stream (master_seed,
    0), whatever its length, ``CHUNK`` intervals of G, then of E's chi2
    variates, then of E's normals, so a run is the prefix of any longer one.

    None of Sigma, B or F depends on the noise. So the chain of interval
    starts, one Theta^R step each, runs first, and each chunk of ``CHUNK``
    intervals then takes one stacked call for its Riccati sub-steps Theta^1
    .. Theta^(R-1), one for its kick stacks and one for their QR factors;
    sub-step 0 is the interval start, which Theta^0 = I maps to itself.
    The stacked draws [G; E] F are one batched product per chunk, and each
    interval adds X (S^T)^R to its G F rows and takes one (at most 8, 4) QR
    of the stack. Cost and memory grow with n_steps/R, never with n_traj:
    one chunk's noise-free stack and draws, the (n_steps/R, 4, 4) kick
    factors and spreads, and the output.
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
