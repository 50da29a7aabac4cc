"""Gaussian two-mass dynamics under the quadratized regulated potential.

Phase-space ordering is z = (x1, p1, x2, p2). A quadratic Hamiltonian
H = z^T h z / 2 + linear . z generates the affine symplectic flow
S(t) = exp(Omega h t); Gaussian states close under it, so the Fig.-1-style
circuit (prepare product state, interact for Delta t, read out witnesses)
is exact here. A time series is one :class:`GaussianState` on a leading
time axis: :func:`evolve_gaussian_grid` maps the initial state with the
powers of one step propagator at once, and :func:`evolve_gaussian` is its
one-step case. :func:`expm` is a numpy Pade-13 scaling and squaring.

The entanglement witnesses, per state over any leading axes, are the
product form of the Duan inequality, Var(x1 - x2) Var(p1 + p2) >= 1 for
separable states, and the Gaussian logarithmic negativity (natural log); hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalCheckError
# FIG1_DEFAULTS lives in the numpy-free params and is importable from here too
from .params import FIG1_DEFAULTS, ModelParams

OMEGA = np.array([[0.0, 1.0, 0.0, 0.0],
                  [-1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.0, 0.0, -1.0, 0.0]])

TOL_SYMMETRY = 1e-12
TOL_VALIDITY = 1e-10
TOL_SYMPLECTIC = 1e-10

# Pade-13 numerator coefficients of Higham (2005), divided by b_0 so that the
# denominator of a zero matrix is exactly I and expm(0) is exactly I
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
# coefficients of (I, A^2, A^4, A^6) in the four inner sums of
# U = A [A^6 (b13 A^6 + b11 A^4 + b9 A^2) + b7 A^6 + b5 A^4 + b3 A^2 + b1 I]
# V =    A^6 (b12 A^6 + b10 A^4 + b8 A^2) + b6 A^6 + b4 A^4 + b2 A^2 + b0 I
_PADE13_SUMS = np.array([[0.0, *_PADE13[9:14:2]], _PADE13[1:8:2],
                         [0.0, *_PADE13[8:13:2]], _PADE13[0:7:2]])
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: the [13/13] Pade approximant with scaling and
    squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), for the small
    propagator generators of this package. The four inner sums come from
    one product of the coefficient table with the stacked even powers."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    if squarings:
        a = a / 2.0**squarings
    n = len(a)
    powers = np.empty((4, n, n))
    powers[0] = np.eye(n)
    powers[1] = a @ a
    powers[2] = powers[1] @ powers[1]
    powers[3] = powers[2] @ powers[1]
    u_hi, u_lo, v_hi, v_lo = (_PADE13_SUMS @ powers.reshape(4, -1)).reshape(4, n, n)
    u = a @ (powers[3] @ u_hi + u_lo)
    v = powers[3] @ v_hi + v_lo
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of the two-mass system, mean (..., 4) and
    cov (..., 4, 4): leading axes hold a batch, such as a time series."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.mean.shape[-1:] != (4,) or self.cov.shape != (*self.mean.shape, 4):
            raise ValueError("mean must be (..., 4), cov (..., 4, 4), on the same leading axes")
        asym = np.abs(self.cov - self.cov.swapaxes(-2, -1)).max(axis=(-2, -1))
        if np.any(asym > TOL_SYMMETRY * np.abs(self.cov).max(axis=(-2, -1))):  # per state
            raise ValueError("covariance must be symmetric")

    def __getitem__(self, index) -> GaussianState:
        return GaussianState(self.mean[index], self.cov[index])

    def is_valid(self) -> np.ndarray:
        """Per state, bona fide: min eig(cov + i Omega/2) >= -TOL_VALIDITY max(1, max|cov|)."""
        margin = np.linalg.eigvalsh(self.cov + 0.5j * OMEGA).min(axis=-1)
        return margin >= -TOL_VALIDITY * np.maximum(np.abs(self.cov).max(axis=(-2, -1)), 1.0)


def product_state(var_x: tuple[float, float],
                  var_p: tuple[float, float]) -> GaussianState:
    """Product Gaussian at zero mean from per-mass variances."""
    return GaussianState(np.zeros(4), np.diag([var_x[0], var_p[0], var_x[1], var_p[1]]))


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = z^T hmat z / 2 + linear . z (up to a constant)."""

    hmat: np.ndarray
    linear: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "hmat", np.asarray(self.hmat, dtype=float))
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))
        if self.hmat.shape != (4, 4) or self.linear.shape != (4,):
            raise ValueError("hmat must be (4, 4), linear (4,)")
        scale = max(float(np.max(np.abs(self.hmat))), 1e-300)
        if float(np.max(np.abs(self.hmat - self.hmat.T))) > TOL_SYMMETRY * scale:
            raise ValueError("hmat must be symmetric")


def yukawa_derivatives(d: float, g_newton: float, mu: float,
                       m1: float, m2: float) -> tuple[float, float, float]:
    """(V, V', V'') of V(r) = -G m1 m2 exp(-mu r)/r at r = d > 0."""
    a = g_newton * m1 * m2
    e = math.exp(-mu * d)
    v = -a * e / d
    vp = a * e * (1.0 / d**2 + mu / d)
    vpp = -a * e * (2.0 / d**3 + 2.0 * mu / d**2 + mu**2 / d)
    return v, vp, vpp


def quadratize_newton(d: float, params: ModelParams,
                      masses: tuple[float, float],
                      axis: str = "separation") -> QuadraticHamiltonian:
    """Second-order expansion of the regulated potential about separation d.

    axis="separation": displacements along the line of centers. The
    curvature V''(d) (= -2 G m1 m2 / d^3 at mu = 0) gives the x1 x2
    cross-term +2 G m1 m2 / d^3 with matching diagonal terms, plus the
    linear attraction V'(d)(x1 - x2).

    axis="transverse": displacements perpendicular to the line of centers.
    The effective spring is V'(d)/d > 0 (stable), with no linear force by
    symmetry. This is the configuration whose relative-coordinate breathing
    pushes Var(x-) below its initial value. The feedback channel of
    :mod:`gravitas.semiclassical` takes its mean drift from it too.
    """
    m1, m2 = masses
    _, vp, vpp = yukawa_derivatives(d, params.g_newton, params.mu, m1, m2)
    if axis == "separation":
        spring, linear_coeff = vpp, vp
    else:
        spring, linear_coeff = vp / d, 0.0

    h = np.zeros((4, 4))
    h[1, 1] = 1.0 / m1
    h[3, 3] = 1.0 / m2
    h[0, 0] += spring
    h[2, 2] += spring
    h[0, 2] = h[2, 0] = -spring
    lin = np.array([linear_coeff, 0.0, -linear_coeff, 0.0])
    return QuadraticHamiltonian(h, lin)


def symplectic_propagator(h: QuadraticHamiltonian, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(S, drift) of the affine flow: z -> S z + drift.

    Computed from one (4+1)-dimensional matrix exponential so the linear
    term is integrated exactly together with the quadratic part.
    """
    gen = np.zeros((5, 5))
    gen[:4, :4] = OMEGA @ h.hmat
    gen[:4, 4] = OMEGA @ h.linear
    full = expm(gen * t)
    return full[:4, :4], full[:4, 4]


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^0, ..., x^n stacked along a new leading axis, each x times the last."""
    out = [np.eye(len(x))]
    for _ in range(n):
        out.append(x @ out[-1])
    return np.array(out)


def evolve_gaussian_grid(state: GaussianState, h: QuadraticHamiltonian,
                         dt: float, n: int) -> GaussianState:
    """The states at t = 0, dt, ..., n dt, stacked on a leading axis of n + 1.

    The powers of the 5x5 affine step [[S, drift], [0, 1]] hold the
    accumulated propagators (S_j, drift_j), which map the initial state at
    once: mean -> S_j mean + drift_j, cov -> S_j cov S_j^T. Every S_j must
    pass the symplectic-residual check.
    """
    step = np.eye(5)
    step[:4, :4], step[:4, 4] = symplectic_propagator(h, dt)
    affine = _powers(step, n)
    s, drift = affine[:, :4, :4], affine[:, :4, 4]
    s_t = s.swapaxes(-2, -1)
    resid = np.abs(s_t @ OMEGA @ s - OMEGA).max(axis=(-2, -1))
    if np.any(resid > TOL_SYMPLECTIC * np.maximum(1.0, np.abs(s).max(axis=(-2, -1)) ** 2)):
        raise NumericalCheckError("propagator lost symplecticity; reduce t or rescale")
    return GaussianState(s @ state.mean + drift, s @ state.cov @ s_t)


def evolve_gaussian(state: GaussianState, h: QuadraticHamiltonian,
                    t: float) -> GaussianState:
    """Propagate mean and covariance to time t: the one-step grid."""
    return evolve_gaussian_grid(state, h, t, 1)[-1]


def duan_variances(state: GaussianState) -> tuple[np.ndarray, np.ndarray]:
    """(Var(x1 - x2), Var(p1 + p2)), the Duan quadratures, per state."""
    xm, pp = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0])
    return xm @ state.cov @ xm, pp @ state.cov @ pp


def duan_witness(state: GaussianState) -> np.ndarray:
    """Var(x1 - x2) Var(p1 + p2) per state; below 1 witnesses entanglement."""
    var_xminus, var_pplus = duan_variances(state)
    return var_xminus * var_pplus


def log_negativity(state: GaussianState) -> np.ndarray:
    """Gaussian E_N = max(0, -ln(2 nu_-)) per state, nu_- the smaller
    symplectic eigenvalue of the partially transposed covariance; +0.0, not
    -0.0, at 2 nu_- = 1. Divide by ln 2 for the log2 convention."""
    pt = np.diag([1.0, 1.0, 1.0, -1.0])
    cov_pt = pt @ state.cov @ pt
    two_nu = 2.0 * np.abs(np.linalg.eigvals(1j * OMEGA @ cov_pt)).min(axis=-1)
    return np.where(two_nu < 1.0, -np.log(two_nu), 0.0)
