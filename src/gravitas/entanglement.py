"""Gaussian two-mass dynamics under the quadratized regulated potential.

Phase-space ordering is z = (x1, p1, x2, p2). A quadratic Hamiltonian
H = z^T h z / 2 + linear . z generates the affine symplectic flow
S(t) = exp(Omega h t); Gaussian states close under it, so the Fig.-1-style
circuit (prepare product state, interact for Delta t, read out witnesses)
is exact here. Time series on a uniform grid from t = 0 come from
:func:`evolve_gaussian_grid`, which computes one step propagator and
applies it repeatedly; :func:`evolve_gaussian` is its one-step case. The
matrix exponential is the numpy Pade-13 scaling-and-squaring :func:`expm`.

The entanglement witnesses are the product form of the Duan inequality,
Var(x1 - x2) Var(p1 + p2) >= 1 for separable states, and the Gaussian
logarithmic negativity (natural-log convention); hbar = 1.
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
    """First and second moments of the two-mass system."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))
        if self.mean.shape != (4,) or self.cov.shape != (4, 4):
            raise ValueError("mean must be (4,), cov must be (4, 4)")
        scale = max(float(np.max(np.abs(self.cov))), 1e-300)
        if float(np.max(np.abs(self.cov - self.cov.T))) > TOL_SYMMETRY * scale:
            raise ValueError("covariance must be symmetric")

    def validity_margin(self) -> float:
        """Min eigenvalue of cov + i Omega / 2; >= -TOL_VALIDITY for a bona
        fide state."""
        return float(np.min(np.linalg.eigvalsh(self.cov + 0.5j * OMEGA)))

    def is_valid(self) -> bool:
        scale = max(float(np.max(np.abs(self.cov))), 1.0)
        return self.validity_margin() >= -TOL_VALIDITY * scale


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


def evolve_gaussian_grid(state: GaussianState, h: QuadraticHamiltonian,
                         dt: float, n: int) -> list[GaussianState]:
    """States at t = 0, dt, ..., n dt: one step propagator, applied n times.

    The accumulated affine propagator (S_j, drift_j) = step^j maps the
    initial state: mean -> S_j mean + drift_j, cov -> S_j cov S_j^T. Every
    S_j must pass the symplectic-residual check.
    """
    step, step_drift = symplectic_propagator(h, dt)
    s, drift = np.eye(4), np.zeros(4)
    states = [state]
    for _ in range(n):
        s, drift = step @ s, step @ drift + step_drift
        resid = float(np.abs(s.T @ OMEGA @ s - OMEGA).max())
        if resid > TOL_SYMPLECTIC * max(1.0, float(np.abs(s).max()) ** 2):
            raise NumericalCheckError("propagator lost symplecticity; reduce t or rescale")
        states.append(GaussianState(s @ state.mean + drift, s @ state.cov @ s.T))
    return states


def evolve_gaussian(state: GaussianState, h: QuadraticHamiltonian,
                    t: float) -> GaussianState:
    """Propagate mean and covariance to time t: the one-step grid."""
    return evolve_gaussian_grid(state, h, t, 1)[-1]


def duan_variances(state: GaussianState) -> tuple[float, float]:
    """(Var(x1 - x2), Var(p1 + p2)), the Duan quadratures."""
    xm, pp = np.array([1.0, 0.0, -1.0, 0.0]), np.array([0.0, 1.0, 0.0, 1.0])
    return float(xm @ state.cov @ xm), float(pp @ state.cov @ pp)


def duan_witness(state: GaussianState) -> float:
    """Var(x1 - x2) Var(p1 + p2); below 1 witnesses entanglement."""
    var_xminus, var_pplus = duan_variances(state)
    return var_xminus * var_pplus


def log_negativity(state: GaussianState) -> float:
    """Gaussian E_N = max(0, -ln(2 nu_-)), nu_- the smaller symplectic
    eigenvalue of the partially transposed covariance. Divide by ln 2 for
    the log2 convention."""
    pt = np.diag([1.0, 1.0, 1.0, -1.0])
    cov_pt = pt @ state.cov @ pt
    nus = np.abs(np.linalg.eigvals(1j * OMEGA @ cov_pt))
    nu_min = float(np.min(nus))
    return max(0.0, -math.log(2.0 * nu_min))
