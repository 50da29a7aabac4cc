"""Coupling and mass ledger shared by every amplitude, and the constants
and the time-step guard that the command-line parser reads.

Natural units hbar = c = 1 throughout; SI conversions live in
``gravitas.estimators`` only. This module imports neither numpy nor
``dataclasses``, so neither ``import gravitas.cli`` nor a ``deflection`` run
loads them.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import StepSizeError


class _ModelParams(NamedTuple):
    g_newton: float = 1.0
    m: float = 1.0
    mu: float = 1e-3
    lambda_probe: float = 1.0
    alpha_tilde: float = 1.0
    eps_rel: float = 1e-6


class ModelParams(_ModelParams):
    """Couplings and masses of the scattering model.

    g_newton     gravitational coupling (mass dimension -2)
    m            probe mass (the heavy, distinguishable matter particles)
    mu           mediator regulator mass; mu -> 0 recovers the 1/r potential
    lambda_probe photon-matter coupling (mass dimension 1)
    alpha_tilde  coupling of the particle-antiparticle box; kept independent
                 of g_newton*m**4 (no identification is assumed)
    eps_rel      pole displacement relative to m^2 (the larger mass, since
                 mu < m); the absolute epsilon used in propagators is
                 ``eps_abs``
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace is checked too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.mu < self.m:
            raise ValueError("require mu < m: the regulator is the light scale")
        return self

    @property
    def eps_abs(self) -> float:
        """Absolute pole displacement: eps_rel * m^2."""
        return self.eps_rel * self.m**2


# The Fig.-1 demonstration model: two bodies of mass m at separation d, each
# prepared at position variance var_x, with a coupling strong enough that the
# relative-mode period is O(50) natural time units
FIG1_DEFAULTS = dict(g_newton=10.0, m=1.0, mu=1e-6, d=10.0, var_x=9.0)

def guard_steps(gamma: float, dt: float) -> None:
    """StepSizeError for dt <= 0 or dt * gamma > 0.1, the accuracy guard of
    the feedback filter's one inexact step, its left-point Kalman kick."""
    if dt <= 0:
        raise StepSizeError("dt must be positive")
    if dt * gamma > 0.1:
        raise StepSizeError(f"dt*gamma = {dt * gamma} exceeds the 0.1 accuracy guard")


# ensemble snapshot stride, in steps, of run_ensemble and compare_channels
RECORD_EVERY = 10

# strata of both box-cut estimators: cells of u on the LHS, of cos(theta) on the RHS
N_STRATA = 64
