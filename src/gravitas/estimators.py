"""SI-unit experiment-design estimates for the light-bending entanglement test.

The one module that leaves natural units. CODATA 2018 constants at full
precision; the source estimates these reproduce are single-digit, so
consumers should treat outputs as design numbers, not measurements.

Known arithmetic quirks of the source estimates, surfaced in the output
notes rather than silently adopted:

* the quoted differential deflection 7.4e-27 at (M=1 g, b=100 um,
  Db=10 um) is G M / (c^2 b); the displayed formula carries a further
  Db/b = 0.1, giving 7.4e-28;
* the quoted integration time 1e16 s does not follow from
  T = b^2 lambda c / (G M Db) with those parameters (which gives 4.5e12 s);
* the photon energy at 1000 nm is 1.24 eV, not 0.2 eV. Both conventions
  are reported for the effective-mass figure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

G_NEWTON_SI = 6.67430e-11        # m^3 kg^-1 s^-2
C_SI = 299792458.0               # m s^-1
H_SI = 6.62607015e-34            # J s
HBAR_SI = H_SI / (2.0 * math.pi)
EV_SI = 1.602176634e-19          # J
M_PLANCK_SI = math.sqrt(HBAR_SI * C_SI / G_NEWTON_SI)  # 2.176434e-8 kg
LOOSE_PHOTON_EV = 0.2            # the source's rounding for (1000 nm)^-1


class _BendingConfig(NamedTuple):
    mass_kg: float = 1e-3
    impact_parameter_m: float = 100e-6
    superposition_separation_m: float = 10e-6
    wavelength_m: float = 1000e-9
    cavity_length_m: float = 0.1
    t_integration_s: float | None = None  # overrides the derived time if set


class BendingConfig(_BendingConfig):
    """Geometry and optics of the superposed-mass light-bending estimate."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # so that _replace is checked too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if name != "t_integration_s" and value <= 0:
                raise ValueError(f"{name} must be strictly positive")
        return self


def deflection_diff(cfg: BendingConfig) -> float:
    """Differential bending angle G M Db / (c^2 b^2), radians."""
    return (G_NEWTON_SI * cfg.mass_kg * cfg.superposition_separation_m
            / (C_SI**2 * cfg.impact_parameter_m**2))


def schwarzschild_radius(cfg: BendingConfig) -> float:
    """r_s = 2 G M / c^2 of the source mass, meters: ``deflection_diff`` is
    the weak-field angle and holds only for an impact parameter b >> r_s."""
    return 2.0 * G_NEWTON_SI * cfg.mass_kg / C_SI**2


def integration_time(cfg: BendingConfig) -> float:
    """Single-photon integration time T = b^2 lambda c / (G M Db), seconds.

    Equals lambda / (c * deflection_diff); the cavity length cancels between
    the crossing count N = lambda / (L dtheta) and the crossing time L / c.
    """
    return (cfg.impact_parameter_m**2 * cfg.wavelength_m * C_SI
            / (G_NEWTON_SI * cfg.mass_kg * cfg.superposition_separation_m))


def photon_budget(cfg: BendingConfig, target_time: float) -> dict:
    """Photon number and effective cavity mass to reach ``target_time`` > 0.

    The sqrt(n_gamma) speedup gives n_gamma = (T / target_time)^2, with T
    (``integration_time_s``) taken from cfg.t_integration_s if set, else
    derived. Effective mass is n_gamma * E_photon / c^2, reported both with
    the exact photon energy and with the source's 0.2 eV rounding
    (``effective_mass_planck_loose_ev``).
    """
    t_total = cfg.t_integration_s if cfg.t_integration_s is not None \
        else integration_time(cfg)
    n_gamma = (t_total / target_time) ** 2
    e_photon = H_SI * C_SI / cfg.wavelength_m
    mass_kg = n_gamma * e_photon / C_SI**2
    mass_loose_kg = n_gamma * LOOSE_PHOTON_EV * EV_SI / C_SI**2
    return dict(
        n_gamma=n_gamma,
        photon_energy_ev=e_photon / EV_SI,
        effective_mass_kg=mass_kg,
        effective_mass_planck=mass_kg / M_PLANCK_SI,
        effective_mass_planck_loose_ev=mass_loose_kg / M_PLANCK_SI,
        integration_time_s=t_total,
        target_time_s=target_time,
    )


def estimate_record(cfg: BendingConfig, target_time: float = 1.0) -> dict:
    """Flat JSON-ready record of all derived quantities, with units and notes."""
    dtheta = deflection_diff(cfg)
    budget = photon_budget(cfg, target_time)
    return {
        "config": cfg._asdict(),
        "deflection_diff_rad": dtheta,
        "cavity_crossings": cfg.wavelength_m / (cfg.cavity_length_m * dtheta),
        **budget,
        "notes": [
            "photon energy at the configured wavelength is "
            f"{budget['photon_energy_ev']:.3f} eV; the 0.2 eV rounding used in "
            "the source estimate is reported separately",
            "the source's quoted 7.4e-27 differential deflection corresponds "
            "to G M/(c^2 b) without the Db/b factor of the displayed formula",
        ],
    }
