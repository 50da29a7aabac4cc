"""gravitas: desk-scale numerical checks of Lorentz-invariant Newtonian
scattering, unitarity restoration by radiated quanta, and gravitational
entanglement channels."""

__version__ = "0.1.0"
