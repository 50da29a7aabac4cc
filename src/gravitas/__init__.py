"""gravitas: desk-scale numerical checks of Lorentz-invariant Newtonian
scattering, unitarity restoration by radiated quanta, and gravitational
entanglement channels."""

__version__ = "0.1.0"

from .params import ModelParams
from .kinematics import (FourVector, KinematicConfig, boost, mandelstam,
                         minkowski_dot, on_shell, stream, two_body_batch)
from .amplitudes import (ComplexAmplitude, feynman_propagator,
                         m_2to2_newton, m_2to2_spin0, m_2to2_spin2,
                         m_3to3_tree, m_compton_probe, m_graviton_emission,
                         newton_potential_element)
from .entanglement import (GaussianState, QuadraticHamiltonian, duan_witness,
                           evolve_gaussian, evolve_gaussian_grid,
                           log_negativity, quadratize_newton)
from .semiclassical import FeedbackConfig, compare_channels, run_ensemble
from .estimators import BendingConfig, deflection_diff, integration_time, photon_budget
from .unitarity import (OpticalReport, TreePoleFamily, annihilation_rhs,
                        box_cut_im_forward, elastic_only_rhs,
                        optical_tree_check, unitarity_violation_scan)
