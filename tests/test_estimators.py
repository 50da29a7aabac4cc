import math

import pytest

from gravitas.estimators import (C_SI, G_NEWTON_SI, M_PLANCK_SI, BendingConfig,
                                 deflection_diff, estimate_record,
                                 integration_time, photon_budget)


def test_deflection_formula_at_reference_parameters():
    # G M Db / (c^2 b^2) at M = 1 g, Db = 10 um, b = 100 um
    cfg = BendingConfig()
    expected = G_NEWTON_SI * 1e-3 * 10e-6 / (C_SI**2 * (100e-6) ** 2)
    assert deflection_diff(cfg) == pytest.approx(expected, rel=1e-15)
    assert deflection_diff(cfg) == pytest.approx(7.43e-28, rel=1e-2)


def test_deflection_linear_in_separation():
    a = BendingConfig(superposition_separation_m=10e-6)
    b = BendingConfig(superposition_separation_m=5e-6)
    assert deflection_diff(b) == pytest.approx(0.5 * deflection_diff(a),
                                               rel=1e-14)


def test_deflection_inverse_square_in_impact():
    a = BendingConfig(impact_parameter_m=100e-6)
    b = BendingConfig(impact_parameter_m=200e-6)
    assert deflection_diff(b) == pytest.approx(0.25 * deflection_diff(a),
                                               rel=1e-14)


def test_integration_time_composition():
    # N L dtheta = lambda exactly, and T = N L / c
    cfg = BendingConfig()
    n_cross = cfg.wavelength_m / (cfg.cavity_length_m * deflection_diff(cfg))
    assert n_cross * cfg.cavity_length_m * deflection_diff(cfg) \
        == pytest.approx(cfg.wavelength_m, rel=1e-14)
    assert integration_time(cfg) == pytest.approx(
        n_cross * cfg.cavity_length_m / C_SI, rel=1e-14)


def test_integration_time_cavity_length_independent():
    a = BendingConfig(cavity_length_m=0.1)
    b = BendingConfig(cavity_length_m=37.0)
    assert integration_time(a) == integration_time(b)


def test_photon_budget_inverts_sqrt_speedup():
    cfg = BendingConfig()
    t_total = integration_time(cfg)
    budget = photon_budget(cfg, target_time=t_total / math.sqrt(1e6))
    assert budget["n_gamma"] == pytest.approx(1e6, rel=1e-12)
    # target_time = T -> a single photon suffices
    assert photon_budget(cfg, target_time=t_total)["n_gamma"] == pytest.approx(1.0)


def test_photon_budget_uses_override_time():
    cfg = BendingConfig(t_integration_s=1e16)
    budget = photon_budget(cfg, target_time=1.0)
    assert budget["n_gamma"] == pytest.approx(1e32, rel=1e-12)
    assert budget["effective_mass_planck"] == pytest.approx(1.0e4, rel=0.05)
    assert budget["effective_mass_planck_loose_ev"] == pytest.approx(1.6e3, rel=0.05)
    assert budget["photon_energy_ev"] == pytest.approx(1.2398, rel=1e-3)


def test_dimensional_audit_scaling_powers():
    base = BendingConfig()
    heavy = BendingConfig(mass_kg=base.mass_kg * 1e3)
    assert deflection_diff(heavy) == pytest.approx(1e3 * deflection_diff(base),
                                                   rel=1e-12)
    assert integration_time(heavy) == pytest.approx(
        1e-3 * integration_time(base), rel=1e-12)
    wide = BendingConfig(impact_parameter_m=base.impact_parameter_m * 1e3)
    assert deflection_diff(wide) == pytest.approx(1e-6 * deflection_diff(base),
                                                  rel=1e-12)
    assert integration_time(wide) == pytest.approx(
        1e6 * integration_time(base), rel=1e-12)
    red = BendingConfig(wavelength_m=base.wavelength_m * 1e3)
    assert integration_time(red) == pytest.approx(
        1e3 * integration_time(base), rel=1e-12)


def test_config_rejects_nonpositive_lengths():
    with pytest.raises(ValueError):
        BendingConfig(impact_parameter_m=0.0)


def test_config_replace_is_checked():
    cfg = BendingConfig()
    assert cfg._replace(cavity_length_m=37.0).cavity_length_m == 37.0
    with pytest.raises(ValueError, match="impact_parameter_m"):
        cfg._replace(impact_parameter_m=0.0)
    with pytest.raises(ValueError, match="mass_kg"):
        BendingConfig._make([0.0, *cfg[1:]])


def test_config_is_immutable():
    cfg = BendingConfig()
    with pytest.raises(AttributeError):
        cfg.mass_kg = 1.0
    with pytest.raises(AttributeError):
        cfg.note = "x"


def test_record_carries_notes_and_both_conventions():
    rec = estimate_record(BendingConfig(t_integration_s=1e16), target_time=1.0)
    assert rec["effective_mass_planck"] != rec["effective_mass_planck_loose_ev"]
    assert any("0.2 eV" in note for note in rec["notes"])
    assert any("7.4e-27" in note for note in rec["notes"])
    assert rec["deflection_diff_rad"] == pytest.approx(7.43e-28, rel=1e-2)
    # the record's integration time is the one the photon budget used
    assert rec["integration_time_s"] == 1e16


def test_planck_mass_constant():
    assert M_PLANCK_SI == pytest.approx(2.176434e-8, rel=1e-6)
