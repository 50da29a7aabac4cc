import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from gravitas.errors import (BelowThresholdError, ConfigShapeError,
                             SuperluminalBoostError)
from gravitas.kinematics import (FourVector, KinematicConfig,
                                 MeasureIdentityReport, boost,
                                 check_invariant_measure_identity,
                                 cm_momentum, minkowski_dot, on_shell, stream,
                                 two_body_batch)
from gravitas.optical import Q_OUT, TreePoleFamily
from gravitas.params import ModelParams
from oracles import boosted, elastic_cm_config, mandelstam

momenta3 = st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3)
betas = st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3)  # |beta| < 0.99


def test_minkowski_dot_rest_frame():
    m = 1.7
    v = FourVector(m, 0.0, 0.0, 0.0)
    assert minkowski_dot(v, v) == -m * m


def test_minkowski_dot_null_vector():
    v = FourVector(1.0, 1.0, 0.0, 0.0)
    assert minkowski_dot(v, v) == 0.0


def test_minkowski_dot_direct_arithmetic():
    a = FourVector(2.0, 0.0, 0.0, 1.0)
    b = FourVector(3.0, 1.0, 1.0, 0.0)
    assert minkowski_dot(a, b) == -6.0


@given(momenta3, momenta3)
def test_minkowski_dot_symmetric(p3a, p3b):
    a = on_shell(1.0, p3a)
    b = on_shell(2.0, p3b)
    assert minkowski_dot(a, b) == minkowski_dot(b, a)


def test_minkowski_dot_batched_matches_rows():
    rng = stream(5)
    a = rng.normal(size=(7, 4))
    b = rng.normal(size=(7, 4))
    assert minkowski_dot(a, b).shape == (7,)
    assert np.array_equal(minkowski_dot(a, b),
                          [minkowski_dot(x, y) for x, y in zip(a, b)])
    assert np.array_equal(minkowski_dot(a[0], b), minkowski_dot(np.tile(a[0], (7, 1)), b))


def _reduce_dot(a, b):
    """minkowski_dot as a reduce over the spatial axis, the reference."""
    return -a[..., 0] * b[..., 0] + (a[..., 1:] * b[..., 1:]).sum(axis=-1)


def test_minkowski_dot_bit_identical_to_reduce():
    rng = stream(5, 0)
    n, k = 1000, 3
    rows = rng.normal(size=(n, 4)) * np.exp(rng.uniform(-20, 20, (n, 4)))
    rows2 = rng.normal(size=(n, 4))
    stack = rng.normal(size=(k, n, 4))
    one = rng.normal(size=4)
    for a, b in ((rows, one), (rows, rows2), (stack, one)):
        assert minkowski_dot(a, b).tobytes() == _reduce_dot(a, b).tobytes()


# the invariants of tests/oracles.py, which the 2->2 derivation reads

def test_mandelstam_threshold():
    m = 1.3
    cfg = elastic_cm_config(m, 0.0, 0.5)
    s, t, u = mandelstam(cfg)
    assert s == pytest.approx(4 * m * m, rel=1e-14)
    assert t == pytest.approx(0.0, abs=1e-14)


def test_mandelstam_forward_elastic():
    cfg = elastic_cm_config(1.0, 0.8, 0.0)
    _, t, _ = mandelstam(cfg)
    assert t == pytest.approx(0.0, abs=1e-12)


def test_mandelstam_right_angle_point():
    # |p| = m at 90 degrees: s = 4(m^2 + p^2) = 8 m^2, t = -2 p^2 (1 - cos) = -2 m^2
    m = 1.0
    cfg = elastic_cm_config(m, m, math.pi / 2)
    s, t, u = mandelstam(cfg)
    assert s == pytest.approx(8.0, rel=1e-14)
    assert t == pytest.approx(-2.0, rel=1e-14)
    assert u == pytest.approx(-2.0, rel=1e-14)


@given(st.floats(0.01, 3.0), st.floats(0.0, math.pi), st.floats(0.1, 2.0))
def test_mandelstam_sum_identity(p, theta, m):
    cfg = elastic_cm_config(m, p, theta)
    s, t, u = mandelstam(cfg)
    assert s + t + u == pytest.approx(4 * m * m, rel=1e-10)


@given(st.floats(0.01, 3.0), st.floats(0.0, math.pi), betas)
@settings(max_examples=60)
def test_mandelstam_boost_invariant(p, theta, beta):
    cfg = elastic_cm_config(1.0, p, theta)
    s0, t0, u0 = mandelstam(cfg)
    s1, t1, u1 = mandelstam(boosted(cfg, beta))
    scale = max(abs(s0), 1.0)
    assert abs(s1 - s0) <= 1e-10 * scale
    assert abs(t1 - t0) <= 1e-10 * scale
    assert abs(u1 - u0) <= 1e-10 * scale


def test_boost_identity():
    v = FourVector(1.5, 0.0, 0.0, 0.0)
    assert np.array_equal(boost(v, (0.0, 0.0, 0.0)), v)


def test_boost_textbook_form():
    m, b = 2.0, 0.6
    g = 1.0 / math.sqrt(1.0 - b * b)
    e, px, py, pz = boost(FourVector(m, 0.0, 0.0, 0.0), (0.0, 0.0, b))
    assert e == pytest.approx(g * m, rel=1e-14)
    assert pz == pytest.approx(g * b * m, rel=1e-14)
    assert px == py == 0.0


def test_boost_batch_matches_rows():
    p = np.stack([on_shell(1.0, (0.3, -0.2, 0.5)), on_shell(0.0, (1.0, 0.0, 0.0))])
    beta = (0.1, 0.2, -0.3)
    assert boost(p, beta).shape == (2, 4)
    for row, out in zip(p, boost(p, beta)):
        assert np.allclose(boost(row, beta), out, rtol=1e-15, atol=0.0)


@given(momenta3, betas)
def test_boost_preserves_invariant_mass(p3, beta):
    v = on_shell(1.0, p3)
    w = boost(v, beta)
    assert minkowski_dot(w, w) == pytest.approx(minkowski_dot(v, v),
                                                rel=1e-12, abs=1e-12)


def test_boost_superluminal_rejected():
    with pytest.raises(SuperluminalBoostError):
        boost(FourVector(1.0, 0, 0, 0), (0.0, 0.0, 1.0))


def test_kinematic_config_rejects_nonconserving():
    m = 1.0
    a = FourVector(m, 0, 0, 0)
    b = on_shell(m, (0.3, 0, 0))
    with pytest.raises(ConfigShapeError):
        KinematicConfig((a,), (b,), (m, m))


def test_kinematic_config_rejects_off_shell():
    a = FourVector(1.0, 0, 0, 0)
    with pytest.raises(ConfigShapeError):
        KinematicConfig((a,), (a,), (0.5, 0.5))


def test_kinematic_config_rejects_one_off_shell_leg_among_many():
    cfg = elastic_cm_config(1.0, 0.5, 0.7)
    out = cfg.outgoing.copy()
    out[:, 0] += [1e-3, -1e-3]  # conserved in total, both legs off shell
    with pytest.raises(ConfigShapeError, match="leg 2"):
        KinematicConfig(cfg.incoming, out, cfg.masses)


def test_kinematic_config_rejects_three_component_leg():
    a = FourVector(1.0, 0, 0, 0)
    with pytest.raises(ConfigShapeError):
        KinematicConfig((a,), (a[1:],), (1.0, 1.0))
    with pytest.raises(ConfigShapeError):
        KinematicConfig((a, a[1:]), (a, a), (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ConfigShapeError):
        KinematicConfig(a, (a,), (1.0, 1.0))
    with pytest.raises(ConfigShapeError, match="2 legs but 1 declared masses"):
        KinematicConfig((a,), (a,), (1.0,))


def test_kinematic_config_holds_arrays_of_rows():
    m = 1.0
    a = on_shell(m, (0.0, 0.0, 0.4))
    b = on_shell(m, (0.0, 0.0, -0.4))
    cfg = KinematicConfig((a, b), [b, a], (m, m, m, m))
    assert cfg.incoming.shape == cfg.outgoing.shape == (2, 4)
    assert cfg.incoming.dtype == np.float64
    assert np.array_equal(cfg.outgoing, [b, a])


def test_tree_family_batch_matches_scalar_configs():
    fam = TreePoleFamily(ModelParams(g_newton=1.0, m=1.0, mu=0.05))
    omegas = np.linspace(*fam.omega_window(), 6)
    batch = fam.config(omegas.reshape(2, 3))
    assert batch.incoming.shape == batch.outgoing.shape == (2, 3, 3, 4)
    for idx in np.ndindex(2, 3):
        one = fam.config(float(omegas.reshape(2, 3)[idx]))
        assert np.array_equal(batch.incoming[idx], one.incoming)
        assert np.array_equal(batch.outgoing[idx], one.outgoing)


def test_batched_config_rejects_one_bad_row_and_mismatched_batches():
    cfg = TreePoleFamily(ModelParams(g_newton=1.0, m=1.0, mu=0.05)).config(
        np.array([0.1, 0.2, 0.3]))
    out = cfg.outgoing.copy()
    out[1, 1, 0] += 1e-3  # p1' of the middle row off shell, momentum not conserved
    with pytest.raises(ConfigShapeError):
        KinematicConfig(cfg.incoming, out, cfg.masses)
    with pytest.raises(ConfigShapeError, match="batch shapes"):
        KinematicConfig(cfg.incoming, cfg.outgoing[:2], cfg.masses)


def test_benchmark_probe_api():
    # the calls the traced benchmark run makes: rows of a family config
    # combined with array arithmetic into an emission config, and a sampler
    # fed a FourVector
    params = ModelParams(g_newton=1.0, m=1.0, mu=0.05, lambda_probe=0.7)
    fam = TreePoleFamily(params)
    q = Q_OUT * params.m
    ep = math.hypot(params.m, q)  # closed-form mediator pole on the path
    omega_star = ((2 * params.m * (ep - params.m) + params.mu**2)
                  / (2 * (q + params.m - ep)))
    cfg = fam.config(omega_star)
    k, p1, p2 = cfg.incoming
    _, p1p, _ = cfg.outgoing
    emis = KinematicConfig((k, p1, p2), (k + p1 - p1p, p1p, p2),
                           (0.0, params.m, params.m, params.mu, params.m, params.m))
    assert emis.outgoing.shape == (3, 4)
    mom, w = two_body_batch(FourVector(math.sqrt(10.0), 0.0, 0.0, 0.0),
                            params.mu, params.mu, stream(1), 16)
    assert mom.shape == (16, 2, 4) and w.shape == (16,)


# ---------------------------------------------------------------------------
# two-body sampling
# ---------------------------------------------------------------------------

def test_two_body_threshold_limit(rng):
    m = 1.0
    mom, w = two_body_batch(FourVector(2 * m, 0, 0, 0), m, m, rng, 1)
    assert np.max(np.abs(mom[0, :, 1:])) < 1e-12
    assert w[0] == 0.0  # measure density k/(4 sqrt s) vanishes at threshold


def test_two_body_back_to_back(rng):
    mom, _ = two_body_batch(FourVector(4.0, 0, 0, 0), 1.0, 0.5, rng, 1)
    k1, k2 = mom[0]
    assert np.allclose(k1[1:], -k2[1:], atol=0.0)


def test_two_body_below_threshold(rng):
    with pytest.raises(BelowThresholdError):
        two_body_batch(FourVector(1.9, 0, 0, 0), 1.0, 1.0, rng, 1)


def test_two_body_conservation_and_shell(rng):
    total = boost(FourVector(4.0, 0, 0, 0), (0.2, -0.1, 0.3))
    mom, w = two_body_batch(total, 1.0, 1.0, rng, 2000)
    tot = mom.sum(axis=1)
    assert np.max(np.abs(tot - total)) < 1e-12 * total[0]
    for i in range(2):
        msq = -mom[:, i, 0] ** 2 + np.sum(mom[:, i, 1:] ** 2, axis=1)
        assert np.max(np.abs(msq + 1.0)) < 1e-9


def test_two_body_volume_vs_quadrature(rng):
    # total phase-space volume at sqrt(s) = 4, m1 = m2 = 1 against the
    # deterministic angular integral of the same measure
    roots = 4.0
    k = cm_momentum(roots**2, 1.0, 1.0)
    oracle, _ = quad(lambda c: 2 * math.pi * k / (4 * roots), -1.0, 1.0)
    mom, w = two_body_batch(FourVector(roots, 0, 0, 0), 1.0, 1.0, rng, 50000)
    est, err = w.mean(), w.std() / math.sqrt(len(w)) + 1e-30
    assert abs(est - oracle) <= 3 * err + 1e-12 * oracle


def test_two_body_angular_uniformity(rng):
    # chi-squared on octant counts at 99% confidence, n = 1e5
    n = 100000
    mom, _ = two_body_batch(FourVector(4.0, 0, 0, 0), 1.0, 1.0, rng, n)
    p3 = mom[:, 0, 1:]
    octant = ((p3[:, 0] > 0).astype(int) * 4 + (p3[:, 1] > 0).astype(int) * 2
              + (p3[:, 2] > 0).astype(int))
    counts = np.bincount(octant, minlength=8)
    stat = float(np.sum((counts - n / 8.0) ** 2 / (n / 8.0)))
    assert stat < chi2.ppf(0.99, df=7)


def test_cm_momentum_vectorised_matches_scalar_calls():
    s = np.array([4.0 * (1.0 - 1e-14), 4.0, 9.0, 25.0])
    want = [cm_momentum(float(x), 1.0, 1.0) for x in s]
    assert all(type(k) is float for k in want)
    assert type(cm_momentum(np.float64(9.0), 1.0, 1.0)) is float
    assert want[0] == 0.0
    assert np.array_equal(cm_momentum(s, 1.0, 1.0), want)
    with pytest.raises(BelowThresholdError):
        cm_momentum(np.array([9.0, 3.0]), 1.0, 1.0)


# ---------------------------------------------------------------------------
# invariant measure identity
# ---------------------------------------------------------------------------

def _onshell_oracle(f_of_k, mu, kmax):
    val, _ = quad(lambda k: 4 * math.pi * k * k * f_of_k(k)
                  / ((2 * math.pi) ** 3 * 2 * math.sqrt(k * k + mu * mu)),
                  0.0, kmax, limit=200)
    return val


def test_measure_identity_gaussian(rng):
    mu = 1.0

    def f(k4):
        return np.exp(-np.sum(k4[:, 1:] ** 2, axis=1) / (2 * mu * mu))

    rep = check_invariant_measure_identity(f, mu, rng, 400000, kmax=5.0 * mu)
    assert rep.discrepancy_sigmas <= 3.0
    oracle = _onshell_oracle(lambda k: math.exp(-k * k / (2 * mu * mu)), mu, 5.0 * mu)
    assert rep.lhs == pytest.approx(oracle, abs=3 * rep.lhs_error)


def test_measure_identity_indicator_closed_form(rng):
    mu, cut = 1.0, 2.0

    def f(k4):
        return (np.sum(k4[:, 1:] ** 2, axis=1) < cut * cut).astype(float)

    rep = check_invariant_measure_identity(f, mu, rng, 400000, kmax=3.0 * mu)
    closed = _onshell_oracle(lambda k: 1.0 if k < cut else 0.0, mu, cut)
    assert rep.lhs == pytest.approx(closed, abs=3 * rep.lhs_error)
    assert rep.rhs == pytest.approx(closed, abs=3 * rep.rhs_error)


def test_measure_identity_heavy_mass_suppression(rng):
    def f(k4):
        return np.exp(-np.sum(k4[:, 1:] ** 2, axis=1) / 2.0)

    light = check_invariant_measure_identity(f, 1.0, stream(3, 0), 100000, kmax=5.0)
    heavy = check_invariant_measure_identity(f, 20.0, stream(3, 1), 100000, kmax=5.0)
    # 1/(2E) suppression: both sides drop together for the heavy mass
    assert heavy.lhs < 0.1 * light.lhs
    assert heavy.rhs < 0.1 * light.rhs
    assert heavy.discrepancy_sigmas <= 3.0


def test_discrepancy_of_equal_zero_error_sides_is_zero():
    # 0/0 is no discrepancy; unequal sides with zero error stay infinite
    def report(lhs, rhs, err):
        return MeasureIdentityReport(lhs, err, rhs, err, ())

    assert report(0.0, 0.0, 0.0).discrepancy_sigmas == 0.0
    assert report(0.5, 0.5, 0.0).discrepancy_sigmas == 0.0
    assert report(0.0, 1e-300, 0.0).discrepancy_sigmas == math.inf
    assert report(1.0, 1.5, 0.1).discrepancy_sigmas == pytest.approx(0.5 / math.sqrt(0.02))
