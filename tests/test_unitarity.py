import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gravitas.amplitudes import (emission_amplitude, m_3to3_tree,
                                 m_graviton_emission, tree_denominators)
from gravitas.errors import BelowThresholdError, ConfigShapeError
from gravitas.kinematics import cm_momentum, minkowski_dot, stream
from gravitas.optical import (LHS_TAG, N_NODES, POLE_CELL_WIDTHS, Q_OUT, RHS_TAG,
                              SPECTATOR_PZ, TreePoleFamily, bump_weight,
                              clenshaw_curtis_weights, max_smallest_eps,
                              optical_tree_check)
from gravitas.params import N_STRATA, ModelParams
from gravitas.unitarity import (annihilation_rhs, box_cut_im_forward,
                                elastic_only_rhs, unitarity_violation_scan)
from oracles import clenshaw_curtis_weights as numpy_fft_weights
from oracles import emission_configs, ktil2_plus_mu2


# ---------------------------------------------------------------------------
# tree-level optical theorem
# ---------------------------------------------------------------------------

def test_optical_tree_default_ratio(params):
    rep = optical_tree_check(TreePoleFamily(params), None, params)
    assert rep.ratio_restored == pytest.approx(1.0, abs=0.01)
    # the measured quadrature error is far inside the 1 % tolerance
    assert all(err < 1e-5 * abs(v)
               for err, (_, v) in zip(rep.lhs_quadrature_error, rep.eps_ladder))


def test_optical_tree_ladder_monotone_convergence(params):
    rep = optical_tree_check(TreePoleFamily(params), None, params)
    diffs = [abs(lhs - rep.extrapolated_lhs) for _, lhs in rep.eps_ladder]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_optical_tree_off_pole_weight_vanishes(params):
    fam = TreePoleFamily(params)
    lo, hi = fam.omega_window()
    from scipy.optimize import brentq

    omega_star = brentq(lambda w: ktil2_plus_mu2(fam, w), lo, hi, xtol=1e-12)
    off_center = omega_star + 0.12
    w = bump_weight(off_center, 0.03)  # support entirely off the pole
    rep = optical_tree_check(fam, w, params, eps_ladder=(1e-3, 1e-4, 1e-5))
    lhs_scale = abs(optical_tree_check(fam, None, params).extrapolated_lhs)
    values = [abs(v) for _, v in rep.eps_ladder]
    assert all(a > b for a, b in zip(values, values[1:]))  # shrinks with eps
    assert values[-1] < 1e-3 * lhs_scale
    # off the pole the integral is linear in eps, so a missed bump shows here
    per_eps = [v / e for e, v in rep.eps_ladder]
    assert max(per_eps) == pytest.approx(min(per_eps), rel=1e-2)
    for eps_rel, value in rep.eps_ladder:
        pe = ModelParams(g_newton=params.g_newton, m=params.m, mu=params.mu,
                         lambda_probe=params.lambda_probe, eps_rel=eps_rel)
        ref, _ = quad(lambda om: w(om) * m_3to3_tree(fam.config(om), pe).imag,
                      off_center - 0.03, off_center + 0.03, epsabs=0.0, epsrel=1e-12)
        assert value == pytest.approx(ref, rel=1e-6)


def test_pole_closed_form_matches_brentq(params):
    fam = TreePoleFamily(params)
    lo, hi = fam.omega_window()
    from scipy.optimize import brentq

    omega_star, slope = fam.pole()
    assert omega_star == pytest.approx(
        brentq(lambda w: ktil2_plus_mu2(fam, w), lo, hi, xtol=1e-300), rel=1e-14)
    h = 1e-6 * omega_star
    fd = (ktil2_plus_mu2(fam, omega_star - h)
          - ktil2_plus_mu2(fam, omega_star + h)) / (2.0 * h)
    assert slope == pytest.approx(fd, rel=1e-8)


# masses and mu/m at which the family's closed-form guarantees are checked
SCALES = list(itertools.product((1e-6, 1.0, 1e6), (1e-6, 0.5, 0.99)))


def _family(m, mu_over_m):
    params = ModelParams(g_newton=1.0, m=m, mu=mu_over_m * m)
    return TreePoleFamily(params), params


def test_pole_needs_no_runtime_sign_check():
    # why optical_tree_check re-checks nothing at the pole: ktil^2 + mu^2
    # changes sign on the window, and the radiated quantum k + p1 - p1' has
    # the positive closed-form energy ((E - m)(E - q) + mu^2/2)/(q + m - E)
    for m, mu_over_m in SCALES:
        fam, params = _family(m, mu_over_m)
        lo, hi = fam.omega_window()
        assert ktil2_plus_mu2(fam, lo) > 0.0 > ktil2_plus_mu2(fam, hi)
        cfg = fam.config(fam.pole()[0])
        k, p1, _ = cfg.incoming
        energy = float((k + p1 - cfg.outgoing[1])[0])
        q, mu = Q_OUT * m, params.mu
        e = math.hypot(m, q)
        closed = ((e - m) * (e - q) + 0.5 * mu * mu) / (q + m - e)
        assert closed > 0.0
        assert energy == pytest.approx(closed, rel=1e-9)


def test_pole_slope_is_negative_at_every_mass():
    # why pole() has no no-crossing branch: d(ktil^2)/d omega is
    # 2 m (sqrt(1 + Q_OUT^2) - Q_OUT - 1) < 0 for every m > 0
    for m, mu_over_m in SCALES:
        fam, _ = _family(m, mu_over_m)
        omega_star, slope = fam.pole()
        closed = 2.0 * m * (math.sqrt(1.0 + Q_OUT**2) - Q_OUT - 1.0)
        assert closed < 0.0
        assert slope == pytest.approx(-closed, rel=1e-12)
        h = 1e-3 * omega_star
        fd = (ktil2_plus_mu2(fam, omega_star + h)
              - ktil2_plus_mu2(fam, omega_star - h)) / (2.0 * h)
        assert fd == pytest.approx(closed, rel=1e-6)


def test_tree_family_is_physical_for_every_positive_omega():
    # why config() has no physical-region test: t2 = k + p1 + p2 - p1' has
    # t2_e - t2_z = c independent of omega, so t2_e > 0 and, with
    # 2 t2_z = 2 omega + b, s2 = c (2 omega + c + b) > c (c + b) > m^2 on all of (0, hi]
    for m, mu_over_m in SCALES:
        fam, _ = _family(m, mu_over_m)
        hi = fam.omega_window()[1]
        omega = np.concatenate([np.geomspace(1e-12 * hi, hi, 60),
                                np.linspace(0.0, hi, 41)[1:]])
        cfg = fam.config(omega)
        t2 = cfg.outgoing[:, 0, :] + cfg.outgoing[:, 2, :]
        s2 = -minkowski_dot(t2, t2)
        c = m * (1.0 + math.hypot(1.0, SPECTATOR_PZ) - math.hypot(1.0, Q_OUT)
                 - SPECTATOR_PZ + Q_OUT)
        b = 2.0 * (SPECTATOR_PZ - Q_OUT) * m
        assert c * (c + b) > 1.1 * m * m
        assert np.all(t2[:, 0] > 0.0)
        assert np.all(s2 > m * m)
        np.testing.assert_allclose(t2[:, 0] - t2[:, 3], c, rtol=1e-9)
        np.testing.assert_allclose(s2, c * (2.0 * omega + c + b), rtol=1e-9)


# (m, mu) of the default run and of the --m 100, --m 100 --mu 5 and
# --m 1e-6 --mu 5e-8 runs
RUN_MASSES = [(1.0, 0.05), (100.0, 0.05), (100.0, 5.0), (1e-6, 5e-8)]


@pytest.mark.parametrize("m, mu", RUN_MASSES)
def test_closed_form_denominators_match_the_four_vector_build(m, mu):
    # both sides of the optical check take their denominators from the
    # closed form, so an error in d1 or d3 moves them alike and no ratio
    # gate sees it (a doubled c in d3 leaves the ratio within 1.5e-6): the
    # closed form is held here to the four-vector build, on omega*, both
    # ends of the default pole cell and a grid over the window. d2 vanishes
    # at omega*, so it is held to the size of its terms, m^2. The build
    # itself is off by up to 7e-15 in d3 at the window's low end
    params = ModelParams(g_newton=1.0, m=m, mu=mu)
    fam = TreePoleFamily(params)
    omega_star, slope = fam.pole()
    half = POLE_CELL_WIDTHS * math.sqrt(1e-4) * m**2 / slope
    grid = [omega_star, omega_star - half, omega_star + half,
            *np.linspace(*fam.omega_window(), 21)]
    for omega in grid:
        d1, d2, d3 = fam.denominators(omega)
        r1, r2, r3 = tree_denominators(fam.config(omega), params)
        assert d1 == pytest.approx(r1, rel=1e-14, abs=0.0)
        assert d2 == pytest.approx(r2, rel=0.0, abs=1e-14 * m * m)
        assert d3 == pytest.approx(r3, rel=1e-14, abs=0.0)
    d1, _, d3 = fam.denominators(omega_star)
    for d, cfg in zip((d1, d3), emission_configs(fam)):
        assert emission_amplitude(d, params) == pytest.approx(
            m_graviton_emission(cfg, params), rel=1e-14, abs=0.0)


def _record_nodes(monkeypatch):
    """The omega arguments of every ``TreePoleFamily.denominators`` call from now on."""
    seen, closed_form = [], TreePoleFamily.denominators

    def recording(self, omega):
        seen.append(omega)
        return closed_form(self, omega)

    monkeypatch.setattr(TreePoleFamily, "denominators", recording)
    return seen


def test_user_weight_over_the_whole_window_builds_every_node(monkeypatch):
    # a user weight integrates over all of omega_window(), whose low end
    # is 0.2 omega*; every node there is a physical configuration
    seen = _record_nodes(monkeypatch)
    for m, mu_over_m in SCALES:
        fam, params = _family(m, mu_over_m)
        lo, hi = fam.omega_window()
        seen.clear()
        rep = optical_tree_check(fam, lambda w: 1.0 / (1.0 + (w / m) ** 2), params)
        nodes, pole = seen[:-1], seen[-1]
        assert min(nodes) >= lo and max(nodes) <= hi
        # N_NODES + 1 nested Clenshaw-Curtis nodes on the pole cell and on
        # each panel, shared by the fine and the coarse rule, per ladder entry
        assert len(nodes) == 3 * 3 * (N_NODES + 1)
        assert pole == fam.pole()[0]
        fam.config(np.array(nodes))  # on shell and conserving at every node
        assert rep.ratio_restored == pytest.approx(1.0, abs=1e-4)


def test_optical_tree_ratio_is_the_same_at_every_mass_scale():
    # ratio_restored is dimensionless and the family is written in units of
    # m, so only mu/m moves it
    for mu_over_m in (1e-6, 0.05, 0.99):
        ratios = []
        for m in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            _, params = _family(m, mu_over_m)
            ratios.append(optical_tree_check(TreePoleFamily(params), None,
                                             params).ratio_restored)
        assert ratios == pytest.approx([ratios[2]] * len(ratios), rel=1e-10)
        assert ratios[2] == pytest.approx(1.0, abs=1e-4)


def test_optical_tree_default_bump_builds_only_its_cell(params, monkeypatch):
    # the default bump's support is the pole cell omega* +/- Delta, with
    # Delta = POLE_CELL_WIDTHS sqrt(eps) m^2 / |slope| at the smallest eps
    fam = TreePoleFamily(params)
    omega_star, slope = fam.pole()
    half = POLE_CELL_WIDTHS * math.sqrt(1e-4) * params.m**2 / slope
    seen = _record_nodes(monkeypatch)
    rep = optical_tree_check(fam, None, params)
    nodes = np.reshape(seen[:-1], (3, N_NODES + 1))
    # the closed cell: both ends are nodes, where the bump is 0
    lo, hi = omega_star - half, omega_star + half
    assert nodes.min() >= lo * (1 - 1e-15) and nodes.max() <= hi * (1 + 1e-15)
    np.testing.assert_allclose(nodes[:, [-1, 0]], [[lo, hi]] * 3, rtol=1e-15)
    assert not any(map(bump_weight(omega_star, half), nodes[:, [0, -1]].ravel()))
    assert seen[-1:] == [omega_star]
    assert rep.ratio_restored == pytest.approx(1.0, abs=0.01)


def test_optical_tree_ladder_matches_quad(params):
    fam = TreePoleFamily(params)
    rep = optical_tree_check(fam, None, params)
    omega_star, slope = fam.pole()
    half = 10.0 * math.sqrt(1e-4) * params.m**2 / slope
    w = bump_weight(omega_star, half)
    for eps_rel, value in rep.eps_ladder:
        pe = ModelParams(g_newton=params.g_newton, m=params.m, mu=params.mu,
                         lambda_probe=params.lambda_probe, eps_rel=eps_rel)
        ref, _ = quad(lambda om: w(om) * m_3to3_tree(fam.config(om), pe).imag,
                      omega_star - half, omega_star + half, points=[omega_star],
                      epsabs=0.0, epsrel=1e-12, limit=1000)
        assert value == pytest.approx(ref, rel=1e-7)


def test_optical_tree_user_weight_coarse_ladder_matches_quad(params):
    # at eps = 1e-3 the pole cell omega* +/- Delta reaches past both ends of
    # the window; a user weight is still integrated over exactly [lo, hi]
    fam = TreePoleFamily(params)
    lo, hi = fam.omega_window()
    omega_star, slope = fam.pole()
    assert 10.0 * math.sqrt(1e-3) * params.m**2 / slope > omega_star

    def w(om):
        return 1.0 / (1.0 + om * om)

    rep = optical_tree_check(fam, w, params, eps_ladder=(1e-2, 1e-3))
    for eps_rel, value in rep.eps_ladder:
        pe = ModelParams(g_newton=params.g_newton, m=params.m, mu=params.mu,
                         lambda_probe=params.lambda_probe, eps_rel=eps_rel)
        ref, _ = quad(lambda om: w(om) * m_3to3_tree(fam.config(om), pe).imag,
                      lo, hi, points=[omega_star], epsabs=0.0, epsrel=1e-12, limit=1000)
        assert value == pytest.approx(ref, rel=1e-7)


def test_nested_clenshaw_curtis_rules_integrate_polynomials_exactly():
    # the fine rule on the nodes x, the coarse one on its even-indexed nodes
    x = np.cos(np.pi * np.arange(N_NODES + 1) / N_NODES)
    fine = np.array(clenshaw_curtis_weights(N_NODES))
    coarse = np.zeros_like(fine)
    coarse[::2] = clenshaw_curtis_weights(N_NODES // 2)
    for rule, degree in ((fine, N_NODES), (coarse, N_NODES // 2)):
        assert rule.sum() == pytest.approx(2.0, abs=1e-14)
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert rule @ x**k == pytest.approx(exact, abs=1e-14), k
    assert np.all(fine > 0.0)
    assert not coarse[1::2].any()
    # the even-indexed nodes are the coarse rule's own, cos(pi k / (N_NODES / 2))
    np.testing.assert_allclose(x[::2], np.cos(np.pi * np.arange(N_NODES // 2 + 1)
                                              / (N_NODES // 2)), atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 16, N_NODES // 2, N_NODES])
def test_clenshaw_curtis_fft_weights_equal_the_cosine_sum(n):
    # w_k = (c_k / n) (1 - sum_{j=1}^{n/2} b_j cos(2 pi j k / n) / (4 j^2 - 1)),
    # with c_k = 1 at k = 0, n (else 2) and b_j = 1 at j = n/2 (else 2)
    k = np.arange(n + 1)[:, None]
    j = np.arange(1, n // 2 + 1)
    b = np.where(j == n // 2, 1.0, 2.0)
    c = np.where((k[:, 0] == 0) | (k[:, 0] == n), 1.0, 2.0)
    explicit = c / n * (1.0 - (b * np.cos(2.0 * np.pi * j * k / n) / (4.0 * j * j - 1.0))
                        .sum(axis=1))
    np.testing.assert_allclose(clenshaw_curtis_weights(n), explicit, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 16, N_NODES // 2, N_NODES])
def test_clenshaw_curtis_weights_match_numpy_fft(n):
    np.testing.assert_allclose(clenshaw_curtis_weights(n), numpy_fft_weights(n),
                               rtol=0.0, atol=1e-16)


@pytest.mark.parametrize("weight", ["default-bump", "user"])
def test_optical_tree_quadrature_error_bounds_the_true_error(params, weight):
    # |I_513 - I_257| against an adaptive reference: at eps = 1e-4 the bump's
    # true error is about 2e-7, the reported one about 8e-7; the reference's
    # own tolerance, 1e-13 relative, is added for entries at rounding level
    fam = TreePoleFamily(params)
    omega_star, slope = fam.pole()
    if weight == "user":
        lo, hi = fam.omega_window()

        def w(om):
            return 1.0 / (1.0 + om * om)

        rep = optical_tree_check(fam, w, params, eps_ladder=(1e-2, 1e-3))
    else:
        half = POLE_CELL_WIDTHS * math.sqrt(1e-4) * params.m**2 / slope
        w, lo, hi = bump_weight(omega_star, half), omega_star - half, omega_star + half
        rep = optical_tree_check(fam, None, params)
    for (eps_rel, value), err in zip(rep.eps_ladder, rep.lhs_quadrature_error):
        pe = ModelParams(g_newton=params.g_newton, m=params.m, mu=params.mu,
                         lambda_probe=params.lambda_probe, eps_rel=eps_rel)
        ref, _ = quad(lambda om: w(om) * m_3to3_tree(fam.config(om), pe).imag,
                      lo, hi, points=[omega_star], epsabs=0.0, epsrel=1e-13, limit=1000)
        assert abs(value - ref) <= err + 1e-13 * abs(ref), eps_rel


def test_max_smallest_eps_is_where_the_pole_cell_reaches_zero(params, monkeypatch):
    fam = TreePoleFamily(params)
    eps_max = max_smallest_eps(fam, params)
    seen = _record_nodes(monkeypatch)
    rep = optical_tree_check(fam, None, params, eps_ladder=(1e-2, 0.99 * eps_max))
    assert rep.ratio_restored == pytest.approx(1.0, abs=0.01)
    assert min(seen) > 0.0
    # past the bound a node sits at omega <= 0, where the photon leg has no
    # positive energy and no configuration exists
    seen.clear()
    optical_tree_check(fam, None, params, eps_ladder=(1e-2, 1.01 * eps_max))
    assert min(seen) <= 0.0
    with pytest.raises(ConfigShapeError, match="leg 0"):
        fam.config(min(seen))


def test_optical_tree_lambda_rescaling_invariance(params):
    rep1 = optical_tree_check(TreePoleFamily(params), None, params)
    doubled = ModelParams(g_newton=params.g_newton, m=params.m, mu=params.mu,
                          lambda_probe=2 * params.lambda_probe)
    rep2 = optical_tree_check(TreePoleFamily(doubled), None, doubled)
    assert rep2.extrapolated_lhs == pytest.approx(4 * rep1.extrapolated_lhs,
                                                  rel=1e-9)
    assert rep2.rhs_with_gravitons == pytest.approx(4 * rep1.rhs_with_gravitons,
                                                    rel=1e-12)
    assert rep2.ratio_restored == pytest.approx(rep1.ratio_restored, rel=1e-6)


def test_optical_report_invariants(params):
    rep = optical_tree_check(TreePoleFamily(params), None, params)
    assert len(rep.lhs_quadrature_error) == len(rep.eps_ladder)
    assert all(err >= 0 for err in rep.lhs_quadrature_error)
    epss = [e for e, _ in rep.eps_ladder]
    assert epss == sorted(epss, reverse=True)
    assert rep.lhs_provenance == LHS_TAG
    assert rep.rhs_provenance == RHS_TAG
    assert rep.lhs_provenance != rep.rhs_provenance


# ---------------------------------------------------------------------------
# box cut
# ---------------------------------------------------------------------------

def _box_oracle(s, params):
    """1-D adaptive quadrature of the cut integrand over the polar angle."""
    m, mu = params.m, params.mu
    e = math.sqrt(s) / 2
    p = cm_momentum(s, m, m)
    k = cm_momentum(s, mu, mu)
    val, _ = quad(lambda c: 1.0 / (2 * e * e - 2 * p * k * c - mu * mu) ** 2,
                  -1.0, 1.0, limit=200)
    return -math.pi**2 * params.alpha_tilde**4 \
        * 2 * math.pi * k / (4 * math.sqrt(s)) * val


@pytest.fixture
def box_params():
    return ModelParams(g_newton=1.0, m=1.0, mu=1e-3, alpha_tilde=1.0)


def test_box_cut_matches_quadrature(box_params, rng):
    for s in (4.1, 6.0):
        val, err = box_cut_im_forward(s, box_params, 200000, rng)
        assert val == pytest.approx(_box_oracle(s, box_params), abs=3 * err)


def test_box_cut_alpha_scaling(box_params, rng):
    up = ModelParams(g_newton=1.0, m=1.0, mu=1e-3, alpha_tilde=2.0)
    v1, _ = box_cut_im_forward(4.5, box_params, 50000, stream(11, 0))
    v2, _ = box_cut_im_forward(4.5, up, 50000, stream(11, 0))
    assert v2 == pytest.approx(16 * v1, rel=1e-12)


def test_box_cut_sign_stable(box_params):
    vals = [box_cut_im_forward(s, box_params, 20000, stream(13, i))[0]
            for i, s in enumerate((4.1, 5.5, 7.0, 8.5, 10.0))]
    assert all(v < 0 for v in vals)  # the displayed -pi^2 prefactor, as written


def _box_closed_form(s, params):
    """Forward cut in closed form: int dc (A - B c)^-2 = 2/(A^2 - B^2)."""
    m, mu = params.m, params.mu
    p, k = cm_momentum(s, m, m), cm_momentum(s, mu, mu)
    a = math.sqrt(s) * math.hypot(mu, k) - mu * mu
    b = 2.0 * p * k
    return -math.pi**2 * params.alpha_tilde**4 \
        * 2 * math.pi * k / (4 * math.sqrt(s)) * 2.0 / ((a - b) * (a + b))


@pytest.mark.parametrize("s", [4.0, 4.0 * (1.0 + 1e-12)])
def test_box_cut_threshold_limit(box_params, s):
    # B = 2pk = 0 exactly at s = 4m^2, where the inverse CDF must reduce to
    # uniform c rather than 0/0; just above it (B ~ 2e-6) the estimate must
    # still match the closed form
    val, err = box_cut_im_forward(s, box_params, 20000, stream(41, 0))
    ref = _box_closed_form(s, box_params)
    assert math.isfinite(val) and math.isfinite(err)
    assert err <= 1e-7 * abs(ref)
    assert val == pytest.approx(ref, rel=3e-8)


@pytest.mark.parametrize("estimator", [box_cut_im_forward, annihilation_rhs],
                         ids=["lhs", "rhs"])
@pytest.mark.parametrize("s", [4.1, 7.0, 10.0])
def test_box_cut_calibrated_against_closed_form(box_params, s, estimator):
    # z = (estimate - closed form)/reported error over 200 seeds, for each
    # side of the box-cut check. For N(0, 1) draws, |mean z| > 0.3 (4.2
    # sigma of the mean) has probability 2.2e-5 and a sample SD outside
    # [0.8, 1.2] has 6.7e-5 (chi^2 with 199 dof): below 1e-4 per case, so a
    # false-failure rate below 6e-4 for the six. A density or denominator
    # that is off by a few per cent biases the mean; a wrong error bar, such
    # as one that ignores the strata, moves the SD. Both sides meet the same
    # closed form, so this also holds the LHS and the RHS to each other.
    ref = _box_closed_form(s, box_params)
    z = []
    for seed in range(200):
        val, err = estimator(s, box_params, 20000, stream(43, seed))
        z.append((val - ref) / err)
    mean = math.fsum(z) / len(z)
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in z) / (len(z) - 1))
    assert abs(mean) <= 0.3
    assert 0.8 <= sd <= 1.2


def test_box_cut_importance_sampling_cuts_variance(box_params):
    # per-sample variance against the same estimator with c uniform on [-1, 1]
    s, n = 10.0, 200000
    m, mu = box_params.m, box_params.mu
    p, k = cm_momentum(s, m, m), cm_momentum(s, mu, mu)
    a = math.sqrt(s) * math.hypot(mu, k) - mu * mu
    c = stream(47, 1).uniform(-1.0, 1.0, n)
    uniform = 2.0 * (2 * math.pi * k / (4 * math.sqrt(s))) / (a - 2.0 * p * k * c) ** 2
    pref = math.pi**2 * box_params.alpha_tilde**4
    _, err = box_cut_im_forward(s, box_params, n, stream(47, 0))
    assert float(np.var(uniform)) >= 4.0 * n * (err / pref) ** 2


def test_box_cut_stratification_cuts_variance(box_params):
    # err^2 against var(w f)/n of the same importance density and weight with
    # u uniform on [0, 1], not stratified: at least a 10x smaller sigma
    s, n = 10.0, 200000
    m, mu = box_params.m, box_params.mu
    p, k = cm_momentum(s, m, m), cm_momentum(s, mu, mu)
    a = math.sqrt(s) * math.hypot(mu, k) - mu * mu
    b = 2.0 * p * k
    u = stream(53, 1).random(n)
    c = -1.0 + ((a + b) / b) * (1.0 - ((a - b) / (a + b)) ** u)
    log_ab = math.log((a + b) / (a - b))
    wf = (2 * math.pi * k / (4 * math.sqrt(s))) * log_ab / (b * (a - b * c))
    pref = math.pi**2 * box_params.alpha_tilde**4
    _, err = box_cut_im_forward(s, box_params, n, stream(53, 0))
    assert (err / pref) ** 2 <= float(np.var(wf)) / n / 100.0


def test_box_cut_below_threshold(box_params, rng):
    with pytest.raises(BelowThresholdError):
        box_cut_im_forward(3.9, box_params, 100, rng)
    with pytest.raises(BelowThresholdError, match="elastic threshold"):
        elastic_only_rhs(3.9, box_params)
    # within the 1e-12 slack of 4 m^2, a mu this close to m leaves no two-mediator cut
    with pytest.raises(BelowThresholdError, match="two-mediator"):
        box_cut_im_forward(4.0 - 1e-12, box_params._replace(mu=1.0 - 1e-13), 100, rng)


def test_box_cut_propagator_stays_off_its_pole():
    # why the sampler checks no pole: den = A - B c >= A - B >= m^2 for every
    # c in [-1, 1]; pinned on m in {1, 2}, mu up to 0.99 m and s from 4 m^2
    # to 4e6 m^2, with A and B as the sampler forms them
    for m in (1.0, 2.0):
        for mu in m * np.linspace(0.01, 0.99, 12):
            for s in m * m * np.geomspace(4.0, 4e6, 61):
                p, k = cm_momentum(s, m, m), cm_momentum(s, mu, mu)
                a = math.sqrt(s) * math.hypot(mu, k) - mu * mu
                assert a - 2.0 * p * k >= m * m * (1.0 - 1e-6)


def test_forward_denominators_need_no_azimuth():
    # why neither estimator draws an azimuth: at forward kinematics both
    # denominators, written in c alone as the estimators write them, equal
    # their four-vector forms for every phi
    rng = stream(61, 0)
    for m, mu, s in ((1.0, 1e-3, 4.1), (1.0, 1e-3, 10.0), (2.0, 0.7, 30.0)):
        e, p = math.sqrt(s) / 2.0, cm_momentum(s, m, m)
        k = cm_momentum(s, mu, mu)
        ek = math.hypot(mu, k)
        p1 = np.array([e, 0.0, 0.0, p])
        c = rng.uniform(-1.0, 1.0, 50)
        lhs = k * k * (1.0 - c * c) + (p - k * c) ** 2 - (e - ek) ** 2 + m * m
        rhs = 2.0 * (e * ek - p * k * c) - mu * mu
        for phi in (0.0, 0.7, 2.0, 4.5):
            st = k * np.sqrt(1.0 - c * c)
            k1 = np.stack([np.full_like(c, ek), st * math.cos(phi),
                           st * math.sin(phi), k * c], axis=1)
            np.testing.assert_allclose(
                lhs, minkowski_dot(p1 - k1, p1 - k1) + m * m, rtol=1e-12)
            np.testing.assert_allclose(
                rhs, -2.0 * minkowski_dot(p1, k1) - mu * mu, rtol=1e-12)


@pytest.mark.parametrize("estimator", [box_cut_im_forward, annihilation_rhs],
                         ids=["lhs", "rhs"])
def test_box_cut_estimators_draw_one_double_per_sample(box_params, estimator):
    # each estimator uses 64 floor(n/64) doubles of its stream and no more,
    # so a dead draw (an azimuth, say) that comes back shows here
    for s, n in ((4.0, 128), (10.0, 1000), (10.0, 20000)):
        rng, twin = stream(67, n), stream(67, n)
        estimator(s, box_params, n, rng)
        twin.random(N_STRATA * (n // N_STRATA))
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)


def test_annihilation_rhs_needs_two_samples_per_stratum(box_params, rng):
    # one sample in a stratum has no sample variance, so the command line
    # asks for two per stratum; at that floor both errors are above 0
    assert annihilation_rhs(4.1, box_params, 128, rng)[1] > 0.0
    assert box_cut_im_forward(10.0, box_params, 128, rng)[1] > 0.0


def test_elastic_only_mismatch_near_threshold(box_params, rng):
    s = 4.1
    ela = elastic_only_rhs(s, box_params)
    ann, _ = annihilation_rhs(s, box_params, 100000, rng)
    assert abs(ela / ann) > 1e2  # m/mu = 1e3: enormous elastic enhancement


def test_elastic_equals_annihilation_at_degenerate_masses(rng):
    pars = ModelParams(g_newton=1.0, m=1.0, mu=0.999, alpha_tilde=1.0)
    s = 4.5
    ela = elastic_only_rhs(s, pars)
    ann, err = annihilation_rhs(s, pars, 400000, rng)
    assert ann == pytest.approx(ela, rel=2e-2)


def test_scan_rows_and_flags(box_params):
    rows = unitarity_violation_scan(box_params, [3.5, 4.1], 20000, 23)
    assert rows[0].flag == "below-threshold"
    assert rows[0].ratio_restored is None
    assert rows[1].flag == ""
    assert rows[1].ratio_restored == pytest.approx(1.0, abs=0.05)


def test_scan_free_theory_flagged():
    pars = ModelParams(g_newton=1.0, m=1.0, mu=1e-3, alpha_tilde=0.0)
    rows = unitarity_violation_scan(pars, [4.1], 1000, 29)
    assert rows[0].lhs == 0.0
    assert rows[0].flag == "undefined-ratio"
    assert rows[0].ratio_restored is None
    assert not math.isnan(rows[0].lhs)


def test_scan_thread_count_invariant(box_params):
    a = unitarity_violation_scan(box_params, [4.1, 6.0], 20000, 31, n_threads=1)
    b = unitarity_violation_scan(box_params, [4.1, 6.0], 20000, 31, n_threads=4)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_box_ratio_alpha_rescaling_invariance(box_params):
    up = ModelParams(g_newton=1.0, m=1.0, mu=1e-3, alpha_tilde=1.7)
    r1 = unitarity_violation_scan(box_params, [4.5], 50000, 37)[0]
    r2 = unitarity_violation_scan(up, [4.5], 50000, 37)[0]
    assert r2.ratio_restored == pytest.approx(r1.ratio_restored, rel=1e-6)
