import pytest

from gravitas.params import ModelParams


def test_rejects_mu_not_below_m():
    with pytest.raises(ValueError, match="mu < m"):
        ModelParams(m=1.0, mu=2.0)
    with pytest.raises(ValueError, match="mu < m"):
        ModelParams(1.0, 1.0, 1.0)  # positional, mu = m


def test_replace_is_checked():
    params = ModelParams(m=1.0, mu=0.5)
    assert params._replace(eps_rel=1e-3).eps_abs == 1e-3
    with pytest.raises(ValueError, match="mu < m"):
        params._replace(mu=2.0)
    with pytest.raises(ValueError, match="mu < m"):
        ModelParams._make([1.0, 0.1, 0.5])


def test_is_immutable():
    params = ModelParams()
    with pytest.raises(AttributeError):
        params.mu = 2.0
    with pytest.raises(AttributeError):
        params.extra = 1.0
