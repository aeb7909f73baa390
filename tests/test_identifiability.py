"""Closed-form identifiable proportions against the numeric essential infimum."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixsep.distributions import (
    Beta,
    Binomial,
    Exponential,
    Normal,
    Poisson,
    Uniform,
)
from mixsep.identifiability import (
    MixedMixtureSpec,
    MixtureSpec,
    alpha0_auto,
    alpha0_continuous,
    alpha0_discrete,
    alpha0_mixed,
    essinf_density_ratio,
)


def test_poisson_closed_form_pinned():
    # signal rate above the background rate: alpha * (1 - exp(lb - ls))
    spec = MixtureSpec(alpha=0.3, signal=Poisson(2.0), background=Poisson(1.0))
    assert alpha0_discrete(spec) == pytest.approx(0.1896361676485673, abs=1e-15)


def test_poisson_smaller_rate_fully_identifiable():
    spec = MixtureSpec(alpha=0.3, signal=Poisson(1.0), background=Poisson(2.0))
    assert alpha0_discrete(spec) == pytest.approx(0.3, abs=1e-15)


def test_binomial_closed_form_pinned():
    # equal trials, ps > pb: ratio bottoms out at x = 0
    spec = MixtureSpec(alpha=1.0, signal=Binomial(2, 0.6), background=Binomial(2, 0.4))
    assert alpha0_discrete(spec) == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_equal_components_lose_all_mass():
    spec = MixtureSpec(alpha=0.4, signal=Poisson(3.0), background=Poisson(3.0))
    assert alpha0_discrete(spec) == 0.0
    cspec = MixtureSpec(alpha=0.4, signal=Normal(1, 2), background=Normal(1, 2))
    assert alpha0_continuous(cspec) == pytest.approx(0.0, abs=1e-9)


def test_normal_branches():
    # equal or smaller signal sd: fully identifiable
    a = alpha0_continuous(MixtureSpec(0.25, Normal(2, 1), Normal(0, 1)))
    assert a == pytest.approx(0.25, abs=1e-15)
    b = alpha0_continuous(MixtureSpec(0.25, Normal(2, 0.5), Normal(0, 1)))
    assert b == pytest.approx(0.25, abs=1e-15)
    # wider signal: the ratio has a positive minimum at a known point
    spec = MixtureSpec(0.25, Normal(1, 2), Normal(0, 1))
    got = alpha0_continuous(spec)
    mu_s, s_s, mu_b, s_b = 1.0, 2.0, 0.0, 1.0
    x_star = (mu_b * s_s ** 2 - mu_s * s_b ** 2) / (s_s ** 2 - s_b ** 2)
    ratio = (Normal(mu_s, s_s).density(x_star) / Normal(mu_b, s_b).density(x_star))
    assert got == pytest.approx(0.25 * (1 - ratio), abs=1e-12)
    assert got < 0.25


def test_exponential_branches():
    # later start or lighter tail: identifiable
    a = alpha0_continuous(MixtureSpec(0.3, Exponential(loc=1, scale=1), Exponential(loc=0, scale=1)))
    assert a == pytest.approx(0.3, abs=1e-15)
    b = alpha0_continuous(MixtureSpec(0.3, Exponential(loc=0, scale=0.5), Exponential(loc=0, scale=1)))
    assert b == pytest.approx(0.3, abs=1e-15)
    # heavier signal tail: mass leaks by the closed-form factor
    spec = MixtureSpec(0.3, Exponential(loc=0, scale=2), Exponential(loc=0.5, scale=1))
    got = alpha0_continuous(spec)
    want = 0.3 * (1 - (1.0 / 2.0) * math.exp((0.0 - 0.5) / 2.0))
    assert got == pytest.approx(want, abs=1e-12)


def test_essinf_requires_reasonable_grid():
    with pytest.raises(ValueError):
        essinf_density_ratio(Normal(0, 1).density, Normal(0, 1).density,
                             Normal(0, 1).quantile, grid=10)


def test_essinf_grid_must_be_an_integer():
    # A float grid used to evaluate int(grid) quantiles at k / (grid + 1),
    # and True is an int; both are rejected, as every count argument is.
    args = (Normal(1, 2).density, Normal(0, 1).density, Normal(0, 1).quantile)
    spec = MixtureSpec(0.25, Normal(1, 2), Normal(0, 1))
    for bad in (1000.5, 2000.0, True):
        with pytest.raises(ValueError, match="grid must be an integer"):
            essinf_density_ratio(*args, grid=bad)
        with pytest.raises(ValueError, match="grid must be an integer"):
            alpha0_continuous(spec, grid=bad, closed_form=False)
    assert essinf_density_ratio(*args, grid=np.int64(1000)) == essinf_density_ratio(*args, grid=1000)


def test_essinf_matches_known_ratio():
    # N(2,1) vs N(0,1): ratio exp(2x - 2) has essinf 0 -> fully identifiable
    got = essinf_density_ratio(Normal(2, 1).density, Normal(0, 1).density,
                               Normal(0, 1).quantile, grid=50_000)
    assert got < 1e-3


CLOSED_NUMERIC_CASES = [
    MixtureSpec(0.2, Normal(1, 2), Normal(0, 1)),
    MixtureSpec(0.35, Normal(-1, 1.5), Normal(0.5, 1)),
    MixtureSpec(0.5, Normal(0, 3), Normal(0, 1)),
    MixtureSpec(0.2, Exponential(loc=0, scale=2), Exponential(loc=0, scale=1)),
    MixtureSpec(0.4, Exponential(loc=0.2, scale=1.5), Exponential(loc=0.6, scale=1)),
]


@pytest.mark.parametrize("spec", CLOSED_NUMERIC_CASES)
def test_closed_form_matches_numeric(spec):
    closed = alpha0_continuous(spec)
    numeric = alpha0_continuous(spec, grid=200_000, closed_form=False)
    assert numeric == pytest.approx(closed, abs=1e-3)


def test_numeric_route_never_exceeds_alpha():
    spec = MixtureSpec(0.3, Beta(2, 2), Uniform(0, 1))
    got = alpha0_continuous(spec, closed_form=False)
    assert 0.0 <= got <= 0.3


def test_continuous_rejects_discrete_components():
    spec = MixtureSpec(0.3, Poisson(1.0), Normal(0, 1))
    with pytest.raises(ValueError):
        alpha0_continuous(spec)


def test_auto_dispatch():
    d = MixtureSpec(0.3, Poisson(2.0), Poisson(1.0))
    assert alpha0_auto(d) == alpha0_discrete(d)
    c = MixtureSpec(0.3, Normal(1, 2), Normal(0, 1))
    assert alpha0_auto(c) == alpha0_continuous(c)
    with pytest.raises(ValueError, match="MixedMixtureSpec"):
        alpha0_auto(MixtureSpec(0.3, Poisson(2.0), Normal(0, 1)))


# --- mixed continuous/discrete components ------------------------------------


def test_mixed_reduces_to_continuous_when_no_atoms():
    pure = MixedMixtureSpec(alpha=0.3, kappa_signal=1.0, kappa_background=1.0,
                            signal_continuous=Normal(1, 2),
                            background_continuous=Normal(0, 1))
    want = alpha0_continuous(MixtureSpec(0.3, Normal(1, 2), Normal(0, 1)))
    assert alpha0_mixed(pure) == pytest.approx(want, abs=1e-12)


def test_mixed_reduces_to_discrete_when_all_atoms():
    pure = MixedMixtureSpec(alpha=0.3, kappa_signal=0.0, kappa_background=0.0,
                            signal_discrete=Poisson(2.0),
                            background_discrete=Poisson(1.0))
    want = alpha0_discrete(MixtureSpec(0.3, Poisson(2.0), Poisson(1.0)))
    assert alpha0_mixed(pure) == pytest.approx(want, abs=1e-12)


def test_mixed_binds_on_the_most_restrictive_part():
    # identical continuous parts would allow shifting all continuous signal
    # mass (0.4), but the Poisson atoms only allow 0.4 * min_x p5(x)/p1(x)
    # = 0.4 * exp(-4); the smaller allowance binds
    spec = MixedMixtureSpec(alpha=0.4, kappa_signal=0.5, kappa_background=0.5,
                            signal_continuous=Normal(0, 1),
                            signal_discrete=Poisson(5.0),
                            background_continuous=Normal(0, 1),
                            background_discrete=Poisson(1.0))
    got = alpha0_mixed(spec)
    assert got == pytest.approx(0.4 - 0.4 * math.exp(-4.0), abs=1e-9)


def test_mixed_binds_on_the_continuous_part():
    # now the atoms agree and the continuous parts are barely overlapping
    spec = MixedMixtureSpec(alpha=0.4, kappa_signal=0.5, kappa_background=0.5,
                            signal_continuous=Normal(0, 3),
                            signal_discrete=Poisson(1.0),
                            background_continuous=Normal(0, 1),
                            background_discrete=Poisson(1.0))
    got = alpha0_mixed(spec)
    # continuous allowance: 0.4 * essinf ratio = 0.4 * (1/3) (ratio at x = 0)
    assert got == pytest.approx(0.4 - 0.4 * (1.0 / 3.0), abs=1e-6)


def test_mixed_requires_present_parts():
    with pytest.raises(ValueError):
        MixedMixtureSpec(alpha=0.3, kappa_signal=0.5, kappa_background=0.5,
                         background_continuous=Normal(0, 1))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=-2, max_value=2), st.floats(min_value=0.5, max_value=3),
       st.floats(min_value=-2, max_value=2), st.floats(min_value=0.5, max_value=3))
# both densities underflow at the ratio's minimiser, far in the tails
@example(alpha=0.5, mu_s=0.0, sd_s=0.5078125, mu_b=1.0, sd_b=0.5)
def test_alpha0_never_exceeds_alpha(alpha, mu_s, sd_s, mu_b, sd_b):
    spec = MixtureSpec(alpha, Normal(mu_s, sd_s), Normal(mu_b, sd_b))
    got = alpha0_continuous(spec)
    assert 0.0 - 1e-12 <= got <= alpha + 1e-12
