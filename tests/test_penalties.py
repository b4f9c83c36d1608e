"""Tests for the penalty catalog and thresholding operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from springback.errors import InvalidParameterError
from springback.penalties import (
    PenaltyKind,
    ThresholdParams,
    dc_concave_gradient,
    firm_threshold,
    penalty_value,
    prox_springback,
    soft_shrink,
    soft_threshold,
    springback_threshold,
)


def test_threshold_params_validation():
    with pytest.raises(InvalidParameterError):
        ThresholdParams(beta=0.0)
    with pytest.raises(InvalidParameterError):
        ThresholdParams(alpha=-1.0)
    with pytest.raises(InvalidParameterError):
        ThresholdParams(p=1.0)
    for name in ("alpha", "mu", "beta"):
        for value in (np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match=f"{name} must be positive and finite"):
                ThresholdParams(**{name: value})
    ThresholdParams()  # defaults valid


def test_penalty_values_basic():
    params = ThresholdParams(alpha=1.0)
    assert penalty_value(PenaltyKind.SPRINGBACK, np.zeros(4), params) == 0.0
    # l1 - l2 vanishes in one dimension
    assert penalty_value(PenaltyKind.L1_MINUS_2, np.array([3.7]), params) == pytest.approx(0.0)
    # MCP saturates at mu/2 beyond mu
    p = ThresholdParams(mu=0.75)
    assert penalty_value(PenaltyKind.MCP, np.array([2.0]), p) == pytest.approx(0.375)
    assert penalty_value(PenaltyKind.L1, np.array([1.0, -2.0]), params) == pytest.approx(3.0)
    assert penalty_value(PenaltyKind.LP, np.array([4.0]), ThresholdParams(p=0.5)) == pytest.approx(2.0)
    assert penalty_value(PenaltyKind.TL1, np.array([1.0]), ThresholdParams(beta=1.0)) == pytest.approx(1.0)
    # a kind's value, not the enum member, names no penalty
    with pytest.raises(InvalidParameterError, match="unknown penalty kind"):
        penalty_value("l1", np.ones(3), params)


def test_springback_equals_mcp_inside_linf_ball():
    rng = np.random.default_rng(0)
    for _ in range(100):
        mu = rng.uniform(0.2, 3.0)
        x = rng.uniform(-mu, mu, size=6)
        spb = penalty_value(PenaltyKind.SPRINGBACK, x, ThresholdParams(alpha=1.0 / mu))
        mcp = penalty_value(PenaltyKind.MCP, x, ThresholdParams(mu=mu))
        assert spb == pytest.approx(mcp, abs=1e-12)


def test_weak_convexity_witness():
    # springback + (alpha/2)||x||^2 is the l1 norm, hence convex
    rng = np.random.default_rng(1)
    alpha = 0.8
    params = ThresholdParams(alpha=alpha)

    def g(x):
        return penalty_value(PenaltyKind.SPRINGBACK, x, params) + 0.5 * alpha * float(x @ x)

    for _ in range(50):
        x, y = rng.standard_normal((2, 5))
        assert g(x) == pytest.approx(np.abs(x).sum(), abs=1e-10)
        mid = g(0.5 * (x + y))
        assert mid <= 0.5 * (g(x) + g(y)) + 1e-10


def test_soft_threshold_examples():
    assert soft_threshold(0.2, 0.25) == 0.0
    assert soft_threshold(1.0, 0.25) == pytest.approx(0.75)
    assert soft_threshold(-1.0, 0.25) == pytest.approx(-0.75)
    # the dead zone gives +0.0 from either side, as firm and springback do
    assert not np.signbit(soft_threshold(-0.2, 0.25))
    with pytest.raises(InvalidParameterError):
        soft_threshold(np.nan, 0.25)


def test_firm_threshold_examples():
    assert firm_threshold(0.1, 0.25, 0.75) == 0.0
    assert firm_threshold(2.0, 0.25, 0.75) == 2.0
    assert firm_threshold(0.5, 0.25, 0.75) == pytest.approx(0.375)
    with pytest.raises(InvalidParameterError):
        firm_threshold(1.0, 0.5, 0.5)


def test_springback_threshold_examples():
    assert springback_threshold(0.2, 0.25, 1.0) == 0.0
    assert springback_threshold(0.5, 0.25, 4.0 / 3.0) == pytest.approx(0.375, abs=1e-4)
    with pytest.raises(InvalidParameterError):
        springback_threshold(1.0, 0.5, 2.0)  # 1 - lam*alpha = 0


# NaN fails every comparison, so check_positive tests finiteness first
_NON_FINITE_PARAMETER_CALLS = {
    "soft-lam": lambda: soft_threshold(1.0, np.nan),
    "soft-lam-inf": lambda: soft_threshold(1.0, np.inf),
    "springback-lam": lambda: springback_threshold(1.0, np.nan, 0.5),
    "springback-alpha": lambda: springback_threshold(1.0, 0.25, np.nan),
    "springback-lam-inf": lambda: springback_threshold(1.0, np.inf, 0.5),
    "springback-alpha-inf": lambda: springback_threshold(1.0, 0.25, np.inf),
    "firm-lam": lambda: firm_threshold(0.5, np.nan, 0.75),
    "firm-mu": lambda: firm_threshold(0.5, 0.25, np.nan),
    "firm-mu-inf": lambda: firm_threshold(0.5, 0.25, np.inf),
    "prox-lam": lambda: prox_springback(np.ones(3), np.nan, 0.5),
    "prox-alpha": lambda: prox_springback(np.ones(3), 0.25, np.nan),
    "prox-lam-inf": lambda: prox_springback(np.ones(3), np.inf, 0.5),
    "prox-alpha-inf": lambda: prox_springback(np.ones(3), 0.25, np.inf),
}


@pytest.mark.parametrize("call", list(_NON_FINITE_PARAMETER_CALLS))
def test_thresholding_operators_reject_non_finite_parameters(call):
    with pytest.raises(InvalidParameterError):
        _NON_FINITE_PARAMETER_CALLS[call]()


def test_springback_reduces_to_soft_for_small_alpha():
    rng = np.random.default_rng(2)
    for w in rng.uniform(-5, 5, 200):
        assert springback_threshold(w, 0.25, 1e-9) == pytest.approx(
            soft_threshold(w, 0.25), abs=1e-6
        )


def test_odd_symmetry_exact():
    rng = np.random.default_rng(3)
    for w in rng.uniform(-3, 3, 200):
        assert soft_threshold(-w, 0.25) == -soft_threshold(w, 0.25)
        assert firm_threshold(-w, 0.25, 0.75) == -firm_threshold(w, 0.25, 0.75)
        assert springback_threshold(-w, 0.25, 0.5) == -springback_threshold(w, 0.25, 0.5)


def test_firm_springback_coincidence_inside_mu():
    rng = np.random.default_rng(4)
    for _ in range(500):
        mu = rng.uniform(0.3, 3.0)
        lam = mu * rng.uniform(0.05, 0.9)
        w = rng.uniform(-mu, mu)
        assert springback_threshold(w, lam, 1.0 / mu) == firm_threshold(w, lam, mu)
    # divergence beyond mu: springback keeps the ramp slope, firm passes through
    assert springback_threshold(2.0, 0.25, 1.0 / 0.75) != firm_threshold(2.0, 0.25, 0.75)


def test_prox_springback_matches_scalar_operator():
    x = np.array([0.5, -0.5, 0.1, 3.0])
    lam, alpha = 0.25, 4.0 / 3.0
    out = prox_springback(x, lam, alpha)
    np.testing.assert_allclose(out[:2], [0.375, -0.375], atol=1e-6)
    expected = [springback_threshold(w, lam, alpha) for w in x]
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_array_equal(prox_springback(np.zeros(3), lam, alpha), np.zeros(3))


def test_prox_springback_beats_grid_candidates():
    rng = np.random.default_rng(5)
    grid = np.arange(-5.0, 5.0 + 1e-9, 1e-4)
    for _ in range(20):
        lam = rng.uniform(0.05, 0.8)
        alpha = rng.uniform(0.0, 0.9 / lam)
        if 1.0 - lam * alpha < 0.1:
            continue
        w = rng.uniform(-2.0, 2.0)

        def obj(y):
            return lam * (np.abs(y) - 0.5 * alpha * y * y) + 0.5 * (y - w) ** 2

        star = prox_springback(np.array([w]), lam, alpha)[0]
        assert obj(star) <= obj(grid).min() + 1e-7


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    w=st.floats(-100.0, 100.0),
    lam=st.floats(1e-3, 10.0),
    lam_alpha=st.floats(1e-3, 0.99),
)
def test_springback_threshold_minimizes_prox_objective(w, lam, lam_alpha):
    # with 1 - lam*alpha > 0 the scalar prox objective is strongly convex, so
    # the threshold must beat every stationary candidate and a dense grid
    alpha = lam_alpha / lam
    scale = 1.0 - lam * alpha

    def obj(y):
        return lam * (np.abs(y) - 0.5 * alpha * y * y) + 0.5 * (y - w) ** 2

    star = springback_threshold(w, lam, alpha)
    candidates = [0.0]
    if (w - lam) / scale > 0:
        candidates.append((w - lam) / scale)
    if (w + lam) / scale < 0:
        candidates.append((w + lam) / scale)
    reach = (abs(w) + lam) / scale
    tol = 1e-12 * (1.0 + reach * reach)
    assert obj(star) <= min(obj(c) for c in candidates) + tol
    grid = np.linspace(-reach - 1.0, reach + 1.0, 20001)
    assert obj(star) <= obj(grid).min() + tol


def test_dc_concave_gradient_closed_forms():
    params = ThresholdParams(alpha=0.5, mu=1.0, beta=1.0)
    np.testing.assert_allclose(
        dc_concave_gradient(PenaltyKind.SPRINGBACK, np.array([1.0, -2.0]), params),
        [0.5, -1.0],
    )
    np.testing.assert_array_equal(
        dc_concave_gradient(PenaltyKind.L1_MINUS_2, np.zeros(3), params), np.zeros(3)
    )
    np.testing.assert_allclose(
        dc_concave_gradient(PenaltyKind.MCP, np.array([0.5, 3.0]), params), [0.5, 1.0]
    )
    with pytest.raises(InvalidParameterError):
        dc_concave_gradient(PenaltyKind.L1, np.ones(2), params)


def _h_value(kind, x, params):
    """Concave part h of the DC split penalty = convex - h, elementwise."""
    ax = np.abs(x)
    if kind is PenaltyKind.MCP:
        return float(
            np.sum(ax - np.where(ax <= params.mu, ax - ax * ax / (2 * params.mu), params.mu / 2))
        )
    if kind is PenaltyKind.TL1:
        b = params.beta
        return float(np.sum((b + 1) / b * ax - (b + 1) * ax / (b + ax)))
    raise ValueError(kind)


@pytest.mark.parametrize("kind", [PenaltyKind.MCP, PenaltyKind.TL1])
def test_dc_concave_gradient_finite_differences(kind):
    rng = np.random.default_rng(6)
    params = ThresholdParams(mu=0.8, beta=1.5)
    h = 1e-5
    for _ in range(20):
        x = rng.uniform(0.2, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        g = dc_concave_gradient(kind, x, params)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (_h_value(kind, x + e, params) - _h_value(kind, x - e, params)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-6)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), data=st.data())
def test_soft_shrink_matches_sign_times_positive_part(t, data):
    # v - clamp(v, -t, t) against sgn(v) max(|v| - t, 0), boundaries and
    # subnormals included; == lets only the sign of a zero differ
    edges = [t, -t, math.nextafter(t, 0.0), math.nextafter(t, math.inf), 5e-324, -5e-324, 0.0, -0.0]
    edges += [-e for e in edges[2:4]]
    edges = [e for e in edges if math.isfinite(e)]
    v = np.array(data.draw(st.lists(st.one_of(_FINITE, st.sampled_from(edges)), min_size=1, max_size=20)))
    out = soft_shrink(v, t)
    assert np.array_equal(out, np.sign(v) * np.maximum(np.abs(v) - t, 0.0))
