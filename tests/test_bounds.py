"""Tests for the closed-form recovery conditions and error bounds."""

import math

import numpy as np
import pytest

from springback.bounds import (
    TOY_PROFILE,
    BoundKind,
    RipProfile,
    a_of_s,
    alpha_posterior_bound,
    alpha_relation,
    constant_c,
    convergence_alpha_bound,
    d1,
    d2,
    exact_condition,
    noise_threshold,
    posterior_verify,
    recovery_bound,
    rip_condition,
    toy_noise_thresholds,
)
from springback.solvers import alpha_subroutine
from springback.errors import InvalidParameterError, NumericError, RipConditionError
from springback.penalties import PenaltyKind, ThresholdParams


def _random_profile(rng):
    d4 = rng.uniform(0.05, 0.95)
    d3 = rng.uniform(0.05, 0.95)
    return RipProfile(s=int(rng.integers(1, 50)), delta3s=d3, delta4s=d4)


def test_profile_validation():
    with pytest.raises(InvalidParameterError):
        RipProfile(s=0, delta3s=0.2, delta4s=0.2)
    with pytest.raises(InvalidParameterError):
        RipProfile(s=5, delta3s=1.2, delta4s=0.2)


def test_rip_condition_on_toy_profile():
    assert rip_condition(TOY_PROFILE)
    assert not rip_condition(RipProfile(s=5, delta3s=0.9, delta4s=0.9))


def test_d1_d2_toy_values():
    assert d1(TOY_PROFILE, 1.0) == pytest.approx(0.0791666, rel=1e-5)
    assert d2(TOY_PROFILE) == pytest.approx(0.108409, rel=1e-5)
    # d1 is linear in alpha
    assert d1(TOY_PROFILE, 2.0) == pytest.approx(2 * d1(TOY_PROFILE, 1.0))


def test_alpha_posterior_bound():
    assert alpha_posterior_bound(TOY_PROFILE, 1.0) == pytest.approx(0.68468, rel=1e-4)
    assert alpha_posterior_bound(TOY_PROFILE, 2.0) == pytest.approx(
        0.5 * alpha_posterior_bound(TOY_PROFILE, 1.0)
    )
    # negative numerator flags an unusable condition on RIP-failing profiles
    bad = RipProfile(s=5, delta3s=0.9, delta4s=0.9)
    assert alpha_posterior_bound(bad, 1.0) < 0


def test_posterior_verify():
    x = np.zeros(5)
    x[0] = 1.0
    assert posterior_verify(TOY_PROFILE, 0.6, x)  # bound ~ 0.68468
    assert not posterior_verify(TOY_PROFILE, 0.7, x)
    assert posterior_verify(TOY_PROFILE, 1e-12, x)
    assert posterior_verify(TOY_PROFILE, 5.0, np.zeros(5))


def test_recovery_bound_cases():
    rep = recovery_bound(TOY_PROFILE, 1.0, 0.0)
    assert rep.bound == 0.0 and rep.kind is BoundKind.SPARSE
    rep = recovery_bound(TOY_PROFILE, 1.0, 0.1)
    assert rep.bound == pytest.approx(1.58945, rel=1e-5)
    assert recovery_bound(TOY_PROFILE, 1.0, 0.1, tail_l1=0.2).kind is BoundKind.NEARLY_SPARSE
    assert (
        recovery_bound(TOY_PROFILE, 1.0, 0.1, improved=True).kind is BoundKind.SPARSE_IMPROVED
    )
    with pytest.raises(RipConditionError):
        recovery_bound(RipProfile(s=5, delta3s=0.9, delta4s=0.9), 1.0, 0.1)


def test_improved_bound_never_worse():
    rng = np.random.default_rng(0)
    tried = 0
    while tried < 100:
        prof = _random_profile(rng)
        if not rip_condition(prof):
            continue
        tried += 1
        alpha = rng.uniform(0.1, 2.0)
        tau = rng.uniform(0.0, 1.0)
        tail = rng.uniform(0.0, 1.0)
        plain = recovery_bound(prof, alpha, tau, tail).bound
        improved = recovery_bound(prof, alpha, tau, tail, improved=True).bound
        assert improved <= plain + 1e-12
        if tau > 0:
            assert improved < plain


def test_recovery_bound_monotone_in_tau_and_tail():
    for improved in (False, True):
        b1 = recovery_bound(TOY_PROFILE, 1.0, 0.1, 0.0, improved).bound
        b2 = recovery_bound(TOY_PROFILE, 1.0, 0.2, 0.0, improved).bound
        b3 = recovery_bound(TOY_PROFILE, 1.0, 0.2, 0.3, improved).bound
        assert b1 <= b2 <= b3


# NaN passes every ordering test, and a fractional s skews every formula
@pytest.mark.parametrize("s", [math.nan, 2.5, 3.0, True])
def test_sparsity_must_be_an_integer(s):
    with pytest.raises(InvalidParameterError, match="s must be a positive integer"):
        RipProfile(s=s, delta3s=0.2, delta4s=0.2)
    with pytest.raises(InvalidParameterError, match="s must be a positive integer"):
        a_of_s(s)


def test_a_of_s_values():
    assert a_of_s(1) == pytest.approx(1.0 / 3.0)
    assert a_of_s(20) == pytest.approx(1.837142, rel=1e-5)
    with pytest.raises(InvalidParameterError):
        a_of_s(0)


def test_exact_condition_springback_matches_l1():
    rng = np.random.default_rng(1)
    params = ThresholdParams()
    for _ in range(1000):
        prof = _random_profile(rng)
        assert exact_condition(PenaltyKind.SPRINGBACK, prof, params) == exact_condition(
            PenaltyKind.L1, prof, params
        )


def test_exact_condition_orderings():
    # lp (p < 1) is weaker than l1; TL1 is stricter than l1 on the toy profile
    params = ThresholdParams(p=0.5, beta=1.0)
    assert exact_condition(PenaltyKind.L1, TOY_PROFILE, params)
    assert exact_condition(PenaltyKind.LP, TOY_PROFILE, params)
    assert not exact_condition(PenaltyKind.TL1, TOY_PROFILE, params)


def test_toy_noise_thresholds_table():
    expected = {
        "l1": 0.1385,
        "l0.2": 0.0271,
        "l0.5": 0.2333,
        "l0.999": 0.1391,
        "tl1": 0.0807,
        "l1-l2": 2.8652e-4,
    }
    rows = dict(toy_noise_thresholds(alpha=1.0))
    # compare at the precision the reference values are quoted at
    for name, value in expected.items():
        if name == "l1-l2":
            assert rows[name] == pytest.approx(value, rel=1e-2)
        else:
            assert float(f"{rows[name]:.4f}") == pytest.approx(value, abs=1e-12)


def test_noise_threshold_l1_cross_check():
    # The l1 row equals 2/(D1 Cs^2) with Cs = 4 / ((sqrt(3)+1) D2)
    c2 = d2(TOY_PROFILE)
    cs = 4.0 / ((math.sqrt(3.0) + 1.0) * c2)
    direct = 2.0 / (d1(TOY_PROFILE, 1.0) * cs * cs)
    row = noise_threshold(PenaltyKind.L1, TOY_PROFILE, 1.0, ThresholdParams())
    assert row == pytest.approx(direct, rel=1e-10)
    # the improved comparison prefactor 1 - D2 Cs / 2
    assert 1.0 - c2 * cs / 2.0 == pytest.approx(0.2679, abs=1e-4)


def test_noise_threshold_requires_rip():
    with pytest.raises(RipConditionError):
        noise_threshold(
            PenaltyKind.L1, RipProfile(s=5, delta3s=0.9, delta4s=0.9), 1.0, ThresholdParams()
        )


def test_constant_c():
    assert constant_c(TOY_PROFILE, 1.0, 0.0, 1.0) == 0.0
    assert constant_c(TOY_PROFILE, 1.0, 1.0, 1.0) == pytest.approx(0.031336, rel=1e-4)
    assert constant_c(TOY_PROFILE, 2.0, 1.0, 1.0) == pytest.approx(
        4 * constant_c(TOY_PROFILE, 1.0, 1.0, 1.0)
    )
    # C = (alpha tau c1s^2 core)^2: exactly 0 at tau = 0 whatever alpha, and
    # an alpha^2 that underflows never meets a tau^2 that overflows
    assert constant_c(TOY_PROFILE, 1e200, 0.0, 1.0) == 0.0
    assert constant_c(TOY_PROFILE, 1e-200, 1e200, 1.0) == pytest.approx(
        constant_c(TOY_PROFILE, 1.0, 1.0, 1.0), rel=1e-15
    )


def test_convergence_alpha_bound():
    A = np.diag([2.0, 1.0])
    b = np.array([1.0, 1.0])
    # 2 * sigma_min / (||b|| + tau)
    assert convergence_alpha_bound(A, b, 0.0) == pytest.approx(2.0 / np.sqrt(2.0))
    with pytest.raises(InvalidParameterError):
        convergence_alpha_bound(A, np.zeros(2), 0.0)


def test_convergence_alpha_bound_survives_an_overflowing_norm():
    # ||b||^2 overflows while ||b|| = sqrt(2) 1e160 does not; the bound reads
    # the same ||b|| as alpha_subroutine, which takes it unchanged here
    A = np.eye(3)[:2]
    b = np.array([1e160, 1e160])
    bound = convergence_alpha_bound(A, b, 0.0)
    assert bound == pytest.approx(2.0 / (math.sqrt(2.0) * 1e160), rel=1e-12)
    assert bound == alpha_subroutine(A, b, 0.0)


def test_alpha_relation():
    # sigma_min = 1, ||b|| + tau = 2, ||x*|| = 1: LHS ~ 0.6847 <= RHS = 1
    A = np.eye(2)
    b = np.array([2.0, 0.0])
    assert alpha_relation(TOY_PROFILE, A, b, 0.0, 1.0)
    # shrinking ||x*|| far enough flips the relation
    assert not alpha_relation(TOY_PROFILE, A, b, 0.0, 0.1)
    # degenerate inputs are rejected by the two bounds the relation compares
    with pytest.raises(InvalidParameterError, match="tau"):
        alpha_relation(TOY_PROFILE, A, np.zeros(2), 0.0, 1.0)
    with pytest.raises(InvalidParameterError, match="xopt_norm"):
        alpha_relation(TOY_PROFILE, A, b, 0.0, 0.0)


@pytest.mark.parametrize("length", [4, 6])
@pytest.mark.parametrize(
    "alpha_of",
    [
        lambda A, b: alpha_subroutine(A, b, 0.0),
        lambda A, b: convergence_alpha_bound(A, b, 0.0),
        lambda A, b: alpha_relation(TOY_PROFILE, A, b, 0.0, 1.0),
    ],
    ids=["alpha_subroutine", "convergence_alpha_bound", "alpha_relation"],
)
def test_alpha_bounds_reject_b_of_another_length(alpha_of, length):
    # 2 sigma_min(A) / (||b||_2 + tau) is stated for one system: b has A's m rows
    A = np.hstack([np.eye(5), np.eye(5)])
    with pytest.raises(InvalidParameterError, match=f"b has length {length}, expected 5"):
        alpha_of(A, np.ones(length))


def test_bound_argument_checks():
    params = ThresholdParams()
    for call, match in (
        (lambda: d1(TOY_PROFILE, 0.0), "alpha must be positive"),
        (lambda: posterior_verify(TOY_PROFILE, 1.0, np.ones(3), eps=-1.0), "eps"),
        (lambda: recovery_bound(TOY_PROFILE, 1.0, -0.1), "tau and tail_l1"),
        (lambda: recovery_bound(TOY_PROFILE, 1.0, 0.0, -0.1), "tau and tail_l1"),
        (lambda: noise_threshold(PenaltyKind.L1, TOY_PROFILE, 0.0, params), "alpha must be"),
        (lambda: constant_c(TOY_PROFILE, 1.0, 0.1, 0.0), "c1s"),
        (lambda: exact_condition(PenaltyKind.MCP, TOY_PROFILE, params), "no exact recovery"),
        (lambda: noise_threshold(PenaltyKind.MCP, TOY_PROFILE, 1.0, params), "no noise threshold"),
        # NaN fails every ordering test, so each is checked for finiteness too
        (lambda: d1(TOY_PROFILE, math.nan), "alpha must be positive"),
        (lambda: d1(TOY_PROFILE, math.inf), "alpha must be positive"),
        (lambda: recovery_bound(TOY_PROFILE, math.nan, 0.0), "alpha must be positive"),
        (lambda: recovery_bound(TOY_PROFILE, 1.0, math.nan), "tau and tail_l1"),
        (lambda: recovery_bound(TOY_PROFILE, 1.0, math.inf), "tau and tail_l1"),
        (lambda: recovery_bound(TOY_PROFILE, 1.0, 0.0, math.inf), "tau and tail_l1"),
        (lambda: recovery_bound(TOY_PROFILE, 1.0, 0.0, math.nan), "tau and tail_l1"),
        (lambda: noise_threshold(PenaltyKind.L1, TOY_PROFILE, math.nan, params), "alpha must be"),
        (lambda: noise_threshold(PenaltyKind.L1, TOY_PROFILE, math.inf, params), "alpha must be"),
        (lambda: alpha_posterior_bound(TOY_PROFILE, 0.0), "xopt_norm"),
        (lambda: alpha_posterior_bound(TOY_PROFILE, math.nan), "xopt_norm"),
        (lambda: alpha_posterior_bound(TOY_PROFILE, math.inf), "xopt_norm"),
        (lambda: posterior_verify(TOY_PROFILE, math.nan, np.ones(3)), "alpha must be positive"),
        (lambda: posterior_verify(TOY_PROFILE, 0.0, np.zeros(3)), "alpha must be positive"),
        (lambda: posterior_verify(TOY_PROFILE, 1.0, np.ones(3), eps=math.nan), "eps"),
        (lambda: posterior_verify(TOY_PROFILE, 1.0, np.ones(3), eps=math.inf), "eps"),
        (lambda: constant_c(TOY_PROFILE, 1.0, 0.1, math.nan), "c1s"),
        (lambda: constant_c(TOY_PROFILE, 1.0, 0.1, math.inf), "c1s"),
        (lambda: constant_c(TOY_PROFILE, math.nan, 0.1, 1.0), "alpha must be positive"),
        (lambda: constant_c(TOY_PROFILE, 1.0, -0.1, 1.0), "tau"),
        (lambda: constant_c(TOY_PROFILE, 1.0, math.nan, 1.0), "tau"),
        (lambda: convergence_alpha_bound(np.eye(2), np.ones(2), -0.5), "tau"),
        (lambda: convergence_alpha_bound(np.eye(2), np.ones(2), math.nan), "tau"),
        (lambda: convergence_alpha_bound(np.eye(2), np.ones(2), math.inf), "tau"),
        # an int beyond the float range is not finite, not an OverflowError
        (lambda: d1(TOY_PROFILE, 10**400), "alpha must be positive"),
        (lambda: recovery_bound(TOY_PROFILE, 1.0, 10**400), "tau and tail_l1"),
    ):
        with pytest.raises(InvalidParameterError, match=match):
            call()


# A tiny alpha makes 2 tau / D1 overflow (or D1 underflow to 0), a huge tau
# makes 2 tau overflow, and the improved form's shift^2 - shift turns NaN:
# each is a NumericError, not an inf or NaN bound.
_OVERFLOWING_BOUNDS = {
    "sparse": lambda: recovery_bound(TOY_PROFILE, 1e-320, 0.1),
    "sparse-improved-2tau": lambda: recovery_bound(TOY_PROFILE, 1e308, 1e308, improved=True),
    "sparse-improved-nan": lambda: recovery_bound(TOY_PROFILE, 1e-320, 0.0, improved=True),
    "nearly-sparse": lambda: recovery_bound(TOY_PROFILE, 1e-320, 0.0, tail_l1=1.0),
    "d1-underflow": lambda: recovery_bound(TOY_PROFILE, 5e-324, 0.1),
    "threshold-l1": lambda: noise_threshold(PenaltyKind.L1, TOY_PROFILE, 1e-320, ThresholdParams()),
    "threshold-tl1": lambda: noise_threshold(PenaltyKind.TL1, TOY_PROFILE, 1e-320, ThresholdParams()),
    "toy-table": lambda: toy_noise_thresholds(alpha=1e-320),
    "constant-c-alpha": lambda: constant_c(TOY_PROFILE, 1e200, 1.0, 1.0),
    "constant-c-c1s": lambda: constant_c(TOY_PROFILE, 1.0, 1.0, 1e100),
    "constant-c-tau": lambda: constant_c(TOY_PROFILE, 1.0, 1e200, 1.0),
}


@pytest.mark.parametrize("call", list(_OVERFLOWING_BOUNDS))
def test_overflowing_bounds_raise(call):
    with pytest.raises(NumericError, match="overflows|underflows"):
        _OVERFLOWING_BOUNDS[call]()


@pytest.mark.parametrize("p", [3e-3, 1e-3, 1e-6, 1e-300])
def test_lp_formulas_read_an_overflowing_power_as_inf(p):
    # 3 ** (2/p - 1) overflows below p of about 0.0031: the lp noise threshold
    # heads to its limit 0 (reached by p = 1e-3), and the lp condition's
    # right side exceeds any delta_3s < 1
    params = ThresholdParams(p=p)
    value = noise_threshold(PenaltyKind.LP, TOY_PROFILE, 1.0, params)
    assert value == 0.0 if p <= 1e-3 else 0.0 < value < 1e-100
    assert exact_condition(PenaltyKind.LP, TOY_PROFILE, params) is True
    assert exact_condition(PenaltyKind.LP, RipProfile(s=20, delta3s=0.99, delta4s=0.99), params) is True


def test_l1_minus_l2_condition_is_stricter_than_l1s():
    # a(20) = 1.837..., so at delta_4s = 1/3 l1-l2 needs delta_3s < 0.2248
    # where l1 needs delta_3s < 1
    for d3, holds in ((0.2, True), (0.25, False)):
        prof = RipProfile(s=20, delta3s=d3, delta4s=1.0 / 3.0)
        assert exact_condition(PenaltyKind.L1_MINUS_2, prof, ThresholdParams()) is holds
        assert exact_condition(PenaltyKind.L1, prof, ThresholdParams())
