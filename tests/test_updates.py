"""Unit tests for the closed-form update operations and penalty policies."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from softqn.updates import (
    ConstantAlpha,
    ConstantBeta,
    CurvatureError,
    CurvatureRelaxedBeta,
    EigenBounds,
    PdThresholdError,
    StepNormBeta,
    UpdateConsistencyError,
    _EINSUM_MIN_N,
    _rank_two,
    bfgs_admissible,
    bfgs_update,
    biased_direction,
    is_positive_definite,
    lambda_max_upper_bound,
    soft_qn_alpha_bound,
    soft_qn_gamma,
    soft_qn_update,
    sp_bfgs_admissible,
    sp_bfgs_update,
)

GOLDEN = 1.618033988749895  # 0.5 + sqrt(1.25)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_degenerate_pair_is_one():
    assert soft_qn_gamma(1.0, 0.0, 0.0) == 1.0


def test_gamma_zero_penalty_limit():
    assert soft_qn_gamma(1e-300, 5.0, -3.0) == pytest.approx(1.0)


def test_gamma_golden_ratio_case():
    assert soft_qn_gamma(1.0, 1.0, 0.0) == pytest.approx(GOLDEN, abs=1e-10)


def test_gamma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        soft_qn_gamma(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        soft_qn_gamma(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        soft_qn_gamma(1.0, -1e-6, 0.0)  # clearly negative y'Hy
    # tiny negative y'Hy from rounding is clamped, not fatal
    assert soft_qn_gamma(1.0, -1e-13, 0.0) == 1.0


# ---------------------------------------------------------------------------
# soft QN update


def test_update_zero_pair_is_identity_map():
    h = np.array([[2.0, 0.3], [0.3, 1.0]])
    h_new, scratch = soft_qn_update(h, np.zeros(2), np.zeros(2), alpha=7.5)
    npt.assert_array_equal(h_new, h)
    assert scratch.gamma == 1.0


def test_update_1d_large_alpha_reaches_bfgs_fixed_point():
    # s'y > 0, so alpha -> inf is the BFGS update, which maps to s s'/s'y = 1 here
    h_new, _ = soft_qn_update(np.eye(1), np.array([1.0]), np.array([1.0]), alpha=1e12)
    assert h_new[0, 0] == pytest.approx(1.0, rel=1e-3)


def test_update_1d_rejected_step_hand_value():
    # s = 0: H' = H - (alpha/gamma^2) Hy y'H with gamma the golden ratio
    h_new, scratch = soft_qn_update(np.eye(1), np.array([0.0]), np.array([1.0]), alpha=1.0)
    assert scratch.gamma == pytest.approx(GOLDEN, abs=1e-10)
    assert h_new[0, 0] == pytest.approx(0.6180339887, abs=1e-9)


def test_update_stays_pd_on_negative_curvature():
    rng = np.random.default_rng(7)
    h = np.eye(4)
    s = rng.standard_normal(4)
    y = -s + 0.1 * rng.standard_normal(4)  # s'y < 0
    assert float(s @ y) < 0
    h_new, _ = soft_qn_update(h, s, y, alpha=100.0)
    assert is_positive_definite(h_new)
    npt.assert_allclose(h_new, h_new.T, atol=0)


def test_update_rejects_nonfinite_and_mismatched_inputs():
    with pytest.raises(ValueError):
        soft_qn_update(np.eye(2), np.array([np.nan, 0.0]), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        soft_qn_update(np.eye(2), np.zeros(3), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        soft_qn_update(np.eye(2)[:1], np.zeros(2), np.zeros(2), 1.0)


@pytest.mark.parametrize(
    "s, y, alpha",
    [
        ([1e100, 0.0, 0.0], [1e100, 0.0, 0.0], 1e10),  # gamma overflows
        ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], 1e300),
        ([1.0, 0.0, 0.0], [1e160, 0.0, 0.0], 1e-8),
    ],
)
def test_update_overflow_fails_the_pd_self_check(s, y, alpha):
    # each of these overflows to a non-finite H, which must raise, not come back as NaN
    with np.errstate(all="ignore"), pytest.raises(UpdateConsistencyError):
        soft_qn_update(np.eye(3), np.array(s), np.array(y), alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_is_positive_definite_rejects_non_finite(bad):
    assert not is_positive_definite(np.full((3, 3), bad))
    a = np.eye(3)
    a[2, 0] = a[0, 2] = bad
    assert not is_positive_definite(a)


@pytest.mark.parametrize("alpha", [1e-4, 1e-5])
def test_update_noise_pairs_contract_scaled_identity_at_first_order(alpha):
    # Pairs whose y is pure noise, y ~ N(0, 2*sigma^2*I), shrink H = hI on average
    # by alpha*h^2*E[yy'] = 2*alpha*sigma^2*h^2*I at first order in alpha.  This
    # per-step contraction gives H_k ~= I/(1 + 2*alpha*sigma^2*k) on the QP protocol.
    n, samples, sigma2, h = 50, 400, 1.0, 0.8
    ys = np.random.default_rng(17).normal(0.0, math.sqrt(2.0 * sigma2), size=(samples, n))
    traces = [np.trace(soft_qn_update(h * np.eye(n), np.zeros(n), y, alpha)[0]) for y in ys]
    shrink = h - float(np.mean(traces)) / n
    # against the sampled second moment only the O(alpha^2) remainder is left: a
    # relative error of about 2*alpha*y'Hy = 2*alpha*h*2*sigma^2*n from gamma^2 ...
    sampled = alpha * h * h * float(np.mean(np.sum(ys * ys, axis=1))) / n
    assert shrink == pytest.approx(sampled, rel=3.0 * alpha * h * 2.0 * sigma2 * n)
    # ... and against the population value the sampling error of mean |y|^2 adds
    assert shrink == pytest.approx(2.0 * alpha * sigma2 * h * h, rel=0.05)


def test_update_scratch_u_is_v_over_gamma():
    rng = np.random.default_rng(11)
    h = np.eye(3) + 0.1
    s = rng.standard_normal(3)
    y = rng.standard_normal(3)
    alpha = 2.0
    _, scratch = soft_qn_update(h, s, y, alpha)
    v = h @ y + alpha * float(s @ y) * s
    npt.assert_allclose(scratch.u, v / scratch.gamma, rtol=1e-14)


# ---------------------------------------------------------------------------
# alpha bound


def test_alpha_bound_hand_case():
    h = np.eye(2)
    s = np.array([1.0, 0.0])
    y = np.array([1.0, 0.0])
    bound = soft_qn_alpha_bound(h, s, y, EigenBounds(0.5, 2.0), lam_min=1.0, lam_max=1.0)
    # min{(1 - 0.5)/(|s| + |Hy|)^2, (2 - 1)/|s|^2} = min{0.5/4, 1}
    assert bound == pytest.approx(0.125)


def test_alpha_bound_zero_pair_is_unconstrained():
    h = np.eye(2)
    z = np.zeros(2)
    assert soft_qn_alpha_bound(h, z, z, EigenBounds(0.5, 2.0), 1.0, 1.0) == math.inf


def test_alpha_bound_no_slack_is_zero():
    h = np.eye(2)
    s = np.array([1.0, 0.0])
    assert soft_qn_alpha_bound(h, s, s, EigenBounds(1.0, 1.0), 1.0, 1.0) == 0.0


def test_alpha_bound_violated_entry_returns_zero():
    h = np.eye(2)
    s = np.array([1.0, 0.0])
    # lam_min below the floor: no admissible alpha, caller clamps
    assert soft_qn_alpha_bound(h, s, s, EigenBounds(0.5, 2.0), 0.4, 1.0) == 0.0


# ---------------------------------------------------------------------------
# trace-based eigenvalue bound


def test_lambda_bound_identity_is_tight():
    assert lambda_max_upper_bound(np.eye(3)) == pytest.approx(1.0)


def test_lambda_bound_exact_for_n2():
    assert lambda_max_upper_bound(np.diag([1.0, 3.0])) == pytest.approx(3.0)


def test_lambda_bound_diag123_witness():
    bound = lambda_max_upper_bound(np.diag([1.0, 2.0, 3.0]))
    assert bound == pytest.approx(2.0 + math.sqrt(4.0 / 3.0), abs=1e-12)
    assert bound >= 3.0


def test_lambda_bound_scalar_matrix():
    assert lambda_max_upper_bound(np.array([[4.5]])) == 4.5


# ---------------------------------------------------------------------------
# BFGS


def test_bfgs_identity_fixed_point():
    s = np.array([0.3, -1.2, 0.5])
    h_new = bfgs_update(np.eye(3), s, s)
    npt.assert_allclose(h_new, np.eye(3), atol=1e-14)


def test_bfgs_1d_hand_value():
    h_new = bfgs_update(np.array([[2.0]]), np.array([1.0]), np.array([1.0]))
    assert h_new[0, 0] == pytest.approx(1.0)


def test_bfgs_rejects_negative_curvature():
    e1 = np.array([1.0, 0.0])
    with pytest.raises(CurvatureError):
        bfgs_update(np.eye(2), e1, -e1)


def test_bfgs_curvature_tolerance_is_relative():
    s = np.array([1e-8, 0.0])
    y = np.array([1e-8, 0.0])  # s'y = 1e-16 but well above 1e-12*|s||y| = 1e-28
    h_new = bfgs_update(np.eye(2), s, y)
    assert is_positive_definite(h_new)
    s = np.array([1.0, 0.0])
    y = np.array([1e-13, 1.0])  # s'y = 1e-13 < 1e-12*|s||y| = 1e-12
    assert not bfgs_admissible(s, y)
    with pytest.raises(CurvatureError):
        bfgs_update(np.eye(2), s, y)


# ---------------------------------------------------------------------------
# SP-BFGS


def test_sp_update_1d_hand_value():
    # pi = 1/(s'y + 1/beta) = 1/2 and omega = 1/(s'y + 2/beta) = 1/3, so
    # H' = 2 - omega*2*s*Hy + (omega^2*y'Hy + pi + (pi - omega)*omega*y'Hy)*s^2 = 1.5
    h_new = sp_bfgs_update(np.array([[2.0]]), np.array([1.0]), np.array([1.0]), beta=1.0)
    assert h_new[0, 0] == pytest.approx(1.5, rel=1e-15)


def test_sp_update_tiny_beta_is_identity_map():
    rng = np.random.default_rng(3)
    h = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    h = 0.5 * (h + h.T) + 3.0 * np.eye(3)
    s = rng.standard_normal(3)
    y = rng.standard_normal(3)
    h_new = sp_bfgs_update(h, s, y, beta=1e-15)
    npt.assert_allclose(h_new, h, atol=1e-10)


def test_sp_update_large_beta_matches_bfgs():
    h_new = sp_bfgs_update(np.array([[2.0]]), np.array([1.0]), np.array([1.0]), beta=1e12)
    assert h_new[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_sp_update_pd_threshold():
    e1 = np.array([1.0, 0.0])
    # s'y = -1 is not above -1/beta = -0.5
    with pytest.raises(PdThresholdError):
        sp_bfgs_update(np.eye(2), e1, -e1, beta=2.0)


def test_sp_update_pd_inside_threshold():
    e1 = np.array([1.0, 0.0])
    # s'y = -1 > -1/beta = -2
    h_new = sp_bfgs_update(np.eye(2), e1, -e1, beta=0.5)
    assert is_positive_definite(h_new)


# ---------------------------------------------------------------------------
# the shared rank-two kernel: bitwise the outer-product form
#
# The references below are the outer-product expressions (four np.outer
# temporaries and a symmetrize pass) the three kernels used before they shared
# one rank-two kernel.  Every kernel must reproduce them bit for bit.


def _symmetrize(a):
    return 0.5 * (a + a.T)


def _soft_qn_reference(h, s, y, alpha):
    hy = h @ y
    y_h_y = float(y @ hy)
    s_t_y = float(s @ y)
    gamma = soft_qn_gamma(alpha, y_h_y, s_t_y)
    g2 = gamma * gamma
    c_hy = alpha / g2
    c_cross = alpha * (alpha * s_t_y) / g2
    c_ss = alpha * (gamma + alpha * max(y_h_y, 0.0)) / g2
    h_new = (
        h
        - c_hy * np.outer(hy, hy)
        - c_cross * (np.outer(hy, s) + np.outer(s, hy))
        + c_ss * np.outer(s, s)
    )
    return _symmetrize(h_new)


def _bfgs_reference(h, s, y):
    rho = 1.0 / float(s @ y)
    hy = h @ y
    y_h_y = float(y @ hy)
    h_new = (
        h
        - rho * (np.outer(s, hy) + np.outer(hy, s))
        + (rho * rho * y_h_y + rho) * np.outer(s, s)
    )
    return _symmetrize(h_new)


def _sp_bfgs_reference(h, s, y, beta):
    s_t_y = float(s @ y)
    pi = 1.0 / (s_t_y + 1.0 / beta)
    omega = 1.0 / (s_t_y + 2.0 / beta)
    hy = h @ y
    y_h_y = float(y @ hy)
    c_ss = omega * omega * y_h_y + pi + (pi - omega) * omega * y_h_y
    return _symmetrize(h - omega * (np.outer(s, hy) + np.outer(hy, s)) + c_ss * np.outer(s, s))


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return _symmetrize(a @ a.T / n + 0.1 * np.eye(n))


def _pairs(rng, n):
    """Seeded (s, y) pairs: generic, positive curvature, s = 0, y = 0, s'y < 0."""
    s = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    a = _random_spd(rng, n)
    yield "generic", s, rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    yield "curved", s, a @ s + 1e-3 * np.linalg.norm(a @ s) * rng.standard_normal(n)
    yield "s0", np.zeros(n), rng.standard_normal(n)
    yield "y0", s, np.zeros(n)
    yield "negative", s, -(a @ s)


def _rank_two_reference(h, hy, s, c_hh, c_hs, c_ss):
    """The outer-product form of the shared kernel, without its hh term when c_hh is 0."""
    if c_hh != 0.0:
        h = h - c_hh * np.outer(hy, hy)
    return h - c_hs * (np.outer(hy, s) + np.outer(s, hy)) + c_ss * np.outer(s, s)


def _assert_same_bits(a, b):
    # assert_array_equal counts -0.0 equal to +0.0; the int64 view tells them apart
    npt.assert_array_equal(a, b, strict=True)
    npt.assert_array_equal(a.view(np.int64), b.view(np.int64), strict=True)


def _assert_bitwise(h_new, reference):
    _assert_same_bits(h_new, reference)
    assert np.array_equal(h_new, h_new.T)


@pytest.mark.parametrize("n", [1, 2, 7, _EINSUM_MIN_N - 1, _EINSUM_MIN_N, 90, 200])
def test_kernels_are_bitwise_the_outer_product_form(n):
    rng = np.random.default_rng(600 + n)
    for trial in range(3):
        h = _random_spd(rng, n)
        for _, s, y in _pairs(rng, n):
            for alpha in (1e-8, 1.0, 1e8):
                _assert_bitwise(soft_qn_update(h, s, y, alpha)[0], _soft_qn_reference(h, s, y, alpha))
            if bfgs_admissible(s, y):
                _assert_bitwise(bfgs_update(h, s, y), _bfgs_reference(h, s, y))
            for beta in (1e-3, 1.0, 1e3):
                if sp_bfgs_admissible(s, y, beta):
                    _assert_bitwise(sp_bfgs_update(h, s, y, beta), _sp_bfgs_reference(h, s, y, beta))


@pytest.mark.parametrize("n", [1, 2, 7, _EINSUM_MIN_N - 1, _EINSUM_MIN_N, 90, 200])
@pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
def test_sp_bfgs_is_bitwise_the_outer_product_form_just_above_the_pd_threshold(n, beta):
    rng = np.random.default_rng(700 + n)
    h = _random_spd(rng, n)
    s = rng.standard_normal(n)
    y0 = rng.standard_normal(n)
    applied = 0
    for excess in (1e-11, 1e-9, 1e-6):
        # scale y so that s'y sits just above -1/beta
        target = -1.0 / beta + excess * (1.0 + 1.0 / beta)
        y = y0 * (target / float(s @ y0))
        if sp_bfgs_admissible(s, y, beta):
            applied += 1
            _assert_bitwise(sp_bfgs_update(h, s, y, beta), _sp_bfgs_reference(h, s, y, beta))
    assert applied >= 2


def _identity_with_negative_zeros(n):
    h = np.eye(n)
    h[~np.eye(n, dtype=bool)] = -0.0
    return h


# Each pair has exact zero products whose sign survives into H': the broadcast
# outer product writes -0.0 there, where np.einsum("i,j->ij") would write +0.0.
# Padded with ones to the einsum threshold, the zero test must keep the broadcast.
@pytest.mark.parametrize("n", [3, _EINSUM_MIN_N])
@pytest.mark.parametrize(
    "kernel, s, y",
    [
        ("bfgs", [2.0, -1.0, -0.0], [2.0, -0.0, 0.0]),
        ("soft_qn", [-0.0, 1.0, -1.0], [1.0, -0.0, 0.0]),
        ("sp_bfgs", [0.0, -0.0, 0.0], [2.0, 2.0, 1.0]),
    ],
)
def test_kernels_keep_the_sign_of_zero_products(kernel, s, y, n):
    h = _identity_with_negative_zeros(n)
    s, y = np.array(s + [1.0] * (n - 3)), np.array(y + [1.0] * (n - 3))
    if kernel == "bfgs":
        h_new, reference = bfgs_update(h, s, y), _bfgs_reference(h, s, y)
    elif kernel == "soft_qn":
        h_new, reference = soft_qn_update(h, s, y, 1.0)[0], _soft_qn_reference(h, s, y, 1.0)
    else:
        h_new, reference = sp_bfgs_update(h, s, y, 1.0), _sp_bfgs_reference(h, s, y, 1.0)
    _assert_bitwise(h_new, reference)
    assert np.signbit(h_new).any()


@pytest.mark.parametrize("c_hh", [0.0, 0.5])
@pytest.mark.parametrize(
    "s, hy",
    [
        pytest.param([], [], id="n0"),
        # every product underflows to a signed zero, and -0.0 survives off the diagonal
        pytest.param([1e-170, -2e-170, 3e-170], [2e-170, -1e-170, 3e-170], id="underflow"),
        pytest.param([1.0, -2.0, 3.0], [np.inf, 1.0, -2.0], id="inf_in_hy"),
        pytest.param([1.0, -2.0, 0.0], [np.inf, 1.0, -2.0], id="inf_times_zero"),
        pytest.param([1.0, -2.0, 3.0], [np.nan, 1.0, -2.0], id="nan_in_hy"),
    ],
)
@pytest.mark.parametrize("copies", [1, _EINSUM_MIN_N // 3 + 1])
def test_rank_two_is_bitwise_the_outer_product_form_at_the_edges(s, hy, c_hh, copies):
    s, hy = np.tile(s, copies), np.tile(hy, copies)
    h = _identity_with_negative_zeros(s.size)
    with np.errstate(all="ignore"):
        out = _rank_two(h, hy, s, c_hh, -1.5, 2.0)
        reference = _rank_two_reference(h, hy, s, c_hh, -1.5, 2.0)
    assert out.shape == (s.size, s.size)
    _assert_same_bits(out, reference)


def _double_range_vectors(size, zero_one_in=8):
    """Entries log-uniform in [1e-200, 1e200] with random signs, about one in
    ``zero_one_in`` of them 0.0 or -0.0."""
    entry = st.builds(
        lambda zero, exponent, sign: math.copysign(0.0 if zero else 10.0**exponent, sign),
        st.integers(1, zero_one_in).map(lambda k: k == 1),
        st.floats(-200.0, 200.0),
        st.sampled_from([1.0, -1.0]),
    )
    return st.lists(entry, min_size=size, max_size=size).map(np.array)


@st.composite
def _rank_two_inputs(draw):
    n = draw(st.integers(1, 12))
    # In half the examples every other entry is a zero, so that zero products whose
    # sign survives into H' (zeros in s and Hy at one index, and in H) are common.
    zero_one_in = draw(st.sampled_from([8, 2]))
    h = draw(_double_range_vectors(n * n, zero_one_in)).reshape(n, n)
    s = draw(_double_range_vectors(n, zero_one_in))
    hy = draw(_double_range_vectors(n, zero_one_in))
    c_hh, c_hs, c_ss = draw(_double_range_vectors(3))
    c_hh = draw(st.sampled_from([0.0, c_hh]))
    # the same entries repeated past the einsum threshold take the other path
    copies = draw(st.sampled_from([1, -(-_EINSUM_MIN_N // n)]))
    h, hy, s = np.tile(h, (copies, copies)), np.tile(hy, copies), np.tile(s, copies)
    return h, hy, s, c_hh, c_hs, c_ss


# no shrink phase: shrinking a failure over these wide draws took minutes of CPU
@settings(max_examples=300, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_rank_two_inputs())
def test_rank_two_is_bitwise_the_outer_product_form_over_the_double_range(args):
    with np.errstate(all="ignore"):
        _assert_same_bits(_rank_two(*args), _rank_two_reference(*args))


def test_kernels_leave_inputs_alone_and_return_fresh_memory():
    rng = np.random.default_rng(41)
    n = 6
    h = _random_spd(rng, n)
    s = rng.standard_normal(n)
    y = _random_spd(rng, n) @ s
    calls = {
        "soft_qn": lambda: soft_qn_update(h, s, y, 3.0)[0],
        "bfgs": lambda: bfgs_update(h, s, y),
        "sp_bfgs": lambda: sp_bfgs_update(h, s, y, 2.0),
    }
    for name, call in calls.items():
        h0, s0, y0 = h.copy(), s.copy(), y.copy()
        h_new = call()
        npt.assert_array_equal(h, h0, err_msg=name)
        npt.assert_array_equal(s, s0, err_msg=name)
        npt.assert_array_equal(y, y0, err_msg=name)
        assert not np.shares_memory(h_new, h), name
        assert not np.array_equal(h_new, h), name


# ---------------------------------------------------------------------------
# directions and policies


def test_biased_direction_examples():
    e1 = np.array([1.0, 0.0])
    npt.assert_array_equal(biased_direction(np.eye(2), e1), -e1)


def test_constant_policies():
    assert ConstantAlpha(0.3).value(np.eye(2), np.zeros(2), np.zeros(2)) == 0.3
    assert ConstantBeta(2.0).value(np.zeros(2), np.zeros(2)) == 2.0


def test_step_norm_beta():
    s = np.array([3.0, 4.0])
    assert StepNormBeta(0.1, 1e-10).value(s, s) == pytest.approx(0.5 + 1e-10)


def test_curvature_relaxed_beta_keeps_update_applicable():
    policy = CurvatureRelaxedBeta(1e-2, relax=0.9)
    s = np.array([1.0, 0.0])
    y = np.array([-2.0, 0.0])  # s'y = -2
    beta = policy.value(s, y)
    assert beta == pytest.approx(0.45)
    # relaxed beta satisfies s'y > -1/beta, so the update goes through
    h_new = sp_bfgs_update(np.eye(2), s, y, beta)
    assert is_positive_definite(h_new)
    # nonnegative curvature keeps the constant beta
    assert policy.value(s, -y) == 1e-2

