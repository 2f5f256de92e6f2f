import math

import numpy as np
import pytest

from privmf.randresp import (
    CalibrationError,
    PrivacyBudget,
    RRParams,
    average_attack,
    calibrate,
    classify_rated,
    effective_probs,
    epsilon_i_of,
    epsilon_p_of,
    expected_sends,
    irr,
    prr,
    solve_f,
)
from privmf.rng import derive_rng


class TestSolveF:
    def test_known_inversion(self):
        # eps_p = 2*ln(3) at h=1 inverts to f = 0.5
        assert solve_f(2 * math.log(3.0), 1) == pytest.approx(0.5, rel=1e-12)

    def test_roundtrip_grid(self):
        for eps_p in (0.01, 0.125, 1.0, 8.0, 40.0):
            for h in (1, 5, 20, 100):
                f = solve_f(eps_p, h)
                assert 0.0 < f < 1.0
                assert epsilon_p_of(f, h) == pytest.approx(eps_p, rel=1e-12)

    def test_limits(self):
        assert solve_f(1e-12, 1) == pytest.approx(1.0)
        assert solve_f(200.0, 1) < 1e-20

    def test_cold_user_rejected(self):
        with pytest.raises(ValueError):
            solve_f(1.0, 0)


class TestEpsilonOf:
    def test_full_perturbation_costs_nothing(self):
        assert epsilon_p_of(1.0, 1) == 0.0
        assert epsilon_p_of(1.0, 50) == 0.0

    def test_epsilon_i_value(self):
        # ln(0.7*0.7 / (0.3*0.3)) = ln(49/9)
        assert epsilon_i_of(0.3, 0.7, 1) == pytest.approx(math.log(49 / 9), rel=1e-12)

    def test_epsilon_i_linear_in_h(self):
        assert epsilon_i_of(0.3, 0.7, 2) == pytest.approx(2 * epsilon_i_of(0.3, 0.7, 1), rel=1e-12)

    def test_boundary_probabilities_rejected(self):
        with pytest.raises(ValueError):
            epsilon_p_of(0.0, 1)
        with pytest.raises(ValueError):
            epsilon_i_of(0.0, 0.5, 1)
        with pytest.raises(ValueError):
            epsilon_i_of(0.5, 1.0, 1)


class TestEffectiveProbs:
    def test_no_permanent_stage(self):
        assert effective_probs(0.0, 0.2, 0.9) == (0.2, 0.9)

    def test_full_permanent_stage_symmetrizes(self):
        p_star, q_star = effective_probs(1.0, 0.1, 0.9)
        assert p_star == pytest.approx(0.5)
        assert q_star == pytest.approx(0.5)

    def test_half_strength(self):
        assert effective_probs(0.5, 0.1, 0.9) == pytest.approx((0.3, 0.7))


class TestExpectedSends:
    def test_value(self):
        assert expected_sends(10, 100, 0.1, 0.5) == pytest.approx(14.0)

    def test_everything_sent(self):
        assert expected_sends(10, 100, 1.0, 1.0) == 100.0

    def test_nothing_sent(self):
        assert expected_sends(10, 100, 0.0, 0.0) == 0.0

    def test_monotone_in_each_probability(self):
        base = expected_sends(10, 100, 0.1, 0.5)
        assert expected_sends(10, 100, 0.11, 0.5) > base
        assert expected_sends(10, 100, 0.1, 0.51) > base


class TestCalibrate:
    def test_average_load_roundtrip(self):
        z = 100_000 / 943  # average ratings per user on the 943x1682 set
        params = calibrate(4.0, 20, 1682, z)
        assert epsilon_i_of(params.p_star, params.q_star, 20) == pytest.approx(4.0, rel=1e-9)
        assert expected_sends(20, 1682, params.p_star, params.q_star) == pytest.approx(z, rel=1e-9)
        for v in (params.f, params.p, params.q, params.p_star, params.q_star):
            assert 0.0 <= v <= 1.0

    def test_zero_budget_limit_flattens(self):
        params = calibrate(1e-10, 4, 100, 5.0)
        assert params.p_star == pytest.approx(0.05, rel=1e-6)
        assert params.q_star == pytest.approx(0.05, rel=1e-6)

    def test_eps_p_default_is_doubled(self):
        explicit = calibrate(1.0, 10, 200, 12.0, eps_p=2.0)
        defaulted = calibrate(1.0, 10, 200, 12.0)
        assert defaulted.f == explicit.f

    def test_boundary_scan_roundtrips_or_reports(self):
        # tiny z with large budgets pushes q toward its feasible edge
        for eps_i in (0.0625, 0.25, 1.0, 4.0):
            try:
                params = calibrate(eps_i, 20, 1682, 0.5)
            except CalibrationError as exc:
                assert "violates" in str(exc)
                continue
            assert epsilon_i_of(params.p_star, params.q_star, 20) == pytest.approx(eps_i, rel=1e-9)
            assert expected_sends(20, 1682, params.p_star, params.q_star) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("eps_i, z", [(64.0, 10.0), (16.0, 999.0)])
    def test_complement_of_q_star_recomputes_the_budget_exactly(self, eps_i, z):
        # q* within ~1e-10 of 1 (and rounded to 1.0 at eps_i = 64): 1.0 - q*
        # cancels, the closed-form complement does not
        params = calibrate(eps_i, 1, 1000, z)
        recomputed = epsilon_i_of(params.p_star, params.q_star, 1, params.one_minus_q_star)
        assert recomputed == pytest.approx(eps_i, rel=1e-12)
        if params.q_star == 1.0:
            with pytest.raises(ValueError, match="boundary probabilities"):
                epsilon_i_of(params.p_star, params.q_star, 1)

    def test_complement_defaults_to_the_difference(self):
        params = RRParams(f=0.5, p=0.1, q=0.6, p_star=0.2, q_star=0.7, h=3, z=1.0)
        assert params.one_minus_q_star == 1.0 - 0.7
        assert epsilon_i_of(0.2, 0.7, 3, params.one_minus_q_star) == epsilon_i_of(0.2, 0.7, 3)

    def test_impossible_targets_named(self):
        with pytest.raises(CalibrationError, match="z_target"):
            calibrate(1.0, 100, 100, 200.0)
        with pytest.raises(CalibrationError, match="h"):
            calibrate(1.0, 0, 100, 5.0)
        with pytest.raises(CalibrationError, match="eps_i"):
            calibrate(-1.0, 10, 100, 5.0)


class TestSamplers:
    def test_prr_identity_at_zero(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        out = prr(bits, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, bits)

    def test_prr_full_strength_is_fair_coin(self):
        bits = np.zeros(100_000, dtype=np.uint8)
        out = prr(bits, 1.0, np.random.default_rng(1))
        sigma = math.sqrt(0.25 / 100_000)
        assert abs(out.mean() - 0.5) < 3 * sigma

    def test_prr_keep_probability(self):
        # P(B'=1 | B=1) = 1 - f/2 = 0.75 at f = 0.5
        bits = np.ones(100_000, dtype=np.uint8)
        out = prr(bits, 0.5, np.random.default_rng(2))
        sigma = math.sqrt(0.75 * 0.25 / 100_000)
        assert abs(out.mean() - 0.75) < 3 * sigma

    def test_prr_permanence_contract(self):
        bits = (np.random.default_rng(3).random(500) < 0.3).astype(np.uint8)
        a = prr(bits, 0.4, derive_rng(77, 4, 13))
        b = prr(bits, 0.4, derive_rng(77, 4, 13))
        assert np.array_equal(a, b)

    def test_irr_degenerate_copies_input(self):
        bits = (np.random.default_rng(4).random(1000) < 0.5).astype(np.uint8)
        out = irr(bits, 0.0, 1.0, np.random.default_rng(5))
        assert np.array_equal(out, bits)

    def test_irr_equal_probs_ignores_input(self):
        ones = np.ones(200_000, dtype=np.uint8)
        zeros = np.zeros(200_000, dtype=np.uint8)
        m1 = irr(ones, 0.3, 0.3, np.random.default_rng(6)).mean()
        m0 = irr(zeros, 0.3, 0.3, np.random.default_rng(7)).mean()
        sigma = math.sqrt(0.3 * 0.7 / 200_000)
        assert abs(m1 - 0.3) < 3 * sigma and abs(m0 - 0.3) < 3 * sigma

    def test_composite_matches_effective_probs(self):
        f, p, q = 0.5, 0.1, 0.9
        p_star, q_star = effective_probs(f, p, q)
        n = 100_000
        rng = np.random.default_rng(8)
        for bit, target in ((1, q_star), (0, p_star)):
            bits = np.full(n, bit, dtype=np.uint8)
            sent = irr(prr(bits, f, rng), p, q, rng)
            sigma = math.sqrt(target * (1 - target) / n)
            assert abs(sent.mean() - target) < 3 * sigma

    def test_likelihood_ratio_identity(self):
        params = calibrate(2.0, 8, 500, 30.0)
        ratio = (params.q_star * (1 - params.p_star)) / (params.p_star * (1 - params.q_star))
        assert ratio == pytest.approx(math.exp(2.0 / 8), rel=1e-9)

    def test_per_bit_ratio_bound(self):
        # each one-sided factor alone stays within the budget
        for eps_i, h, n, z in [(0.0625, 4, 120, 6.0), (1.0, 20, 400, 25.0), (4.0, 5, 100, 10.0)]:
            params = calibrate(eps_i, h, n, z)
            one_sided = max(
                params.q_star / params.p_star, (1 - params.p_star) / (1 - params.q_star)
            )
            assert one_sided ** h <= math.exp(eps_i) * (1 + 1e-9)


class TestAverageAttack:
    def test_single_round_is_the_sample(self):
        sample = np.array([[1, 0, 1, 0]], dtype=np.uint8)
        assert np.array_equal(average_attack(sample), sample[0].astype(float))

    def test_recovers_bits_without_permanent_stage(self):
        rng = np.random.default_rng(9)
        bits = (rng.random(200) < 0.4).astype(np.uint8)
        rounds = np.stack([irr(bits, 0.1, 0.9, rng) for _ in range(1000)])
        guess = classify_rated(average_attack(rounds), 0.1, 0.9)
        assert np.mean(guess == bits.astype(bool)) >= 0.99

    def test_converges_to_perturbed_vector_not_truth(self):
        rng = np.random.default_rng(10)
        f, p, q = 0.5, 0.1, 0.9
        p_star, q_star = effective_probs(f, p, q)
        agree, total = 0, 0
        for _ in range(60):
            bits = (rng.random(50) < 0.5).astype(np.uint8)
            bp = prr(bits, f, rng)
            rounds = np.stack([irr(bp, p, q, rng) for _ in range(400)])
            guess = classify_rated(average_attack(rounds), p_star, q_star)
            rated = bits == 1
            agree += int(np.sum(guess[rated]))
            total += int(rated.sum())
        # attack recovers B', which matches true rated bits w.p. 1 - f/2 = 0.75
        assert agree / total == pytest.approx(0.75, abs=0.03)


class TestPrivacyBudget:
    def test_eps_p_defaults_to_double(self):
        assert PrivacyBudget(eps_i=1.5).resolved_eps_p() == 3.0
        assert PrivacyBudget(eps_i=1.5, eps_p=2.0).resolved_eps_p() == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PrivacyBudget(eps_i=0.0)
        with pytest.raises(ValueError):
            PrivacyBudget(eps_i=1.0, eps_g=-1.0)
