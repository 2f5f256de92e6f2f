import math
import statistics
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from oracles import alpha_max_of, fake_errors
from privmf.fakegrad import (
    _OPEN_UNIT,
    _inverse_cdf,
    SIGMA_FLOOR,
    UNBOUNDED,
    AlphaBound,
    DegenerateBoundError,
    coverage,
    epsilon_g_of,
    error_stats,
    fake_error_rows,
    sample_fake_error,
    sample_fake_errors,
    solve_alpha,
    solve_alphas,
)

# standard-normal quantiles, frozen from scipy.stats.norm.ppf(0.75) / ppf(0.975)
Q75 = 0.6744897501960817
Q975 = 1.959963984540054

# The scalar bound search and fake-error sampler, one client at a time, as
# they ran before the lockstep solver: the oracles of solve_alphas and
# fake_error_rows, which must match them bit for bit.
SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
GL3 = ((-math.sqrt(0.6), 5.0 / 9.0), (0.0, 8.0 / 9.0), (math.sqrt(0.6), 5.0 / 9.0))


def oracle_pdf(z):
    return math.exp(-0.5 * z * z) / SQRT_2PI


def oracle_cdf(z):
    return 0.5 * math.erfc(-z / SQRT2)


def oracle_coverage(alpha, mu, sigma):
    m, h = abs(mu) / sigma, alpha / sigma
    if h > m:
        return 0.5 * (math.erf((h - m) / SQRT2) + math.erf((h + m) / SQRT2))
    if h < 1e-3:
        return h * sum(w * oracle_pdf(x * h - m) for x, w in GL3)
    return oracle_cdf(h - m) - oracle_cdf(-h - m)


def oracle_solve_alpha(eps_g, mu, sigma, delta=1e-6):
    """The bound and the number of coverage evaluations its search took."""
    amax = max(abs(mu + 2.0 * sigma), abs(mu - 2.0 * sigma))
    eps_at_max = -math.log(oracle_coverage(amax, mu, sigma))
    if eps_g <= eps_at_max:
        return AlphaBound(alpha=amax, eps_g_achieved=eps_at_max, alpha_max=amax, clamped=True), 0
    c = math.exp(-eps_g)
    alpha = sigma * max(statistics.NormalDist().inv_cdf(0.5 + 0.5 * c), c * math.sqrt(0.5 * math.pi))
    target = eps_g - 0.5 * delta
    lo, hi = 0.0, amax
    for steps in range(1, 201):
        if not lo < alpha < hi:
            alpha = 0.5 * (lo + hi)
        c = oracle_coverage(alpha, mu, sigma)
        achieved = -math.log(c) if c > 0.0 else math.inf
        if achieved > eps_g:
            lo = alpha
        elif achieved < eps_g - delta:
            hi = alpha
        else:
            return AlphaBound(alpha=alpha, eps_g_achieved=achieved, alpha_max=amax), steps
        dc = (oracle_pdf((alpha - mu) / sigma) + oracle_pdf((alpha + mu) / sigma)) / sigma
        alpha = alpha + (achieved - target) * c / dc if dc > 0.0 else math.nan
    raise ArithmeticError("no landing")


def oracle_window(mu, sigma, alpha):
    lo, hi = (-alpha - mu) / sigma, (alpha - mu) / sigma
    sign = 1.0
    if mu < 0.0:
        lo, hi, sign = -hi, -lo, -1.0
    p_lo, p_hi = oracle_cdf(lo), oracle_cdf(hi)
    if not p_hi > p_lo:
        raise DegenerateBoundError("no mass")
    return p_lo, p_hi - p_lo, mu, sign * sigma, math.nextafter(-alpha, 0.0), math.nextafter(alpha, 0.0)


def oracle_fake_error_rows(mu, sigma, eps_g, counts, uniforms):
    errors, bounds, at = [], [], 0
    for m, s, n in zip(mu, sigma, counts):
        sd = s if s > 0.0 else SIGMA_FLOOR
        bound = UNBOUNDED
        if eps_g is not None:
            bound = replace(oracle_solve_alpha(eps_g, m, sd)[0], floored=s <= 0.0)
        if n:
            try:
                window = oracle_window(m, sd, bound.alpha)
            except DegenerateBoundError:
                amax = bound.alpha_max
                bound = replace(bound, alpha=amax, eps_g_achieved=-math.log(oracle_coverage(amax, m, sd)),
                                fallback=True)
                window = oracle_window(m, sd, amax)
            p_lo, width, m_, scale, clip_lo, clip_hi = window
            for r in uniforms[at : at + n].tolist():
                p = min(max(p_lo + width * r, _OPEN_UNIT[0]), _OPEN_UNIT[1])
                z = statistics.NormalDist().inv_cdf(p)
                errors.append(min(max(m_ + scale * z, clip_lo), clip_hi))
            at += n
        bounds.append(bound)
    return np.array(errors), bounds


def bits(x):
    return np.float64(x).view(np.uint64)


def assert_same_bound(got, want):
    assert [bits(getattr(got, f)) for f in ("alpha", "eps_g_achieved", "alpha_max")] == [
        bits(getattr(want, f)) for f in ("alpha", "eps_g_achieved", "alpha_max")
    ]
    assert (got.clamped, got.floored, got.fallback) == (want.clamped, want.floored, want.fallback)


class TestErrorStats:
    def test_constant_sequence(self):
        s = error_stats([1.0, 1.0, 1.0])
        assert (s.mu, s.sigma, s.n) == (1.0, 0.0, 3)

    def test_symmetric_pair(self):
        s = error_stats([-1.0, 1.0])
        assert s.mu == 0.0 and s.sigma == 1.0

    def test_population_std(self):
        s = error_stats([0.0, 2.0, 4.0])
        assert s.mu == pytest.approx(2.0)
        assert s.sigma == pytest.approx(math.sqrt(8.0 / 3.0), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_stats([])


class TestCoverage:
    def test_interquartile_mass(self):
        assert coverage(Q75, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_95_percent_mass(self):
        assert coverage(Q975, 0.0, 1.0) == pytest.approx(0.95, abs=1e-12)

    def test_infinite_alpha_is_total_mass(self):
        assert coverage(np.inf, 0.3, 0.8) == 1.0

    def test_strictly_increasing_in_alpha(self):
        values = [coverage(a, 0.3, 0.8) for a in np.linspace(0.05, 3.0, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_degenerate_sigma(self):
        assert coverage(1.0, 0.5, 0.0) == 1.0
        assert coverage(1.0, 2.0, 0.0) == 0.0

    @pytest.mark.parametrize("mu, sigma", [(3.0, 0.5), (-2.0, 1.5)])
    @pytest.mark.parametrize("h", [1e-12, 1e-6, 0.999e-3, 1.001e-3, 0.1])
    def test_one_tail_matches_integrated_density(self, mu, sigma, h):
        # both bounds below the mean, where a CDF difference would cancel
        alpha = h * sigma
        expected, _ = integrate.quad(stats.norm.pdf, -alpha, alpha, args=(mu, sigma), epsabs=0.0, epsrel=1e-13)
        assert coverage(alpha, mu, sigma) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_offcenter_matches_cdf_difference(self):
        # oracle: normal CDF difference via scipy
        for alpha, mu, sigma in [(0.7, 0.3, 0.8), (1.5, -0.4, 1.2), (0.2, 0.1, 0.5)]:
            expected = stats.norm.cdf(alpha, mu, sigma) - stats.norm.cdf(-alpha, mu, sigma)
            assert coverage(alpha, mu, sigma) == pytest.approx(expected, rel=1e-10)


class TestEpsilonG:
    def test_half_coverage_is_ln2(self):
        assert epsilon_g_of(Q75, 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_total_coverage_is_zero(self):
        assert epsilon_g_of(np.inf, 0.0, 1.0) == 0.0

    def test_95_coverage(self):
        assert epsilon_g_of(Q975, 0.0, 1.0) == pytest.approx(-math.log(0.95), abs=1e-9)

    def test_decreasing_in_alpha(self):
        values = [epsilon_g_of(a, 0.3, 0.8) for a in np.linspace(0.05, 3.0, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestSolveAlpha:
    def test_ln2_band(self):
        bound = solve_alpha(math.log(2.0), 0.0, 1.0)
        assert not bound.clamped
        assert bound.alpha == pytest.approx(Q75, abs=1e-5)
        assert math.log(2.0) - 1e-6 <= bound.eps_g_achieved <= math.log(2.0)

    def test_huge_budget_gives_tiny_alpha(self):
        bound = solve_alpha(50.0, 0.0, 1.0)
        assert not bound.clamped
        assert 50.0 - 1e-6 <= bound.eps_g_achieved <= 50.0
        assert coverage(bound.alpha, 0.0, 1.0) == pytest.approx(math.exp(-bound.eps_g_achieved), rel=1e-9)

    def test_clamps_below_reachable_budget(self):
        bound = solve_alpha(0.01, 0.0, 1.0)
        assert bound.clamped
        assert bound.alpha == 2.0
        # achieved value is ln(1/erf(sqrt(2))), the mass within two sigma
        assert bound.eps_g_achieved == pytest.approx(-math.log(math.erf(math.sqrt(2.0))), rel=1e-12)

    def test_alpha_max_definition(self):
        assert alpha_max_of(0.3, 0.8) == pytest.approx(1.9)
        assert alpha_max_of(-0.3, 0.8) == pytest.approx(1.9)
        assert alpha_max_of(0.0, 1.0) == 2.0

    @settings(max_examples=500, deadline=None)
    @given(
        mu=st.floats(-5.0, 5.0),
        sigma=st.floats(1e-3, 3.0),
        eps_g=st.floats(0.0, 50.0, exclude_min=True),
    )
    def test_lands_in_band_or_clamps_at_alpha_max(self, mu, sigma, eps_g):
        bound = solve_alpha(eps_g, mu, sigma)
        assert bound.alpha_max == alpha_max_of(mu, sigma)
        if bound.clamped:
            assert bound.alpha == bound.alpha_max
            assert bound.eps_g_achieved >= eps_g
        else:
            assert 0.0 < bound.alpha < bound.alpha_max
            assert eps_g - 1e-6 <= bound.eps_g_achieved <= eps_g
        assert bound.eps_g_achieved == epsilon_g_of(bound.alpha, mu, sigma)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_alpha(-1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            solve_alpha(1.0, 0.0, 0.0)


class TestSampler:
    def test_all_samples_inside_open_interval(self):
        rng = np.random.default_rng(0)
        draws = [sample_fake_error(0.0, 1.0, 0.5, rng) for _ in range(2000)]
        assert all(-0.5 < x < 0.5 for x in draws)

    def test_unbounded_sampler_mean(self):
        rng = np.random.default_rng(1)
        draws = sample_fake_errors(0.7, 1.0, np.inf, 100_000, rng)
        assert draws.mean() == pytest.approx(0.7, abs=3 * 1.0 / math.sqrt(100_000))

    def test_batched_matches_truncated_distribution(self):
        rng = np.random.default_rng(2)
        alpha = 0.5
        draws = sample_fake_errors(0.0, 1.0, alpha, 100_000, rng)
        assert np.all(np.abs(draws) < alpha)
        edges = np.linspace(-alpha, alpha, 21)
        observed, _ = np.histogram(draws, bins=edges)
        total = coverage(alpha, 0.0, 1.0)
        expected = np.diff(stats.norm.cdf(edges)) / total * len(draws)
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01

    def test_degenerate_bound_raises(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DegenerateBoundError):
            # bound ten sigma away from the mean on the wrong side
            sample_fake_error(100.0, 0.1, 1e-9, rng)

    @pytest.mark.parametrize("eps_g", [0.0625, 1.0, 4.0, 12.0, 30.0])
    def test_advances_rng_like_one_uniform_block(self, eps_g):
        # cost is one uniform draw per value at any budget: no rejection loop
        bound = solve_alpha(eps_g, 0.3, 0.8)
        rng, reference = np.random.default_rng(6), np.random.default_rng(6)
        draws = sample_fake_errors(0.3, 0.8, bound.alpha, 50, rng)
        reference.random(50)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.all((draws > -bound.alpha) & (draws < bound.alpha))

    @pytest.mark.parametrize(
        "mu, sigma, eps_g",
        [
            (0.0, 1.0, 12.0),  # central
            (3.0, 0.5, 12.0),  # one tail
            (-3.0, 0.5, 12.0),  # reflected tail
            (3.0, 0.5, 40.0),  # deep tail
            (-3.0, 0.5, 40.0),  # deep tail, where unreflected Phi would round to 1
        ],
    )
    def test_exact_at_large_budget(self, mu, sigma, eps_g):
        rng = np.random.default_rng(7)
        alpha = solve_alpha(eps_g, mu, sigma).alpha
        draws = sample_fake_errors(mu, sigma, alpha, 100_000, rng)
        assert np.all((draws > -alpha) & (draws < alpha))
        # equal-probability cells of the truncated law
        a, b = (-alpha - mu) / sigma, (alpha - mu) / sigma
        edges = stats.truncnorm.ppf(np.linspace(0.0, 1.0, 21), a, b, loc=mu, scale=sigma)
        assert np.all(np.diff(edges) > 0)
        observed, _ = np.histogram(draws, bins=edges)
        assert stats.chisquare(observed).pvalue > 0.01

    def test_density_ratio_bound(self):
        assert_density_ratio_bound(1.0)

    def test_density_ratio_bound_at_large_budget(self):
        assert_density_ratio_bound(12.0)


class TestInverseCdf:
    def test_bitwise_equal_to_normal_dist_inv_cdf(self):
        # both ends of the open unit interval, AS241's three branches and
        # their edges (|q| = 0.425, r = 5), and a dense interior grid
        edges = [0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0)]
        tails = [10.0**-e for e in range(1, 324)]
        u = np.array([*_OPEN_UNIT, 0.0, 1.0, 0.5, *edges, *tails, *np.linspace(0.0, 1.0, 20001)])
        u = np.concatenate([u, 1.0 - u])
        identity = np.array([0.0, 1.0, 0.0, 1.0, -math.inf, math.inf])
        z = _inverse_cdf(identity, u)
        expected = [statistics.NormalDist().inv_cdf(p) for p in u.clip(*_OPEN_UNIT).tolist()]
        assert np.array_equal(z.view(np.uint64), np.array(expected).view(np.uint64))


def assert_density_ratio_bound(eps_g):
    # truncated density never exceeds exp(eps) times the untruncated one
    rng = np.random.default_rng(4)
    bound = solve_alpha(eps_g, 0.0, 1.0)
    n = 1_000_000
    draws = sample_fake_errors(0.0, 1.0, bound.alpha, n, rng)
    edges = np.linspace(-bound.alpha, bound.alpha, 41)
    observed, _ = np.histogram(draws, bins=edges)
    widths = np.diff(edges)
    density = observed / (n * widths)
    base = stats.norm.pdf(0.5 * (edges[:-1] + edges[1:]))
    assert np.all(density / base <= math.exp(bound.eps_g_achieved) * 1.05)


class TestFakeErrors:
    def test_bounded_draw_matches_the_parts(self):
        errors = np.array([0.2, -0.4, 1.1, 0.5])
        stats_ = error_stats(errors)
        draws, bound = fake_errors(errors, 4.0, 30, np.random.default_rng(8))
        assert bound == solve_alpha(4.0, stats_.mu, stats_.sigma)
        expected = sample_fake_errors(stats_.mu, stats_.sigma, bound.alpha, 30, np.random.default_rng(8))
        assert np.array_equal(draws, expected)

    def test_unbounded_without_eps_g(self):
        draws, bound = fake_errors(np.array([0.0, 1.0]), None, 5, np.random.default_rng(0))
        assert len(draws) == 5 and math.isinf(bound.alpha) and bound.eps_g_achieved == 0.0

    def test_zero_spread_is_floored(self):
        draws, bound = fake_errors(np.array([0.5]), 1.0, 20, np.random.default_rng(1))
        assert bound.floored and not bound.fallback
        assert bound == AlphaBound(**{**vars(solve_alpha(1.0, 0.5, SIGMA_FLOOR)), "floored": True})
        assert np.all(np.abs(draws) < bound.alpha)

    def test_no_fakes_leaves_the_stream_alone(self):
        rng, reference = np.random.default_rng(2), np.random.default_rng(2)
        draws, bound = fake_errors(np.array([0.0, 1.0]), 40.0, 0, rng)
        assert draws.shape == (0,) and not bound.fallback
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("eps_g", [40.0, 45.0])
    def test_massless_bound_falls_back_to_alpha_max(self, eps_g):
        errors = np.array([-1.0, 1.0])  # mu = 0, sigma = 1
        with pytest.raises(DegenerateBoundError):
            sample_fake_errors(0.0, 1.0, solve_alpha(eps_g, 0.0, 1.0).alpha, 1, np.random.default_rng(0))
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        draws, bound = fake_errors(errors, eps_g, 50, rng)
        assert bound.fallback and bound.alpha == bound.alpha_max == alpha_max_of(0.0, 1.0)
        assert bound.eps_g_achieved == epsilon_g_of(bound.alpha_max, 0.0, 1.0) < eps_g
        assert len(draws) == 50 and np.all(np.abs(draws) < bound.alpha_max)
        # the failed draw consumed nothing: one uniform block, as at any budget
        assert np.array_equal(draws, sample_fake_errors(0.0, 1.0, bound.alpha_max, 50, reference))


class TestLockstepSolver:
    """``solve_alphas`` and ``fake_error_rows`` against the scalar oracles."""

    # below ~0.047 every bound clamps, above ~37 some hold no mass
    BUDGETS = (0.01, 0.03, 0.0625, 0.25, 1.0, 4.0, 12.0, 27.0, 33.0, 40.0)

    def grid(self, seed, n):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-3.0, 3.0, n)
        sigma = np.exp(rng.uniform(math.log(1e-3), math.log(2.0), n))
        return mu, sigma

    @pytest.mark.parametrize("eps_g", BUDGETS)
    def test_grid_matches_the_scalar_search(self, eps_g):
        mu, sigma = self.grid(int(eps_g * 16), 300)
        sigma[:10] = SIGMA_FLOOR  # floored spreads, as fake_error_rows passes them
        mu[10:20] = 0.0
        got = solve_alphas(eps_g, mu, sigma)
        for i, (m, s) in enumerate(zip(mu.tolist(), sigma.tolist())):
            assert_same_bound(got.lane(i), oracle_solve_alpha(eps_g, m, s)[0])

    def test_grid_reaches_every_path(self):
        # clamped bounds, Newton searches, and searches that end on the
        # narrow Gauss-Legendre branch (a bound below the mean, < 1e-3 sigma)
        paths = set()
        for eps_g in self.BUDGETS:
            mu, sigma = self.grid(int(eps_g * 16), 300)
            for m, s in zip(mu.tolist(), sigma.tolist()):
                bound, steps = oracle_solve_alpha(eps_g, m, s)
                if bound.clamped:
                    paths.add("clamped")
                elif bound.alpha <= abs(m) and bound.alpha / s < 1e-3:
                    paths.add("narrow")
                elif steps > 1:
                    paths.add("newton")
        assert paths == {"clamped", "narrow", "newton"}

    def test_lanes_that_land_at_different_steps(self):
        # one batch, per-lane budgets: lanes leave the lockstep one by one
        mu, sigma = self.grid(5, 400)
        eps_g = np.resize(self.BUDGETS, 400)
        lanes = list(zip(eps_g.tolist(), mu.tolist(), sigma.tolist()))
        want = [oracle_solve_alpha(*lane) for lane in lanes]
        assert len({steps for _, steps in want}) >= 5
        got = solve_alphas(eps_g, mu, sigma)
        for i, (bound, _) in enumerate(want):
            assert_same_bound(got.lane(i), bound)

    def test_one_client_is_solve_alpha(self):
        assert solve_alpha(4.0, 0.3, 0.8) == solve_alphas(4.0, [0.3], [0.8]).lane(0)
        with pytest.raises(ValueError, match="eps_g must be positive"):
            solve_alphas([1.0, 0.0], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="sigma must be positive"):
            solve_alphas(1.0, [0.0], [0.0])

    @pytest.mark.parametrize("eps_g", [None, 0.0625, 4.0, 40.0])
    def test_fake_error_rows_match_per_client_draws(self, eps_g):
        # zero spreads are floored; at eps_g = 40 bounds near the mean hold no
        # mass and fall back to alpha_max; clients with no fakes keep their bound
        mu, sigma = self.grid(11, 120)
        mu[::7] = 0.0
        sigma[::5] = 0.0
        counts = np.random.default_rng(12).integers(0, 4, 120)
        uniforms = np.random.default_rng(13).random(int(counts.sum()))
        errors, bounds = fake_error_rows(mu, sigma, eps_g, counts, uniforms)
        want_errors, want_bounds = oracle_fake_error_rows(
            mu.tolist(), sigma.tolist(), eps_g, counts.tolist(), uniforms
        )
        assert np.array_equal(errors.view(np.uint64), want_errors.view(np.uint64))
        for i, want in enumerate(want_bounds):
            assert_same_bound(bounds.lane(i), want)
        if eps_g is not None:
            assert bounds.floored.any()
        if eps_g == 40.0:
            assert bounds.fallback.any() and not bounds.fallback[counts == 0].any()
