"""Privacy-bounded fake prediction errors for unrated items.

A client that must send a gradient for an item it never rated fabricates
the prediction error by sampling the empirical error distribution of its
rated items, N(mu, sigma), truncated to (-alpha, alpha). The truncation
bound controls a budget

    eps_g = ln(1 / coverage(alpha, mu, sigma))

where coverage is the normal probability mass on [-alpha, alpha]; wider
bounds leak less about which items are fake (smaller density ratio) at the
cost of noisier updates. ``solve_alpha`` finds the bound for a requested
budget by safeguarded Newton iteration on ln coverage inside
(0, alpha_max], alpha_max = max(|mu +- 2 sigma|). ``sample_fake_errors``
draws from the truncated normal exactly, by inverse CDF (Robert 1995;
Chopin 2011), so its cost does not depend on the budget.

``fake_error_rows``, a numerical round's one call per chunk of clients
(``fake_errors`` is its one-client case), fails closed: it returns one
error per fake item at any budget. Above eps_g ~ 27 a bound near the mean
is narrower than ~1e-12 sigma, so the draws are visibly quantized; above
~37 it can hold no mass in double precision, and the errors are drawn at
alpha_max instead, which only lowers the achieved eps_g.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
_inv_cdf = statistics.NormalDist().inv_cdf  # Wichura's AS241
# the function behind it, as (p, mu, sigma), without its per-call range check
_normal_inv_cdf = statistics._normal_dist_inv_cdf
_OPEN_UNIT = (math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))

# 3-point Gauss-Legendre nodes and weights on [-1, 1]
_GL3 = ((-math.sqrt(0.6), 5.0 / 9.0), (0.0, 8.0 / 9.0), (math.sqrt(0.6), 5.0 / 9.0))
# half-width (in sigmas) below which a one-tail coverage is integrated:
# there the difference of the two tail masses would cancel to noise
_NARROW = 1e-3

# substitute for a zero sample standard deviation (e.g. a single rating)
SIGMA_FLOOR = 1e-6


class DegenerateBoundError(RuntimeError):
    """The bound (-alpha, alpha) holds no N(mu, sigma) mass in double precision."""


@dataclass(frozen=True)
class ErrorStats:
    """Sample mean / population standard deviation of one user's errors."""

    mu: float
    sigma: float
    n: int


@dataclass(frozen=True)
class AlphaBound:
    """Truncation bound with the budget it actually achieves."""

    alpha: float
    eps_g_achieved: float
    alpha_max: float
    clamped: bool = False  # eps_g is out of reach: alpha is alpha_max
    floored: bool = False  # the errors had no spread: solved at SIGMA_FLOOR
    fallback: bool = False  # the solved bound held no mass: widened to alpha_max


UNBOUNDED = AlphaBound(alpha=math.inf, eps_g_achieved=0.0, alpha_max=math.inf)  # no eps_g


def error_stats(errors) -> ErrorStats:
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("need at least one observed error")
    return ErrorStats(mu=float(errors.mean()), sigma=float(errors.std()), n=int(errors.size))


def alpha_max_of(mu: float, sigma: float) -> float:
    """Largest searched bound: covers at least 95% of N(mu, sigma)."""
    return max(abs(mu + 2.0 * sigma), abs(mu - 2.0 * sigma))


def _pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _cdf(z: float) -> float:
    """Standard normal CDF, with full relative precision in the lower tail."""
    return 0.5 * math.erfc(-z / _SQRT2)


def coverage(alpha: float, mu: float, sigma: float) -> float:
    """Probability mass of N(mu, sigma) on [-alpha, alpha]."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return 1.0 if abs(mu) < alpha else 0.0
    # coverage is even in mu; standardized, the bounds are -h-m < h-m
    m, h = abs(mu) / sigma, alpha / sigma
    if h > m:
        # the bounds straddle 0: two erf terms of one sign, no cancellation
        return 0.5 * (math.erf((h - m) / _SQRT2) + math.erf((h + m) / _SQRT2))
    if h < _NARROW:
        return h * sum(w * _pdf(x * h - m) for x, w in _GL3)
    return _cdf(h - m) - _cdf(-h - m)


def epsilon_g_of(alpha: float, mu: float, sigma: float) -> float:
    """Budget achieved by truncating at alpha: ln(1 / coverage)."""
    c = coverage(alpha, mu, sigma)
    if c <= 0.0:
        raise ValueError(f"coverage is zero at alpha={alpha} (mu={mu}, sigma={sigma})")
    return -math.log(c)


def solve_alpha(eps_g: float, mu: float, sigma: float, delta: float = 1e-6) -> AlphaBound:
    """Find alpha whose achieved budget lands in [eps_g - delta, eps_g].

    The achieved budget decreases strictly in alpha, from +inf at 0+ down
    to its minimum at alpha_max. Budgets below that minimum cannot be met
    inside the search interval; the bound is then clamped to alpha_max and
    the achieved value reported (``clamped=True``).
    """
    if eps_g <= 0:
        raise ValueError(f"eps_g must be positive, got {eps_g}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")

    amax = alpha_max_of(mu, sigma)
    eps_at_max = epsilon_g_of(amax, mu, sigma)
    if eps_g <= eps_at_max:
        return AlphaBound(alpha=amax, eps_g_achieved=eps_at_max, alpha_max=amax, clamped=True)

    # Start from the mu = 0 solution, a lower bound for any mu (a bound
    # centred on the mean covers the most mass); c * sqrt(pi/2), itself below
    # that solution, keeps the start positive where 0.5 + 0.5c rounds to 0.5.
    c = math.exp(-eps_g)
    alpha = sigma * max(_inv_cdf(0.5 + 0.5 * c), c * _SQRT_HALF_PI)
    target = eps_g - 0.5 * delta
    lo, hi = 0.0, amax
    for _ in range(200):
        if not lo < alpha < hi:
            alpha = 0.5 * (lo + hi)
        c = coverage(alpha, mu, sigma)
        achieved = -math.log(c) if c > 0.0 else math.inf
        if achieved > eps_g:
            lo = alpha
        elif achieved < eps_g - delta:
            hi = alpha
        else:
            return AlphaBound(alpha=alpha, eps_g_achieved=achieved, alpha_max=amax)
        # Newton step on ln coverage towards the middle of the band;
        # d coverage / d alpha = (pdf((alpha-mu)/sigma) + pdf((alpha+mu)/sigma)) / sigma
        dc = (_pdf((alpha - mu) / sigma) + _pdf((alpha + mu) / sigma)) / sigma
        alpha = alpha + (achieved - target) * c / dc if dc > 0.0 else math.nan
    raise ArithmeticError(
        f"search failed to land in [eps_g-delta, eps_g] for eps_g={eps_g}, delta={delta}"
    )


def sample_fake_error(mu: float, sigma: float, alpha: float, rng: np.random.Generator) -> float:
    """One N(mu, sigma) draw truncated to (-alpha, alpha)."""
    return float(sample_fake_errors(mu, sigma, alpha, 1, rng)[0])


def sample_fake_errors(
    mu: float,
    sigma: float,
    alpha: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n independent N(mu, sigma) draws truncated to (-alpha, alpha).

    Exact inverse-CDF sampling from one ``rng.random(n)`` call, so the cost
    is O(n) at any bound. The interval is reflected into the lower half,
    where the normal CDF keeps full relative precision, so bounds deep in
    one tail sample as accurately as central ones. Near the mean the CDF
    resolves steps of ~1e-16, so a bound narrower than ~1e-12 sigma there
    gives visibly quantized draws, and a bound with no mass in double
    precision raises ``DegenerateBoundError``.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return _inverse_cdf(np.array(_window(mu, sigma, alpha)), rng.random(n))


def _window(mu: float, sigma: float, alpha: float) -> tuple[float, ...]:
    """The inverse-CDF map's parameters for one bound: ``(p_lo, p_hi - p_lo,
    mu, sign * sigma, clip_lo, clip_hi)``."""
    lo, hi = (-alpha - mu) / sigma, (alpha - mu) / sigma
    sign = 1.0
    if mu < 0.0:  # reflect: bounds below the mean, where Phi keeps full precision
        lo, hi, sign = -hi, -lo, -1.0
    p_lo, p_hi = _cdf(lo), _cdf(hi)
    if not p_hi > p_lo:
        raise DegenerateBoundError(f"no mass inside the bound: alpha={alpha}, mu={mu}, sigma={sigma}")
    return p_lo, p_hi - p_lo, mu, sign * sigma, math.nextafter(-alpha, 0.0), math.nextafter(alpha, 0.0)


def _inverse_cdf(window: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Uniforms ``r`` mapped through ``window``: one row of ``_window``, or
    one row per uniform."""
    p_lo, width, mu, scale, lo, hi = window.T
    u = (p_lo + width * r).clip(*_OPEN_UNIT)
    z = np.fromiter(map(_normal_inv_cdf, u.tolist(), repeat(0.0), repeat(1.0)), np.float64, len(u))
    return (mu + scale * z).clip(lo, hi)


def fake_error_rows(mu, sigma, eps_g: float | None, counts, uniforms: np.ndarray):
    """Fake errors for a population of clients, from pre-drawn uniforms.

    Client i, whose rated errors have mean ``mu[i]`` and standard deviation
    ``sigma[i]``, gets ``counts[i]`` errors from its slice of ``uniforms``
    (the slices in client order). Returns the errors, in ``uniforms``'
    order, and each client's ``AlphaBound`` (``UNBOUNDED`` without
    ``eps_g``). Per client, a zero spread becomes ``SIGMA_FLOOR`` and a
    bound without mass falls back to ``alpha_max``.
    """
    bounds, windows = [], np.empty((len(counts), 6))
    for i, (m, s, n) in enumerate(zip(np.asarray(mu).tolist(), np.asarray(sigma).tolist(), counts)):
        sd = s if s > 0.0 else SIGMA_FLOOR
        bound = UNBOUNDED
        if eps_g is not None:
            bound = solve_alpha(eps_g, m, sd)
            if s <= 0.0:
                bound = replace(bound, floored=True)
        if n:
            try:
                windows[i] = _window(m, sd, bound.alpha)
            except DegenerateBoundError:
                amax = bound.alpha_max
                bound = replace(bound, alpha=amax, eps_g_achieved=epsilon_g_of(amax, m, sd), fallback=True)
                windows[i] = _window(m, sd, amax)
        bounds.append(bound)
    return _inverse_cdf(np.repeat(windows, counts, axis=0), uniforms), bounds


def fake_errors(errors, eps_g: float | None, n: int, rng: np.random.Generator):
    """n fake errors from a round's rated ``errors``, and the ``AlphaBound``
    drawn at: ``fake_error_rows`` for one client, from one ``rng.random(n)``."""
    stats = error_stats(errors)
    fakes, (bound,) = fake_error_rows([stats.mu], [stats.sigma], eps_g, [n], rng.random(n))
    return fakes, bound
