"""Privacy-bounded fake prediction errors for unrated items.

A client that must send a gradient for an item it never rated fabricates
the prediction error by sampling the empirical error distribution of its
rated items, N(mu, sigma), truncated to (-alpha, alpha). The truncation
bound controls a budget

    eps_g = ln(1 / coverage(alpha, mu, sigma))

where coverage is the normal probability mass on [-alpha, alpha]; wider
bounds leak less about which items are fake (smaller density ratio) at the
cost of noisier updates. ``solve_alphas`` finds the bounds of many clients
at once for their budgets: a safeguarded Newton iteration on ln coverage
inside (0, alpha_max], alpha_max = max(|mu +- 2 sigma|), run in lockstep
over the clients whose bounds are still open. ``solve_alpha`` is its
one-client call. ``sample_fake_errors`` draws from the truncated normal
exactly, by inverse CDF (Robert 1995; Chopin 2011), so its cost does not
depend on the budget.

The array code keeps each value's scalar rounding: the basic float
operations round the same in numpy, and ``math.erf``, ``erfc``, ``exp``,
``log`` and AS241 are mapped value by value (``_map``, ``_quantiles``),
since numpy's own ``exp`` and scipy's ``erf`` round differently.

``fake_error_rows``, a numerical round's one call for every client's
fakes, has no per-client loop: the bounds, the sigma floor, the fallback
and the inverse-CDF windows are array operations over the clients. It fails closed: it returns one
error per fake item at any budget. Above eps_g ~ 27 a bound near the mean
is narrower than ~1e-12 sigma, so the draws are visibly quantized; above
~37 it can hold no mass in double precision, and the errors are drawn at
alpha_max instead, which only lowers the achieved eps_g.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields, replace
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
# Newton steps per bound before the search gives up
_MAX_STEPS = 200
_DELTA = 1e-6  # width of the band below eps_g that an achieved budget lands in

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


@dataclass(frozen=True)
class AlphaBounds:
    """The ``AlphaBound`` fields of many clients, one array entry each."""

    alpha: np.ndarray
    eps_g_achieved: np.ndarray
    alpha_max: np.ndarray
    clamped: np.ndarray
    floored: np.ndarray
    fallback: np.ndarray

    def lane(self, i: int) -> AlphaBound:
        """Client ``i``'s bound."""
        return AlphaBound(*(getattr(self, f.name)[i].item() for f in fields(self)))


def _unbounded(n: int) -> AlphaBounds:
    flags = np.zeros((3, n), dtype=bool)
    return AlphaBounds(np.full(n, math.inf), np.zeros(n), np.full(n, math.inf), *flags)


def error_stats(errors) -> ErrorStats:
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise ValueError("need at least one observed error")
    return ErrorStats(mu=float(errors.mean()), sigma=float(errors.std()), n=int(errors.size))


def _map(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of each value of a 1-d array, rounded as the scalar call rounds."""
    return np.fromiter(map(fn, x.tolist()), np.float64, len(x))


def _max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``max(a, b)`` per value: ``a`` unless ``b`` is larger."""
    return np.where(b > a, b, a)


def _quantiles(p: np.ndarray) -> np.ndarray:
    """``_inv_cdf`` of each probability in (0, 1)."""
    return np.fromiter(map(_normal_inv_cdf, p.tolist(), repeat(0.0), repeat(1.0)), np.float64, len(p))


def _pdfs(z: np.ndarray) -> np.ndarray:
    return _map(math.exp, -0.5 * z * z) / _SQRT_2PI


def _cdfs(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each value, with full relative precision in
    the lower tail."""
    return 0.5 * _map(math.erfc, -z / _SQRT2)


def _coverages(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``coverage`` of each bound, standardized: ``h = alpha / sigma`` and
    ``m = |mu| / sigma`` (coverage is even in mu), so the bounds are
    ``-h-m < h-m``."""
    # the bounds straddle 0: two erf terms of one sign, no cancellation
    straddle = h > m
    if straddle.all():
        e = _map(math.erf, np.concatenate(((h - m) / _SQRT2, (h + m) / _SQRT2)))
        return 0.5 * (e[: len(h)] + e[len(h) :])
    out = np.empty(len(h))
    out[straddle] = _coverages(h[straddle], m[straddle])
    # a narrow one-tail bound: its density integrated, term by term as sum() adds
    narrow = ~straddle & (h < _NARROW)
    if narrow.any():
        a, b = h[narrow], m[narrow]
        total = 0
        for x, w in _GL3:
            total = total + w * _pdfs(x * a - b)
        out[narrow] = a * total
    # a wider one-tail bound: the difference of two lower-tail masses
    tail = ~(straddle | narrow)
    a, b = h[tail], m[tail]
    p = _cdfs(np.concatenate((a - b, -a - b)))
    out[tail] = p[: len(a)] - p[len(a) :]
    return out


def _epsilon_gs(alpha: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``epsilon_g_of`` of each (alpha, mu, sigma > 0) triple."""
    c = _coverages(alpha / sigma, np.abs(mu) / sigma)
    if not np.all(c > 0.0):
        i = np.argmin(c > 0.0)
        raise ValueError(f"coverage is zero at alpha={alpha[i]} (mu={mu[i]}, sigma={sigma[i]})")
    return -_map(math.log, c)


def coverage(alpha: float, mu: float, sigma: float) -> float:
    """Probability mass of N(mu, sigma) on [-alpha, alpha]."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return 1.0 if abs(mu) < alpha else 0.0
    return _coverages(np.array([alpha / sigma]), np.array([abs(mu) / sigma]))[0].item()


def epsilon_g_of(alpha: float, mu: float, sigma: float) -> float:
    """Budget achieved by truncating at alpha: ln(1 / coverage)."""
    c = coverage(alpha, mu, sigma)
    if c <= 0.0:
        raise ValueError(f"coverage is zero at alpha={alpha} (mu={mu}, sigma={sigma})")
    return -math.log(c)


def solve_alpha(eps_g: float, mu: float, sigma: float) -> AlphaBound:
    """Find alpha whose achieved budget lands in [eps_g - _DELTA, eps_g]:
    ``solve_alphas`` of one client."""
    return solve_alphas(eps_g, [mu], [sigma]).lane(0)


def solve_alphas(eps_g, mu, sigma) -> AlphaBounds:
    """Each client's bound whose achieved budget lands in [eps_g - _DELTA,
    eps_g], for its errors' ``mu`` and ``sigma``; ``eps_g`` is one budget
    for all or one per client.

    The achieved budget decreases strictly in alpha, from +inf at 0+ down
    to its minimum at alpha_max. Budgets below that minimum cannot be met
    inside the search interval; the bound is then clamped to alpha_max and
    the achieved value reported (``clamped``). The others are searched in
    lockstep: each step evaluates the coverage of the bounds still open,
    and a bound leaves once it lands, so every bound is the one a search
    of that client alone would find, bit for bit.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    eps_g = np.broadcast_to(np.asarray(eps_g, dtype=np.float64), mu.shape)
    for name, x in (("eps_g", eps_g), ("sigma", sigma)):
        if not np.all(x > 0):
            raise ValueError(f"{name} must be positive, got {x[np.argmin(x > 0)]}")

    amax = _max(np.abs(mu + 2.0 * sigma), np.abs(mu - 2.0 * sigma))
    eps_at_max = _epsilon_gs(amax, mu, sigma)
    clamped = eps_g <= eps_at_max
    alpha, achieved = amax.copy(), eps_at_max.copy()

    open_ = np.flatnonzero(~clamped)
    e, m, s = eps_g[open_], mu[open_], sigma[open_]
    # Start from the mu = 0 solution, a lower bound for any mu (a bound
    # centred on the mean covers the most mass); c * sqrt(pi/2), itself below
    # that solution, keeps the start positive where 0.5 + 0.5c rounds to 0.5.
    c = _map(math.exp, -e)
    a = s * _max(_quantiles(0.5 + 0.5 * c), c * _SQRT_HALF_PI)
    target, m_std = e - 0.5 * _DELTA, np.abs(m) / s
    lo, hi = np.zeros(len(open_)), amax[open_]
    for _ in range(_MAX_STEPS):
        if not len(open_):
            break
        a = np.where((lo < a) & (a < hi), a, 0.5 * (lo + hi))
        c = _coverages(a / s, m_std)
        has_mass = c > 0.0
        got = np.full(len(c), math.inf)
        got[has_mass] = -_map(math.log, c[has_mass])
        over = got > e
        under = ~over & (got < e - _DELTA)
        landed = ~(over | under)
        lo, hi = np.where(over, a, lo), np.where(under, a, hi)
        if landed.any():
            alpha[open_[landed]], achieved[open_[landed]] = a[landed], got[landed]
            still = ~landed
            open_, a, c, has_mass, got, e, target, m, m_std, s, lo, hi = (
                x[still] for x in (open_, a, c, has_mass, got, e, target, m, m_std, s, lo, hi)
            )
        # Newton step on ln coverage towards the middle of the band;
        # d coverage / d alpha = (pdf((alpha-mu)/sigma) + pdf((alpha+mu)/sigma)) / sigma.
        # A flat density or a massless bound steps to nan, which bisects.
        pdf = _pdfs(np.concatenate(((a - m) / s, (a + m) / s)))
        dc = (pdf[: len(a)] + pdf[len(a) :]) / s
        step = has_mass & (dc > 0.0)
        a = np.where(step, a, math.nan)
        a[step] += (got[step] - target[step]) * c[step] / dc[step]
    if len(open_):
        raise ArithmeticError(
            f"search failed to land in [eps_g-delta, eps_g] for eps_g={e[0]}, delta={_DELTA}"
        )
    flags = np.zeros((2, len(mu)), dtype=bool)
    return AlphaBounds(alpha, achieved, amax, clamped, *flags)


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
    window, has_mass = _windows(*(np.array([x], dtype=np.float64) for x in (mu, sigma, alpha)))
    if not has_mass[0]:
        raise DegenerateBoundError(f"no mass inside the bound: alpha={alpha}, mu={mu}, sigma={sigma}")
    return _inverse_cdf(window[0], rng.random(n))


def _windows(mu: np.ndarray, sigma: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse-CDF map's parameters for each bound, one row ``(p_lo,
    p_hi - p_lo, mu, sign * sigma, clip_lo, clip_hi)`` each, and whether
    the bound holds mass (``p_hi > p_lo``)."""
    lo, hi = (-alpha - mu) / sigma, (alpha - mu) / sigma
    # reflect: bounds below the mean, where Phi keeps full precision
    below = mu < 0.0
    lo, hi = np.where(below, -hi, lo), np.where(below, -lo, hi)
    p = _cdfs(np.concatenate((lo, hi)))
    p_lo, p_hi = p[: len(lo)], p[len(lo) :]
    rows = (p_lo, p_hi - p_lo, mu, np.where(below, -sigma, sigma),
            np.nextafter(-alpha, 0.0), np.nextafter(alpha, 0.0))
    return np.stack(rows, axis=1), p_hi > p_lo


def _inverse_cdf(window: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Uniforms ``r`` mapped through ``window``: one row of ``_windows``, or
    one row per uniform."""
    p_lo, width, mu, scale, lo, hi = window.T
    return (mu + scale * _quantiles((p_lo + width * r).clip(*_OPEN_UNIT))).clip(lo, hi)


def fake_error_rows(mu, sigma, eps_g: float | None, counts, uniforms: np.ndarray):
    """Fake errors for a population of clients, from pre-drawn uniforms.

    Client i, whose rated errors have mean ``mu[i]`` and standard deviation
    ``sigma[i]``, gets ``counts[i]`` errors from its slice of ``uniforms``
    (the slices in client order). Returns the errors, in ``uniforms``'
    order, and the clients' ``AlphaBounds`` (all unbounded without
    ``eps_g``). A zero spread becomes ``SIGMA_FLOOR`` (``floored``), and a
    bound without mass, where the client has fakes to draw, falls back to
    ``alpha_max`` (``fallback``). Every decision is an array operation over
    the clients: the bounds come from one ``solve_alphas``, the windows
    from one ``_windows``, the errors from one inverse-CDF map.
    """
    mu, sigma = np.asarray(mu, dtype=np.float64), np.asarray(sigma, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    sd = np.where(sigma > 0.0, sigma, SIGMA_FLOOR)
    if eps_g is None:
        bounds = _unbounded(len(mu))
    else:
        bounds = replace(solve_alphas(eps_g, mu, sd), floored=sigma <= 0.0)
    sending = np.flatnonzero(counts)
    windows, has_mass = _windows(mu[sending], sd[sending], bounds.alpha[sending])
    if not has_mass.all():
        wide = sending[~has_mass]
        amax = bounds.alpha_max[wide]
        bounds.alpha[wide] = amax
        bounds.eps_g_achieved[wide] = _epsilon_gs(amax, mu[wide], sd[wide])
        bounds.fallback[wide] = True
        windows[~has_mass], widened = _windows(mu[wide], sd[wide], amax)
        if not widened.all():
            raise DegenerateBoundError(f"no mass inside alpha_max={amax[np.argmin(widened)]}")
    return _inverse_cdf(np.repeat(windows, counts[sending], axis=0), uniforms), bounds

