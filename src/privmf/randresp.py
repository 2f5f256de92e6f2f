"""Two-stage randomized response over rated/unrated bit vectors.

A client's binary vector B (1 = rated) is perturbed once and permanently
into B' (permanent stage, strength f), and every round a fresh send-set S
is drawn from B' (instantaneous stage, probabilities p for 0-bits and q
for 1-bits). Only items with S=1 get a gradient message, so the server
observes a randomized superset/subset of the true rated set.

The composite per-bit send probabilities are

    p* = (f/2) q + (1 - f/2) p      (truly unrated item)
    q* = (1 - f/2) q + (f/2) p      (truly rated item)

and the per-round privacy budgets for a client with h rated items are

    eps_P = 2 h ln((1 - f/2) / (f/2))                (permanent stage)
    eps_I = h ln(q* (1 - p*) / (p* (1 - q*)))        (instantaneous stage)

``calibrate`` inverts these relations, fixing the expected number of sent
gradients z = h q* + (n - h) p* to a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BitVector = np.ndarray  # length n_items, values in {0, 1}


class CalibrationError(ValueError):
    """Requested budgets/targets admit no valid probability assignment."""


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-round privacy budgets.

    ``eps_i`` and ``eps_p`` are positive and finite: an infinite budget
    would calibrate no perturbation at all. ``eps_p`` defaults to 2 * eps_i
    when unset. ``eps_g`` bounds the fake errors sent for unrated items;
    ``None`` leaves them unbounded.
    """

    eps_i: float
    eps_p: float | None = None
    eps_g: float | None = None

    def __post_init__(self):
        for name, eps in (("eps_i", self.eps_i), ("eps_p", self.eps_p)):
            if name == "eps_p" and eps is None:
                continue
            if not eps > 0:
                raise ValueError(f"{name} must be positive, got {eps}")
            if not eps < math.inf:
                raise ValueError(f"{name} must be finite, got {eps}")
        if self.eps_g is not None and not self.eps_g > 0:
            raise ValueError(f"eps_g must be positive, got {self.eps_g}")

    def resolved_eps_p(self) -> float:
        return self.eps_p if self.eps_p is not None else 2.0 * self.eps_i


@dataclass(frozen=True)
class RRParams:
    """Calibrated randomized-response parameters for one client."""

    f: float
    p: float
    q: float
    p_star: float
    q_star: float
    h: int
    z: float
    # 1 - q*, without the cancellation of subtracting a q* near 1; 1.0 - q_star when unset
    one_minus_q_star: float | None = None

    def __post_init__(self):
        if self.one_minus_q_star is None:
            object.__setattr__(self, "one_minus_q_star", 1.0 - self.q_star)


def solve_f(eps_p: float, h: int) -> float:
    """Permanent-stage flip strength achieving budget eps_p for h rated items."""
    if h < 1:
        raise ValueError(f"h must be >= 1 (cold users cannot be calibrated), got {h}")
    if not eps_p > 0:
        raise ValueError(f"eps_p must be positive, got {eps_p}")
    return 2.0 / (1.0 + math.exp(eps_p / (2.0 * h)))


def epsilon_p_of(f: float, h: int) -> float:
    """Permanent-stage budget realized by flip strength f."""
    if not (0.0 < f <= 1.0):
        raise ValueError(f"f={f} yields an unbounded (infinite) budget")
    return 2.0 * h * math.log((1.0 - 0.5 * f) / (0.5 * f))


def epsilon_i_of(p_star: float, q_star: float, h: int, one_minus_q_star: float | None = None) -> float:
    """Instantaneous-stage budget from the composite send probabilities.

    ``one_minus_q_star`` is ``1 - q*`` as ``calibrate`` computes it
    (``RRParams.one_minus_q_star``), exact where q* rounds to 1; unset, it
    is ``1.0 - q_star``.
    """
    q_rest = 1.0 - q_star if one_minus_q_star is None else one_minus_q_star
    if not (0.0 < p_star < 1.0 and 0.0 < q_star and 0.0 < q_rest):
        raise ValueError(f"boundary probabilities p*={p_star}, q*={q_star} give an infinite budget")
    if q_star < p_star:
        raise ValueError(f"expected q* >= p*, got p*={p_star}, q*={q_star}")
    return h * math.log(q_star * (1.0 - p_star) / (p_star * q_rest))


def expected_sends(h: int, n_items: int, p_star: float, q_star: float) -> float:
    """Expected gradient messages per round for a client with h rated items."""
    if h > n_items:
        raise ValueError(f"h={h} exceeds item count {n_items}")
    return h * q_star + (n_items - h) * p_star


def calibrate(
    eps_i: float,
    h: int,
    n_items: int,
    z_target: float,
    eps_p: float | None = None,
) -> RRParams:
    """Solve for (f, p, q) meeting the budgets and the send-count target.

    The instantaneous budget fixes the odds ratio r = exp(eps_i / h)
    between q* and p*, so q* = r p* / (1 + (r - 1) p*). Along that curve
    z = z_target is the quadratic

        (n - h)(r - 1) p*^2 + (h r + n - h - z_target (r - 1)) p* - z_target = 0

    whose one root in (0, 1) (z rises from 0 to n there) is taken in its
    cancellation-free form. q* follows, and so does its complement
    1 - q* = (1 - p*) / (1 + (r - 1) p*), free of the cancellation of
    subtracting a q* near 1. f comes from eps_p (default 2 * eps_i), and
    (p, q) are recovered by inverting the composite-probability relations.
    Raises CalibrationError, naming the violated bound, when the inversion
    leaves [0, 1].
    """
    # every range check is written so that NaN fails it
    if not eps_i > 0:
        raise CalibrationError(f"eps_i={eps_i} violates eps_i > 0")
    if h < 1:
        raise CalibrationError(f"h={h} violates h >= 1")
    if h > n_items:
        raise CalibrationError(f"h={h} violates h <= n_items={n_items}")
    if not (0.0 < z_target < n_items):
        raise CalibrationError(f"z_target={z_target} violates 0 < z_target < n_items={n_items}")
    eps_p_val = 2.0 * eps_i if eps_p is None else eps_p
    if not eps_p_val > 0:
        raise CalibrationError(f"eps_p={eps_p_val} violates eps_p > 0")

    rm1 = math.expm1(eps_i / h)  # r - 1
    a = (n_items - h) * rm1
    b = h * (1.0 + rm1) + (n_items - h) - z_target * rm1
    root = math.sqrt(b * b + 4.0 * a * z_target)
    p_star = 2.0 * z_target / (b + root) if b > 0.0 else (root - b) / (2.0 * a)
    # r >= 1 puts q* at or above p*; where both round to within a few ulps
    # of 1 the quotient can round below p*, and the inversion then gives p > q
    q_star = max((1.0 + rm1) * p_star / (1.0 + rm1 * p_star), p_star)
    one_minus_q_star = (1.0 - p_star) / (1.0 + rm1 * p_star)

    f = solve_f(eps_p_val, h)
    det = 1.0 - f
    if det == 0.0:
        raise CalibrationError("f=1 makes the composite-probability system degenerate")
    a, b = 1.0 - 0.5 * f, 0.5 * f
    p = (a * p_star - b * q_star) / det
    q = (a * q_star - b * p_star) / det
    for name, v in (("p", p), ("q", q)):
        if not -1e-12 <= v <= 1.0 + 1e-12:
            raise CalibrationError(f"inverted {name}={v:.6g} violates 0 <= {name} <= 1")
    p = min(max(p, 0.0), 1.0)
    q = min(max(q, 0.0), 1.0)

    return RRParams(
        f=f,
        p=p,
        q=q,
        p_star=p_star,
        q_star=q_star,
        h=h,
        z=expected_sends(h, n_items, p_star, q_star),
        one_minus_q_star=one_minus_q_star,
    )


def prr(bits: BitVector, f: float, rng: np.random.Generator) -> BitVector:
    """Permanent perturbation: each bit becomes 1 w.p. f/2, 0 w.p. f/2,
    and keeps its value w.p. 1-f. Run exactly once per client lifetime."""
    if not (0.0 <= f <= 1.0):
        raise ValueError(f"f={f} is not a probability")
    u = rng.random(len(bits))
    return ((u < 0.5 * f) | ((u >= f) & (bits == 1))).astype(np.uint8)


def irr(bits_prime: BitVector, p: float, q: float, rng: np.random.Generator) -> BitVector:
    """Fresh per-round send-set draw from the perturbed vector."""
    for name, v in (("p", p), ("q", q)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name}={v} is not a probability")
    probs = np.where(bits_prime == 1, q, p)
    return (rng.random(len(bits_prime)) < probs).astype(np.uint8)


def classify_rated(means: np.ndarray, p_star: float, q_star: float) -> np.ndarray:
    """Maximum-likelihood (equal prior) decision: rated iff mean is closer to q*."""
    return means > 0.5 * (p_star + q_star)
