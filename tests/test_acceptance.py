"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

Everything runs offline on synthetic data; the ingestion check uses the
real MovieLens-100K file when one is present (``PRIVMF_ML100K`` or
``data/ml-100k/u.data``) and is skipped with a message otherwise.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oracles import alpha_max_of, average_attack, decode_message, effective_probs, rating_error
from privmf import bpr, fakegrad, randresp
from privmf.codec import FinishMessage, GradientMessage, encode_message
from privmf.data import SplitSpec, parse_ratings, split, subsample, synthetic_dataset
from privmf.metrics import auc, rmse
from privmf.protocol import run_training
from privmf.randresp import PrivacyBudget
from privmf.rng import TAG_REPETITION, derive_rng
from privmf.sgld import Hyperparams, centralized_train, item_step, user_step

DESK_SEED = 3


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _ml100k_path() -> Path | None:
    candidates = [os.environ.get("PRIVMF_ML100K", ""), "data/ml-100k/u.data", "u.data"]
    for c in candidates:
        if c and Path(c).is_file():
            return Path(c)
    return None


def desk_dataset():
    path = _ml100k_path()
    if path is not None:
        full = parse_ratings(path.read_text(encoding="utf-8"))
        return subsample(full, 200, 400, min_ratings=10, seed=DESK_SEED)
    return synthetic_dataset(200, 400, seed=DESK_SEED, mean_ratings_per_user=40, signal=1.0)


def test_01_budget_solver_roundtrips():
    started = time.perf_counter()
    checked, infeasible = 0, 0
    for eps_i in (0.0625, 0.25, 1.0, 4.0):
        for h in (1, 5, 20, 100):
            for n_items in (100, 1682):
                for z_target in (0.5 * h, float(h), 2.0 * h):
                    try:
                        params = randresp.calibrate(eps_i, h, n_items, z_target)
                    except randresp.CalibrationError as exc:
                        assert "violates" in str(exc)
                        infeasible += 1
                        continue
                    eps_back = randresp.epsilon_i_of(params.p_star, params.q_star, h)
                    z_back = randresp.expected_sends(h, n_items, params.p_star, params.q_star)
                    assert abs(eps_back - eps_i) <= 1e-9 * eps_i, (eps_i, h, n_items, z_target)
                    assert abs(z_back - z_target) <= 1e-9 * z_target, (eps_i, h, n_items, z_target)
                    checked += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        "budget solver round-trips",
        elapsed < 1.0,
        f"{checked} round-trips, {infeasible} reported infeasible, {elapsed:.2f}s",
    )


def test_02_randomized_response_likelihood_ratios():
    started = time.perf_counter()
    n = 1_000_000
    failures = []
    for eps_i, h, n_items, z_target in [(1.0, 20, 1682, 106.04), (4.0, 5, 100, 10.0)]:
        params = randresp.calibrate(eps_i, h, n_items, z_target)
        # analytic composite per-bit ratio
        ratio = (params.q_star * (1 - params.p_star)) / (params.p_star * (1 - params.q_star))
        if abs(ratio - math.exp(eps_i / h)) > 1e-9 * math.exp(eps_i / h):
            failures.append(f"analytic ratio off for eps_i={eps_i}")
        # permanent-stage per-bit form
        prr_ratio = ((1 - 0.5 * params.f) / (0.5 * params.f)) ** (2 * h)
        if abs(prr_ratio - math.exp(2 * eps_i)) > 1e-9 * math.exp(2 * eps_i):
            failures.append(f"permanent-stage ratio off for eps_i={eps_i}")
        rng = derive_rng(12345, 1)
        for bit, target in ((1, params.q_star), (0, params.p_star)):
            bits = np.full(n, bit, dtype=np.uint8)
            sent = randresp.irr(randresp.prr(bits, params.f, rng), params.p, params.q, rng)
            sigma = math.sqrt(target * (1 - target) / n)
            if abs(sent.mean() - target) >= 3 * sigma:
                failures.append(f"empirical freq off for eps_i={eps_i}, bit={bit}")
    elapsed = time.perf_counter() - started
    _report(
        2,
        "randomized-response likelihood ratios",
        not failures and elapsed < 30.0,
        "; ".join(failures) or f"2 cells x {n} bits, {elapsed:.1f}s",
    )


def test_03_fake_error_bound_calibration():
    failures = []
    for mu, sigma in ((0.0, 1.0), (0.3, 0.8)):
        eps_floor = fakegrad.epsilon_g_of(alpha_max_of(mu, sigma), mu, sigma)
        for eps_g in (4.0, 1.0, 0.25, 0.0625):
            bound = fakegrad.solve_alpha(eps_g, mu, sigma)
            if eps_g < eps_floor:
                if not (bound.clamped and bound.alpha == bound.alpha_max):
                    failures.append(f"clamp missing at eps_g={eps_g}, mu={mu}")
            elif not (eps_g - 1e-6 <= bound.eps_g_achieved <= eps_g):
                failures.append(f"band missed at eps_g={eps_g}, mu={mu}")
        bound = fakegrad.solve_alpha(1.0, mu, sigma)
        rng = derive_rng(5, 2)
        draws = fakegrad.sample_fake_errors(mu, sigma, bound.alpha, 100_000, rng)
        if not np.all((draws > -bound.alpha) & (draws < bound.alpha)):
            failures.append(f"sample escaped bound at mu={mu}")
        edges = np.linspace(-bound.alpha, bound.alpha, 21)
        observed, _ = np.histogram(draws, bins=edges)
        cell = np.diff(stats.norm.cdf(edges, mu, sigma))
        expected = cell / cell.sum() * len(draws)
        gof = stats.chisquare(observed, expected)
        if gof.pvalue <= 0.01:
            failures.append(f"chi-square p={gof.pvalue:.4f} at mu={mu}")
    _report(3, "fake-error bound calibration", not failures, "; ".join(failures) or "8 budgets, 2 GOF checks")


def test_04_gradient_oracles():
    rng = np.random.default_rng(2024)
    k = 5
    worst = 0.0

    def fd(loss, x, step=1e-6):
        g = np.zeros_like(x)
        for i in range(len(x)):
            hi, lo = x.copy(), x.copy()
            hi[i] += step
            lo[i] -= step
            g[i] = (loss(hi) - loss(lo)) / (2 * step)
        return g

    def rel_err(a, b):
        denom = max(np.linalg.norm(b), 1e-12)
        return np.linalg.norm(a - b) / denom

    for _ in range(100):
        lam_u = rng.uniform(0.01, 0.5, k)
        lam_v = rng.uniform(0.01, 0.5, k)
        hp = Hyperparams(k, 1.0, 0.0, lam_u, lam_v, 0, noise_enabled=False)
        eta = rng.uniform(0.05, 0.5)
        u, v, v2 = rng.normal(size=(3, k))
        r = rng.normal()
        e = rating_error(r, u, v)

        def mf_loss_u(x):
            err = r - np.dot(x, v)
            return 0.5 * err * err + 0.5 * np.dot(x * lam_u, x)

        def mf_loss_v(x):
            err = r - np.dot(u, x)
            return 0.5 * err * err + 0.5 * np.dot(x * lam_v, x)

        worst = max(worst, rel_err(user_step(u, e, v, eta, hp, rng), -eta * fd(mf_loss_u, u)))
        worst = max(worst, rel_err(item_step(v, e, u, eta, hp, rng), -eta * fd(mf_loss_v, v)))

        def bpr_loss(uu, vp, vn):
            x = np.dot(uu, vp) - np.dot(uu, vn)
            return (
                -math.log(1.0 / (1.0 + math.exp(-x)))
                + 0.5 * np.dot(uu * lam_u, uu)
                + 0.5 * np.dot(vp * lam_v, vp)
                + 0.5 * np.dot(vn * lam_v, vn)
            )

        # each item's delta from its own role; bpr_step works over copies
        du, dpos = bpr.bpr_step(u.copy(), v.copy(), v2.copy(), True, eta, hp)
        _, dneg = bpr.bpr_step(u.copy(), v2.copy(), v.copy(), False, eta, hp)
        worst = max(worst, rel_err(du, -eta * fd(lambda x: bpr_loss(x, v, v2), u)))
        worst = max(worst, rel_err(dpos, -eta * fd(lambda x: bpr_loss(u, x, v2), v)))
        worst = max(worst, rel_err(dneg, -eta * fd(lambda x: bpr_loss(u, v, x), v2)))

    _report(4, "gradient finite-difference oracles", worst <= 1e-4, f"worst relative error {worst:.2e}")


def test_05_oracle_equivalence():
    started = time.perf_counter()
    ds = synthetic_dataset(50, 80, seed=7, mean_ratings_per_user=12)
    lam = np.full(6, 0.01)
    hp = Hyperparams(6, 0.05, 0.6, lam, lam, seed=11, noise_enabled=False)
    reference = centralized_train(ds, hp, 20)
    result = run_training(ds, hp, 20, budget=None)
    elapsed = time.perf_counter() - started
    identical = np.array_equal(reference.u, result.model.u) and np.array_equal(
        reference.v, result.model.v
    )
    _report(5, "distributed equals centralized bit-for-bit", identical and elapsed < 10.0, f"{elapsed:.1f}s")


def test_06_average_attack_contrast():
    started = time.perf_counter()
    n_items, h, rounds, clients = 50, 25, 1000, 100
    p, q = 0.1, 0.9
    master = derive_rng(606, 1)

    def attack_agreement(f):
        p_star, q_star = effective_probs(f, p, q)
        all_hits, rated_hits, rated_total = 0, 0, 0
        for _ in range(clients):
            bits = np.zeros(n_items, dtype=np.uint8)
            bits[master.choice(n_items, size=h, replace=False)] = 1
            bp = randresp.prr(bits, f, master)
            samples = (
                master.random((rounds, n_items)) < np.where(bp == 1, q, p)[None, :]
            ).astype(np.uint8)
            guess = randresp.classify_rated(average_attack(samples), p_star, q_star)
            all_hits += int(np.sum(guess == bits.astype(bool)))
            rated_hits += int(np.sum(guess[bits == 1]))
            rated_total += h
        return all_hits / (clients * n_items), rated_hits / rated_total

    acc_no_prr, _ = attack_agreement(0.0)
    _, rated_agree = attack_agreement(0.5)
    elapsed = time.perf_counter() - started
    ok = acc_no_prr >= 0.99 and abs(rated_agree - 0.75) <= 0.03 and elapsed < 30.0
    _report(
        6,
        "average-attack contrast",
        ok,
        f"f=0 accuracy {acc_no_prr:.4f}; f=0.5 rated-bit agreement {rated_agree:.4f}; {elapsed:.1f}s",
    )


def test_07_numerical_utility_ordering():
    started = time.perf_counter()
    dataset = desk_dataset()
    finals = {"nonprivate": [], "eps_g=4": [], "eps_g=0.0625": []}
    for rep in range(5):
        rep_seed = int(derive_rng(20260808, TAG_REPETITION, rep).integers(2**31 - 1))
        train, test = split(dataset, SplitSpec("random-holdout", 0.2, seed=rep_seed))
        mean_rating = float(np.mean([t.rating for t in train.triples]))
        hp = Hyperparams.with_gamma_priors(
            10, 0.5, 0.6, seed=rep_seed, noise_enabled=False, init_prediction=mean_rating
        )
        cells = [
            ("nonprivate", None),
            ("eps_g=4", PrivacyBudget(eps_i=4.0, eps_g=4.0)),
            ("eps_g=0.0625", PrivacyBudget(eps_i=4.0, eps_g=0.0625)),
        ]
        for name, budget in cells:
            result = run_training(train, hp, 100, budget=budget, per_item_average=True)
            finals[name].append(rmse(test, result.model))
    means = {k: float(np.mean(v)) for k, v in finals.items()}
    gap = means["eps_g=4"] - means["nonprivate"]
    elapsed = time.perf_counter() - started
    ok = (
        means["nonprivate"] <= means["eps_g=4"] <= means["eps_g=0.0625"]
        and gap <= 0.15
        and elapsed < 600.0
    )
    _report(
        7,
        "numerical utility ordering",
        ok,
        f"nonprivate {means['nonprivate']:.4f} <= eps_g=4 {means['eps_g=4']:.4f} "
        f"<= eps_g=0.0625 {means['eps_g=0.0625']:.4f}; gap {gap:.4f}; {elapsed:.0f}s",
    )


def test_08_one_class_utility_gap():
    started = time.perf_counter()
    dataset = desk_dataset()
    gaps = []
    for rep in range(3):
        rep_seed = int(derive_rng(777, TAG_REPETITION, rep).integers(2**31 - 1))
        train, test = split(dataset, SplitSpec("leave-one-out", seed=rep_seed))
        hp = Hyperparams.with_gamma_priors(10, 10.0, 0.6, seed=rep_seed, noise_enabled=False)
        values = {}
        for name, budget in (("nonprivate", None), ("eps_i=4", PrivacyBudget(eps_i=4.0))):
            result = run_training(
                train, hp, 100, budget=budget, task="one-class", per_item_average=True
            )
            values[name] = auc(test, train, result.model)
        gaps.append(values["nonprivate"] - values["eps_i=4"])
    mean_gap = float(np.mean(gaps))
    elapsed = time.perf_counter() - started
    ok = 0.0 < mean_gap <= 0.06 and elapsed < 600.0
    _report(
        8,
        "one-class utility gap",
        ok,
        f"mean AUC gap {mean_gap:.4f} over 3 reps; {elapsed:.0f}s",
    )


def test_09_message_accounting():
    n_items, h = 200, 20
    params = randresp.calibrate(1.0, h, n_items, 20.0)
    bits = np.zeros(n_items, dtype=np.uint8)
    bits[:h] = 1
    rng = derive_rng(909, 1)
    rounds = 10_000
    counts = np.empty(rounds)
    for i in range(rounds):
        sent = randresp.irr(randresp.prr(bits, params.f, rng), params.p, params.q, rng)
        counts[i] = sent.sum()
    exact_var = h * params.q_star * (1 - params.q_star) + (n_items - h) * params.p_star * (
        1 - params.p_star
    )
    tolerance = 3 * math.sqrt(exact_var / rounds)
    deviation = abs(counts.mean() - params.z)
    _report(
        9,
        "expected message count",
        deviation < tolerance,
        f"mean {counts.mean():.3f} vs z {params.z:.3f} (tol {tolerance:.3f})",
    )


def test_10_codec():
    grad = GradientMessage(3, np.array([0.0, 1.0]))
    fixed_ok = encode_message(grad) == bytes.fromhex(
        "01" "03000000" "02000000" "0000000000000000" "000000000000f03f"
    ) and encode_message(FinishMessage(7)) == bytes.fromhex("02" "07000000")
    rng = np.random.default_rng(10)
    exact = True
    for _ in range(10_000):
        if rng.random() < 0.25:
            msg = FinishMessage(int(rng.integers(0, 2**32)))
        else:
            msg = GradientMessage(int(rng.integers(0, 2**32)), rng.normal(size=int(rng.integers(1, 9))))
        decoded, _ = decode_message(encode_message(msg))
        if decoded != msg:
            exact = False
            break
    _report(10, "wire codec", fixed_ok and exact, "10000 round-trips + fixed layouts")


def test_11_ml100k_ingestion():
    path = _ml100k_path()
    if path is None:
        print("\nACCEPTANCE 11 MovieLens-100K ingestion: SKIP (file not found; "
              "set PRIVMF_ML100K or place data/ml-100k/u.data)", flush=True)
        pytest.skip("MovieLens-100K file not available offline")
    ds = parse_ratings(path.read_text(encoding="utf-8"))
    ok = (ds.n_users, ds.n_items, len(ds)) == (943, 1682, 100_000)
    _report(11, "MovieLens-100K ingestion", ok, f"{ds.n_users} users, {ds.n_items} items, {len(ds)} ratings")
