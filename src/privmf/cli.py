"""Command-line entry points.

    privmf run --config experiment.cfg
    privmf calibrate --eps-i 4 --h 20 --items 1682 --z 106.04
    privmf attack --config experiment.cfg
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import randresp
from .experiment import ConfigError, check_z_target, load_config, load_dataset, run_experiments
from .protocol import Population, ProtocolError
from .sgld import Hyperparams


def _cmd_run(args) -> int:
    config = load_config(args.config)
    paths = run_experiments(config)
    print(f"curves:  {paths['curves']}")
    print(f"summary: {paths['summary']}")
    return 0


def _cmd_calibrate(args) -> int:
    params = randresp.calibrate(args.eps_i, args.h, args.items, args.z, eps_p=args.eps_p)
    eps_p = args.eps_p if args.eps_p is not None else 2.0 * args.eps_i
    print(f"h       = {params.h}")
    print(f"f       = {params.f:.12g}   (eps_p = {eps_p:g})")
    print(f"p       = {params.p:.12g}")
    print(f"q       = {params.q:.12g}")
    print(f"p_star  = {params.p_star:.12g}")
    print(f"q_star  = {params.q_star:.12g}")
    print(f"z       = {params.z:.12g}")
    return 0


def _calibrates(budget: randresp.PrivacyBudget, h: int, n_items: int, z_target: float) -> bool:
    """Whether a client with ``h`` ratings can be set up for ``budget``."""
    try:
        randresp.calibrate(budget.eps_i, h, n_items, z_target, eps_p=budget.resolved_eps_p())
    except randresp.CalibrationError:
        return False
    return True


def _cmd_attack(args) -> int:
    """Simulate the averaging adversary against each configured eps_i."""
    config = load_config(args.config)
    dataset = load_dataset(config)
    check_z_target(config, dataset)
    rounds, n_items = config.iterations, dataset.n_items
    # the whole data set's target: the attacked clients are a subset of it
    z_target = config.z_target if config.z_target is not None else len(dataset) / dataset.n_users
    hp = Hyperparams.with_gamma_priors(config.k, config.eta0, config.gamma, config.seed)
    u0, h = np.zeros((dataset.n_users, hp.k)), np.diff(dataset.indptr)
    rated = np.zeros((dataset.n_users, n_items), dtype=bool)  # B, one row per user
    rated[dataset.users, dataset.items] = True
    for block, eps_i in enumerate(config.eps_i):
        budget = randresp.PrivacyBudget(eps_i, config.eps_p)
        # the clients whose h calibrates, over the data set's id universe,
        # so each keeps its id and its streams
        fits = [n for n in np.unique(h[h > 0]).tolist() if _calibrates(budget, n, n_items, z_target)]
        attacked = np.isin(h, fits)
        hits = np.zeros(3, dtype=np.int64)  # bits of B, rated bits of B, bits of B'
        if attacked.any():
            pop = Population(dataset._rows(attacked[dataset.users]), u0, hp, budget, z_target)
            # how often each client sent each item: sums of 0/1, exact, so
            # counts / rounds is the per-item mean of the sampled send sets
            counts = np.zeros((len(pop), n_items), dtype=np.int32)
            for t in range(1, rounds + 1):
                _, items, at = pop.send_sets(t)
                counts[np.repeat(np.arange(len(pop)), np.diff(at)), items] += 1
            guess = randresp.classify_rated(counts / rounds, pop.p_star[:, None], pop.q_star[:, None])
            truth = rated[pop.ids]
            hits[:] = (np.sum(guess == truth), np.sum(guess & truth), np.sum(guess == pop.bits_prime))
        n_attacked, rated_total = int(attacked.sum()), int(h[attacked].sum())

        if block:
            print()
        print(f"clients attacked   : {n_attacked} (skipped {np.count_nonzero(h) - n_attacked})")
        print(f"rounds observed    : {rounds}")
        print(f"eps_i              : {eps_i:g}")
        bit_total = max(n_attacked * n_items, 1)
        print(f"accuracy vs B      : {hits[0] / bit_total:.4f}")
        print(f"rated-bit recall   : {hits[1] / max(rated_total, 1):.4f}")
        print(f"accuracy vs B'     : {hits[2] / bit_total:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="privmf")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured learning-curve experiments")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_cal = sub.add_parser("calibrate", help="print randomized-response parameters for a budget")
    p_cal.add_argument("--eps-i", type=float, required=True, dest="eps_i")
    p_cal.add_argument("--eps-p", type=float, default=None, dest="eps_p")
    p_cal.add_argument("--h", type=int, required=True)
    p_cal.add_argument("--items", type=int, required=True)
    p_cal.add_argument("--z", type=float, required=True)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_att = sub.add_parser("attack", help="report what an averaging adversary recovers")
    p_att.add_argument("--config", required=True)
    p_att.set_defaults(func=_cmd_attack)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, randresp.CalibrationError, OSError, ValueError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
