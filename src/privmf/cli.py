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
from .experiment import ConfigError, load_config, load_dataset, run_experiments
from .protocol import Population, ProtocolError, _draw_send_sets, client_init, client_init_rngs
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


def _cmd_attack(args) -> int:
    """Simulate the averaging adversary against each configured eps_i."""
    config = load_config(args.config)
    dataset = load_dataset(config)
    rounds = config.iterations
    z_target = config.z_target if config.z_target is not None else len(dataset) / dataset.n_users
    hp = Hyperparams.with_gamma_priors(config.k, config.eta0, config.gamma, config.seed)
    u0, n_items = np.zeros(hp.k), dataset.n_items
    for block, eps_i in enumerate(config.eps_i):
        budget = randresp.PrivacyBudget(eps_i, config.eps_p)
        users, states = dataset.active_users(), []
        for user, rng0 in zip(users, client_init_rngs(config.seed, users)):
            try:
                state = client_init(
                    user, *dataset.user_items(user), u0, n_items, hp, budget, z_target, config.seed, rng0
                )
            except randresp.CalibrationError:
                continue
            states.append(state)
        skipped = len(users) - len(states)
        hits = np.zeros(3, dtype=np.int64)  # bits of B, rated bits of B, bits of B'
        if states:
            pop = Population(states)
            # how often each client sent each item: sums of 0/1, exact, so
            # counts / rounds is the per-item mean of the sampled send sets
            counts = np.zeros((len(pop), n_items), dtype=np.int32)
            for t in range(1, rounds + 1):
                _, items, at = _draw_send_sets(pop, t)
                counts[np.repeat(np.arange(len(pop)), np.diff(at)), items] += 1
            guess = randresp.classify_rated(counts / rounds, pop.p_star[:, None], pop.q_star[:, None])
            rated = np.stack([state.bits for state in states]) == 1
            hits[:] = (np.sum(guess == rated), np.sum(guess & rated), np.sum(guess == pop.bits_prime))
        attacked, rated_total = len(states), sum(state.h for state in states)

        if block:
            print()
        print(f"clients attacked   : {attacked} (skipped {skipped})")
        print(f"rounds observed    : {rounds}")
        print(f"eps_i              : {eps_i:g}")
        bit_total = max(attacked * n_items, 1)
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
    except (ConfigError, randresp.CalibrationError, FileNotFoundError, ValueError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
