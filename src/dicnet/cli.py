"""Experiment harness: budget sweeps, pruning statistics, exact-value
reports on tiny instances, and power-law network generation.

Subcommands: run, prune-stats, oracle, gen.  Exit codes: 0 success,
2 configuration error, 3 enumeration-guard violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys

from . import __version__
from .data import (PresetSpec, SchemaError, generate_power_law, load_network,
                   parse_preset, save_network)
from .estimator import half_width, run_replications, substream
from .fixtures import fixture_g1, two_node_fixture
from .oracle import (EnumerationGuard, check_properties, enumerate_schedules,
                     exact_policy_value, greedy_adaptive_value,
                     optimal_adaptive_value)
from .strategies import (AGreedyPolicy, RandomPolicy, h_greedy_prune,
                         pattern_a0, static_greedy_select, static_seed_factory)

CSV_HEADER = ("strategy,budget,replication,spread,rounds_used,seeds_used,"
              "gain_evaluations,wall_time_ms,master_seed")

STRATEGIES = ("random", "greedy", "a-greedy", "h-greedy")

# purpose tags for streams owned by the harness rather than replications
_PURPOSE_SELECT = 10
_PURPOSE_PRUNE = 11


class ConfigError(ValueError):
    pass


def parse_budgets(text: str) -> list[int]:
    """'a..b', 'a..b:step', a single integer, or a comma list."""
    try:
        if ".." in text:
            span, _, step_s = text.partition(":")
            a_s, _, b_s = span.partition("..")
            a, b = int(a_s), int(b_s)
            step = int(step_s) if step_s else 1
            if step < 1 or b < a:
                raise ValueError
            return list(range(a, b + 1, step))
        if "," in text:
            return [int(t) for t in text.split(",")]
        return [int(text)]
    except (TypeError, ValueError):
        raise ConfigError(f"bad budget grid {text!r}") from None


def _resolve_network(args, budget: int):
    """The configured network with the given seeding budget."""
    preset = parse_preset(args.preset, args.activation)
    if args.gen:
        try:
            n_s, m_s, s_s = args.gen.split(",")
            n, m, s = int(n_s), int(m_s), int(s_s)
        except (AttributeError, ValueError):
            raise ConfigError(f"bad --gen spec {args.gen!r}") from None
        net = generate_power_law(n, m, s, preset, budget=1)
    else:
        if args.net:
            net = load_network(args.net)
        elif args.fixture in FIXTURES:
            net = FIXTURES[args.fixture]()
        else:
            raise ConfigError(f"unknown fixture {args.fixture!r}")
        # each flag sets its own part of the network unless at its default
        if args.preset != DEFAULT_PRESET:
            edges = tuple((u, w, preset.distribution) for u, w, _ in net.edges)
            net = dataclasses.replace(net, edges=edges)
        if args.activation != DEFAULT_ACTIVATION:
            net = dataclasses.replace(
                net, activation=(preset.activation,) * net.node_count)
    if not 1 <= budget <= net.node_count:
        raise ConfigError(f"budget {budget} outside [1, {net.node_count}]")
    return dataclasses.replace(net, budget=budget)


# integer settings and their smallest allowed value (None: any integer)
_INT_SETTINGS = {"R": 1, "R_pre": 1, "reps": 1, "workers": 1, "trials": 0,
                 "seed": None}
# string settings, and whether they may be null
_STR_SETTINGS = {"preset": False, "strategies": False, "out": False,
                 "policy": False, "budgets": False, "fixture": False,
                 "net": True, "gen": True}


def _check_settings(args):
    """Reject malformed settings, typed or from --config, before any work
    starts.  Bools are not numbers here."""
    for name, nullable in _STR_SETTINGS.items():
        value = getattr(args, name, "")    # some belong to one command only
        if type(value) is not str and not (nullable and value is None):
            raise ConfigError(f"--{name} must be a string, got {value!r}")
    for name, low in _INT_SETTINGS.items():
        if not hasattr(args, name):        # `trials` belongs to `oracle` only
            continue
        value = getattr(args, name)
        if type(value) is not int or (low is not None and value < low):
            flag = "--" + name.replace("_", "-")
            bound = "" if low is None else f" >= {low}"
            raise ConfigError(f"{flag} must be an integer{bound}, got {value!r}")
    if type(args.delta) not in (int, float) or not 0 < args.delta < 1:
        raise ConfigError(f"--delta must be a number in (0, 1), got {args.delta!r}")


def _make_factory(strategy: str, net, args):
    """Policy factory for one (strategy, budget) cell, plus setup info."""
    info = {}
    if strategy == "random":
        return functools.partial(
            RandomPolicy, pattern_a0(net.budget, net.node_count)), info
    if strategy == "greedy":
        rng = substream(args.seed, net.budget, _PURPOSE_SELECT)
        seeds, evals = static_greedy_select(net, net.budget, args.R, rng)
        info["selected_seeds"] = seeds
        info["selection_gain_evaluations"] = evals
        return functools.partial(static_seed_factory, tuple(seeds)), info
    if strategy == "a-greedy":
        return functools.partial(AGreedyPolicy, net, args.R), info
    if strategy == "h-greedy":
        rng = substream(args.seed, net.budget, _PURPOSE_PRUNE)
        candidates, stats = h_greedy_prune(net, args.R_pre, rng)
        info["pruned_fraction"] = stats["pruned_fraction"]
        info["candidates"] = len(candidates)
        return functools.partial(AGreedyPolicy, net, args.R,
                                 candidates=candidates), info
    raise ConfigError(f"unknown strategy {strategy!r}")


def cmd_run(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",")]
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; "
                              f"choose from {', '.join(STRATEGIES)}")
    budgets = parse_budgets(args.budgets)
    base = _resolve_network(args, budgets[0])
    if not all(1 <= b <= base.node_count for b in budgets):
        raise ConfigError(f"budget grid {budgets} outside [1, {base.node_count}]")
    out = args.out
    summary_path = out + ".summary.csv"
    meta_path = out + ".meta.json"
    cells = []
    try:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            for strategy in strategies:
                for budget in budgets:
                    net = dataclasses.replace(base, budget=budget)
                    factory, info = _make_factory(strategy, net, args)
                    rows = run_replications(net, factory, args.reps,
                                            args.seed, args.workers)
                    for r in rows:
                        writer.writerow([strategy, budget, r.replication,
                                         r.spread, r.rounds, r.seeds_used,
                                         r.gain_evaluations,
                                         f"{r.wall_time_ms:.3f}", args.seed])
                    mean = sum(r.spread for r in rows) / len(rows)
                    cells.append({"strategy": strategy, "budget": budget,
                                  "mean_spread": mean,
                                  "half_width": half_width(
                                      net.node_count, len(rows), args.delta),
                                  **info})
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy", "budget", "replications",
                             "mean_spread", "half_width"])
            for c in cells:
                writer.writerow([c["strategy"], c["budget"], args.reps,
                                 repr(c["mean_spread"]),
                                 repr(c["half_width"])])
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump({"version": __version__,
                       "config": _config_dict(args),
                       "cells": cells}, fh, indent=2)
            fh.write("\n")
    except BaseException:
        for path in (out, summary_path, meta_path):
            if os.path.exists(path):
                os.unlink(path)
        raise
    print(f"wrote {len(strategies) * len(budgets) * args.reps} rows to {out}")
    return 0


def cmd_prune_stats(args) -> int:
    budgets = parse_budgets(args.budgets)
    net = _resolve_network(args, budgets[0])
    rng = substream(args.seed, net.budget, _PURPOSE_PRUNE)
    _, stats = h_greedy_prune(net, args.R_pre, rng)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "estimate"])
        for v, e in enumerate(stats["estimates"]):
            writer.writerow([v, repr(e)])
    with open(args.out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump({"version": __version__,
                   "mean": stats["mean"], "std": stats["std"],
                   "threshold": stats["threshold"],
                   "pruned_fraction": stats["pruned_fraction"],
                   "config": _config_dict(args)}, fh, indent=2)
        fh.write("\n")
    print(f"mean={stats['mean']:.4f} std={stats['std']:.4f} "
          f"pruned_fraction={stats['pruned_fraction']:.3f}")
    return 0


def _parse_oracle_policy(text: str, node_count: int):
    if text == "empty":
        return lambda: static_seed_factory((), None)
    kind, _, arg = text.partition(":")
    if kind == "static":
        try:
            seeds = tuple(int(t) for t in arg.split(","))
        except ValueError:
            raise ConfigError(f"bad static seed list {arg!r}") from None
        bad = [v for v in seeds if not 0 <= v < node_count]
        if bad:
            raise ConfigError(f"static seeds {bad} outside [0, {node_count})")
        return lambda: static_seed_factory(seeds, None)
    raise ConfigError(f"unknown oracle policy {text!r}")


_ORACLE_ALIASES = {"pattern-optimality": "theorem1",
                   "greedy-guarantee": "theorem2"}


def cmd_oracle(args) -> int:
    budgets = parse_budgets(args.budgets)
    net = _resolve_network(args, budgets[0])
    args.subject = _ORACLE_ALIASES.get(args.subject, args.subject)
    if args.subject == "properties":
        rng = substream(args.seed, 0, 42)
        report = check_properties(net, args.trials, rng)
        print(f"trials={report['trials']} "
              f"monotonicity_violations={report['monotonicity_violations']} "
              f"submodularity_violations={report['submodularity_violations']}")
        return 0 if (report["monotonicity_violations"] == 0
                     and report["submodularity_violations"] == 0) else 1
    if args.subject == "theorem1":
        best = optimal_adaptive_value(net, "adaptive")
        ok = True
        for sched in enumerate_schedules(net.budget, net.node_count):
            val = optimal_adaptive_value(net, sched)
            mark = "ok" if val <= best + 1e-9 else "VIOLATION"
            if mark != "ok":
                ok = False
            print(f"pattern {sched}: {val:.6f} vs adaptive {best:.6f} [{mark}]")
        return 0 if ok else 1
    if args.subject == "theorem2":
        opt = optimal_adaptive_value(net, "adaptive")
        greedy = greedy_adaptive_value(net)
        bound = (1.0 - 1.0 / math.e) * opt
        ok = greedy >= bound - 1e-9
        print(f"greedy={greedy:.6f} optimal={opt:.6f} bound={bound:.6f} "
              f"ratio={greedy / opt if opt else 1.0:.4f} "
              f"[{'ok' if ok else 'VIOLATION'}]")
        return 0 if ok else 1
    if args.subject == "exact-value":
        factory = _parse_oracle_policy(args.policy, net.node_count)
        value = exact_policy_value(net, factory)
        print(f"exact_value={value!r}")
        return 0
    raise ConfigError(f"unknown oracle subject {args.subject!r}")


def cmd_gen(args) -> int:
    if not args.gen:
        raise ConfigError("gen requires --gen n,edges,seed")
    net = _resolve_network(args, 1)        # the generator validates the net
    save_network(net, args.out)
    print(f"wrote {net.node_count} nodes, {len(net.edges)} edges to {args.out}")
    return 0


DEFAULT_PRESET = "f1:0.01"
DEFAULT_ACTIVATION = 0.5
FIXTURES = {"g1": fixture_g1, "two-node": two_node_fixture}


def _add_common(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group()
    src.add_argument("--net", help="network JSON file")
    src.add_argument("--gen", metavar="n,edges,seed",
                     help="generate a power-law network")
    src.add_argument("--fixture", default="g1", choices=tuple(FIXTURES),
                     help="built-in demo network")
    p.add_argument("--preset", default=DEFAULT_PRESET,
                   help="edge law: f1:p | f2:mean,bins | f3:v1,v2,...")
    p.add_argument("--activation", type=float, default=DEFAULT_ACTIVATION,
                   help="seed-activation probability for all nodes")
    p.add_argument("--budgets", default="1..3", help="a..b[:step] or list")
    p.add_argument("--reps", type=int, default=100,
                   help="replications per (strategy, budget) cell")
    p.add_argument("--R", type=int, default=10000,
                   help="gain-estimation sample size")
    p.add_argument("--R-pre", dest="R_pre", type=int, default=2000,
                   help="pruning prepass sample size")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.01,
                   help="confidence parameter for reported half-widths")
    p.add_argument("--out", default="results.csv")
    p.add_argument("--config", help="JSON file of defaults for these flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicnet",
        description="Cascade-diffusion experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="strategy/budget sweep to CSV")
    _add_common(p_run)
    p_run.add_argument("--strategies", default="random,greedy,a-greedy,h-greedy")
    p_run.set_defaults(func=cmd_run)

    p_prune = sub.add_parser("prune-stats",
                             help="single-seed spread estimates per node")
    _add_common(p_prune)
    p_prune.set_defaults(func=cmd_prune_stats)

    p_oracle = sub.add_parser("oracle", help="exact checks on tiny instances")
    _add_common(p_oracle)
    p_oracle.add_argument("subject",
                          choices=("properties", "theorem1", "theorem2",
                                   "pattern-optimality", "greedy-guarantee",
                                   "exact-value"),
                          help="pattern-optimality and greedy-guarantee are "
                               "aliases for theorem1 and theorem2")
    p_oracle.add_argument("--trials", type=int, default=1000)
    p_oracle.add_argument("--policy", default="empty",
                          help="for exact-value: empty | static:v1,v2,...")
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate and save a power-law network")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def _config_dict(args) -> dict:
    skip = {"func", "config"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _explicit_args(argv):
    """Namespace holding only the options the user actually typed, found by
    re-parsing with every default suppressed."""
    probe = build_parser()
    stack = [probe]
    while stack:
        p = stack.pop()
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
            else:
                action.default = argparse.SUPPRESS
    return probe.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                defaults = json.load(fh)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        except json.JSONDecodeError as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return 2
        unknown = set(defaults) - set(vars(args))
        if unknown:
            print(f"error: unknown config fields {sorted(unknown)}",
                  file=sys.stderr)
            return 2
        # config supplies defaults; anything typed on the command line wins
        explicit = vars(_explicit_args(argv))
        for key, value in defaults.items():
            if key not in explicit:
                setattr(args, key, value)
    try:
        _check_settings(args)
        return args.func(args)
    except (ConfigError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationGuard as exc:
        print(f"error: instance too large for exact enumeration "
              f"({exc.count} realizations)", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
