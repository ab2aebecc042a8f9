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
from .estimator import (PURPOSE_PROPERTIES, PURPOSE_PRUNE, PURPOSE_SELECT,
                        SEED_LIMIT, half_width, run_replications, substream)
from .fixtures import fixture_g1, two_node_fixture
from .oracle import (EnumerationGuard, check_properties, enumerate_schedules,
                     exact_policy_value, greedy_adaptive_value,
                     optimal_adaptive_value)
from .strategies import (AGreedyPolicy, RandomPolicy, StaticSeedListPolicy,
                         h_greedy_prune, static_greedy_select,
                         static_seed_factory)

CSV_HEADER = ("strategy,budget,replication,spread,rounds_used,seeds_used,"
              "gain_evaluations,wall_time_ms,master_seed")

STRATEGIES = ("random", "greedy", "a-greedy", "h-greedy")


class ConfigError(ValueError):
    pass


def _budget_grid(text: str):
    """'a..b', 'a..b:step', an integer or a comma list; a span stays a range."""
    try:
        if ".." in text:
            span, _, step_s = text.partition(":")
            a_s, _, b_s = span.partition("..")
            a, b = int(a_s), int(b_s)
            step = int(step_s) if step_s else 1
            if step < 1 or b < a:
                raise ValueError
            return range(a, b + 1, step)
        if "," in text:
            return [int(t) for t in text.split(",")]
        return [int(text)]
    except (TypeError, ValueError):
        raise ConfigError(f"bad budget grid {text!r}") from None


def parse_budgets(text: str) -> list[int]:
    return list(_budget_grid(text))


# Every setting and its default, in the order .meta.json records them.  The
# default's type is the setting's type; a None default means a string or null.
SETTINGS = {"net": None, "gen": None, "fixture": "g1", "preset": "f1:0.01",
            "activation": 0.5, "budgets": "1..3", "reps": 100, "R": 10000,
            "R_pre": 2000, "seed": 0, "workers": 1, "delta": 0.01,
            "out": "results.csv",
            "strategies": ",".join(STRATEGIES),
            "trials": 1000, "policy": "empty"}
# the settings of one command only; every other setting belongs to all
_OWNER = {"strategies": "run", "trials": "oracle", "policy": "oracle"}
# smallest allowed value of the bounded integer settings
_LOWER = {"R": 1, "R_pre": 1, "reps": 1, "workers": 1, "trials": 0}
# the value types a default's type admits (bools are not numbers here)
_ADMITS = {type(None): ((str, type(None)), "a string"),
           str: ((str,), "a string"), int: ((int,), "an integer"),
           float: ((int, float), "a number")}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_settings(args):
    """Reject malformed settings, typed or from --config, before any work
    starts."""
    for name, value in vars(args).items():
        if name not in SETTINGS:           # the command and oracle's subject
            continue
        types, kind = _ADMITS[type(SETTINGS[name])]
        low = _LOWER.get(name)
        if type(value) not in types or (low is not None and value < low):
            bound = "" if low is None else f" >= {low}"
            raise ConfigError(f"{_flag(name)} must be {kind}{bound}, "
                              f"got {value!r}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise ConfigError(f"--seed must be an integer in [0, 2**64), "
                          f"got {args.seed!r}")
    if not 0 < args.delta < 1:
        raise ConfigError(f"--delta must be a number in (0, 1), got {args.delta!r}")


def _resolve_network(args, given, budgets=None):
    """The configured network with seeding budget budgets[0], after checking
    every budget against its node count, or at its own budget (a file's or a
    fixture's, 1 for --gen) when budgets is None.  At most one of --net,
    --gen and --fixture is given, typed or in --config (a null is not).  A
    given --preset replaces the edge law of a --net or --fixture network,
    and a given --activation its activation."""
    sources = [_flag(k) for k in ("net", "gen", "fixture")
               if k in given and getattr(args, k) is not None]
    if sources[1:]:
        raise ConfigError(f"give one network source, got {', '.join(sources)}")
    preset = parse_preset(args.preset, args.activation)
    if args.gen is not None:
        try:
            n_s, m_s, s_s = args.gen.split(",")
            n, m, s = int(n_s), int(m_s), int(s_s)
        except ValueError:
            raise ConfigError(f"bad --gen spec {args.gen!r}") from None
        if not 0 <= s < 1 << 128:                 # a Philox key is 128 bits
            raise ConfigError(f"--gen seed must be an integer in [0, 2**128), "
                              f"got {s!r}")
        net = generate_power_law(n, m, s, preset, budget=1)
    else:
        if args.net is not None:
            net = load_network(args.net)
        elif args.fixture in FIXTURES:
            net = FIXTURES[args.fixture]()
        else:
            raise ConfigError(f"unknown fixture {args.fixture!r}")
        if "preset" in given:
            edges = tuple((u, w, preset.distribution) for u, w, _ in net.edges)
            net = dataclasses.replace(net, edges=edges)
        if "activation" in given:
            net = dataclasses.replace(
                net, activation=(preset.activation,) * net.node_count)
    if budgets is None:
        return net
    bad = next((b for b in budgets if not 1 <= b <= net.node_count), None)
    if bad is not None:
        raise ConfigError(f"budget {bad} outside [1, {net.node_count}]")
    return net.with_budget(budgets[0])    # keeps the views built by validation


def _one_budget(args, given):
    """The budget grid of a command that runs at a single budget, or None
    for the network's own budget when --budgets is not given."""
    if "budgets" not in given:
        return None
    budgets = _budget_grid(args.budgets)
    if budgets[1:]:
        raise ConfigError(f"{args.command} takes one budget, "
                          f"got {args.budgets!r}")
    return budgets


def _make_factory(strategy: str, net, args):
    """Policy factory for one (strategy, budget) cell, plus setup info."""
    info = {}
    if strategy == "random":
        return RandomPolicy, info
    if strategy == "greedy":
        rng = substream(args.seed, net.budget, PURPOSE_SELECT)
        seeds, evals = static_greedy_select(net, net.budget, args.R, rng)
        info["selected_seeds"] = seeds
        info["selection_gain_evaluations"] = evals
        return functools.partial(static_seed_factory, tuple(seeds)), info
    if strategy == "a-greedy":
        return functools.partial(AGreedyPolicy, net, args.R), info
    if strategy == "h-greedy":
        rng = substream(args.seed, net.budget, PURPOSE_PRUNE)
        candidates, stats = h_greedy_prune(net, args.R_pre, rng)
        info["pruned_fraction"] = stats["pruned_fraction"]
        info["candidates"] = len(candidates)
        return functools.partial(AGreedyPolicy, net, args.R,
                                 candidates=candidates), info
    raise ConfigError(f"unknown strategy {strategy!r}")


def cmd_run(args, given) -> int:
    strategies = [s.strip() for s in args.strategies.split(",")]
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigError(f"unknown strategy {s!r}; "
                              f"choose from {', '.join(STRATEGIES)}")
    budgets = _budget_grid(args.budgets)
    base = _resolve_network(args, given, budgets)
    # a repeat would duplicate cells; the budgets are within the node count
    for flag, items in (("--strategies", strategies), ("--budgets", budgets)):
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ConfigError(f"{flag} repeats {item!r}")
    out = args.out
    summary_path = out + ".summary.csv"
    meta_path = out + ".meta.json"
    cells = []
    try:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            net = base
            for strategy in strategies:
                for budget in budgets:
                    # each cell shares the views the cells before it built
                    net = net.with_budget(budget)
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
                       "config": vars(args),
                       "cells": cells}, fh, indent=2)
            fh.write("\n")
    except BaseException:
        for path in (out, summary_path, meta_path):
            if os.path.exists(path):
                os.unlink(path)
        raise
    print(f"wrote {len(strategies) * len(budgets) * args.reps} rows to {out}")
    return 0


def cmd_prune_stats(args, given) -> int:
    net = _resolve_network(args, given, _one_budget(args, given))
    rng = substream(args.seed, net.budget, PURPOSE_PRUNE)
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
                   "config": vars(args)}, fh, indent=2)
        fh.write("\n")
    print(f"mean={stats['mean']:.4f} std={stats['std']:.4f} "
          f"pruned_fraction={stats['pruned_fraction']:.3f}")
    return 0


def _parse_oracle_policy(text: str, node_count: int):
    if text == "empty":
        return lambda: StaticSeedListPolicy(())
    kind, _, arg = text.partition(":")
    if kind == "static":
        try:
            seeds = tuple(int(t) for t in arg.split(","))
        except ValueError:
            raise ConfigError(f"bad static seed list {arg!r}") from None
        bad = [v for v in seeds if not 0 <= v < node_count]
        if bad:
            raise ConfigError(f"static seeds {bad} outside [0, {node_count})")
        return lambda: StaticSeedListPolicy(seeds)
    raise ConfigError(f"unknown oracle policy {text!r}")


_ORACLE_ALIASES = {"pattern-optimality": "theorem1",
                   "greedy-guarantee": "theorem2"}


def cmd_oracle(args, given) -> int:
    net = _resolve_network(args, given, _one_budget(args, given))
    args.subject = _ORACLE_ALIASES.get(args.subject, args.subject)
    if args.subject == "properties":
        rng = substream(args.seed, 0, PURPOSE_PROPERTIES)
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
            ok = ok and mark == "ok"
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


def cmd_gen(args, given) -> int:
    if not args.gen:
        raise ConfigError("gen requires --gen n,edges,seed")
    # the generator validates the net
    net = _resolve_network(args, given, _one_budget(args, given))
    save_network(net, args.out)
    print(f"wrote {net.node_count} nodes, {len(net.edges)} edges to {args.out}")
    return 0


FIXTURES = {"g1": fixture_g1, "two-node": two_node_fixture}
COMMANDS = {"run": cmd_run, "prune-stats": cmd_prune_stats,
            "oracle": cmd_oracle, "gen": cmd_gen}


def _option(p, name: str, **kw):
    """The flag of a setting, typed like its default.  It has no default of
    its own, so parsing returns only the flags that were typed."""
    default = SETTINGS[name]
    p.add_argument(_flag(name), type=str if default is None else type(default),
                   **kw)


def _add_common(p: argparse.ArgumentParser):
    _option(p, "net", help="network JSON file")
    _option(p, "gen", metavar="n,edges,seed",
            help="generate a power-law network")
    _option(p, "fixture", choices=tuple(FIXTURES),
            help="built-in demo network")
    _option(p, "preset", help="edge law: f1:p | f2:mean,bins | f3:v1,v2,...")
    _option(p, "activation", help="seed-activation probability for all nodes")
    _option(p, "budgets", help="a..b[:step] or list")
    _option(p, "reps", help="replications per (strategy, budget) cell")
    _option(p, "R", help="gain-estimation sample size")
    _option(p, "R_pre", help="pruning prepass sample size")
    _option(p, "seed", help="master seed")
    _option(p, "workers")
    _option(p, "delta", help="confidence parameter for reported half-widths")
    _option(p, "out")
    p.add_argument("--config",
                   help="JSON object of settings; typed flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicnet",
        description="Cascade-diffusion experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help,
                           argument_default=argparse.SUPPRESS)
        _add_common(p)
        return p

    _option(command("run", "strategy/budget sweep to CSV"), "strategies")
    command("prune-stats", "single-seed spread estimates per node")
    p_oracle = command("oracle", "exact checks on tiny instances")
    p_oracle.add_argument("subject",
                          choices=("properties", "theorem1", "theorem2",
                                   "pattern-optimality", "greedy-guarantee",
                                   "exact-value"),
                          help="pattern-optimality and greedy-guarantee are "
                               "aliases for theorem1 and theorem2")
    _option(p_oracle, "trials")
    _option(p_oracle, "policy",
            help="for exact-value: empty | static:v1,v2,...")
    command("gen", "generate and save a power-law network")
    return parser


def _load_config(path: str, names) -> dict:
    """The settings a --config file gives: a JSON object of setting names."""
    with open(path, encoding="utf-8") as fh:
        try:
            fields = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad config file: {exc}") from None
        except RecursionError:
            raise ConfigError(f"config file {path!r} is nested too deeply") from None
    if type(fields) is not dict:
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = set(fields) - set(names)
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    return fields


def main(argv=None) -> int:
    typed = vars(build_parser().parse_args(argv))
    command = typed["command"]
    names = [k for k in SETTINGS if _OWNER.get(k, command) == command]
    path = typed.pop("config", None)
    try:
        fields = _load_config(path, names) if path else {}
        # the defaults, overridden by --config, overridden by typed flags
        args = argparse.Namespace(**{"command": command,
                                     **{k: SETTINGS[k] for k in names},
                                     **fields, **typed})
        _check_settings(args)
        return COMMANDS[command](args, set(fields) | set(typed))
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
