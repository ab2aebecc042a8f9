"""Command-line harness: output schema, determinism, and exit codes."""

import argparse
import contextlib
import csv
import io
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicnet.cli
import dicnet.model
from dicnet.cli import CSV_HEADER, ConfigError, main, parse_budgets
from dicnet.data import generate_power_law, load_network, parse_preset, save_network
from dicnet.fixtures import fixture_g1, two_node_fixture
from dicnet.model import (DicNetwork, PropagationDistribution,
                          fixed_distribution)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_budgets():
    assert parse_budgets("3") == [3]
    assert parse_budgets("1..4") == [1, 2, 3, 4]
    assert parse_budgets("10..30:10") == [10, 20, 30]
    assert parse_budgets("2,5,9") == [2, 5, 9]
    for bad in ("x", "4..1", "1..9:0", "1,,2"):
        with pytest.raises(ConfigError):
            parse_budgets(bad)


def test_run_schema_and_row_order(tmp_path):
    out = str(tmp_path / "r.csv")
    rc = main(["run", "--fixture", "g1", "--budgets", "1..2", "--reps", "5",
               "--R", "100", "--R-pre", "50", "--seed", "3",
               "--strategies", "random,a-greedy", "--out", out])
    assert rc == 0
    rows = _read_rows(out)
    assert rows[0] == CSV_HEADER.split(",")
    body = rows[1:]
    assert len(body) == 2 * 2 * 5
    # rows come in (strategy, budget, replication) order
    keys = [(r[0], int(r[1]), int(r[2])) for r in body]
    expect = [(s, b, i) for s in ("random", "a-greedy")
              for b in (1, 2) for i in range(5)]
    assert keys == expect
    assert all(r[8] == "3" for r in body)           # master seed column
    # sidecar summary and metadata
    summary = _read_rows(out + ".summary.csv")
    assert summary[0] == ["strategy", "budget", "replications",
                          "mean_spread", "half_width"]
    assert len(summary) == 1 + 4
    for line in summary[1:]:
        spreads = [int(r[3]) for r in body
                   if (r[0], r[1]) == (line[0], line[1])]
        assert float(line[3]) == pytest.approx(sum(spreads) / len(spreads))
    meta = json.load(open(out + ".meta.json"))
    assert meta["config"]["seed"] == 3
    assert len(meta["cells"]) == 4


def test_run_deterministic_and_worker_invariant(tmp_path):
    args = ["run", "--fixture", "g1", "--budgets", "2", "--reps", "8",
            "--R", "100", "--R-pre", "50", "--seed", "11",
            "--strategies", "random,greedy,a-greedy,h-greedy"]
    paths = [str(tmp_path / f"r{i}.csv") for i in range(3)]
    assert main(args + ["--out", paths[0]]) == 0
    assert main(args + ["--out", paths[1]]) == 0
    assert main(args + ["--out", paths[2], "--workers", "2"]) == 0

    def strip_wall(path):
        return [r[:7] + r[8:] for r in _read_rows(path)]

    assert strip_wall(paths[0]) == strip_wall(paths[1]) == strip_wall(paths[2])


def test_a_greedy_dominates_random_on_the_fixture(tmp_path):
    out = str(tmp_path / "r.csv")
    assert main(["run", "--fixture", "g1", "--budgets", "3", "--reps", "150",
                 "--R", "300", "--R-pre", "50", "--seed", "2",
                 "--strategies", "random,a-greedy", "--out", out]) == 0
    means = {r[0]: float(r[3]) for r in _read_rows(out + ".summary.csv")[1:]}
    assert means["a-greedy"] >= means["random"]


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": 3, "budgets": "1"}))
    out = str(tmp_path / "r.csv")
    rc = main(["run", "--fixture", "two-node", "--strategies", "random",
               "--R", "50", "--R-pre", "50", "--config", str(cfg),
               "--out", out])
    assert rc == 0
    assert len(_read_rows(out)) == 1 + 3
    # explicit command-line values beat config defaults
    rc = main(["run", "--fixture", "two-node", "--strategies", "random",
               "--R", "50", "--R-pre", "50", "--reps", "4",
               "--config", str(cfg), "--out", out])
    assert rc == 0
    assert len(_read_rows(out)) == 1 + 4
    cfg.write_text(json.dumps({"bogus_field": 1}))
    assert main(["run", "--config", str(cfg), "--out", out]) == 2
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 4


def test_exit_code_config_errors(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    assert main(["run", "--strategies", "bogus", "--out", out]) == 2
    assert main(["run", "--budgets", "nope", "--out", out]) == 2
    assert main(["run", "--fixture", "g1", "--budgets", "9",
                 "--out", out]) == 2               # budget > node count
    assert main(["run", "--gen", "5,x,1", "--out", out]) == 2
    # a --gen seed outside the Philox key range names the flag
    for seed in (-1, 2 ** 128):
        capsys.readouterr()
        assert main(["gen", "--gen", f"5,8,{seed}",
                     "--out", str(tmp_path / "n.json")]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --gen seed must be an integer in [0, 2**128), "
                       f"got {seed}\n")
    for seed in (0, 2 ** 128 - 1):
        assert main(["gen", "--gen", f"5,8,{seed}",
                     "--out", str(tmp_path / "n.json")]) == 0
    assert main(["gen", "--out", str(tmp_path / "n.json")]) == 2
    deep = tmp_path / "deep.json"                  # past the recursion limit
    deep.write_text("[" * 200000 + "]" * 200000)
    capsys.readouterr()
    assert main(["run", "--net", str(deep), "--budgets", "1", "--reps", "1",
                 "--out", out]) == 2
    assert _one_line_error(capsys)
    # the mean is not finite, or there are more than MAX_BINS bins
    for preset in ("f2:nan,3", "f2:inf,3", "f2:0.1,100000000000"):
        assert main(["oracle", "exact-value", "--fixture", "two-node",
                     "--budgets", "1", "--policy", "static:0",
                     "--preset", preset]) == 2
    # argparse checks a typed --fixture, not one from --config
    cfg = tmp_path / "fixture.json"
    cfg.write_text(json.dumps({"fixture": "nope"}))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", out]) == 2
    assert capsys.readouterr().err == "error: unknown fixture 'nope'\n"
    assert not (tmp_path / "r.csv").exists()       # failed runs leave no file


def test_run_rejects_a_repeated_strategy_or_budget(tmp_path, capsys):
    # a repeat would write rows with duplicate (strategy, budget,
    # replication) keys; typed or from --config, it exits 2 with one line
    # naming it before any file is written
    out = tmp_path / "r.csv"
    cfg = tmp_path / "cfg.json"
    base = ["run", "--fixture", "g1", "--reps", "2", "--out", str(out)]
    cases = ((["--strategies", "random,random", "--budgets", "1"], {},
              "error: --strategies repeats 'random'\n"),
             (["--budgets", "1,1", "--strategies", "random"], {},
              "error: --budgets repeats 1\n"),
             (["--config", str(cfg)], {"strategies": "greedy, a-greedy,greedy"},
              "error: --strategies repeats 'greedy'\n"),
             (["--config", str(cfg)], {"budgets": "2,1,3,1"},
              "error: --budgets repeats 1\n"))
    for extra, config, message in cases:
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        assert main([*base, *extra]) == 2
        assert capsys.readouterr().err == message
        assert list(tmp_path.glob("r.csv*")) == []
    assert main([*base, "--budgets", "1,2", "--strategies", "random"]) == 0
    assert len(_read_rows(out)) == 1 + 2 * 2


def test_exit_code_enumeration_guard(tmp_path):
    net_path = str(tmp_path / "big.json")
    save_network(generate_power_law(40, 200, 1, parse_preset("f1:0.1"), 2),
                 net_path)
    assert main(["oracle", "pattern-optimality", "--net", net_path,
                 "--budgets", "2"]) == 3


def test_exit_code_io_error(tmp_path):
    missing_dir = str(tmp_path / "no" / "such" / "dir" / "r.csv")
    assert main(["run", "--fixture", "two-node", "--budgets", "1",
                 "--reps", "2", "--strategies", "random",
                 "--out", missing_dir]) == 4
    assert main(["run", "--net", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "r.csv")]) == 4


def test_oracle_subcommands(tmp_path, capsys):
    assert main(["oracle", "properties", "--fixture", "g1", "--budgets", "3",
                 "--trials", "100"]) == 0
    assert "violations=0" in capsys.readouterr().out
    assert main(["oracle", "pattern-optimality", "--fixture", "two-node",
                 "--budgets", "1"]) == 0
    assert main(["oracle", "greedy-guarantee", "--fixture", "two-node",
                 "--budgets", "1"]) == 0
    # contract spellings are accepted as aliases
    assert main(["oracle", "theorem1", "--fixture", "two-node",
                 "--budgets", "1"]) == 0
    assert main(["oracle", "theorem2", "--fixture", "two-node",
                 "--budgets", "1"]) == 0
    rc = main(["oracle", "exact-value", "--fixture", "two-node",
               "--budgets", "1", "--policy", "static:0"])
    assert rc == 0
    assert "1.48" in capsys.readouterr().out
    assert main(["oracle", "exact-value", "--fixture", "two-node",
                 "--budgets", "1", "--policy", "warp:0"]) == 2


def test_loaded_views_last_into_the_run(tmp_path):
    # `load_network` hands the net its law grouping and validation builds
    # the edge arrays; `_resolve_network` keeps both at the run's budget,
    # and every view equals a fresh build from the same edges bit for bit
    g1 = fixture_g1()
    laws = (g1.edges[0][2], PropagationDistribution((1,), (1.0,)),
            PropagationDistribution((1.0,), (1.0,)), fixed_distribution(0.3),
            fixed_distribution(0.3))
    pairs = [(u, w) for u in range(6) for w in range(6) if u != w]
    hetero = DicNetwork(6, g1.activation, tuple(
        (u, w, laws[k % 5]) for k, (u, w) in enumerate(pairs)), 2)
    dense = generate_power_law(200, 14000, 7,
                               parse_preset("f3:0.1,0.01,0.001"), 1)
    for k, net in enumerate((g1, dense, hetero)):
        path = str(tmp_path / f"net{k}.json")
        save_network(net, path)
        args = argparse.Namespace(**{**dicnet.cli.SETTINGS, "net": path})
        got = dicnet.cli._resolve_network(args, set(), [2, 3])
        assert got.budget == 2
        assert "edge_laws" in vars(got) and "edge_arrays" in vars(got)
        fresh = DicNetwork(got.node_count, got.activation, got.edges, 2)
        got_laws, got_of = got.edge_laws
        want_laws, want_of = fresh.edge_laws
        assert len(got_laws) == len(want_laws)
        assert all(a is b for a, b in zip(got_laws, want_laws))
        for a, b in zip((got_of, *got.edge_arrays),
                        (want_of, *fresh.edge_arrays)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.out_edges == fresh.out_edges


def test_gen_round_trip(tmp_path):
    out = str(tmp_path / "n.json")
    assert main(["gen", "--gen", "30,120,9", "--preset", "f1:0.05",
                 "--activation", "0.4", "--out", out]) == 0
    net = load_network(out)
    want = generate_power_law(30, 120, 9, parse_preset("f1:0.05", 0.4), 1)
    assert net == want
    # a given budget is written to the file
    assert main(["gen", "--gen", "30,120,9", "--preset", "f1:0.05",
                 "--activation", "0.4", "--budgets", "5", "--out", out]) == 0
    assert load_network(out) == want.with_budget(5)


def test_prune_stats_fully_symmetric_network(tmp_path, capsys):
    # edgeless and uniform activation: every estimate is exactly 0.5, the
    # std is zero, and the mean-minus-std rule keeps everyone
    net_path = str(tmp_path / "flat.json")
    save_network(DicNetwork(8, (0.5,) * 8, (), 2), net_path)
    out = str(tmp_path / "p.csv")
    assert main(["prune-stats", "--net", net_path, "--budgets", "2",
                 "--R-pre", "400", "--out", out]) == 0
    assert "pruned_fraction=0.000" in capsys.readouterr().out
    rows = _read_rows(out)
    assert rows[0] == ["node", "estimate"]
    assert len(rows) == 9
    meta = json.load(open(out + ".meta.json"))
    assert meta["pruned_fraction"] == 0.0


def test_run_on_fixture_g1_reference_means(tmp_path):
    # with certain seeding disabled (activation 0.5) and short chains the
    # spreads stay small; sanity bounds only
    out = str(tmp_path / "r.csv")
    assert main(["run", "--fixture", "g1", "--budgets", "1", "--reps", "50",
                 "--R", "100", "--R-pre", "50",
                 "--strategies", "greedy", "--out", out]) == 0
    means = {r[0]: float(r[3]) for r in _read_rows(out + ".summary.csv")[1:]}
    assert 0.0 <= means["greedy"] <= 6.0

def test_sample_sizes_below_one_exit_2(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    base = ["--fixture", "two-node", "--budgets", "1", "--reps", "2",
            "--out", out]
    for strategy in ("greedy", "a-greedy", "h-greedy"):
        assert main(["run", *base, "--strategies", strategy, "--R", "0"]) == 2
    assert main(["run", *base, "--strategies", "h-greedy", "--R-pre", "0"]) == 2
    assert main(["prune-stats", *base, "--R-pre", "0"]) == 2
    assert "--R-pre must be an integer >= 1" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 0}))
    assert main(["run", *base, "--strategies", "a-greedy",
                 "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"R_pre": -3}))
    assert main(["prune-stats", *base, "--config", str(cfg)]) == 2
    assert not (tmp_path / "r.csv").exists()


def test_budgets_and_static_seeds_out_of_range_exit_2(tmp_path, capsys):
    out = str(tmp_path / "p.csv")
    assert main(["oracle", "exact-value", "--fixture", "two-node",
                 "--budgets", "5"]) == 2
    assert main(["oracle", "exact-value", "--fixture", "two-node",
                 "--budgets", "0"]) == 2
    assert main(["prune-stats", "--fixture", "g1", "--budgets", "7",
                 "--out", out]) == 2
    assert main(["prune-stats", "--gen", "5,8,1", "--budgets", "6",
                 "--out", out]) == 2
    assert "budget 6 outside [1, 5]" in capsys.readouterr().err
    assert main(["gen", "--gen", "5,8,1", "--budgets", "6", "--out", out]) == 2
    assert capsys.readouterr().err == "error: budget 6 outside [1, 5]\n"
    # a span is checked against the node count before any list is built
    assert main(["run", "--fixture", "two-node", "--budgets", "1..100000000000",
                 "--reps", "2", "--strategies", "random", "--out", out]) == 2
    assert capsys.readouterr().err == "error: budget 3 outside [1, 2]\n"
    # oracle and prune-stats run at one budget, not at the first of a grid
    assert main(["oracle", "theorem2", "--fixture", "g1",
                 "--budgets", "1..3"]) == 2
    assert capsys.readouterr().err == ("error: oracle takes one budget, "
                                       "got '1..3'\n")
    assert main(["prune-stats", "--fixture", "g1", "--budgets", "1,2",
                 "--R-pre", "20", "--out", out]) == 2
    assert _one_line_error(capsys)
    assert main(["gen", "--gen", "5,8,1", "--budgets", "1..2",
                 "--out", out]) == 2
    assert _one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []
    assert main(["oracle", "exact-value", "--fixture", "two-node",
                 "--budgets", "1", "--policy", "static:7"]) == 2
    assert "static seeds [7] outside [0, 2)" in capsys.readouterr().err
    assert main(["oracle", "exact-value", "--fixture", "two-node",
                 "--budgets", "1", "--policy", "static:x"]) == 2


def test_one_network_source_typed_or_from_config(tmp_path, capsys):
    # --net, --gen and --fixture name one network between them, whether
    # typed or in --config; a null in the config names none
    net = str(tmp_path / "net.json")
    save_network(generate_power_law(20, 40, 1, parse_preset("f1:0.1"), 1),
                 net)
    out = str(tmp_path / "p.csv")
    cfg = tmp_path / "c.json"
    for typed, fields in ((["--net", net], {"gen": "30,60,2"}),
                          ([], {"net": net, "gen": "30,60,2"}),
                          (["--gen", "30,60,2"], {"fixture": "g1"}),
                          (["--net", net, "--gen", "30,60,2"], {}),
                          (["--fixture", "g1", "--net", net], {})):
        cfg.write_text(json.dumps(fields))
        capsys.readouterr()
        assert main(["prune-stats", *typed, "--config", str(cfg),
                     "--R-pre", "20", "--out", out]) == 2, (typed, fields)
        assert _one_line_error(capsys)
        assert not (tmp_path / "p.csv").exists()
    cfg.write_text(json.dumps({"gen": None, "fixture": "g1"}))
    assert main(["prune-stats", "--config", str(cfg), "--R-pre", "20",
                 "--out", out]) == 0
    cfg.write_text(json.dumps({"gen": None}))
    assert main(["prune-stats", "--net", net, "--config", str(cfg),
                 "--R-pre", "20", "--out", out]) == 0
    assert len(_read_rows(out)) == 1 + 20
    # an empty source is named too: it fails rather than run the fixture
    capsys.readouterr()
    for flag, code in (("--gen", 2), ("--net", 4)):
        assert main(["prune-stats", flag, "", "--R-pre", "20",
                     "--out", str(tmp_path / "e.csv")]) == code, flag
        assert _one_line_error(capsys)
    assert not (tmp_path / "e.csv").exists()


def test_single_budget_commands_default_to_the_networks_budget(tmp_path,
                                                                capsys):
    # without --budgets, oracle and prune-stats run at the network's own
    # budget (g1's is 3, two-node's 1, a generated net's 1)
    assert main(["oracle", "theorem2", "--fixture", "two-node"]) == 0
    assert capsys.readouterr().out == ("greedy=1.480000 optimal=1.480000 "
                                       "bound=0.935538 ratio=1.0000 [ok]\n")
    outputs = []
    for budgets in ([], ["--budgets", "3"]):
        out = str(tmp_path / f"g1{len(budgets)}.csv")
        assert main(["prune-stats", "--fixture", "g1", *budgets,
                     "--R-pre", "20", "--out", out]) == 0
        outputs.append((capsys.readouterr().out, _read_rows(out)))
    assert outputs[0] == outputs[1]
    for budgets in ([], ["--budgets", "1"]):
        out = str(tmp_path / f"gen{len(budgets)}.csv")
        assert main(["prune-stats", "--gen", "12,40,1", *budgets,
                     "--R-pre", "20", "--out", out]) == 0
        outputs.append(_read_rows(out))
    assert outputs[2] == outputs[3]


def test_run_generates_its_network_once(tmp_path):
    out = str(tmp_path / "r.csv")
    with mock.patch.object(dicnet.cli, "generate_power_law",
                           wraps=generate_power_law) as gen:
        assert main(["run", "--gen", "30,120,9", "--budgets", "1..3",
                     "--reps", "2", "--R", "20",
                     "--strategies", "random,greedy", "--out", out]) == 0
    assert gen.call_count == 1
    assert len(_read_rows(out)) == 1 + 2 * 3 * 2


def test_run_cells_share_the_budget_free_views(tmp_path):
    # a run's cells differ only in budget, so the edge views (here counted
    # by the one law mean they compute) are built once for all of them
    out = str(tmp_path / "r.csv")
    with mock.patch.object(dicnet.model, "mean_propagation",
                           wraps=dicnet.model.mean_propagation) as mean:
        assert main(["run", "--gen", "30,120,9", "--preset", "f1:0.1",
                     "--budgets", "1..3", "--reps", "2", "--R", "20",
                     "--strategies", "greedy", "--out", out]) == 0
    assert mean.call_count == 1


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_malformed_numeric_settings_exit_2(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    base = ["run", "--fixture", "two-node", "--budgets", "1", "--reps", "2",
            "--strategies", "random", "--out", out]
    for delta in ("0", "5", "-0.5", "1", "nan"):
        assert main([*base, "--delta", delta]) == 2
        assert _one_line_error(capsys)
    # a master seed is one 64-bit key word: 2**64 would alias 0, -1 2**64 - 1
    for seed in ("-1", str(2 ** 64), str(2 ** 70)):
        assert main([*base, "--seed", seed]) == 2, seed
        assert _one_line_error(capsys), seed
    assert main([*base, "--seed", str(2 ** 64 - 1),
                 "--out", str(tmp_path / "top.csv")]) == 0
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    for bad in ({"reps": "3"}, {"delta": "x"}, {"workers": "2"},
                {"workers": 0}, {"seed": 1.5}, {"R": True}, {"reps": 2.0},
                {"delta": True}, {"budgets": 1}, {"preset": 5},
                {"strategies": 5}, {"out": 5}, {"net": 5}, {"gen": 5},
                {"fixture": [1]}, {"seed": -1}, {"seed": 2 ** 64}):
        cfg.write_text(json.dumps({"fixture": "two-node", "budgets": "1",
                                   "reps": 2, "strategies": "random",
                                   "out": out, **bad}))
        assert main(["run", "--config", str(cfg)]) == 2, bad
        assert _one_line_error(capsys), bad
    # not a JSON object, or nested past the recursion limit
    for bad in ("5", "null", "[{}]", '"ab"', "[" * 200000 + "]" * 200000):
        cfg.write_text(bad)
        assert main([*base, "--config", str(cfg)]) == 2, bad
        assert _one_line_error(capsys), bad
    cfg.write_text(json.dumps({"policy": 5}))
    assert main(["oracle", "exact-value", "--fixture", "two-node",
                 "--budgets", "1", "--config", str(cfg)]) == 2
    assert _one_line_error(capsys)
    assert main(["oracle", "properties", "--fixture", "g1", "--budgets", "1",
                 "--trials", "-1"]) == 2
    assert "--trials must be an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
    assert not (tmp_path / "r.csv.summary.csv").exists()
    assert not (tmp_path / "r.csv.meta.json").exists()


def test_activation_is_checked_and_applied_for_every_source(tmp_path, capsys):
    net_path = str(tmp_path / "net.json")
    save_network(generate_power_law(4, 6, 1, parse_preset("f1:0.1"), 1),
                 net_path)
    out = str(tmp_path / "r.csv")
    base = ["run", "--budgets", "1", "--reps", "40", "--R", "50",
            "--strategies", "greedy", "--out", out]
    for activation in ("1.5", "-0.5"):
        assert main([*base, "--net", net_path, "--activation", activation]) == 2
        assert _one_line_error(capsys)
        assert main([*base, "--fixture", "two-node",
                     "--activation", activation]) == 2
        assert _one_line_error(capsys)
    assert not (tmp_path / "r.csv").exists()

    def mean(extra):
        assert main([*base, "--fixture", "two-node", *extra]) == 0
        return float(_read_rows(out + ".summary.csv")[1][3])

    # each flag replaces only its own part of the fixture (activation 1.0,
    # two-point edge law of mean 0.48)
    plain = mean([])
    assert mean(["--activation", "1.0"]) == plain
    assert mean(["--preset", "f1:0.02"]) < plain


def test_preset_and_activation_override_whenever_given(tmp_path, capsys):
    # typed or from --config, at any value, the default included
    net_path = str(tmp_path / "two.json")
    save_network(two_node_fixture(), net_path)

    def exact(*extra):
        assert main(["oracle", "exact-value", "--budgets", "1",
                     "--policy", "static:0", *extra]) == 0
        return float(capsys.readouterr().out.split("=")[1])

    assert exact("--net", net_path) == pytest.approx(1.48)
    assert exact("--net", net_path, "--preset", "f1:0.01") == pytest.approx(1.01)
    assert exact("--fixture", "two-node",
                 "--activation", "0.5") == pytest.approx(0.74)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "f1:0.01", "activation": 0.5}))
    assert exact("--net", net_path,
                 "--config", str(cfg)) == pytest.approx(0.505)
    out = str(tmp_path / "r.csv")
    assert main(["run", "--fixture", "two-node", "--budgets", "1",
                 "--reps", "400", "--R", "1000", "--strategies", "greedy",
                 "--activation", "0.5", "--out", out]) == 0
    _, _, _, mean, hw = _read_rows(out + ".summary.csv")[1]
    assert abs(float(mean) - 0.74) <= float(hw)


# Values of each setting near and past its bounds, mixed with values of the
# wrong JSON type.  Sample sizes and worker counts stay small, and each
# config starts from small sample sizes (at the default R = 10000 a run takes
# seconds), so every accepted config runs in well under a second.  "NET" and
# "bad.json" stand for a file of the two-node fixture and a malformed one.
_WRONG_TYPE = (st.none() | st.booleans() | st.integers(-2 ** 70, 3)
               | st.floats() | st.text(max_size=4) | st.lists(st.none(), max_size=2)
               | st.dictionaries(st.text(max_size=2), st.none(), max_size=2))
_SETTING_VALUES = {
    "net": st.sampled_from(["NET", "", "absent.json", ".", "bad.json"]),
    "gen": st.sampled_from(["2,2,1", "12,40,1", "", "2,2", "2,x,1", "1,0,0",
                            "-2,2,1", "2,9,1"]),
    "fixture": st.sampled_from(["g1", "two-node", "g2", ""]),
    "preset": st.sampled_from(["f1:0.3", "f3:0.1,0.5", "f2:0.2,2", "f2:nan,3",
                               "f1:2", "f9:1", ""]),
    "activation": st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), 1e400]),
    "budgets": st.sampled_from(["1", "2", "1..2", "0", "3", "2..1", "1..2:0",
                                "1,2", "x"]),
    "reps": st.integers(-1, 4), "R": st.integers(-1, 6),
    "R_pre": st.integers(-1, 6), "trials": st.integers(-1, 6),
    "seed": st.integers(-1, 3) | st.sampled_from([2 ** 64 - 1, 2 ** 64]),
    "workers": st.integers(-1, 2),
    "delta": st.floats(-0.5, 1.5) | st.sampled_from([float("nan"), 1e400]),
    "strategies": st.sampled_from(["random", "greedy,a-greedy", "h-greedy",
                                   "random,bogus", ""]),
    "policy": st.sampled_from(["empty", "static:0", "static:0,1", "static:5",
                               "static:x", "warp:0"]),
}
_CONFIG_COMMANDS = (["run"], ["prune-stats"], ["gen"],
                    *(["oracle", s] for s in ("properties", "theorem1",
                                              "theorem2", "pattern-optimality",
                                              "greedy-guarantee",
                                              "exact-value")))


@st.composite
def _config_text(draw, names, small):
    """A --config file's text: mostly `small` overlaid with some of the
    settings `names`, sometimes with a setting of another command, any JSON
    value or no JSON at all."""
    kind = draw(st.integers(0, 19))
    if kind == 1:
        return draw(st.sampled_from(["", "{", "[1,", "nul", "{} {}"]))
    if kind == 2:
        return json.dumps(draw(_WRONG_TYPE))
    config = dict(small)
    for name in draw(st.lists(st.sampled_from(names), max_size=5, unique=True)):
        wrong = draw(st.integers(0, 4)) == 3
        config[name] = draw(_WRONG_TYPE if wrong else _SETTING_VALUES[name])
    if kind == 3:
        config[draw(st.sampled_from(["bogus", "R-pre", "trials", "policy",
                                     "strategies"]))] = 1
    return json.dumps(config)


@pytest.mark.parametrize("command", _CONFIG_COMMANDS,
                         ids=[" ".join(c) for c in _CONFIG_COMMANDS])
def test_random_config_objects_exit_with_a_code(tmp_path, command):
    # whatever the --config file holds, `dicnet` returns an exit code, and
    # an exit of 2, 3 or 4 comes with one `error:` line; the oracle runs on
    # the typed two-node fixture, and exits 2 if the config names a --net or
    # --gen network too
    save_network(two_node_fixture(), str(tmp_path / "NET"))
    (tmp_path / "bad.json").write_text('{"nodes": 2}')
    cfg = tmp_path / "config.json"
    out = str(tmp_path / "r.csv")
    oracle = command[0] == "oracle"
    typed = ["--fixture", "two-node"] if oracle else []
    # the typed --out keeps every file the command writes in tmp_path
    names = [k for k in dicnet.cli.SETTINGS if k != "out"
             and dicnet.cli._OWNER.get(k, command[0]) == command[0]]
    small = {"reps": 2, "R": 5, "R_pre": 5,
             **({"budgets": "1"} if command[0] != "run" else {}),
             **({"gen": "2,2,1"} if command[0] == "gen" else {}),
             **({"trials": 5} if oracle else {})}

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(_config_text(names, small))
    def check(text):
        cfg.write_text(text.replace('"NET"', json.dumps(str(tmp_path / "NET")))
                       .replace('"bad.json"', json.dumps(str(tmp_path / "bad.json"))))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main([*command, "--config", str(cfg), *typed, "--out", out])
        assert rc in (0, 1, 2, 3, 4)
        if rc >= 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")

    check()
