import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from itertools import combinations

import pytest

import planlab
from planlab import cli, core, fomc, io, oracle, zerotwo
from planlab.cli import main
from planlab.core import ContractError
from planlab.generators import (HittingSetInput, MulticoloredGraph,
                                compose_pub, from_hitting_set, from_mcc_03,
                                random_instance)
from planlab.oracle import DEFAULT_BUDGET, shortest_plan
from planlab.reference import (brute_force_hitting_set,
                               has_multicolored_clique, plain_bfs)

TOY1_TEXT = """\
SASP 1
vars 2
domain 2
init 0 0
goal 0=1 1=1
action a1 pre eff 0=1
action a2 pre 0=1 eff 1=1
"""


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.sasp"
    path.write_text(TOY1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_classify(capsys, toy_file):
    code, out = run(capsys, "classify", toy_file)
    assert code == 0
    assert out == {"P": True, "U": True, "B": True, "S": True,
                   "max_pre": 1, "max_eff": 1, "route": "post-unique"}


def test_classify_zero_two_route(capsys, tmp_path):
    # (0,2) but not post-unique: two producers of the same pair
    path = tmp_path / "zt.sasp"
    path.write_text("SASP 1\nvars 2\ndomain 2\ninit 0 0\ngoal 0=1\n"
                    "action a pre eff 0=1\naction b pre eff 0=1 1=1\n")
    code, out = run(capsys, "classify", str(path))
    assert code == 0 and out["route"] == "zero-two"


@pytest.mark.parametrize("actions, route", [
    # P and (0,2) at once: post-unique comes first
    ("action a pre eff 0=1\n", "post-unique"),
    # (0,2) and unary, two producers of 0=1
    ("action a pre eff 0=1\naction b pre eff 0=1\n", "zero-two"),
    # unary, two producers of 0=1, one with a precondition
    ("action a pre eff 0=1\naction b pre 1=1 eff 0=1\n", "fo-mc"),
    # two effects after a precondition, two producers of 0=1
    ("action a pre eff 0=1\naction b pre 1=1 eff 0=1 1=0\n", "oracle"),
])
def test_auto_tries_the_routes_in_table_order(capsys, tmp_path, actions,
                                              route):
    path = tmp_path / "i.sasp"
    path.write_text("SASP 1\nvars 2\ndomain 2\ninit 0 0\ngoal 0=1\n"
                    + actions)
    code, out = run(capsys, "classify", str(path))
    assert code == 0 and out["route"] == route
    code, out = run(capsys, "solve", str(path), "1")
    assert code == 0 and out["plan"] == ["a"]
    assert out["solver"].split("/")[0] == route


def test_classify_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.sasp"
    path.write_text("SASP 9000\n")
    code, _ = run(capsys, "classify", str(path))
    assert code == 2


def test_solve_auto(capsys, toy_file):
    code, out = run(capsys, "solve", toy_file, "2")
    assert code == 0
    assert out["solvable"] and out["plan"] == ["a1", "a2"]
    assert out["length"] == 2 and out["solver"] == "post-unique"


def test_solve_unsolvable_exit(capsys, toy_file):
    code, out = run(capsys, "solve", toy_file, "1")
    assert code == 1 and not out["solvable"] and out["plan"] is None


def test_solve_prints_lint_warnings(capsys, tmp_path):
    path = tmp_path / "idle.sasp"
    path.write_text(TOY1_TEXT + "action idle pre eff\n")
    code = main(["solve", str(path), "2"])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["length"] == 2
    assert ("lint: action 'idle' has an empty effect set"
            in captured.err.splitlines())


def test_solve_inapplicable_exit(capsys, toy_file):
    code, _ = run(capsys, "solve", toy_file, "2", "--solver", "zero-two")
    assert code == 3


def test_solve_above_fo_mc_caps_exit_3(capsys, toy_file):
    for fragment, k in (("sigma1", "9"), ("sigma22", "400")):
        code, out = run(capsys, "solve", toy_file, k, "--solver", "fo-mc",
                        "--fragment", fragment)
        assert code == 3 and out is None, fragment


@pytest.mark.parametrize("k", [9, 12, 40])
def test_auto_falls_through_when_a_route_refuses(capsys, tmp_path, k):
    # unary, neither P nor (0,2): auto sends these to fo-mc, whose sigma1
    # refuses k above its cap, and the oracle, the next route that applies,
    # answers; classify still reports fo-mc, the first route that applies
    assert k > fomc.SIGMA1_MAX_K
    rng = random.Random(k)
    path = tmp_path / "u.sasp"
    verdicts = set()
    for _ in range(60):
        inst = random_instance(rng.randint(1, 5), rng.randint(1, 3),
                               rng.randint(0, 7), rng.randrange(10**6),
                               unary=True)
        if next(cli._routes(core.classify(inst))).name != "fo-mc":
            continue
        path.write_text(io.serialize_instance(inst))
        code, out = run(capsys, "classify", str(path))
        assert code == 0 and out["route"] == "fo-mc"
        code = main(["solve", str(path), str(k)])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        expected = shortest_plan(inst, k)
        assert code == (1 if expected is None else 0)
        assert out["solver"] == "oracle"
        assert out["plan"] == (None if expected is None else
                               [inst.actions[a].name for a in expected])
        assert "fo-mc inapplicable: " in captured.err
        verdicts.add(out["solvable"])
    assert verdicts == {True, False}


def test_fragment_choices_are_fomcs():
    # spelled out in cli, so that building the parser imports no fomc
    assert cli.FRAGMENTS == (fomc.SIGMA1, fomc.SIGMA22)


def test_solve_every_solver_agrees(capsys, toy_file):
    for solver in ("oracle", "post-unique", "fo-mc"):
        code, out = run(capsys, "solve", toy_file, "2", "--solver", solver)
        assert code == 0 and out["length"] == 2, solver
        code, _ = run(capsys, "solve", toy_file, "1", "--solver", solver)
        assert code == 1, solver


def test_solve_negative_k_is_a_usage_error(capsys, toy_file):
    for solver in ("auto", "oracle", "post-unique", "zero-two", "fo-mc"):
        code, out = run(capsys, "solve", toy_file, "-1", "--solver", solver)
        assert code == 2 and out is None, solver


def test_solve_post_unique_prints_oracle_plan(capsys, tmp_path):
    rng = random.Random(2718)
    path = tmp_path / "pu.sasp"
    for i in range(40):
        n, d = rng.randint(2, 5), rng.randint(2, 3)
        inst = random_instance(n, d, rng.randint(1, min(8, n * d)),
                               seed=5_000 + i, post_unique=True)
        k = rng.randint(0, 4)
        path.write_text(io.serialize_instance(inst))
        expected = shortest_plan(inst, k)
        code, out = run(capsys, "solve", str(path), str(k),
                        "--solver", "post-unique")
        assert code == (1 if expected is None else 0), i
        assert out["plan"] == (None if expected is None else
                               [inst.actions[a].name for a in expected]), i


def test_solve_compose_pub_three_components(capsys, tmp_path):
    # three components at k_i = 1 give k' = 1 + 1 + 6 * ceil(log2 3) = 14;
    # answered by the post-unique route, with the oracle's plan length
    comps = [(random_instance(3, 2, 4, seed, post_unique=True, unary=True), 1)
             for seed in (126227683, 244027943, 282804736)]
    inst, bound = compose_pub(comps)
    assert bound == 14
    path = tmp_path / "pub3.sasp"
    path.write_text(io.serialize_instance(inst))
    code, out = run(capsys, "solve", str(path), "14")
    assert code == 0 and out["solver"] == "post-unique"
    assert out["length"] == len(shortest_plan(inst, 14)) == 13


def test_solve_stats(capsys, toy_file):
    code, out = run(capsys, "solve", toy_file, "2", "--stats")
    assert code == 0 and out["stats"]["search_tree_nodes"] >= 1


def test_solve_forced_fragment(capsys, toy_file, tmp_path):
    code, out = run(capsys, "solve", toy_file, "2", "--solver", "fo-mc",
                    "--fragment", "sigma22")
    assert code == 0 and out["solver"] == "fo-mc/sigma22"

    # unary, two producers of 1=1: auto routes to fo-mc and keeps the
    # requested fragment
    unary = tmp_path / "unary.sasp"
    unary.write_text("SASP 1\nvars 2\ndomain 2\ninit 0 0\ngoal 1=1\n"
                     "action a pre eff 0=1\naction b pre 0=1 eff 1=1\n"
                     "action c pre 0=1 eff 1=1\n")
    code, out = run(capsys, "solve", str(unary), "2")
    assert code == 0 and out["solver"] == "fo-mc/sigma1"
    code, out = run(capsys, "solve", str(unary), "2", "--fragment", "sigma22")
    assert code == 0 and out["solver"] == "fo-mc/sigma22"
    assert out["plan"] == ["a", "b"]


def test_solve_route_options_need_their_route(capsys, toy_file, tmp_path):
    # toy1 routes to post-unique: neither --fragment nor --dot applies
    dot = tmp_path / "toy.dot"
    cases = [[solver, option] for solver in ("auto", "oracle", "post-unique")
             for option in (["--fragment", "sigma1"], ["--dot", str(dot)])]
    cases.append(["fo-mc", ["--dot", str(dot)]])
    for solver, option in cases:
        code = main(["solve", toy_file, "2", "--solver", solver, *option])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", (solver, option)
        assert captured.err.startswith("invalid arguments"), (solver, option)
    assert not dot.exists()


def test_solve_zero_two_dot(capsys, tmp_path):
    # a two-effect good action: the Steiner graph is built from its chain
    chained = tmp_path / "chained.sasp"
    chained.write_text("SASP 1\nvars 2\ndomain 2\ninit 0 0\ngoal 0=1 1=1\n"
                       "action ab pre eff 0=1 1=1\n")
    dot = tmp_path / "chained.dot"
    code, out = run(capsys, "solve", str(chained), "1", "--solver",
                    "zero-two", "--stats", "--dot", str(dot))
    assert code == 0 and out["plan"] == ["ab"]
    assert out["stats"]["transformed"]
    text = dot.read_text()
    assert text.startswith("digraph") and '"gflag"' in text
    assert '"ab+c1"' in text and '"ab+x1"' in text

    # no two-effect good action: the graph is built from the input itself
    plain = tmp_path / "plain.sasp"
    plain.write_text("SASP 1\nvars 2\ndomain 2\ninit 0 0\ngoal 0=1 1=1\n"
                     "action a pre eff 0=1\naction b pre eff 1=1 0=0\n")
    dot = tmp_path / "plain.dot"
    code, out = run(capsys, "solve", str(plain), "2", "--solver",
                    "zero-two", "--stats", "--dot", str(dot))
    assert code == 0 and out["plan"] == ["b", "a"]
    assert not out["stats"]["transformed"]
    text = dot.read_text()
    assert '[label="a"]' in text and '[label="b"]' in text
    assert "+c" not in text and "gflag" not in text


def test_validate(capsys, toy_file, tmp_path):
    good = tmp_path / "good.plan"
    good.write_text("a1\na2\n")
    code, out = run(capsys, "validate", toy_file, str(good))
    assert code == 0 and out["valid"]

    bad = tmp_path / "bad.plan"
    bad.write_text("a2\n")
    code, out = run(capsys, "validate", toy_file, str(bad))
    assert code == 1 and out["reason"] == "precondition"
    assert out["variable"] == "v0" and out["step"] == 0

    # an unknown name and a line holding two names are parse errors
    for text in ("a9\n", "a1 a2\n"):
        malformed = tmp_path / "malformed.plan"
        malformed.write_text(text)
        code, _ = run(capsys, "validate", toy_file, str(malformed))
        assert code == 2, text


def test_validate_goal_miss(capsys, toy_file, tmp_path):
    short = tmp_path / "short.plan"
    short.write_text("a1\n")
    code = main(["validate", toy_file, str(short)])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 1 and not out["valid"] and out["reason"] == "goal"
    assert captured.err.strip() == "goal-miss v1"


def test_missing_file(capsys, tmp_path):
    code, _ = run(capsys, "classify", "/nonexistent/x.sasp")
    assert code == 2
    # a directory is an unreadable path too, not an unsolvable instance
    code, _ = run(capsys, "classify", str(tmp_path))
    assert code == 2
    code, _ = run(capsys, "solve", str(tmp_path), "1")
    assert code == 2
    code, _ = run(capsys, "generate", "hitting-set", "--universe", "3",
                  "--sets", "{1,2}", "--k", "1", "--out", str(tmp_path))
    assert code == 2


def test_generate_hitting_set(capsys, tmp_path):
    out_path = tmp_path / "hs.sasp"
    code, out = run(capsys, "generate", "hitting-set", "--universe", "3",
                    "--sets", "{1,2},{2,3}", "--k", "1",
                    "--out", str(out_path))
    assert code == 0 and out["vars"] == 2 and out["actions"] == 3
    meta = json.loads((tmp_path / "hs.sasp.meta.json").read_text())
    assert meta["expected_bound"] == 1

    solve_code, solved = run(capsys, "solve", str(out_path), "1")
    assert solve_code == 0 and solved["plan"] == ["a2"]

    # whitespace anywhere in --sets is ignored
    spaced_path = tmp_path / "hs-spaced.sasp"
    code, _ = run(capsys, "generate", "hitting-set", "--universe", "3",
                  "--sets", " {1, 2}, { 2,3 } ", "--k", "1",
                  "--out", str(spaced_path))
    assert code == 0
    assert spaced_path.read_bytes() == out_path.read_bytes()


def test_generate_or2(capsys, tmp_path):
    out_path = tmp_path / "or2.sasp"
    code, out = run(capsys, "generate", "or2", "--v1", "1", "--v2", "0",
                    "--out", str(out_path))
    assert code == 0 and out["actions"] == 7
    code, solved = run(capsys, "solve", str(out_path), "6")
    assert code == 0 and solved["length"] == 6


def test_generate_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.sasp", tmp_path / "b.sasp"
    for path in (a, b):
        run(capsys, "generate", "random", "--n", "4", "--actions", "5",
            "--seed", "17", "--post-unique", "--out", str(path))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.sasp.meta.json").read_bytes() == \
        (tmp_path / "b.sasp.meta.json").read_bytes()


def test_generate_random_sidecar_records_the_source(capsys, tmp_path):
    flags = ("post_unique", "unary", "single_valued", "max_pre", "max_eff")
    sidecars = []
    for i, extra in enumerate(([], ["--post-unique", "--max-pre", "1"],
                               ["--unary", "--single-valued",
                                "--max-eff", "1"])):
        path = tmp_path / f"r{i}.sasp"
        code, _ = run(capsys, "generate", "random", "--n", "4", "--actions",
                      "5", "--seed", "7", *extra, "--out", str(path))
        assert code == 0
        sidecar = (tmp_path / f"r{i}.sasp.meta.json").read_text()
        meta = json.loads(sidecar)
        rebuilt = random_instance(meta["n"], meta["domain"], meta["actions"],
                                  meta["seed"], **{f: meta[f] for f in flags})
        assert path.read_text() == io.serialize_instance(rebuilt), extra
        sidecars.append(sidecar)
    assert len(set(sidecars)) == 3


def test_generate_mcc(capsys, tmp_path):
    out_path = tmp_path / "tri.sasp"
    code, out = run(capsys, "generate", "mcc-03", "--parts", "3",
                    "--complete", "--out", str(out_path))
    assert code == 0 and out["expected_bound"] == 6
    code, solved = run(capsys, "solve", str(out_path), "6")
    assert code == 0 and solved["length"] == 6


def test_generate_mcc_from_edges(capsys, tmp_path):
    out_path = tmp_path / "edges.sasp"
    code, out = run(capsys, "generate", "mcc-03", "--parts", "3",
                    "--per-part", "2", "--edges", "2.1-1.0, 1.0-3.1,2.0-3.1",
                    "--out", str(out_path))
    assert code == 0
    graph = MulticoloredGraph(3, 2, (((1, 0), (2, 1)), ((1, 0), (3, 1)),
                                     ((2, 0), (3, 1))))
    instance, bound = from_mcc_03(graph)
    assert out_path.read_text() == io.serialize_instance(instance)
    meta = json.loads((tmp_path / "edges.sasp.meta.json").read_text())
    assert meta["edges"] == ["1.0-2.1", "1.0-3.1", "2.0-3.1"]
    assert meta["expected_bound"] == out["expected_bound"] == bound


# `--solver oracle` returns the lexicographically smallest shortest plan;
# these pins hold its plans and visited counts on two clique reductions.
MCC_03_4X2_EDGES = ("1.1-2.0,1.1-3.1,1.1-4.0,2.0-3.1,2.0-4.0,3.1-4.0,"
                    "1.0-2.1,1.0-3.0,2.1-4.1,3.0-4.1,2.1-3.0")


@pytest.mark.parametrize("generate, plan, visited", [
    (["mcc-03", "--parts", "4", "--per-part", "2",
      "--edges", MCC_03_4X2_EDGES],
     ["ae.1.1+2.0", "ae.1.1+3.1", "ae.1.1+4.0", "a.1.1", "ae.2.0+3.1",
      "ae.2.0+4.0", "a.2.0", "ae.3.1+4.0", "a.3.1", "a.4.0"], 1366),
    (["mcc-ubs", "--parts", "3", "--complete"],
     ["ae.1.0+2.0", "ae.1.0+3.0", "ae.2.0+3.0", "ae.1.0+2.0.1",
      "ae.1.0+2.0.2", "ae.1.0+3.0.1", "ae.1.0+3.0.3", "ae.2.0+3.0.2",
      "ae.2.0+3.0.3", "av.1.0.2", "av.1.0.3", "av.2.0.1", "av.2.0.3",
      "av.3.0.1", "av.3.0.2", "ac.1.0", "ac.2.0", "ac.3.0", "ar.1.0.2",
      "ar.1.0.3", "ar.2.0.1", "ar.2.0.3", "ar.3.0.1", "ar.3.0.2"], 19602),
])
def test_oracle_plan_and_visited_pinned(capsys, tmp_path, generate, plan,
                                        visited):
    path = str(tmp_path / "clique.sasp")
    code, out = run(capsys, "generate", *generate, "--out", path)
    assert code == 0
    code, solved = run(capsys, "solve", path, str(out["expected_bound"]),
                       "--solver", "oracle", "--stats")
    assert code == 0
    assert solved["plan"] == plan
    assert solved["stats"] == {"visited_states": visited}


COMPOSE_02_COMPONENTS = (
    # two steps, so unsolvable at k = 1
    "vars 2\ndomain 2\ninit 0 0\ngoal 0=1 1=1\n"
    "action a pre eff 0=1\naction b pre eff 1=1 0=0\n",
    "vars 1\ndomain 2\ninit 0\ngoal 0=1\naction flip pre eff 0=1\n",
    # a two-effect good action
    "vars 2\ndomain 2\ninit 0 0\ngoal 0=1 1=1\naction ab pre eff 0=1 1=1\n",
)


@pytest.mark.parametrize("k, bound, length, cells", [(1, 21, 20, 102),
                                                     (3, 77, 64, 406)])
def test_compose_02_dp_cells_pinned(capsys, tmp_path, k, bound, length,
                                    cells):
    """The Dreyfus-Wagner table size on one fixed three-component
    composition.  Its terminals b_1..b_k' are sinks, and b_2..b_k' share
    their in-neighbours, so twin contraction leaves two of them (k = 1:
    1,139 cells over 5 terminals without it; k = 3: 19 terminals, beyond
    reach without it)."""
    argv = ["generate", "compose-02", "--k", str(k)]
    for i, text in enumerate(COMPOSE_02_COMPONENTS):
        path = tmp_path / f"c{i}.sasp"
        path.write_text("SASP 1\n" + text)
        argv += ["--component", str(path)]
    comp = tmp_path / "comp.sasp"
    code, out = run(capsys, *argv, "--out", str(comp))
    assert code == 0 and out["expected_bound"] == bound
    code, out = run(capsys, "solve", str(comp), str(bound), "--solver",
                    "zero-two", "--stats")
    assert code == 0 and out["length"] == length
    assert out["stats"] == {"transformed": False,
                            "steiner_nodes": 54 if k == 1 else 160,
                            "steiner_arcs": 62 if k == 1 else 196,
                            "dp_cells": cells}


def test_goal_count_refutes_before_the_steiner_table(capsys, tmp_path,
                                                     monkeypatch):
    """Five subsets of a path's edges, each hit by at most two elements:
    two elements fix at most four subsets, so k = 2 is refuted without a
    Steiner table, and the stats still describe the graph."""
    inst, _ = from_hitting_set(HittingSetInput(
        4, ((1,), (1, 2), (2, 3), (3, 4), (4,)), 2))
    path = tmp_path / "hs.sasp"
    path.write_text(io.serialize_instance(inst))
    tables = []
    monkeypatch.setattr(zerotwo, "_steiner_tree",
                        lambda dst: tables.append(dst))
    code, out = run(capsys, "solve", str(path), "2", "--solver", "zero-two",
                    "--stats")
    assert code == 1 and not out["solvable"] and out["plan"] is None
    assert tables == []
    assert out["stats"]["transformed"]
    assert set(out["stats"]) == {"transformed", "steiner_nodes",
                                 "steiner_arcs"}
    assert out["stats"]["steiner_nodes"] > len(inst.var_names) + 1


def test_dp_cells_of_a_table_that_refutes(capsys, tmp_path):
    """Two goal variables are unmet and a2 sets two goal variables right,
    so the goal count allows k = 1; no one step reaches the goal, and the
    Steiner table of the transformed instance refutes it.  Its cells are
    reported all the same."""
    path = tmp_path / "refuted.sasp"
    path.write_text("SASP 1\nvars 3\ndomain 2\ninit 0 1 1\n"
                    "goal 0=1 1=1 2=0\naction a0 pre eff 1=0 2=0\n"
                    "action a1 pre eff 2=0\naction a2 pre eff 0=1 1=1\n")
    code, out = run(capsys, "solve", str(path), "1", "--solver", "zero-two",
                    "--stats")
    assert code == 1 and out["plan"] is None
    assert out["stats"]["transformed"] and out["stats"]["dp_cells"] == 11
    code, out = run(capsys, "solve", str(path), "2", "--solver", "zero-two",
                    "--stats")
    assert code == 0 and out["length"] == 2


def _many_terminals(tmp_path) -> str:
    """25 goal variables, each set only by a_i, which also sets a variable
    outside the goal that b_i resets: 25 terminals, one fixed per step."""
    lines = ["SASP 1", "vars 50", "domain 2", "init" + " 0" * 50,
             "goal" + "".join(f" {i}=1" for i in range(25))]
    lines += [f"action a{i} pre eff {i}=1 {25 + i}=1" for i in range(25)]
    lines += [f"action b{i} pre eff {25 + i}=0" for i in range(25)]
    path = tmp_path / "many.sasp"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_terminals_above_the_cap_refuted_by_count(capsys, tmp_path):
    # 25 unmet goal variables, one per step: k = 5 is refuted by count
    # before the Dreyfus-Wagner table and its terminal cap
    code, out = run(capsys, "solve", _many_terminals(tmp_path), "5",
                    "--solver", "zero-two", "--stats")
    assert code == 1 and not out["solvable"] and out["plan"] is None
    assert out["solver"] == "zero-two" and "dp_cells" not in out["stats"]


def test_terminals_above_the_cap_not_refuted_exit_3(capsys, tmp_path):
    # at k = 30 the count does not refute, and the table refuses 25
    # terminals
    code = main(["solve", _many_terminals(tmp_path), "30", "--solver",
                 "zero-two"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "25 terminals exceed the hard cap" in captured.err


def test_generate_compose(capsys, tmp_path, toy_file):
    out_path = tmp_path / "pub.sasp"
    code, out = run(capsys, "generate", "compose-pub",
                    "--component", f"{toy_file}:2",
                    "--component", f"{toy_file}:2", "--out", str(out_path))
    assert code == 0 and out["expected_bound"] == 9

    zt = tmp_path / "zt.sasp"
    zt.write_text("SASP 1\nvars 1\ndomain 2\ninit 0\ngoal 0=1\n"
                  "action flip pre eff 0=1\n")
    out02 = tmp_path / "comp02.sasp"
    code, out = run(capsys, "generate", "compose-02",
                    "--component", str(zt), "--component", str(zt),
                    "--k", "1", "--out", str(out02))
    assert code == 0 and out["expected_bound"] == 21
    code, solved = run(capsys, "solve", str(out02), "21")
    assert code == 0 and solved["solver"] == "zero-two"


def test_main_builds_its_parser_once(capsys, toy_file, monkeypatch):
    cli._parser.cache_clear()
    built = []

    def counting_build_parser():
        built.append(1)
        return real_build_parser()

    real_build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for argv in (["classify", toy_file], ["solve", toy_file, "2"],
                 ["solve", toy_file, "1", "--stats"], ["solve", toy_file]):
        try:
            main(argv)
        except SystemExit:  # the last argv lacks k: a usage error
            pass
    capsys.readouterr()
    assert len(built) == 1


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_repeated_generate_calls_keep_their_own_components(capsys, tmp_path,
                                                           toy_file):
    other = tmp_path / "other.sasp"
    other.write_text(TOY1_TEXT.replace("a1", "b1").replace("a2", "b2"))
    metas = []
    for i, comps in enumerate(([f"{toy_file}:2", f"{other}:2"],
                               [f"{other}:1", f"{other}:2"])):
        out_path = tmp_path / f"pub{i}.sasp"
        argv = ["generate", "compose-pub", "--out", str(out_path)]
        for c in comps:
            argv += ["--component", c]
        code, _ = run(capsys, *argv)
        assert code == 0
        metas.append(json.loads(
            (tmp_path / f"pub{i}.sasp.meta.json").read_text()))
    assert metas[0]["components"] == [f"{toy_file}:2", f"{other}:2"]
    assert metas[1]["components"] == [f"{other}:1", f"{other}:2"]


def test_repeated_solve_calls_leak_no_option(capsys, toy_file):
    code, out = run(capsys, "solve", toy_file, "2", "--solver", "fo-mc",
                    "--stats", "--fragment", "sigma1")
    assert code == 0 and out["solver"] == "fo-mc/sigma1" and out["stats"]
    code, out = run(capsys, "solve", toy_file, "2")
    assert code == 0
    assert out["solver"] == "post-unique" and out["stats"] == {}


def test_one_classify_per_call(capsys, tmp_path, monkeypatch):
    # unary but not post-unique: auto routes to fo-mc, which picks sigma1.
    # cli classifies only to route auto; fomc chooses or checks the fragment
    # with core.is_unary alone
    path = tmp_path / "u.sasp"
    path.write_text(TOY1_TEXT + "action a3 pre 1=1 eff 0=1\n")
    calls = []
    real_classify = core.classify
    # a module first imported during a call would bind the real classify
    for info in pkgutil.iter_modules(planlab.__path__, "planlab."):
        importlib.import_module(info.name)
    for name, module in list(sys.modules.items()):  # every module binding it
        if (name.split(".")[0] == "planlab"
                and getattr(module, "classify", None) is real_classify):
            monkeypatch.setattr(module, "classify", lambda inst:
                                calls.append(1) or real_classify(inst))
    assert cli.classify is not real_classify
    solve = ["solve", str(path), "2"]
    for argv, route, count in (
            (["classify", str(path)], "fo-mc", 1),
            (solve, "fo-mc/sigma1", 1),
            (solve + ["--solver", "fo-mc"], "fo-mc/sigma1", 0),
            (solve + ["--solver", "fo-mc", "--fragment", "sigma22"],
             "fo-mc/sigma22", 0)):
        calls.clear()
        code, out = run(capsys, *argv)
        assert code == 0 and route in (out.get("route"), out.get("solver"))
        assert len(calls) == count, argv


def test_route_runners_take_plain_values(capsys, tmp_path, toy1, zt1):
    # every route row runs from (instance, k, option, budget) alone, and
    # answers as `planlab solve --stats` does, or refuses and exits 3
    refused = []
    for name, instance in (("toy1", toy1), ("zt1", zt1)):
        path = tmp_path / f"{name}.sasp"
        path.write_text(io.serialize_instance(instance))
        for route in cli.ROUTES:
            argv = ["solve", str(path), "2", "--solver", route.name,
                    "--stats"]
            try:
                plan, label, stats = route.run(instance, 2, None,
                                               DEFAULT_BUDGET)
            except ContractError:
                assert main(argv) == 3, (name, route.name)
                capsys.readouterr()
                refused.append((name, route.name))
                continue
            code, out = run(capsys, *argv)
            assert code == 0 and plan is not None, (name, route.name)
            assert out["plan"] == [instance.actions[a].name for a in plan]
            assert (out["solver"], out["stats"]) == (label, stats)
    # toy1 has a precondition
    assert refused == [("toy1", "zero-two"), ("toy1", "regression")]


REGRESSION = next(route for route in cli.ROUTES if route.name == "regression")


def test_regression_route_agrees_with_plain_bfs():
    # random instances without preconditions, every effect count 1-4 and
    # domain 2-4: the route's verdict and plan length are the forward
    # search's, and every plan it returns is a plan of the input
    rng = random.Random(32)
    for eff in range(1, 5):
        for d in range(2, 5):
            for _ in range(40):
                n = rng.randint(eff, 6)
                inst = random_instance(n, d, rng.randint(1, 8),
                                       rng.randrange(10 ** 6), max_pre=0,
                                       max_eff=eff)
                k = rng.randint(0, 6)
                plan, label, stats = REGRESSION.run(inst, k, None,
                                                    DEFAULT_BUDGET)
                expected, _ = plain_bfs(inst, k, DEFAULT_BUDGET)
                assert label == "regression" and stats["visited_states"] >= 1
                assert (plan is None) == (expected is None), (inst, k)
                if plan is not None:
                    assert len(plan) == len(expected), (inst, k)
                    assert core.validate_plan(inst, plan).valid, (inst, k)


def _multicolored_graphs(rng):
    """Every 3-partite graph with one vertex per part, ten random ones
    each with 3 parts of 2 vertices and 4 parts of 1, and two each with
    4 parts of 3, 5 of 2, 5 of 3 and 6 of 2."""
    pairs = list(combinations(range(1, 4), 2))
    for mask in range(8):
        yield MulticoloredGraph(3, 1, tuple(
            ((i, 0), (j, 0)) for bit, (i, j) in enumerate(pairs)
            if mask >> bit & 1))
    for parts, per_part, copies in ((3, 2, 10), (4, 1, 10), (4, 3, 2),
                                    (5, 2, 2), (5, 3, 2), (6, 2, 2)):
        vertices = [(i, a) for i in range(1, parts + 1)
                    for a in range(per_part)]
        for _ in range(copies):
            yield MulticoloredGraph(parts, per_part, tuple(
                (u, w) for u, w in combinations(vertices, 2)
                if u[0] != w[0] and rng.random() < 0.7))


def test_auto_answers_mcc_03_by_regression(capsys, tmp_path):
    # the (0,3) clique encoding at its claimed bound: `auto` sends it to
    # the regression route unless it is post-unique (one edge per pair of
    # parts at most), and the verdict is the clique's
    path = tmp_path / "mcc.sasp"
    solvers = []
    for graph in _multicolored_graphs(random.Random(3)):
        instance, bound = from_mcc_03(graph)
        path.write_text(io.serialize_instance(instance))
        code, out = run(capsys, "solve", str(path), str(bound))
        assert out["solvable"] == has_multicolored_clique(graph), graph
        assert code == (0 if out["solvable"] else 1)
        solvers.append(out["solver"])
    assert set(solvers) == {"regression", "post-unique"}
    assert solvers.count("regression") >= 23
    # one 4x2 graph with a clique: the stubborn sets cut the derived
    # search from 805 states to 58, so a budget of 58 answers and 57 runs
    # out
    graph = MulticoloredGraph(4, 2, (
        ((1, 0), (2, 0)), ((1, 0), (2, 1)), ((1, 0), (3, 0)),
        ((1, 0), (3, 1)), ((1, 0), (4, 0)), ((1, 0), (4, 1)),
        ((1, 1), (3, 1)), ((1, 1), (4, 0)), ((1, 1), (4, 1)),
        ((2, 0), (3, 0)), ((2, 0), (3, 1)), ((2, 0), (4, 0)),
        ((2, 1), (4, 1)), ((3, 0), (4, 0)), ((3, 0), (4, 1))))
    instance, bound = from_mcc_03(graph)
    path.write_text(io.serialize_instance(instance))
    code, out = run(capsys, "solve", str(path), str(bound), "--stats")
    assert code == 0 and out["length"] == bound == 10
    assert (out["solver"], out["stats"]) == ("regression",
                                              {"visited_states": 58})
    _, full = oracle.shortest_plan_with_stats(
        oracle.regression_instance(instance), bound)
    assert full == 805
    code, _ = run(capsys, "solve", str(path), str(bound), "--budget", "57")
    assert code == 3
    code, out = run(capsys, "solve", str(path), str(bound), "--budget", "58")
    assert code == 0 and out["solvable"]


def test_auto_answers_hitting_sets(capsys, tmp_path):
    # the hitting-set encoding at its claimed bound, through whichever
    # route `auto` picks; an element in three subsets makes it (0,3)
    rng = random.Random(5)
    path = tmp_path / "hs.sasp"
    solvers = set()
    for _ in range(60):
        size = rng.randint(1, 5)
        subsets = tuple(tuple(sorted(rng.sample(range(1, size + 1),
                                                rng.randint(1, size))))
                        for _ in range(rng.randint(0, 5)))
        inp = HittingSetInput(size, subsets, rng.randint(0, 3))
        instance, bound = from_hitting_set(inp)
        path.write_text(io.serialize_instance(instance))
        code, out = run(capsys, "solve", str(path), str(bound))
        assert out["solvable"] == brute_force_hitting_set(inp), inp
        if out["solvable"]:
            plan = tuple(instance.action_id(name) for name in out["plan"])
            assert core.validate_plan(instance, plan).valid
        solvers.add(out["solver"])
    assert "regression" in solvers


def test_classify_routes_each_generator_family(capsys, tmp_path, toy_file):
    def route(*generate):
        path = str(tmp_path / "gen.sasp")
        code, _ = run(capsys, "generate", *generate, "--out", path)
        assert code == 0, generate
        code, out = run(capsys, "classify", path)
        assert code == 0
        return out["route"]

    zt = tmp_path / "zt.sasp"
    zt.write_text("SASP 1\nvars 1\ndomain 2\ninit 0\ngoal 0=1\n"
                  "action flip pre eff 0=1\n")
    assert route("mcc-03", "--parts", "3", "--complete") == "regression"
    assert route("hitting-set", "--universe", "3", "--sets",
                 "{1,2},{1,3},{1}", "--k", "1") == "regression"
    assert route("hitting-set", "--universe", "3", "--sets",
                 "{1,2},{2,3}", "--k", "1") == "zero-two"
    assert route("compose-02", "--component", str(zt), "--component",
                 str(zt), "--k", "1") == "zero-two"
    assert route("mcc-ubs", "--parts", "3", "--complete") == "post-unique"
    assert route("compose-pub", "--component", f"{toy_file}:2",
                 "--component", f"{toy_file}:2") == "post-unique"
    assert route("or2", "--v1", "1", "--v2", "0") == "post-unique"
    assert route("random", "--n", "4", "--actions", "6", "--seed", "3",
                 "--unary") == "fo-mc"
    assert route("random", "--n", "4", "--actions", "6",
                 "--seed", "3") == "oracle"


def test_budget_env(capsys, toy_file, monkeypatch, tmp_path):
    # a budget of 1 exhausts immediately on any instance needing search
    monkeypatch.setenv("PLAN_LAB_BUDGET", "1")
    code, _ = run(capsys, "solve", toy_file, "2", "--solver", "oracle")
    assert code == 3
    monkeypatch.delenv("PLAN_LAB_BUDGET")
    code, _ = run(capsys, "solve", toy_file, "2", "--solver", "oracle")
    assert code == 0


def test_budget_caps_post_unique_labels(capsys, tmp_path):
    # mcc-ubs on the complete 3x1 graph is post-unique, and its search at
    # the claimed bound runs away; the budget caps its distinct labels and
    # the run exits 3 as the oracle's does
    path = str(tmp_path / "ubs.sasp")
    code, meta = run(capsys, "generate", "mcc-ubs", "--parts", "3",
                     "--complete", "--out", path)
    assert code == 0 and meta["expected_bound"] == 24
    code = main(["solve", path, "24", "--budget", "1000"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("budget exhausted: search budget "
                                   "exhausted after 10")
    assert captured.err.endswith(" labels\n")
    # at k = 8 the search ends after 545 labels: a budget of 545 answers
    code, out = run(capsys, "solve", path, "8", "--budget", "545", "--stats")
    assert code == 1 and out["solver"] == "post-unique"
    assert out["stats"] == {"search_tree_nodes": 545}
    code, _ = run(capsys, "solve", path, "8", "--budget", "544")
    assert code == 3


def test_out_of_memory_exits_3(capsys, toy_file, monkeypatch):
    # a route that runs out of memory is not an unsolvable instance: exit
    # 3, one stderr line, no traceback and nothing on stdout
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "ROUTES", tuple(
        route._replace(run=exhausted) if route.name == "post-unique"
        else route for route in cli.ROUTES))
    code = main(["solve", toy_file, "2"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == "out of memory\n"


def test_generate_malformed_options_are_usage_errors(capsys, tmp_path,
                                                     toy_file):
    out = tmp_path / "gen.sasp"
    hitting = ["generate", "hitting-set", "--universe", "3", "--k", "1"]
    cases = [
        ["generate", "compose-pub", "--component", toy_file],  # no :K
        hitting + ["--sets", "1,2"],
        hitting + ["--sets", "{1,2},{3"],
        ["generate", "mcc-03", "--parts", "3", "--per-part", "2",
         "--complete"],
        ["generate", "mcc-ubs", "--parts", "2", "--per-part", "0",
         "--complete"],
        *(["generate", kind, "--parts", "2", "--complete", "--edges",
           "1.0-2.0"] for kind in ("mcc-ubs", "mcc-03")),
        ["generate", "random", "--n", "3", "--actions", "3", "--seed", "1",
         "--k", "-1"],
        ["generate", "hitting-set", "--universe", "3", "--sets", "{1}",
         "--k", "-1"],
        ["generate", "compose-pub", "--component", f"{toy_file}:2",
         "--component", f"{toy_file}:-1"],
        ["generate", "compose-02", "--component", toy_file, "--k", "-1"],
        hitting + ["--sets", "{1,a}"],
        *(hitting + ["--sets", sets]
          for sets in ("{1,,2}", "{1,}", "{,1}", "{,}", "{1},{,}")),
        ["generate", "compose-pub", "--component", f"{toy_file}:2",
         "--component", f"{toy_file}:x"],
    ] + [["generate", "mcc-03", "--parts", "3", "--edges", edges]
         for edges in ("1.0-2", "1.0-2.0,", "1.0-2.0-3.0", "a.0-2.0",
                       "1.0:2.0", "1.0-2.0,-1.0-3.0")]
    for argv in cases:
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("invalid arguments"), argv
        # the message names the option's format, not int()'s complaint
        assert "invalid literal" not in captured.err, argv
    assert not out.exists()
    # a well-formed request the generator cannot honour stays inapplicable,
    # and so do negative sizes; the component has two goal deviations,
    # more than compose-02 allows at k = 0
    two = tmp_path / "two.sasp"
    two.write_text("SASP 1\nvars 2\ndomain 2\ninit 0 0\ngoal 0=1 1=1\n"
                   "action a pre eff 0=1\naction b pre eff 1=1\n")
    rand = ["generate", "random", "--seed", "1"]
    negative_actions = rand + ["--n", "3", "--actions", "-1"]
    refused = [
        hitting + ["--sets", "{1,4}"],
        ["generate", "hitting-set", "--universe", "-2", "--sets", "",
         "--k", "1"],
        ["generate", "mcc-ubs", "--parts", "-1", "--complete"],
        ["generate", "mcc-03", "--parts", "2", "--per-part", "-1"],
        ["generate", "random", "--n", "3", "--actions", "3", "--seed", "1",
         "--max-pre", "-1"],
        rand + ["--n", "0", "--actions", "3"],
        rand + ["--n", "3", "--domain", "0", "--actions", "3"],
        negative_actions,
        rand + ["--n", "3", "--actions", "3", "--max-eff", "0"],
        ["generate", "compose-02", "--component", str(two),
         "--component", str(two), "--k", "0"],
    ]
    for argv in refused:
        code = main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "", argv
        assert captured.err.startswith("inapplicable"), argv
        if argv == negative_actions:  # not "sizes must be positive"
            assert "num_actions must be non-negative" in captured.err
    assert not out.exists()
    assert "more than k'=1" in captured.err  # compose-02, refused last
    # no parts is a consistent request: bound 0 and an empty instance
    code, meta = run(capsys, "generate", "mcc-ubs", "--parts", "0",
                     "--complete", "--out", str(out))
    assert code == 0
    assert (meta["expected_bound"], meta["vars"], meta["actions"]) == (0, 0, 0)


def test_negative_budget_is_a_usage_error(capsys, toy_file, monkeypatch):
    code = main(["solve", toy_file, "2", "--solver", "oracle",
                 "--budget", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("invalid arguments")
    monkeypatch.setenv("PLAN_LAB_BUDGET", "-5")
    code = main(["solve", toy_file, "2", "--solver", "oracle"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("invalid arguments")
    # a budget that is not an integer names the variable, not int()
    for text in ("abc", "", "1.5"):
        monkeypatch.setenv("PLAN_LAB_BUDGET", text)
        code = main(["solve", toy_file, "2", "--solver", "oracle"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", text
        assert captured.err == ("invalid arguments: PLAN_LAB_BUDGET must be "
                                f"an integer, got {text!r}\n"), text
    monkeypatch.setenv("PLAN_LAB_BUDGET", "-5")
    # the flag overrides the environment, and a zero budget is a budget
    code, out = run(capsys, "solve", toy_file, "2", "--solver", "oracle",
                    "--budget", "100")
    assert code == 0 and out["length"] == 2
    code, _ = run(capsys, "solve", toy_file, "2", "--solver", "oracle",
                  "--budget", "0")
    assert code == 3


_USAGE = "usage: planlab [-h] {classify,solve,validate,generate} ...\n"
_SOLVE_USAGE = (
    "usage: planlab solve [-h]\n"
    "                     [--solver {auto,post-unique,zero-two,fo-mc,"
    "regression,oracle}]\n"
    "                     [--fragment {sigma1,sigma22}] [--stats] "
    "[--budget BUDGET]\n"
    "                     [--dot PATH]\n"
    "                     instance k\n")
_TOY_PLAN = '"plan": ["a1", "a2"]'

# argv (FILE stands for TOY1) -> exit code, stdout and stderr at 80 columns,
# recorded before main dispatched straight to the subcommand's parser
CLI_PARITY = {
    "no-argv": ([], 2, "", _USAGE + (
        "planlab: error: the following arguments are required: command\n")),
    "help": (["-h"], 0, _USAGE + (
        "\n"
        "Bounded-plan solvers and generators for SAS+ planning\n"
        "\n"
        "positional arguments:\n"
        "  {classify,solve,validate,generate}\n"
        "    classify            restriction profile and routing\n"
        "    solve               decide plan existence at bound k\n"
        "    validate            check a plan file\n"
        "    generate            write a generated instance\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), ""),
    "unknown-command": (["frobnicate", "FILE"], 2, "", _USAGE + (
        "planlab: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'classify', 'solve', 'validate', 'generate')\n")),
    "solve-without-k": (["solve", "FILE"], 2, "", _SOLVE_USAGE + (
        "planlab solve: error: the following arguments are required: k\n")),
    "solve-k-not-integer": (["solve", "FILE", "two"], 2, "", _SOLVE_USAGE + (
        "planlab solve: error: argument k: invalid int value: 'two'\n")),
    "solve-unknown-solver": (
        ["solve", "FILE", "2", "--solver", "nope"], 2, "", _SOLVE_USAGE + (
            "planlab solve: error: argument --solver: invalid choice: "
            "'nope' (choose from 'auto', 'post-unique', 'zero-two', "
            "'fo-mc', 'regression', 'oracle')\n")),
    "solve-extra-argument": (
        ["solve", "FILE", "2", "--frobnicate"], 2, "", _USAGE + (
            "planlab: error: unrecognized arguments: --frobnicate\n")),
    "solve-help": (["solve", "--help"], 0, _SOLVE_USAGE + (
        "\n"
        "positional arguments:\n"
        "  instance\n"
        "  k\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --solver {auto,post-unique,zero-two,fo-mc,regression,oracle}\n"
        "  --fragment {sigma1,sigma22}\n"
        "                        force a model-checking fragment\n"
        "  --stats\n"
        "  --budget BUDGET       visited-state cap (default $PLAN_LAB_BUDGET "
        "or\n"
        "                        5000000)\n"
        "  --dot PATH            dump the Steiner digraph (zero-two solver "
        "only)\n"), ""),
    "solve-abbreviated-option": (
        ["solve", "FILE", "2", "--sol", "oracle"], 0,
        '{"solvable": true, "length": 2, ' + _TOY_PLAN
        + ', "solver": "oracle", "stats": {}}\n',
        "oracle: solvable at k=2\n"),
    "solve-option-with-equals": (
        ["solve", "FILE", "2", "--solver=oracle", "--budget=5", "--stats"], 0,
        '{"solvable": true, "length": 2, ' + _TOY_PLAN
        + ', "solver": "oracle", "stats": {"visited_states": 3}}\n',
        "oracle: solvable at k=2\n"),
    "classify-extra-positional": (
        ["classify", "FILE", "extra"], 2, "", _USAGE + (
            "planlab: error: unrecognized arguments: extra\n")),
    "generate-without-generator": (["generate"], 2, "", (
        "usage: planlab generate [-h]\n"
        "                        {hitting-set,mcc-ubs,mcc-03,or2,compose-pub,"
        "compose-02,random}\n"
        "                        ...\n"
        "planlab generate: error: the following arguments are required: "
        "generator\n")),
    "generate-or2-without-v2": (
        ["generate", "or2", "--v1", "0", "--out", "x.sasp"], 2, "", (
            "usage: planlab generate or2 [-h] --v1 {0,1} --v2 {0,1} "
            "--out OUT\n"
            "planlab generate or2: error: the following arguments are "
            "required: --v2\n")),
}


@pytest.mark.parametrize("argv,code,out,err", list(CLI_PARITY.values()),
                         ids=list(CLI_PARITY))
def test_cli_parity(capsys, monkeypatch, toy_file, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main([toy_file if arg == "FILE" else arg for arg in argv])
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)


def test_solve_skips_the_top_level_parser(capsys, toy_file, monkeypatch):
    parser = cli._parser()
    calls = []

    def counting_parse_known_args(*args, **kwargs):
        calls.append(1)
        return real_parse_known_args(*args, **kwargs)

    real_parse_known_args = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args", counting_parse_known_args)
    assert main(["solve", toy_file, "2", "--stats"]) == 0
    assert main(["classify", toy_file]) == 0
    assert calls == []
    with pytest.raises(SystemExit):  # no command: the top-level parser runs
        main(["--frobnicate"])
    capsys.readouterr()
    assert calls == [1]


def test_python_dash_m_planlab_matches_main(capsys, toy_file):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["solve", toy_file, "2", "--stats"]
    proc = subprocess.run([sys.executable, "-m", "planlab", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env)
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out, captured.err)
    assert code == 0 and json.loads(proc.stdout)["plan"] == ["a1", "a2"]
