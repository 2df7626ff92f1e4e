import json
import random

import pytest

from planlab import cli, fomc, io, zerotwo
from planlab.cli import main
from planlab.core import ContractError
from planlab.generators import (HittingSetInput, MulticoloredGraph,
                                compose_pub, from_hitting_set, from_mcc_03,
                                random_instance)
from planlab.oracle import DEFAULT_BUDGET, shortest_plan

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
    # cli classifies only to route auto, and fomc only to choose or check
    # the fragment
    path = tmp_path / "u.sasp"
    path.write_text(TOY1_TEXT + "action a3 pre 1=1 eff 0=1\n")
    calls = []
    real_classify = cli.classify
    for module in (cli, fomc):
        monkeypatch.setattr(module, "classify", lambda inst: calls.append(1)
                            or real_classify(inst))
    solve = ["solve", str(path), "2"]
    for argv, route, count in (
            (["classify", str(path)], "fo-mc", 1),
            (solve, "fo-mc/sigma1", 2),
            (solve + ["--solver", "fo-mc"], "fo-mc/sigma1", 1),
            (solve + ["--solver", "fo-mc", "--fragment", "sigma22"],
             "fo-mc/sigma22", 0)):
        calls.clear()
        code, out = run(capsys, *argv)
        assert code == 0 and route in (out.get("route"), out.get("solver"))
        assert len(calls) == count, argv


def test_route_runners_take_plain_values(capsys, tmp_path, toy1, zt1):
    # every route row runs from (instance, k, option, budget) alone, and
    # answers as `planlab solve --stats` does
    for name, instance in (("toy1", toy1), ("zt1", zt1)):
        path = tmp_path / f"{name}.sasp"
        path.write_text(io.serialize_instance(instance))
        for route in cli.ROUTES:
            argv = ["solve", str(path), "2", "--solver", route.name,
                    "--stats"]
            try:
                plan, label, stats = route.run(instance, 2, None,
                                               DEFAULT_BUDGET)
            except ContractError:  # zero-two on toy1, which has a pre
                assert main(argv) == 3, (name, route.name)
                capsys.readouterr()
                continue
            code, out = run(capsys, *argv)
            assert code == 0 and plan is not None, (name, route.name)
            assert out["plan"] == [instance.actions[a].name for a in plan]
            assert (out["solver"], out["stats"]) == (label, stats)


def test_budget_env(capsys, toy_file, monkeypatch, tmp_path):
    # a budget of 1 exhausts immediately on any instance needing search
    monkeypatch.setenv("PLAN_LAB_BUDGET", "1")
    code, _ = run(capsys, "solve", toy_file, "2", "--solver", "oracle")
    assert code == 3
    monkeypatch.delenv("PLAN_LAB_BUDGET")
    code, _ = run(capsys, "solve", toy_file, "2", "--solver", "oracle")
    assert code == 0


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
