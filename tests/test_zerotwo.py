import hashlib
import random
from typing import Optional

import pytest

from planlab.core import (Action, ContractError, Instance, classify,
                          goal_count, validate_plan)
from planlab.generators import random_instance
from planlab.io import serialize_instance
from planlab.oracle import shortest_plan
from planlab.reference import (GOOD, brute_force_steiner, effect_polarity,
                               enumerate_minimal_plans,
                               reaches_all_terminals)
from planlab.zerotwo import (MAX_TERMINALS, ROOT, SteinerInstance,
                             _contract_twin_sinks,
                             _has_two_effect_good_action, _steiner_tree,
                             build_dst, dreyfus_wagner,
                             eliminate_two_effect_good_actions,
                             extract_plan, solve_zero_two, steiner_to_dot)


def random_zero_two(seed: int, n_max=5, m_max=6) -> Instance:
    rng = random.Random(seed)
    return random_instance(rng.randint(2, n_max), 2, rng.randint(1, m_max),
                           seed=seed ^ 0x5A5A, max_pre=0, max_eff=2)


# ---------------------------------------------------------------------------
# Chain transform
# ---------------------------------------------------------------------------

def test_transform_bound_arithmetic(zt1):
    assert eliminate_two_effect_good_actions(zt1, 2).bound == 11
    assert eliminate_two_effect_good_actions(zt1, 1).bound == 5


def test_transform_counts_one_mixed_action():
    # a single mixed action at k=2: a chain of 5 actions over 4 fresh chain
    # variables, and no use of the shared flag beyond its reset action
    inst = Instance(2, 2, (Action("m", {}, {0: 1, 1: 0}),), (0, 0),
                    {0: 1, 1: 1})
    tr = eliminate_two_effect_good_actions(inst, 2)
    chain = [c for c, a in tr.source_action.items() if a == 0]
    assert len(chain) == 5
    # fresh vars: flag + 4 chain vars
    assert tr.instance.var_count == inst.var_count + 1 + 4
    flag_touchers = [a for a in chain
                     if tr.g_var in tr.instance.actions[a].eff]
    assert not flag_touchers


def test_transform_postconditions(zt1):
    for seed in range(25):
        inst = random_zero_two(seed, n_max=4, m_max=4)
        k = seed % 3
        tr = eliminate_two_effect_good_actions(inst, k)
        out = tr.instance
        profile = classify(out)
        assert profile.max_pre == 0 and profile.max_eff <= 2
        assert profile.binary  # binary preserved
        for aid in range(len(out.actions)):
            pol = effect_polarity(out, aid)
            assert not (pol.action == GOOD and len(out.actions[aid].eff) == 2)


def test_transform_names_dodge_taken_names():
    # "a"'s first link would be called "a+c1" and its first chain variable
    # "a+x1"; both names are taken, so they get a numeric suffix
    inst = Instance(2, 2, (Action("a", {}, {0: 1, 1: 1}),
                           Action("a+c1", {}, {0: 1, 1: 1})),
                    (0, 0), {0: 1, 1: 1}, var_names=("a+x1", "y"))
    tr = eliminate_two_effect_good_actions(inst, 1)
    names = [a.name for a in tr.instance.actions]
    assert len(set(names)) == len(names)
    assert "a+c1.1" in names and "a+c1+c1" in names
    assert "a+x1.1" in tr.instance.var_names
    # solve_zero_two re-validates its plan on the transformed instance
    result = solve_zero_two(inst, 1)
    assert result.transformed and result.built_from == tr.instance
    assert result.plan == (0,) and validate_plan(inst, result.plan).valid


def test_transform_contract():
    inst = Instance(1, 2, (Action("p", {0: 0}, {0: 1}),), (0,), {0: 1})
    with pytest.raises(ContractError):
        eliminate_two_effect_good_actions(inst, 1)


@pytest.mark.parametrize("seed", range(24))
def test_transform_equivalence_small(seed):
    """Plan of length <= k exists iff the transformed instance has one of
    length <= k(k+3)+1, oracle-checked."""
    rng = random.Random(seed)
    inst = random_instance(rng.randint(1, 3), 2, rng.randint(1, 3),
                           seed=seed + 5000, max_pre=0, max_eff=2)
    k = rng.randint(0, 2)
    tr = eliminate_two_effect_good_actions(inst, k)
    before = shortest_plan(inst, k) is not None
    after = shortest_plan(tr.instance, tr.bound) is not None
    assert before == after, (inst, k)


def test_chain_usage_is_all_or_nearly_all():
    """In a minimal plan of the transformed instance, a used chain
    contributes at least k+2 of its k+3 actions."""
    checked = 0
    for seed in range(40):
        rng = random.Random(seed)
        inst = random_instance(rng.randint(1, 2), 2, rng.randint(1, 2),
                               seed=seed + 9000, max_pre=0, max_eff=2)
        k = rng.randint(0, 1)
        tr = eliminate_two_effect_good_actions(inst, k)
        if len(tr.instance.actions) > 7:
            continue
        for plan in enumerate_minimal_plans(tr.instance, min(tr.bound, 5)):
            used = {}
            for aid in plan:
                orig = tr.source_action.get(aid)
                if orig is not None:
                    used.setdefault(orig, set()).add(aid)
            for orig, members in used.items():
                assert len(members) >= k + 2, (inst, k, plan)
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# Steiner reduction
# ---------------------------------------------------------------------------

def test_build_dst_zt1(zt1):
    dst = build_dst(zt1, 2)
    assert dst.arcs == ((ROOT, 1), (1, 2))
    assert dst.arc_action == {(ROOT, 1): 0, (1, 2): 1}
    assert dst.terminals == (1, 2)


def test_build_dst_star():
    acts = (Action("a", {}, {0: 1}), Action("b", {}, {1: 1}))
    inst = Instance(2, 2, acts, (0, 0), {0: 1, 1: 1})
    dst = build_dst(inst, 2)
    assert dst.arcs == ((ROOT, 1), (ROOT, 2))


def test_build_dst_bad_actions_skipped():
    acts = (Action("bad", {}, {0: 0, 1: 0}), Action("good", {}, {0: 1}))
    inst = Instance(2, 2, acts, (0, 0), {0: 1, 1: 1})
    dst = build_dst(inst, 2)
    assert dst.arcs == ((ROOT, 1),)


def test_build_dst_rejects_two_effect_good(zt1):
    inst = Instance(2, 2, (Action("ab", {}, {0: 1, 1: 1}),), (0, 0),
                    {0: 1, 1: 1})
    with pytest.raises(ContractError):
        build_dst(inst, 1)


REDUCTION_DIGEST = \
    "58589145ee80a8914a1a117875cea8142970b601dc7af3fb80871a1b332af689"


def test_reduction_is_pinned():
    """The chain transform's output and build_dst's graph on 160 fixed
    random (0,2) instances, some with an empty-effect action: build_dst runs
    on the transform's output, and on the input too when it has no
    two-effect good action (its contract error is hashed otherwise)."""
    rng = random.Random(27)
    digest = hashlib.sha256()
    for i in range(160):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        inst = random_instance(n, d, rng.randint(0, 7), seed=27_000 + i,
                               max_pre=0, max_eff=2)
        if i % 5 == 0:
            inst = Instance(n, d, inst.actions + (Action("idle", {}, {}),),
                            inst.init, inst.goal)
        k = i % 4
        t = eliminate_two_effect_good_actions(inst, k)
        digest.update(repr((serialize_instance(t.instance),
                            t.instance.var_names, t.bound,
                            sorted(t.source_action.items()), t.g_var,
                            t.g_reset)).encode())
        for work, bound in ((t.instance, t.bound), (inst, k)):
            try:
                dst = build_dst(work, bound)
            except ContractError as exc:
                digest.update(str(exc).encode())
                continue
            digest.update(repr((dst.node_count, dst.arcs,
                                sorted(dst.arc_action.items()),
                                dst.terminals, dst.bound)).encode())
    assert digest.hexdigest() == REDUCTION_DIGEST


def test_parallel_arcs_collapse():
    acts = (Action("a", {}, {0: 1}), Action("b", {}, {0: 1}))
    inst = Instance(1, 2, acts, (0,), {0: 1})
    dst = build_dst(inst, 1)
    assert dst.arc_action[(ROOT, 1)] == 0  # smallest action id wins


# ---------------------------------------------------------------------------
# Dreyfus-Wagner
# ---------------------------------------------------------------------------

def test_dw_zt1(zt1):
    dst = build_dst(zt1, 2)
    sol = dreyfus_wagner(dst)
    assert sol.weight == 2 and sol.arcs == ((ROOT, 1), (1, 2))


def test_dw_single_terminal_path():
    dst = SteinerInstance(4, ((0, 1), (1, 2), (2, 3)),
                          {(0, 1): 0, (1, 2): 1, (2, 3): 2}, (3,), 5)
    sol = dreyfus_wagner(dst)
    assert sol.weight == 3


def test_dw_unreachable_terminal():
    dst = SteinerInstance(3, ((0, 1),), {(0, 1): 0}, (2,), 5)
    assert dreyfus_wagner(dst) is None


def test_dw_bound_exceeded():
    dst = SteinerInstance(3, ((0, 1), (1, 2)), {(0, 1): 0, (1, 2): 1},
                          (2,), 1)
    assert dreyfus_wagner(dst) is None


def test_dw_counts_the_cells_of_a_table_that_refutes():
    # terminals 2 and 3 need three arcs: at bound 2 the table refutes with
    # five cells kept, at bound 3 it keeps six and finds the tree
    arcs = ((0, 1), (0, 2), (1, 3))
    action = {a: i for i, a in enumerate(arcs)}
    counts = {}
    assert dreyfus_wagner(SteinerInstance(4, arcs, action, (2, 3), 2),
                          counts) is None
    assert counts == {"dp_cells": 5}
    sol = dreyfus_wagner(SteinerInstance(4, arcs, action, (2, 3), 3), counts)
    assert sol.weight == 3 and sol.cells == counts["dp_cells"] == 6
    # an unreachable terminal refutes before any table
    counts = {}
    assert dreyfus_wagner(SteinerInstance(3, ((0, 1),), {(0, 1): 0}, (2,),
                                          5), counts) is None
    assert counts == {}


def test_dw_no_terminals():
    dst = SteinerInstance(2, ((0, 1),), {(0, 1): 0}, (), 0)
    assert dreyfus_wagner(dst).weight == 0


def test_dw_diamond_takes_the_smallest_path():
    # two shortest paths to terminal 3; the one through node 1 is the
    # lexicographically smaller, in either arc order
    arcs = ((0, 1), (0, 2), (1, 3), (2, 3))
    for order in (arcs, arcs[::-1]):
        dst = SteinerInstance(4, order, {a: i for i, a in enumerate(arcs)},
                              (3,), 2)
        sol = dreyfus_wagner(dst)
        assert (sol.weight, sol.arcs) == (2, ((0, 1), (1, 3)))


def test_dw_ignores_arc_order():
    rng = random.Random(1414)
    solved = 0
    for _ in range(300):
        n = rng.randint(3, 10)
        arcs = sorted({(rng.randrange(n), rng.randrange(1, n))
                       for _ in range(rng.randint(2, 3 * n))})
        arcs = [a for a in arcs if a[0] != a[1]]
        terminals = tuple(sorted(rng.sample(range(1, n),
                                            rng.randint(1, min(5, n - 1)))))
        action = {a: i for i, a in enumerate(arcs)}
        dst = SteinerInstance(n, tuple(arcs), action, terminals, n)
        sol = dreyfus_wagner(dst)
        solved += sol is not None
        orders = [arcs[::-1]] + [rng.sample(arcs, len(arcs))
                                 for _ in range(4)]
        for order in orders:
            shuffled = SteinerInstance(n, tuple(order), action, terminals, n)
            assert dreyfus_wagner(shuffled) == sol, shuffled
    assert solved >= 100


def test_dw_matches_brute_force_random_graphs():
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randint(2, 8)
        arcs = sorted({(rng.randrange(n), rng.randrange(n))
                       for _ in range(rng.randint(1, 12))
                       if True})
        arcs = [a for a in arcs if a[0] != a[1] and a[1] != ROOT]
        t_count = rng.randint(1, min(4, n - 1))
        terminals = tuple(sorted(rng.sample(range(1, n), t_count)))
        dst = SteinerInstance(n, tuple(arcs),
                              {a: i for i, a in enumerate(arcs)},
                              terminals, n + len(arcs))
        expected = brute_force_steiner(dst)
        got = dreyfus_wagner(dst)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.weight == expected, dst


def test_dw_matches_brute_force_at_tight_bounds():
    """Bounds one below, at and one above the optimum, so that pruning and
    both early exits (an unreachable terminal, more terminals than the
    bound) are exercised."""
    rng = random.Random(707)
    seen = {"unreachable": 0, "too_many_terminals": 0, "pruned": 0,
            "solved": 0}
    for _ in range(150):
        n = rng.randint(2, 8)
        arcs = {(rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(1, 12))}
        t_count = rng.randint(1, min(4, n - 1))
        terminals = tuple(sorted(rng.sample(range(1, n), t_count)))
        if rng.random() < 0.2:  # cut every arc into one terminal
            arcs = {a for a in arcs if a[1] != terminals[0]}
        arcs = sorted(a for a in arcs if a[0] != a[1] and a[1] != ROOT)
        loose = SteinerInstance(n, tuple(arcs),
                                {a: i for i, a in enumerate(arcs)},
                                terminals, n + len(arcs))
        opt = brute_force_steiner(loose)
        for slack in (-1, 0, 1):
            bound = (t_count if opt is None else opt) + slack
            dst = SteinerInstance(n, loose.arcs, loose.arc_action, terminals,
                                  bound)
            got = dreyfus_wagner(dst)
            if opt is None:
                seen["unreachable"] += 1
                assert got is None, dst
            elif opt > bound:
                seen["too_many_terminals" if t_count > bound
                     else "pruned"] += 1
                assert got is None, dst
            else:
                seen["solved"] += 1
                assert got is not None and got.weight == opt, dst
                assert len(got.arcs) == opt
                assert reaches_all_terminals(dst, got.arcs), dst
    assert all(seen.values()), seen


def test_dw_terminal_cap_checked_before_early_exits():
    count = MAX_TERMINALS + 1
    arcs = tuple((ROOT, v) for v in range(1, count + 1))
    dst = SteinerInstance(count + 1, arcs, {a: i for i, a in enumerate(arcs)},
                          tuple(range(1, count + 1)), count - 1)
    with pytest.raises(ContractError):
        dreyfus_wagner(dst)


# ---------------------------------------------------------------------------
# Twin sink contraction
# ---------------------------------------------------------------------------

def steiner(n, arcs, terminals, bound) -> SteinerInstance:
    arcs = tuple(sorted(set(arcs)))
    return SteinerInstance(n, arcs, {a: i for i, a in enumerate(arcs)},
                           tuple(terminals), bound)


def check_against_brute_force(dst: SteinerInstance) -> Optional[int]:
    """_steiner_tree at bounds one below, at and one above the optimum:
    its weight is brute_force_steiner's, and its arcs reach every
    terminal.  Returns the optimum."""
    opt = brute_force_steiner(dst)
    for slack in (-1, 0, 1):
        bound = (len(dst.terminals) if opt is None else opt) + slack
        at = SteinerInstance(dst.node_count, dst.arcs, dst.arc_action,
                             dst.terminals, bound)
        got = _steiner_tree(at)
        if opt is None or opt > bound:
            assert got is None, at
        else:
            assert got is not None and got.weight == opt, at
            assert len(set(got.arcs)) == len(got.arcs) == opt
            assert set(got.arcs) <= set(at.arcs)
            assert reaches_all_terminals(at, got.arcs), at
    return opt


@pytest.mark.parametrize("group", [2, 3, 4])
def test_twin_sinks_match_brute_force(group):
    """Random graphs with a planted group of twin sink terminals whose
    shared in-neighbours are drawn from the graph (the root included, and
    sometimes none at all)."""
    rng = random.Random(f"twins/{group}")
    seen = {"solved": 0, "none": 0}
    for _ in range(60):
        n = rng.randint(2, 5)
        # most nodes hang off an earlier one, so that most draws are solvable
        arcs = [(rng.randrange(v), v) for v in range(1, n)
                if rng.random() < 0.8]
        arcs += [(rng.randrange(n), rng.randrange(1, n))
                 for _ in range(rng.randint(0, 3))]
        arcs = [a for a in arcs if a[0] != a[1]]
        preds = rng.sample(range(n), rng.randint(0, min(2, n)))
        twins = range(n, n + group)
        arcs += [(p, t) for p in preds for t in twins]
        terminals = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))
                           + list(twins))
        dst = steiner(n + group, arcs, terminals, n + group)
        small, kept = _contract_twin_sinks(dst)
        # a base terminal with the same in-neighbours may join the group
        rep = next(r for r, twin in kept.items() if n + 1 in twin)
        assert set(twins) - {rep} <= set(kept[rep])
        dropped = len(terminals) - len(small.terminals)
        assert dropped == sum(map(len, kept.values())) >= group - 1
        assert small.bound == dst.bound - dropped
        seen["none" if check_against_brute_force(dst) is None
             else "solved"] += 1
    assert min(seen.values()) >= 10, seen


def test_twins_off_the_root():
    dst = steiner(4, [(ROOT, 1), (ROOT, 2), (ROOT, 3)], (1, 2, 3), 3)
    small, kept = _contract_twin_sinks(dst)
    assert kept == {1: [2, 3]}
    assert (small.terminals, small.bound, small.arcs) == ((1,), 1,
                                                          ((ROOT, 1),))
    sol = _steiner_tree(dst)
    assert (sol.weight, sol.arcs) == (3, dst.arcs)
    check_against_brute_force(dst)


def test_twins_without_in_arcs():
    dst = steiner(4, [(ROOT, 1)], (2, 3), 5)
    assert _contract_twin_sinks(dst)[1] == {2: [3]}
    assert _steiner_tree(dst) is None
    check_against_brute_force(dst)


def test_terminal_with_out_arcs_is_not_a_twin():
    # terminals 1 and 2 both hang off the root alone, but 1 has an out-arc,
    # so it is no sink; only the sinks 2 and 4 pair up
    dst = steiner(5, [(ROOT, 1), (ROOT, 2), (ROOT, 4), (1, 3)],
                  (1, 2, 3, 4), 4)
    small, kept = _contract_twin_sinks(dst)
    assert kept == {2: [4]} and small.terminals == (1, 2, 3)
    check_against_brute_force(dst)
    alone = steiner(4, [(ROOT, 1), (ROOT, 2), (1, 3)], (1, 2, 3), 3)
    assert _contract_twin_sinks(alone) == (alone, {})
    check_against_brute_force(alone)


def test_bound_below_the_twin_count():
    arcs = [(ROOT, 1), (1, 2), (1, 3), (1, 4), (1, 5)]
    for bound in range(6):
        dst = steiner(6, arcs, (2, 3, 4, 5), bound)
        small, _ = _contract_twin_sinks(dst)
        assert small.terminals == (2,) and small.bound == bound - 3
        sol = _steiner_tree(dst)
        assert (sol is None) == (bound < 5), bound
        if sol is not None:
            assert sol.arcs == tuple(sorted(arcs))


def test_contraction_keeps_the_table_small():
    # eight twins under one node: one terminal reaches the table
    arcs = [(ROOT, 1)] + [(1, t) for t in range(2, 10)]
    dst = steiner(10, arcs, tuple(range(2, 10)), 9)
    sol = _steiner_tree(dst)
    assert sol.weight == 9 and sol.arcs == tuple(sorted(arcs))
    assert sol.cells < dreyfus_wagner(dst).cells


# ---------------------------------------------------------------------------
# Extraction and the full pipeline
# ---------------------------------------------------------------------------

def test_extract_zt1(zt1):
    dst = build_dst(zt1, 2)
    sol = dreyfus_wagner(dst)
    plan = extract_plan(dst, sol.arcs)
    assert plan == (1, 0)  # mixed action first, good action last
    assert validate_plan(zt1, plan).valid
    assert not validate_plan(zt1, (0, 1)).valid  # the other order clobbers x


def test_extract_rejects_non_tree(zt1):
    dst = build_dst(zt1, 2)
    for arcs in (((1, 2),),  # the root cannot reach the tail
                 ((0, 1), (1, 2), (2, 0))):  # an arc into the root
        with pytest.raises(ContractError):
            extract_plan(dst, arcs)
    # a tree below the root beside an arc whose tail the root cannot reach
    chain = Instance(3, 2, (Action("g", {}, {0: 1}),
                            Action("m", {}, {2: 1, 1: 0})),
                     (0, 0, 0), {0: 1, 1: 1, 2: 1})
    dst = build_dst(chain, 2)
    assert set(dst.arcs) == {(0, 1), (2, 3)}
    with pytest.raises(ContractError):
        extract_plan(dst, ((0, 1), (2, 3)))


def test_extract_rejects_duplicate_heads(zt1):
    dst = build_dst(zt1, 2)
    with pytest.raises(ContractError, match="duplicate heads"):
        extract_plan(dst, ((0, 1), (0, 1)))


def test_deep_chain_extraction():
    # two mixed actions chained below one good action
    acts = (Action("g", {}, {0: 1}),
            Action("m1", {}, {1: 1, 0: 0}),
            Action("m2", {}, {2: 1, 1: 0}))
    inst = Instance(3, 2, acts, (0, 0, 0), {0: 1, 1: 1, 2: 1})
    r = solve_zero_two(inst, 3)
    assert r.plan == (2, 1, 0)
    assert validate_plan(inst, r.plan).valid


def test_solve_zero_two_examples(zt1, toy1):
    assert len(solve_zero_two(zt1, 2).plan) == 2
    assert solve_zero_two(zt1, 1).plan is None
    with pytest.raises(ContractError):
        solve_zero_two(toy1, 2)  # a2 has a precondition


def test_solve_zero_two_long_chain_revalidates():
    # the goal is padded with variables already at their goal value, so
    # that the bound stays at k = 10^4: the chain transform makes 10^4 + 3
    # chain variables, and the extracted plan is re-validated over 10,004
    # steps of the transform
    n = 10 ** 4
    inst = Instance(n, 2, (Action("a", {}, {0: 1, 1: 1}),
                           Action("b", {}, {0: 0})), (0,) * n,
                    {0: 1, 1: 1, **{v: 0 for v in range(2, n)}})
    r = solve_zero_two(inst, n)
    assert r.transformed and r.plan == (0,)
    assert r.built_from.var_count == n + n + 3
    assert validate_plan(inst, r.plan).valid


def test_solve_zero_two_bounds_k_by_the_goal():
    # a shortest plan has at most |goal| steps, so k = 100,000 is solved at
    # bound 2: the transform makes 5 chain variables, not 100,003
    inst = Instance(2, 2, (Action("a", {}, {0: 1, 1: 1}),), (0, 0),
                    {0: 1, 1: 1})
    r = solve_zero_two(inst, 100_000)
    assert r.transformed and r.plan == (0,)
    assert r.dst.node_count == 8


def test_solve_zero_two_goal_already_met():
    inst = Instance(1, 2, (Action("x", {}, {0: 0}),), (1,), {0: 1})
    assert solve_zero_two(inst, 0).plan == ()


@pytest.mark.parametrize("seed", range(60))
def test_pipeline_matches_oracle(seed):
    rng = random.Random(seed)
    inst = random_zero_two(seed, n_max=5, m_max=6)
    k = rng.randint(0, 4)
    r = solve_zero_two(inst, k)
    expected = shortest_plan(inst, k)
    assert (r.plan is not None) == (expected is not None), (inst, k)
    if r.plan is not None:
        assert validate_plan(inst, r.plan).valid and len(r.plan) <= k


def test_goal_count_refutation_matches_oracle():
    """At every k from 0 to |goal| + 1, zero-two's verdict is the oracle's,
    on instances the goal count refutes and on those it lets through to
    the Steiner table, with and without two-effect good actions."""
    seen = {"refuted": 0, "refuted_transformed": 0, "solved": 0,
            "tabled_no_plan": 0}
    for seed in range(120):
        inst = random_zero_two(seed, n_max=6, m_max=7)
        unmet, fixes = goal_count(inst)
        transformed = _has_two_effect_good_action(inst)
        for k in range(len(inst.goal) + 2):
            r = solve_zero_two(inst, k)
            expected = shortest_plan(inst, k)
            assert (r.plan is not None) == (expected is not None), (inst, k)
            assert r.transformed == transformed
            if unmet > min(k, len(inst.goal)) * fixes:
                assert r.solution is None and expected is None
                seen["refuted"] += 1
                seen["refuted_transformed"] += transformed
            elif r.plan is not None:
                assert validate_plan(inst, r.plan).valid
                assert len(r.plan) <= k
                seen["solved"] += 1
            else:
                seen["tabled_no_plan"] += 1
    assert all(seen.values()), seen


def test_dot_dump(zt1):
    dst = build_dst(zt1, 2)
    dot = steiner_to_dot(dst, zt1)
    assert dot.startswith("digraph") and '"b"' in dot and '"x"' in dot
