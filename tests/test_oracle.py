import random
from itertools import product

import pytest

from planlab.core import (Action, ContractError, Instance, commute, pack,
                          validate_plan)
from planlab import oracle
from planlab.generators import (HittingSetInput, MulticoloredGraph,
                                from_hitting_set, from_mcc_03, from_mcc_ubs,
                                random_instance)
from planlab.oracle import DEFAULT_BUDGET, BudgetExhausted, shortest_plan
from planlab.reference import enumerate_minimal_plans, plain_bfs

from conftest import random_small_instance


def test_shortest_toy1(toy1):
    assert shortest_plan(toy1, 2) == (0, 1)
    assert shortest_plan(toy1, 1) is None


def test_shortest_hitting_set_example():
    inst, k = from_hitting_set(HittingSetInput(3, ((1, 2), (2, 3)), 1))
    # brute force over all length-1 sequences: only element 2 hits both sets
    ok = [seq for seq in product(range(3), repeat=1)
          if validate_plan(inst, seq).valid]
    assert ok == [(1,)]
    assert shortest_plan(inst, k) == (1,)


def _brute_force_shortest(inst, k):
    for length in range(k + 1):
        for seq in product(range(len(inst.actions)), repeat=length):
            if validate_plan(inst, seq).valid:
                return seq
    return None


def test_shortest_is_truly_shortest_and_lex_smallest():
    rng = random.Random(424242)
    for _ in range(150):
        inst = random_small_instance(rng, n_max=3, d_max=3, m_max=4)
        k = rng.randint(0, 3)
        assert shortest_plan(inst, k) == _brute_force_shortest(inst, k), (
            inst, k)
    # wider domains: d = 4 fills its 2-bit fields; d = 5 and 6 leave 3 and 2
    # of the eight codes of a 3-bit field unused
    for d in (4, 5, 6):
        rng = random.Random(9000 + d)
        for _ in range(60):
            inst = random_small_instance(rng, n_max=3, d_min=d, d_max=d,
                                         m_max=4)
            k = rng.randint(0, 3)
            assert shortest_plan(inst, k) == _brute_force_shortest(inst, k), (
                inst, k)


def test_enumerate_minimal_toy1(toy1):
    # all <=3-step sequences over 2 actions, filtered by validity and
    # subsequence minimality, leave exactly one plan
    assert enumerate_minimal_plans(toy1, 3) == ((0, 1),)


def test_enumerate_unsatisfiable():
    inst = Instance(1, 2, (Action("down", {}, {0: 0}),), (0,), {0: 1})
    assert enumerate_minimal_plans(inst, 4) == ()


def test_enumerate_two_independent_plans():
    inst = Instance(1, 2, (Action("x", {}, {0: 1}), Action("y", {}, {0: 1})),
                    (0,), {0: 1})
    assert enumerate_minimal_plans(inst, 2) == ((0,), (1,))


def test_minimal_plans_validate_and_are_minimal(toy1):
    rng = random.Random(777)
    for _ in range(40):
        inst = random_small_instance(rng, n_max=3, d_max=2, m_max=4)
        for plan in enumerate_minimal_plans(inst, 3):
            assert validate_plan(inst, plan).valid
            for drop in range(len(plan)):
                assert not validate_plan(
                    inst, plan[:drop] + plan[drop + 1:]).valid


def test_monotone_in_k():
    rng = random.Random(31337)
    for _ in range(80):
        inst = random_small_instance(rng, n_max=4, d_max=3, m_max=5)
        for k in range(3):
            if shortest_plan(inst, k) is not None:
                assert shortest_plan(inst, k + 1) is not None


def test_budget_exhaustion_is_distinct():
    # 8 free binary variables: the reachable space dwarfs a budget of 10
    acts = tuple(Action(f"s{v}", {}, {v: 1}) for v in range(8))
    inst = Instance(8, 2, acts, (0,) * 8, {v: 1 for v in range(8)})
    with pytest.raises(BudgetExhausted) as err:
        shortest_plan(inst, 8, budget=10)
    assert err.value.visited == 11
    assert shortest_plan(inst, 8) is not None
    # 3 ternary variables, each settable to 1 or 2: the search stops on the
    # state one past the budget; at k = 3 it keeps 8 states (only those
    # that set a variable to 2), so a budget of 7 runs out on the goal
    acts = tuple(Action(f"s{v}x{x}", {}, {v: x})
                 for v in range(3) for x in (1, 2))
    inst = Instance(3, 3, acts, (0, 0, 0), {v: 2 for v in range(3)})
    assert plain_bfs(inst, 3, DEFAULT_BUDGET, bounded=True) == ((1, 3, 5), 8)
    for budget in (1, 5, 7):
        with pytest.raises(BudgetExhausted) as err:
            shortest_plan(inst, 3, budget=budget)
        assert err.value.visited == budget + 1
    assert shortest_plan(inst, 3) == (1, 3, 5)
    # the initial state counts: a budget of 0 runs out on it, at k = 0 too
    # and when it already meets the goal, where a budget of 1 answers
    met = Instance(3, 3, acts, (2, 2, 2), {v: 2 for v in range(3)})
    for case, k, answer in ((inst, 3, None), (inst, 0, (None, 1)),
                            (met, 0, ((), 1)), (met, 3, ((), 1))):
        with pytest.raises(BudgetExhausted) as err:
            shortest_plan(case, k, budget=0)
        assert err.value.visited == 1
        if answer:
            assert oracle.shortest_plan_with_stats(case, k, 1) == answer


def test_empty_plan_when_goal_holds():
    inst = Instance(1, 2, (), (1,), {0: 1})
    assert shortest_plan(inst, 0) == ()
    assert enumerate_minimal_plans(inst, 2) == ((),)
    # d = 1: every variable is a 0-bit field, so there is one state and the
    # goal (which can only ask for value 0) holds in it
    acts = (Action("stay", {0: 0}, {1: 0}), Action("noop", {}, {0: 0}))
    inst = Instance(3, 1, acts, (0, 0, 0), {1: 0, 2: 0})
    assert oracle.shortest_plan_with_stats(inst, 3) == ((), 1)


def test_general_domain_path():
    # domain size 3 packs each variable into a 2-bit field with one unused code
    acts = (Action("bump", {}, {0: 1}), Action("top", {0: 1}, {0: 2}))
    inst = Instance(1, 3, acts, (0,), {0: 2})
    assert shortest_plan(inst, 2) == (0, 1)
    assert shortest_plan(inst, 1) is None


def test_binary_path_beyond_64_variables():
    # 72 binary variables: the packed states need more than 64 bits
    n = 72
    acts = (Action("seed", {}, {0: 1}),
            Action("far", {0: 1, 70: 1}, {71: 1, 0: 0}),
            Action("noise1", {}, {1: 1}),
            Action("noise2", {}, {65: 1}),
            Action("back", {71: 1}, {64: 1}))
    init = tuple(1 if v == 70 else 0 for v in range(n))
    inst = Instance(n, 2, acts, init, {64: 1, 0: 0, 70: 1})
    assert shortest_plan(inst, 4) == (0, 1, 4)
    assert shortest_plan(inst, 2) is None
    assert oracle.shortest_plan_with_stats(inst, 4) == ((0, 1, 4), 11)
    # the same instance over a ternary domain: 2-bit fields, 144-bit states
    ternary = Instance(n, 3, acts, init, {64: 1, 0: 0, 70: 1})
    assert oracle.shortest_plan_with_stats(ternary, 4) == ((0, 1, 4), 11)


def _oracle_outcome(inst, k, budget):
    try:
        return oracle.shortest_plan_with_stats(inst, k, budget)
    except BudgetExhausted as err:
        return "exhausted", err.visited


def _random_class_instance(rng):
    """A random instance of one restriction class, d from 1 to 4."""
    n, d = rng.randint(1, 5), rng.randint(1, 4)
    flags = rng.choice([{}, {"unary": True}, {"post_unique": True},
                        {"max_pre": 0, "max_eff": 2},
                        {"max_pre": 0, "max_eff": 3}])
    m = rng.randint(0, n * d if flags.get("post_unique") else 8)
    return random_instance(n, d, m, rng.randrange(10 ** 6), **flags)


def _random_graph(rng, parts, per_part):
    vertices = [(i, a) for i in range(1, parts + 1) for a in range(per_part)]
    p = rng.choice([0.5, 0.8, 1.0])
    edges = tuple((u, w) for u in vertices for w in vertices
                  if u < w and u[0] != w[0] and rng.random() < p)
    return MulticoloredGraph(parts, per_part, edges)


def _agrees_with_plain_bfs(inst, k, budget):
    """The oracle's outcome equals the bounded plain search's: plan, visited
    count and exhaustion point.  Wherever the unbounded plain search
    answers, the oracle gives its plan from no more visited states.
    Returns the bounded outcome."""
    got = _oracle_outcome(inst, k, budget)
    bounded = plain_bfs(inst, k, budget, bounded=True)
    assert got == bounded, (inst, k, budget)
    plan, visited = plain_bfs(inst, k, budget)
    if plan != "exhausted":
        assert got[0] == plan and got[1] <= visited, (inst, k, budget)
    return bounded


def test_matches_a_plain_bfs_that_tries_every_action():
    # the pruned search keeps the plain search's plan, and the bounded plain
    # search's visited count and budget-exhaustion point, with and without
    # preconditions
    rng = random.Random(20260417)
    exhausted = 0
    for _ in range(600):
        inst = _random_class_instance(rng)
        k = rng.randint(0, 6)
        budget = rng.choice([1, 3, 8, 20, 60, DEFAULT_BUDGET])
        exhausted += _agrees_with_plain_bfs(inst, k, budget)[0] == "exhausted"
    for reduce, parts, per_part in [(from_mcc_03, 3, 1), (from_mcc_03, 3, 2),
                                    (from_mcc_03, 4, 2), (from_mcc_ubs, 3, 1),
                                    (from_mcc_ubs, 3, 2), (from_mcc_ubs, 4, 2)]:
        for _ in range(3):
            inst, bound = reduce(_random_graph(rng, parts, per_part))
            for k, budget in [(bound, 4000), (bound - 1, 4000),
                              (bound, rng.randint(10, 400))]:
                want = _agrees_with_plain_bfs(inst, k, budget)
                exhausted += want[0] == "exhausted"
    assert exhausted >= 30


def test_skip_mask_hand_cases():
    # each instance's plan needs a successor that a looser skip rule would
    # drop; the search must agree with the plain one at every k and budget
    x, y, z = 0, 1, 2
    cases = [
        # b writes every field a writes but reads one of them: s.a.b is no
        # state that b reaches alone
        (Instance(2, 2, (Action("a", {}, {x: 1}),
                         Action("b", {x: 1}, {x: 0, y: 1})),
                  (0, 0), {y: 1}), (0, 1)),
        # b reads nothing a writes but overwrites only one of a's fields
        (Instance(2, 2, (Action("a", {}, {x: 1, y: 1}),
                         Action("b", {}, {x: 0})),
                  (0, 0), {x: 0, y: 1}), (0, 1)),
        # b (id 0) commutes with a1 but not with a2, which reaches the
        # state after a1: b is skipped after a1 and must be tried after a2
        (Instance(3, 2, (Action("b", {y: 1}, {z: 1}),
                         Action("a1", {}, {x: 1}),
                         Action("a2", {}, {y: 1})),
                  (0, 0, 0), {x: 1, z: 1}), (1, 2, 0)),
        # 2-bit fields: b overwrites a's write of value 0 and is skipped
        # after a; c commutes with a and, with a higher id, is tried
        (Instance(2, 3, (Action("a", {}, {x: 0}),
                         Action("b", {}, {x: 1, y: 2}),
                         Action("c", {}, {y: 2})),
                  (2, 0), {x: 0, y: 2}), (0, 2)),
    ]
    for inst, plan in cases:
        assert shortest_plan(inst, len(plan)) == plan
        for k in range(len(plan) + 2):
            for budget in (0, 1, 2, 3, 4, DEFAULT_BUDGET):
                _agrees_with_plain_bfs(inst, k, budget)


def test_plan_names_the_lowest_action_between_two_states():
    # the parent map keeps no action ids: of two actions that lead from one
    # recorded state to the next, the plan names the lower id, which the
    # search that tries actions in id order records
    acts = (Action("a", {}, {0: 1}), Action("b", {0: 1}, {1: 1}),
            Action("c", {0: 1}, {1: 1}))
    inst = Instance(2, 2, acts, (0, 0), {1: 1})
    assert oracle.shortest_plan_with_stats(inst, 2) == ((0, 1), 3)
    assert plain_bfs(inst, 2, DEFAULT_BUDGET) == ((0, 1), 3)


def _packed(pre, eff, width=1):
    return pack(pre, width) + pack(eff, width)


def test_commute_on_hand_cases():
    sets_x = _packed({}, {0: 1})
    reads_x = _packed({0: 1}, {1: 1})
    # a read-write conflict, in either direction and either argument order
    assert not commute(sets_x, reads_x)
    assert not commute(reads_x, sets_x)
    assert not commute(_packed({1: 0}, {0: 1}), _packed({}, {1: 1}))
    # two writes of different values to one field, and of the same value
    assert not commute(_packed({}, {0: 1, 1: 1}), _packed({}, {0: 0}))
    assert commute(_packed({}, {0: 1, 1: 1}), _packed({}, {0: 1, 2: 0}))
    # an action with no effect commutes with any action that leaves what
    # it reads alone
    noop = _packed({0: 1}, {})
    assert commute(noop, _packed({}, {1: 0}))
    assert not commute(noop, _packed({}, {0: 0}))
    # 2-bit fields: values 1 and 3 share a bit but differ, and a field's
    # neighbour is a different variable
    assert not commute(_packed({}, {0: 1}, 2), _packed({}, {0: 3}, 2))
    assert commute(_packed({}, {0: 3}, 2), _packed({}, {0: 3, 1: 2}, 2))
    assert commute(_packed({}, {0: 3}, 2), _packed({1: 0}, {2: 1}, 2))
    assert not commute(_packed({}, {1: 2}, 2), _packed({1: 0}, {2: 1}, 2))


def test_successor_lists_are_built_per_last_action(monkeypatch):
    # 300 actions, of which only the last three apply anywhere: comm[a] and
    # base[a] are built in one pass of m tests the first time a is a state's
    # last action, not as an m x m table, and never for the initial state,
    # whose rule is fixed.  gate0 sets the goal variable but never applies:
    # one step can fix the goal, so the states one step short of k are kept
    # and expanded, and those of depth k are dropped
    m = 300
    acts = (Action("gate0", {1: 1}, {0: 1}),) + \
        tuple(Action(f"gate{i}", {i: 1}, {i: 0}) for i in range(1, m - 3)) + \
        tuple(Action(f"free{i}", {}, {i: 1}) for i in range(m - 3, m))
    inst = Instance(m, 2, acts, (0,) * m, {0: 1})
    calls = []
    real = oracle.commute
    monkeypatch.setattr(oracle, "commute",
                        lambda a, b: calls.append(a) or real(a, b))
    assert oracle.shortest_plan_with_stats(inst, 1) == (None, 1)
    assert calls == []
    assert oracle.shortest_plan_with_stats(inst, 2) == (None, 4)
    last_actions = 3  # free297, free298 and free299 each reach one state
    assert 0 < len(calls) <= m * last_actions


# The goal-count bound: a state first reached at depth d is dropped when it
# misses more goal variables than (k - d) steps of the action that sets the
# most goal variables could set.

def test_bound_counts_a_wide_field_once():
    # 2-bit fields: goal value 3 differs from 0 in both bits, and folding
    # moves field 1's low bit into field 0's high bit; variable 1 counts
    # once, so one step can still fix it and only the noise state is dropped
    inst = Instance(3, 4, (Action("noise", {}, {2: 3}),
                           Action("set", {}, {1: 3})),
                    (0, 0, 0), {0: 0, 1: 3})
    assert oracle.shortest_plan_with_stats(inst, 1) == ((1,), 2)
    # goal value 2 differs from 0 in the high bit only, which the fold
    # brings down to the low bit that is counted
    inst = Instance(2, 3, (Action("noise", {}, {1: 1}),
                           Action("set", {}, {0: 2})),
                    (0, 0), {0: 2})
    assert oracle.shortest_plan_with_stats(inst, 1) == ((1,), 2)
    for k in range(4):
        _agrees_with_plain_bfs(inst, k, DEFAULT_BUDGET)


def test_bound_divides_by_the_most_goal_variables_one_action_sets():
    # "both" sets two goal variables: fixes = 2, so the initial state's two
    # unmet variables fit in k = 1, and the noise state does not
    inst = Instance(3, 2, (Action("noise", {}, {2: 1}),
                           Action("one", {}, {0: 1}),
                           Action("both", {}, {0: 1, 1: 1})),
                    (0, 0, 0), {0: 1, 1: 1})
    assert oracle.shortest_plan_with_stats(inst, 1) == ((2,), 2)
    for k in range(4):
        _agrees_with_plain_bfs(inst, k, DEFAULT_BUDGET)


def test_no_action_sets_the_goal():
    # fixes = 0: an unmet goal is out of reach at every k, and the search
    # stops on the initial state
    inst = Instance(2, 2, (Action("wrong", {}, {0: 0}),
                           Action("other", {}, {1: 1})),
                    (0, 0), {0: 1})
    for k in range(4):
        assert oracle.shortest_plan_with_stats(inst, k) == (None, 1)
        assert plain_bfs(inst, k, DEFAULT_BUDGET, bounded=True) == (None, 1)
    assert plain_bfs(inst, 3, DEFAULT_BUDGET) == (None, 2)


def test_bound_keeps_the_plan_well_above_the_optimum():
    # the optimum is (a, b) at length 2; at k = 5 reset's state (all four
    # goal variables unmet) is kept at depth 1, and its successor that
    # fixes none of them is dropped at depth 2
    inst = Instance(5, 2, (Action("reset", {}, {0: 0, 1: 0, 2: 0, 3: 0}),
                           Action("noise", {}, {4: 1}),
                           Action("a", {}, {2: 1}),
                           Action("b", {}, {3: 1})),
                    (1, 1, 0, 0, 0), {v: 1 for v in range(4)})
    unbounded = plain_bfs(inst, 5, DEFAULT_BUDGET)
    assert unbounded[0] == (2, 3)
    plan, visited = _agrees_with_plain_bfs(inst, 5, DEFAULT_BUDGET)
    assert plan == (2, 3) and visited < unbounded[1]


def test_no_non_goal_state_of_depth_k_is_recorded():
    # a chain whose goal lies 4 steps away: below k = 4 the states of depths
    # 0 .. k - 1 are recorded, and the chain's state at depth k is not
    acts = tuple(Action(f"step{i}", {i: 1}, {i + 1: 1}) for i in range(4))
    inst = Instance(5, 2, acts, (1, 0, 0, 0, 0), {4: 1})
    for k in range(1, 4):
        assert oracle.shortest_plan_with_stats(inst, k) == (None, k)
        assert plain_bfs(inst, k, DEFAULT_BUDGET) == (None, k + 1)
    assert oracle.shortest_plan_with_stats(inst, 4) == ((0, 1, 2, 3), 5)


def test_regression_instance_shape():
    # goal 0=1 (unmet), 1=0 (met; "wrong" sets it to 1), 2=1 (met, never
    # set wrong: left out); variable 3 is not in the goal
    inst = Instance(4, 3, (Action("wrong", {}, {1: 1, 0: 1}),
                           Action("fix", {}, {1: 0, 2: 1, 3: 2}),
                           Action("noise", {}, {3: 1})),
                    (0, 0, 1, 0), {0: 1, 1: 0, 2: 1})
    derived = oracle.regression_instance(inst)
    assert derived == Instance(4, 2, (Action("wrong", {1: 1}, {0: 1}),
                                      Action("fix", {}, {1: 1}),
                                      Action("noise", {}, {})),
                               (0, 0, 0, 0), {0: 1})
    assert oracle.shortest_plan_with_stats(derived, 2) == ((1, 0), 3)
    assert validate_plan(inst, (0, 1)).valid
    with pytest.raises(ContractError):
        oracle.regression_instance(Instance(1, 2, (Action("a", {0: 0},
                                                          {0: 1}),),
                                            (0,), {0: 1}))


def test_regression_leaves_out_goals_nothing_sets_wrong():
    # one unmet goal variable, and m actions before its fix that each set
    # an already satisfied goal variable to its goal value again.  Those
    # variables stay out of the derived instance, so its search visits the
    # initial state and the goal only; with them in, it would record each
    # re-set state before it reached the goal
    m = 8
    acts = tuple(Action(f"reset{i}", {}, {i: 1}) for i in range(1, m + 1))
    inst = Instance(m + 1, 2, acts + (Action("fix", {}, {0: 1}),),
                    (0,) + (1,) * m, {v: 1 for v in range(m + 1)})
    derived = oracle.regression_instance(inst)
    assert oracle.shortest_plan_with_stats(derived, 0) == (None, 1)
    for k in range(1, m + 2):
        assert oracle.shortest_plan_with_stats(derived, k) == ((m,), 2), k


def _random_delete_free(rng):
    """A random delete-free binary instance: 0-3 preconditions and 1-3
    effects per action, all v=1, and a goal of 1-n variables v=1."""
    n = rng.randint(1, 7)
    acts = tuple(
        Action(f"a{i}",
               dict.fromkeys(rng.sample(range(n), rng.randint(0, min(3, n))),
                             1),
               dict.fromkeys(rng.sample(range(n), rng.randint(1, min(3, n))),
                             1))
        for i in range(rng.randint(1, 9)))
    init = tuple(int(rng.random() < 0.2) for _ in range(n))
    goal = dict.fromkeys(rng.sample(range(n), rng.randint(1, n)), 1)
    return Instance(n, 2, acts, init, goal)


def test_stubborn_mode_agrees_with_plain_bfs():
    # the pruned search keeps the plain search's verdict and plan length on
    # drawn delete-free instances and on derived ones, from fewer states in
    # all than the full search
    rng = random.Random(33)
    instances = [_random_delete_free(rng) for _ in range(500)]
    for _ in range(100):
        instances.append(oracle.regression_instance(random_instance(
            rng.randint(2, 6), rng.randint(2, 4), rng.randint(1, 8),
            rng.randrange(10 ** 6), max_pre=0, max_eff=rng.randint(1, 4))))
    pruned = full = 0
    for inst in instances:
        k = rng.randint(0, 7)
        plan, visited = oracle.shortest_plan_with_stats(inst, k,
                                                        stubborn=True)
        pruned += visited
        full += oracle.shortest_plan_with_stats(inst, k)[1]
        expected, _ = plain_bfs(inst, k, DEFAULT_BUDGET)
        assert (plan is None) == (expected is None), (inst, k)
        if plan is not None:
            assert len(plan) == len(expected), (inst, k)
            assert validate_plan(inst, plan).valid, (inst, k)
    assert pruned < full


def test_stubborn_mode_refuses_deletes_and_wide_domains():
    ok = Instance(2, 2, (Action("a", {0: 1}, {1: 1}),), (1, 0), {1: 1})
    assert oracle.shortest_plan_with_stats(ok, 1, stubborn=True) == ((0,), 2)
    for inst in (Instance(2, 2, (Action("a", {0: 0}, {1: 1}),), (0, 0),
                          {1: 1}),
                 Instance(2, 2, (Action("a", {}, {0: 0, 1: 1}),), (1, 0),
                          {1: 1}),
                 Instance(2, 2, (Action("a", {}, {1: 1}),), (0, 0),
                          {0: 0, 1: 1}),
                 Instance(2, 3, (Action("a", {0: 1}, {1: 1}),), (1, 0),
                          {1: 1})):
        with pytest.raises(ContractError):
            oracle.shortest_plan_with_stats(inst, 1, stubborn=True)


def test_stubborn_mode_drops_the_inherited_skip_masks():
    # the derived instance of routed seed-1 mcc-03-4 (a 3x2 clique
    # encoding): with the inherited skip masks on top of the stubborn sets
    # the search answered no plan at k = 6
    vertices = [Action(f"a.{i}.{a}", {}, {2 * (i - 1) + a: 1})
                for i in (1, 2, 3) for a in (0, 1)]
    edges = [Action(name, {u: 1, w: 1}, {target: 1})
             for name, u, w, target in (("ae.1.0+2.1", 0, 3, 6),
                                        ("ae.1.0+3.1", 0, 5, 7),
                                        ("ae.1.1+2.0", 1, 2, 6),
                                        ("ae.1.1+2.1", 1, 3, 6),
                                        ("ae.1.1+3.0", 1, 4, 7),
                                        ("ae.2.0+3.0", 2, 4, 8),
                                        ("ae.2.1+3.0", 3, 4, 8))]
    inst = Instance(9, 2, tuple(vertices + edges), (0,) * 9,
                    {6: 1, 7: 1, 8: 1})
    plan, visited = oracle.shortest_plan_with_stats(inst, 6, stubborn=True)
    assert len(plan) == 6 and validate_plan(inst, plan).valid
    assert visited < oracle.shortest_plan_with_stats(inst, 6)[1]
    assert oracle.shortest_plan_with_stats(inst, 5, stubborn=True)[0] is None
