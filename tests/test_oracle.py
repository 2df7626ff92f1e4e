import random
from itertools import product

import pytest

from planlab.core import Action, Instance
from planlab import oracle
from planlab.generators import HittingSetInput, from_hitting_set
from planlab.oracle import (BudgetExhausted, enumerate_minimal_plans,
                            is_valid_plan, shortest_plan)

from conftest import random_small_instance


def test_shortest_toy1(toy1):
    assert shortest_plan(toy1, 2) == (0, 1)
    assert shortest_plan(toy1, 1) is None


def test_shortest_hitting_set_example():
    inst, k = from_hitting_set(HittingSetInput(3, ((1, 2), (2, 3)), 1))
    # brute force over all length-1 sequences: only element 2 hits both sets
    ok = [seq for seq in product(range(3), repeat=1) if is_valid_plan(inst, seq)]
    assert ok == [(1,)]
    assert shortest_plan(inst, k) == (1,)


def test_shortest_is_truly_shortest_and_lex_smallest():
    rng = random.Random(424242)
    for _ in range(150):
        inst = random_small_instance(rng, n_max=3, d_max=3, m_max=4)
        k = rng.randint(0, 3)
        got = shortest_plan(inst, k)
        best = None
        for length in range(k + 1):
            for seq in product(range(len(inst.actions)), repeat=length):
                if is_valid_plan(inst, seq):
                    best = seq
                    break
            if best is not None:
                break
        assert got == best, (inst, k)


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
            assert is_valid_plan(inst, plan)
            for drop in range(len(plan)):
                assert not is_valid_plan(inst, plan[:drop] + plan[drop + 1:])


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
    with pytest.raises(BudgetExhausted):
        shortest_plan(inst, 8, budget=10)
    assert shortest_plan(inst, 8) is not None


def test_empty_plan_when_goal_holds():
    inst = Instance(1, 2, (), (1,), {0: 1})
    assert shortest_plan(inst, 0) == ()
    assert enumerate_minimal_plans(inst, 2) == ((),)


def test_general_domain_path():
    # domain size 3 exercises the mixed-radix search path
    acts = (Action("bump", {}, {0: 1}), Action("top", {0: 1}, {0: 2}))
    inst = Instance(1, 3, acts, (0,), {0: 2})
    assert shortest_plan(inst, 2) == (0, 1)
    assert shortest_plan(inst, 1) is None


def test_binary_path_beyond_64_variables():
    # 72 binary variables: the packed states need more than 64 bits, and the
    # bitmask search must agree with the mixed-radix one on plan and visits
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
    binary = oracle._bfs_binary(inst, 4, oracle.DEFAULT_BUDGET)
    assert binary[0] == (0, 1, 4)
    assert binary == oracle._bfs_general(inst, 4, oracle.DEFAULT_BUDGET)
