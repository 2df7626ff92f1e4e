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


def _brute_force_shortest(inst, k):
    for length in range(k + 1):
        for seq in product(range(len(inst.actions)), repeat=length):
            if is_valid_plan(inst, seq):
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
    with pytest.raises(BudgetExhausted) as err:
        shortest_plan(inst, 8, budget=10)
    assert err.value.visited == 11
    assert shortest_plan(inst, 8) is not None
    # 3 ternary variables, each settable to 1 or 2: the search stops on the
    # state one past the budget
    acts = tuple(Action(f"s{v}x{x}", {}, {v: x})
                 for v in range(3) for x in (1, 2))
    inst = Instance(3, 3, acts, (0, 0, 0), {v: 2 for v in range(3)})
    for budget in (1, 5, 12):
        with pytest.raises(BudgetExhausted) as err:
            shortest_plan(inst, 3, budget=budget)
        assert err.value.visited == budget + 1
    assert shortest_plan(inst, 3) == (1, 3, 5)


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
    assert oracle.shortest_plan_with_stats(inst, 4) == ((0, 1, 4), 12)
    # the same instance over a ternary domain: 2-bit fields, 144-bit states
    ternary = Instance(n, 3, acts, init, {64: 1, 0: 0, 70: 1})
    assert oracle.shortest_plan_with_stats(ternary, 4) == ((0, 1, 4), 12)
