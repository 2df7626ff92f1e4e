import hashlib
import random
import time

import pytest

from planlab.core import Action, ContractError, Instance, validate_plan
from planlab import postunique, reference
from planlab.generators import (InstanceBuilder, MulticoloredGraph,
                                compose_pub, from_mcc_ubs, normalize_edge,
                                or2_gadget, random_instance)
from planlab.oracle import BudgetExhausted, shortest_plan
from planlab.postunique import (RequiredPair, find_required_pair,
                                shortest_plan_with_stats, solve_postunique)
from planlab.reference import apply_action, enumerate_minimal_plans

from conftest import random_small_instance


def test_required_pair_examples(toy1):
    assert find_required_pair(toy1, ()) == RequiredPair(0, 1, 0, 1)
    assert find_required_pair(toy1, (1,)) == RequiredPair(0, 1, 0, 1)
    assert find_required_pair(toy1, (0, 1)) is None


def test_required_pair_window():
    # v0 is set then knocked back down; the goal needs it again
    acts = (Action("up", {}, {0: 1}), Action("down", {}, {0: 0}))
    inst = Instance(1, 2, acts, (0,), {0: 1})
    pair = find_required_pair(inst, (0, 1))
    assert pair == RequiredPair(0, 1, 2, 3)


def reference_required_pair(inst, seq):
    """The definition in find_required_pair's docstring, spelled out: the
    first unmet precondition or goal pair in (j, variable) order, and the
    smallest i such that states i..j-1 all miss it."""
    states = [inst.init]
    for aid in seq:
        states.append(apply_action(states[-1], inst.actions[aid]))
    needs = [inst.actions[aid].pre for aid in seq] + [inst.goal]
    for j, need in enumerate(needs, start=1):
        for v in sorted(need):
            x = need[v]
            if states[j - 1][v] != x:
                i = min(i for i in range(j)
                        if all(s[v] != x for s in states[i:j]))
                return RequiredPair(v, x, i, j)
    return None


def set_clear_set(rng, inst):
    """A sequence that sets one value of a variable, clears it and sets it
    again, with random actions around each step; a random sequence when no
    variable has producers of two values."""
    m = len(inst.actions)
    v = rng.randrange(inst.var_count)
    by_value = {}
    for aid, action in enumerate(inst.actions):
        if v in action.eff:
            by_value.setdefault(action.eff[v], []).append(aid)
    if len(by_value) < 2:
        return tuple(rng.randrange(m) for _ in range(rng.randint(0, 5)))
    x, y = rng.sample(sorted(by_value), 2)
    seq = []
    for value in (x, y, x):
        seq += [rng.randrange(m) for _ in range(rng.randint(0, 1))]
        seq.append(rng.choice(by_value[value]))
    return tuple(seq)


def test_required_pair_none_iff_valid():
    rng = random.Random(61803)
    late_windows = 0
    for draw in range(1200):
        wide = draw >= 400  # domains 3-4 and set/clear/set-again sequences
        if draw >= 800:
            # domains 1 and 5-8: packed fields 0 and 3 bits wide
            d = rng.choice((1, 5, 6, 7, 8))
            inst = random_small_instance(rng, n_max=3, d_min=d, d_max=d,
                                         m_max=6)
        elif wide:
            inst = random_small_instance(rng, n_max=3, d_min=3, d_max=4,
                                         m_max=6)
        else:
            inst = random_small_instance(rng, n_max=4, d_max=3, m_max=5)
        if not inst.actions:
            continue
        if wide:
            seq = set_clear_set(rng, inst)
        else:
            seq = tuple(rng.randrange(len(inst.actions))
                        for _ in range(rng.randint(0, 5)))
        pair = find_required_pair(inst, seq)
        assert pair == reference_required_pair(inst, seq), (inst, seq)
        assert (pair is None) == validate_plan(inst, seq).valid
        late_windows += wide and pair is not None and pair.i > 0
    assert late_windows >= 60  # 69 with this seed, 45 of them at d = 3-4


def _pinned_cases():
    """Seeded random P instances (n 1-5, d 1-5, k 0-7), a compose-pub
    composition one and two below its bound, the four OR gadgets at their
    bound and mcc-ubs on the complete 3x1 graph at k = 4, 6 and 8."""
    rng = random.Random(0x9E37)
    cases = []
    for i in range(600):
        n, d = rng.randint(1, 5), rng.randint(1, 5)
        m = rng.randint(1, min(8, n * d))
        inst = random_instance(n, d, m, seed=70_000 + i, post_unique=True)
        cases.append((inst, rng.randint(0, 7)))
    pub, bound = compose_pub([
        (random_instance(3, 2, 4, seed=s, post_unique=True, unary=True), 1)
        for s in (5, 6, 7)])
    cases += [(pub, bound - 2), (pub, bound - 1)]
    for v1 in (0, 1):
        for v2 in (0, 1):
            b = InstanceBuilder(domain_size=2)
            x, y = b.add_variable("v1", init=v1), b.add_variable("v2", init=v2)
            b.set_goal(or2_gadget(b, x, y, "o").out, 1)
            cases.append((b.build(), 6))
    ubs, _ = from_mcc_ubs(MulticoloredGraph(3, 1, tuple(
        normalize_edge((i, 0), (j, 0))
        for i in range(1, 4) for j in range(i + 1, 4))))
    cases += [(ubs, k) for k in (4, 6, 8)]
    return cases


def test_search_pinned():
    # one digest over every case's (plan, labels) from the shortest-plan
    # search and (plans, labels) from the enumeration; it was computed when
    # each pair came from validate_plan's report, and however a label is
    # replayed, every label, plan and count must stay as they were
    digest = hashlib.sha256()
    for inst, k in _pinned_cases():
        result = solve_postunique(inst, k)
        digest.update(repr((shortest_plan_with_stats(inst, k),
                            result.plans, result.node_count)).encode())
    assert digest.hexdigest() == (
        "c1bb0503ac332e45215145372c952037ee5e46cb5bceb7664dc896bdd8586321")


def test_label_budget(toy1):
    # the budget caps the distinct labels queued, the empty one included:
    # toy1 at k = 2 queues 1, 1 and 2 labels, so a budget of 4 answers and
    # 3 runs out on the last level
    assert shortest_plan_with_stats(toy1, 2, budget=4) == ((0, 1), 4)
    for budget in (0, 1, 3):
        with pytest.raises(BudgetExhausted) as err:
            shortest_plan_with_stats(toy1, 2, budget=budget)
        assert err.value.visited == budget + 1
        assert str(err.value).endswith(f"after {budget + 1} labels")


def test_producer(toy1):
    table = postunique._producer_table(toy1)
    assert table[(0, 1)] == 0
    assert (0, 0) not in table
    assert table[(1, 1)] == 1


def test_producer_contract():
    acts = (Action("a", {}, {0: 1}), Action("b", {}, {0: 1}))
    inst = Instance(1, 2, acts, (0,), {0: 1})
    with pytest.raises(ContractError):
        postunique._producer_table(inst)


def test_solve_toy1(toy1):
    result = solve_postunique(toy1, 2)
    assert result.plans == ((0, 1),)
    assert solve_postunique(toy1, 1).plans == ()


def test_huge_bound_answers_at_once(toy1):
    # the (k+1)**(k+1) label check must not build that integer for large k
    started = time.perf_counter()
    assert shortest_plan_with_stats(toy1, 10 ** 6) == ((0, 1), 4)
    assert solve_postunique(toy1, 10 ** 6).plans == ((0, 1),)
    assert time.perf_counter() - started < 1.0


def test_no_producer_single_failure_node():
    # the goal's pair has no producer: the empty label is the only one
    inst = Instance(1, 2, (Action("down", {}, {0: 0}),), (0,), {0: 1})
    result = solve_postunique(inst, 3)
    assert result.plans == ()
    assert result.node_count == 1
    assert shortest_plan_with_stats(inst, 3) == (None, 1)


def test_contract_requires_post_unique():
    acts = (Action("a", {}, {0: 1}), Action("b", {}, {0: 1}))
    inst = Instance(1, 2, acts, (0,), {0: 1})
    with pytest.raises(ContractError):
        solve_postunique(inst, 1)
    with pytest.raises(ContractError):
        shortest_plan_with_stats(inst, 1)


def test_negative_k_rejected(toy1):
    with pytest.raises(ValueError):
        solve_postunique(toy1, -1)
    with pytest.raises(ValueError):
        shortest_plan_with_stats(toy1, -1)


def test_tree_shape(toy1):
    # labels by level: (); (a1,); (a2, a1) and the plan (a1, a2)
    k = 2
    result = solve_postunique(toy1, k)
    assert result.plans == ((0, 1),)
    assert result.node_count == 4 <= (k + 1) ** (k + 1)
    assert shortest_plan_with_stats(toy1, k) == ((0, 1), 4)
    # at k = 1 the search stops after the first two levels
    assert solve_postunique(toy1, 1).node_count == 2
    assert shortest_plan_with_stats(toy1, 1) == (None, 2)
    # the goal already holds: the empty plan, after one label
    done = Instance(1, 2, toy1.actions[:1], (1,), {0: 1})
    assert shortest_plan_with_stats(done, 2) == ((), 1)
    assert solve_postunique(done, 2).plans == ((),)


def test_rerun_identical():
    rng = random.Random(4242)
    for i in range(40):
        n, d = rng.randint(2, 5), rng.randint(2, 3)
        inst = random_instance(n, d, rng.randint(1, min(8, n * d)), seed=i,
                               post_unique=True)
        k = rng.randint(0, 4)
        a, b = solve_postunique(inst, k), solve_postunique(inst, k)
        assert a.plans == b.plans and a.node_count == b.node_count
        assert shortest_plan_with_stats(inst, k) == \
            shortest_plan_with_stats(inst, k)


def test_shortest_matches_oracle():
    # the criterion-2 distribution: the first plan level's smallest label
    # is the oracle's shortest plan, and solving examines no more labels
    # than enumerating
    rng = random.Random(0x5107)
    lengths = []
    for i in range(320):
        n = rng.randint(2, 6)
        d = rng.randint(2, 3)
        m = rng.randint(1, min(8, n * d))
        k = rng.randint(0, 5)
        inst = random_instance(n, d, m, seed=91_000 + i, post_unique=True)
        plan, labels = shortest_plan_with_stats(inst, k)
        assert plan == shortest_plan(inst, k), (i, k)
        assert 1 <= labels <= solve_postunique(inst, k).node_count \
            <= (k + 1) ** (k + 1)
        if plan is not None:
            lengths.append(len(plan))
    assert 50 <= len(lengths) <= 270 and {0, 1, 2} <= set(lengths)


@pytest.mark.parametrize("seed", range(30))
def test_matches_enumeration(seed):
    rng = random.Random(seed)
    n, d = rng.randint(2, 5), rng.randint(2, 3)
    m = rng.randint(1, min(6, n * d))
    inst = random_instance(n, d, m, seed=seed * 31 + 7, post_unique=True,
                           max_eff=max(1, n * d // m))
    k = rng.randint(0, 4)
    result = solve_postunique(inst, k)
    expected = enumerate_minimal_plans(inst, k)
    assert set(result.plans) == set(expected), (inst, k)
    assert result.node_count <= (k + 1) ** (k + 1)


def test_plans_with_repeated_actions_are_found():
    # reaching the goal forces the unique producer of v0=1 to run twice
    acts = (Action("up", {}, {0: 1}), Action("step", {0: 1}, {0: 0, 1: 1}),
            Action("fin", {0: 1, 1: 1}, {2: 1}))
    inst = Instance(3, 2, acts, (0, 0, 0), {2: 1})
    result = solve_postunique(inst, 4)
    assert (0, 1, 0, 2) in result.plans
    for plan in result.plans:
        assert validate_plan(inst, plan).valid


def test_minimality_needs_no_subsequence_check(monkeypatch):
    # Each instance reaches a plan with a valid proper subsequence; the
    # search drops it without the reference's subsequence enumeration.
    cases = []
    for seed in (61, 144, 151, 228):
        rng = random.Random(seed)
        n, d = rng.randint(1, 4), rng.randint(2, 3)
        m = rng.randint(1, min(5, n * d))
        inst = random_instance(n, d, m, seed=seed, post_unique=True,
                               max_pre=1)
        cases.append((inst, enumerate_minimal_plans(inst, 4)))

    def refuse(*args):
        raise AssertionError("post-unique borrowed the reference's test")

    monkeypatch.setattr(reference, "is_minimal_plan", refuse)
    monkeypatch.setattr(postunique, "is_minimal_plan", refuse, raising=False)
    for inst, expected in cases:
        reached = sum(len(plans) for plans, _ in postunique._levels(inst, 4))
        assert solve_postunique(inst, 4).plans == expected
        assert reached > len(expected)
