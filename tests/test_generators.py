import hashlib
import random
from itertools import combinations

import pytest

from planlab.core import (Action, ContractError, Instance, classify,
                          delta_vars, validate_plan)
from planlab.generators import (HittingSetInput, InstanceBuilder,
                                MulticoloredGraph, compose_pub,
                                compose_zero_two, from_hitting_set,
                                from_mcc_03, from_mcc_ubs, normalize_edge,
                                or2_gadget, or_tree, random_instance)
from planlab.io import serialize_instance
from planlab.oracle import shortest_plan
from planlab.reference import brute_force_hitting_set, has_multicolored_clique
from planlab.zerotwo import solve_zero_two


def triangle() -> MulticoloredGraph:
    return MulticoloredGraph(3, 1, tuple(
        normalize_edge((i, 0), (j, 0))
        for i, j in combinations(range(1, 4), 2)))


# ---------------------------------------------------------------------------
# Hitting set
# ---------------------------------------------------------------------------

def test_hitting_set_example():
    inst, k = from_hitting_set(HittingSetInput(3, ((1, 2), (2, 3)), 1))
    assert inst.var_count == 2 and len(inst.actions) == 3
    profile = classify(inst)
    assert profile.binary and profile.max_pre == 0
    assert shortest_plan(inst, k) == (1,)


def test_hitting_set_empty_collection():
    inst, k = from_hitting_set(HittingSetInput(3, (), 0))
    assert validate_plan(inst, ()).valid


def test_hitting_set_rejects_negative_sizes():
    with pytest.raises(ContractError):
        HittingSetInput(-2, (), 1)
    with pytest.raises(ContractError):
        HittingSetInput(3, ((1,),), -1)


def test_hitting_set_k0_unsolvable():
    inst, k = from_hitting_set(HittingSetInput(1, ((1,),), 0))
    assert shortest_plan(inst, k) is None


def test_hitting_set_equivalence_sampled():
    rng = random.Random(99)
    for _ in range(120):
        size = rng.randint(1, 5)
        n_sets = rng.randint(0, 4)
        subsets = tuple(
            tuple(sorted(rng.sample(range(1, size + 1),
                                    rng.randint(1, size))))
            for _ in range(n_sets))
        inp = HittingSetInput(size, subsets, rng.randint(0, 3))
        inst, k = from_hitting_set(inp)
        assert (shortest_plan(inst, k) is not None) == \
            brute_force_hitting_set(inp)


# ---------------------------------------------------------------------------
# Multicolored clique
# ---------------------------------------------------------------------------

def test_mcc_ubs_triangle_structure():
    inst, k = from_mcc_ubs(triangle())
    assert k == 24
    assert inst.var_count == 3 + 6 + 6 + 3
    assert len(inst.actions) == 24
    profile = classify(inst)
    assert profile.unary and profile.binary and profile.single_valued
    assert profile.max_pre <= 1


def test_mcc_ubs_triangle_solvable_exactly_at_bound():
    inst, k = from_mcc_ubs(triangle())
    plan = shortest_plan(inst, k)
    assert plan is not None and len(plan) == 24
    assert shortest_plan(inst, k - 1) is None


def test_mcc_ubs_edgeless_unsolvable():
    g = MulticoloredGraph(2, 1, ())
    inst, k = from_mcc_ubs(g)
    assert k == 7 + 2
    assert shortest_plan(inst, k) is None


def test_mcc_03_triangle():
    inst, k = from_mcc_03(triangle())
    assert k == 6 and inst.var_count == 6 and len(inst.actions) == 6
    profile = classify(inst)
    assert profile.max_pre == 0 and profile.max_eff <= 3 and profile.binary
    plan = shortest_plan(inst, k)
    assert plan is not None and len(plan) == 6
    assert shortest_plan(inst, k - 1) is None


def test_mcc_03_missing_pair_unsolvable():
    g = MulticoloredGraph(2, 1, ())
    inst, k = from_mcc_03(g)
    assert shortest_plan(inst, k) is None


def test_mcc_03_single_edge_k2():
    g = MulticoloredGraph(2, 1, (((1, 0), (2, 0)),))
    inst, k = from_mcc_03(g)
    assert k == 3
    assert shortest_plan(inst, k) is not None


def test_mcc_03_equivalence_exhaustive_n1():
    """All 3-partite graphs with one vertex per part."""
    pairs = list(combinations(range(1, 4), 2))
    for mask in range(8):
        edges = tuple(normalize_edge((i, 0), (j, 0))
                      for bit, (i, j) in enumerate(pairs) if mask >> bit & 1)
        g = MulticoloredGraph(3, 1, edges)
        inst, k = from_mcc_03(g)
        assert (shortest_plan(inst, k) is not None) == \
            has_multicolored_clique(g)


def test_mcc_ubs_equivalence_exhaustive_n1():
    """All 3-partite graphs with one vertex per part, decided by the oracle
    at the claimed bound: only the triangle is solvable."""
    pairs = list(combinations(range(1, 4), 2))
    solvable = []
    for mask in range(8):
        edges = tuple(normalize_edge((i, 0), (j, 0))
                      for bit, (i, j) in enumerate(pairs) if mask >> bit & 1)
        g = MulticoloredGraph(3, 1, edges)
        inst, k = from_mcc_ubs(g)
        plan = shortest_plan(inst, k)
        assert (plan is not None) == has_multicolored_clique(g), mask
        solvable.append(plan is not None)
    assert solvable == [False] * 7 + [True]


def test_mcc_validation():
    with pytest.raises(ContractError):
        MulticoloredGraph(2, 1, (((1, 0), (1, 0)),))  # intra-part edge
    with pytest.raises(ContractError):
        MulticoloredGraph(2, 1, (((2, 0), (1, 0)),))  # not normalized
    with pytest.raises(ContractError, match="outside the partition"):
        MulticoloredGraph(2, 1, (((1, 0), (3, 0)),))
    with pytest.raises(ContractError, match="index out of range"):
        MulticoloredGraph(2, 1, (((1, 0), (2, 1)),))
    with pytest.raises(ContractError, match="duplicate edge"):
        MulticoloredGraph(2, 1, (((1, 0), (2, 0)),) * 2)
    for parts, part_size in ((-1, 1), (2, -1)):
        with pytest.raises(ContractError):
            MulticoloredGraph(parts, part_size, ())
    # no parts: bound 0 and an empty instance
    for fn in (from_mcc_ubs, from_mcc_03):
        inst, k = fn(MulticoloredGraph(0, 1, ()))
        assert (k, inst.var_count, len(inst.actions)) == (0, 0, 0)


# Digest of the reductions' output in test_reductions_are_pinned.  The
# benchmark corpora are built by the same functions, so a change that
# renames, reorders or drops a variable, goal or action shows here.
PINNED_DIGEST = \
    "55451cebeb95e9abbd51a01ecc613b778ad96e3e5db0512c3b7f9c97a97bc23d"


def test_reductions_are_pinned():
    sparse = MulticoloredGraph(3, 2, tuple(
        ((i, a), (j, c)) for i, j in combinations(range(1, 4), 2)
        for a in range(2) for c in range(2) if (i + j + a + c) % 3))
    graphs = (triangle(), sparse, MulticoloredGraph(3, 2, ()))
    calls = [fn(g) for g in graphs for fn in (from_mcc_ubs, from_mcc_03)]
    calls.append(from_hitting_set(HittingSetInput(3, ((1, 2), (2, 3)), 1)))
    digest = hashlib.sha256()
    for inst, bound in calls:
        digest.update(repr((serialize_instance(inst), inst.var_names,
                            list(inst.goal.items()), bound)).encode())
    assert digest.hexdigest() == PINNED_DIGEST


def test_builder_refuses_duplicate_names():
    b = InstanceBuilder(2)
    assert (b.add_variable("x"), b.add_variable("y", init=1)) == (0, 1)
    with pytest.raises(ContractError, match="variable 'x' already exists"):
        b.add_variable("x")
    assert b.add_action("a", {}, {0: 1}) == 0
    with pytest.raises(ContractError, match="action 'a' already exists"):
        b.add_action("a", {1: 1}, {0: 0})
    inst = b.build()
    assert (inst.var_names, inst.init, len(inst.actions)) == \
        (("x", "y"), (0, 1), 1)


# ---------------------------------------------------------------------------
# OR gadget and tree
# ---------------------------------------------------------------------------

def or2_instance(v1: int, v2: int) -> Instance:
    b = InstanceBuilder(2)
    a = b.add_variable("v1", v1)
    c = b.add_variable("v2", v2)
    gadget = or2_gadget(b, a, c, "o")
    b.set_goal(gadget.out, 1)
    return b.build()


@pytest.mark.parametrize("v1,v2", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_or2_truth_table(v1, v2):
    inst = or2_instance(v1, v2)
    assert len(inst.actions) == 7 and inst.var_count == 7
    plan = shortest_plan(inst, 12)
    if v1 or v2:
        assert plan is not None and len(plan) == 6
    else:
        assert plan is None


def test_or2_is_pub():
    profile = classify(or2_instance(1, 0))
    assert profile.post_unique and profile.unary and profile.binary


def test_or_tree_r4():
    for true_at in range(4):
        b = InstanceBuilder(2)
        inputs = [b.add_variable(f"v{i}", 1 if i == true_at else 0)
                  for i in range(4)]
        tree = or_tree(b, inputs, "o")
        b.set_goal(tree.out, 1)
        assert tree.gadget_count == 3
        inst = b.build()
        plan = shortest_plan(inst, 12)
        assert plan is not None and len(plan) <= 12  # 6 * ceil(log2 4)


def test_or_tree_r1_passthrough():
    b = InstanceBuilder(2)
    v = b.add_variable("v", 1)
    tree = or_tree(b, [v], "o")
    b.set_goal(tree.out, 1)
    assert tree.gadget_count == 1
    assert shortest_plan(b.build(), 6) is not None


def test_or_tree_all_false_unsolvable():
    b = InstanceBuilder(2)
    inputs = [b.add_variable(f"v{i}", 0) for i in range(3)]
    tree = or_tree(b, inputs, "o")
    b.set_goal(tree.out, 1)
    assert shortest_plan(b.build(), 12, budget=500_000) is None


# ---------------------------------------------------------------------------
# PUB composition
# ---------------------------------------------------------------------------

def unit_pub(solvable: bool, steps: int = 1) -> Instance:
    """A chain v_1 -> ... -> v_steps; unsolvable variant lacks the first
    producer."""
    acts = []
    for i in range(steps):
        pre = {} if i == 0 else {i - 1: 1}
        acts.append(Action(f"s{i}", pre, {i: 1}))
    if not solvable:
        acts[0] = Action("s0", {steps - 1: 1}, {0: 1})
    return Instance(steps, 2, tuple(acts), (0,) * steps,
                    {steps - 1: 1})


def test_compose_pub_arithmetic(toy1):
    _, kp = compose_pub([(toy1, 2), (toy1, 2)])
    assert kp == 2 + 1 + 6
    _, kp3 = compose_pub([(toy1, 2), (toy1, 2), (toy1, 2)])
    assert kp3 == 2 + 1 + 12


def test_compose_pub_profile(toy1):
    comp, _ = compose_pub([(toy1, 2), (toy1, 2)])
    profile = classify(comp)
    assert profile.post_unique and profile.unary and profile.binary


def test_compose_pub_rejects_non_pub():
    bad = Instance(2, 2, (Action("ab", {}, {0: 1, 1: 1}),), (0, 0), {0: 1})
    with pytest.raises(ContractError):
        compose_pub([(bad, 1), (bad, 1)])


def test_compose_pub_both_unsolvable():
    comp, kp = compose_pub([(unit_pub(False), 1), (unit_pub(False), 1)])
    assert shortest_plan(comp, kp) is None


def test_compose_pub_reverse_direction_holds():
    """Solvable at the claimed bound implies some component is solvable."""
    over, kp = compose_pub([(unit_pub(True, 2), 1), (unit_pub(False), 1)])
    assert shortest_plan(over, kp) is None  # no component solvable at k_i
    plan = shortest_plan(over, kp + 1)
    assert plan is not None and len(plan) == kp + 1
    tight, kp = compose_pub([(unit_pub(True), 1), (unit_pub(False), 1)])
    plan = shortest_plan(tight, kp)
    assert plan is not None and len(plan) == kp


def test_compose_pub_true_threshold():
    """k' is the exact threshold: a component whose shortest plan meets its
    bound (l = k_i = k) gives a shortest composed plan of length exactly k',
    one step of slack fits, and one step over the bound does not."""
    tight, kp = compose_pub([(unit_pub(True, 1), 1), (unit_pub(False, 1), 1)])
    assert shortest_plan(tight, kp - 1) is None
    plan = shortest_plan(tight, kp)
    assert plan is not None and len(plan) == kp
    slack, kp2 = compose_pub([(unit_pub(True, 1), 2), (unit_pub(False, 1), 2)])
    assert shortest_plan(slack, kp2) is not None
    over, kp3 = compose_pub([(unit_pub(True, 3), 2), (unit_pub(False, 1), 2)])
    assert shortest_plan(over, kp3) is None


def test_compose_pub_t3():
    comp, kp = compose_pub([(unit_pub(False), 1), (unit_pub(False), 1),
                            (unit_pub(True), 1)])
    assert kp == 1 + 1 + 12
    plan = shortest_plan(comp, kp, budget=2_000_000)
    # the solvable component sits at the shallow leaf of the 3-input tree,
    # one gadget from the output; its detector chain carries the 6 steps of
    # the missing level, so a tight component costs exactly k'
    assert plan is not None and len(plan) == kp
    over, kp = compose_pub([(unit_pub(False), 1), (unit_pub(False), 1),
                            (unit_pub(True, 2), 1)])
    assert shortest_plan(over, kp, budget=2_000_000) is None


def pub_with_plan(length: int) -> Instance:
    """Post-unique, unary, binary instance whose shortest plan has exactly
    the given length (0: the goal holds initially)."""
    if length == 0:
        return Instance(1, 2, (Action("s0", {}, {0: 1}),), (1,), {0: 1})
    return unit_pub(True, length)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_compose_pub_exact_at_every_position(t):
    """Both directions, at every leaf depth of the OR tree: with one
    component of plan length l at bound k_i and the others unsolvable, the
    composition is solvable at k' iff l <= k_i, and then its shortest plan
    has length k' - (k_i - l)."""
    for pos in range(t):
        for ki in (1, 2):
            for length in (ki - 1, ki, ki + 1):
                comps = [(unit_pub(False), 2)] * t
                comps[pos] = (pub_with_plan(length), ki)
                comp, kp = compose_pub(comps)
                plan = shortest_plan(comp, kp)
                case = (pos, ki, length, kp)
                if length <= ki:
                    assert plan is not None, case
                    assert len(plan) == kp - (ki - length), case
                    assert validate_plan(comp, plan).valid, case
                else:
                    assert plan is None, case


# ---------------------------------------------------------------------------
# (0,2) composition
# ---------------------------------------------------------------------------

def unit_zero_two(solvable: bool) -> Instance:
    eff = {0: 1} if solvable else {0: 0}
    return Instance(1, 2, (Action("flip", {}, eff),), (0,), {0: 1})


def test_compose_zero_two_arithmetic():
    comp, kpp = compose_zero_two([(unit_zero_two(True), 1),
                                  (unit_zero_two(False), 1)])
    assert kpp == 4 * (1 * 4 + 1) + 1 == 21
    profile = classify(comp)
    assert profile.max_pre == 0 and profile.max_eff <= 2


def test_compose_zero_two_equivalence_t2():
    for left in (True, False):
        for right in (True, False):
            comp, kpp = compose_zero_two([(unit_zero_two(left), 1),
                                          (unit_zero_two(right), 1)])
            result = solve_zero_two(comp, kpp)
            assert (result.plan is not None) == (left or right)
            if result.plan is not None:
                assert validate_plan(comp, result.plan).valid
                assert len(result.plan) <= kpp


def test_compose_zero_two_t3():
    comps = [(unit_zero_two(False), 1), (unit_zero_two(True), 1),
             (unit_zero_two(False), 1)]
    comp, kpp = compose_zero_two(comps)
    assert solve_zero_two(comp, kpp).plan is not None


def draw_zero_two_component(rng: random.Random, k: int,
                            solvable: bool) -> Instance:
    """A random component (3 variables, 4 actions, no preconditions, at most
    2 effects) with work to do, solvable at k iff `solvable` by the oracle."""
    while True:
        inst = random_instance(3, 2, 4, seed=rng.randrange(1 << 30),
                               max_pre=0, max_eff=2)
        if (delta_vars(inst)
                and (shortest_plan(inst, k) is not None) == solvable):
            return inst


def zero_two_patterns(t: int):
    """Which components are solvable: each single position, none, and the
    first and last."""
    for pos in range(t):
        yield tuple(i == pos for i in range(t))
    yield (False,) * t
    yield tuple(i in (0, t - 1) for i in range(t))


def check_compose_zero_two(rng: random.Random, k: int, pattern) -> None:
    comps = [(draw_zero_two_component(rng, k, s), k) for s in pattern]
    comp, kpp = compose_zero_two(comps)
    plan = solve_zero_two(comp, kpp).plan
    if any(pattern):
        assert plan is not None, (k, pattern, comps)
        assert validate_plan(comp, plan).valid and len(plan) <= kpp
    else:
        assert plan is None, (k, pattern, comps)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_compose_zero_two_exact_random_components(t):
    """Both directions at k = 1 against the oracle on each component: the
    composition is solvable at k'' iff some component is solvable at k."""
    rng = random.Random(f"compose-02/{t}")
    for _ in range(3):
        for pattern in zero_two_patterns(t):
            check_compose_zero_two(rng, 1, pattern)


def test_compose_zero_two_exact_random_components_k2():
    rng = random.Random("compose-02/k2")
    for pattern in zero_two_patterns(2):
        check_compose_zero_two(rng, 2, pattern)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_compose_zero_two_exact_random_components_k3(t):
    """At k = 3 the composition has k' = 19 terminals b_j; twin-sink
    contraction leaves Dreyfus-Wagner a few of them."""
    rng = random.Random(f"compose-02/k3/{t}")
    for pattern in zero_two_patterns(t):
        check_compose_zero_two(rng, 3, pattern)


def draw_near_miss_component(rng: random.Random, k: int,
                             over: int) -> Instance:
    """A component whose shortest plan is exactly k + over steps: a random
    one as in draw_zero_two_component with a plan of at most k + over
    steps, plus fresh variables that each need one step of their own."""
    while True:
        inst = random_instance(3, 2, 4, seed=rng.randrange(1 << 30),
                               max_pre=0, max_eff=2)
        plan = shortest_plan(inst, k + over)
        if delta_vars(inst) and plan is not None:
            break
    n, pad = inst.var_count, k + over - len(plan)
    comp = Instance(
        n + pad, 2,
        inst.actions + tuple(Action(f"pad{j}", {}, {n + j: 1})
                             for j in range(pad)),
        inst.init + (0,) * pad, {**inst.goal, **{n + j: 1 for j in range(pad)}})
    assert shortest_plan(comp, k) is None
    assert len(shortest_plan(comp, k + over)) == k + over
    return comp


@pytest.mark.parametrize("k, t, shifts", [(1, 2, 3), (1, 3, 3), (1, 4, 3),
                                          (2, 2, 2), (2, 3, 1),
                                          (3, 2, 3), (3, 3, 3), (3, 4, 3)])
def test_compose_zero_two_near_misses_stay_unsolvable(k, t, shifts):
    """The reverse direction in its strong form: components whose shortest
    plans are 1-3 steps over k leave the composition unsolvable at k''.
    Each composition cycles the overshoots 1, 2, 3 through its positions,
    from a different start per shift."""
    rng = random.Random(f"compose-02/near/{k}/{t}")
    for shift in range(shifts):
        comps = [(draw_near_miss_component(rng, k, 1 + (i + shift) % 3), k)
                 for i in range(t)]
        comp, kpp = compose_zero_two(comps)
        assert solve_zero_two(comp, kpp).plan is None, (k, t, shift, comps)


def test_compose_zero_two_rejects_satisfied_goal():
    done = Instance(1, 2, (Action("x", {}, {0: 1}),), (1,), {0: 1})
    with pytest.raises(ContractError):
        compose_zero_two([(done, 1), (unit_zero_two(True), 1)])


def test_compose_zero_two_rejects_mixed_bounds():
    with pytest.raises(ContractError):
        compose_zero_two([(unit_zero_two(True), 1), (unit_zero_two(True), 2)])


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def test_random_deterministic():
    a = random_instance(4, 2, 5, seed=7, post_unique=True)
    b = random_instance(4, 2, 5, seed=7, post_unique=True)
    assert serialize_instance(a) == serialize_instance(b)
    c = random_instance(4, 2, 5, seed=8, post_unique=True)
    assert serialize_instance(a) != serialize_instance(c)


def test_random_respects_flags():
    inst = random_instance(4, 2, 5, seed=7, post_unique=True)
    assert classify(inst).post_unique
    inst = random_instance(5, 2, 6, seed=3, unary=True, single_valued=True)
    profile = classify(inst)
    assert profile.unary and profile.binary and profile.single_valued
    inst = random_instance(5, 3, 6, seed=11, max_pre=0, max_eff=2)
    profile = classify(inst)
    assert profile.max_pre == 0 and profile.max_eff <= 2


def test_random_unsatisfiable_combo():
    with pytest.raises(ContractError):
        random_instance(1, 2, 9, seed=0, post_unique=True)
    with pytest.raises(ContractError):
        random_instance(2, 2, 2, seed=0, unary=True, max_eff=2)
    with pytest.raises(ContractError, match="max_pre"):
        random_instance(3, 2, 3, seed=0, max_pre=-1)


def test_random_sizes_name_their_bound():
    with pytest.raises(ContractError, match="sizes must be positive"):
        random_instance(0, 2, 3, seed=0)
    with pytest.raises(ContractError, match="sizes must be positive"):
        random_instance(3, 0, 3, seed=0)
    with pytest.raises(ContractError,
                       match="num_actions must be non-negative"):
        random_instance(3, 2, -1, seed=0)
    assert random_instance(3, 2, 0, seed=0).actions == ()
