import random

import pytest

from planlab.core import (Action, Instance, StructuralError,
                          ValidationReport, classify, delta_vars, diff_set,
                          lint_instance, restrict, validate_plan)
from planlab.reference import (BAD, GOOD, MIXED, apply_action,
                               effect_polarity)

from conftest import random_small_instance


def test_apply(toy1):
    a1, a2 = toy1.actions
    assert apply_action((0, 0), a1) == (1, 0)
    assert apply_action((1, 0), a2) == (1, 1)
    assert apply_action((1, 1), a1) == (1, 1)


def test_validate_plan(toy1):
    ok = validate_plan(toy1, (0, 1))
    assert ok.valid and ok.final_state == (1, 1)
    bad = validate_plan(toy1, (1, 0))
    assert not bad.valid
    assert bad.step == 0 and bad.reason == "precondition" and bad.variable == 0
    empty = validate_plan(toy1, ())
    assert not empty.valid
    assert empty.reason == "goal" and empty.variable == 0


def test_validate_rejects_bad_ids(toy1):
    with pytest.raises(StructuralError):
        validate_plan(toy1, (7,))


def test_action_id(toy1):
    assert toy1.action_id("a2") == 1
    with pytest.raises(KeyError):
        toy1.action_id("a9")


def _validate_stepwise(instance, plan):
    """Reference: a new state tuple per step through apply_action."""
    state = instance.init
    for i, aid in enumerate(plan):
        if not 0 <= aid < len(instance.actions):
            raise StructuralError(f"plan step {i}: action id {aid} out of range")
        action = instance.actions[aid]
        for v, x in sorted(action.pre.items()):
            if state[v] != x:
                return ValidationReport(False, step=i, reason="precondition",
                                        variable=v)
        state = apply_action(state, action)
    for v, x in sorted(instance.goal.items()):
        if state[v] != x:
            return ValidationReport(False, reason="goal", variable=v)
    return ValidationReport(True, final_state=state)


def _outcome(fn, instance, plan):
    try:
        return fn(instance, plan)
    except StructuralError:
        return StructuralError


def test_validate_plan_matches_stepwise_reference():
    rng = random.Random(4242)
    seen = {"valid": 0, "precondition": 0, "goal": 0, "error": 0}
    for _ in range(600):
        inst = random_small_instance(rng, n_max=6, d_max=3, m_max=6)
        m = len(inst.actions)
        plan = []
        state = inst.init
        for _ in range(rng.randint(0, 8)):
            # mostly applicable steps, so that plans get past their first
            # step; now and then any id, an out-of-range one included
            ok = [a for a in range(m) if all(
                state[v] == x for v, x in inst.actions[a].pre.items())]
            if ok and rng.random() < 0.8:
                aid = rng.choice(ok)
            else:
                aid = rng.randint(0, m)
            plan.append(aid)
            if aid < m:
                state = apply_action(state, inst.actions[aid])
        got = _outcome(validate_plan, inst, tuple(plan))
        want = _outcome(_validate_stepwise, inst, tuple(plan))
        assert got == want, (inst, plan)
        if got is StructuralError:
            seen["error"] += 1
        else:
            seen["valid" if got.valid else got.reason] += 1
            if got.valid:
                assert type(got.final_state) is tuple
    assert min(seen.values()) > 0, seen


def test_diff_and_delta(toy1):
    assert diff_set(toy1, toy1.goal) == (0, 1)
    assert diff_set(toy1, toy1.actions[1].pre) == (0,)
    assert diff_set(toy1, toy1.actions[0].pre) == ()
    assert delta_vars(toy1) == (0, 1)
    same = Instance(2, 2, toy1.actions, (0, 0), {0: 0})
    assert delta_vars(same) == ()
    undef = Instance(2, 2, toy1.actions, (0, 0), {1: 1})
    assert delta_vars(undef) == (1,)


def test_classify_toy1(toy1):
    p = classify(toy1)
    assert p.as_dict() == {"P": True, "U": True, "B": True, "S": True,
                           "max_pre": 1, "max_eff": 1}


def test_classify_second_producer(toy1):
    inst = Instance(2, 2, toy1.actions + (Action("a3", {}, {0: 1, 1: 1}),),
                    (0, 0), {0: 1, 1: 1})
    p = classify(inst)
    assert not p.post_unique and not p.unary
    assert p.max_eff == 2


def test_classify_domain_three(toy1):
    inst = Instance(2, 3, toy1.actions, (0, 0), {0: 1})
    assert not classify(inst).binary


def test_classify_single_valued():
    # two prevail-conditions on v0 with different values break S
    acts = (Action("a", {0: 1}, {1: 1}), Action("b", {0: 0}, {1: 0}))
    assert not classify(Instance(2, 2, acts, (0, 0), {})).single_valued
    acts2 = (Action("a", {0: 1}, {1: 1}), Action("b", {0: 1}, {1: 0}))
    assert classify(Instance(2, 2, acts2, (0, 0), {})).single_valued


def test_classify_empty_action_set():
    p = classify(Instance(1, 2, (), (0,), {}))
    assert p.max_pre == 0 and p.max_eff == 0 and p.post_unique


def test_effect_polarity(toy1):
    pol = effect_polarity(toy1, 0)
    assert pol.effects == ((0, GOOD),) and pol.action == GOOD
    down = Instance(1, 2, (Action("a", {}, {0: 0}),), (0,), {0: 1})
    assert effect_polarity(down, 0).action == BAD
    mixed = Instance(2, 2, (Action("a", {}, {0: 1, 1: 0}),), (0, 0),
                     {0: 1, 1: 1})
    assert effect_polarity(mixed, 0).action == MIXED
    # goal undefined on the touched variable counts as good
    free = Instance(1, 2, (Action("a", {}, {0: 0}),), (0,), {})
    assert effect_polarity(free, 0).action == GOOD


def test_restrict(toy1):
    only_v1 = restrict(toy1, {0})
    assert only_v1.var_count == 1
    assert only_v1.actions[1].pre == {0: 1} and only_v1.actions[1].eff == {}
    assert restrict(toy1, {0, 1}) == toy1
    empty = restrict(toy1, set())
    assert validate_plan(empty, ()).valid
    assert validate_plan(empty, (0, 1, 0)).valid


def test_lint_empty_effect():
    inst = Instance(1, 2, (Action("noop", {}, {}),), (0,), {})
    assert lint_instance(inst)
    assert not lint_instance(Instance(1, 2, (), (0,), {}))


def test_instance_invariants_enforced():
    with pytest.raises(StructuralError):
        Instance(1, 2, (), (0, 0), {})  # init too long
    with pytest.raises(StructuralError):
        Instance(1, 2, (), (2,), {})  # init value out of domain
    with pytest.raises(StructuralError):
        Instance(1, 2, (), (0,), {1: 0})  # goal var out of range
    with pytest.raises(StructuralError):
        Instance(1, 2, (Action("a", {}, {0: 1}),) * 2, (0,), {})  # dup name


_OK = Action("ok", {0: 1}, {1: 0})

# Each directly constructed bad Instance with the message it raises: the
# first failing check wins, in the order var_count, domain, init, goal,
# then each action's name, precondition and effect, then var_names.
BAD_INSTANCES = [
    ("var-count", lambda: Instance(-1, 2, (), (), {}),
     "var_count must be non-negative"),
    ("domain", lambda: Instance(1, 0, (), (0,), {}),
     "domain_size must be at least 1"),
    ("init-length", lambda: Instance(1, 2, (), (0, 0), {}),
     "init has 2 entries, expected 1"),
    ("init-value", lambda: Instance(2, 2, (), (0, 2), {}),
     "init[1]=2 outside 0..1"),
    ("goal-var", lambda: Instance(1, 2, (), (0,), {1: 0}),
     "goal: variable 1 out of range"),
    ("goal-value", lambda: Instance(1, 2, (), (0,), {0: -1}),
     "goal: value -1 out of range"),
    ("duplicate-action", lambda: Instance(2, 2, (_OK, _OK), (0, 0), {}),
     "duplicate action name 'ok'"),
    ("pre-var",
     lambda: Instance(2, 2, (_OK, Action("b", {2: 0}, {0: 1})), (0, 0), {}),
     "pre(b): variable 2 out of range"),
    ("pre-value",
     lambda: Instance(2, 3, (Action("b c", {1: 3}, {0: 1}),), (0, 0), {}),
     "pre(b c): value 3 out of range"),
    ("variable-before-value",
     lambda: Instance(2, 2, (Action("b", {3: 9}, {}),), (0, 0), {}),
     "pre(b): variable 3 out of range"),
    ("eff-var",
     lambda: Instance(2, 2, (Action("b", {0: 1}, {-1: 1}),), (0, 0), {}),
     "eff(b): variable -1 out of range"),
    ("eff-value",
     lambda: Instance(2, 2, (Action("b", {}, {1: 2}),), (0, 0), {}),
     "eff(b): value 2 out of range"),
    ("pre-before-eff",
     lambda: Instance(1, 2, (Action("b", {0: 5}, {4: 0}),), (0,), {}),
     "pre(b): value 5 out of range"),
    ("first-action-wins",
     lambda: Instance(1, 2, (Action("x", {}, {0: 9}),
                             Action("y", {7: 0}, {})), (0,), {}),
     "eff(x): value 9 out of range"),
    ("goal-before-actions",
     lambda: Instance(1, 2, (Action("x", {3: 0}, {}),), (0,), {2: 0}),
     "goal: variable 2 out of range"),
    ("duplicate-before-pre",
     lambda: Instance(1, 2, (Action("x", {}, {0: 1}),
                             Action("x", {5: 0}, {})), (0,), {}),
     "duplicate action name 'x'"),
    ("var-names-length",
     lambda: Instance(2, 2, (_OK,), (0, 0), {}, ("p",)),
     "var_names length mismatch"),
    ("var-names-duplicate",
     lambda: Instance(2, 2, (_OK,), (0, 0), {}, ("p", "p")),
     "duplicate variable name"),
]


@pytest.mark.parametrize("name, make, message", BAD_INSTANCES,
                         ids=[c[0] for c in BAD_INSTANCES])
def test_bad_instance_messages(name, make, message):
    with pytest.raises(StructuralError) as e:
        make()
    assert str(e.value) == message


def test_apply_is_pure(toy1):
    state = (0, 0)
    apply_action(state, toy1.actions[0])
    assert state == (0, 0)


def test_prop_restriction_to_effect_vars():
    """A sequence is a plan iff its pre/goal diffs sit inside the touched
    variables and it is a plan for the instance restricted to them."""
    rng = random.Random(5907)
    checked = 0
    for _ in range(300):
        inst = random_small_instance(rng, n_max=4, d_max=3, m_max=5)
        if not inst.actions:
            continue
        seq = tuple(rng.randrange(len(inst.actions))
                    for _ in range(rng.randint(0, 4)))
        touched = sorted({v for aid in seq for v in inst.actions[aid].eff})
        union = set(diff_set(inst, inst.goal))
        for aid in seq:
            union |= set(diff_set(inst, inst.actions[aid].pre))
        covered = union <= set(touched)
        lhs = validate_plan(inst, seq).valid
        rhs = covered and validate_plan(restrict(inst, touched), seq).valid
        assert lhs == rhs, (inst, seq)
        checked += 1
    assert checked > 200


def test_prop_plan_diffs_inside_effect_vars():
    rng = random.Random(7411)
    for _ in range(300):
        inst = random_small_instance(rng, n_max=4, d_max=3, m_max=5)
        if not inst.actions:
            continue
        seq = tuple(rng.randrange(len(inst.actions))
                    for _ in range(rng.randint(0, 4)))
        if not validate_plan(inst, seq).valid:
            continue
        touched = {v for aid in seq for v in inst.actions[aid].eff}
        union = set(diff_set(inst, inst.goal))
        for aid in seq:
            union |= set(diff_set(inst, inst.actions[aid].pre))
        assert union <= touched


def test_prop_bad_action_removal_without_preconditions():
    """In no-precondition instances a bad action can be deleted from any
    valid plan without breaking it."""
    rng = random.Random(90210)
    removed = 0
    for _ in range(400):
        inst = random_small_instance(rng, n_max=4, d_max=3, m_max=5,
                                     no_pre=True)
        if not inst.actions:
            continue
        seq = tuple(rng.randrange(len(inst.actions))
                    for _ in range(rng.randint(1, 5)))
        if not validate_plan(inst, seq).valid:
            continue
        for pos, aid in enumerate(seq):
            if effect_polarity(inst, aid).action == BAD:
                shorter = seq[:pos] + seq[pos + 1:]
                assert validate_plan(inst, shorter).valid
                removed += 1
    assert removed > 0


def test_prop_classify_monotone_under_action_addition():
    rng = random.Random(321)
    for _ in range(200):
        inst = random_small_instance(rng, n_max=4, d_max=3, m_max=5)
        if not inst.actions:
            continue
        smaller = Instance(inst.var_count, inst.domain_size,
                           inst.actions[:-1], inst.init, dict(inst.goal))
        before, after = classify(smaller), classify(inst)
        for flag in ("post_unique", "unary", "single_valued"):
            assert getattr(before, flag) or not getattr(after, flag)
