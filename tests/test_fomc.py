import dataclasses
import hashlib
import itertools
import random
import time

import pytest

from planlab import fomc
from planlab.core import (Action, ContractError, Instance, classify,
                          validate_plan)
from planlab.fomc import (SIGMA1, SIGMA1_MAX_K, SIGMA22, SIGMA22_MAX_K, And, Atom, Equal,
                          Exists, Forall, Implies, Not, Or, RelationalStructure,
                          TriviallyUnsolvable, build_extended_structure,
                          build_sigma1_formula, build_sigma22_formula,
                          build_structure, compile_query, formula_to_sexpr,
                          model_check_basic, model_check_witness, node_count,
                          prefix_shape, solve_via_mc, structure_to_text)
from planlab.generators import random_instance
from planlab.oracle import DEFAULT_BUDGET, shortest_plan
from planlab.reference import plain_bfs

from conftest import random_small_instance


def test_structure_toy1(toy1):
    s = build_structure(toy1)
    assert s.size == 2 + 2 + 3 + 1
    lay_act, lay_val = lambda a: 2 + a, lambda x: 4 + x
    assert s.relations["EFF_V"] == {(lay_act(0), 0, lay_val(1)),
                                    (lay_act(1), 1, lay_val(1))}
    assert s.relations["PRE"] == {(lay_act(1), 0)}
    assert s.relations["INIT_V"] == {(0, lay_val(0)), (1, lay_val(0))}
    assert s.relations["DOM"] == {(4,), (5,), (6,)}  # 0, 1 and u


def test_structure_empty_action_set():
    s = build_structure(Instance(1, 2, (), (0,), {}))
    dum_a = 1 + 0 + 3  # vars, actions, domain values incl. u
    assert s.relations["ACT"] == {(dum_a,)}
    assert s.relations["GOAL_V"] == frozenset()


def test_extended_structure_toy1(toy1):
    s = build_extended_structure(toy1, 2)
    act, dummy = lambda a: 2 + a, lambda i: 2 + 2 + 3 + 1 + i - 1
    assert s.relations["DUM1"] == {(dummy(1),)}
    assert s.relations["DUM2"] == {(dummy(2),)}
    assert s.arities["DUM1"] == s.arities["DUM2"] == 1
    # a1 has no precondition: two padding rows; a2 deviates on v1: one row
    assert s.relations["DIFF_ACT"] == {
        (act(0), dummy(1)), (act(0), dummy(2)),
        (act(1), 0), (act(1), dummy(1))}
    assert s.relations["DIFF_GOAL"] == {(0,), (1,)}
    for a in range(2):
        rows = [t for t in s.relations["DIFF_ACT"] if t[0] == act(a)]
        assert len(rows) == 2
    # the pinned dummies: a witness binds d_j to the j-th dummy element
    sat, witness, _ = model_check_witness(s, build_sigma1_formula(2))
    assert sat
    assert (witness["d1"], witness["d2"]) == (dummy(1), dummy(2))
    assert (witness["a1"], witness["a2"]) == (act(0), act(1))


def test_extended_structure_rejects_large_diffs():
    # an action deviating on k or more variables cannot fire within k unary
    # steps: it stays an element outside ACT and DIFF_ACT, and the empty
    # plan still solves the empty goal
    inst = Instance(3, 2, (Action("a", {0: 1, 1: 1, 2: 1}, {0: 0}),),
                    (0, 0, 0), {})
    act = 3
    for k in (2, 3):
        s = build_extended_structure(inst, k)
        assert s.universe[act] == ("a", "action")
        assert (act,) not in s.relations["ACT"]
        assert all(row[0] != act for row in s.relations["DIFF_ACT"])
        assert model_check_witness(s, build_sigma1_formula(k))[0]
        assert solve_via_mc(inst, k, SIGMA1).plan == ()
    goal_heavy = Instance(3, 2, (), (0, 0, 0), {0: 1, 1: 1, 2: 1})
    with pytest.raises(TriviallyUnsolvable):
        build_extended_structure(goal_heavy, 2)


def _quantifiers(f):
    if isinstance(f, (Exists, Forall)):
        yield f
        yield from _quantifiers(f.body)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            yield from _quantifiers(p)
    elif isinstance(f, Not):
        yield from _quantifiers(f.part)
    elif isinstance(f, Implies):
        yield from _quantifiers(f.left)
        yield from _quantifiers(f.right)


def test_every_quantifier_states_its_range():
    formulas = ([build_sigma1_formula(k) for k in range(1, SIGMA1_MAX_K + 1)]
                + [build_sigma22_formula(k) for k in range(1, 5)])
    for f in formulas:
        quantifiers = list(_quantifiers(f))
        assert quantifiers
        assert [q.var for q in quantifiers if q.guard is None] == []


def test_sigma22_shape():
    for k in (1, 3):
        e, u, qf = prefix_shape(build_sigma22_formula(k))
        assert (e, u, qf) == (k, 2, True)


def test_sigma1_shape():
    f = build_sigma1_formula(2)
    e, u, qf = prefix_shape(f)
    assert u == 0 and qf
    assert e == 4 * 2 + 2 * 2  # a,v,d,xg blocks of k plus k*k pre values


def test_sigma1_k1_roster():
    e, _, _ = prefix_shape(build_sigma1_formula(1))
    assert e == 5  # one action, vertex, dummy, precondition and goal variable


def test_sigma1_cap(toy1, monkeypatch):
    with pytest.raises(ContractError):
        build_sigma1_formula(9)

    # the refusal comes before a structure with k dummy elements is built
    def no_structure(instance, k):
        raise AssertionError("built the structure before the cap check")

    monkeypatch.setattr(fomc, "build_extended_structure", no_structure)
    with pytest.raises(ContractError):
        solve_via_mc(toy1, SIGMA1_MAX_K + 1, SIGMA1)


def test_solve_via_mc_compiles_once_per_fragment_and_k(toy1, zt1,
                                                       monkeypatch):
    # the formula depends on k alone: the second call at the same
    # (fragment, k) binds the cached program to its own structure and
    # compiles nothing
    programs = fomc._fragment_program
    programs.cache_clear()
    compiled = []
    compile_ = fomc._Compiler.compile
    monkeypatch.setattr(fomc._Compiler, "compile",
                        lambda self, f: compiled.append(f)
                        or compile_(self, f))

    def compiles(instance, k, fragment):
        made = len(compiled)
        solve_via_mc(instance, k, fragment)
        return len(compiled) > made

    solo = Instance(1, 2, (Action("set", {}, {0: 1}),), (0,), {0: 1})
    for fragment, instances in ((SIGMA22, (toy1, zt1)),
                                (SIGMA1, (toy1, solo))):
        assert compiles(instances[0], 2, fragment), fragment
        made = len(compiled)
        r = solve_via_mc(instances[1], 2, fragment)
        assert len(compiled) == made, fragment
        assert r.solvable and validate_plan(instances[1], r.plan).valid
    assert programs.cache_info().currsize == 2

    # the cache holds at most PROGRAM_CACHE_SIZE programs, the least
    # recently used leaving first
    size = fomc.PROGRAM_CACHE_SIZE
    assert programs.cache_info().maxsize == size
    for k in range(1, SIGMA1_MAX_K + 1):
        solve_via_mc(toy1, k, SIGMA1)
    for k in range(1, size + 1):
        solve_via_mc(toy1, k, SIGMA22)
        assert programs.cache_info().currsize <= size
    assert programs.cache_info().currsize == size
    assert not compiles(zt1, 1, SIGMA22)  # (sigma22, 1) is now the newest
    assert compiles(toy1, size + 1, SIGMA22)  # evicts (sigma22, 2)
    assert not compiles(zt1, 1, SIGMA22)
    assert compiles(zt1, 2, SIGMA22)
    # every sigma1 program was used before every sigma22 one, so all left
    assert compiles(toy1, SIGMA1_MAX_K, SIGMA1)

    # a refusal above a cap comes before any structure is built, compiles
    # nothing and is not cached away
    def no_structure(*args):
        raise AssertionError("built a structure before the cap check")

    monkeypatch.setattr(fomc, "build_extended_structure", no_structure)
    monkeypatch.setattr(fomc, "build_structure", no_structure)
    made, held = len(compiled), programs.cache_info().currsize
    for fragment, cap in ((SIGMA1, SIGMA1_MAX_K), (SIGMA22, SIGMA22_MAX_K)):
        for _ in range(2):
            with pytest.raises(ContractError):
                solve_via_mc(toy1, cap + 1, fragment)
    assert len(compiled) == made
    assert programs.cache_info().currsize == held == size


def test_sigma22_cap(toy1):
    # the cap keeps the nested formula clear of Python's recursion limit,
    # even from inside the test runner's stack
    r = solve_via_mc(toy1, SIGMA22_MAX_K, SIGMA22)
    assert r.solvable and validate_plan(toy1, r.plan).valid
    for k in (SIGMA22_MAX_K + 1, 400, 500):
        with pytest.raises(ContractError):
            build_sigma22_formula(k)
        with pytest.raises(ContractError):
            solve_via_mc(toy1, k, SIGMA22)


def test_formula_size_depends_on_k_only(toy1, zt1):
    f3 = build_sigma22_formula(3)
    assert node_count(f3) == node_count(build_sigma22_formula(3))
    text = formula_to_sexpr(f3)
    # building against different instances is impossible by construction;
    # the serialized formula is a pure function of k
    assert text == formula_to_sexpr(build_sigma22_formula(3))
    assert node_count(build_sigma22_formula(4)) > node_count(f3)


def test_sigma1_diff_disjunction_size():
    f = build_sigma1_formula(2)
    text = formula_to_sexpr(f)
    # goal coverage enumerates all subsets J of {1,2}; each of the four
    # disjuncts carries |J| variable atoms plus k-|J| dummy atoms = 2
    assert text.count("DIFF_GOAL") == 8


def test_value_unfolds_to_init():
    f = build_sigma22_formula(1)
    assert "INIT_V" in formula_to_sexpr(f)


def test_model_check_trivial_exists(toy1):
    s = build_structure(toy1)
    assert model_check_witness(s, Exists("x", Equal("x", "x")))[0]
    assert not model_check_witness(s, Exists("x", Not(Equal("x", "x"))))[0]
    assert model_check_witness(s, Forall("x", Equal("x", "x")))[0]


def test_model_check_contract_errors(toy1):
    s = build_structure(toy1)
    with pytest.raises(ContractError):
        model_check_witness(s, Exists("x", Atom("NOPE", ("x",))))
    with pytest.raises(ContractError):
        model_check_witness(s, Exists("x", Atom("VAR", ("x", "x"))))
    with pytest.raises(ContractError):
        model_check_witness(s, Atom("VAR", ("unbound",)))


# Every error a formula meets before evaluation, with its message.  Over
# _EDGE: P, Q and E are unary, R is binary, and there is no S.
COMPILE_ERRORS = [
    ("unknown", Exists("a", Atom("S", ("a",))),
     "formula uses unknown relation 'S'"),
    ("unknown-guard", Exists("a", Equal("a", "a"), "S"),
     "formula uses unknown relation 'S'"),
    ("arity", Exists("a", Atom("R", ("a",))),
     "relation R has arity 2, atom uses 1"),
    ("guard-arity", Forall("a", Equal("a", "a"), "R"),
     "relation R has arity 2, atom uses 1"),
    # one relation at two arities in one formula: the atom at the wrong one
    # is named, whichever comes first
    ("two-arities",
     Exists("a", And((Atom("R", ("a", "a")), Atom("R", ("a",))))),
     "relation R has arity 2, atom uses 1"),
    ("two-arities-wrong-first",
     Exists("a", Or((Atom("P", ("a", "a")), Atom("P", ("a",))))),
     "relation P has arity 1, atom uses 2"),
    ("free", Exists("a", Atom("R", ("a", "x"))),
     "free variable 'x' in formula"),
    ("free-in-block", Exists("a", Forall("x", Atom("P", ("y",)))),
     "free variable 'y' in formula"),
    ("free-closed", Atom("P", ("a",)), "free variable 'a' in formula"),
]


@pytest.mark.parametrize("name, formula, message", COMPILE_ERRORS,
                         ids=[c[0] for c in COMPILE_ERRORS])
def test_compile_error_messages(name, formula, message):
    s = _structure(3, **_EDGE)
    for check in (compile_query, model_check_witness, model_check_basic):
        with pytest.raises(ContractError) as e:
            check(s, formula)
        assert str(e.value) == message, check.__name__


def test_model_check_toy1(toy1):
    s = build_structure(toy1)
    assert model_check_witness(s, build_sigma22_formula(2))[0]
    assert not model_check_witness(s, build_sigma22_formula(1))[0]


def test_witness_is_index_order_first(toy1):
    s = build_structure(toy1)
    sat, witness, _ = model_check_witness(s, build_sigma22_formula(2))
    assert sat
    assert witness["a1"] == 2 and witness["a2"] == 3  # a1 then a2


def test_sigma22_action_levels_take_act_candidates(toy1, zt1):
    for inst in (toy1, zt1, Instance(1, 2, (), (0,), {0: 1})):
        s = build_structure(inst)
        act = sorted(e for (e,) in s.relations["ACT"])
        for k in (1, 3):
            q = compile_query(s, build_sigma22_formula(k))
            assert q.prefix_names == [f"a{i}" for i in range(1, k + 1)]
            for L in range(k):
                assert q.candidates[L] == act


def test_sigma22_refutation_ignores_declared_domain():
    # nothing sets v2, so the goal v2 = 1 is out of reach at every bound
    acts = (Action("set", {1: 1}, {0: 1}), Action("reset", {0: 1}, {0: 0}))
    inst = Instance(2, 2, acts, (0, 0), {1: 1})
    wide = dataclasses.replace(inst, domain_size=64)
    k, m = 3, len(acts)
    assert shortest_plan(wide, k) is None
    narrow_r = solve_via_mc(inst, k, SIGMA22)
    wide_r = solve_via_mc(wide, k, SIGMA22)
    assert not narrow_r.solvable and not wide_r.solvable
    assert narrow_r.assignments == wide_r.assignments
    assert wide_r.assignments <= sum((m + 1) ** i for i in range(1, k + 1))


def test_sigma22_refutation_cost_grows_linearly_in_k(monkeypatch):
    # both actions need v2 = 1, which nothing sets: each prefix level fails
    # its own precondition conjunct on all m + 1 candidates, the dummy
    # action passes, and the conflict names no level above, so the search
    # backjumps instead of trying every action tuple
    acts = (Action("p", {1: 1}, {0: 1}), Action("q", {1: 1}, {0: 0}))
    inst = Instance(2, 2, acts, (0, 0), {0: 1})
    for k in (4, 8, 12):
        t0 = time.perf_counter()
        r = solve_via_mc(inst, k, SIGMA22)
        elapsed = time.perf_counter() - t0
        assert not r.solvable
        assert r.assignments == 3 * k, k
    assert elapsed < 1.0
    k = 4
    q = compile_query(build_structure(inst), build_sigma22_formula(k))
    assert q.const_checks == []
    for i in range(1, k + 1):
        # the SKIP conjunct on (a_i-1, a_i) names those two, the
        # precondition conjunct for a_i names a_1..a_i, and the goal
        # conjunct joins them at the last level
        levels = [lv for _, lv in q.sched[i - 1]]
        assert levels == ([(i - 2, i - 1)] if i > 1 else []) + \
            [tuple(range(i))] * (2 if i == k else 1), i
    # the SKIP conjuncts name neither v nor x, so they run outside the
    # universal block: only the k precondition conjuncts and the goal
    # conjunct get their two quantifiers
    made = []
    quantifier = fomc._quantifier
    monkeypatch.setattr(fomc, "_quantifier",
                        lambda *args: made.append(args) or quantifier(*args))
    compile_query(build_structure(inst), build_sigma22_formula(k))
    assert len(made) == 2 * (k + 1)


def test_solve_via_mc_examples(toy1):
    r = solve_via_mc(toy1, 2, SIGMA22)
    assert r.solvable and r.plan == (0, 1)
    assert not solve_via_mc(toy1, 1, SIGMA22).solvable
    r1 = solve_via_mc(toy1, 2, SIGMA1)
    assert r1.solvable and validate_plan(toy1, r1.plan).valid
    assert not solve_via_mc(toy1, 1, SIGMA1).solvable


def test_solve_via_mc_larger_k(toy1):
    # extra slots may repeat idempotent actions; the plan still validates
    r = solve_via_mc(toy1, 4, SIGMA22)
    assert r.solvable and validate_plan(toy1, r.plan).valid
    assert len(r.plan) <= 4


@pytest.mark.parametrize("fragment", [SIGMA1, SIGMA22])
def test_no_variables_empty_plan(fragment):
    # with no variables the goal holds at the start; sigma1's VAR guards
    # range over nothing, so the route must not reach the formula
    inst = Instance(0, 2, (), (), {})
    for k in range(4):
        r = solve_via_mc(inst, k, fragment)
        assert r.solvable and r.plan == (), k


def test_dummy_action_pads_short_plans():
    # the only valid plan is empty, so every witness slot must take dum_a
    inst = Instance(1, 2, (Action("wreck", {}, {0: 0}),), (1,), {0: 1})
    r = solve_via_mc(inst, 2, SIGMA22)
    assert r.solvable and r.plan == ()


def test_sigma1_requires_unary():
    inst = Instance(2, 2, (Action("ab", {}, {0: 1, 1: 1}),), (0, 0), {0: 1})
    with pytest.raises(ContractError):
        solve_via_mc(inst, 1, SIGMA1)


def test_sigma1_heavy_precondition_action_is_ignored():
    # the unusable detector (3 deviating preconditions > k) must not poison
    # the padded structure; the other actions still solve the goal
    acts = (Action("solve", {}, {0: 1}),
            Action("huge", {0: 1, 1: 1, 2: 1}, {3: 1}))
    inst = Instance(4, 2, acts, (0, 0, 0, 0), {0: 1})
    assert classify(inst).unary
    r = solve_via_mc(inst, 1, SIGMA1)
    assert r.solvable and r.plan == (0,)


def test_sigma1_unfireable_action_keeps_action_ids():
    # "stuck" deviates on 2 > k variables, so it is outside ACT; the
    # witness element of "go" still names action 1
    acts = (Action("stuck", {0: 1, 1: 1}, {2: 1}), Action("go", {}, {2: 1}))
    inst = Instance(3, 2, acts, (0, 0, 0), {2: 1})
    assert solve_via_mc(inst, 1, SIGMA1).plan == (1,)


def test_k0_short_circuit(toy1):
    assert not solve_via_mc(toy1, 0, SIGMA22).solvable
    done = Instance(1, 2, (), (1,), {0: 1})
    assert solve_via_mc(done, 0, SIGMA22).plan == ()


def test_three_way_agreement_sample():
    rng = random.Random(1234)
    for i in range(120):
        n, d, m = rng.randint(2, 5), rng.randint(2, 3), rng.randint(1, 6)
        k = rng.randint(1, 3)
        unary = rng.random() < 0.5
        inst = random_instance(n, d, m, seed=900 + i, unary=unary)
        expected = shortest_plan(inst, k) is not None
        assert solve_via_mc(inst, k, SIGMA22).solvable == expected, (i, k)
        if classify(inst).unary:
            assert solve_via_mc(inst, k, SIGMA1).solvable == expected, (i, k)


def test_witnesses_always_validate():
    rng = random.Random(4321)
    for i in range(60):
        inst = random_instance(rng.randint(2, 4), 2, rng.randint(1, 5),
                               seed=100 + i)
        k = rng.randint(1, 3)
        r = solve_via_mc(inst, k, SIGMA22)
        if r.solvable:
            assert validate_plan(inst, r.plan).valid
            assert len(r.plan) <= k


_MC_CLASSES = {"unconstrained": {}, "unary": {"unary": True},
               "post-unique": {"post_unique": True},
               "(0,2)": {"max_pre": 0, "max_eff": 2},
               "(0,3)": {"max_pre": 0, "max_eff": 3}}


@pytest.mark.parametrize("cls", list(_MC_CLASSES))
def test_verdicts_match_a_search_without_skip_masks(cls):
    """fo-mc against a breadth-first search that tries every action from
    every state.  The oracle shares fo-mc's commute and overwrite rule, so
    a wrong rule would fool a comparison with it; this reference reads no
    rule at all."""
    rng = random.Random(f"fomc-vs-plain-bfs/{cls}")
    kwargs = _MC_CLASSES[cls]
    sigma1_calls = 0
    for i in range(150):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        m = rng.randint(0, min(7, n * d) if "post_unique" in kwargs else 7)
        inst = random_instance(n, d, m, seed=rng.randrange(1 << 30), **kwargs)
        fragments = [SIGMA22] + [SIGMA1] * classify(inst).unary
        for k in range(5):
            plan, _ = plain_bfs(inst, k, DEFAULT_BUDGET)
            for fragment in fragments:
                r = solve_via_mc(inst, k, fragment)
                assert r.solvable == (plan is not None), (i, k, fragment)
                if r.solvable:
                    assert validate_plan(inst, r.plan).valid
                    assert len(r.plan) <= k
            sigma1_calls += SIGMA1 in fragments
    if cls == "unary":
        assert sigma1_calls == 750


def _skip_rows(s):
    """SKIP's rows as pairs of element names."""
    return {tuple(s.universe[e][0] for e in row) for row in s.relations["SKIP"]}


_x, _y = 0, 1
# (name, instance, rows in SKIP, rows not in it, bound, sigma22 plan)
SKIP_CASES = [
    # a repeat leaves the state as it is: the plan is set, not set set
    ("repeat", Instance(1, 2, (Action("set", {}, {_x: 1}),), (0,), {_x: 1}),
     {("set", "set")}, set(), 2, (0,)),
    # x and y commute: y may follow x, x may not follow y
    ("lower-id-commuting",
     Instance(2, 2, (Action("x", {}, {_x: 1}), Action("y", {}, {_y: 1})),
              (0, 0), {_x: 1, _y: 1}),
     {("y", "x")}, {("x", "y")}, 2, (0, 1)),
    # b writes every field a writes and reads none: a b is b alone, so b a
    # is the first plan in index order
    ("overwriting",
     Instance(2, 2, (Action("a", {}, {_x: 1}),
                     Action("b", {}, {_x: 0, _y: 1})), (0, 0), {_y: 1}),
     {("a", "b")}, {("b", "a")}, 2, (1, 0)),
    # only the empty plan works, so every step takes the dummy action: a
    # dummy may follow a dummy or a real action, but no real action follows
    # a dummy
    ("dummy-before-real",
     Instance(1, 2, (Action("wreck", {}, {_x: 0}),), (1,), {_x: 1}),
     {("dum_a", "wreck")}, {("dum_a", "dum_a"), ("wreck", "dum_a")}, 2, ()),
    # an action with no effects commutes with every action and every
    # action overwrites it: no real action follows it, and it follows no
    # higher id
    ("no-effects",
     Instance(1, 2, (Action("noop", {}, {}), Action("set", {}, {_x: 1})),
              (0,), {_x: 1}),
     {("noop", "noop"), ("noop", "set"), ("set", "noop")}, set(), 2, (1,)),
    # the only plan runs the higher id first, and the two do not commute
    ("higher-id-first",
     Instance(2, 2, (Action("second", {_x: 1}, {_y: 1}),
                     Action("first", {}, {_x: 1})), (0, 0), {_y: 1}),
     set(), {("first", "second")}, 2, (1, 0)),
]


@pytest.mark.parametrize("name, inst, rows, not_rows, k, plan", SKIP_CASES,
                         ids=[c[0] for c in SKIP_CASES])
def test_skip_hand_cases(name, inst, rows, not_rows, k, plan):
    structures = [build_structure(inst)]
    if classify(inst).unary:
        structures.append(build_extended_structure(inst, k))
    for s in structures:
        assert rows <= _skip_rows(s) and not _skip_rows(s) & not_rows
    assert solve_via_mc(inst, k, SIGMA22).plan == plan
    fragments = [SIGMA22] + [SIGMA1] * classify(inst).unary
    for bound in range(4):
        expected, _ = plain_bfs(inst, bound, DEFAULT_BUDGET)
        for fragment in fragments:
            r = solve_via_mc(inst, bound, fragment)
            assert r.solvable == (expected is not None), (bound, fragment)
            if r.solvable:
                assert validate_plan(inst, r.plan).valid
                assert len(r.plan) <= bound


def test_program_evaluator_matches_basic():
    """The scheduled/backjumping evaluator and the textbook recursion answer
    identically.  The textbook recursion enumerates the full universe per
    quantifier, so only small prefixes are comparable."""
    rng = random.Random(5)
    sigma1_checked = 0
    for i in range(25):
        inst = random_small_instance(rng, n_max=3, d_max=2, m_max=3)
        s = build_structure(inst)
        for k in (1, 2):
            f = build_sigma22_formula(k)
            assert model_check_witness(s, f)[0] == \
                model_check_basic(s, f), (i, k)
        if classify(inst).unary and inst.actions and sigma1_checked < 4:
            try:
                se = build_extended_structure(inst, 1)
            except TriviallyUnsolvable:
                continue
            f = build_sigma1_formula(1)
            assert model_check_witness(se, f)[0] == model_check_basic(se, f), i
            sigma1_checked += 1
    assert sigma1_checked > 0


def test_sigma1_evaluators_agree_beside_an_unfireable_action():
    """At k = 1 an action deviating on 2 variables has no ACT row; both
    evaluators and the oracle still agree on the extended structure."""
    rng = random.Random(17)
    f = build_sigma1_formula(1)
    answers = set()
    for i in range(8):
        n = rng.randint(2, 3)
        init = tuple(rng.randrange(2) for _ in range(n))
        acts = [Action(f"a{j}", {u: rng.randrange(2)
                                 for u in rng.sample(range(n),
                                                     rng.randint(0, 1))},
                       {rng.randrange(n): rng.randrange(2)})
                for j in range(rng.randint(0, 2))]
        v, w = rng.sample(range(n), 2)
        acts.insert(rng.randint(0, len(acts)),
                    Action("stuck", {v: 1 - init[v], w: 1 - init[w]},
                           {rng.randrange(n): rng.randrange(2)}))
        goal = {u: rng.randrange(2) for u in rng.sample(range(n),
                                                         rng.randint(0, 1))}
        inst = Instance(n, 2, tuple(acts), init, goal)
        s = build_extended_structure(inst, 1)
        expected = model_check_basic(s, f)
        assert model_check_witness(s, f)[0] == expected, i
        assert expected == (shortest_plan(inst, 1) is not None), i
        answers.add(expected)
    assert answers == {True, False}


_ARITY = {"P": 1, "Q": 1, "E": 1, "R": 2, "S": 2, "F": 4, "Z": 0}


def _structure(size, **rels):
    """A hand-made structure over elements 0..size-1; each keyword names a
    relation of _ARITY and gives its rows."""
    return RelationalStructure(
        tuple((str(e), "element") for e in range(size)),
        {name: frozenset(rows) for name, rows in rels.items()},
        {name: _ARITY[name] for name in rels})


_P, _Q = Atom("P", ("a",)), Atom("Q", ("x",))
_R = Atom("R", ("a", "x"))
# P = {0}, Q = {1, 2}, E = {}, R = {(0, 1), (0, 2), (1, 0)}
_EDGE = dict(P={(0,)}, Q={(1,), (2,)}, E=set(),
             R={(0, 1), (0, 2), (1, 0)})

REWRITE_CASES = [
    # a block conjunct naming no block variable is false: no a is in both
    # P and Q
    ("hoisted-false", 3, _EDGE,
     Exists("a", Forall("x", And((_P, Atom("Q", ("a",)),
                                  Implies(_Q, _R))))), False),
    # a closed block conjunct that is false
    ("hoisted-closed-false", 3, _EDGE,
     Exists("a", Forall("x", And((Exists("y", Atom("E", ("y",))),
                                  Implies(_Q, _R))))), False),
    # the block conjunct P(a) leaves a = 0, and Q's members are
    # R-successors of 0
    ("hoisted-guard", 3, _EDGE,
     Exists("a", Forall("x", And((_P, Implies(_Q, _R))))), True),
    # an implication from an empty relation holds vacuously
    ("empty-guard", 3, _EDGE,
     Exists("a", Forall("x", And((_P, Implies(
         Atom("E", ("x",)), Not(Equal("x", "x"))))))), True),
    ("empty-guard-closed", 3, _EDGE,
     Forall("x", Implies(Atom("E", ("x",)), Atom("E", ("x",)))), True),
    # x = 0 fails the bare block conjunct Q(x)
    ("two-left", 3, _EDGE,
     Exists("a", Forall("x", And((_P, _Q, Implies(_Q, _R))))), False),
    ("two-left-true", 3, _EDGE,
     Exists("a", Forall("x", And((_P, Implies(_Q, _R),
                                  Or((_Q, Not(_Q))))))), True),
    # an antecedent with a binary atom: a = 1 has no R-successor in Q
    ("mixed-guard", 3, _EDGE,
     Exists("a", Forall("x", Implies(And((_Q, _R)), Atom("E", ("x",))))),
     True),
    ("mixed-guard-false", 3, _EDGE,
     Exists("a", Forall("x", And((_P, Implies(And((_Q, _R)),
                                              Atom("E", ("x",))))))), False),
    # a Forall nested below the prefix is not a leading block
    ("nested", 3, _EDGE,
     Exists("a", And((_P, Forall("x", Implies(_Q, _R))))), True),
    ("nested-false", 3, _EDGE,
     Exists("a", And((Not(_P), Forall("x", Implies(_Q, _R))))), False),
    # two universal variables, each with its own guard
    ("two-block-vars", 3, _EDGE,
     Forall("a", Forall("x", Implies(And((_Q, Atom("P", ("a",)))), _R))),
     True),
    # an empty universe: the universal block holds vacuously, so its
    # closed, false conjunct must not be checked outside the block
    ("empty-universe", 0, dict(E=set()),
     Forall("x", And((Exists("y", Equal("y", "y")),
                      Atom("E", ("x",))))), True),
    ("empty-universe-exists", 0, dict(E=set()),
     Exists("a", Forall("x", Atom("E", ("x",)))), False),
    # guarded quantifiers: exists over an empty guard is false, forall over
    # one holds vacuously
    ("exists-empty-guard", 3, _EDGE,
     Exists("a", Forall("x", Implies(_Q, _R)), "E"), False),
    ("forall-empty-guard", 3, _EDGE,
     Exists("a", Forall("x", Not(Equal("x", "x")), "E"), "P"), True),
    # a guard on a quantifier nested below the prefix: R(0, x) holds for
    # every x in Q, and no other a has an R-successor in Q at all
    ("nested-guard", 3, _EDGE,
     Exists("a", And((_P, Forall("x", _R, "Q")))), True),
    ("nested-guard-false", 3, _EDGE,
     Exists("a", And((Not(_P), Forall("x", _R, "Q")))), False),
    # a 4-ary atom: the row (0, 1, 2, 0) has a distinct first and second
    # column and equal first and last; no row has equal middle columns
    # and distinct first and second
    ("arity-4", 3, dict(F={(0, 1, 2, 0), (1, 1, 1, 1)}),
     Exists("a", Exists("x", Exists("y", And((
         Atom("F", ("a", "x", "y", "a")), Not(Equal("a", "x"))))))), True),
    ("arity-4-false", 3, dict(F={(0, 1, 2, 0), (1, 1, 1, 1)}),
     Exists("a", Exists("x", And((Atom("F", ("x", "a", "a", "x")),
                                  Not(Equal("a", "x")))))), False),
    # a 0-ary atom is true iff its relation holds the empty row
    ("arity-0", 3, dict(P={(0,)}, Z={()}),
     Exists("a", And((_P, Atom("Z", ()))), "P"), True),
    ("arity-0-false", 3, dict(P={(0,)}, Z=set()),
     Exists("a", And((_P, Atom("Z", ())))), False),
    # a block conjunct that names no block variable: it holds vacuously
    # when a block guard is empty, and is checked once when it is not
    ("dropped-empty-guard", 3, _EDGE,
     Exists("a", Forall("x", And((Atom("E", ("a",)), Implies(_Q, _R))), "E"),
            "P"), True),
    ("dropped-nonempty-guard", 3, _EDGE,
     Exists("a", Forall("x", And((_P, _R)), "Q")), True),
    ("dropped-nonempty-guard-false", 3, _EDGE,
     Exists("a", Forall("x", And((Not(_P), _R)), "Q")), False),
    # two block variables, the conjunct naming only one of them
    ("dropped-inner-empty", 3, _EDGE,
     Forall("y", Forall("x", Atom("E", ("y",)), "E"), "Q"), True),
    ("dropped-outer-empty", 3, _EDGE,
     Forall("y", Forall("x", Atom("E", ("x",)), "Q"), "E"), True),
    ("dropped-outer-nonempty-false", 3, _EDGE,
     Forall("y", Forall("x", Atom("Q", ("x",)), "P"), "Q"), False),
    # a one-part disjunction is its part: 0 is in P, 0 is not in Q
    ("one-part-or", 3, _EDGE, Exists("a", Or((_P,))), True),
    ("one-part-or-false", 3, _EDGE, Forall("x", Or((_Q,))), False),
]


@pytest.mark.parametrize("name, size, rels, formula, expected", REWRITE_CASES,
                         ids=[c[0] for c in REWRITE_CASES])
def test_universal_block_rewrite_edge_cases(name, size, rels, formula,
                                            expected):
    s = _structure(size, **rels)
    assert model_check_basic(s, formula) == expected
    assert model_check_witness(s, formula)[0] == expected


def test_universal_block_rewrite_matches_basic_random():
    """Random prefix-then-universal formulas over random small structures,
    some quantifiers guarded: the split schedule and the textbook recursion
    agree."""
    rng = random.Random(77)
    unary, binary = ("P", "Q", "E"), ("R", "S")
    for trial in range(400):
        size = rng.randint(0, 4)
        rels = {r: {(e,) for e in range(size) if rng.random() < 0.5}
                for r in unary}
        rels.update({r: {(a, b) for a in range(size) for b in range(size)
                         if rng.random() < 0.4} for r in binary})
        rels["E"] = set()
        ex = [f"a{i}" for i in range(rng.randint(0, 2))]
        fa = [f"x{i}" for i in range(rng.randint(1, 2))]
        names = ex + fa

        def atom():
            if rng.random() < 0.5:
                return Atom(rng.choice(unary), (rng.choice(names),))
            return Atom(rng.choice(binary),
                        (rng.choice(names), rng.choice(names)))

        def literal():
            f = atom() if rng.random() < 0.8 else Equal(rng.choice(names),
                                                        rng.choice(names))
            return Not(f) if rng.random() < 0.3 else f

        parts = []
        for _ in range(rng.randint(0, 2)):
            parts.append(Atom(rng.choice(unary), (rng.choice(ex),))
                         if ex and rng.random() < 0.6 else literal())
        if rng.random() < 0.8:
            guard = [Atom(rng.choice(unary), (x,)) for x in fa
                     if rng.random() < 0.7]
            if rng.random() < 0.3:
                guard.append(literal())
            left = guard[0] if len(guard) == 1 else And(tuple(guard))
            parts.append(Implies(left, Or((literal(), literal()))))
        if rng.random() < 0.2:
            parts.append(literal())
        rng.shuffle(parts)
        f = parts[0] if len(parts) == 1 else And(tuple(parts))

        def guard():  # E is always empty
            return rng.choice(unary) if rng.random() < 0.5 else None
        for x in reversed(fa):
            f = Forall(x, f, guard())
        for a in reversed(ex):
            f = Exists(a, f, guard())
        s = _structure(size, **rels)
        assert model_check_witness(s, f)[0] == model_check_basic(s, f), \
            (trial, formula_to_sexpr(f), rels)


# One formula, compiled once and bound to several structures: (name, size,
# relations, expected) per structure.
SHARED_PROGRAM_CASES = [
    # P(a) names no block variable: it holds vacuously where the block's
    # guard Q is empty, and is checked, and fails, where Q is not
    ("dropped-guard-empty-then-not",
     Exists("a", Forall("x", And((_P, _R)), "Q")),
     [(2, dict(P=set(), Q=set(), R=set()), True),
      (4, dict(P=set(), Q={(1,)}, R={(0, 1)}), False),
      (3, dict(P={(0,)}, Q={(1,), (2,)}, R={(0, 1), (0, 2)}), True)]),
    # the prefix guard P: its candidates are each structure's own
    ("prefix-guard", Exists("a", Exists("x", _R, "Q"), "P"),
     [(3, _EDGE, True), (5, dict(P={(4,)}, Q={(1,)}, R={(0, 1)}), False),
      (5, dict(P={(4,)}, Q={(1,)}, R={(4, 1)}), True)]),
]


@pytest.mark.parametrize("name, formula, cases", SHARED_PROGRAM_CASES,
                         ids=[c[0] for c in SHARED_PROGRAM_CASES])
def test_one_program_many_structures(name, formula, cases):
    structures = [_structure(size, **rels) for size, rels, _ in cases]
    program = fomc.compile_program(formula)
    bound = [compile_query(s, program) for s in structures]
    answers = [fomc.evaluate_program(q) for q in reversed(bound)][::-1]
    for s, (_, _, expected), answer in zip(structures, cases, answers):
        assert answer[0] == expected == model_check_basic(s, formula)
        assert answer == fomc.evaluate_program(compile_query(s, formula))


def test_one_sigma_program_many_instances(toy1, zt1):
    """Each fragment's program at k = 1 and 2, bound to instances of
    different universe sizes, all bound before any is evaluated: witness,
    verdict and assignments are those of a fresh compile for each."""
    unary = [Instance(1, 2, (Action("set", {}, {0: 1}),), (0,), {0: 1}),
             Instance(3, 3, (Action("x", {}, {0: 2}),
                             Action("y", {0: 2}, {2: 1}),
                             Action("z", {}, {1: 1})), (0, 0, 0), {2: 1}),
             Instance(2, 2, (Action("a", {1: 1}, {0: 1}),), (0, 0), {0: 1})]
    for k in (1, 2):
        for formula, structures in (
                (build_sigma22_formula(k),
                 [build_structure(inst) for inst in unary + [toy1, zt1]]),
                (build_sigma1_formula(k),
                 [build_extended_structure(inst, k) for inst in unary])):
            assert len({s.size for s in structures}) > 1
            program = fomc.compile_program(formula)
            bound = [compile_query(s, program) for s in structures]
            answers = [fomc.evaluate_program(q) for q in reversed(bound)][::-1]
            verdicts = set()
            for s, q, (sat, values, assignments) in zip(structures, bound,
                                                        answers):
                witness = dict(zip(q.prefix_names, values)) if sat else None
                assert model_check_witness(s, formula) == \
                    (sat, witness, assignments)
                assert model_check_witness(s, program) == \
                    (sat, witness, assignments)
                assert model_check_basic(s, formula) == sat
                verdicts.add(sat)
            assert verdicts == {True, False}, k


def test_pack_matches_atom_probes():
    """A relation's keys are packed by the rule its atoms probe with, at
    every arity: a tuple is a key iff it is a row."""
    rng = random.Random(29)
    U = 4
    for arity in range(5):
        universe = list(itertools.product(range(U), repeat=arity))
        rows = frozenset(t for t in universe if rng.random() < 0.3)
        keys = fomc._pack(rows, arity, U)
        assert len(keys) == len(rows)
        probe = fomc._atom(-1, tuple(range(arity)), -2)
        for t in universe:
            assert probe([*t, U, keys]) == (t in rows), (arity, t)


def _atoms(rel):
    return lambda *terms: Atom(rel, terms)


_Pn, _Qn, _En, _Rn = _atoms("P"), _atoms("Q"), _atoms("E"), _atoms("R")

# Hand-checked over _EDGE: P = {0}, Q = {1, 2}, E = {},
# R = {(0, 1), (0, 2), (1, 0)}.
SCOPING_CASES = [
    # the block's x shadows the prefix x: forall x P(x) fails at x = 1
    ("block-reuses-prefix-name", Exists("x", Forall("x", _Pn("x"))), False),
    # P(x) names the block variable, not the prefix x
    ("block-reuses-prefix-name-kept",
     Exists("x", Forall("x", And((_Pn("x"), Or((_Qn("x"), Not(_Qn("x")))))))),
     False),
    ("block-reuses-prefix-name-guard",
     Exists("x", Forall("x", Implies(_Qn("x"), Not(_Pn("x"))))), True),
    # R has no loop, so the guarded x never meets R(x, x)
    ("block-guard-shadowed",
     Exists("x", Forall("x", Implies(_Qn("x"), _Rn("x", "x")))), False),
    # the block conjunct P(y) pins y = 0; R(0, 1) and R(0, 2) hold
    ("block-mixes-prefix-and-shadow",
     Exists("y", Exists("x", Forall("x", And((
         _Pn("y"), Implies(_Qn("x"), _Rn("y", "x"))))))), True),
    ("block-mixes-prefix-and-shadow-false",
     Exists("x", Exists("y", Forall("x", And((
         _Qn("y"), Implies(_Qn("x"), _Rn("y", "x"))))))), False),
    # an inner Exists re-binds x; the P(x) after it reads the prefix x again
    ("inner-exists-rebinds",
     Exists("x", And((_Pn("x"), Exists("x", _Qn("x")), _Pn("x")))), True),
    # the same inside an Or, checked at run time: the last Q(x) is the
    # prefix x (1 or 2), not the inner x = 0
    ("inner-exists-rebinds-runtime",
     Exists("x", And((_Qn("x"), Or((_En("x"), And((
         Exists("x", _Pn("x")), _Qn("x")))))))), True),
    ("inner-exists-rebinds-false",
     Exists("x", And((_Qn("x"), Exists("x", _Rn("x", "x"))))), False),
    # an Exists inside the universal block re-binds the prefix name a
    ("block-body-rebinds-prefix-name",
     Exists("a", Forall("x", Implies(_Qn("x"), Exists("a", _Rn("a", "x"))))),
     True),
    ("block-body-rebinds-prefix-name-false",
     Exists("a", Forall("x", Implies(_Qn("x"), Exists("a", And((
         _Rn("a", "x"), Not(_Pn("a")))))))), False),
    # Or, Not and Equal under quantifiers nested below the prefix
    ("nested-or-equal",
     Exists("a", And((_Pn("a"), Forall("x", Or((Equal("x", "a"),
                                                 Not(_Pn("x")))))))), True),
    ("nested-or-equal-false",
     Exists("a", And((_Qn("a"), Forall("x", Or((Equal("x", "a"),
                                                 Not(_Qn("x")))))))), False),
    ("nested-pair",
     Exists("a", Exists("b", And((
         _Qn("a"), _Qn("b"), Not(Equal("a", "b")),
         Forall("x", Implies(_Qn("x"), Or((Equal("x", "a"),
                                           Equal("x", "b"))))))))), True),
    # a = 0 and y = 2: 2 has no R-successor
    ("nested-not-exists",
     Exists("a", And((Not(_Qn("a")), Exists("y", And((
         _Rn("a", "y"), Not(Exists("z", _Rn("y", "z"))))))))), True),
    ("nested-not-exists-false",
     Exists("a", And((_Pn("a"), Forall("y", Implies(
         _Rn("a", "y"), Exists("z", _Rn("y", "z"))))))), False),
]


@pytest.mark.parametrize("name, formula, expected", SCOPING_CASES,
                         ids=[c[0] for c in SCOPING_CASES])
def test_closure_scoping(name, formula, expected):
    s = _structure(3, **_EDGE)
    assert model_check_basic(s, formula) == expected
    assert model_check_witness(s, formula)[0] == expected


def test_closure_scoping_witness():
    s = _structure(3, **_EDGE)
    _, f, _ = next(c for c in SCOPING_CASES
                   if c[0] == "block-mixes-prefix-and-shadow")
    assert model_check_witness(s, f)[:2] == (True, {"y": 0, "x": 0})
    _, f, _ = next(c for c in SCOPING_CASES
                   if c[0] == "inner-exists-rebinds-runtime")
    assert model_check_witness(s, f)[:2] == (True, {"x": 1})


def test_sigma22_over_a_large_arity3_key_space():
    """With 130 domain values the arity-3 relations PRE_V and EFF_V span
    more than 2**21 packed keys; the verdicts still match the oracle."""
    acts = (Action("raise", {}, {0: 129}),
            Action("climb", {0: 129}, {1: 128}),
            Action("drop", {1: 128}, {0: 0}))
    chain = Instance(2, 130, acts, (0, 0), {0: 0, 1: 128})
    draws = [chain] + [random_instance(3, 130, 6, seed=3100 + i)
                       for i in range(4)]
    for inst in draws:
        s = build_structure(inst)
        assert s.size ** 3 > 1 << 21
        assert s.relations["PRE_V"] or s.relations["EFF_V"]
        for k in (1, 2, 3):
            expected = shortest_plan(inst, k)
            r = solve_via_mc(inst, k, SIGMA22)
            assert r.solvable == (expected is not None), (inst, k)
            if r.solvable:
                assert validate_plan(inst, r.plan).valid and len(r.plan) <= k
    assert [solve_via_mc(chain, k).solvable for k in (2, 3)] == [False, True]


def test_structure_debug_text(toy1):
    text = structure_to_text(build_structure(toy1))
    assert "EFF_V" in text and "dum_a" in text


# Digests of the structures in test_structures_are_pinned: one over every
# relation but SKIP, one over SKIP's rows.  A change to the element order, a
# relation's rows, an arity or the TriviallyUnsolvable refusals shows here.
STRUCTURE_DIGEST = \
    "3041c54b576570d30c421acff34dff52cf24b82e32bc55cc7383f567e9d6091c"
SKIP_DIGEST = \
    "96584f4e56379f944be28f3afebd99ee7f970abe31bd082ff69029b2b475f5cd"

_CLASSES = ({}, {"unary": True}, {"post_unique": True},
            {"single_valued": True}, {"max_pre": 0, "max_eff": 2},
            {"post_unique": True, "unary": True})


def _plain_skip(inst, s):
    """SKIP's rows from the definition, on the instance's dicts: (a, b) for
    a and b in ACT when b is a, or b < a and the two commute, or b
    overwrites a; and (dum_a, b) for every real b in ACT.  A one-value
    domain has no fields to conflict on."""
    act = inst.var_count
    ids = [e - act for (e,) in s.relations["ACT"] if e - act < len(inst.actions)]
    dum_a = act + len(inst.actions) + inst.domain_size + 1

    def fields(cond):
        return set(cond) if inst.domain_size > 1 else set()

    def commute(a, b):
        both = fields(a.eff) & fields(b.eff)
        return not (fields(a.eff) & fields(b.pre) or fields(b.eff) & fields(a.pre)
                    or any(a.eff[v] != b.eff[v] for v in both))

    def overwrites(b, a):
        return fields(a.eff) <= fields(b.eff) - fields(b.pre)

    acts = inst.actions
    return ({(act + a, act + b) for a in ids for b in ids
             if a == b or b < a and commute(acts[a], acts[b])
             or overwrites(acts[b], acts[a])}
            | {(dum_a, act + b) for b in ids})


def test_structures_are_pinned():
    rng = random.Random(19)
    digest, skip_digest = hashlib.sha256(), hashlib.sha256()
    for i in range(120):
        n, d = rng.randint(1, 5), rng.randint(1, 4)
        m = rng.randint(0, min(7, n * d))
        inst = random_instance(n, d, m, seed=19_000 + i,
                               **_CLASSES[i % len(_CLASSES)])
        structures = [build_structure(inst)]
        for k in range(1, 5):
            try:
                structures.append(build_extended_structure(inst, k))
            except TriviallyUnsolvable as e:
                structures.append(f"TriviallyUnsolvable: {e}")
        for s in structures:
            if isinstance(s, RelationalStructure):
                skip = s.relations["SKIP"]
                assert skip == _plain_skip(inst, s), (i, s.size)
                assert s.arities["SKIP"] == 2
                skip_digest.update(repr(sorted(skip)).encode())
                s = dataclasses.replace(
                    s, relations={r: rows for r, rows in s.relations.items()
                                  if r != "SKIP"},
                    arities={r: a for r, a in s.arities.items() if r != "SKIP"})
                s = structure_to_text(s) + repr(sorted(s.arities.items()))
            digest.update(s.encode())
    assert digest.hexdigest() == STRUCTURE_DIGEST
    assert skip_digest.hexdigest() == SKIP_DIGEST


def test_sexpr_round_readable():
    f = And((Atom("VAR", ("v",)), Or((Equal("v", "v"), Not(Equal("v", "v"))))))
    assert formula_to_sexpr(Implies(f, f)).startswith("(implies")
    assert formula_to_sexpr(Exists("v", f, "VAR")) == \
        "(exists (v VAR) " + formula_to_sexpr(f) + ")"
    # formulas that differ only in a guard print differently
    texts = {formula_to_sexpr(q("v", f, guard))
             for q in (Exists, Forall) for guard in (None, "VAR", "DOM")}
    assert len(texts) == 6
