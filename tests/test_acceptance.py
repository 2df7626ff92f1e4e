"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import random
import time
from itertools import combinations

from planlab.core import Action, Instance, classify, validate_plan
from planlab.fomc import SIGMA1, SIGMA22, solve_via_mc
from planlab.generators import (HittingSetInput, InstanceBuilder,
                                MulticoloredGraph, compose_pub,
                                compose_zero_two, from_hitting_set,
                                from_mcc_03, from_mcc_ubs, normalize_edge,
                                or2_gadget, random_instance)
from planlab.io import ParseError, parse_instance, serialize_instance
from planlab.oracle import shortest_plan
from planlab.postunique import (find_required_pair, shortest_plan_with_stats,
                                solve_postunique)
from planlab.reference import (GOOD, brute_force_hitting_set,
                               brute_force_steiner, effect_polarity,
                               enumerate_minimal_plans,
                               has_multicolored_clique)
from planlab.zerotwo import (SteinerInstance, dreyfus_wagner,
                             eliminate_two_effect_good_actions,
                             solve_zero_two)

from test_generators import unit_zero_two


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: {detail} -> PASS")


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_cross_solver_agreement():
    started = time.time()
    rng = random.Random(0xACCE551)
    total, unary_checked = 0, 0
    for i in range(520):
        n = rng.randint(2, 5)
        d = rng.randint(2, 3)
        m = rng.randint(1, 6)
        k = rng.randint(1, 4)
        unary = rng.random() < 0.4
        inst = random_instance(n, d, m, seed=31_000 + i, unary=unary)
        expected = shortest_plan(inst, k) is not None
        got = solve_via_mc(inst, k, SIGMA22)
        assert got.solvable == expected, (i, n, d, m, k)
        if got.plan is not None:
            assert validate_plan(inst, got.plan).valid and len(got.plan) <= k
        if classify(inst).unary:
            got1 = solve_via_mc(inst, k, SIGMA1)
            assert got1.solvable == expected, (i, n, d, m, k)
            unary_checked += 1
        total += 1
    elapsed = time.time() - started
    assert total >= 500 and unary_checked >= 100
    assert elapsed < 300, f"agreement suite took {elapsed:.0f}s"
    report("1", f"{total} instances ({unary_checked} unary), "
                f"0 disagreements, {elapsed:.1f}s")


def _degenerate_instance(rng: random.Random) -> Instance:
    """Often no variables, a one-value domain, no actions or empty effects."""
    n = rng.choice((0, 0, 1, 2, 3))
    d = rng.choice((1, 1, 2, 3))
    actions = []
    for i in range(rng.choice((0, 0, 1, 2, 3))):
        eff_vars = rng.sample(range(n), min(n, rng.choice((0, 1, 1, 2))))
        pre_vars = [] if rng.random() < 0.5 else \
            rng.sample(range(n), rng.randint(0, n))
        actions.append(Action(f"a{i}", {v: rng.randrange(d) for v in pre_vars},
                              {v: rng.randrange(d) for v in eff_vars}))
    init = tuple(rng.randrange(d) for _ in range(n))
    goal = {v: rng.randrange(d)
            for v in rng.sample(range(n), rng.randint(0, n))}
    return Instance(n, d, tuple(actions), init, goal)


def test_criterion_1_degenerate_inputs_on_every_route():
    rng = random.Random(0xDE6E)
    calls = 0
    for i in range(300):
        inst = _degenerate_instance(rng)
        profile = classify(inst)
        for k in range(5):
            shortest = shortest_plan(inst, k)
            answers = {SIGMA22: solve_via_mc(inst, k, SIGMA22).plan}
            if profile.unary:
                answers[SIGMA1] = solve_via_mc(inst, k, SIGMA1).plan
            if profile.post_unique:
                answers["post-unique"] = shortest_plan_with_stats(inst, k)[0]
            if profile.max_pre == 0 and profile.max_eff <= 2:
                answers["zero-two"] = solve_zero_two(inst, k).plan
            for route, plan in answers.items():
                where = (i, k, route, serialize_instance(inst))
                assert (plan is None) == (shortest is None), where
                if plan is not None:
                    assert validate_plan(inst, plan).valid, where
                    assert len(plan) <= k, where
                calls += 1
            if "post-unique" in answers and shortest is not None:
                assert len(answers["post-unique"]) == len(shortest)
    assert calls >= 2500
    report("1", f"{calls} degenerate route calls, 0 disagreements")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_minimal_plan_enumeration():
    rng = random.Random(0xACCE552)
    total = 0
    for i in range(210):
        n = rng.randint(2, 6)
        d = rng.randint(2, 3)
        m = rng.randint(1, min(8, n * d))
        k = rng.randint(0, 5)
        inst = random_instance(n, d, m, seed=47_000 + i, post_unique=True)
        result = solve_postunique(inst, k)
        assert set(result.plans) == set(enumerate_minimal_plans(inst, k)), \
            (i, n, d, m, k)
        assert result.node_count <= (k + 1) ** (k + 1), (i, k)
        total += 1
    assert total >= 200
    report("2", f"{total} post-unique instances, enumeration equal, "
                "node bound held")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_zero_two_pipeline():
    rng = random.Random(0xACCE553)
    total = solved = 0
    for i in range(210):
        n = rng.randint(2, 5)
        m = rng.randint(1, 6)
        k = rng.randint(0, 4)
        inst = random_instance(n, 2, m, seed=53_000 + i, max_pre=0, max_eff=2)
        result = solve_zero_two(inst, k)
        expected = shortest_plan(inst, k)
        assert (result.plan is not None) == (expected is not None), (i, k)
        if result.plan is not None:
            assert validate_plan(inst, result.plan).valid
            assert len(result.plan) <= k
            solved += 1
        total += 1
    assert total >= 200 and solved >= 30

    dw_checked = 0
    for i in range(220):
        nodes = rng.randint(2, 8)
        arcs = sorted({(rng.randrange(nodes), rng.randrange(nodes))
                       for _ in range(rng.randint(1, 12))})
        arcs = tuple(a for a in arcs if a[0] != a[1] and a[1] != 0)
        terminals = tuple(sorted(rng.sample(
            range(1, nodes), rng.randint(1, min(4, nodes - 1)))))
        dst = SteinerInstance(nodes, arcs,
                              {a: j for j, a in enumerate(arcs)},
                              terminals, nodes + len(arcs))
        expected = brute_force_steiner(dst)
        got = dreyfus_wagner(dst)
        assert (got.weight if got else None) == expected, dst
        dw_checked += 1
    report("3", f"{total} (0,2) instances ({solved} solvable) against the "
                f"oracle; Dreyfus-Wagner equals brute force on {dw_checked} "
                "graphs")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_chain_transform_equivalence():
    rng = random.Random(0xACCE554)
    corners = [
        Instance(2, 2, (Action("ab", {}, {0: 1, 1: 1}),), (0, 0),
                 {0: 1, 1: 1}),                      # two-effect good
        Instance(2, 2, (Action("m", {}, {0: 1, 1: 0}),), (0, 0),
                 {0: 1, 1: 1}),                      # mixed only
        Instance(1, 2, (Action("down", {}, {0: 0}),), (0,), {0: 1}),  # bad
        Instance(1, 2, (Action("up", {}, {0: 1}),), (1,), {}),  # empty goal
    ]
    cases = []
    for k in (0, 1, 2):
        for inst in corners:
            cases.append((inst, k))
    for i in range(380):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        inst = random_instance(n, 2, m, seed=61_000 + i, max_pre=0, max_eff=2)
        cases.append((inst, rng.randint(0, 2)))

    for inst, k in cases:
        tr = eliminate_two_effect_good_actions(inst, k)
        assert tr.bound == k * (k + 3) + 1
        out = tr.instance
        profile = classify(out)
        assert profile.max_pre == 0 and profile.max_eff <= 2 and profile.binary
        for aid in range(len(out.actions)):
            pol = effect_polarity(out, aid)
            assert not (pol.action == GOOD and len(out.actions[aid].eff) == 2)
        before = shortest_plan(inst, k) is not None
        after = shortest_plan(out, tr.bound) is not None
        assert before == after, (inst, k)
    report("4", f"{len(cases)} transforms: bound k(k+3)+1, syntactic "
                "postconditions, oracle equivalence")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_reduction_equivalences():
    # Hitting set: every collection of at most 4 distinct nonempty subsets
    # of a 5-element ground set, at every bound up to 3.
    subsets = [tuple(sorted(c))
               for r in range(1, 6) for c in combinations(range(1, 6), r)]
    hs_cases = 0
    for size in range(5):
        for collection in combinations(subsets, size):
            for k in range(4):
                inp = HittingSetInput(5, collection, k)
                inst, bound = from_hitting_set(inp)
                assert bound == k
                assert (shortest_plan(inst, bound) is not None) == \
                    brute_force_hitting_set(inp)
                hs_cases += 1

    # Multicolored clique, (0,3) route: every 3-partite graph with at most
    # 2 vertices per part.
    mcc_cases = 0
    for per_part in (1, 2):
        pairs = [((i, u), (j, v))
                 for i, j in combinations(range(1, 4), 2)
                 for u in range(per_part) for v in range(per_part)]
        for mask in range(1 << len(pairs)):
            edges = tuple(pairs[b] for b in range(len(pairs))
                          if mask >> b & 1)
            g = MulticoloredGraph(3, per_part, edges)
            inst, bound = from_mcc_03(g)
            assert (shortest_plan(inst, bound) is not None) == \
                has_multicolored_clique(g), g
            mcc_cases += 1

    # Unary route on the triangle: solvable at exactly 7*C(3,2)+3 = 24.
    tri = MulticoloredGraph(3, 1, tuple(
        normalize_edge((i, 0), (j, 0))
        for i, j in combinations(range(1, 4), 2)))
    inst, bound = from_mcc_ubs(tri)
    assert bound == 24
    plan = shortest_plan(inst, 24)
    assert plan is not None and len(plan) == 24
    assert shortest_plan(inst, 23) is None
    report("5", f"hitting set x{hs_cases}, clique(0,3) x{mcc_cases}, "
                "triangle at exactly 24")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_or_gadget():
    for v1 in (0, 1):
        for v2 in (0, 1):
            b = InstanceBuilder(2)
            a = b.add_variable("v1", v1)
            c = b.add_variable("v2", v2)
            gadget = or2_gadget(b, a, c, "o")
            b.set_goal(gadget.out, 1)
            inst = b.build()
            plan = shortest_plan(inst, 12)
            if v1 or v2:
                assert plan is not None and len(plan) == 6, (v1, v2)
            else:
                assert plan is None
    report("6", "all 4 initializations: solvable iff v1 or v2, "
                "minimum length exactly 6")


# -- 7 ----------------------------------------------------------------------

def pub_unit(solvable: bool) -> Instance:
    action = Action("s", {}, {0: 1}) if solvable else Action("s", {0: 1}, {0: 1})
    return Instance(1, 2, (action,), (0,), {0: 1})


def test_criterion_7_composition_arithmetic(toy1):
    _, kp2 = compose_pub([(toy1, 2), (toy1, 2)])
    assert kp2 == 2 + 1 + 6 * math.ceil(math.log2(2)) == 9
    _, kp3 = compose_pub([(toy1, 2), (toy1, 2), (toy1, 2)])
    assert kp3 == 2 + 1 + 6 * math.ceil(math.log2(3)) == 15
    _, kpp = compose_zero_two([(unit_zero_two(True), 1),
                               (unit_zero_two(False), 1)])
    assert kpp == 4 * (1 * (1 + 3) + 1) + 1 == 21
    report("7 (arithmetic)", "k' = k+1+6*ceil(log t); k'' = 4(k(k+3)+1)+1")


def test_criterion_7_composition_zero_two():
    # The composed instances are too large for state-space search (>= 30
    # binary variables), so solvability is decided by the Steiner pipeline,
    # which criterion 3 validates against the oracle at desk scale.
    for t in (2, 3):
        for solvable_at in [None] + list(range(t)):
            comps = [(unit_zero_two(i == solvable_at), 1) for i in range(t)]
            comp, kpp = compose_zero_two(comps)
            result = solve_zero_two(comp, kpp)
            expected = solvable_at is not None
            assert (result.plan is not None) == expected, (t, solvable_at)
            if result.plan is not None:
                assert validate_plan(comp, result.plan).valid
                assert len(result.plan) <= kpp
    report("7 (zero-two)", "t in {2,3}: solvable at k'' iff some component "
                           "solvable at k")


def test_criterion_7_composition_pub(toy1):
    """Solvable at k' = k+1+6*ceil(log2 t) iff some component is solvable at
    its own bound.  TOY1's shortest plan has length 2, so it is tight at
    k_i = 2 and over its bound at k_i = 1; at t = 3 it is also placed at
    the leaf that sits one level shallower in the OR tree."""
    comp, kp = compose_pub([(pub_unit(False), 2), (pub_unit(False), 2)])
    assert shortest_plan(comp, kp) is None  # no component solvable

    comp, kp = compose_pub([(toy1, 2), (pub_unit(False), 2)])
    some_component_solvable = shortest_plan(toy1, 2) is not None
    assert some_component_solvable
    composed_solvable = shortest_plan(comp, kp) is not None
    assert composed_solvable == some_component_solvable, (
        f"composition solvable at k'={kp}: {composed_solvable}, yet a "
        f"component is solvable at its bound")

    for ki in (1, 2):
        comp, kp = compose_pub([(pub_unit(False), 2), (pub_unit(False), 2),
                                (toy1, ki)])
        some_component_solvable = shortest_plan(toy1, ki) is not None
        composed_solvable = shortest_plan(comp, kp) is not None
        assert composed_solvable == some_component_solvable, (
            f"t=3, TOY1 at k_i={ki}: composition solvable at k'={kp}: "
            f"{composed_solvable}, component solvable at its bound: "
            f"{some_component_solvable}")
    report("7 (pub)", "t in {2,3}: solvable at k' iff some component solvable")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_validity_invariants():
    rng = random.Random(0xACCE558)
    pairs = 0
    restriction_checked = 0
    while pairs < 1000:
        n = rng.randint(1, 4)
        d = rng.randint(2, 3)
        m = rng.randint(1, 5)
        inst = random_instance(n, d, m, seed=71_000 + pairs)
        seq = tuple(rng.randrange(m) for _ in range(rng.randint(0, 5)))
        # validity iff no required pair
        assert (find_required_pair(inst, seq) is None) == \
            validate_plan(inst, seq).valid
        # restriction to the touched variables preserves plan-ness exactly
        # when the pre/goal deviations are covered
        from planlab.core import diff_set, restrict
        touched = sorted({v for aid in seq for v in inst.actions[aid].eff})
        union = set(diff_set(inst, inst.goal))
        for aid in seq:
            union |= set(diff_set(inst, inst.actions[aid].pre))
        rhs = union <= set(touched) and \
            validate_plan(restrict(inst, touched), seq).valid
        assert validate_plan(inst, seq).valid == rhs
        restriction_checked += 1
        pairs += 1
    report("8", f"{pairs} (instance, sequence) pairs: validity iff no "
                "required pair; restriction equivalence")


# -- 9 ----------------------------------------------------------------------

def fixture_corpus():
    toy = Instance(2, 2, (Action("a1", {}, {0: 1}),
                          Action("a2", {0: 1}, {1: 1})),
                   (0, 0), {0: 1, 1: 1})
    corpus = [toy]
    inst, _ = from_hitting_set(HittingSetInput(3, ((1, 2), (2, 3)), 1))
    corpus.append(inst)
    tri = MulticoloredGraph(3, 1, tuple(
        normalize_edge((i, 0), (j, 0))
        for i, j in combinations(range(1, 4), 2)))
    corpus.append(from_mcc_ubs(tri)[0])
    corpus.append(from_mcc_03(tri)[0])
    b = InstanceBuilder(2)
    v1, v2 = b.add_variable("v1", 1), b.add_variable("v2", 0)
    b.set_goal(or2_gadget(b, v1, v2, "o").out, 1)
    corpus.append(b.build())
    corpus.append(compose_pub([(toy, 2), (toy, 2)])[0])
    corpus.append(compose_zero_two([(unit_zero_two(True), 1),
                                    (unit_zero_two(False), 1)])[0])
    for i in range(40):
        corpus.append(random_instance(1 + i % 5, 2 + i % 2, 1 + i % 6,
                                      seed=80_000 + i))
    return corpus


def test_criterion_9_io_round_trip_and_fuzz():
    corpus = fixture_corpus()
    for inst in corpus:
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text

    rng = random.Random(0xACCE559)
    seeds = [serialize_instance(inst) for inst in corpus[:8]]
    deadline = time.time() + 60
    attempts = 0
    while time.time() < deadline:
        roll = rng.random()
        if roll < 0.4:
            data = bytes(rng.randrange(256)
                         for _ in range(rng.randint(0, 300)))
        else:
            base = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 8)):
                pos = rng.randrange(len(base))
                base[pos] = chr(rng.randrange(32, 127))
            data = "".join(base)
        try:
            parse_instance(data)
        except ParseError:
            pass
        attempts += 1
    report("9", f"round-trip identity on {len(corpus)} fixtures; "
                f"{attempts} fuzz inputs in 60s, ParseError only")
