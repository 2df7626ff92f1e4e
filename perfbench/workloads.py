"""Seeded corpora for the three workloads, built through planlab.generators
and written through planlab.io.

Every family draws from its own random stream, seeded by the workload, the
family and the benchmark seed, so one seed always gives the same files. The
strata (shapes and counts) are fixed; the seed draws the instance contents.
Fixed strata keep a corpus's cost close to the same from one seed to the
next, which is what lets ten seeds agree within the benchmark's bounds.

A corpus is made in two steps. `select` draws it: every entry is a recipe
(a call of planlab.generators with the drawn arguments) plus its bound,
solver flags and reference. Drawing rejects some draws (a stratum's verdict
or size is fixed by running the oracle on candidates), so it runs once,
untimed. `build` then runs the recipes and writes the instance files; that
is the timed set-up.

Each item carries the reference it is checked against. A reference never
comes from the route that answers the item in the timed run:

- ("oracle",): BFS oracle, for items fo-mc, zero-two or post-unique answer
- ("sigma22",): fo-mc/sigma22, for random instances the oracle answers
- ("hitting-set", HittingSetInput): brute force over the source problem
- ("clique", MulticoloredGraph): brute force over the source problem
- ("components", ((Instance, k), ...)): a compose-02 instance is solvable
  iff one of its components is solvable at k (oracle on each component)
"""

from __future__ import annotations

import dataclasses
import functools
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from planlab import generators as gen
from planlab import io, oracle
from planlab.core import Instance, delta_vars

FO_MC = ("--solver", "fo-mc")
ZERO_TWO = ("--solver", "zero-two")
AUTO = ("--solver", "auto")


@dataclass(frozen=True)
class Item:
    """One `planlab solve` call: instance file, bound and solver flags."""
    id: str
    family: str
    instance: Instance
    k: int
    solver_args: Tuple[str, ...]
    reference: tuple
    path: str = ""


# A recipe makes one instance through planlab.generators. An entry is a
# recipe, its bound, its solver flags and its reference.
Recipe = Callable[[], Instance]
Entry = Tuple[Recipe, int, Tuple[str, ...], tuple]
Family = Callable[[random.Random], List[Entry]]


# ---------------------------------------------------------------------------
# Shared drawing helpers
# ---------------------------------------------------------------------------

def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def _random(*args, **kwargs) -> Recipe:
    return functools.partial(gen.random_instance, *args, **kwargs)


def _reduction(reduce, source) -> Tuple[Recipe, int]:
    """Recipe and claimed bound of a reduction from a source problem."""
    return (lambda: reduce(source)[0]), reduce(source)[1]


def _composed(compose, parts: Sequence[Recipe], k: int) -> Recipe:
    """Recipe of the composition of the parts, each at bound k."""
    return lambda: compose([(part(), k) for part in parts])[0]


def _graph(rng: random.Random, parts: int, per_part: int,
           density: float) -> gen.MulticoloredGraph:
    """A fixed share of all cross-part edges, drawn at random: the edge
    count is part of the stratum, so the oracle's work varies little."""
    pairs = [gen.normalize_edge((i, a), (j, b))
             for i in range(1, parts + 1) for j in range(i + 1, parts + 1)
             for a in range(per_part) for b in range(per_part)]
    edges = rng.sample(pairs, round(density * len(pairs)))
    return gen.MulticoloredGraph(parts, per_part, tuple(sorted(edges)))


def _with_verdict(draw: Callable[[], Recipe], k: int,
                  solvable: bool) -> Recipe:
    """The first drawn recipe whose instance is solvable at k, or not.
    A refutation costs several times a witness search, so strata whose
    calls are expensive fix their share of solvable instances. The drawn
    instances have two or three variables: the oracle decides them in
    microseconds."""
    while True:
        recipe = draw()
        if (oracle.shortest_plan(recipe(), k) is not None) == solvable:
            return recipe


def _zero_two_component(rng: random.Random, k: int,
                        solvable: bool) -> Recipe:
    """Random no-precondition two-effect instance that compose_zero_two
    accepts at bound k (at least one and at most k*(k+3)+1 goal deviations),
    solvable at k or not, as asked."""
    def draw():
        while True:
            recipe = _random(3, 2, 4, _seed(rng), max_pre=0, max_eff=2)
            if 0 < len(delta_vars(recipe())) <= k * (k + 3) + 1:
                return recipe
    return _with_verdict(draw, k, solvable)


def _pub_component(rng: random.Random) -> Recipe:
    """Random post-unique, unary, binary instance (a compose_pub input)."""
    return _random(3, 2, 4, _seed(rng), post_unique=True, unary=True)


def _unary(rng: random.Random, n: int, d: int, m: int) -> Recipe:
    return _random(n, d, m, _seed(rng), unary=True)


# ---------------------------------------------------------------------------
# mc-unary: fo-mc under both fragments
# ---------------------------------------------------------------------------

def _both_fragments(recipe: Recipe, k: int) -> List[Entry]:
    return [(recipe, k, FO_MC + ("--fragment", frag), ("oracle",))
            for frag in ("sigma1", "sigma22")]


def unary_c1(rng):
    """The acceptance criterion-1 distribution at k = 1 and 2, solvable or
    not as the seed draws them. Its k = 3 calls are unary-k3's: drawn at
    random shapes, a few sigma1 refutations would carry the stratum and
    change its cost severalfold from seed to seed."""
    out = []
    for k in (1, 2) * 16:
        recipe = _unary(rng, rng.randint(2, 5), rng.randint(2, 3),
                        rng.randint(1, 6))
        out += _both_fragments(recipe, k)
    return out


def unary_k3(rng):
    """k = 3 at one criterion-1 shape (n 3, d 3, m 4), one solvable
    instance in four: mostly full refutations, several times dearer under
    sigma1 than under sigma22. The shape is the one whose sigma1 cost varies
    least between instances, and every sigma22 refutation of it makes the
    same number of assignments. The counts put the corpus median among the
    sigma22 refutations and the tail percentile among the sigma1 ones, so
    that neither falls where two strata meet and moves with the seed."""
    out = []
    for i in range(64):
        recipe = _with_verdict(lambda: _unary(rng, 3, 3, 4), 3, i % 4 == 0)
        out += _both_fragments(recipe, 3)
    return out


def _widened(recipe: Recipe, domain: int) -> Recipe:
    return lambda: dataclasses.replace(recipe(), domain_size=domain)


def unary_wide(rng):
    """A declared domain of 32-64 values of which only 0 and 1 are used:
    sigma22 cost grows with the square of the declared domain. All three are
    unsolvable: a sigma22 refutation makes the same number of assignments
    for every instance of one shape and domain, while a witness search stops
    anywhere between a few percent and all of them."""
    out = []
    for domain in (32, 48, 64):
        recipe = _with_verdict(lambda: _unary(rng, 2, 2, 2), 3, False)
        out += _both_fragments(_widened(recipe, domain), 3)
    return out


# ---------------------------------------------------------------------------
# steiner: the zero-two pipeline
# ---------------------------------------------------------------------------

def _compose_02(rng, k: int, t: int, solvable: bool):
    """OR-composition of t components; when solvable, exactly one of them
    (at a random position) is solvable at k."""
    sat = rng.randrange(t) if solvable else -1
    parts = [_zero_two_component(rng, k, i == sat) for i in range(t)]
    comps = tuple((part(), k) for part in parts)
    _, bound = gen.compose_zero_two(comps)
    return _composed(gen.compose_zero_two, parts, k), bound, comps


def compose_02_k1(rng):
    """The most numerous steiner stratum: the corpus median falls in it."""
    out = []
    for i in range(40):
        recipe, bound, comps = _compose_02(rng, 1, 2 + i % 2, i % 4 < 2)
        out.append((recipe, bound, ZERO_TWO, ("components", comps)))
    return out


def _edge_cover(rng, vertices: int, k: int):
    """Hitting set whose elements are graph edges and whose sets are the
    vertices' incidence sets: every element hits exactly two sets, so every
    action is a two-effect good action and the chain transform runs."""
    pairs = [(u, v) for u in range(1, vertices + 1)
             for v in range(u + 1, vertices + 1)]
    while True:
        edges = rng.sample(pairs, vertices + 2)
        sets = tuple(tuple(e + 1 for e, pair in enumerate(edges) if v in pair)
                     for v in range(1, vertices + 1))
        if all(sets):
            return gen.HittingSetInput(len(edges), sets, k)


def hitting_set_vc(rng):
    out = []
    for i in range(24):
        vertices = 5 + i % 4
        inp = _edge_cover(rng, vertices, (vertices + 1) // 2 + i % 3 - 1)
        recipe, bound = _reduction(gen.from_hitting_set, inp)
        out.append((recipe, bound, ZERO_TWO, ("hitting-set", inp)))
    return out


# Instances per terminal count. Dreyfus-Wagner's cost grows as 3^terminals,
# so a count drawn at random would let one seed's few 12-terminal instances
# outweigh the rest of the corpus.
RANDOM_02_TERMINALS = {5: 8, 6: 8, 7: 8, 8: 8, 9: 8, 10: 3, 11: 2, 12: 1}


def _two_effect_good(inst: Instance) -> bool:
    """Whether the chain transform would run (it adds Steiner nodes)."""
    return any(len(a.eff) == 2 and all(inst.goal.get(v, x) == x
                                       for v, x in a.eff.items())
               for a in inst.actions)


def _flipped(recipe: Recipe, terminals: int) -> Recipe:
    """The first `terminals` variables must flip, the others must keep
    their initial value."""
    def make():
        inst = recipe()
        return dataclasses.replace(inst, goal={
            v: 1 - x if v < terminals else x
            for v, x in enumerate(inst.init)})
    return make


def random_02(rng):
    """Random no-precondition two-effect instances with 5-12 terminals and
    n + 1 Steiner nodes: the chain transform is left to hitting-set-vc.
    The goal is set here: two variables must keep their initial value."""
    out = []
    for terminals, count in RANDOM_02_TERMINALS.items():
        n = terminals + 2
        while count:
            recipe = _flipped(_random(n, 2, n + 2, _seed(rng), max_pre=0,
                                      max_eff=2), terminals)
            if not _two_effect_good(recipe()):
                out.append((recipe, 3 + count % 4, ZERO_TWO, ("oracle",)))
                count -= 1
    return out


# ---------------------------------------------------------------------------
# routed: the default `--solver auto` path over every family
# ---------------------------------------------------------------------------

def hitting_set(rng):
    out = []
    for _ in range(40):
        universe = rng.randint(4, 7)
        sets = tuple(tuple(sorted(rng.sample(range(1, universe + 1),
                                             rng.randint(1, 3))))
                     for _ in range(rng.randint(3, 6)))
        inp = gen.HittingSetInput(universe, sets, rng.randint(1, 3))
        recipe, bound = _reduction(gen.from_hitting_set, inp)
        out.append((recipe, bound, AUTO, ("hitting-set", inp)))
    return out


def _or2(v1: int, v2: int) -> Instance:
    b = gen.InstanceBuilder(domain_size=2)
    gadget = gen.or2_gadget(b, b.add_variable("v1", init=v1),
                            b.add_variable("v2", init=v2), "o")
    b.set_goal(gadget.out, 1)
    return b.build()


def or2(rng):
    return [(functools.partial(_or2, v1, v2), 6, AUTO, ("oracle",))
            for v1 in (0, 1) for v2 in (0, 1)]


def mcc_03(rng):
    """Parts 3-5, 1-3 vertices per part, 60% of the cross-part edges. The
    forty 4x2 rows are the oracle's load (8-10 k states, tens of
    milliseconds each). 4x3 (140-180 k states, over a second a call), 5x2
    (~700 k states) and 5x3 (budget exhausted) are left out: a call that
    long is timed at the host's average speed of the moment, not at its
    best, and a few of them carried the pass."""
    out = []
    for parts, per_part, copies in ((3, 1, 4), (3, 2, 4), (3, 3, 4),
                                    (4, 1, 4), (4, 2, 40), (5, 1, 4)):
        for _ in range(copies):
            graph = _graph(rng, parts, per_part, 0.6)
            recipe, bound = _reduction(gen.from_mcc_03, graph)
            out.append((recipe, bound, AUTO, ("clique", graph)))
    return out


def _pub_part(rng: random.Random, length: Optional[int]) -> Recipe:
    """A compose_pub component whose shortest plan has the given length,
    or (None) that is unsolvable at k = 2."""
    while True:
        recipe = _pub_component(rng)
        plan = oracle.shortest_plan(recipe(), 2)
        if (None if plan is None else len(plan)) == length:
            return recipe


def compose_pub_t2(rng):
    """t = 2 at k_i = 2. Post-unique's cost depends on the components: a
    few milliseconds when neither is solvable, tens when one has a plan of
    length 0 or 1, a few again at length 2. So half the compositions have
    one component with a plan of length 1, and half have none."""
    out = []
    for i in range(8):
        parts = [_pub_part(rng, 1 if i % 2 == 0 and j == 0 else None)
                 for j in range(2)]
        _, bound = gen.compose_pub([(part(), 2) for part in parts])
        out.append((_composed(gen.compose_pub, parts, 2), bound, AUTO,
                    ("oracle",)))
    return out


def compose_02_routed(rng):
    out = []
    for i in range(12):
        recipe, bound, comps = _compose_02(rng, 1, 2 + i % 2, i % 4 < 2)
        out.append((recipe, bound, AUTO, ("components", comps)))
    return out


def random_post_unique(rng):
    """The acceptance criterion-2 distribution."""
    out = []
    for _ in range(80):
        n, d = rng.randint(2, 6), rng.randint(2, 3)
        recipe = _random(n, d, rng.randint(1, min(8, n * d)), _seed(rng),
                         post_unique=True)
        out.append((recipe, rng.randint(0, 5), AUTO, ("oracle",)))
    return out


def random_unary(rng):
    """The criterion-1 distribution at k = 1-2, which `auto` sends to
    fo-mc/sigma1. At k = 3 a few sigma1 refutations would carry the family
    and change its cost threefold from seed to seed; the k = 3 refutations
    are mc-unary's."""
    out = []
    for i in range(80):
        recipe = _unary(rng, rng.randint(2, 5), rng.randint(2, 3),
                        rng.randint(1, 6))
        out.append((recipe, 1 + i % 2, AUTO, ("oracle",)))
    return out


def random_general(rng):
    """Multi-effect instances with preconditions; domains of 3-4 values
    exercise the oracle's mixed-radix state packing."""
    out = []
    for i in range(80):
        recipe = _random(rng.randint(2, 5), rng.randint(2, 4),
                         rng.randint(2, 6), _seed(rng), max_eff=3)
        out.append((recipe, 1 + i % 4, AUTO, ("sigma22",)))
    return out


WORKLOADS: Dict[str, Tuple[Tuple[str, Family], ...]] = {
    "mc-unary": (("unary-c1", unary_c1), ("unary-k3", unary_k3),
                 ("unary-wide", unary_wide)),
    "steiner": (("compose-02-k1", compose_02_k1),
                ("hitting-set-vc", hitting_set_vc), ("random-02", random_02)),
    "routed": (("hitting-set", hitting_set), ("or2", or2), ("mcc-03", mcc_03),
               ("compose-pub", compose_pub_t2),
               ("compose-02", compose_02_routed),
               ("random-pu", random_post_unique),
               ("random-unary", random_unary),
               ("random-general", random_general)),
}

FAMILIES: Tuple[str, ...] = tuple(name for fams in WORKLOADS.values()
                                  for name, _ in fams)


Selection = List[Tuple[str, List[Entry]]]


def select(workload: str, seed: int) -> Selection:
    """Draw the corpus: the entries of every family, in corpus order."""
    return [(family, draw(random.Random(f"{workload}/{family}/{seed}")))
            for family, draw in WORKLOADS[workload]]


def build(selection: Selection, outdir: str
          ) -> Tuple[List[Item], Dict[str, float]]:
    """Generate and write the corpus; returns the items and the milliseconds
    each family took to generate and write."""
    os.makedirs(outdir, exist_ok=True)
    items: List[Item] = []
    family_ms: Dict[str, float] = {}
    for family, entries in selection:
        t0 = time.perf_counter()
        written: Dict[int, Tuple[Instance, str]] = {}
        for i, (recipe, k, args, ref) in enumerate(entries):
            if id(recipe) not in written:
                inst = recipe()
                path = os.path.join(outdir, f"{family}-{len(written)}.sas")
                with open(path, "w") as fh:
                    fh.write(io.serialize_instance(inst))
                written[id(recipe)] = inst, path
            inst, path = written[id(recipe)]
            items.append(Item(f"{family}-{i}", family, inst, k, args, ref,
                              path))
        family_ms[family] = (time.perf_counter() - t0) * 1e3
    return items, family_ms


# ---------------------------------------------------------------------------
# Known baseline failures of `--solver auto`, probed in the traced run only
# ---------------------------------------------------------------------------

def _complete(parts: int) -> gen.MulticoloredGraph:
    return gen.MulticoloredGraph(parts, 1, tuple(
        gen.normalize_edge((i, 0), (j, 0))
        for i in range(1, parts + 1) for j in range(i + 1, parts + 1)))


def probes(outdir: str) -> List[Item]:
    """Fixed instances that `--solver auto` failed on when this benchmark
    was written; see perfbench/README.md. They do not depend on the seed."""
    ubs1 = _complete(3)
    ubs2 = _graph(random.Random("probe-ubs"), 3, 2, 0.6)
    rng = random.Random("probe31")
    comps: Sequence[Tuple[Instance, int]] = [
        (_pub_component(rng)(), 1) for _ in range(3)]
    cases = [
        ("mcc-ubs-p3-pp1", *gen.from_mcc_ubs(ubs1), ("clique", ubs1)),
        ("mcc-ubs-p3-pp2", *gen.from_mcc_ubs(ubs2), ("clique", ubs2)),
        ("compose-pub-t3", *gen.compose_pub(comps), ("oracle",)),
    ]
    os.makedirs(outdir, exist_ok=True)
    items = []
    for name, inst, bound, ref in cases:
        path = os.path.join(outdir, f"probe-{name}.sas")
        with open(path, "w") as fh:
            fh.write(io.serialize_instance(inst))
        items.append(Item(f"probe-{name}", "probe", inst, bound, AUTO, ref,
                          path))
    return items
