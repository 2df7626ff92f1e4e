"""Instance factories: reductions from combinatorial problems, OR gadgets,
padding compositions, and a seeded random generator.

These produce the hard-instance corpus and the substrate for the equivalence
property tests: each construction carries a claimed bound k' such that the
output is solvable at k' iff the source object has the encoded property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import Action, ContractError, Instance, classify, delta_vars
from .zerotwo import eliminate_two_effect_good_actions

Vertex = Tuple[int, int]  # (part, index within part), part is 1-based


@dataclass(frozen=True)
class HittingSetInput:
    universe_size: int
    subsets: Tuple[Tuple[int, ...], ...]  # elements are 1..universe_size
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ContractError("bound must be non-negative")
        if self.universe_size < 0:
            raise ContractError("universe size must be non-negative")
        for c in self.subsets:
            for s in c:
                if not 1 <= s <= self.universe_size:
                    raise ContractError(f"element {s} outside the ground set")


@dataclass(frozen=True)
class MulticoloredGraph:
    parts: int
    part_size: int
    edges: Tuple[Tuple[Vertex, Vertex], ...]

    def __post_init__(self):
        if min(self.parts, self.part_size) < 0:
            raise ContractError("negative part count or part size")
        seen = set()
        for (i, a), (j, b) in self.edges:
            if i == j:
                raise ContractError("edge inside a single part")
            if not (1 <= i <= self.parts and 1 <= j <= self.parts):
                raise ContractError("edge endpoint outside the partition")
            if not (0 <= a < self.part_size and 0 <= b < self.part_size):
                raise ContractError("vertex index out of range")
            if i > j:
                raise ContractError("edges must be normalized (part_i < part_j)")
            if ((i, a), (j, b)) in seen:
                raise ContractError("duplicate edge")
            seen.add(((i, a), (j, b)))

    def vertices(self) -> List[Vertex]:
        return [(i, a) for i in range(1, self.parts + 1)
                for a in range(self.part_size)]


def normalize_edge(u: Vertex, v: Vertex) -> Tuple[Vertex, Vertex]:
    return (u, v) if u[0] < v[0] else (v, u)


class InstanceBuilder:
    """Incremental construction.  add_variable and add_action return the new
    id; callers keep the ids they need, since names are only checked for
    duplicates."""

    def __init__(self, domain_size: int = 2):
        self.domain_size = domain_size
        # variable name -> initial value, in id order
        self._init: Dict[str, int] = {}
        self._actions: List[Action] = []
        self._action_names: Set[str] = set()
        self.goal: Dict[int, int] = {}
        self._prefix_counter = 0

    def add_variable(self, name: str, init: int = 0) -> int:
        if name in self._init:
            raise ContractError(f"variable {name!r} already exists")
        self._init[name] = init
        return len(self._init) - 1

    def add_action(self, name: str, pre: Dict[int, int],
                   eff: Dict[int, int]) -> int:
        if name in self._action_names:
            raise ContractError(f"action {name!r} already exists")
        self._action_names.add(name)
        self._actions.append(Action(name, dict(pre), dict(eff)))
        return len(self._actions) - 1

    def set_goal(self, var: int, value: int) -> None:
        self.goal[var] = value

    def fresh_prefix(self, base: str) -> str:
        prefix = f"{base}{self._prefix_counter}."
        self._prefix_counter += 1
        return prefix

    def build(self) -> Instance:
        return Instance(
            var_count=len(self._init),
            domain_size=self.domain_size,
            actions=tuple(self._actions),
            init=tuple(self._init.values()),
            goal=dict(self.goal),
            var_names=tuple(self._init))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def from_hitting_set(inp: HittingSetInput) -> Tuple[Instance, int]:
    """One binary variable per subset, one no-precondition action per ground
    element setting every subset it hits; hitting set of size <= k iff plan
    of length <= k."""
    b = InstanceBuilder(domain_size=2)
    xs = [b.add_variable(f"c{ci}") for ci in range(1, len(inp.subsets) + 1)]
    for x in xs:
        b.set_goal(x, 1)
    for s in range(1, inp.universe_size + 1):
        b.add_action(f"a{s}", {}, {x: 1 for x, c in zip(xs, inp.subsets)
                                   if s in c})
    return b.build(), inp.bound


def _vname(v: Vertex) -> str:
    return f"{v[0]}.{v[1]}"


def from_mcc_ubs(graph: MulticoloredGraph) -> Tuple[Instance, int]:
    """Unary-binary-single-valued encoding of multicolored clique with at
    most one precondition per action; k-clique iff plan of length
    7*C(k,2) + k."""
    k = graph.parts
    b = InstanceBuilder(domain_size=2)
    edges = sorted(graph.edges)
    vertices = graph.vertices()
    # (vertex, other part): one connection each vertex must witness
    links = [(v, j) for v in vertices for j in range(1, k + 1) if j != v[0]]
    ename = {e: f"{_vname(e[0])}+{_vname(e[1])}" for e in edges}
    xe = {e: b.add_variable(f"xe.{ename[e]}") for e in edges}
    xv = {(v, j): b.add_variable(f"xv.{_vname(v)}.{j}") for v, j in links}
    xc = {(i, j): b.add_variable(f"xc.{i}.{j}")
          for i in range(1, k + 1) for j in range(1, k + 1) if j != i}
    xu = {v: b.add_variable(f"xu.{_vname(v)}") for v in vertices}
    for x in xc.values():
        b.set_goal(x, 1)
    for x in xv.values():
        b.set_goal(x, 0)

    # A1: select an edge.
    for e in edges:
        b.add_action(f"ae.{ename[e]}", {}, {xe[e]: 1})
    # A2: record, per endpoint, the connection the edge witnesses.
    for e in edges:
        u, w = e
        b.add_action(f"ae.{ename[e]}.{u[0]}", {xe[e]: 1}, {xv[u, w[0]]: 1})
        b.add_action(f"ae.{ename[e]}.{w[0]}", {xe[e]: 1}, {xv[w, u[0]]: 1})
    # A3: check a connection.
    for v, j in links:
        b.add_action(f"av.{_vname(v)}.{j}", {xv[v, j]: 1}, {xc[v[0], j]: 1})
    # A4: arm a cleaner.
    for v in vertices:
        b.add_action(f"ac.{_vname(v)}", {}, {xu[v]: 1})
    # A5: clean a vertex variable.
    for v, j in links:
        b.add_action(f"ar.{_vname(v)}.{j}", {xu[v]: 1}, {xv[v, j]: 0})
    return b.build(), 7 * (len(xc) // 2) + k


def from_mcc_03(graph: MulticoloredGraph) -> Tuple[Instance, int]:
    """No-precondition, three-effect encoding of multicolored clique;
    k-clique iff plan of length C(k,2) + k."""
    k = graph.parts
    b = InstanceBuilder(domain_size=2)
    xv = {v: b.add_variable(f"v.{_vname(v)}") for v in graph.vertices()}
    xp = {(i, j): b.add_variable(f"p.{i}.{j}")
          for i in range(1, k + 1) for j in range(i + 1, k + 1)}
    for x in xv.values():
        b.set_goal(x, 0)
    for x in xp.values():
        b.set_goal(x, 1)
    for v, x in xv.items():
        b.add_action(f"a.{_vname(v)}", {}, {x: 0})
    for u, w in sorted(graph.edges):
        b.add_action(f"ae.{_vname(u)}+{_vname(w)}", {},
                     {xv[u]: 1, xv[w]: 1, xp[u[0], w[0]]: 1})
    return b.build(), len(xp) + k


# ---------------------------------------------------------------------------
# OR gadgets and compositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrGadget:
    out: int


def or2_gadget(builder: InstanceBuilder, v1: int, v2: int,
               out_name: str) -> OrGadget:
    """Use-once disjunction of two binary variables: with goal out=1 the
    gadget is solvable iff v1 or v2 holds initially, and then in exactly
    6 steps."""
    p = builder.fresh_prefix("or")
    o1 = builder.add_variable(p + "o1")
    o2 = builder.add_variable(p + "o2")
    out = builder.add_variable(out_name)
    i1 = builder.add_variable(p + "i1")
    i2 = builder.add_variable(p + "i2")
    builder.add_action(p + "a_o", {o1: 1, o2: 1}, {out: 1})
    builder.add_action(p + "a_o1", {i1: 1, i2: 0}, {o1: 1})
    builder.add_action(p + "a_o2", {i1: 0, i2: 1}, {o2: 1})
    builder.add_action(p + "a_i1", {}, {i1: 1})
    builder.add_action(p + "a_i2", {}, {i2: 1})
    builder.add_action(p + "a_v1", {v1: 1}, {i1: 0})
    builder.add_action(p + "a_v2", {v2: 1}, {i2: 0})
    return OrGadget(out)


@dataclass(frozen=True)
class OrTree:
    out: int
    gadget_count: int


def _halves(items: Sequence) -> Tuple[Sequence, Sequence]:
    """How or_tree splits the inputs under one gadget: the left half takes
    the odd one out."""
    mid = (len(items) + 1) // 2
    return items[:mid], items[mid:]


def or_tree_depths(r: int) -> List[int]:
    """The number of gadgets between each of r inputs and the output of the
    tree that or_tree builds over them, in input order.  Every depth is
    ceil(log2 r), or one less when r is not a power of two (a single input
    sits under one gadget)."""
    if r < 1:
        raise ContractError("or_tree needs at least one input")
    if r == 1:
        return [1]

    def rec(ids: Sequence[int], depth: int) -> List[int]:
        if len(ids) == 1:
            return [depth]
        left, right = _halves(ids)
        return rec(left, depth + 1) + rec(right, depth + 1)

    return rec(range(r), 0)


def or_tree(builder: InstanceBuilder, inputs: Sequence[int],
            out_name: str) -> OrTree:
    """Minimum-height binary tree of two-input OR gadgets; a single true
    input at depth d (see or_tree_depths) reaches the output in exactly 6*d
    steps, at most 6*ceil(log2 r).  A single input is wired through one
    gadget with both inputs tied."""
    if not inputs:
        raise ContractError("or_tree needs at least one input")
    count = 0

    def rec(ids: Sequence[int], name: str) -> int:
        nonlocal count
        if len(ids) == 1:
            return ids[0]
        left, right = _halves(ids)
        left_out = rec(left, name + "l")
        right_out = rec(right, name + "r")
        count += 1
        return or2_gadget(builder, left_out, right_out, name).out

    if len(inputs) == 1:
        count = 1
        out = or2_gadget(builder, inputs[0], inputs[0], out_name).out
    else:
        out = rec(list(inputs), out_name)
    return OrTree(out, count)


def compose_pub(components: Sequence[Tuple[Instance, int]]
                ) -> Tuple[Instance, int]:
    """Padding chains detect each component's goal at its own bound, an OR
    tree merges the detector outputs; composed bound k' = k+1+6*ceil(log2 t)
    with k = max k_i, exact in both directions: the composition has a plan
    of length <= k' iff some component has one of length <= k_i.

    Component i's detector is a chain of k - k_i pad actions, the first
    enabled by the component's goal, and one action that sets the tree input
    in_i.  A leaf at depth d in the OR tree gets 6*(ceil(log2 t) - d) more
    pad actions, so that every leaf is as far from the output as the
    deepest one.  Using component i then costs exactly
    l_i + (k - k_i) + 1 + 6*ceil(log2 t) = k' + l_i - k_i steps, where l_i
    is its shortest plan length."""
    if len(components) < 2:
        raise ContractError("composition needs at least two components")
    for idx, (inst, ki) in enumerate(components):
        profile = classify(inst)
        if not (profile.post_unique and profile.unary and profile.binary):
            raise ContractError(f"component {idx} is not post-unique, unary "
                                "and binary")
        if ki < 0:
            raise ContractError("component bound must be non-negative")
    k = max(ki for _, ki in components)
    depths = or_tree_depths(len(components))
    height = max(depths)
    b = InstanceBuilder(domain_size=2)

    fire_vars: List[int] = []
    for idx, ((inst, ki), depth) in enumerate(zip(components, depths),
                                              start=1):
        prefix = f"c{idx}."
        remap = {v: b.add_variable(prefix + inst.var_names[v], inst.init[v])
                 for v in range(inst.var_count)}
        for a in inst.actions:
            b.add_action(prefix + a.name,
                         {remap[v]: x for v, x in a.pre.items()},
                         {remap[v]: x for v, x in a.eff.items()})
        pre = {remap[v]: x for v, x in inst.goal.items()}
        for j in range(ki + 1, k + 6 * (height - depth) + 1):
            pad = b.add_variable(f"{prefix}p{j}")
            b.add_action(f"{prefix}pad{j}", pre, {pad: 1})
            pre = {pad: 1}
        fire = b.add_variable(f"in{idx}")
        b.add_action(f"{prefix}fire", pre, {fire: 1})
        fire_vars.append(fire)

    tree = or_tree(b, fire_vars, "out")
    b.set_goal(tree.out, 1)
    return b.build(), k + 1 + 6 * height


def compose_zero_two(components: Sequence[Tuple[Instance, int]]
                     ) -> Tuple[Instance, int]:
    """OR-composition for no-precondition two-effect instances sharing one
    bound k.  Components are chain-transformed first (bound k'), then glued
    so that re-solving exactly one component fits the budget k'' = 4k'+1:
    the b-variables force k' resets that damage some component's goal, and
    clearing that component's flag drags in a 2k'+1 cascade.  The
    composition is solvable at k'' iff some component is solvable at k."""
    if len(components) < 2:
        raise ContractError("composition needs at least two components")
    ks = {ki for _, ki in components}
    if len(ks) != 1:
        raise ContractError("components must share one bound k")
    k = ks.pop()

    transforms = []
    for idx, (inst, _) in enumerate(components):
        deltas = delta_vars(inst)
        if not deltas:
            raise ContractError(
                f"component {idx} has an already-satisfied goal; the "
                "composition presumes every component needs work")
        tr = eliminate_two_effect_good_actions(inst, k)
        if len(deltas) > tr.bound:
            raise ContractError(
                f"component {idx} has {len(deltas)} goal deviations, more "
                f"than k'={tr.bound}; it cannot be solvable at k={k}")
        transforms.append(tr)
    k1 = transforms[0].bound  # the transformed bound k'

    b = InstanceBuilder(domain_size=max(
        2, max(tr.instance.domain_size for tr in transforms)))

    bvars = [b.add_variable(f"b{j}", init=1) for j in range(1, k1 + 1)]
    for v in bvars:
        b.set_goal(v, 0)
    rvar = b.add_variable("r")
    b.set_goal(rvar, 0)
    b.add_action("a_r", {}, {rvar: 0})

    for idx, tr in enumerate(transforms, start=1):
        inst = tr.instance
        prefix = f"c{idx}."
        # Component variables start at their own goal: already solved until
        # a reset action breaks them.
        remap = {}
        for v in range(inst.var_count):
            start = inst.goal.get(v, inst.init[v])
            remap[v] = b.add_variable(prefix + inst.var_names[v], start)
        for v, x in inst.goal.items():
            b.set_goal(remap[v], x)
        for aid, a in enumerate(inst.actions):
            if aid == tr.g_reset:
                continue  # the flag is cleared via the cascade instead
            b.add_action(prefix + a.name, {}, {remap[v]: x
                                               for v, x in a.eff.items()})
        q = {j: b.add_variable(f"{prefix}q{j}") for j in range(1, 2 * k1)}
        for j in range(1, 2 * k1):
            b.set_goal(q[j], 0)
        b.add_action(f"{prefix}ar", {}, {rvar: 1, q[1]: 0})
        for j in range(1, 2 * k1 - 1):
            b.add_action(f"{prefix}m{j}", {}, {q[j]: 1, q[j + 1]: 0})
        b.add_action(f"{prefix}ag", {},
                     {q[2 * k1 - 1]: 1, remap[tr.g_var]: 0})
        original, _ = components[idx - 1]
        deltas = delta_vars(original)
        for j in range(1, k1 + 1):
            v = deltas[j - 1] if j <= len(deltas) else deltas[-1]
            b.add_action(f"{prefix}rb{j}", {},
                         {remap[v]: original.init[v], bvars[j - 1]: 0})
    return b.build(), 4 * k1 + 1


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_instance(n: int, domain_size: int, num_actions: int, seed: int, *,
                    post_unique: bool = False, unary: bool = False,
                    single_valued: bool = False,
                    max_pre: Optional[int] = None,
                    max_eff: Optional[int] = None) -> Instance:
    """Seeded pseudo-random instance satisfying the requested restriction
    flags; identical arguments give identical instances."""
    if n < 1 or domain_size < 1:
        raise ContractError("sizes must be positive")
    if num_actions < 0:
        raise ContractError("num_actions must be non-negative")
    if max_pre is None:
        max_pre = n
    if max_pre < 0:
        raise ContractError("max_pre must be non-negative")
    if max_eff is None:
        max_eff = 1 if unary else n
    if unary and max_eff != 1:
        raise ContractError("unary forces exactly one effect per action")
    if max_eff < 1:
        raise ContractError("actions must have at least one effect")
    rng = random.Random(seed)

    if post_unique and num_actions > n * domain_size:
        raise ContractError(
            f"post-uniqueness is unsatisfiable: {num_actions} actions need "
            f"distinct effect pairs but only {n * domain_size} exist")
    pool = [(v, x) for v in range(n) for x in range(domain_size)]
    prevail: Dict[int, int] = {}
    actions: List[Action] = []
    for i in range(num_actions):
        eff_size = 1 if unary else rng.randint(1, min(max_eff, n))
        if post_unique:
            # later actions still need one fresh pair each
            reserve = num_actions - i - 1
            eff_size = max(1, min(eff_size, len(pool) - reserve))
            eff_vars: Dict[int, int] = {}
            candidates = [p for p in pool if p[0] not in eff_vars]
            while len(eff_vars) < eff_size and candidates:
                v, x = candidates[rng.randrange(len(candidates))]
                eff_vars[v] = x
                pool.remove((v, x))
                candidates = [p for p in pool if p[0] not in eff_vars]
            eff = eff_vars
        else:
            vs = rng.sample(range(n), eff_size)
            eff = {v: rng.randrange(domain_size) for v in vs}
        pre_size = rng.randint(0, min(max_pre, n))
        pre_candidates = rng.sample(range(n), pre_size)
        pre: Dict[int, int] = {}
        for v in pre_candidates:
            if single_valued and v not in eff:
                pre[v] = prevail.setdefault(v, rng.randrange(domain_size))
            else:
                pre[v] = rng.randrange(domain_size)
        actions.append(Action(f"a{i + 1}", pre, eff))

    init = tuple(rng.randrange(domain_size) for _ in range(n))
    goal = {v: rng.randrange(domain_size)
            for v in sorted(rng.sample(range(n), rng.randint(1, n)))}
    return Instance(var_count=n, domain_size=domain_size,
                    actions=tuple(actions), init=init, goal=goal)
