"""Solver pipeline for instances with no preconditions and at most 2 effects.

Stages, run at bound k' = min(k, |goal|) (see solve_zero_two): (1) a chain
transform that removes good actions with two effects, raising the bound
from k' to k'*(k'+3)+1; (2) a reduction to directed Steiner tree -- good
actions become root arcs, mixed actions arcs from their bad to their good
variable; (3) a goal-count refutation: with no preconditions one step sets
at most `fixes` goal variables to their goal value, so more unmet goal
variables than k' * fixes leave no plan, and no table is built; (4)
twin-sink contraction: of each group of sink terminals with the same
in-neighbours one stays, and the bound drops by one per twin dropped; (5)
the Dreyfus-Wagner dynamic program over the remaining terminal subsets,
pruned to the entries a tree within the bound can use, with the dropped
twins hung back off their representative's parent; (6) plan extraction by
walking the tree bottom-up.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .core import (Action, ContractError, Instance, Plan, delta_vars,
                   goal_count, validate_plan)

ROOT = 0  # Steiner node 0 is the root; variable v is node v + 1

MAX_TERMINALS = 20

INF = float("inf")


@dataclass(frozen=True)
class SteinerInstance:
    node_count: int
    arcs: Tuple[Tuple[int, int], ...]  # weight-1 arcs; absent arcs are infinite
    arc_action: Dict[Tuple[int, int], int]  # representative action per arc
    terminals: Tuple[int, ...]
    bound: int


@dataclass(frozen=True)
class TransformResult:
    instance: Instance
    bound: int  # k' = k*(k+3) + 1
    source_action: Dict[int, int]  # chain action id -> original action id
    g_var: int
    g_reset: int  # id of the action that clears the shared flag variable


@dataclass(frozen=True)
class DstSolution:
    weight: int
    arcs: Tuple[Tuple[int, int], ...]
    cells: int  # table entries kept within the bound, for --stats


@dataclass(frozen=True)
class ZeroTwoResult:
    plan: Optional[Plan]
    transformed: bool
    built_from: Instance  # the instance `dst` encodes: transformed or input
    dst: SteinerInstance
    solution: Optional[DstSolution]


def _require_zero_two(action: Action) -> None:
    """The (0,2) contract for one action: no precondition, at most two
    effects."""
    if action.pre or len(action.eff) > 2:
        raise ContractError(
            f"instance is not (0,2): action {action.name!r} has "
            f"{len(action.pre)} preconditions and {len(action.eff)} effects")


def _has_two_effect_good_action(instance: Instance) -> bool:
    """Whether some action sets two variables, each to its goal value or
    outside the goal: a good action with two effects."""
    goal = instance.goal
    for a in instance.actions:
        if len(a.eff) == 2:
            (v, x), (w, y) = a.eff.items()
            if goal.get(v, x) == x and goal.get(w, y) == y:
                return True
    return False


def _fresh(name: str, taken: Set[str]) -> str:
    """name, or name.1, name.2, ... if taken; the result joins taken."""
    base = name
    bump = 0
    while name in taken:
        bump += 1
        name = f"{base}.{bump}"
    taken.add(name)
    return name


def eliminate_two_effect_good_actions(instance: Instance,
                                      k: int) -> TransformResult:
    """Replace every good and mixed action by a chain of k+3 two-effect
    actions with the same net payload; afterwards no good action touches
    two variables.  Bad and empty-effect actions are dropped (they never
    help a plan here)."""
    for action in instance.actions:
        _require_zero_two(action)
    if k < 0:
        raise ValueError("k must be non-negative")

    d = max(instance.domain_size, 2)
    var_names = list(instance.var_names)
    init = list(instance.init)
    goal = dict(instance.goal)
    var_taken = set(var_names)
    action_taken = {a.name for a in instance.actions}
    actions: List[Action] = []

    def fresh_var(name: str) -> int:
        var_names.append(_fresh(name, var_taken))
        init.append(0)
        goal[len(var_names) - 1] = 0
        return len(var_names) - 1

    def fresh_action(name: str, eff: Dict[int, int]) -> int:
        actions.append(Action(_fresh(name, action_taken), {}, eff))
        return len(actions) - 1

    g_var = fresh_var("gflag")
    source: Dict[int, int] = {}

    for aid, action in enumerate(instance.actions):
        effs = sorted(action.eff.items())
        bad = [(v, x) for v, x in effs if instance.goal.get(v, x) != x]
        if len(bad) == len(effs):
            continue  # a bad action, or one with no effects
        cvars = [fresh_var(f"{action.name}+x{i}") for i in range(1, k + 3)]
        # The head sets the bad effect of a mixed action (gflag otherwise),
        # the links pass a token along cvars, and each payload pair gets a
        # tail of its own off the last link.
        if bad:
            head, payload = bad[0], [e for e in effs if e != bad[0]]
        else:
            head, payload = (g_var, 1), effs
        links = k + 3 - len(payload)
        chain = [fresh_action(f"{action.name}+c1",
                              {head[0]: head[1], cvars[0]: 0})]
        for i in range(2, links + 1):
            chain.append(fresh_action(
                f"{action.name}+c{i}", {cvars[i - 2]: 1, cvars[i - 1]: 0}))
        for i, (v, x) in enumerate(payload, start=links + 1):
            chain.append(fresh_action(f"{action.name}+c{i}",
                                      {cvars[links - 1]: 1, v: x}))
        for cid in chain:
            source[cid] = aid

    g_reset = fresh_action("gflag+reset", {g_var: 0})

    transformed = Instance(
        var_count=len(var_names), domain_size=d, actions=tuple(actions),
        init=tuple(init), goal=goal, var_names=tuple(var_names))
    return TransformResult(transformed, k * (k + 3) + 1, source, g_var,
                           g_reset)


def build_dst(instance: Instance, bound: int) -> SteinerInstance:
    """Arc rules: a good action's single variable hangs off the root; a mixed
    action points from its bad to its good variable.  Bad actions are
    dropped.  Parallel candidates collapse to the smallest action id.  An
    effect is good when it sets its variable to the goal value or the
    variable is outside the goal, and bad otherwise."""
    goal = instance.goal
    arc_action: Dict[Tuple[int, int], int] = {}
    for aid, action in enumerate(instance.actions):
        _require_zero_two(action)
        good = bad = None
        for v, x in action.eff.items():
            if goal.get(v, x) != x:
                bad = v
            elif good is None:
                good = v
            else:
                raise ContractError(
                    f"good action {action.name!r} has two effects; run the "
                    "chain transform first")
        if good is not None:  # bad actions and empty effects add no arc
            arc = (ROOT if bad is None else bad + 1, good + 1)
            arc_action.setdefault(arc, aid)
    return SteinerInstance(
        node_count=instance.var_count + 1,
        arcs=tuple(sorted(arc_action)),
        arc_action=arc_action,
        terminals=tuple(v + 1 for v in delta_vars(instance)),
        bound=bound)


def _bfs(adj: List[List[int]], s: int) -> Dict[int, int]:
    """BFS distances from `s` over `adj`; unreachable nodes are absent."""
    dist = {s: 0}
    queue = [s]
    depth = 0
    while queue:
        depth += 1
        new = []
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = depth
                    new.append(w)
        queue = new
    return dist


def _contract_twin_sinks(dst: SteinerInstance
                         ) -> Tuple[SteinerInstance, Dict[int, List[int]]]:
    """Keep the smallest terminal of each group of g >= 2 sink terminals
    (no out-arcs, not the root) that share one in-neighbour set, drop the
    other twins and the arcs into them, and lower the bound by g - 1 per
    group.  Returns the contracted instance and, per kept terminal, the
    twins it stands for.

    Exact: a sink terminal is a leaf of every arborescence, hung by one arc
    from one of its in-neighbours.  Cutting the twins' leaf arcs off an
    optimal tree leaves a tree over the kept terminals, and a twin hangs
    off any parent of its representative, as they share in-neighbours; so
    the optimum moves by exactly the number of twins dropped.  A bound that
    goes negative leaves no tree, which dreyfus_wagner reports as None."""
    tails = {tail for tail, _ in dst.arcs}
    preds: Dict[int, Set[int]] = {}
    for tail, head in dst.arcs:
        preds.setdefault(head, set()).add(tail)
    groups: Dict[FrozenSet[int], List[int]] = {}
    for t in sorted(set(dst.terminals) - tails - {ROOT}):
        groups.setdefault(frozenset(preds.get(t, ())), []).append(t)
    twins = {group[0]: group[1:] for group in groups.values()
             if len(group) > 1}
    if not twins:
        return dst, twins
    dropped = {t for group in twins.values() for t in group}
    return SteinerInstance(
        node_count=dst.node_count,
        arcs=tuple(arc for arc in dst.arcs if arc[1] not in dropped),
        arc_action=dst.arc_action,
        terminals=tuple(t for t in dst.terminals if t not in dropped),
        bound=dst.bound - len(dropped)), twins


def _steiner_tree(dst: SteinerInstance) -> Optional[DstSolution]:
    """dreyfus_wagner on the twin-contracted instance, with every dropped
    twin hung back off its representative's parent; the table's cells are
    those of the contracted run."""
    contracted, twins = _contract_twin_sinks(dst)
    solution = dreyfus_wagner(contracted)
    if solution is None or not twins:
        return solution
    parent = {head: tail for tail, head in solution.arcs}
    hung = [(parent[rep], t) for rep, group in twins.items() for t in group]
    return DstSolution(solution.weight + len(hung),
                       tuple(sorted(solution.arcs + tuple(hung))),
                       solution.cells)


def dreyfus_wagner(dst: SteinerInstance) -> Optional[DstSolution]:
    """Minimum-weight arborescence from the root covering all terminals,
    or None when the optimum exceeds the bound or a terminal is unreachable.

    f[mask][v] is the cheapest tree hanging from v that covers the terminal
    subset `mask`.  Only entries with f[mask][v] + dist(root, v) <= bound are
    kept: any tree within the bound that uses an entry also holds a root path
    to its node, so the kept entries are exact and the dropped ones are never
    needed.  Each subset merges its splits at a common join node -- a
    terminal or a node with two or more out-arcs (a singleton starts from
    its terminal alone, at cost 0) -- then relaxes the merged
    costs backwards along the unit arcs with a Dijkstra sweep (Erickson,
    Monma & Veinott 1987) keyed on (cost, merge node, node, next hop), and
    records each node's merge node and next hop toward it.  The tree is
    read back from those next hops.  Ties go to the smallest merge node,
    then to the smallest next hop, so each path segment of the tree is the
    lexicographically smallest shortest path to its merge node, whatever the
    order of dst.arcs.  Splits are tried in a fixed order and only a
    strictly cheaper one replaces the last.

    Merging only at join nodes changes neither f nor the choices.  Every
    tree covering a nonempty subset A from a non-terminal u with one
    out-arc starts with that arc.  Following such arcs from u reaches a
    join node j after d >= 1 arcs (or no tree exists), so f[A][u] =
    f[A][j] + d, and f[A][j] is kept whenever f[A][u] is.  A split merged
    at u would cost 2d more than the same split merged at j, while the
    sweep reaches u from j at only d more: a merge at u is strictly beaten
    before it is popped, so it never sets an entry."""
    terms = dst.terminals
    t_count = len(terms)
    if t_count > MAX_TERMINALS:
        raise ContractError(
            f"{t_count} terminals exceed the hard cap of {MAX_TERMINALS}")
    if t_count == 0:
        return DstSolution(0, (), 0)
    bound = dst.bound
    n = dst.node_count
    adj: List[List[int]] = [[] for _ in range(n)]
    radj: List[List[int]] = [[] for _ in range(n)]
    for tail, head in dst.arcs:
        adj[tail].append(head)
        radj[head].append(tail)
    droot = _bfs(adj, ROOT)
    if any(t not in droot for t in terms):
        return None
    if len(set(terms) - {ROOT}) > bound:
        return None  # each such terminal is the head of its own arc

    is_join = [len(out) > 1 for out in adj]
    for t in terms:
        is_join[t] = True

    full = (1 << t_count) - 1
    f: List[Dict[int, int]] = [{} for _ in range(full + 1)]
    joins: List[Dict[int, int]] = [{} for _ in range(full + 1)]  # f at joins
    # choice[mask][v]: (submask, merge node, next hop toward it); the submask
    # is 0 for a leaf, and a merge node is its own next hop
    choice: List[Dict[int, Tuple[int, int, int]]] = [
        {} for _ in range(full + 1)]
    for mask in range(1, full + 1):
        merged: Dict[int, int] = {}
        merged_choice: Dict[int, int] = {}
        low = mask & -mask
        if mask == low:  # a singleton: its terminal, a leaf at cost 0
            t = terms[low.bit_length() - 1]
            if droot[t] <= bound:
                merged[t] = merged_choice[t] = 0
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # enumerate each split once
                small, large = joins[sub], joins[mask ^ sub]
                if len(small) > len(large):
                    small, large = large, small
                for u, cost in small.items():
                    other = large.get(u)
                    if other is None:
                        continue
                    cost += other
                    if (cost + droot[u] <= bound
                            and cost < merged.get(u, INF)):
                        merged[u] = cost
                        merged_choice[u] = sub
            sub = (sub - 1) & mask
        heap = [(cost, u, u, u) for u, cost in merged.items()]
        heapq.heapify(heap)
        fm, cm, jm = f[mask], choice[mask], joins[mask]
        while heap:
            cost, u, w, hop = heapq.heappop(heap)
            if w in fm:
                continue
            fm[w] = cost
            cm[w] = (merged_choice[u], u, hop)
            if is_join[w]:
                jm[w] = cost
            cost += 1
            for x in radj[w]:
                if x not in fm and cost + droot.get(x, INF) <= bound:
                    heapq.heappush(heap, (cost, u, x, w))

    if ROOT not in f[full]:
        return None

    arcs: Set[Tuple[int, int]] = set()

    def collect(mask: int, v: int) -> None:
        sub, u, hop = choice[mask][v]
        while v != u:
            arcs.add((v, hop))
            v, hop = hop, choice[mask][hop][2]
        if sub:
            collect(sub, u)
            collect(mask ^ sub, u)

    collect(full, ROOT)
    weight = f[full][ROOT]
    if len(arcs) != weight:
        raise AssertionError("reconstructed arc set disagrees with the "
                             "optimum weight")
    return DstSolution(weight, tuple(sorted(arcs)),
                       sum(len(fm) for fm in f))


def extract_plan(dst: SteinerInstance,
                 arcs: Tuple[Tuple[int, int], ...]) -> Plan:
    """Order the arc actions by strictly decreasing tail distance from the
    root, the root layer (good actions) last; declaration order within a
    layer."""
    heads = [head for _, head in arcs]
    if len(set(heads)) != len(heads):
        raise ContractError("arc set is not a tree: duplicate heads")
    # With one arc into each head, the arcs form a tree rooted at the root
    # exactly when a search from the root reaches every head and no head is
    # the root: len(arcs) + 1 nodes.
    adj: List[List[int]] = [[] for _ in range(dst.node_count)]
    for tail, head in arcs:
        adj[tail].append(head)
    depth = _bfs(adj, ROOT)
    if len(depth) != len(arcs) + 1:
        raise ContractError("arc set is not a tree rooted at the root node")
    layered = sorted(arcs, key=lambda arc: (-depth[arc[0]],
                                            dst.arc_action[arc]))
    return tuple(dst.arc_action[arc] for arc in layered)


def solve_zero_two(instance: Instance, k: int) -> ZeroTwoResult:
    """The full pipeline, run at bound k' = min(k, |goal|).  With no
    preconditions every variable ends at the value its last writer sets, so
    dropping an action that is not the last writer of some goal variable
    keeps a valid plan valid: a shortest plan has at most |goal| steps, and
    the verdict at k is the verdict at k'.  The transform is skipped when
    the input already has no two-effect good action, keeping the Steiner
    bound at k'.  The first stage that runs, the transform or build_dst,
    checks the (0,2) contract; the result's dst and solution are the
    uncontracted graph and the tree over all of its terminals.

    After build_dst, core.goal_count refutes the input without a Steiner
    table when unmet > k' * fixes.  With no preconditions a step writes
    its effects whatever the state, and it sets at most `fixes` goal
    variables to their goal value, so a plan of k' steps fixes at most
    k' * fixes of the unmet ones.  The transform and build_dst still run,
    so the result's dst is the same either way; solution is None."""
    if k < 0:
        raise ValueError("k must be non-negative")

    transform = None
    steps = min(k, len(instance.goal))
    work, bound = instance, steps
    if _has_two_effect_good_action(instance):
        transform = eliminate_two_effect_good_actions(instance, bound)
        work, bound = transform.instance, transform.bound

    dst = build_dst(work, bound)
    unmet, fixes = goal_count(instance)
    solution = None if unmet > steps * fixes else _steiner_tree(dst)
    if solution is None:
        return ZeroTwoResult(None, transform is not None, work, dst, None)

    plan = extract_plan(dst, solution.arcs)
    report = validate_plan(work, plan)
    if not report.valid:
        raise AssertionError("extracted plan does not validate: "
                             + report.message(work))
    if transform is not None:
        seen: List[int] = []
        for aid in plan:
            orig = transform.source_action.get(aid)
            if orig is not None and orig not in seen:
                seen.append(orig)
        plan = tuple(seen)
        report = validate_plan(instance, plan)
        if not report.valid:
            raise AssertionError("projected plan does not validate: "
                                 + report.message(instance))
    if len(plan) > k:
        raise AssertionError(f"pipeline produced a plan of length {len(plan)}"
                             f" > k={k}")
    return ZeroTwoResult(plan, transform is not None, work, dst, solution)


def steiner_to_dot(dst: SteinerInstance, instance: Instance) -> str:
    """DOT digraph of the reduction; arc labels name the source action."""
    def node_name(v: int) -> str:
        return "s" if v == ROOT else instance.var_names[v - 1]

    lines = ["digraph steiner {"]
    for v in range(dst.node_count):
        shape = "doublecircle" if v in dst.terminals else (
            "box" if v == ROOT else "circle")
        lines.append(f'  n{v} [label="{node_name(v)}" shape={shape}];')
    for tail, head in dst.arcs:
        label = instance.actions[dst.arc_action[(tail, head)]].name
        lines.append(f'  n{tail} -> n{head} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
