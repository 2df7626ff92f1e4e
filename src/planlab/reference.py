"""Ground truth that the solver routes are checked against.

Each check here states its definition as plainly as it can be run, at
desk scale only, and exists once.  No route, neither `planlab` itself nor
the CLI, imports this module; tests do.

- apply_action: one step on a state tuple, a second plan simulator beside
  core.validate_plan.
- plain_bfs: breadth-first search over state tuples that tries every
  action, in id order, from every state; the oracle without packing or
  skip masks.  With bounded=True it also drops every state that misses
  more goal variables than the remaining steps can set, by the most goal
  variables one action sets, as the oracle does; without it, it is the
  search whose plans the oracle must keep.
- is_minimal_plan, enumerate_minimal_plans: brute force over action
  sequences; the minimal plans that post-unique enumerates.
- brute_force_hitting_set, has_multicolored_clique: the source problems of
  the hitting-set and multicolored-clique reductions.
- brute_force_steiner, reaches_all_terminals: the smallest arc set of a
  Steiner digraph that reaches every terminal from the root.
- node_count, formula_to_sexpr, structure_to_text: fo-mc's formulas and
  structures as a node count and as text, which tests compare and pin.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import List, Optional, Tuple, Union

from .core import (Action, Instance, PartialState, Plan, TotalState,
                   validate_plan)
from .fomc import (And, Atom, Equal, Exists, Forall, Formula, Implies, Not,
                   Or, RelationalStructure, _children)
from .generators import HittingSetInput, MulticoloredGraph, normalize_edge
from .oracle import BudgetExhausted
from .zerotwo import ROOT, SteinerInstance

SEQUENCE_BUDGET = 2_000_000  # enumerate_minimal_plans' cap on sequences tried


def apply_action(state: TotalState, action: Action) -> TotalState:
    """A new state: state with action's effects written over it."""
    out = list(state)
    for v, x in action.eff.items():
        out[v] = x
    return tuple(out)


def _holds(state: TotalState, cond: PartialState) -> bool:
    return all(state[v] == x for v, x in cond.items())


def plain_bfs(instance: Instance, k: int, budget: int, bounded: bool = False
              ) -> Tuple[Union[Plan, None, str], int]:
    """(plan or None, visited), or ("exhausted", visited) once more than
    `budget` states are visited, the initial state included.  The plan is
    the first one found, so the lexicographically smallest among the
    shortest.

    bounded: let fixes be the most goal variables one action sets to their
    goal value, and unmet(t) the number of goal variables whose value in t
    differs from the goal.  A state first reached at depth d is dropped,
    neither visited nor expanded, when unmet(t) > (k - d) * fixes, and an
    initial state with unmet > k * fixes answers (None, 1)."""
    if budget < 1:
        return "exhausted", 1
    init = tuple(instance.init)
    if _holds(init, instance.goal):
        return (), 1
    fixes = max((sum(instance.goal.get(v) == x for v, x in act.eff.items())
                 for act in instance.actions), default=0)

    def hopeless(state, depth):
        unmet = sum(state[v] != x for v, x in instance.goal.items())
        return bounded and unmet > (k - depth) * fixes

    if hopeless(init, 0):
        return None, 1
    parent = {init: None}
    frontier = [init]
    for depth in range(1, k + 1):
        next_frontier = []
        for s in frontier:
            for aid, act in enumerate(instance.actions):
                if not _holds(s, act.pre):
                    continue
                t = apply_action(s, act)
                if t in parent or hopeless(t, depth):
                    continue
                parent[t] = (s, aid)
                if len(parent) > budget:
                    return "exhausted", len(parent)
                if _holds(t, instance.goal):
                    plan = []
                    while parent[t] is not None:
                        t, aid = parent[t]
                        plan.append(aid)
                    return tuple(reversed(plan)), len(parent)
                next_frontier.append(t)
        if not next_frontier:
            break
        frontier = next_frontier
    return None, len(parent)


def is_minimal_plan(instance: Instance, plan: Plan) -> bool:
    """Valid, and no proper subsequence is valid."""
    n = len(plan)
    return validate_plan(instance, plan).valid and not any(
        validate_plan(instance,
                      tuple(plan[i] for i in range(n) if mask >> i & 1)).valid
        for mask in range((1 << n) - 1))  # every mask but the full one


def enumerate_minimal_plans(instance: Instance, k: int) -> Tuple[Plan, ...]:
    """Every valid plan of length <= k without a valid proper subsequence,
    in length-then-lexicographic order.  Raises BudgetExhausted past
    SEQUENCE_BUDGET sequences."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = []
    tried = 0
    for length in range(k + 1):
        for seq in product(range(len(instance.actions)), repeat=length):
            tried += 1
            if tried > SEQUENCE_BUDGET:
                raise BudgetExhausted(tried)
            if is_minimal_plan(instance, seq):
                out.append(seq)
    return tuple(out)


def brute_force_hitting_set(inp: HittingSetInput) -> bool:
    """Whether at most inp.bound elements meet every subset."""
    universe = range(1, inp.universe_size + 1)
    return any(all(set(h) & set(c) for c in inp.subsets)
               for r in range(inp.bound + 1)
               for h in combinations(universe, r))


def has_multicolored_clique(g: MulticoloredGraph) -> bool:
    """Whether one vertex per part can be picked, pairwise adjacent."""
    edges = set(g.edges)
    return any(all(normalize_edge(u, v) in edges
                   for u, v in combinations(enumerate(pick, 1), 2))
               for pick in product(range(g.part_size), repeat=g.parts))


def reaches_all_terminals(dst: SteinerInstance, arcs) -> bool:
    """Whether arcs lead from the root to every terminal."""
    children = {}
    for tail, head in arcs:
        children.setdefault(tail, []).append(head)
    reach, stack = {ROOT}, [ROOT]
    while stack:
        for w in children.get(stack.pop(), ()):
            if w not in reach:
                reach.add(w)
                stack.append(w)
    return all(t in reach for t in dst.terminals)


def brute_force_steiner(dst: SteinerInstance) -> Optional[int]:
    """Minimum weight over every arc subset that reaches all terminals, or
    None when no subset does."""
    for r in range(len(dst.arcs) + 1):
        for subset in combinations(dst.arcs, r):
            if reaches_all_terminals(dst, subset):
                return r  # combinations are tried smallest first
    return None


# node_count and formula_to_sexpr walk with a stack of their own: sigma22's
# formula nests deeper than Python's recursion limit allows from k of about
# 170, below its cap.
def node_count(f: Formula) -> int:
    count, stack = 0, [f]
    while stack:
        count += 1
        stack.extend(_children(stack.pop()))
    return count


def _sexpr_items(f: Formula) -> List[Union[str, Formula]]:
    """f's s-expression as text pieces and the subformulas between them."""
    if isinstance(f, (Exists, Forall)):
        kind = "exists" if isinstance(f, Exists) else "forall"
        var = f.var if f.guard is None else f"({f.var} {f.guard})"
        return [f"({kind} {var} ", f.body, ")"]
    if isinstance(f, (And, Or)):
        items: List[Union[str, Formula]] = [
            "(and " if isinstance(f, And) else "(or "]
        for i, part in enumerate(f.parts):
            items += (" ", part) if i else (part,)
        return items + [")"]
    if isinstance(f, Not):
        return ["(not ", f.part, ")"]
    if isinstance(f, Implies):
        return ["(implies ", f.left, " ", f.right, ")"]
    if isinstance(f, Atom):
        return ["(" + " ".join((f.rel,) + f.terms) + ")"]
    if isinstance(f, Equal):
        return [f"(= {f.left} {f.right})"]
    raise TypeError(f"not a formula node: {f!r}")


def formula_to_sexpr(f: Formula) -> str:
    out: List[str] = []
    stack: List[Union[str, Formula]] = [f]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_sexpr_items(item)))
    return "".join(out)


def structure_to_text(structure: RelationalStructure) -> str:
    lines = ["universe:"]
    for i, (name, sort) in enumerate(structure.universe):
        lines.append(f"  {i}: {name} [{sort}]")
    for rel in sorted(structure.relations):
        rows = sorted(structure.relations[rel])
        body = " ".join("(" + ",".join(structure.universe[e][0] for e in t) + ")"
                        for t in rows)
        lines.append(f"{rel}: {body}")
    return "\n".join(lines) + "\n"
