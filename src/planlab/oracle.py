"""Exhaustive reference solvers: ground truth for every other solver.

shortest_plan runs breadth-first search over total states;
enumerate_minimal_plans brute-forces every action sequence up to the bound.
Both are deliberately simple and only meant for desk-scale instances.

The search packs each state into one integer: a bitmask for binary domains,
base-d digits otherwise.  Actions are expanded in declaration order and the
frontier is FIFO, so the first goal state reached has the lexicographically
smallest among the shortest action-id sequences.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Tuple

from .core import Instance, Plan, PlanLabError, validate_plan

DEFAULT_BUDGET = 5_000_000


class BudgetExhausted(PlanLabError):
    """The visited-state cap was hit before the search finished."""

    def __init__(self, visited: int):
        self.visited = visited
        super().__init__(f"search budget exhausted after {visited} states")


def shortest_plan(instance: Instance, k: int,
                  budget: int = DEFAULT_BUDGET) -> Optional[Plan]:
    """A shortest valid plan of length <= k, lexicographically smallest
    among the shortest, or None."""
    plan, _ = shortest_plan_with_stats(instance, k, budget)
    return plan


def shortest_plan_with_stats(instance: Instance, k: int,
                             budget: int = DEFAULT_BUDGET):
    """(shortest plan or None, states visited).  Raises BudgetExhausted once
    more than `budget` states have been visited."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if instance.domain_size == 2:
        return _bfs_binary(instance, k, budget)
    return _bfs_general(instance, k, budget)


def _reconstruct(parent, state) -> Plan:
    plan = []
    while True:
        prev, aid = parent[state]
        if aid < 0:
            break
        plan.append(aid)
        state = prev
    plan.reverse()
    return tuple(plan)


def _masks(cond) -> Tuple[int, int]:
    """(bits of the variables cond mentions, bits of those it sets to 1)."""
    mask = bits = 0
    for v, x in cond.items():
        mask |= 1 << v
        if x:
            bits |= 1 << v
    return mask, bits


def _bfs_binary(instance: Instance, k: int, budget: int):
    """Bit v of a state is the value of variable v."""
    init = 0
    for v, x in enumerate(instance.init):
        if x:
            init |= 1 << v
    acts = [_masks(a.pre) + _masks(a.eff) for a in instance.actions]
    goal_mask, goal_bits = _masks(instance.goal)
    if init & goal_mask == goal_bits:
        return (), 1
    parent = {init: (0, -1)}
    frontier = [init]
    for _depth in range(k):
        next_frontier = []
        for s in frontier:
            for aid, (pm, pb, em, eb) in enumerate(acts):
                if s & pm != pb:
                    continue
                t = (s & ~em) | eb
                if t in parent:
                    continue
                parent[t] = (s, aid)
                if len(parent) > budget:
                    raise BudgetExhausted(len(parent))
                if t & goal_mask == goal_bits:
                    return _reconstruct(parent, t), len(parent)
                next_frontier.append(t)
        if not next_frontier:
            break
        frontier = next_frontier
    return None, len(parent)


def _holds(s, cond, d):
    for w, x in cond:
        if (s // w) % d != x:
            return False
    return True


def _bfs_general(instance: Instance, k: int, budget: int):
    """Variable v is digit v of the state in base d; conditions are
    (weight d**v, value) pairs."""
    d = instance.domain_size
    weights = [d ** v for v in range(instance.var_count)]

    def digits(cond):
        return tuple((weights[v], x) for v, x in cond.items())

    init = sum(x * w for x, w in zip(instance.init, weights))
    acts = [(digits(a.pre), digits(a.eff)) for a in instance.actions]
    goal = digits(instance.goal)
    if _holds(init, goal, d):
        return (), 1
    parent = {init: (0, -1)}
    frontier = [init]
    for _depth in range(k):
        next_frontier = []
        for s in frontier:
            for aid, (pre, eff) in enumerate(acts):
                if not _holds(s, pre, d):
                    continue
                t = s
                for w, x in eff:
                    t += (x - (t // w) % d) * w
                if t in parent:
                    continue
                parent[t] = (s, aid)
                if len(parent) > budget:
                    raise BudgetExhausted(len(parent))
                if _holds(t, goal, d):
                    return _reconstruct(parent, t), len(parent)
                next_frontier.append(t)
        if not next_frontier:
            break
        frontier = next_frontier
    return None, len(parent)


def is_valid_plan(instance: Instance, plan: Plan) -> bool:
    return validate_plan(instance, plan).valid


def _proper_subsequences(plan: Plan):
    n = len(plan)
    for mask in range((1 << n) - 1):  # excludes the full sequence
        yield tuple(plan[i] for i in range(n) if mask >> i & 1)


def is_minimal_plan(instance: Instance, plan: Plan) -> bool:
    """Valid, and no proper subsequence is valid.  Exponential; test-scale only."""
    if not is_valid_plan(instance, plan):
        return False
    return not any(is_valid_plan(instance, sub)
                   for sub in _proper_subsequences(plan))


def enumerate_minimal_plans(instance: Instance, k: int,
                            sequence_budget: int = 2_000_000
                            ) -> Tuple[Plan, ...]:
    """Every valid plan of length <= k without a valid proper subsequence,
    in length-then-lexicographic order."""
    if k < 0:
        raise ValueError("k must be non-negative")
    m = len(instance.actions)
    out = []
    tried = 0
    for length in range(k + 1):
        for seq in product(range(m), repeat=length):
            tried += 1
            if tried > sequence_budget:
                raise BudgetExhausted(tried)
            if is_minimal_plan(instance, seq):
                out.append(seq)
    return tuple(out)
