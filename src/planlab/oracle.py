"""Exhaustive reference solvers: ground truth for every other solver.

shortest_plan runs breadth-first search over total states;
enumerate_minimal_plans brute-forces every action sequence up to the bound.
Both are deliberately simple and only meant for desk-scale instances.

The search packs each state into one integer of bit fields: variable v
holds bits v*w .. v*w + w - 1, w = (d - 1).bit_length(), so a binary
domain gives a plain bitmask and a one-value domain zero-width fields.  A
condition is then one (field mask, value bits) pair, tested as
`s & mask == bits`; an effect clears its fields and sets its bits.
Actions are expanded in declaration order and the frontier is FIFO, so the
first goal state reached has the lexicographically smallest among the
shortest action-id sequences.

Two actions commute when neither writes a field the other reads and both
write the same value to every field they both write.  From a state whose
recorded last action is a, the search tries neither a again (it would leave
the state as it is) nor an action b < a that commutes with a.  Such a b
would reach the state that the path with a and b swapped reaches, a path of
the same length that is lexicographically smaller, so that state is
already recorded.  Every first discovery thus survives: the recorded
parents, the frontier order, the visited count, the point at which the
budget runs out and the plan are those of the search that tries every
action.
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Tuple

from .core import Instance, Plan, PlanLabError, validate_plan

DEFAULT_BUDGET = 5_000_000
SEQUENCE_BUDGET = 2_000_000  # enumerate_minimal_plans' cap on sequences tried


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
    width = (instance.domain_size - 1).bit_length()
    _, init = _masks(dict(enumerate(instance.init)), width)
    acts = [_masks(a.pre, width) + _masks(a.eff, width)
            for a in instance.actions]
    goal_mask, goal_bits = _masks(instance.goal, width)
    if init & goal_mask == goal_bits:
        return (), 1
    parent = {init: (0, -1)}
    frontier = [init]
    # the actions to try after each last action, each list built on first use
    tries = {-1: list(enumerate(acts))}
    for _depth in range(k):
        next_frontier = []
        for s in frontier:
            last = parent[s][1]
            after = tries.get(last)
            if after is None:
                a = acts[last]
                after = tries[last] = [
                    (b, act) for b, act in tries[-1]
                    if b > last or b < last and not _commute(a, act)]
            for aid, (pm, pb, em, eb) in after:
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


def _commute(a, b) -> bool:
    """Whether the packed actions a and b, each (pre mask, pre bits, eff
    mask, eff bits), commute: wherever one order of the two applies, so
    does the other, and both reach the same state."""
    pre_a, _, eff_a, set_a = a
    pre_b, _, eff_b, set_b = b
    both = eff_a & eff_b
    return (not (eff_a & pre_b or eff_b & pre_a)
            and set_a & both == set_b & both)


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


def _masks(cond, width: int) -> Tuple[int, int]:
    """(bits of the fields cond mentions, the values it sets them to)."""
    field = (1 << width) - 1
    mask = bits = 0
    for v, x in cond.items():
        mask |= field << (v * width)
        bits |= x << (v * width)
    return mask, bits


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


def enumerate_minimal_plans(instance: Instance, k: int) -> Tuple[Plan, ...]:
    """Every valid plan of length <= k without a valid proper subsequence,
    in length-then-lexicographic order.  Raises BudgetExhausted past
    SEQUENCE_BUDGET sequences."""
    if k < 0:
        raise ValueError("k must be non-negative")
    m = len(instance.actions)
    out = []
    tried = 0
    for length in range(k + 1):
        for seq in product(range(m), repeat=length):
            tried += 1
            if tried > SEQUENCE_BUDGET:
                raise BudgetExhausted(tried)
            if is_minimal_plan(instance, seq):
                out.append(seq)
    return tuple(out)
