"""Level-order search for post-unique instances.

A sequence that is not yet a plan always has a required variable-value pair:
some step's precondition (or the goal) needs (v, x) while the preceding
window of states does not deliver it.  The pair is the first unmet one that
`validate_plan`'s failure report names.  Post-uniqueness means at most one
action produces (v, x), so a sequence branches only on the insertion
position of that producer.  Starting from the empty sequence, these
insertions reach every minimal plan of length <= k.

A sequence's successors depend on the sequence alone, and each insertion
adds one step, so the search runs level by level over sets of distinct
sequences ("labels"): a label reached along two insertion orders is
examined once.  `solve_postunique` drains every level and keeps the minimal
plans; `shortest_plan_with_stats` stops at the first level holding a plan.

Minimality needs no further search.  A plan with a valid proper subsequence
has a minimal one, of smaller length, which the search has already reached.
So a plan is minimal exactly when no minimal plan of a shorter level is a
subsequence of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .core import ContractError, Instance, Plan, validate_plan


@dataclass(frozen=True)
class RequiredPair:
    variable: int
    value: int
    i: int  # start of the window in which the producer may be inserted
    j: int  # position needing the value: action position, or len(seq)+1 for the goal


@dataclass
class SearchResult:
    plans: Tuple[Plan, ...]
    node_count: int  # distinct labels examined


def find_required_pair(instance: Instance, seq: Plan) -> Optional[RequiredPair]:
    """The required pair with smallest j, then smallest variable and value;
    None exactly when seq is a valid plan.  validate_plan reports the first
    unmet precondition or goal pair in this order; replaying that variable
    alone gives the window start i, the smallest i such that states i..j-1
    all miss (v, x)."""
    report = validate_plan(instance, seq)
    if report.valid:
        return None
    v = report.variable
    if report.reason == "goal":
        j, x = len(seq) + 1, instance.goal[v]
    else:
        j, x = report.step + 1, instance.actions[seq[report.step]].pre[v]
    i, value = 0, instance.init[v]
    for t, aid in enumerate(seq[:j - 1]):
        if value == x:
            i = t + 1
        value = instance.actions[aid].eff.get(v, value)
    return RequiredPair(v, x, i, j)


def _producer_table(instance: Instance) -> Dict[Tuple[int, int], int]:
    table: Dict[Tuple[int, int], int] = {}
    for aid, action in enumerate(instance.actions):
        for v, x in action.eff.items():
            if (v, x) in table:
                raise ContractError(
                    f"two producers for variable {v} value {x}: "
                    "instance is not post-unique")
            table[(v, x)] = aid
    return table


def _insert(seq: Plan, pos: int, aid: int) -> Plan:
    """New sequence with aid as the pos-th element (1-based)."""
    return seq[:pos - 1] + (aid,) + seq[pos - 1:]


def _levels(instance: Instance, k: int) -> Iterator[Tuple[List[Plan], int]]:
    """For d = 0, 1, ... up to k: the plans among the distinct labels of
    length d, and the number of labels examined so far."""
    if k < 0:
        raise ValueError("k must be non-negative")
    table = _producer_table(instance)
    # Past k = 14 the bound exceeds sys.maxsize (16**16 = 2**64), which no
    # label count held in memory reaches; building it exactly would cost
    # more than the search (seconds at k = 10**6).
    label_budget = (k + 1) ** (k + 1) if k < 15 else float("inf")
    level = {()}
    labels = 0
    while level:
        labels += len(level)
        if labels > label_budget:
            raise AssertionError(
                f"search exceeded {label_budget} labels: implementation bug")
        plans: List[Plan] = []
        successors = set()
        for seq in level:
            pair = find_required_pair(instance, seq)
            if pair is None:
                plans.append(seq)
                continue
            aid = table.get((pair.variable, pair.value))
            if len(seq) < k and aid is not None:
                # Insertion slots i..j as list positions; slot 0 coincides
                # with slot 1.
                successors.update(_insert(seq, pos, aid)
                                  for pos in range(max(pair.i, 1), pair.j + 1))
        yield plans, labels
        level = successors


def _within(sub: Plan, seq: Plan) -> bool:
    """Whether sub is a subsequence of seq."""
    steps = iter(seq)
    return all(aid in steps for aid in sub)


def solve_postunique(instance: Instance, k: int) -> SearchResult:
    """All minimal plans of length <= k, shortest first, then
    lexicographically; and the number of labels examined.  A plan is kept
    when no minimal plan of a shorter level is a subsequence of it."""
    minimal: List[Plan] = []
    labels = 0
    for plans, labels in _levels(instance, k):
        minimal.extend(sorted(p for p in plans
                              if not any(_within(m, p) for m in minimal)))
    return SearchResult(tuple(minimal), labels)


def shortest_plan_with_stats(instance: Instance, k: int
                             ) -> Tuple[Optional[Plan], int]:
    """(lexicographically smallest shortest plan of length <= k or None,
    labels examined up to its level).  A shortest plan is minimal, so the
    search reaches every one of them."""
    labels = 0
    for plans, labels in _levels(instance, k):
        if plans:
            return min(plans), labels
    return None, labels
