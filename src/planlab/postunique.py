"""Level-order search for post-unique instances.

A sequence that is not yet a plan always has a required variable-value pair:
some step's precondition (or the goal) needs (v, x) while the preceding
window of states does not deliver it.  The pair is the first unmet one, in
step order and then variable order, as `validate_plan` reports it.
Post-uniqueness means at most one action produces (v, x), so a sequence
branches only on the insertion position of that producer.  Starting from
the empty sequence, these insertions reach every minimal plan of length
<= k.

A sequence's successors depend on the sequence alone, and each insertion
adds one step, so the search runs level by level over sets of distinct
sequences ("labels"): a label reached along two insertion orders is
examined once.  `solve_postunique` drains every level and keeps the minimal
plans; `shortest_plan_with_stats` stops at the first level holding a plan,
before that level's successors are built.

Each label is replayed from the initial state over the instance packed
once per search (`core.pack_actions`, the oracle's bit fields: variable v
in bits v*w .. v*w + w - 1).  A step fails when `(s ^ pre_bits) & pre_mask`
is not zero, and the lowest set bit of that difference lies in the field
of the lowest unmet variable; after the last step the goal is tested the
same way.  The window start is read from the states recorded on the way.
A one-value domain has zero-width fields, so every sequence is a plan.

The search counts each distinct label as it is queued, the empty label
included, and raises the oracle's `BudgetExhausted` once the count passes
the budget, so that a runaway search stops in bounded memory.

Minimality needs no further search.  A plan with a valid proper subsequence
has a minimal one, of smaller length, which the search has already reached.
So a plan is minimal exactly when no minimal plan of a shorter level is a
subsequence of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .core import (ContractError, Instance, PackedAction, Plan, pack,
                   pack_actions)
from .oracle import DEFAULT_BUDGET, BudgetExhausted

# A required pair as (variable, value, i, j), RequiredPair's fields
Pair = Tuple[int, int, int, int]


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
    None exactly when seq is a valid plan.  The window start i is the
    smallest i such that states i..j-1 all miss (v, x).  Packs the
    instance on every call; the search packs it once."""
    pair = _pair_finder(instance)(seq)
    return None if pair is None else RequiredPair(*pair)


def _pair_finder(instance: Instance) -> Callable[[Plan], Optional[Pair]]:
    """find_required_pair over the instance packed once, as a function of
    the sequence, with the pair as a plain tuple.  The actions are packed
    on the first nonempty sequence: many searches end at the empty one."""
    width = (instance.domain_size - 1).bit_length()
    _, init = pack(dict(enumerate(instance.init)), width)
    goal_mask, goal_bits = pack(instance.goal, width)
    ones = (1 << width) - 1
    acts: List[PackedAction] = []

    def required(seq: Plan) -> Optional[Pair]:
        if seq and not acts:
            acts.extend(pack_actions(instance)[1])
        s = init
        states = []  # the state before each step that applies
        for aid in seq:
            pre_mask, pre_bits, eff_mask, eff_bits = acts[aid]
            miss = (s ^ pre_bits) & pre_mask
            if miss:
                break
            states.append(s)
            s = (s & ~eff_mask) | eff_bits
        else:
            pre_bits = goal_bits
            miss = (s ^ goal_bits) & goal_mask
            if not miss:
                return None
        shift = ((miss & -miss).bit_length() - 1) // width * width
        field = ones << shift
        want = pre_bits & field
        i = len(states)
        while i and states[i - 1] & field != want:
            i -= 1
        return shift // width, want >> shift, i, len(states) + 1

    return required


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


def _levels(instance: Instance, k: int, budget: int = DEFAULT_BUDGET
            ) -> Iterator[Tuple[List[Plan], int]]:
    """For d = 0, 1, ... up to k: the plans among the distinct labels of
    length d, and the number of labels examined so far.  The labels of
    length d + 1 are built only when the caller asks for them.  Raises
    BudgetExhausted once more than `budget` distinct labels are queued."""
    if k < 0:
        raise ValueError("k must be non-negative")
    table = _producer_table(instance)
    if budget < 1:
        raise BudgetExhausted(1, "labels")
    # Past k = 14 the bound exceeds sys.maxsize (16**16 = 2**64), which no
    # label count held in memory reaches; building it exactly would cost
    # more than the search (seconds at k = 10**6).
    label_bound = (k + 1) ** (k + 1) if k < 15 else float("inf")
    required = _pair_finder(instance)
    level = {()}
    labels = 0
    while level:
        labels += len(level)
        if labels > label_bound:
            raise AssertionError(
                f"search exceeded {label_bound} labels: implementation bug")
        plans: List[Plan] = []
        # (label, its pair's producer, first and last insertion slot)
        grow = []
        for seq in level:
            pair = required(seq)
            if pair is None:
                plans.append(seq)
            elif len(seq) < k:
                v, x, i, j = pair
                aid = table.get((v, x))
                if aid is not None:
                    # slot 0 coincides with slot 1
                    grow.append((seq, aid, max(i, 1), j))
        yield plans, labels
        level = set()
        for seq, aid, first, last in grow:
            level.update(_insert(seq, pos, aid)
                         for pos in range(first, last + 1))
            if labels + len(level) > budget:
                raise BudgetExhausted(labels + len(level), "labels")


def _within(sub: Plan, seq: Plan) -> bool:
    """Whether sub is a subsequence of seq."""
    steps = iter(seq)
    return all(aid in steps for aid in sub)


def solve_postunique(instance: Instance, k: int) -> SearchResult:
    """All minimal plans of length <= k, shortest first, then
    lexicographically; and the number of labels examined.  A plan is kept
    when no minimal plan of a shorter level is a subsequence of it.
    Raises BudgetExhausted once more than the oracle's default budget of
    labels are queued."""
    minimal: List[Plan] = []
    labels = 0
    for plans, labels in _levels(instance, k):
        minimal.extend(sorted(p for p in plans
                              if not any(_within(m, p) for m in minimal)))
    return SearchResult(tuple(minimal), labels)


def shortest_plan_with_stats(instance: Instance, k: int,
                             budget: int = DEFAULT_BUDGET
                             ) -> Tuple[Optional[Plan], int]:
    """(lexicographically smallest shortest plan of length <= k or None,
    labels examined up to its level).  A shortest plan is minimal, so the
    search reaches every one of them.  Raises BudgetExhausted once more
    than `budget` labels are queued."""
    labels = 0
    for plans, labels in _levels(instance, k, budget):
        if plans:
            return min(plans), labels
    return None, labels
