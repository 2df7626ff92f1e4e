"""The oracle route: breadth-first search over total states.

shortest_plan runs the search under a budget of visited states.  It
answers `--solver oracle`, it is the route `--solver auto` falls back to
when no other applies, and every other route is checked against it;
planlab.reference.plain_bfs, which tries every action from every state,
checks it in turn.

The search packs each state into one integer of bit fields: variable v
holds bits v*w .. v*w + w - 1, w = (d - 1).bit_length(), so a binary
domain gives a plain bitmask and a one-value domain zero-width fields.  A
condition is then one (field mask, value bits) pair, tested as
`s & mask == bits`; an effect clears its fields and sets its bits.
Actions are expanded in declaration order and the frontier is FIFO, so the
first goal state reached has the lexicographically smallest among the
shortest action-id sequences.

Two actions commute when neither writes a field the other reads and both
write the same value to every field they both write; wherever one order of
the two applies, so does the other, and both reach the same state.  An
action b overwrites a when b writes every field a writes and reads none of
them; then s.a.b = s.b for every state s where a applies.  Both tests are
core.commute and core.overwrites, the one rule that fo-mc's SKIP relation
reads too.

The search skips successors whose state is already recorded.  Each state t
has a skip mask: a set of action ids, stored as a bitmask, not tried from
t.  The initial state skips nothing; a state first reached as s.a gets

    skip(t) = (skip(s) & comm[a]) | base[a]

where comm[a] holds the actions that commute with a, and base[a] holds a
itself, every b < a that commutes with a and every b that overwrites a.
Both are built in one pass over the actions the first time a is the
recorded last action of an expanded state, and each distinct mask keeps
its own list of the actions it lets through.  Beside each frontier state
the search keeps the mask of the state it was first reached from and the
action that reached it, as one pair shared by every state reached the
same way.  The parent map keeps only each state's parent: the action
recorded from a parent is the lowest id that leads from it to the child,
and _reconstruct finds it again.

Invariant: b is in skip(t) only if, on t's recorded path P, there is a
position j such that b commutes with every action after P[j] and either
b < P[j] and b commutes with P[j], or b = P[j], or b overwrites P[j].
Moving b back to just after P[j] then gives a path to t.b of the same
length; swapping it with P[j] gives a lexicographically smaller path of
the same length, and dropping the second P[j] (a repeat leaves a state as
it is) or P[j] itself (b overwrites it) gives a shorter path.  Either way
t.b is recorded before the search tries b from t, so every first discovery
survives: the recorded parents, the frontier order, the visited count,
the point at which the budget runs out and the plan are those of the
search that tries every action, under the bound below.

Bound: fixes is the most goal variables that one action sets to their
goal value, and unmet(t) the number of goal variables whose field in t
differs from the goal (each differing field's bits OR-ed onto its low
bit, then counted).  A successor first reached at depth d is dropped when
unmet(t) > (k - d) * fixes: it is not recorded, not counted against the
budget and not expanded.  At depth k only a goal state is kept.  One step
lowers unmet by at most fixes, so in the parent tree of the search without
the bound every child of a dropped state is dropped too, and every state
one step before a kept state is kept.  The search with the bound thus
records exactly that tree's kept states, from the same parents, with the
same skip masks and in the same order; a skipped t.b that the unbounded
search recorded earlier was either kept then or dropped, and it would be
dropped again from t, one level deeper.  The first goal state (unmet 0)
is always kept, so plans and verdicts are those of the search that tries
every action, and the visited count is its count of kept states:
planlab.reference.plain_bfs with bounded=True.  fixes and unmet(init)
come from core.goal_count, the goal count that zero-two refutes with
too; an initial state with unmet > k * fixes answers at once.

Regression: the regression route, which `--solver auto` runs on an
instance without preconditions that no earlier route takes, searches
backward.  regression_instance derives a binary instance whose states
are the sets of goal variables that later steps of a plan have already
set right, and this same search runs on it; its plan, reversed, is a
shortest plan of the input (the argument is in regression_instance's
docstring), though not the lexicographically smallest one.  On the
multicolored-clique encodings of generators.from_mcc_03 it visits about
half the states of the forward search.  `--solver oracle` still searches
forward and returns the lexicographically smallest shortest plan.
"""

from __future__ import annotations

from typing import Optional

from .core import (Action, ContractError, Instance, Plan, PlanLabError,
                   commute, goal_count, overwrites, pack, pack_actions)

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
    more than `budget` states have been visited, the initial state
    included; states the bound drops are not visited."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if budget < 1:
        raise BudgetExhausted(1)
    width, acts = pack_actions(instance)
    _, init = pack(dict(enumerate(instance.init)), width)
    goal_mask, goal_bits = pack(instance.goal, width)
    unmet, fixes = goal_count(instance)
    if not unmet:
        return (), 1
    if unmet > k * fixes:
        return None, 1
    # the goal fields' low bits; a state's differing goal bits are folded
    # onto them, one bit per unmet goal variable
    _, goal_low = pack(dict.fromkeys(instance.goal, 1), width)
    folds = range(width - 1)
    # each state's parent; the action taken from it is found again by
    # _reconstruct
    parent = {init: None}
    # (comm[a], base[a]) per last action a, built on first use; the
    # initial state (last action -1) skips nothing
    rules = {-1: (0, 0)}
    # per distinct skip mask: for every action b it lets through, (the
    # mask, b) and b's packed action
    tries = {}
    # beside each frontier state, (the skip mask of the state it was first
    # reached from, the action that reached it), one shared pair per
    # distinct pair; its own mask is worked out when it is expanded, so the
    # states of the last level cost nothing
    frontier, reached = [init], [(0, -1)]
    for depth in range(1, k + 1):
        # the most goal variables a kept state of this depth may miss
        allowance = (k - depth) * fixes
        next_frontier, next_reached = [], []
        for s, (held, last) in zip(frontier, reached):
            rule = rules.get(last)
            if rule is None:
                rule = rules[last] = _skip_rule(acts, last)
            skip = held & rule[0] | rule[1]
            after = tries.get(skip)
            if after is None:
                after = tries[skip] = [((skip, b), act)
                                       for b, act in enumerate(acts)
                                       if not skip >> b & 1]
            for how, (pm, pb, em, eb) in after:
                if s & pm != pb:
                    continue
                t = (s & ~em) | eb
                if t in parent:
                    continue
                miss = (t ^ goal_bits) & goal_mask
                if width > 1:
                    for _ in folds:
                        miss |= miss >> 1
                if (miss & goal_low).bit_count() > allowance:
                    continue
                parent[t] = s
                if len(parent) > budget:
                    raise BudgetExhausted(len(parent))
                if not miss:
                    return _reconstruct(parent, acts, t), len(parent)
                next_frontier.append(t)
                next_reached.append(how)
        if not next_frontier:
            break
        frontier, reached = next_frontier, next_reached
    return None, len(parent)


def regression_instance(instance: Instance) -> Instance:
    """The backward search of an instance without preconditions, as a
    binary instance over the same variables, actions and action ids.

    A goal variable matters when the initial state misses it or some
    action sets it to a value other than its goal value (sets it wrong).
    Action a has precondition v=1 for each goal variable it sets wrong and
    effect v=1 for each one that matters and that it sets right; init is
    all 0, and the goal is v=1 for each goal variable init misses.

    Without preconditions every step applies, and each variable ends at
    the value its last writer sets, or at its initial value when no step
    writes it: the last-writer lemma, also behind zero-two's bound
    min(k, |goal|).  So a_1 .. a_n is a plan when every goal variable that
    init misses is written, and the last writer of every written goal
    variable sets it right.  Read the plan backward, from a_n, keeping the
    set W of the goal variables that the steps read so far write.  Their
    last writers all set them right exactly when each step sets wrong only
    variables already in W, and a step then adds to W what it sets right;
    the plan reaches the goal when W ends up holding every goal variable
    that init misses.  That is the derived instance, with W as its state,
    so a_n .. a_1 is a plan of it exactly when a_1 .. a_n is a plan
    of the input, and both have the same length.  A goal variable that
    does not matter holds in every state, so it is left out.  A step that
    adds nothing to W leaves the derived state as it is, and the search
    records each state once, so no plan it returns holds such a step;
    that matches the lemma, by which a step can be dropped from a plan of
    the input when later steps write every goal variable it writes.
    Raises ContractError when an action has a precondition."""
    goal = instance.goal
    unmet = {v: 1 for v, x in goal.items() if instance.init[v] != x}
    matters = set(unmet)
    matters.update(v for a in instance.actions for v, x in a.eff.items()
                   if goal.get(v, x) != x)
    actions = []
    for a in instance.actions:
        if a.pre:
            raise ContractError(
                f"action {a.name!r} has a precondition; the regression "
                "route needs an instance without preconditions")
        pre, eff = {}, {}
        for v, x in a.eff.items():
            if v in matters:
                if goal[v] == x:
                    eff[v] = 1
                else:
                    pre[v] = 1
        actions.append(Action(a.name, pre, eff))
    return Instance(instance.var_count, 2, tuple(actions),
                    (0,) * instance.var_count, unmet, instance.var_names)


def _skip_rule(acts, a):
    """(comm[a], base[a]) as bitmasks over action ids: the actions that
    commute with a, and the actions never tried from a state whose recorded
    last action is a (the lower-id ones that commute with a, a itself, and
    those that overwrite a)."""
    act_a = acts[a]
    comm, base = 0, 1 << a
    for b, act_b in enumerate(acts):
        if commute(act_a, act_b):
            comm |= 1 << b
            if b < a:
                base |= 1 << b
        if overwrites(act_b, act_a):
            base |= 1 << b
    return comm, base


def _reconstruct(parent, acts, state) -> Plan:
    """The recorded path to state.  The action recorded from a parent s is
    the lowest id that leads from s to the child: a lower one would have
    been tried first, unless s skips it, and then the state it leads to
    was recorded before the search tried it from s."""
    plan = []
    while True:
        prev = parent[state]
        if prev is None:
            break
        plan.append(next(b for b, (pm, pb, em, eb) in enumerate(acts)
                         if prev & pm == pb and (prev & ~em) | eb == state))
        state = prev
    plan.reverse()
    return tuple(plan)

