"""SAS+ data model: instances, plan semantics, restriction classes, effect polarity.

Variables are 0-based indices into a shared finite domain 0..d-1.  A partial
state is a plain mapping var -> value; a variable absent from the mapping is
undefined.  Total states are dense tuples.  Plans are tuples of action ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

PartialState = Mapping[int, int]
TotalState = Tuple[int, ...]
Plan = Tuple[int, ...]

NAME_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")

GOOD = "good"
BAD = "bad"
MIXED = "mixed"


class PlanLabError(Exception):
    pass


class StructuralError(PlanLabError):
    """A corrupt instance or an out-of-range reference into one."""


class ContractError(PlanLabError):
    """An operation was called outside its stated preconditions."""


@dataclass(frozen=True)
class Action:
    name: str
    pre: Dict[int, int]
    eff: Dict[int, int]


@dataclass(frozen=True)
class Instance:
    var_count: int
    domain_size: int
    actions: Tuple[Action, ...]
    init: TotalState
    goal: Dict[int, int]
    # Display names only; not part of structural equality (the text format
    # does not carry them, so round-trips would otherwise not be identities).
    var_names: Tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        n, d = self.var_count, self.domain_size
        if n < 0:
            raise StructuralError("var_count must be non-negative")
        if d < 1:
            raise StructuralError("domain_size must be at least 1")
        if len(self.init) != n:
            raise StructuralError(
                f"init has {len(self.init)} entries, expected {n}")
        for v, x in enumerate(self.init):
            if not 0 <= x < d:
                raise StructuralError(f"init[{v}]={x} outside 0..{d - 1}")
        self._check_partial(self.goal, "goal")
        seen = set()
        for a in self.actions:
            if a.name in seen:
                raise StructuralError(f"duplicate action name {a.name!r}")
            seen.add(a.name)
            self._check_partial(a.pre, "pre", a.name)
            self._check_partial(a.eff, "eff", a.name)
        if not self.var_names:
            object.__setattr__(
                self, "var_names", tuple(f"v{i}" for i in range(n)))
        if len(self.var_names) != n:
            raise StructuralError("var_names length mismatch")
        if len(set(self.var_names)) != n:
            raise StructuralError("duplicate variable name")

    def _check_partial(self, s: PartialState, where: str,
                       action: Optional[str] = None) -> None:
        """Each variable and value of s in range; the message names where,
        or where(action) for an action's precondition or effect."""
        n, d = self.var_count, self.domain_size
        for v, x in s.items():
            if not (0 <= v < n and 0 <= x < d):
                if action is not None:
                    where = f"{where}({action})"
                what = f"variable {v}" if not 0 <= v < n else f"value {x}"
                raise StructuralError(f"{where}: {what} out of range")

    def action_id(self, name: str) -> int:
        for i, a in enumerate(self.actions):
            if a.name == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class RestrictionProfile:
    post_unique: bool
    unary: bool
    binary: bool
    single_valued: bool
    max_pre: int
    max_eff: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "P": self.post_unique,
            "U": self.unary,
            "B": self.binary,
            "S": self.single_valued,
            "max_pre": self.max_pre,
            "max_eff": self.max_eff,
        }


@dataclass(frozen=True)
class EffectPolarity:
    effects: Tuple[Tuple[int, str], ...]  # (variable, GOOD|BAD) per effect
    action: str  # GOOD | BAD | MIXED


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    step: Optional[int] = None  # 0-based failing step; None for goal misses
    reason: Optional[str] = None  # "precondition" | "goal"
    variable: Optional[int] = None
    final_state: Optional[TotalState] = None

    def message(self, instance: Instance) -> str:
        if self.valid:
            return "valid"
        vname = instance.var_names[self.variable]
        if self.reason == "precondition":
            return f"precondition {vname} at step {self.step}"
        return f"goal-miss {vname}"


def validate_plan(instance: Instance, plan: Plan) -> ValidationReport:
    """Runs the plan on one mutable state list, so a step costs its own pre
    and eff, not a copy of the whole state.  The report names the first
    unmet precondition (in step, then variable order) or else the first
    unmet goal variable."""
    state = list(instance.init)
    actions = instance.actions
    for i, aid in enumerate(plan):
        if not 0 <= aid < len(actions):
            raise StructuralError(f"plan step {i}: action id {aid} out of range")
        action = actions[aid]
        for v, x in sorted(action.pre.items()):
            if state[v] != x:
                return ValidationReport(False, step=i, reason="precondition",
                                        variable=v)
        for v, x in action.eff.items():
            state[v] = x
    for v, x in sorted(instance.goal.items()):
        if state[v] != x:
            return ValidationReport(False, reason="goal", variable=v)
    return ValidationReport(True, final_state=tuple(state))


# A packed action: (pre mask, pre bits, eff mask, eff bits) over a state
# packed into one integer of bit fields, variable v in bits v*w .. v*w + w - 1
PackedAction = Tuple[int, int, int, int]


def pack(cond: PartialState, width: int) -> Tuple[int, int]:
    """(bits of the fields cond mentions, the values it sets them to), with
    width bits per variable."""
    ones = (1 << width) - 1
    mask = bits = 0
    for v, x in cond.items():
        mask |= ones << (v * width)
        bits |= x << (v * width)
    return mask, bits


def pack_actions(instance: Instance) -> Tuple[int, List[PackedAction]]:
    """(field width, every action packed in id order).  The width is the
    fewest bits that hold 0..d-1, so a one-value domain has empty fields."""
    width = (instance.domain_size - 1).bit_length()
    return width, [pack(a.pre, width) + pack(a.eff, width)
                   for a in instance.actions]


def commute(a: PackedAction, b: PackedAction) -> bool:
    """Whether a and b commute: neither writes a field the other reads, and
    both write the same value to every field they both write.  Wherever one
    order of the two applies, so does the other, and both reach the same
    state."""
    pre_a, _, eff_a, set_a = a
    pre_b, _, eff_b, set_b = b
    both = eff_a & eff_b
    return (not (eff_a & pre_b or eff_b & pre_a)
            and set_a & both == set_b & both)


def overwrites(b: PackedAction, a: PackedAction) -> bool:
    """Whether b overwrites a: b writes every field a writes and reads none
    of them, so s.a.b = s.b in every state s where a applies."""
    eff_a = a[2]
    return not (eff_a & ~b[2] or eff_a & b[0])


def diff_set(instance: Instance, s: PartialState) -> Tuple[int, ...]:
    """Variables where s is defined and disagrees with the initial state."""
    return tuple(v for v in sorted(s) if s[v] != instance.init[v])


def delta_vars(instance: Instance) -> Tuple[int, ...]:
    return diff_set(instance, instance.goal)


def goal_count(instance: Instance) -> Tuple[int, int]:
    """(unmet, fixes): the number of goal variables whose initial value
    differs from the goal, and the most goal variables that one action sets
    to their goal value.  A step fixes at most `fixes` goal variables, so a
    plan of k steps exists only if unmet <= k * fixes: Bonet & Geffner's
    (2001) goal count, divided by the most that one action fixes.  The
    oracle prunes with it and zero-two refutes with it."""
    goal = instance.goal
    unmet = sum(instance.init[v] != x for v, x in goal.items())
    fixes = 0
    for a in instance.actions:  # plain loops: no generator per action
        n = 0
        for v, x in a.eff.items():
            if goal.get(v) == x:
                n += 1
        if n > fixes:
            fixes = n
    return unmet, fixes


def is_unary(instance: Instance) -> bool:
    """Every action has exactly one effect."""
    return all(len(a.eff) == 1 for a in instance.actions)


def classify(instance: Instance) -> RestrictionProfile:
    producers: Dict[Tuple[int, int], int] = {}
    post_unique = True
    for a in instance.actions:
        for v, x in a.eff.items():
            producers[(v, x)] = producers.get((v, x), 0) + 1
            if producers[(v, x)] > 1:
                post_unique = False
    unary = is_unary(instance)
    binary = instance.domain_size == 2
    prevail: Dict[int, int] = {}
    single_valued = True
    for a in instance.actions:
        for v, x in a.pre.items():
            if v in a.eff:
                continue
            if prevail.setdefault(v, x) != x:
                single_valued = False
    max_pre = max((len(a.pre) for a in instance.actions), default=0)
    max_eff = max((len(a.eff) for a in instance.actions), default=0)
    return RestrictionProfile(post_unique, unary, binary, single_valued,
                              max_pre, max_eff)


def effect_polarity(instance: Instance, action_id: int) -> EffectPolarity:
    """Each effect of the action tagged GOOD (it sets a variable to its goal
    value, or one outside the goal) or BAD, and the action tagged GOOD (no
    bad effect), BAD (only bad effects) or MIXED.  Public API only: no
    route calls it; zero-two tests the effects against the goal in its own
    loops."""
    action = instance.actions[action_id]
    tags = []
    for v in sorted(action.eff):
        x = action.eff[v]
        goal_x = instance.goal.get(v)
        tags.append((v, GOOD if goal_x is None or goal_x == x else BAD))
    kinds = {t for _, t in tags}
    if kinds == {GOOD} or not kinds:
        overall = GOOD
    elif kinds == {BAD}:
        overall = BAD
    else:
        overall = MIXED
    return EffectPolarity(tuple(tags), overall)


def restrict(instance: Instance, keep: Iterable[int]) -> Instance:
    """Project the instance onto a variable subset, renumbering in index order."""
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < instance.var_count:
            raise StructuralError(f"restrict: variable {v} out of range")
    remap = {v: i for i, v in enumerate(kept)}

    def project(s: PartialState) -> Dict[int, int]:
        return {remap[v]: x for v, x in s.items() if v in remap}

    return Instance(
        var_count=len(kept),
        domain_size=instance.domain_size,
        actions=tuple(Action(a.name, project(a.pre), project(a.eff))
                      for a in instance.actions),
        init=tuple(instance.init[v] for v in kept),
        goal=project(instance.goal),
        var_names=tuple(instance.var_names[v] for v in kept),
    )


def lint_instance(instance: Instance) -> Tuple[str, ...]:
    """Non-fatal oddities: accepted by the parser but worth a warning."""
    warnings = []
    for a in instance.actions:
        if not a.eff:
            warnings.append(f"action {a.name!r} has an empty effect set")
    return tuple(warnings)
