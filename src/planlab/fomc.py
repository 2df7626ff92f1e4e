"""Bounded planning as first-order model checking.

An instance is encoded as a finite relational structure; a plan bound k is
encoded as a closed formula whose size depends on k alone.  The general
encoding needs one existential block followed by two universal quantifiers;
for unary instances an extended structure with dummy padding elements makes
a purely existential formula possible, and one-element relations DUMj pin
its interchangeable dummy variables.  There ACT holds the dummy action and
only the actions that can fire within k unary steps, those whose
precondition deviates from the initial state on fewer than k variables; the
others stay universe elements that no quantifier ranges over.  A generic
evaluator then decides satisfaction, giving a solver route that shares no
code with the search-tree solver, and with the state-space oracle only the
rule for when two actions commute and when one overwrites another
(core.commute and core.overwrites).

solve_via_mc is the route, and it chooses the fragment: the existential
sigma1 for a unary instance and sigma22 for any other, unless its caller
names one.

Both structures carry a binary relation SKIP over ACT, and both formulas
forbid SKIP(a_i, a_i+1) at each step i < k.  (a, b) is in SKIP when b is a,
or b has a lower id and commutes with a, or b overwrites a (the oracle's
base[a]), and when a is the dummy action and b a real one.  The rule is
sound: any plan of length at most k can be rewritten into one with no such
pair by dropping a repeat or an overwritten action, swapping an
out-of-order commuting pair and moving the dummies to the end; each step
lowers (length, inversions, dummy-before-real pairs), so the rewriting
ends.  These are symmetry-breaking predicates (Crawford, Ginsberg, Luks
and Roy, KR 1996) that order commuting actions as in Rintanen, Heljanko
and Niemela, AIJ 2006.  They are quantifier-free over the existential
block, so the prefix shapes stay as they are and each formula's size still
depends on k alone.

The builders state each quantifier's range as a unary guard relation:
exists x in R phi reads as exists x (R(x) and phi), and forall x in R phi as
forall x (R(x) -> phi).  A formula compiles once, independent of any
structure, to Python closures over one environment list
(compile_program), and binds to each structure (Program.bind), which fills
the environment's structure slots: the radix, every relation as a
frozenset of radix-packed keys, and each guard's members, over which a
guarded quantifier alone ranges.  Each formula depends on (fragment, k)
alone, so solve_via_mc compiles it once per (fragment, k) and binds it to
each instance's structure.  The compiler cuts the formula below the
existential prefix into conjuncts, cutting through a following universal
block (forall distributes over and, for any universe), and wraps each
conjunct only in the block quantifiers whose variable it names: forall x
phi is phi when phi does not name x and x ranges over something, and true
when x ranges over nothing, which bind decides from the structure.  The
evaluator checks each conjunct as soon as the deepest prefix variable it
names is bound.  On the sigma22 encoding the actions range over ACT and
(v, x) over VAR x DOM; the SKIP conjunct of steps i and i+1 runs once as
soon as a_i+1 is bound, not once per (v, x), and the precondition conjunct
of step i as soon as a_i is bound, so a refutation backjumps instead of
trying every action tuple.  The reference evaluator model_check_basic
compiles the same nodes with every quantifier over the whole universe and
its guard read as an atom, and binds them the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, Union

from .core import (ContractError, Instance, Plan, PlanLabError, classify,
                   commute, diff_set, overwrites, pack_actions, validate_plan)

SIGMA1_MAX_K = 8  # the diff subset disjunction grows as 2**k
# sigma22's goal conjunct nests _value_after k deep.  Compiling it, once per
# k, takes about 2 Python frames per level, and evaluating it, on every
# call, about 3: k = 200 needs a recursion limit of about 612, and k = 329
# still passes the default 1000.
SIGMA22_MAX_K = 200


class TriviallyUnsolvable(PlanLabError):
    """The goal deviates from the initial state on more than k variables, so
    no plan of length <= k can exist (unary case)."""


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Exists(Formula):
    """exists var body; with a guard R, exists var (R(var) and body)."""
    var: str
    body: Formula
    guard: Optional[str] = None


@dataclass(frozen=True)
class Forall(Formula):
    """forall var body; with a guard R, forall var (R(var) -> body)."""
    var: str
    body: Formula
    guard: Optional[str] = None


@dataclass(frozen=True)
class And(Formula):
    parts: Tuple[Formula, ...]


@dataclass(frozen=True)
class Or(Formula):
    parts: Tuple[Formula, ...]


@dataclass(frozen=True)
class Not(Formula):
    part: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Atom(Formula):
    rel: str
    terms: Tuple[str, ...]


@dataclass(frozen=True)
class Equal(Formula):
    left: str
    right: str


def _children(f: Formula) -> Tuple[Formula, ...]:
    if isinstance(f, (Exists, Forall)):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, Not):
        return (f.part,)
    if isinstance(f, Implies):
        return (f.left, f.right)
    return ()


def node_count(f: Formula) -> int:
    return 1 + sum(node_count(c) for c in _children(f))


def formula_to_sexpr(f: Formula) -> str:
    if isinstance(f, (Exists, Forall)):
        kind = "exists" if isinstance(f, Exists) else "forall"
        var = f.var if f.guard is None else f"({f.var} {f.guard})"
        return f"({kind} {var} {formula_to_sexpr(f.body)})"
    if isinstance(f, And):
        return "(and " + " ".join(formula_to_sexpr(p) for p in f.parts) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(formula_to_sexpr(p) for p in f.parts) + ")"
    if isinstance(f, Not):
        return f"(not {formula_to_sexpr(f.part)})"
    if isinstance(f, Implies):
        return (f"(implies {formula_to_sexpr(f.left)} "
                f"{formula_to_sexpr(f.right)})")
    if isinstance(f, Atom):
        return "(" + " ".join((f.rel,) + f.terms) + ")"
    if isinstance(f, Equal):
        return f"(= {f.left} {f.right})"
    raise TypeError(f"not a formula node: {f!r}")


def prefix_shape(f: Formula) -> Tuple[int, int, bool]:
    """(existential block length, following universal block length,
    rest quantifier-free)."""
    e = 0
    while isinstance(f, Exists):
        e += 1
        f = f.body
    u = 0
    while isinstance(f, Forall):
        u += 1
        f = f.body
    return e, u, _quantifier_free(f)


def _quantifier_free(f: Formula) -> bool:
    return (not isinstance(f, (Exists, Forall))
            and all(_quantifier_free(c) for c in _children(f)))


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------
#
# One builder, _structure, lays out the elements of both structures and
# builds each relation once, beside its arity; build_structure and
# build_extended_structure are one call into it each, and _witness_plan
# decodes a witness through the universe it laid out.

SORT_VARIABLE = "variable"
SORT_ACTION = "action"
SORT_VALUE = "domain-value"
SORT_DUMMY_ACTION = "dummy-action"
SORT_DUMMY = "dummy-element"


@dataclass(frozen=True)
class RelationalStructure:
    universe: Tuple[Tuple[str, str], ...]  # (display name, sort)
    relations: Dict[str, FrozenSet[Tuple[int, ...]]]
    arities: Dict[str, int]

    @property
    def size(self) -> int:
        return len(self.universe)


def _structure(instance: Instance,
               k: Optional[int] = None) -> RelationalStructure:
    """The base structure, or with a bound k the extended one.  The elements
    are laid out in index order: variables, actions, domain values, u,
    dum_a, then dum1..dumk when k is given."""
    n, d, actions = instance.var_count, instance.domain_size, instance.actions
    act, val = n, n + len(actions)  # action a is act + a, value x is val + x
    dum_a = val + d + 1             # u is val + d, the j-th dummy dum_a + j
    universe = ([(name, SORT_VARIABLE) for name in instance.var_names]
                + [(a.name, SORT_ACTION) for a in actions]
                + [(str(x), SORT_VALUE) for x in range(d)]
                + [("u", SORT_VALUE), ("dum_a", SORT_DUMMY_ACTION)])
    pre = [(act + a, v, val + x) for a, action in enumerate(actions)
           for v, x in action.pre.items()]
    eff = [(act + a, v, val + x) for a, action in enumerate(actions)
           for v, x in action.eff.items()]
    rels = {"VAR": (1, [(v,) for v in range(n)]),
            "DOM": (1, [(val + x,) for x in range(d + 1)]),
            "DUM_A": (1, [(dum_a,)]),
            "INIT_V": (2, [(v, val + x) for v, x in enumerate(instance.init)]),
            "GOAL_V": (2, [(v, val + x) for v, x in instance.goal.items()]),
            "PRE": (2, [t[:2] for t in pre]), "PRE_V": (3, pre),
            "EFF": (2, [t[:2] for t in eff]), "EFF_V": (3, eff)}
    ids = range(len(actions))  # the actions in ACT
    if k is not None:
        goal_diff = diff_set(instance, instance.goal)
        if len(goal_diff) > k:
            raise TriviallyUnsolvable(
                f"goal deviates from the initial state on {len(goal_diff)} "
                "> k variables")
        universe += [(f"dum{j}", SORT_DUMMY) for j in range(1, k + 1)]

        def cover(diff):  # diff's variables padded to k with leading dummies
            return [*diff, *range(dum_a + 1, dum_a + k - len(diff) + 1)]

        diffs = [diff_set(instance, action.pre) for action in actions]
        ids = [a for a in ids if len(diffs[a]) < k]
        rels.update({f"DUM{j}": (1, [(dum_a + j,)]) for j in range(1, k + 1)})
        rels.update({
            "GOAL": (1, [(v,) for v in instance.goal]),
            "DIFF_ACT": (2, [(act + a, x) for a in ids
                             for x in cover(diffs[a])]),
            "DIFF_GOAL": (1, [(x,) for x in cover(goal_diff)])})
    _, packed = pack_actions(instance)
    rels["ACT"] = (1, [(act + a,) for a in ids] + [(dum_a,)])
    # (a, b) with b in the oracle's base[a]: a itself, a lower id that
    # commutes with a, or an action that overwrites a; and dum_a before
    # every real action
    rels["SKIP"] = (2, [(act + a, act + b) for a in ids for b in ids
                        if b == a or overwrites(packed[b], packed[a])
                        or b < a and commute(packed[a], packed[b])]
                    + [(dum_a, act + b) for b in ids])
    return RelationalStructure(
        tuple(universe), {r: frozenset(rows) for r, (_, rows) in rels.items()},
        {r: arity for r, (arity, _) in rels.items()})


def build_structure(instance: Instance) -> RelationalStructure:
    return _structure(instance)


def build_extended_structure(instance: Instance, k: int) -> RelationalStructure:
    """The base structure plus k dummy elements, GOAL and the diff
    relations.  ACT holds dum_a and only the actions whose precondition
    deviates from the initial state on fewer than k variables: the i-th
    action of a unary plan follows at most i-1 single-variable changes, so
    no other action can fire within k steps.  Each action in ACT is padded
    to exactly k DIFF_ACT rows; the others stay universe elements with no
    ACT, DIFF_ACT or SKIP row.  DUMj holds the j-th dummy alone, so that a
    formula can pin its j-th dummy variable; no relation holds all the
    dummies.
    Raises TriviallyUnsolvable when the goal deviates on more than k
    variables."""
    return _structure(instance, k)


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


# ---------------------------------------------------------------------------
# Formula builders
# ---------------------------------------------------------------------------

def _value_after(i: int, v: str, x: str) -> Formula:
    """v holds x after the first i guessed actions run on the initial state."""
    if i == 0:
        return Atom("INIT_V", (v, x))
    return Or((
        And((_value_after(i - 1, v, x), Not(Atom("EFF", (f"a{i}", v))))),
        Atom("EFF_V", (f"a{i}", v, x)),
    ))


def _no_skip(k: int) -> Tuple[Formula, ...]:
    """not SKIP(a_i, a_i+1) for each step i < k."""
    return tuple(Not(Atom("SKIP", (f"a{i}", f"a{i + 1}")))
                 for i in range(1, k))


def build_sigma22_formula(k: int) -> Formula:
    """Closed formula: the structure of an instance models it iff a plan of
    length at most k exists.  Prefix: k existentials, two universals."""
    if k < 1:
        raise ValueError("k must be positive")
    if k > SIGMA22_MAX_K:
        raise ContractError(
            f"the nested sigma22 formula outgrows Python's recursion limit; "
            f"k={k} exceeds the cap of {SIGMA22_MAX_K}")
    check_pre = tuple(
        Implies(Atom("PRE_V", (f"a{i}", "v", "x")), _value_after(i - 1, "v", "x"))
        for i in range(1, k + 1))
    check_goal = Implies(Atom("GOAL_V", ("v", "x")), _value_after(k, "v", "x"))
    f: Formula = Forall("v", Forall("x", And(
        _no_skip(k) + check_pre + (check_goal,)), "DOM"), "VAR")
    for i in range(k, 0, -1):
        f = Exists(f"a{i}", f, "ACT")
    return f


def _subset_cover(target_rel: str, first_term: Optional[str], k: int) -> Formula:
    """The subset disjunction: some set of pairwise-distinct v_j plus leading
    dummies accounts for all of the exactly-k rows of the padded relation."""
    disjuncts = []
    for size in range(k + 1):
        for J in combinations(range(1, k + 1), size):
            parts: List[Formula] = []
            for j, j2 in combinations(J, 2):
                parts.append(Not(Equal(f"v{j}", f"v{j2}")))
            for j in J:
                terms = (f"v{j}",) if first_term is None \
                    else (first_term, f"v{j}")
                parts.append(Atom(target_rel, terms))
            for j in range(1, k - size + 1):
                terms = (f"d{j}",) if first_term is None \
                    else (first_term, f"d{j}")
                parts.append(Atom(target_rel, terms))
            disjuncts.append(And(tuple(parts)) if parts else And(()))
    return Or(tuple(disjuncts))


def build_sigma1_formula(k: int) -> Formula:
    """Closed purely-existential formula over the extended vocabulary,
    equivalent to plan existence for unary instances.

    The dummies d1..dk only need to be distinct dummy elements, and they
    occur elsewhere only in padding atoms of the DIFF relations, whose dummy
    columns are the prefix dum1..dum(k-|diff|); so d_j = dum_j satisfies the
    formula whenever any distinct choice does.  The guard DUMj of dj pins
    them to that choice (a symmetry-breaking predicate in the sense of
    Crawford, Ginsberg, Luks and Roy, KR 1996), which also makes them
    distinct dummies.  They lead the prefix, so a search binds each once.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k > SIGMA1_MAX_K:
        raise ContractError(
            f"the existential encoding blows up as 2**k; k={k} exceeds the "
            f"cap of {SIGMA1_MAX_K}")

    check_eff = And(tuple(
        Or((Atom("EFF", (f"a{i}", f"v{i}")), Atom("DUM_A", (f"a{i}",))))
        for i in range(1, k + 1)))

    diff_op_all = And(tuple(
        Or((Atom("DUM_A", (f"a{i}",)), _subset_cover("DIFF_ACT", f"a{i}", k)))
        for i in range(1, k + 1)))

    diff_goal = _subset_cover("DIFF_GOAL", None, k)

    check_pre_all = And(tuple(
        And(tuple(
            Or((And((Atom("PRE_V", (f"a{i}", f"v{j}", f"x{i}_{j}")),
                     _value_after(i - 1, f"v{j}", f"x{i}_{j}"))),
                Not(Atom("PRE", (f"a{i}", f"v{j}")))))
            for j in range(1, k + 1)))
        for i in range(1, k + 1)))

    check_goal = And(tuple(
        Or((And((Atom("GOAL_V", (f"v{i}", f"xg{i}")),
                 _value_after(k, f"v{i}", f"xg{i}"))),
            Not(Atom("GOAL", (f"v{i}",)))))
        for i in range(1, k + 1)))

    roster = ([(f"d{i}", f"DUM{i}") for i in range(1, k + 1)]
              + [(f"a{i}", "ACT") for i in range(1, k + 1)]
              + [(f"v{i}", "VAR") for i in range(1, k + 1)]
              + [(f"x{i}_{j}", "DOM") for i in range(1, k + 1)
                 for j in range(1, k + 1)]
              + [(f"xg{i}", "DOM") for i in range(1, k + 1)])
    f: Formula = And((And(_no_skip(k)), check_eff, diff_op_all, diff_goal,
                      check_pre_all, check_goal))
    for name, guard in reversed(roster):
        f = Exists(name, f, guard)
    return f


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------
#
# A formula compiles once, for no structure in particular, to closures over
# one environment list.  Each binder gets a variable slot, and a variable
# name resolves through the scope of its enclosing binders to the innermost
# one.  Each value that a structure supplies -- the radix U, a relation's
# packed keys, a guard's members -- gets a slot of its own when first met,
# and Program.bind fills those from one structure.  (Every slot counts up
# from 0: CPython indexes a list fastest with a non-negative int.)  A
# relation is a frozenset of its tuples packed radix-U into ints, so a unary
# relation's keys are its elements.

Check = Callable[[list], bool]


def _atom(keys: int, slots: Tuple[int, ...], radix: int) -> Check:
    """R(t1..tn): the terms' values packed radix-U, probed in R's keys."""
    if len(slots) == 1:
        a, = slots
        return lambda env: env[a] in env[keys]
    if len(slots) == 2:
        a, b = slots
        return lambda env: env[a] * env[radix] + env[b] in env[keys]
    if len(slots) == 3:
        a, b, c = slots
        return lambda env: ((env[a] * env[radix] + env[b]) * env[radix]
                            + env[c] in env[keys])
    return lambda env: reduce(lambda key, s: key * env[radix] + env[s],
                              slots, 0) in env[keys]


def _pack(rows: FrozenSet[Tuple[int, ...]], arity: int,
          U: int) -> FrozenSet[int]:
    """A relation's rows packed radix-U, as _atom probes them."""
    if arity == 1:
        return frozenset(a for a, in rows)
    if arity == 2:
        return frozenset(a * U + b for a, b in rows)
    if arity == 3:
        return frozenset((a * U + b) * U + c for a, b, c in rows)
    return frozenset(reduce(lambda key, e: key * U + e, t, 0) for t in rows)


def _all(parts: Tuple[Check, ...]) -> Check:
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        a, b = parts
        return lambda env: a(env) and b(env)

    def all_(env):
        for p in parts:
            if not p(env):
                return False
        return True
    return all_


def _any(parts: Tuple[Check, ...]) -> Check:
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        a, b = parts
        return lambda env: a(env) or b(env)

    def any_(env):
        for p in parts:
            if p(env):
                return True
        return False
    return any_


def _quantifier(exists: bool, slot: int, domain: int, body: Check) -> Check:
    if exists:
        return lambda env: any(body(env) for env[slot] in env[domain])
    return lambda env: all(body(env) for env[slot] in env[domain])


def _conjuncts(f: Formula) -> List[Formula]:
    if isinstance(f, And):
        return [g for p in f.parts for g in _conjuncts(p)]
    return [f]


@dataclass
class CompiledQuery:
    """A closed formula bound to one structure, for evaluate_program: a
    Program, compiled once per formula independent of any structure, with
    one structure's values filled in.

    env is the environment to evaluate in: the variable slots unbound and
    the structure's values in theirs.  The outer existential block is split
    out: its binders take the first slots, so prefix level L is environment
    slot L, bound to prefix_names[L], and candidates[L] lists the members
    of that binder's guard (the whole universe if it has none).  const_checks
    are the conjuncts with no prefix variable, and sched[L] holds (check,
    conflict levels) pairs, one per conjunct whose deepest prefix variable
    is level L, run right after level L is bound.  A conjunct that leaves
    out a quantifier over an empty range holds vacuously and is in neither.
    """
    env: list
    prefix_names: List[str]
    candidates: List[List[int]]
    const_checks: List[Check]
    sched: List[List[Tuple[Check, Tuple[int, ...]]]]


@dataclass(frozen=True)
class Program:
    """A closed formula compiled once, independent of any structure; bind
    makes it a CompiledQuery over one structure.  solve_via_mc compiles
    each (fragment, k) once and binds it to each instance's structure.

    prefix lists the outer existential binders as (name, members slot).
    The rest is cut into conjuncts: a universal block right after the
    prefix is cut through, since forall distributes over and, and each
    conjunct of its body keeps the block quantifiers whose variable it
    names.  Each conjunct is (check, the prefix levels it names, the
    members slots of the block quantifiers it dropped).  named lists each
    (relation, arity) the formula uses, in the order first met.  The slots
    of the structure's values: radix (None if no atom needs it), keys (by
    relation) and ranges, the members of each guard (None for the whole
    universe).
    """
    n_slots: int
    prefix: Tuple[Tuple[str, int], ...]
    conjuncts: Tuple[Tuple[Check, Tuple[int, ...], Tuple[int, ...]], ...]
    named: Tuple[Tuple[str, int], ...]
    radix: Optional[int]
    keys: Dict[str, int]
    ranges: Dict[Optional[str], int]

    def bind(self, structure: RelationalStructure) -> CompiledQuery:
        """The structure's values in their slots, with the candidates of
        each prefix level.  forall x phi is phi when phi does not name x
        and x ranges over something, and true when x ranges over nothing:
        a conjunct that dropped a quantifier over an empty range is left
        out."""
        s = structure
        for name, arity in self.named:
            if name not in s.relations:
                raise ContractError(f"formula uses unknown relation {name!r}")
            if s.arities[name] != arity:
                raise ContractError(f"relation {name} has arity "
                                    f"{s.arities[name]}, atom uses {arity}")
        U = s.size
        env: list = [-1] * self.n_slots
        if self.radix is not None:
            env[self.radix] = U
        keys: Dict[str, FrozenSet[int]] = {}
        for name, slot in self.keys.items():
            keys[name] = _pack(s.relations[name], s.arities[name], U)
            env[slot] = keys[name]
        for guard, slot in self.ranges.items():  # in index order
            env[slot] = range(U) if guard is None else sorted(keys[guard])
        const_checks: List[Check] = []
        sched: List[List[Tuple[Check, Tuple[int, ...]]]] = [
            [] for _ in self.prefix]
        for check, levels, dropped in self.conjuncts:
            if not all(env[m] for m in dropped):
                continue
            if levels:
                sched[levels[-1]].append((check, levels))
            else:
                const_checks.append(check)
        return CompiledQuery(env, [name for name, _ in self.prefix],
                             [list(env[m]) for _, m in self.prefix],
                             const_checks, sched)


class _Compiler:
    """Formula nodes to closures that read every structure value from a
    slot.  Variable slots are allocated as binders are met; scope maps each
    name to its stack of binding slots, and used records every slot a name
    resolved to.  A guarded quantifier ranges over its guard's members
    alone."""

    def __init__(self):
        self.named: Dict[Tuple[str, int], None] = {}
        self.radix: Optional[int] = None
        self.keys: Dict[str, int] = {}
        self.ranges: Dict[Optional[str], int] = {}
        self.scope: Dict[str, List[int]] = {}
        self.used: set = set()
        self.n_slots = 0

    def new_slot(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def relation(self, name: str, arity: int) -> int:
        """The slot of the relation's keys."""
        self.named.setdefault((name, arity))
        if name not in self.keys:
            self.keys[name] = self.new_slot()
        return self.keys[name]

    def members(self, guard: Optional[str]) -> int:
        """The slot of the elements a quantifier guarded by guard ranges
        over, in index order."""
        if guard is not None:
            self.relation(guard, 1)
        if guard not in self.ranges:
            self.ranges[guard] = self.new_slot()
        return self.ranges[guard]

    def slot(self, name: str) -> int:
        stack = self.scope.get(name)
        if not stack:
            raise ContractError(f"free variable {name!r} in formula")
        self.used.add(stack[-1])
        return stack[-1]

    def bind(self, name: str) -> int:
        slot = self.new_slot()
        self.scope.setdefault(name, []).append(slot)
        return slot

    def program(self, prefix, conjuncts) -> Program:
        return Program(self.n_slots, tuple(prefix), tuple(conjuncts),
                       tuple(self.named), self.radix, self.keys, self.ranges)

    def compile(self, f: Formula) -> Check:
        if isinstance(f, Atom):
            if self.radix is None:
                self.radix = self.new_slot()
            return _atom(self.relation(f.rel, len(f.terms)),
                         tuple(map(self.slot, f.terms)), self.radix)
        if isinstance(f, Equal):
            a, b = self.slot(f.left), self.slot(f.right)
            return lambda env: env[a] == env[b]
        if isinstance(f, Not):
            part = self.compile(f.part)
            return lambda env: not part(env)
        if isinstance(f, And):
            return _all(tuple(map(self.compile, f.parts)))
        if isinstance(f, Or):
            return _any(tuple(map(self.compile, f.parts)))
        if isinstance(f, Implies):
            left, right = self.compile(f.left), self.compile(f.right)
            return lambda env: not left(env) or right(env)
        if isinstance(f, (Exists, Forall)):
            domain = self.members(f.guard)
            slot = self.bind(f.var)
            body = self.compile(f.body)
            self.scope[f.var].pop()
            return _quantifier(isinstance(f, Exists), slot, domain, body)
        raise TypeError(f"not a formula node: {f!r}")


class _Reference(_Compiler):
    """The textbook reading: every quantifier ranges over the whole
    universe, and a guard R joins its body as the atom R(var)."""

    def compile(self, f: Formula) -> Check:
        if isinstance(f, (Exists, Forall)) and f.guard is not None:
            r = Atom(f.guard, (f.var,))
            f = type(f)(f.var, And((r, f.body)) if isinstance(f, Exists)
                        else Implies(r, f.body))
        return super().compile(f)


def compile_program(formula: Formula) -> Program:
    """formula compiled for every structure whose relations it names."""
    c = _Compiler()
    binders: List[Exists] = []
    f = formula
    while isinstance(f, Exists):
        c.bind(f.var)  # the L-th binder takes slot L
        binders.append(f)
        f = f.body
    prefix = [(q.var, c.members(q.guard)) for q in binders]
    block: List[Forall] = []
    while isinstance(f, Forall):
        block.append(f)
        f = f.body

    conjuncts = []
    for g in _conjuncts(f):
        c.used = set()
        slots = [c.bind(q.var) for q in block]
        check, dropped = c.compile(g), []
        for q, slot in zip(reversed(block), reversed(slots)):
            c.scope[q.var].pop()
            domain = c.members(q.guard)
            if slot in c.used:
                check = _quantifier(False, slot, domain, check)
            else:
                dropped.append(domain)
        levels = tuple(sorted(s for s in c.used if s < len(prefix)))
        conjuncts.append((check, levels, tuple(dropped)))
    return c.program(prefix, conjuncts)


def compile_query(structure: RelationalStructure,
                  formula: Union[Formula, Program]) -> CompiledQuery:
    """formula, compiled unless it is a Program already, bound to
    structure."""
    if isinstance(formula, Formula):
        formula = compile_program(formula)
    return formula.bind(structure)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------
#
# Two evaluators over the same node compiler and the same bind.
# model_check_basic is the plain recursive short-circuiting definition of
# satisfaction: every quantifier ranges over the whole universe, its guard
# read as an atom of its body.
# evaluate_program handles the common shape here -- a closed formula with an
# outer existential block -- and checks each conjunct as soon as its prefix
# variables are bound, with conflict-directed backjumping over the block.
# Both try universe elements in index order, so the first witness is
# deterministic and the same for both.

_SAT = object()  # sentinel distinct from any conflict set


def _try_level(q: CompiledQuery, env: list, L: int, counter: List[int]):
    """Bind prefix level L..end.  Returns _SAT or the conflict level set."""
    last = len(q.prefix_names) - 1
    checks = q.sched[L]
    conflict = set()
    for val in q.candidates[L]:
        counter[0] += 1
        env[L] = val
        failed = False
        for check, levels in checks:
            if not check(env):
                conflict.update(levels)
                failed = True
                break
        if failed:
            continue
        if L == last:
            return _SAT
        res = _try_level(q, env, L + 1, counter)
        if res is _SAT:
            return _SAT
        if L not in res:
            env[L] = -1
            return res  # backjump: failure did not involve this level
        res.discard(L)
        conflict.update(res)
    env[L] = -1
    conflict.discard(L)
    return conflict


def evaluate_program(q: CompiledQuery):
    """(satisfied, witness values for the prefix or None, assignments)."""
    env = q.env[:]
    counter = [0]
    for check in q.const_checks:
        if not check(env):
            return (False, None, counter[0])
    e = len(q.prefix_names)
    if not e:
        return (True, [], counter[0])
    if _try_level(q, env, 0, counter) is _SAT:
        return (True, env[:e], counter[0])
    return (False, None, counter[0])


def model_check_witness(structure: RelationalStructure,
                        formula: Union[Formula, Program]):
    """(satisfied, {prefix var -> universe element index} or None, assignments).

    The witness is the first satisfying assignment of the outer existential
    block when elements are tried in universe index order.  formula may be
    a Program compiled already.
    """
    q = compile_query(structure, formula)
    sat, values, assignments = evaluate_program(q)
    witness = dict(zip(q.prefix_names, values)) if sat else None
    return sat, witness, assignments


def model_check_basic(structure: RelationalStructure, formula: Formula) -> bool:
    """Plain recursive evaluation; the reference semantics that
    model_check_witness is tested against."""
    c = _Reference()
    program = c.program((), [(c.compile(formula), (), ())])
    return evaluate_program(program.bind(structure))[0]


# ---------------------------------------------------------------------------
# The solver route
# ---------------------------------------------------------------------------

SIGMA22 = "sigma22"
SIGMA1 = "sigma1"


@dataclass(frozen=True)
class McResult:
    solvable: bool
    plan: Optional[Plan]
    assignments: int
    fragment: str  # the fragment that decided: SIGMA1 or SIGMA22


# The formula depends on (fragment, k) alone, so one compiled program serves
# every instance.  A sigma1 program at its cap k = 8 holds about 18 MB, and
# a sigma22 program at k = 200 about 34 MB.
PROGRAM_CACHE_SIZE = 16


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _fragment_program(fragment: str, k: int) -> Program:
    """The program of fragment at bound k, built and compiled on a miss.  A
    k above the fragment's cap raises ContractError and caches nothing."""
    formula = (build_sigma1_formula(k) if fragment == SIGMA1
               else build_sigma22_formula(k))
    return compile_program(formula)


def _witness_plan(structure: RelationalStructure, witness: Dict[str, int],
                  k: int) -> Plan:
    """The actions a1..ak are bound to, read off the structure's universe;
    the dummy action pads a plan shorter than k."""
    sorts = [sort for _, sort in structure.universe]
    plan = []
    for i in range(1, k + 1):
        e = witness[f"a{i}"]
        if sorts[e] == SORT_ACTION:
            plan.append(e - sorts.index(SORT_ACTION))
        elif sorts[e] != SORT_DUMMY_ACTION:
            raise AssertionError("witness bound an action variable to a "
                                 "non-action element")
    return tuple(plan)


def solve_via_mc(instance: Instance, k: int,
                 fragment: Optional[str] = None) -> McResult:
    """Plan existence at bound k via model checking; the returned witness
    plan is re-validated before being reported.  Without a fragment, a
    unary instance is decided in sigma1 and any other in sigma22; the
    result names the fragment that decided."""
    if fragment not in (None, SIGMA22, SIGMA1):
        raise ValueError(f"unknown fragment {fragment!r}")
    if fragment != SIGMA22:
        unary = classify(instance).unary
        if fragment == SIGMA1 and not unary:
            raise ContractError(
                "the existential fragment requires a unary instance")
        fragment = SIGMA1 if unary else SIGMA22
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0 or instance.var_count == 0:
        # With no variables the empty plan reaches the goal, while sigma1's
        # VAR(v_i) guards would range over nothing and refute every plan.
        ok = validate_plan(instance, ()).valid
        return McResult(ok, () if ok else None, 0, fragment)

    # The program first: its formula refuses k above the cap before a
    # structure with k dummy elements is built.
    program = _fragment_program(fragment, k)
    if fragment == SIGMA1:
        try:
            structure = build_extended_structure(instance, k)
        except TriviallyUnsolvable:
            return McResult(False, None, 0, fragment)
    else:
        structure = build_structure(instance)

    sat, witness, assignments = model_check_witness(structure, program)
    if not sat:
        return McResult(False, None, assignments, fragment)
    plan = _witness_plan(structure, witness, k)
    report = validate_plan(instance, plan)
    if not report.valid:
        raise AssertionError(
            "model checking produced a witness that does not validate: "
            + report.message(instance))
    return McResult(True, plan, assignments, fragment)
