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
structure, to Python source over one environment list (compile_program),
which searches its existential prefix with one generated function per
prefix level, and binds to each structure (Program.bind), which fills the
environment's structure slots: the radix, every relation as a frozenset of
radix-packed keys, and each guard's members, over which a guarded
quantifier alone ranges.  Each formula depends on (fragment, k) alone, so
solve_via_mc compiles it once per (fragment, k) and binds it to each
instance's structure.  The compiler cuts the formula below the existential
prefix into conjuncts, cutting through a following universal block (forall
distributes over and, for any universe), and wraps each conjunct only in
the block quantifiers whose variable it names: forall x phi is phi when phi
does not name x and x ranges over something, and true when x ranges over
nothing, which bind decides from the structure.  The search checks each
conjunct as soon as the deepest prefix variable it names is bound, and
backjumps over the levels that a failure did not involve.  On the sigma22
encoding the actions range over ACT and (v, x) over VAR x DOM; the SKIP
conjunct of steps i and i+1 runs once as soon as a_i+1 is bound, not once
per (v, x), and the precondition conjunct of step i as soon as a_i is
bound, so a refutation backjumps instead of trying every action tuple.  The
reference evaluator model_check_basic walks the formula nodes themselves,
with every quantifier over the whole universe and its guard read as an
atom; it shares no code with the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple, Union)

from .core import (ContractError, Instance, Plan, PlanLabError, commute,
                   diff_set, is_unary, overwrites, pack_actions, validate_plan)

SIGMA1_MAX_K = 8  # the diff subset disjunction grows as 2**k
# sigma22's goal conjunct nests _value_after k deep.  Compiling it, once per
# k, takes about 2 Python frames per level.  Evaluating it, on every call,
# takes one frame per prefix level, and within the goal conjunct one per
# HOIST_DEPTH nodes, each level two nodes deep: k = 200 needs a recursion
# limit of about 440, and k = 464 still passes the default 1000.
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


# _quantifier_free walks with a stack of its own: sigma22's formula nests
# deeper than Python's recursion limit allows from k of about 170, below its
# cap.
def _quantifier_free(f: Formula) -> bool:
    stack = [f]
    while stack:
        f = stack.pop()
        if isinstance(f, (Exists, Forall)):
            return False
        stack.extend(_children(f))
    return True


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
# A formula compiles once, for no structure in particular, to Python source:
# the search over its outer existential block, one generated function per
# prefix level, and a root that runs the conjuncts with no prefix variable.
# All of them read one environment list.  Each binder gets a variable slot,
# and a variable name resolves through the scope of its enclosing binders to
# the innermost one.  Each value that a structure supplies -- the radix U, a
# relation's packed keys, a guard's members, whether a set of ranges all
# have members -- gets a slot of its own when first met, and Program.bind
# fills those from one structure.  (Every slot counts up from 0: CPython
# indexes a list fastest with a non-negative int.)  A relation is a
# frozenset of its tuples packed radix-U into ints, so a unary relation's
# keys are its elements.
#
# A generated function copies each slot it reads from the environment into
# a local, s<slot>, once on entry; a conjunct is one expression over those
# locals, whose and, or and implies short-circuit.  A quantifier inside it
# is a generator expression with its variable's local as the target.  The
# block quantifiers it keeps are for loops in a generated function of its
# own, called with the locals it reads, and so is a conjunct longer than
# INLINE_CHARS, which is compiled alone.  Only slot numbers and fixed
# tokens enter the source, never a relation or variable name.  Python's
# parser refuses deeply nested expressions, so a subformula nested
# HOIST_DEPTH deep becomes a generated function of its own, called with the
# locals it reads.

# Nodes nested this deep in one generated expression move to a function of
# their own; the parser allows 200 nested parentheses.
HOIST_DEPTH = 30
# A conjunct whose test is longer than this many characters is a function
# of its own, compiled alone, that its level calls.  The test of each of
# sigma1's k + 1 subset-cover conjuncts doubles with k: inline at k = 8,
# they put 0.7 MB of source in one level's function, whose compile peaked
# at 116 MB.  Up to k = 4 they, and every conjunct without a universal
# loop, run inline.
INLINE_CHARS = 4096


def _pack(rows: FrozenSet[Tuple[int, ...]], arity: int,
          U: int) -> FrozenSet[int]:
    """A relation's rows packed radix-U, as a compiled atom probes them."""
    if arity == 1:
        return frozenset(a for a, in rows)
    if arity == 2:
        return frozenset(a * U + b for a, b in rows)
    if arity == 3:
        return frozenset((a * U + b) * U + c for a, b, c in rows)
    return frozenset(reduce(lambda key, e: key * U + e, t, 0) for t in rows)


def _conjuncts(f: Formula) -> List[Formula]:
    if isinstance(f, And):
        return [g for p in f.parts for g in _conjuncts(p)]
    return [f]


@dataclass
class CompiledQuery:
    """A closed formula bound to one structure, for evaluate_program: a
    Program, compiled once per formula independent of any structure, with
    one structure's values filled in.

    env is the environment to evaluate in: the variable slots unbound, the
    structure's values in theirs, and 0 in slot count, to which the search
    adds its assignments.  The outer existential block is split out: its
    binders take the first slots, so prefix level L is environment slot L,
    bound to prefix_names[L], and candidates[L] lists the members of that
    binder's guard (the whole universe if it has none).  search is the
    program's root: run on a copy of env, it returns -1 with a witness
    bound in the prefix slots, or 0, an empty conflict mask, when there is
    none.
    """
    env: list
    prefix_names: List[str]
    candidates: List[Sequence[int]]
    search: Callable[[list], int]
    count: int


@dataclass(frozen=True)
class Program:
    """A closed formula compiled once, independent of any structure; bind
    makes it a CompiledQuery over one structure.  solve_via_mc compiles
    each (fragment, k) once and binds it to each instance's structure.

    prefix lists the outer existential binders as (name, members slot).
    The rest is cut into conjuncts: a universal block right after the
    prefix is cut through, since forall distributes over and, and each
    conjunct of its body keeps the block quantifiers whose variable it
    names.  Each conjunct is tested in search, at the level of the deepest
    prefix variable it names, or at the root if it names none: inline, or
    by a call when it keeps a block quantifier or is longer than
    INLINE_CHARS.  A conjunct that dropped block quantifiers first reads
    the flag of their ranges, in the slot that flags gives for their
    members slots: with a range empty, it holds vacuously.  search is the
    root, and count the slot of the assignment count.  named lists each
    (relation, arity) the formula uses, in the order first met.  The slots
    of the structure's values: radix (None if no atom needs it), keys (by
    relation) and ranges, the members of each guard (None for the whole
    universe).
    """
    n_slots: int
    prefix: Tuple[Tuple[str, int], ...]
    search: Callable[[list], int]
    count: int
    flags: Dict[Tuple[int, ...], int]
    named: Tuple[Tuple[str, int], ...]
    radix: Optional[int]
    keys: Dict[str, int]
    ranges: Dict[Optional[str], int]

    def bind(self, structure: RelationalStructure) -> CompiledQuery:
        """The structure's values in their slots.  forall x phi is phi when
        phi does not name x and x ranges over something, and true when x
        ranges over nothing: each flag says whether every range it covers
        has a member."""
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
        for dropped, slot in self.flags.items():
            env[slot] = all(env[m] for m in dropped)
        env[self.count] = 0
        return CompiledQuery(env, [name for name, _ in self.prefix],
                             [env[m] for _, m in self.prefix], self.search,
                             self.count)


class _Compiler:
    """Formula nodes to Python source that reads every structure value from
    a slot.  Variable slots are allocated as binders are met; scope maps each
    name to its stack of binding slots, and used records every slot a name
    resolved to.  reads holds the slots that the function being emitted
    reads and does not bind itself, and functions the generated function
    definitions.  A guarded quantifier ranges over its guard's members
    alone."""

    def __init__(self):
        self.named: Dict[Tuple[str, int], None] = {}
        self.radix: Optional[int] = None
        self.keys: Dict[str, int] = {}
        self.ranges: Dict[Optional[str], int] = {}
        self.flags: Dict[Tuple[int, ...], int] = {}
        self.scope: Dict[str, List[int]] = {}
        self.used: set = set()
        self.reads: set = set()
        self.functions: List[str] = []
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

    def local(self, slot: int) -> str:
        """The local that holds slot's value."""
        self.reads.add(slot)
        return f"s{slot}"

    def emit(self, f: Formula, depth: int = 0) -> str:
        """f as one Python expression over slot locals, f's own node nested
        depth deep in its function's expression."""
        if isinstance(f, (Atom, Equal)):
            return self.literal(f, False)
        if isinstance(f, Not) and isinstance(f.part, (Atom, Equal)):
            return self.literal(f.part, True)
        if depth >= HOIST_DEPTH:
            return self.hoist(f)
        if isinstance(f, Not):
            return f"(not {self.emit(f.part, depth + 1)})"
        if isinstance(f, (And, Or)):
            if not f.parts:
                return "True" if isinstance(f, And) else "False"
            parts = []
            for p in f.parts:  # a loop: a generator would cost a frame
                parts.append(self.emit(p, depth + 1))
            op = " and " if isinstance(f, And) else " or "
            return "(" + op.join(parts) + ")"
        if isinstance(f, Implies):
            return (f"(not {self.emit(f.left, depth + 1)}"
                    f" or {self.emit(f.right, depth + 1)})")
        if isinstance(f, (Exists, Forall)):
            domain = self.local(self.members(f.guard))
            slot = self.bind(f.var)
            body = self.emit(f.body, depth + 1)
            self.scope[f.var].pop()
            self.reads.discard(slot)
            test = "any" if isinstance(f, Exists) else "all"
            return f"{test}({body} for s{slot} in {domain})"
        raise TypeError(f"not a formula node: {f!r}")

    def literal(self, f: Union[Atom, Equal], negated: bool) -> str:
        """An equality, or an atom as its terms' values packed radix-U and
        looked up in its relation's keys; negated, its negation."""
        if isinstance(f, Equal):
            left = self.local(self.slot(f.left))
            op = "!=" if negated else "=="
            return f"({left}{op}{self.local(self.slot(f.right))})"
        if self.radix is None:
            self.radix = self.new_slot()
        keys = self.local(self.relation(f.rel, len(f.terms)))
        terms = [self.local(self.slot(t)) for t in f.terms]
        key = terms[0] if terms else "0"  # a 0-ary row packs to 0
        if len(terms) > 1:
            U = self.local(self.radix)
            key = f"{key}*{U}+{terms[1]}"
            for t in terms[2:]:
                key = f"({key})*{U}+{t}"
        return f"({key}{' not in ' if negated else ' in '}{keys})"

    def function(self, name: str, body: List[str]) -> str:
        """A call of a new generated function with body's lines, over the
        locals it reads, passed as arguments."""
        args = ",".join(f"s{s}" for s in sorted(self.reads))
        self.functions.append("\n".join([f"def {name}({args}):"] + body))
        return f"{name}({args})"

    def hoist(self, f: Formula) -> str:
        """A call of a new generated function that evaluates f."""
        outer, self.reads = self.reads, set()
        body = [f" return {self.emit(f)}"]
        call = self.function(f"h{len(self.functions)}", body)
        self.reads |= outer
        return call

    def conjunct(self, f: Formula, block: List[Forall], name: str) -> str:
        """An expression over the locals it reads that is true when f, a
        conjunct of the universal block's body, fails: f wrapped in the
        block quantifiers whose variable it names, each a loop, outermost
        first, of a new generated function called name.  forall x phi is
        phi when phi does not name x and x ranges over something, and true
        when x ranges over nothing, so if f drops quantifiers the test first
        reads the flag that each of their ranges has a member."""
        slots = [self.bind(q.var) for q in block]
        body, dropped, loops = self.emit(f), [], []
        for q, slot in zip(reversed(block), reversed(slots)):
            self.scope[q.var].pop()
            domain = self.members(q.guard)
            if slot in self.used:
                loops.insert(0, (slot, domain))
            else:
                dropped.append(domain)
        if loops:
            self.reads.update(domain for _, domain in loops)
            self.reads.difference_update(slot for slot, _ in loops)
            lines, indent = [], " "
            for slot, domain in loops:
                lines.append(f"{indent}for s{slot} in s{domain}:")
                indent += " "
            lines += [f"{indent}if not {body}: return False", " return True"]
            body = self.function(name, lines)
        elif len(body) > INLINE_CHARS:
            body = self.function(name, [f" return {body}"])
        if not dropped:
            return f"not {body}"
        if tuple(dropped) not in self.flags:
            self.flags[tuple(dropped)] = self.new_slot()
        return f"{self.local(self.flags[tuple(dropped)])} and not {body}"


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
    count = c.new_slot()
    block: List[Forall] = []
    while isinstance(f, Forall):
        block.append(f)
        f = f.body

    # each conjunct's failure test, conflict mask and the slots it reads, at
    # the deepest prefix level it names (-1, the root, for none)
    levels: Dict[int, list] = {L: [] for L in range(-1, len(prefix))}
    namespace: dict = {}

    def run(source: List[str]) -> None:
        # one compile per conjunct's functions and per level function: the
        # parse tree of a whole program can take hundreds of megabytes
        exec(compile("\n".join(source), "<fomc program>", "exec"), namespace)

    for i, g in enumerate(_conjuncts(f)):
        c.used, c.reads, start = set(), set(), len(c.functions)
        test = c.conjunct(g, block, f"c{i}")
        if len(c.functions) > start:
            run(c.functions[start:])
        named = [s for s in c.used if s < len(prefix)]
        levels[max(named, default=-1)].append(
            (test, sum(1 << L for L in named), c.reads))
    for L, tests in levels.items():
        run([_search_source(L, tests, prefix, count)])
    return Program(c.n_slots, tuple(prefix), namespace["root"], count,
                   c.flags, tuple(c.named), c.radix, c.keys, c.ranges)


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
# The search over the outer existential block is generated with the
# program, conflict-directed backjumping (Prosser, Computational
# Intelligence 9(3), 1993) with a conflict set as an int mask, bit L for
# prefix level L.  Level L's function l<L> tries the members of its guard
# in index order, so the first witness is deterministic, and counts one
# assignment for each.  It runs inline each conjunct whose deepest prefix
# variable is level L; the first that fails ORs the levels it names into
# the level's mask, and the next candidate is tried.  A candidate that
# passes them all is bound in env[L], and level L+1 runs in a frame of its
# own.  When the child's mask lacks bit L, the failure below did not
# involve level L, so no other candidate can mend it and the mask goes back
# up at once; otherwise it joins the level's mask.  With the candidates
# run out, the level returns its mask without bit L.  The last level
# returns -1 for a witness instead of recursing.  The root, root(), runs
# the conjuncts that name no prefix variable and then level 0.
#
# model_check_basic is the plain recursive short-circuiting definition of
# satisfaction over the formula nodes themselves: every quantifier ranges
# over the whole universe, its guard read as an atom of its body.

def _search_source(L: int, tests: list, prefix: List[Tuple[str, int]],
                   count: int) -> str:
    """The generated function of prefix level L, or of the root for L = -1,
    that runs tests, the (failure test, conflict mask, slots read) of its
    conjuncts.  count is the slot of the assignment count."""
    reads = set().union(*(read for _, _, read in tests))
    if L < 0:
        lines = ["def root(env):"]
        body = [f" if {test}: return 0" for test, _, _ in tests]
        body.append(" return l0(env)" if prefix else " return -1")
    else:
        members = prefix[L][1]
        reads.add(members)
        reads.discard(L)
        lines = [f"def l{L}(env):"]
        body = [" m=n=0", f" for s{L} in s{members}:", "  n+=1"]
        body += [f"  if {test}: m|={mask}; continue"
                 for test, mask, _ in tests]
        body.append(f"  env[{L}]=s{L}")
        if L + 1 < len(prefix):
            body += [f"  r=l{L + 1}(env)",
                     f"  if r<0 or not r&{1 << L}: env[{count}]+=n; return r",
                     "  m|=r"]
        else:
            body += [f"  env[{count}]+=n", "  return -1"]
        body += [f" env[{count}]+=n", f" return m&{(1 << L) - 1}"]
    lines += [f" s{s}=env[{s}]" for s in sorted(reads)]
    return "\n".join(lines + body)


def evaluate_program(q: CompiledQuery):
    """(satisfied, witness values for the prefix or None, assignments)."""
    env = q.env[:]
    if q.search(env) < 0:
        return (True, env[:len(q.prefix_names)], env[q.count])
    return (False, None, env[q.count])


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
    """Plain recursive evaluation over the formula nodes and the structure's
    rows: every quantifier ranges over the whole universe, and its guard R
    reads as the atom R(var).  The reference semantics that
    model_check_witness is tested against; it shares no code with the
    compiler."""
    named: Dict[Tuple[str, int], None] = {}  # in the order first met

    def check(f: Formula, bound: FrozenSet[str]) -> None:
        if isinstance(f, (Exists, Forall)):
            if f.guard is not None:
                named.setdefault((f.guard, 1))
            bound = bound | {f.var}
        elif isinstance(f, (Atom, Equal)):
            if isinstance(f, Atom):
                named.setdefault((f.rel, len(f.terms)))
            for name in (f.terms if isinstance(f, Atom)
                         else (f.left, f.right)):
                if name not in bound:
                    raise ContractError(f"free variable {name!r} in formula")
        for child in _children(f):
            check(child, bound)

    check(formula, frozenset())
    rels = structure.relations
    for name, arity in named:
        if name not in rels:
            raise ContractError(f"formula uses unknown relation {name!r}")
        if structure.arities[name] != arity:
            raise ContractError(f"relation {name} has arity "
                                f"{structure.arities[name]}, atom uses "
                                f"{arity}")

    def holds(f: Formula, env: Dict[str, int]) -> bool:
        if isinstance(f, Atom):
            return tuple(env[t] for t in f.terms) in rels[f.rel]
        if isinstance(f, Equal):
            return env[f.left] == env[f.right]
        if isinstance(f, Not):
            return not holds(f.part, env)
        if isinstance(f, And):
            return all(holds(p, env) for p in f.parts)
        if isinstance(f, Or):
            return any(holds(p, env) for p in f.parts)
        if isinstance(f, Implies):
            return not holds(f.left, env) or holds(f.right, env)
        if isinstance(f, Exists):
            return any(guarded(f, e) and holds(f.body, {**env, f.var: e})
                       for e in range(structure.size))
        if isinstance(f, Forall):
            return all(not guarded(f, e) or holds(f.body, {**env, f.var: e})
                       for e in range(structure.size))
        raise TypeError(f"not a formula node: {f!r}")

    def guarded(f: Union[Exists, Forall], e: int) -> bool:
        return f.guard is None or (e,) in rels[f.guard]

    return holds(formula, {})


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
# every instance.  A sigma1 program at its cap k = 8 holds about 2.6 MB, and
# a sigma22 program at k = 200 about 8.7 MB; building and compiling them
# peaks at about 23 and 31 MB (tracemalloc).
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
        unary = is_unary(instance)
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
