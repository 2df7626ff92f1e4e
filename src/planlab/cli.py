"""Command-line front door: classify, solve, validate, generate.

Machine-readable JSON goes to stdout, human-readable notes to stderr.
A route's module is imported only when that route runs, and `generators`
only for `generate`, so a fresh `planlab solve` pays to import the route
that answers it and no other.  `--solver auto` runs the first route that
applies to the instance, and the next one that applies whenever a route
refuses it (ContractError); the oracle applies to every instance.
`main` parses a call with its subcommand's parser alone, taken from the
one parser tree built per process; only a call without a known command,
or with arguments left over, goes through the top-level parser.  Exit
codes: 0 solved/valid, 1 unsolvable/invalid, 2 parse or usage error,
3 solver inapplicable to the instance, search budget exhausted, out of
memory, or a generator refusing its input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    NamedTuple, Optional, Tuple)

from . import io, oracle
from .core import (ContractError, Instance, RestrictionProfile, classify,
                   lint_instance, validate_plan)

if TYPE_CHECKING:
    from . import generators

BUDGET_ENV = "PLAN_LAB_BUDGET"

EXIT_SOLVED = 0
EXIT_UNSOLVED = 1
EXIT_PARSE = 2
EXIT_INAPPLICABLE = 3

# fomc's fragment names (fomc.SIGMA1, fomc.SIGMA22), spelled out so that
# building the parser does not import fomc.
FRAGMENTS = ("sigma1", "sigma22")

# What a route's runner returns: the plan or None, the solver label, stats.
Solved = Tuple[Optional[List[int]], str, Dict[str, object]]


def _budget(args) -> int:
    budget = args.budget
    if budget is None:
        raw = os.environ.get(BUDGET_ENV, str(oracle.DEFAULT_BUDGET))
        budget = _number(raw, f"{BUDGET_ENV} must be an integer, got {raw!r}")
    if budget < 0:
        raise ValueError(f"the budget must be non-negative, got {budget}")
    return budget


def _load_instance(path: str) -> Instance:
    with open(path, "rb") as fh:
        instance = io.parse_instance(fh.read())
    for warning in lint_instance(instance):
        print(f"lint: {warning}", file=sys.stderr)
    return instance


def _post_unique(instance: Instance, k: int, option, budget: int) -> Solved:
    from . import postunique
    plan, labels = postunique.shortest_plan_with_stats(instance, k)
    return plan, "post-unique", {"search_tree_nodes": labels}


def _zero_two(instance: Instance, k: int, dot, budget: int) -> Solved:
    from . import zerotwo
    result = zerotwo.solve_zero_two(instance, k)
    stats = {"transformed": result.transformed,
             "steiner_nodes": result.dst.node_count,
             "steiner_arcs": len(result.dst.arcs)}
    if result.solution is not None:
        stats["dp_cells"] = result.solution.cells
    if dot:
        with open(dot, "w") as fh:
            fh.write(zerotwo.steiner_to_dot(result.dst, result.built_from))
    return result.plan, "zero-two", stats


def _fo_mc(instance: Instance, k: int, fragment, budget: int) -> Solved:
    from . import fomc
    result = fomc.solve_via_mc(instance, k, fragment)
    return result.plan, f"fo-mc/{result.fragment}", {
        "assignments": result.assignments}


def _oracle(instance: Instance, k: int, option, budget: int) -> Solved:
    plan, visited = oracle.shortest_plan_with_stats(instance, k, budget)
    return plan, "oracle", {"visited_states": visited}


class Route(NamedTuple):
    """A solver route: the profiles `auto` sends to it, its runner, and the
    one `solve` option only it reads, if any.  The runner is called as
    run(instance, k, option, budget), with option that option's value or
    None."""
    name: str
    applies: Callable[[RestrictionProfile], bool]
    run: Callable[[Instance, int, Optional[str], int], Solved]
    option: Optional[str]


# In the order `--solver auto` tries them: the first route that applies runs,
# and each one after it that applies runs if those before it refused.
ROUTES = (
    Route("post-unique", lambda p: p.post_unique, _post_unique, None),
    Route("zero-two", lambda p: p.max_pre == 0 and p.max_eff <= 2,
          _zero_two, "dot"),
    Route("fo-mc", lambda p: p.unary, _fo_mc, "fragment"),
    Route("oracle", lambda p: True, _oracle, None),
)


def _routes(profile: RestrictionProfile) -> Iterator[Route]:
    """The rows that apply to profile, in the order `auto` tries them."""
    return (route for route in ROUTES if route.applies(profile))


def cmd_classify(args) -> int:
    profile = classify(_load_instance(args.instance))
    route = next(_routes(profile))
    print(json.dumps({**profile.as_dict(), "route": route.name}))
    return EXIT_SOLVED


def cmd_solve(args) -> int:
    if args.k < 0:
        raise ValueError("k must be non-negative")
    budget = _budget(args)
    instance = _load_instance(args.instance)
    routes = (_routes(classify(instance)) if args.solver == "auto" else
              (r for r in ROUTES if r.name == args.solver))
    route = next(routes)
    for other in ROUTES:
        if other.option and other is not route and getattr(args, other.option):
            raise ValueError(f"--{other.option} applies to {other.name}, "
                             f"not {route.name}")
    while True:
        option = getattr(args, route.option) if route.option else None
        try:
            plan, label, stats = route.run(instance, args.k, option, budget)
            break
        except ContractError as exc:
            after = next(routes, None)
            if after is None:
                raise
            print(f"{route.name} inapplicable: {exc}; trying {after.name}",
                  file=sys.stderr)
            route = after
    solvable = plan is not None
    if solvable:
        report = validate_plan(instance, plan)
        if not report.valid:
            raise AssertionError("solver returned an invalid plan: "
                                 + report.message(instance))
    result = {
        "solvable": solvable,
        "length": len(plan) if solvable else None,
        "plan": [instance.actions[a].name for a in plan]
                if solvable else None,
        "solver": label,
        "stats": stats if args.stats else {},
    }
    print(json.dumps(result))
    print(f"{label}: {'solvable' if solvable else 'no plan'} at k={args.k}",
          file=sys.stderr)
    return EXIT_SOLVED if solvable else EXIT_UNSOLVED


def cmd_validate(args) -> int:
    instance = _load_instance(args.instance)
    with open(args.plan, "rb") as fh:
        plan = io.parse_plan(fh.read(), instance)
    report = validate_plan(instance, plan)
    out = {"valid": report.valid}
    if not report.valid:
        out["reason"] = report.reason
        out["variable"] = instance.var_names[report.variable]
        if report.step is not None:
            out["step"] = report.step
    else:
        out["final_state"] = list(report.final_state)
    print(json.dumps(out))
    print(report.message(instance), file=sys.stderr)
    return EXIT_SOLVED if report.valid else EXIT_UNSOLVED


def _parse_sets(text: str) -> Tuple[Tuple[int, ...], ...]:
    """'{1,2},{2,3}' -> ((1,2),(2,3)); '{}' makes an empty subset, and
    whitespace is ignored. Every field of a nonempty subset is a number."""
    text = "".join(text.split())
    if not text:
        return ()
    usage = "subsets must look like {1,2},{2,3}"
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(usage)
    return tuple(tuple(sorted(_number(x, usage) for x in g.split(",")))
                 if g else () for g in text[1:-1].split("},{"))


def _number(text: str, usage: str) -> int:
    """int(text); text that int() refuses raises ValueError(usage)."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(usage) from None


def _parse_edges(text: str) -> Tuple[Tuple[generators.Vertex,
                                           generators.Vertex], ...]:
    """'1.0-2.0,1.0-3.1' -> (((1,0),(2,0)), ((1,0),(3,1))); whitespace is
    ignored."""
    from . import generators
    text = "".join(text.split())
    edges = []
    for chunk in text.split(",") if text else ():
        match = re.fullmatch(r"(\d+)\.(\d+)-(\d+)\.(\d+)", chunk)
        if match is None:
            raise ValueError("edges must look like 1.0-2.0,1.0-3.1")
        pi, a, pj, c = map(int, match.groups())
        edges.append(generators.normalize_edge((pi, a), (pj, c)))
    return tuple(edges)


def _graph_from_args(args) -> generators.MulticoloredGraph:
    from . import generators
    if args.complete:
        if args.per_part != 1:
            raise ValueError("--complete is defined for --per-part 1")
        if args.edges is not None:
            raise ValueError("--complete and --edges exclude each other")
        edges = tuple(generators.normalize_edge((i, 0), (j, 0))
                      for i in range(1, args.parts + 1)
                      for j in range(i + 1, args.parts + 1))
    else:
        edges = _parse_edges(args.edges or "")
    return generators.MulticoloredGraph(args.parts, args.per_part, edges)


def _write_generated(args, instance: Instance, bound: int,
                     meta: Dict[str, object]) -> int:
    text = io.serialize_instance(instance)
    meta = dict(meta)
    meta["expected_bound"] = bound
    with open(args.out, "w") as fh:
        fh.write(text)
    with open(args.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"out": args.out, "expected_bound": bound,
                      "vars": instance.var_count,
                      "actions": len(instance.actions)}))
    return EXIT_SOLVED


def cmd_generate(args) -> int:
    from . import generators
    kind = args.generator
    if getattr(args, "k", 0) < 0:
        raise ValueError("k must be non-negative")
    if kind == "hitting-set":
        inp = generators.HittingSetInput(args.universe,
                                         _parse_sets(args.sets), args.k)
        instance, bound = generators.from_hitting_set(inp)
        meta = {"generator": kind, "universe": args.universe,
                "sets": [list(c) for c in inp.subsets], "k": args.k}
    elif kind in ("mcc-ubs", "mcc-03"):
        graph = _graph_from_args(args)
        fn = (generators.from_mcc_ubs if kind == "mcc-ubs"
              else generators.from_mcc_03)
        instance, bound = fn(graph)
        meta = {"generator": kind, "parts": graph.parts,
                "per_part": graph.part_size,
                "edges": [f"{u[0]}.{u[1]}-{v[0]}.{v[1]}"
                          for u, v in graph.edges]}
    elif kind == "or2":
        b = generators.InstanceBuilder(domain_size=2)
        v1 = b.add_variable("v1", init=args.v1)
        v2 = b.add_variable("v2", init=args.v2)
        gadget = generators.or2_gadget(b, v1, v2, "o")
        b.set_goal(gadget.out, 1)
        instance, bound = b.build(), 6
        meta = {"generator": kind, "v1": args.v1, "v2": args.v2}
    elif kind == "compose-pub":
        usage = "--component takes PATH:K with K >= 0"
        specs = [(path, _number(ktext, usage)) for path, _, ktext in
                 (spec.rpartition(":") for spec in args.component)]
        if not all(path and ki >= 0 for path, ki in specs):
            raise ValueError(usage)
        comps = [(_load_instance(path), ki) for path, ki in specs]
        instance, bound = generators.compose_pub(comps)
        meta = {"generator": kind, "components": list(args.component)}
    elif kind == "compose-02":
        comps = [(_load_instance(p), args.k) for p in args.component]
        instance, bound = generators.compose_zero_two(comps)
        meta = {"generator": kind, "components": list(args.component),
                "k": args.k}
    else:  # random
        flags = {"post_unique": args.post_unique, "unary": args.unary,
                 "single_valued": args.single_valued,
                 "max_pre": args.max_pre, "max_eff": args.max_eff}
        instance = generators.random_instance(
            args.n, args.domain, args.actions, args.seed, **flags)
        bound = args.k
        meta = {"generator": kind, "seed": args.seed, "n": args.n,
                "domain": args.domain, "actions": args.actions, **flags}
    return _write_generated(args, instance, bound, meta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planlab",
        description="Bounded-plan solvers and generators for SAS+ planning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="restriction profile and routing")
    p.add_argument("instance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="decide plan existence at bound k")
    p.add_argument("instance")
    p.add_argument("k", type=int)
    p.add_argument("--solver", default="auto",
                   choices=["auto", *(route.name for route in ROUTES)])
    p.add_argument("--fragment", choices=FRAGMENTS,
                   help="force a model-checking fragment")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--budget", type=int,
                   help=f"visited-state cap (default ${BUDGET_ENV} or "
                        f"{oracle.DEFAULT_BUDGET})")
    p.add_argument("--dot", metavar="PATH",
                   help="dump the Steiner digraph (zero-two solver only)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("validate", help="check a plan file")
    p.add_argument("instance")
    p.add_argument("plan")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="write a generated instance")
    gsub = p.add_subparsers(dest="generator", required=True)

    g = gsub.add_parser("hitting-set")
    g.add_argument("--universe", type=int, required=True)
    g.add_argument("--sets", required=True)
    g.add_argument("--k", type=int, required=True)

    for name in ("mcc-ubs", "mcc-03"):
        g = gsub.add_parser(name)
        g.add_argument("--parts", type=int, required=True)
        g.add_argument("--per-part", type=int, default=1)
        g.add_argument("--edges")
        g.add_argument("--complete", action="store_true")

    g = gsub.add_parser("or2")
    g.add_argument("--v1", type=int, choices=[0, 1], required=True)
    g.add_argument("--v2", type=int, choices=[0, 1], required=True)

    g = gsub.add_parser("compose-pub")
    g.add_argument("--component", action="append", required=True,
                   metavar="PATH:K")

    g = gsub.add_parser("compose-02")
    g.add_argument("--component", action="append", required=True)
    g.add_argument("--k", type=int, required=True)

    g = gsub.add_parser("random")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--domain", type=int, default=2)
    g.add_argument("--actions", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--k", type=int, default=0)
    g.add_argument("--post-unique", action="store_true")
    g.add_argument("--unary", action="store_true")
    g.add_argument("--single-valued", action="store_true")
    g.add_argument("--max-pre", type=int)
    g.add_argument("--max-eff", type=int)

    for g_action in gsub.choices.values():
        g_action.add_argument("--out", required=True)
        g_action.set_defaults(func=cmd_generate)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process, built on the first
    one (not at import): parsing leaves no state in it, and building it
    costs tens of times as much as parsing."""
    return build_parser()


def _parse(argv: List[str]) -> argparse.Namespace:
    """The namespace of `_parser().parse_args(argv)`, got from the
    command's own parser alone: the top-level parser would only look the
    command up among its subparsers and hand that parser the rest of argv.
    Without a known command argv goes to the top-level parser, which also
    reports leftover arguments, so usage errors read the same either way."""
    parser = _parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error("unrecognized arguments: " + " ".join(extra))
    args.command = argv[0]
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except io.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except ContractError as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except oracle.BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
