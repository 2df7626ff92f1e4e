"""Timers around planlab's public functions, installed from outside the
program for the traced run only.

Each wrapped call records a span: name ("<layer>.<stage>"), start, end,
parent span, instance id, counts taken from its return value, and the
exception it raised, if any. Spans stay in memory and are
written out once at the end. A name that no longer exists in its module is
reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

_perf = time.perf_counter


def _visited(r):
    return {"visited": r[1]}


def _tree(r):
    return {"nodes": r.node_count, "minimal": len(r.plans)}


def _terminals(r):
    return {"terminals": len(r.terminals)}


def _cells(r):
    return {"cells": r.cells} if r is not None else {}


def _universe(r):
    return {"universe": r.size}


def _assignments(r):
    return {"assignments": r[2]}


# (module, attribute, span name, counts from the return value). Span names
# are "<layer>.<stage>"; the layer is the planlab module that does the work.
# classify and validate_plan are wrapped where each caller module binds them.
CALLERS = ("cli", "postunique", "zerotwo", "fomc", "oracle")
WRAPS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "build_parser", "cli.argparse", None),
    ("io", "parse_instance", "io.parse", None),
    *((m, "classify", "core.classify", None) for m in CALLERS
      if m != "oracle"),
    *((m, "validate_plan", "core.validate", None) for m in CALLERS),
    ("oracle", "shortest_plan_with_stats", "oracle.bfs", _visited),
    ("postunique", "solve_postunique", "postunique.search", _tree),
    ("postunique", "is_minimal_plan", "postunique.minimality", None),
    ("zerotwo", "solve_zero_two", "zerotwo.solve", None),
    ("zerotwo", "eliminate_two_effect_good_actions", "zerotwo.transform", None),
    ("zerotwo", "build_dst", "zerotwo.dst_build", _terminals),
    ("zerotwo", "dreyfus_wagner", "zerotwo.dw", _cells),
    ("zerotwo", "extract_plan", "zerotwo.extract", None),
    ("fomc", "solve_via_mc", "fomc.solve", None),
    ("fomc", "build_structure", "fomc.structure", _universe),
    ("fomc", "build_extended_structure", "fomc.structure", _universe),
    ("fomc", "build_sigma22_formula", "fomc.formula", None),
    ("fomc", "build_sigma1_formula", "fomc.formula", None),
    ("fomc", "compile_query", "fomc.compile", None),
    ("fomc", "model_check_witness", "fomc.eval", _assignments),
)

LAYERS = ("cli", "io", "core", "oracle", "postunique", "zerotwo", "fomc")

# Span record fields.
NAME, START, END, PARENT, INSTANCE, COUNTS, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.missing: Set[str] = set()
        self.instance = ""
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, counts: Optional[Callable] = None
             ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, _perf(), 0.0,
                   self._stack[-1] if self._stack else -1, self.instance,
                   None, None]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = _perf()
                self._stack.pop()
            if counts is not None:
                rec[COUNTS] = counts(result)
            return result
        return wrapper

    def install(self) -> None:
        for modname, attr, name, counts in WRAPS:
            mod = importlib.import_module(f"planlab.{modname}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(f"{modname}.{attr}")
                continue
            if attr == "build_parser":
                fn = self._wrap_parse_args(fn)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.span(name, fn, counts))

    def _wrap_parse_args(self, build_parser: Callable) -> Callable:
        """build_parser's parser also times its parse_args as cli.argparse."""
        @functools.wraps(build_parser)
        def wrapper(*args, **kwargs):
            parser = build_parser(*args, **kwargs)
            parser.parse_args = self.span("cli.argparse", parser.parse_args)
            return parser
        return wrapper

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _children(spans: List[list]) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            out.setdefault(rec[PARENT], []).append(i)
    return out


def _dur(rec) -> float:
    return rec[END] - rec[START]


def summarize(spans: List[list]) -> Dict[str, float]:
    """Per-layer self time and per-stage time, in ms, plus span counts.

    A layer's self time is the time its spans cover minus the time of their
    child spans. A stage's time is its spans' time minus child spans of the
    same layer, so model_check_witness is reported without compile_query,
    and solve_postunique without is_minimal_plan.
    """
    kids = _children(spans)
    stage: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, rec in enumerate(spans):
        layer = rec[NAME].split(".", 1)[0]
        child = [spans[c] for c in kids.get(i, ())]
        dur = _dur(rec)
        layer_self[layer] += dur - sum(_dur(c) for c in child)
        own = dur - sum(_dur(c) for c in child
                        if c[NAME].split(".", 1)[0] == layer)
        stage[rec[NAME]] = stage.get(rec[NAME], 0.0) + own
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
    out = {f"{k}_ms": v * 1e3 for k, v in stage.items()}
    out.update({f"{layer}.self_ms": v * 1e3 for layer, v in layer_self.items()})
    out.update({f"{k}_calls": float(v) for k, v in calls.items()})
    return out


def values(spans: List[list], name: str, field: str) -> List[int]:
    """One count per span of that name that recorded it."""
    return [rec[COUNTS][field] for rec in spans
            if rec[NAME] == name and rec[COUNTS] and field in rec[COUNTS]]
