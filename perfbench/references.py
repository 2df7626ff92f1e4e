"""Reference verdicts, computed in a child process before the timed loop.

Running them in their own process keeps their time out of the timed loop
and out of `setup_s`, and their memory out of the workload's `peak_rss_mb`.
The parent sends the jobs pickled on the child's standard input; the child
imports planlab from the same `src/` and answers with JSON on its standard
output.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

# The route whose answer each reference kind repeats; a reference must never
# come from the route that answered the call it checks.
ROUTE_OF = {"oracle": "oracle", "sigma22": "fo-mc/sigma22"}


def _hits_all(chosen, subsets) -> bool:
    return all(any(s in chosen for s in c) for c in subsets)


def _hitting_set(inp) -> bool:
    elements = range(1, inp.universe_size + 1)
    return any(_hits_all(set(chosen), inp.subsets)
               for size in range(min(inp.bound, inp.universe_size) + 1)
               for chosen in combinations(elements, size))


def _multicolored_clique(graph) -> bool:
    edges = set(graph.edges)
    for pick in product(range(graph.part_size), repeat=graph.parts):
        vs = [(i + 1, a) for i, a in enumerate(pick)]
        if all((u, v) in edges for u, v in combinations(vs, 2)):
            return True
    return False


def verdict(reference: tuple, instance, k: int) -> bool:
    """Plan of length <= k exists, according to the reference."""
    from planlab import fomc, oracle
    kind = reference[0]
    if kind == "oracle":
        return oracle.shortest_plan(instance, k) is not None
    if kind == "sigma22":
        return fomc.solve_via_mc(instance, k, fomc.SIGMA22).solvable
    if kind == "hitting-set":
        return _hitting_set(reference[1])
    if kind == "clique":
        return _multicolored_clique(reference[1])
    if kind == "components":
        return any(oracle.shortest_plan(comp, ck) is not None
                   for comp, ck in reference[1])
    raise ValueError(f"unknown reference kind {kind!r}")


def _verdicts(jobs: List[Tuple[str, tuple, object, int]]) -> Dict[str, bool]:
    return {key: verdict(ref, inst, k) for key, ref, inst, k in jobs}


def compute(items: Iterable) -> Dict[str, bool]:
    """Reference verdict per (instance file, k), keyed by `key(item)`."""
    jobs = {}
    for item in items:
        jobs.setdefault(key(item), (key(item), item.reference, item.instance,
                                    item.k))
    proc = subprocess.run([sys.executable, __file__],
                          input=pickle.dumps(list(jobs.values())),
                          stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def key(item) -> str:
    return f"{item.path}@{item.k}"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    json.dump(_verdicts(pickle.loads(sys.stdin.buffer.read())), sys.stdout)
