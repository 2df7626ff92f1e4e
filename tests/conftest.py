import random

import pytest

from planlab.core import Action, Instance


@pytest.fixture
def toy1() -> Instance:
    """Two binary variables; a1 sets v1, a2 needs v1 and sets v2."""
    return Instance(
        var_count=2, domain_size=2,
        actions=(Action("a1", {}, {0: 1}), Action("a2", {0: 1}, {1: 1})),
        init=(0, 0), goal={0: 1, 1: 1}, var_names=("v1", "v2"))


@pytest.fixture
def zt1() -> Instance:
    """(0,2) example: good a sets x; mixed b sets y but clobbers x."""
    return Instance(
        var_count=2, domain_size=2,
        actions=(Action("a", {}, {0: 1}), Action("b", {}, {1: 1, 0: 0})),
        init=(0, 0), goal={0: 1, 1: 1}, var_names=("x", "y"))


def random_small_instance(rng: random.Random, n_max: int = 5, d_max: int = 3,
                          m_max: int = 6, no_pre: bool = False,
                          d_min: int = 2) -> Instance:
    """Unconstrained random instance for property tests (not seeded-suite
    generation; see planlab.generators.random_instance for that)."""
    n = rng.randint(1, n_max)
    d = rng.randint(d_min, d_max)
    m = rng.randint(0, m_max)
    actions = []
    for i in range(m):
        eff_vars = rng.sample(range(n), rng.randint(1, n))
        eff = {v: rng.randrange(d) for v in eff_vars}
        pre = {}
        if not no_pre:
            for v in rng.sample(range(n), rng.randint(0, n)):
                pre[v] = rng.randrange(d)
        actions.append(Action(f"a{i}", pre, eff))
    init = tuple(rng.randrange(d) for _ in range(n))
    goal = {v: rng.randrange(d)
            for v in rng.sample(range(n), rng.randint(0, n))}
    return Instance(n, d, tuple(actions), init, goal)
