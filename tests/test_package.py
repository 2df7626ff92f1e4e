import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import planlab


def test_every_module_loads_from_source():
    """A compiled extension beside a .py file would shadow it on import."""
    names = [planlab.__name__] + [
        info.name for info in pkgutil.walk_packages(planlab.__path__,
                                                    planlab.__name__ + ".")]
    assert "planlab.oracle" in names and "planlab.fomc" in names
    for name in names:
        path = importlib.import_module(name).__file__
        assert path.endswith(".py"), path


COUNT_PARSERS = """import argparse, sys
sys.path.insert(0, sys.argv[1])
built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import planlab.cli
at_import = built
planlab.cli.build_parser()
print(at_import, built)
"""


def test_importing_the_cli_builds_no_parser():
    """The parser is built on the first main() call, not at import."""
    src = os.path.dirname(os.path.dirname(planlab.__file__))
    proc = subprocess.run([sys.executable, "-c", COUNT_PARSERS, src],
                          stdout=subprocess.PIPE, text=True, check=True)
    at_import, after_build = map(int, proc.stdout.split())
    assert at_import == 0
    assert after_build > 0  # the counter does see a parser being built


BOUNDARY = """import sys
sys.path.insert(0, sys.argv[1])
import planlab, planlab.cli, planlab.generators
missing = [name for name in planlab.__all__ if not hasattr(planlab, name)]
print("planlab.reference" in sys.modules, missing)
"""


def test_the_program_does_not_load_the_reference_module():
    """planlab.reference holds ground truth for tests; no route, neither the
    package nor the CLI imports it.  Every name in __all__ resolves."""
    src = os.path.dirname(os.path.dirname(planlab.__file__))
    proc = subprocess.run([sys.executable, "-c", BOUNDARY, src],
                          stdout=subprocess.PIPE, text=True, check=True)
    assert proc.stdout == "False []\n"


LOADED = """import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import planlab.cli
argv = sys.argv[2:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = planlab.cli.main(argv)
    assert code == 0, code
print(" ".join(sorted(name[len("planlab."):] for name in sys.modules
                      if name.startswith("planlab."))))
"""
LAZY = {"fomc", "generators", "postunique", "zerotwo"}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """planlab.cli imports a route's module when that route runs, and
    generators only for `generate`, so a fresh `planlab solve` does not
    pay to import the routes it does not take."""
    src = os.path.dirname(os.path.dirname(planlab.__file__))
    # two effects after a precondition, two producers of 0=1: auto routes
    # it to the oracle
    path = tmp_path / "oracle.sasp"
    path.write_text("SASP 1\nvars 2\ndomain 2\ninit 0 0\ngoal 0=1\n"
                    "action a pre eff 0=1\n"
                    "action b pre 1=1 eff 0=1 1=0\n")
    solve = ["solve", str(path), "1"]
    generate = ["generate", "random", "--n", "2", "--actions", "2",
                "--seed", "1", "--out", str(tmp_path / "r.sasp")]

    def loaded(*argv):
        proc = subprocess.run([sys.executable, "-c", LOADED, src, *argv],
                              stdout=subprocess.PIPE, text=True, check=True)
        return set(proc.stdout.split())

    at_import = loaded()
    assert {"cli", "core", "io", "oracle"} <= at_import
    assert at_import & LAZY == set()
    assert loaded(*solve, "--solver", "auto") & LAZY == set()
    assert loaded(*solve, "--solver", "fo-mc") & LAZY == {"fomc"}
    assert "generators" in loaded(*generate)


def _code_calls(path):
    """The builtins among eval, exec and compile that a module calls, by
    name or through the builtins module."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id == "builtins":
            name = f.attr
        else:
            name = f.id if isinstance(f, ast.Name) else None
        if name in ("eval", "exec", "compile"):
            found.add(name)
    return found


def test_only_fomc_runs_generated_code():
    """fomc compiles each formula to Python source and runs it; no other
    module evaluates, executes or compiles code."""
    src = os.path.dirname(planlab.__file__)
    calls = {name[:-3]: _code_calls(os.path.join(src, name))
             for name in sorted(os.listdir(src)) if name.endswith(".py")}
    assert calls.pop("fomc") == {"compile", "exec"}
    assert "oracle" in calls
    assert {name: found for name, found in calls.items() if found} == {}
