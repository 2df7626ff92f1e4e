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
