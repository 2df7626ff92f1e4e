import importlib
import pkgutil

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
