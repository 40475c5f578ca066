import importlib
import inspect
import pkgutil

import nlogis


def test_package_exports_exactly_what_its_modules_declare():
    # the command-line harness is the program's entry point, imported as
    # nlogis.cli; the package re-exports the library modules only
    declared = set()
    for info in pkgutil.iter_modules(nlogis.__path__):
        if info.name != "cli":
            module = importlib.import_module(f"nlogis.{info.name}")
            declared |= set(module.__all__)
    public = {name for name in dir(nlogis) if not name.startswith("_")
              and not inspect.ismodule(getattr(nlogis, name))}
    assert public == declared
