import importlib
import pkgutil

import ambilogic


def test_every_export_resolves():
    modules = [ambilogic] + [
        importlib.import_module("ambilogic." + info.name)
        for info in pkgutil.iter_modules(ambilogic.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
