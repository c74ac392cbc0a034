import doctest
import importlib
import pathlib
import pkgutil

import ambilogic

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    modules = [ambilogic] + [
        importlib.import_module("ambilogic." + info.name)
        for info in pkgutil.iter_modules(ambilogic.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_readme_library_use_runs(monkeypatch):
    monkeypatch.chdir(ROOT)
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
