"""Lazy package namespaces: every ``repro`` package ``__init__`` resolves
its public names on first access (PEP 562) and imports nothing up front.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter and return its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env,
        capture_output=True, text=True, check=True)
    return completed.stdout


def test_every_package_is_covered():
    assert len(PACKAGES) == 15


def test_removed_shared_memory_transport_stays_removed():
    import repro.sim
    assert not hasattr(repro.sim, "ChunkResultBlock")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sim.shm")


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve_to_their_defining_objects(name):
    package = importlib.import_module(name)
    submodules = getattr(package, "_SUBMODULES", ())
    exports = package._EXPORTS
    extra = {"__version__"} if name == "repro" else set()
    assert set(package.__all__) == {*submodules, *exports} | extra
    for export in package.__all__:
        value = getattr(package, export)
        if export in submodules:
            assert value is sys.modules[f"{name}.{export}"]
        elif export in exports:
            defining = importlib.import_module(exports[export])
            assert value is getattr(defining, export), export
        assert vars(package)[export] is value   # cached after first use


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018
    assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # noqa: S102
    package = importlib.import_module(name)
    for export in package.__all__:
        assert namespace[export] is getattr(package, export)


def test_import_repro_loads_no_subpackage():
    loaded = run_fresh("""
        import sys
        import repro
        print(sorted(name for name in sys.modules
                     if name.startswith("repro.")))
        """)
    assert loaded.strip() == "['repro._lazy']"


def test_submodule_import_through_from():
    # The package has no ``cli`` export, so the import system falls back
    # to importing the submodule.
    out = run_fresh("""
        from repro.runs import cli
        from repro import sim
        print(cli.__name__, sim.SweepEngine.__module__)
        """)
    assert out.split() == ["repro.runs.cli", "repro.sim.engine"]


def test_export_shadowing_its_submodule_survives_the_submodule_import():
    # ``repro.channel.awgn`` is the function of the same name; importing
    # the submodule (as the batch kernel does) must not rebind it.
    out = run_fresh("""
        import sys
        import repro.sim.batch
        from repro.channel import awgn
        print(awgn is sys.modules["repro.channel.awgn"].awgn)
        """)
    assert out.strip() == "True"
