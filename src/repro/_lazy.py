"""Lazy package namespaces (PEP 562).

Every ``repro`` package ``__init__`` declares a ``{public name: defining
module}`` table and turns it into a module-level ``__getattr__`` and
``__dir__`` with :func:`lazy_exports`.  Importing a package therefore
imports none of its submodules; the first access to a public name
imports the module that defines it and caches the name in the package
globals, so every later access is a plain attribute lookup.  An unknown
name raises the usual ``AttributeError``, which is also what lets the
import system fall back to a submodule for ``from repro.runs import
cli``.
"""

import importlib


def lazy_exports(namespace: dict, exports: dict, submodules=()):
    """PEP 562 ``(__getattr__, __dir__)`` for the package ``namespace``.

    ``exports`` maps each public name to the module that defines it;
    ``submodules`` names the package's submodules that are themselves
    public attributes (``repro.sim``, ``repro.utils.io``).  A name that
    shadows its own defining submodule (``repro.channel.awgn`` the
    function) is bound now: importing that submodule later would
    otherwise rebind the package attribute to the module.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        elif name in exports:
            value = getattr(importlib.import_module(exports[name]), name)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *exports, *submodules})

    for name, module in exports.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, __dir__
