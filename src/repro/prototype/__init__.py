"""Discrete prototype platform and modulation-scheme comparison."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "ModulationComparison": "repro.prototype.comparison",
    "SchemeResult": "repro.prototype.comparison",
    "DiscretePrototypePlatform": "repro.prototype.platform",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
