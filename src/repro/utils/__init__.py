"""Shared utilities: dB conversions, DSP helpers, bit handling, fixed point,
filesystem helpers."""

from repro._lazy import lazy_exports

_SUBMODULES = ("bits", "db", "dsp", "fixed_point", "io", "validation")
_EXPORTS = {
    "amplitude_to_db": "repro.utils.db",
    "db_to_amplitude": "repro.utils.db",
    "db_to_linear": "repro.utils.db",
    "dbm_to_watts": "repro.utils.db",
    "linear_to_db": "repro.utils.db",
    "watts_to_dbm": "repro.utils.db",
    "downconvert": "repro.utils.dsp",
    "estimate_psd": "repro.utils.dsp",
    "normalize_energy": "repro.utils.dsp",
    "occupied_bandwidth": "repro.utils.dsp",
    "signal_energy": "repro.utils.dsp",
    "signal_power": "repro.utils.dsp",
    "upconvert": "repro.utils.dsp",
    "FixedPointFormat": "repro.utils.fixed_point",
    "quantize_fixed": "repro.utils.fixed_point",
}

__all__ = [*_SUBMODULES, *_EXPORTS]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS, _SUBMODULES)
