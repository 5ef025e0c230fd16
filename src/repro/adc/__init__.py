"""ADC models: ideal quantizer, flash, time-interleaved, SAR, jitter, power."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "FlashADC": "repro.adc.flash",
    "TimeInterleavedADC": "repro.adc.interleaved",
    "SamplingClock": "repro.adc.jitter",
    "jitter_limited_snr_db": "repro.adc.jitter",
    "ADCPowerModel": "repro.adc.power",
    "DEFAULT_FOM_J_PER_STEP": "repro.adc.power",
    "walden_fom_j_per_step": "repro.adc.power",
    "walden_power_w": "repro.adc.power",
    "UniformQuantizer": "repro.adc.quantizer",
    "ideal_sndr_db": "repro.adc.quantizer",
    "QuadratureSARADC": "repro.adc.sar",
    "SARADC": "repro.adc.sar",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
