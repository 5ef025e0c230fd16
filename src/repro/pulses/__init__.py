"""Pulse shaping, modulation, pulse trains, and spectral/FCC-mask analysis."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "MaskComplianceReport": "repro.pulses.fcc_mask",
    "check_mask_compliance": "repro.pulses.fcc_mask",
    "fcc_indoor_mask_dbm_per_mhz": "repro.pulses.fcc_mask",
    "max_compliant_scale": "repro.pulses.fcc_mask",
    "psd_dbm_per_mhz": "repro.pulses.fcc_mask",
    "ModulatedPulse": "repro.pulses.modulated",
    "fig4_prototype_pulse": "repro.pulses.modulated",
    "modulated_gaussian_pulse": "repro.pulses.modulated",
    "BPSKModulator": "repro.pulses.modulation",
    "BinaryPPMModulator": "repro.pulses.modulation",
    "MODULATION_SCHEMES": "repro.pulses.modulation",
    "Modulator": "repro.pulses.modulation",
    "OOKModulator": "repro.pulses.modulation",
    "PAMModulator": "repro.pulses.modulation",
    "make_modulator": "repro.pulses.modulation",
    "Pulse": "repro.pulses.shapes",
    "gaussian_doublet": "repro.pulses.shapes",
    "gaussian_derivative_pulse": "repro.pulses.shapes",
    "gaussian_monocycle": "repro.pulses.shapes",
    "gaussian_pulse": "repro.pulses.shapes",
    "rectangular_pulse": "repro.pulses.shapes",
    "root_raised_cosine_pulse": "repro.pulses.shapes",
    "sigma_for_bandwidth": "repro.pulses.shapes",
    "sinc_pulse": "repro.pulses.shapes",
    "SpectrumSummary": "repro.pulses.spectrum",
    "bandwidth_at_level": "repro.pulses.spectrum",
    "fractional_bandwidth": "repro.pulses.spectrum",
    "is_uwb_signal": "repro.pulses.spectrum",
    "summarize_spectrum": "repro.pulses.spectrum",
    "PulseTrain": "repro.pulses.train",
    "PulseTrainConfig": "repro.pulses.train",
    "PulseTrainGenerator": "repro.pulses.train",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
