"""RF front-end models: antenna, LNA, mixer, LO/synthesizer, notch, cascades."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "PlanarEllipticalAntenna": "repro.rf.antenna",
    "DirectConversionFrontEnd": "repro.rf.frontend",
    "Gen1FrontEnd": "repro.rf.frontend",
    "LNA": "repro.rf.lna",
    "DirectConversionMixer": "repro.rf.mixer",
    "NoiseStage": "repro.rf.noise",
    "cascade_gain_db": "repro.rf.noise",
    "cascade_noise_figure_db": "repro.rf.noise",
    "thermal_noise_voltage_std": "repro.rf.noise",
    "RappNonlinearity": "repro.rf.nonlinearity",
    "iip3_to_coefficient": "repro.rf.nonlinearity",
    "polynomial_nonlinearity": "repro.rf.nonlinearity",
    "AnalogNotchFilter": "repro.rf.notch",
    "LocalOscillator": "repro.rf.oscillator",
    "PhaseLockedLoop": "repro.rf.oscillator",
    "FrequencySynthesizer": "repro.rf.synthesizer",
    "HoppingSequence": "repro.rf.synthesizer",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
