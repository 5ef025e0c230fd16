"""Digital back end: correlators, acquisition, tracking, channel estimation,
RAKE combining, MLSE (Viterbi) equalization, spectral monitoring, notches, AGC,
and the parallelization/latency bookkeeping."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "AcquisitionConfig": "repro.dsp.acquisition",
    "AcquisitionResult": "repro.dsp.acquisition",
    "CoarseAcquisition": "repro.dsp.acquisition",
    "AutomaticGainControl": "repro.dsp.agc",
    "ChannelEstimate": "repro.dsp.channel_estimation",
    "ChannelEstimator": "repro.dsp.channel_estimation",
    "Correlator": "repro.dsp.correlator",
    "CorrelatorBank": "repro.dsp.correlator",
    "normalized_correlation": "repro.dsp.correlator",
    "sliding_correlation": "repro.dsp.correlator",
    "AdaptiveNotchCanceller": "repro.dsp.notch",
    "DigitalNotchFilter": "repro.dsp.notch",
    "Parallelizer": "repro.dsp.parallelizer",
    "acquisition_clock_cycles": "repro.dsp.parallelizer",
    "acquisition_time_s": "repro.dsp.parallelizer",
    "FINGER_POLICIES": "repro.dsp.rake",
    "RakeFinger": "repro.dsp.rake",
    "RakeReceiver": "repro.dsp.rake",
    "InterfererReport": "repro.dsp.spectral_monitor",
    "SpectralMonitor": "repro.dsp.spectral_monitor",
    "SpectralMonitorConfig": "repro.dsp.spectral_monitor",
    "DelayLockedLoop": "repro.dsp.tracking",
    "TrackingResult": "repro.dsp.tracking",
    "MLSEEqualizer": "repro.dsp.viterbi",
    "rake_isi_taps": "repro.dsp.viterbi",
    "symbol_spaced_channel": "repro.dsp.viterbi",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
