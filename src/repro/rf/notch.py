"""Tunable analog notch filter for narrowband-interferer rejection.

Fig. 3's receive chain includes a notch filter in the RF front end whose
centre frequency "may be used" from the digital back end's interferer
frequency estimate.  We model it as a second-order IIR notch applied at
complex baseband (frequency specified as an offset from the sub-band
centre) or at passband (absolute frequency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["AnalogNotchFilter"]


@dataclass
class AnalogNotchFilter:
    """Second-order tunable notch.

    Attributes
    ----------
    notch_frequency_hz:
        Centre frequency of the notch.  For complex-baseband operation this
        may be negative (below the sub-band centre).
    quality_factor:
        Q of the notch; higher Q means a narrower notch and less damage to
        the wanted UWB signal.
    enabled:
        When False, :meth:`apply` passes the signal through unchanged (the
        back end only engages the notch when an interferer is detected).
    """

    notch_frequency_hz: float = 0.0
    quality_factor: float = 20.0
    enabled: bool = True

    def __post_init__(self) -> None:
        require_positive(self.quality_factor, "quality_factor")

    def tune(self, notch_frequency_hz: float) -> None:
        """Re-tune the notch centre frequency (the back-end control path)."""
        self.notch_frequency_hz = float(notch_frequency_hz)

    def _design(self, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
        """Design the real-coefficient notch at |notch_frequency_hz|."""
        from scipy import signal as sp_signal
        nyquist = sample_rate_hz / 2.0
        freq = abs(self.notch_frequency_hz)
        if freq <= 0 or freq >= nyquist:
            raise ValueError(
                f"notch frequency {self.notch_frequency_hz} Hz must have "
                f"magnitude in (0, {nyquist}) Hz")
        return sp_signal.iirnotch(freq, self.quality_factor, fs=sample_rate_hz)

    def frequency_response(self, frequencies_hz, sample_rate_hz: float) -> np.ndarray:
        """Complex response at the requested (non-negative) frequencies."""
        from scipy import signal as sp_signal
        b, a = self._design(sample_rate_hz)
        _, response = sp_signal.freqz(b, a, worN=np.atleast_1d(frequencies_hz),
                                      fs=sample_rate_hz)
        return response

    def apply(self, waveform, sample_rate_hz: float) -> np.ndarray:
        """Filter a waveform through the notch.

        Real input uses the real-coefficient notch directly.  Complex
        baseband input is frequency-shifted so the (possibly negative)
        notch frequency lands on a positive design frequency, filtered, and
        shifted back — equivalent to a complex-coefficient notch centred at
        ``notch_frequency_hz``.
        """
        from scipy import signal as sp_signal
        require_positive(sample_rate_hz, "sample_rate_hz")
        waveform = np.asarray(waveform)
        if not self.enabled:
            return waveform.copy()
        if not np.iscomplexobj(waveform):
            b, a = self._design(sample_rate_hz)
            return sp_signal.filtfilt(b, a, waveform)

        # Complex baseband: shift the notch frequency to +fs/4, apply a real
        # notch there to both quadratures of the shifted signal, shift back.
        target = sample_rate_hz / 4.0
        shift = target - self.notch_frequency_hz
        n = np.arange(waveform.size)
        shifter = np.exp(1j * 2.0 * np.pi * shift * n / sample_rate_hz)
        shifted = waveform * shifter
        notch_at_target = AnalogNotchFilter(notch_frequency_hz=target,
                                            quality_factor=self.quality_factor)
        b, a = notch_at_target._design(sample_rate_hz)
        filtered = (sp_signal.filtfilt(b, a, shifted.real)
                    + 1j * sp_signal.filtfilt(b, a, shifted.imag))
        return filtered * np.conj(shifter)

    def rejection_at_db(self, frequency_hz: float, sample_rate_hz: float) -> float:
        """Attenuation (positive dB) the notch provides at ``frequency_hz``.

        Evaluated on an equivalent real notch centred at fs/4, probed at the
        same offset from the notch centre as ``frequency_hz`` is from
        ``notch_frequency_hz``; this matches how :meth:`apply` implements the
        complex-baseband notch.
        """
        offset = frequency_hz - self.notch_frequency_hz
        reference = AnalogNotchFilter(notch_frequency_hz=sample_rate_hz / 4.0,
                                      quality_factor=self.quality_factor)
        probe = sample_rate_hz / 4.0 + offset
        probe = min(max(probe, 1.0), 0.499 * sample_rate_hz)
        response = reference.frequency_response(np.array([probe]), sample_rate_hz)
        magnitude = float(np.abs(response[0]))
        if magnitude <= 0:
            return float("inf")
        return float(-20.0 * np.log10(magnitude))
