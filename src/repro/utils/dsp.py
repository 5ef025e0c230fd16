"""Generic DSP helpers shared across the library.

These are deliberately small, explicit functions (energy, power, resampling,
up/down-conversion, filtering, PSD estimation) so the transceiver models can
stay readable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "signal_energy",
    "signal_power",
    "normalize_energy",
    "normalize_peak",
    "rms",
    "upconvert",
    "downconvert",
    "lowpass_filter",
    "bandpass_filter",
    "fractional_delay",
    "integer_delay",
    "resample_signal",
    "estimate_psd",
    "occupied_bandwidth",
    "add_complex_exponential",
    "time_vector",
    "next_pow2",
]


def signal_energy(x) -> float:
    """Return the discrete energy ``sum(|x|^2)`` of a signal."""
    x = np.asarray(x)
    return float(np.sum(np.abs(x) ** 2))


def signal_power(x) -> float:
    """Return the mean power ``mean(|x|^2)`` of a signal."""
    x = np.asarray(x)
    if x.size == 0:
        return 0.0
    return float(np.mean(np.abs(x) ** 2))


def rms(x) -> float:
    """Return the RMS value of a signal."""
    return float(np.sqrt(signal_power(x)))


def normalize_energy(x, target_energy: float = 1.0) -> np.ndarray:
    """Scale ``x`` so its discrete energy equals ``target_energy``.

    A zero signal is returned unchanged.
    """
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    energy = signal_energy(x)
    if energy == 0.0:
        return x.copy()
    return x * np.sqrt(target_energy / energy)


def normalize_peak(x, target_peak: float = 1.0) -> np.ndarray:
    """Scale ``x`` so its peak magnitude equals ``target_peak``."""
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if peak == 0.0:
        return x.copy()
    return x * (target_peak / peak)


def time_vector(num_samples: int, sample_rate_hz: float) -> np.ndarray:
    """Return ``num_samples`` time stamps at ``sample_rate_hz`` starting at 0."""
    if num_samples < 0:
        raise ValueError("num_samples must be non-negative")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    return np.arange(num_samples) / sample_rate_hz


def upconvert(baseband, carrier_hz: float, sample_rate_hz: float,
              phase_rad: float = 0.0) -> np.ndarray:
    """Up-convert a complex baseband signal to a real passband signal.

    The passband signal is ``Re{ x(t) * exp(j*(2*pi*fc*t + phase)) }``.
    """
    x = np.asarray(baseband, dtype=complex)
    t = time_vector(x.size, sample_rate_hz)
    carrier = np.exp(1j * (2.0 * np.pi * carrier_hz * t + phase_rad))
    return np.real(x * carrier)


def downconvert(passband, carrier_hz: float, sample_rate_hz: float,
                phase_rad: float = 0.0,
                lowpass_bandwidth_hz: float | None = None) -> np.ndarray:
    """Down-convert a real passband signal to complex baseband.

    Multiplies by ``exp(-j*(2*pi*fc*t + phase))`` (factor 2 restores the
    baseband amplitude) and optionally low-pass filters to reject the
    double-frequency image.
    """
    x = np.asarray(passband, dtype=float)
    t = time_vector(x.size, sample_rate_hz)
    lo = np.exp(-1j * (2.0 * np.pi * carrier_hz * t + phase_rad))
    baseband = 2.0 * x * lo
    if lowpass_bandwidth_hz is not None:
        baseband = lowpass_filter(baseband, lowpass_bandwidth_hz, sample_rate_hz)
    return baseband


def _zero_phase_sos(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply ``sosfiltfilt`` with a pad length safe for short inputs."""
    from scipy import signal as sp_signal
    default_padlen = 3 * (2 * sos.shape[0] + 1 - min((sos[:, 2] == 0).sum(),
                                                     (sos[:, 5] == 0).sum()))
    padlen = int(min(default_padlen, max(x.shape[-1] - 2, 0)))
    return sp_signal.sosfiltfilt(sos, x, padlen=padlen)


def lowpass_filter(x, cutoff_hz: float, sample_rate_hz: float,
                   order: int = 6) -> np.ndarray:
    """Zero-phase Butterworth low-pass filter.

    Works on real or complex input (the filter is applied to the real and
    imaginary parts separately, which is valid for a real filter kernel).
    """
    from scipy import signal as sp_signal
    nyquist = sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ValueError(
            f"cutoff {cutoff_hz} Hz must be in (0, {nyquist}) Hz"
        )
    sos = sp_signal.butter(order, cutoff_hz / nyquist, btype="low", output="sos")
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return (_zero_phase_sos(sos, x.real)
                + 1j * _zero_phase_sos(sos, x.imag))
    return _zero_phase_sos(sos, x)


def bandpass_filter(x, low_hz: float, high_hz: float, sample_rate_hz: float,
                    order: int = 4) -> np.ndarray:
    """Zero-phase Butterworth band-pass filter for real or complex input."""
    from scipy import signal as sp_signal
    nyquist = sample_rate_hz / 2.0
    if not 0 < low_hz < high_hz < nyquist:
        raise ValueError("require 0 < low < high < Nyquist")
    sos = sp_signal.butter(order, [low_hz / nyquist, high_hz / nyquist],
                           btype="band", output="sos")
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return (_zero_phase_sos(sos, x.real)
                + 1j * _zero_phase_sos(sos, x.imag))
    return _zero_phase_sos(sos, x)


def integer_delay(x, delay_samples: int) -> np.ndarray:
    """Delay (or advance, when negative) a signal by an integer number of samples.

    The output has the same length as the input; samples shifted in are zero.
    """
    x = np.asarray(x)
    out = np.zeros_like(x)
    n = x.size
    d = int(delay_samples)
    if d >= n or d <= -n:
        return out
    if d >= 0:
        out[d:] = x[: n - d]
    else:
        out[: n + d] = x[-d:]
    return out


def fractional_delay(x, delay_samples: float, num_taps: int = 63) -> np.ndarray:
    """Delay a signal by a possibly fractional number of samples.

    Uses a windowed-sinc interpolation filter for the fractional part and an
    integer shift for the whole part.  The output has the same length as the
    input.
    """
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    int_part = int(np.floor(delay_samples))
    frac = float(delay_samples) - int_part
    if abs(frac) < 1e-12:
        return integer_delay(x, int_part)
    if num_taps % 2 == 0:
        num_taps += 1
    center = (num_taps - 1) // 2
    n = np.arange(num_taps)
    h = np.sinc(n - center - frac) * np.hamming(num_taps)
    h /= np.sum(h)
    filtered = np.convolve(x, h, mode="full")[center:center + x.size]
    return integer_delay(filtered, int_part)


def resample_signal(x, up: int, down: int) -> np.ndarray:
    """Polyphase resampling by a rational factor ``up/down``."""
    from scipy import signal as sp_signal
    if up <= 0 or down <= 0:
        raise ValueError("up and down must be positive integers")
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return (sp_signal.resample_poly(x.real, up, down)
                + 1j * sp_signal.resample_poly(x.imag, up, down))
    return sp_signal.resample_poly(x, up, down)


def estimate_psd(x, sample_rate_hz: float, nperseg: int | None = None,
                 return_onesided: bool | None = None):
    """Estimate the power spectral density with Welch's method.

    Returns ``(frequencies_hz, psd)`` where the PSD is in units of
    power-per-Hz of whatever squared unit ``x`` carries.  Complex input
    produces a two-sided spectrum centred (fftshifted) on 0 Hz.
    """
    from scipy import signal as sp_signal
    x = np.asarray(x)
    if nperseg is None:
        nperseg = min(x.size, 1024)
    is_complex = np.iscomplexobj(x)
    if return_onesided is None:
        return_onesided = not is_complex
    freqs, psd = sp_signal.welch(
        x, fs=sample_rate_hz, nperseg=nperseg,
        return_onesided=return_onesided,
    )
    if not return_onesided:
        order = np.argsort(freqs)
        freqs = freqs[order]
        psd = psd[order]
    return freqs, psd


def occupied_bandwidth(x, sample_rate_hz: float, power_fraction: float = 0.99,
                       nperseg: int | None = None) -> float:
    """Return the bandwidth containing ``power_fraction`` of the signal power.

    The measure is symmetric in cumulative power: it returns the width of the
    frequency interval between the ``(1-p)/2`` and ``(1+p)/2`` quantiles of
    the cumulative PSD.
    """
    if not 0 < power_fraction < 1:
        raise ValueError("power_fraction must be in (0, 1)")
    freqs, psd = estimate_psd(x, sample_rate_hz, nperseg=nperseg)
    total = np.sum(psd)
    if total <= 0:
        return 0.0
    cumulative = np.cumsum(psd) / total
    lo_q = (1.0 - power_fraction) / 2.0
    hi_q = 1.0 - lo_q
    f_low = float(np.interp(lo_q, cumulative, freqs))
    f_high = float(np.interp(hi_q, cumulative, freqs))
    return f_high - f_low


def add_complex_exponential(x, frequency_hz: float, sample_rate_hz: float,
                            amplitude: float = 1.0,
                            phase_rad: float = 0.0) -> np.ndarray:
    """Return ``x`` plus a complex exponential tone of the given parameters."""
    x = np.asarray(x, dtype=complex)
    t = time_vector(x.size, sample_rate_hz)
    tone = amplitude * np.exp(1j * (2.0 * np.pi * frequency_hz * t + phase_rad))
    return x + tone


def next_pow2(n: int) -> int:
    """Return the smallest power of two that is >= ``n`` (and >= 1)."""
    if n <= 1:
        return 1
    return 1 << (int(n - 1).bit_length())
