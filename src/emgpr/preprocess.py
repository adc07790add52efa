"""Digital filtering, windowing and min-max feature normalization."""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np
from scipy import signal

from .dataset import Recording
from .errors import DimensionMismatch, NyquistViolation, WindowLongerThanTrial, check_number

MIN_WINDOW_SAMPLES = 8


@dataclass(frozen=True)
class FilterSpec:
    """Bandpass + notch cascade parameters.

    The bandpass is a Butterworth biquad cascade and the notch one more IIR
    biquad at its end; the cascade is applied causally in a single pass so
    the chain stays usable in a streaming/prosthesis setting.
    """

    band_low_hz: float = 20.0
    band_high_hz: float = 500.0
    notch_hz: float = 50.0
    notch_q: float = 30.0
    order: int = 4

    def __post_init__(self):
        for name in ("band_low_hz", "band_high_hz", "notch_q"):
            check_number(name, getattr(self, name), 0, open_low=True)
        check_number("notch_hz", self.notch_hz)
        check_number("order", self.order, 1, integer=True)
        if not self.band_low_hz < self.band_high_hz:
            raise ValueError("need 0 < band_low_hz < band_high_hz")
        if not self.band_low_hz <= self.notch_hz <= self.band_high_hz:
            raise ValueError("notch_hz must lie within the passband")

    def to_dict(self) -> dict:
        return asdict(self)


@functools.lru_cache(maxsize=64)
def design_filters(spec: FilterSpec, sample_rate_hz: float) -> np.ndarray:
    """Return the whole chain as one (order + 1, 6) SOS cascade.

    The Butterworth bandpass sections come first and the notch is the last
    section: `iirnotch` gives a biquad (b, a) with a[0] == 1, so its row
    [b, a] is exact.  Memoised on (spec, rate); the returned array is shared
    between callers and therefore read-only.
    """
    nyq = sample_rate_hz / 2.0
    if spec.band_high_hz >= nyq:
        raise NyquistViolation(
            f"band edge {spec.band_high_hz} Hz >= Nyquist {nyq} Hz"
        )
    bandpass = signal.butter(
        spec.order,
        [spec.band_low_hz / nyq, spec.band_high_hz / nyq],
        btype="bandpass",
        output="sos",
    )
    notch = np.concatenate(signal.iirnotch(spec.notch_hz, spec.notch_q, fs=sample_rate_hz))
    sos = np.vstack([bandpass, notch])
    sos.flags.writeable = False
    return sos


def apply_filters(rec: Recording, spec: FilterSpec = FilterSpec()) -> Recording:
    """Causal bandpass + notch on every channel in one `sosfilt` pass; length
    is preserved."""
    # sosfilt rejects a read-only coefficient buffer
    sos = design_filters(spec, rec.sample_rate_hz).copy()
    return rec.with_channels(signal.sosfilt(sos, rec.channels, axis=-1))


def window_grid(n_samples: int, sample_rate_hz: float, window_ms: float,
                overlap_ms: float = 0.0) -> tuple:
    """(count, n, step) of the windows `segment` cuts from n_samples samples.

    n is the window and step the hop in samples, each rounded from ms at
    the sample rate; count is the number of whole windows.  Raises what
    `segment` raises for these settings.
    """
    check_number("window_ms", window_ms, 0, open_low=True)
    check_number("overlap_ms", overlap_ms, 0)
    if overlap_ms >= window_ms:
        raise ValueError("need overlap_ms < window_ms")
    n = int(round(window_ms * sample_rate_hz / 1000.0))
    n_overlap = int(round(overlap_ms * sample_rate_hz / 1000.0))
    if n_overlap >= n:
        raise ValueError(
            f"{window_ms} ms window and {overlap_ms} ms overlap round to "
            f"{n} and {n_overlap} samples at {sample_rate_hz} Hz; "
            "the overlap must be shorter than the window"
        )
    if n > n_samples:
        raise WindowLongerThanTrial(
            f"{window_ms} ms window ({n} samples) exceeds trial length {n_samples}"
        )
    if n < MIN_WINDOW_SAMPLES:
        raise ValueError(f"window needs >= {MIN_WINDOW_SAMPLES} samples, got {n}")
    step = n - n_overlap
    return (n_samples - n) // step + 1, n, step


def segment(rec: Recording, window_ms: float, overlap_ms: float = 0.0,
            out: np.ndarray = None) -> np.ndarray:
    """Slice a recording into a C-contiguous (windows, channels, n) array.

    Disjoint when overlap_ms = 0; a trailing remainder shorter than one
    window is dropped.  Window i starts at sample i * (n - overlap samples);
    `window_grid` gives the count, n and step.  With `out`, a float array of
    that shape, the windows are written there and `out` is returned.
    """
    count, n, step = window_grid(rec.n_samples, rec.sample_rate_hz, window_ms, overlap_ms)
    return np.stack([rec.channels[:, s : s + n] for s in range(0, count * step, step)],
                    out=out)


@dataclass(frozen=True)
class MinMax:
    """Per-column bounds fitted on training data."""

    mins: np.ndarray
    maxs: np.ndarray


def normalize_features(matrix: np.ndarray, fitted: MinMax = None):
    """Column-wise min-max scaling to [0, 1].

    With fitted bounds (train-time fit) the same bounds are reused, rows of
    another width are a DimensionMismatch, and the result is clipped to [0, 1];
    a degenerate column (max == min) maps to 0.  A 1-D input is one row and
    gives a 1-D result.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise ValueError("empty feature matrix")
    clip = fitted is not None
    if fitted is None:
        rows = np.atleast_2d(matrix)
        fitted = MinMax(mins=rows.min(axis=0), maxs=rows.max(axis=0))
    elif matrix.shape[-1:] != fitted.mins.shape:
        raise DimensionMismatch(f"bounds were fitted on {fitted.mins.size} features, "
                                f"got rows of {matrix.shape[-1] if matrix.ndim else 1}")
    span = fitted.maxs - fitted.mins
    safe = np.where(span > 0, span, 1.0)
    out = (matrix - fitted.mins) / safe
    out[..., span <= 0] = 0.0
    if clip:
        out = np.clip(out, 0.0, 1.0)
    return out, fitted
