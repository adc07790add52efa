"""EMG recordings: CSV ingestion, synthetic generation, AWGN mixing, SNR.

A Recording holds one (subject, movement, trial) triple as an
(n_channels, n_samples) float array plus its sampling rate.  The ten
movement labels cover five single-finger and five combined gestures.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy import signal

from .errors import (
    ChannelCountMismatch,
    InvalidBand,
    MalformedRow,
    MissingFile,
    SignalBelowNoise,
    ZeroPowerChannel,
    check_number,
)
from .seeding import derive_seed

MOVEMENTS = ("T", "I", "M", "R", "L", "TI", "TM", "TR", "TL", "HC")

#: Sentinel for "do not mix any noise".
NO_MIX = math.inf


@dataclass(frozen=True)
class Recording:
    subject_id: str
    movement: str
    trial: int
    sample_rate_hz: float
    channels: np.ndarray  # (n_channels, n_samples)

    def __post_init__(self):
        if self.movement not in MOVEMENTS:
            raise ValueError(f"unknown movement label {self.movement!r}")
        if self.trial < 1:
            raise ValueError("trial index starts at 1")
        check_number("sample_rate_hz", self.sample_rate_hz, 0, open_low=True)
        object.__setattr__(self, "channels", self._checked(self.channels))

    def _checked(self, channels) -> np.ndarray:
        """`channels` as a finite (n_channels, n_samples) float matrix, or a
        ValueError that locates the first sample that is not finite."""
        ch = np.asarray(channels, dtype=float)
        if ch.ndim != 2 or ch.shape[1] < 1:
            raise ValueError("channels must be a (n_channels, n_samples) matrix")
        finite = np.isfinite(ch)
        if not finite.all():
            channel, sample = np.argwhere(~finite)[0]
            raise ValueError(
                f"recording {self.subject_id}/{self.movement}/trial {self.trial}: "
                f"channel {channel + 1}, sample index {sample} is "
                f"{float(ch[channel, sample])}, not a finite number"
            )
        return ch

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    def with_channels(self, channels: np.ndarray) -> "Recording":
        """This recording with other channels, e.g. filtered or noisy ones.
        Only the channels are checked; the labels and rate are already valid."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, channels=self._checked(channels))
        return new


@dataclass(frozen=True)
class DatasetManifest:
    """Where a file-backed dataset lives and how its files are named.

    filename_template is formatted with {subject}, {movement} and {trial};
    when it lacks a {subject} placeholder and several subjects are declared,
    files are looked up under a per-subject directory instead.
    """

    root_path: str
    layout: str
    subjects: list
    movements: list
    trials_per_movement: int
    sample_rate_hz: float
    filename_template: str

    def __post_init__(self):
        # a pathlib.Path root is kept as text, so the manifest saves as JSON
        object.__setattr__(self, "root_path", str(self.root_path))
        if self.layout != "two_channel_csv":
            raise ValueError(
                f"unknown layout {self.layout!r}; only 'two_channel_csv' loads"
            )
        if self.trials_per_movement < 2:
            raise ValueError("leave-one-trial-out needs >= 2 trials per movement")
        check_number("sample_rate_hz", self.sample_rate_hz, 0, open_low=True)
        for m in self.movements:
            if m not in MOVEMENTS:
                raise ValueError(f"unknown movement label {m!r}")

    def file_path(self, subject: str, movement: str, trial: int) -> Path:
        name = self.filename_template.format(
            subject=subject, movement=movement, trial=trial
        )
        root = Path(self.root_path)
        if "{subject}" not in self.filename_template and len(self.subjects) > 1:
            return root / subject / name
        return root / name

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path) -> "DatasetManifest":
        return cls(**json.loads(Path(path).read_text()))


def _parse_csv(path: Path, expected: int = None) -> np.ndarray:
    """Read a headerless numeric table, one column per channel.

    Tolerates comma and/or whitespace separation and blank lines.  A cell that
    is not a finite number (including nan and inf) raises MalformedRow; a row
    without `expected` columns (default: the first row's) ChannelCountMismatch.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            cells = line.replace(",", " ").split()
            if not cells:
                continue
            if expected is None:
                expected = len(cells)
            elif len(cells) != expected:
                raise ChannelCountMismatch(path, line_no, expected, len(cells))
            try:
                row = [float(c) for c in cells]
                if not all(map(math.isfinite, row)):
                    raise ValueError
            except ValueError:
                bad = next(c for c in cells if not _is_finite(c))
                raise MalformedRow(path, line_no, bad) from None
            rows.append(row)
    if not rows:
        raise MalformedRow(path, 1, "<empty file>")
    return np.asarray(rows, dtype=float).T  # -> (n_channels, n_samples)


def _is_finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def load_dataset(manifest: DatasetManifest) -> list:
    """Load one Recording per (subject, movement, trial) the manifest declares;
    every file must have as many columns as the first one loaded."""
    recordings, expected = [], None
    for subject in manifest.subjects:
        for movement in manifest.movements:
            for trial in range(1, manifest.trials_per_movement + 1):
                path = manifest.file_path(subject, movement, trial)
                if not path.is_file():
                    raise MissingFile(path)
                channels = _parse_csv(path, expected)
                expected = len(channels)
                recordings.append(
                    Recording(
                        subject_id=subject,
                        movement=movement,
                        trial=trial,
                        sample_rate_hz=manifest.sample_rate_hz,
                        channels=channels,
                    )
                )
    return recordings


def save_recording(rec: Recording, path) -> None:
    """Write one recording as headerless CSV (rows = samples, cols = channels).

    Floats are written with repr so a load round-trips bit-exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cols = rec.channels.T
    with open(path, "w", encoding="utf-8") as fh:
        for row in cols:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def save_dataset(recordings: list, manifest: DatasetManifest) -> None:
    """Materialize recordings on disk per the manifest's filename template."""
    for rec in recordings:
        save_recording(rec, manifest.file_path(rec.subject_id, rec.movement, rec.trial))


# ---------------------------------------------------------------------------
# synthetic data


@dataclass(frozen=True)
class SyntheticSpec:
    """Seeded generator config for separable synthetic recordings.

    Every channel is band-limited Gaussian noise with unit RMS scaled by
    class_gain_matrix[movement][channel], so movements are at least
    amplitude-coded and the expected downstream behavior is known by
    construction.  With class_tilt_matrix set, each channel is additionally a
    class-specific mixture of a low and a high sub-band (weight = tilt), so
    classes also differ spectrally, the way distinct movements recruit
    different motor-unit populations; leave it None for classes whose only
    cue is channel amplitude.  Channel c splits its sub-bands at
    150 + 100 c Hz, capped at 0.8 of Nyquist; each split must lie strictly
    inside `band` (InvalidBand otherwise).
    """

    n_subjects: int = 1
    n_channels: int = 2
    n_movements: int = 10
    n_trials: int = 6
    duration_s: float = 5.0
    sample_rate_hz: float = 2000.0
    class_gain_matrix: tuple = None
    band: tuple = (20.0, 500.0)
    class_tilt_matrix: tuple = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n_subjects", "n_channels", "n_trials"):
            check_number(name, getattr(self, name), 1, integer=True)
        check_number("n_movements", self.n_movements, 1, len(MOVEMENTS), integer=True)
        for name in ("duration_s", "sample_rate_hz"):
            check_number(name, getattr(self, name), 0, open_low=True)
        if round(self.duration_s * self.sample_rate_hz) < 1:
            raise ValueError(f"duration_s must be at least one sample long at "
                             f"{self.sample_rate_hz:g} Hz, got {self.duration_s!r}")
        object.__setattr__(self, "band", tuple(self.band))
        low, high = self.band
        if not 0 < low < high < self.sample_rate_hz / 2:
            raise InvalidBand(
                f"band {self.band} invalid for fs={self.sample_rate_hz}"
            )
        gains = self.class_gain_matrix
        if gains is None:
            gains = separable_gain_grid(self.n_movements, self.n_channels)
        gains = self._matrix("class_gain_matrix", gains)
        if len(set(gains)) != len(gains):
            raise ValueError("class_gain_matrix rows must be distinct")
        object.__setattr__(self, "class_gain_matrix", gains)

        if self.class_tilt_matrix is not None:
            tilt = self._matrix("class_tilt_matrix", self.class_tilt_matrix)
            if any(not 0.0 <= v <= 1.0 for row in tilt for v in row):
                raise ValueError("tilt weights must lie in [0, 1]")
            if any(not low < split < high for split in self.tilt_splits_hz):
                raise InvalidBand(f"tilt splits {self.tilt_splits_hz} must lie "
                                  f"strictly inside band {self.band}")
            object.__setattr__(self, "class_tilt_matrix", tilt)

    def _matrix(self, name: str, rows) -> tuple:
        """`rows` as float tuples, or ValueError unless n_movements x n_channels."""
        rows = tuple(tuple(float(v) for v in row) for row in rows)
        if len(rows) != self.n_movements or any(len(r) != self.n_channels for r in rows):
            raise ValueError(f"{name} must be n_movements x n_channels")
        return rows

    @property
    def tilt_splits_hz(self) -> tuple:
        """Per channel, the frequency splitting the tilt's low and high band."""
        cap = 0.8 * self.sample_rate_hz / 2.0
        return tuple(min(150.0 + 100.0 * c, cap) for c in range(self.n_channels))

    def to_dict(self) -> dict:
        return asdict(self)


def separable_gain_grid(n_movements: int, n_channels: int, ratio: float = 2.0) -> tuple:
    """Gain rows on a geometric grid so adjacent classes differ >= ratio.

    With two channels the grid is 5 x 2 (primary channel sweeps five levels,
    secondary toggles between two), which keeps per-channel dynamic range
    moderate while every pair of rows stays distinguishable.
    """
    if n_channels >= 2:
        primary_levels = math.ceil(n_movements / 2)
        rows = []
        for m in range(n_movements):
            row = [1.0] * n_channels
            row[0] = ratio ** (m % primary_levels)
            row[1] = ratio ** (2 * (m // primary_levels))
            rows.append(tuple(row))
        return tuple(rows)
    return tuple((ratio ** m,) for m in range(n_movements))


def separable_tilt_matrix(n_movements: int, n_channels: int) -> tuple:
    """Spectral-tilt weights giving every class a distinct per-channel slope.

    Channel orderings are decorrelated by coprime strides so no two classes
    share a tilt signature even when their gains are close.
    """
    strides = [s for s in (1, 3, 7, 9, 11, 13, 17, 19) if
               math.gcd(s, n_movements) == 1]
    rows = []
    for m in range(n_movements):
        row = []
        for c in range(n_channels):
            stride = strides[c % len(strides)]
            level = (m * stride) % n_movements
            frac = level / (n_movements - 1) if n_movements > 1 else 0.5
            row.append(0.05 + 0.90 * frac)
        rows.append(tuple(row))
    return tuple(rows)


def separable_spec(gain_ratio: float = 2.0, amplitude_only: bool = False,
                   **fields) -> SyntheticSpec:
    """The canonical strongly-separable dataset spec: class gains on a
    geometric grid plus, unless amplitude_only, a per-class spectral tilt.
    `fields` are SyntheticSpec's other than the two class matrices."""
    spec = SyntheticSpec(**fields, class_gain_matrix=None, class_tilt_matrix=None)
    n_movements, n_channels = spec.n_movements, spec.n_channels
    tilt = None if amplitude_only else separable_tilt_matrix(n_movements, n_channels)
    return replace(
        spec,
        class_gain_matrix=separable_gain_grid(n_movements, n_channels, gain_ratio),
        class_tilt_matrix=tilt,
    )


def generate_synthetic(spec: SyntheticSpec) -> list:
    """Deterministically synthesize recordings; same spec -> identical bits."""
    low, high = spec.band
    nyq = spec.sample_rate_hz / 2.0
    sos_band = signal.butter(4, [low / nyq, high / nyq], btype="bandpass",
                             output="sos")
    sos_pairs = None
    if spec.class_tilt_matrix is not None:
        sos_pairs = [
            (
                signal.butter(4, [low / nyq, split / nyq], btype="bandpass",
                              output="sos"),
                signal.butter(4, [split / nyq, high / nyq], btype="bandpass",
                              output="sos"),
            )
            for split in spec.tilt_splits_hz
        ]

    def unit_rms(x):
        rms = math.sqrt(float(np.mean(x * x)))
        return x / rms if rms > 0 else x

    n = int(round(spec.duration_s * spec.sample_rate_hz))
    recordings = []
    for s in range(spec.n_subjects):
        subject = f"S{s + 1}"
        for m in range(spec.n_movements):
            movement = MOVEMENTS[m]
            gains = spec.class_gain_matrix[m]
            for t in range(1, spec.n_trials + 1):
                rng = np.random.default_rng(
                    derive_seed(spec.seed, "synth", subject, movement, t)
                )
                channels = np.empty((spec.n_channels, n))
                for c in range(spec.n_channels):
                    white = rng.standard_normal(n)
                    if sos_pairs is None:
                        x = unit_rms(signal.sosfilt(sos_band, white))
                    else:
                        sos_low, sos_high = sos_pairs[c]
                        tilt = spec.class_tilt_matrix[m][c]
                        x = unit_rms(
                            tilt * unit_rms(signal.sosfilt(sos_low, white))
                            + (1.0 - tilt)
                            * unit_rms(signal.sosfilt(sos_high, white))
                        )
                    channels[c] = gains[c] * x
                recordings.append(
                    Recording(
                        subject_id=subject,
                        movement=movement,
                        trial=t,
                        sample_rate_hz=spec.sample_rate_hz,
                        channels=channels,
                    )
                )
    return recordings


# ---------------------------------------------------------------------------
# noise mixing and SNR


def mix_awgn(rec: Recording, snr_db: float, seed: int) -> Recording:
    """Add seeded white Gaussian noise at a requested SNR.

    The noise power is derived from the measured power of each channel
    (noise_power = mean(x^2) / 10^(snr_db/10)), matching the convention of
    the usual 'measured'-mode mixer.  snr_db = inf returns the input as is;
    NaN and -inf raise ValueError.
    """
    if snr_db == NO_MIX:
        return rec
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite or inf, got {snr_db!r}")
    x = rec.channels
    power = np.mean(x * x, axis=1)
    silent = np.flatnonzero(power <= 0.0)
    if len(silent):
        raise ZeroPowerChannel(f"channel {silent[0]} has zero power")
    scale = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    # one draw in channel order: the same numbers as one rng.normal per channel
    noise = np.random.default_rng(seed).standard_normal(x.shape)
    # in place: x + noise * scale, as IEEE addition commutes
    noise *= scale[:, None]
    noise += x
    return rec.with_channels(noise)


def estimate_snr(active_rms: float, noise_rms: float) -> float:
    """SNR in dB by power subtraction of the rest-state noise floor."""
    if noise_rms <= 0:
        raise SignalBelowNoise("noise_rms must be positive")
    if active_rms <= noise_rms:
        raise SignalBelowNoise(
            f"active RMS {active_rms} does not exceed noise RMS {noise_rms}"
        )
    return 20.0 * math.log10(
        math.sqrt(active_rms**2 - noise_rms**2) / noise_rms
    )
