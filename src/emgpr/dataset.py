"""EMG recordings: CSV ingestion, synthetic generation, AWGN mixing, SNR.

A Recording holds one (subject, movement, trial) triple as an
(n_channels, n_samples) float array plus its sampling rate.  The ten
movement labels cover five single-finger and five combined gestures.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
from scipy import signal
from scipy.signal._sosfilt import _sosfilt

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
        check_number("trial", self.trial, 1, integer=True)
        check_number("sample_rate_hz", self.sample_rate_hz, 0, open_low=True)
        object.__setattr__(self, "channels", self._checked(self.channels))

    def _where(self) -> str:
        return f"recording {self.subject_id}/{self.movement}/trial {self.trial}"

    def _checked(self, channels) -> np.ndarray:
        """`channels` as a finite (n_channels, n_samples) float matrix of at
        least one of each, or a ValueError naming the recording and then the
        shape it got or the first sample that is not finite."""
        ch = np.asarray(channels, dtype=float)
        if ch.ndim != 2 or 0 in ch.shape:
            raise ValueError(f"{self._where()}: channels must be a (n_channels, n_samples) "
                             f"matrix with at least one of each, got shape {ch.shape}")
        finite = np.isfinite(ch)
        if not finite.all():
            channel, sample = np.argwhere(~finite)[0]
            raise ValueError(f"{self._where()}: channel {channel + 1}, sample index {sample} "
                             f"is {float(ch[channel, sample])}, not a finite number")
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
        # leave-one-trial-out needs two trials of each movement
        check_number("trials_per_movement", self.trials_per_movement, 2, integer=True)
        check_number("sample_rate_hz", self.sample_rate_hz, 0, open_low=True)
        for key in ("subjects", "movements"):
            names = getattr(self, key)
            # a string is iterable too, and would read as one name per letter
            if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                raise ValueError(f"{key} must be a list of strings, got {names!r}")
            # a repeated name would load, and count, its recordings twice
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ValueError(f"{key} lists {name!r} more than once")
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
        """The manifest saved at `path`; ValueError naming the file when it is
        not a JSON object of exactly the manifest's fields."""
        saved = json.loads(Path(path).read_text())
        if not isinstance(saved, dict):
            raise ValueError(f"{path} must hold a JSON object of manifest fields")
        names = [f.name for f in fields(cls)]
        for key in names:
            if key not in saved:
                raise ValueError(f"{path} has no {key!r} key")
        for key in saved:
            if key not in names:
                raise ValueError(f"{path} has unknown key {key!r}")
        return cls(**saved)


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
    class_gain_matrix[movement][channel], a gain >= 0, so movements are at
    least amplitude-coded and the expected downstream behavior is known by
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
        check_number("seed", self.seed, integer=True)
        for name in ("duration_s", "sample_rate_hz"):
            check_number(name, getattr(self, name), 0, open_low=True)
        if round(self.duration_s * self.sample_rate_hz) < 1:
            raise ValueError(f"duration_s must be at least one sample long at "
                             f"{self.sample_rate_hz:g} Hz, got {self.duration_s!r}")
        if not isinstance(self.band, (tuple, list)) or len(self.band) != 2:
            raise ValueError(f"band must be a (low, high) pair of numbers, got {self.band!r}")
        for i, edge in enumerate(self.band):
            check_number(f"band[{i}]", edge)
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
        # a channel scaled by -g is distributed as one scaled by g, so a
        # negative gain would code a class no feature can tell apart
        for m, row in enumerate(gains):
            for c, v in enumerate(row):
                if v < 0:
                    raise ValueError(f"class_gain_matrix[{m}][{c}] must be >= 0, got {v!r}")
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
        """`rows` as float tuples, or ValueError unless n_movements x n_channels
        of finite real numbers; the error names the first entry that is not
        one (a string or a bool is not, even where `float()` would take it)."""
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != self.n_movements or any(len(r) != self.n_channels for r in rows):
            raise ValueError(f"{name} must be n_movements x n_channels")
        for m, row in enumerate(rows):
            for c, v in enumerate(row):
                check_number(f"{name}[{m}][{c}]", v)
        return tuple(tuple(float(v) for v in row) for row in rows)

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


def sosfilt_rows(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Filter each row of `x`, a C-contiguous float (rows, samples) array,
    through the SOS cascade `sos` from rest, in place, and return `x`.

    The result is exactly `signal.sosfilt(sos, x, axis=-1)`.  This is the one
    caller of scipy's compiled cascade loop, `scipy.signal._sosfilt._sosfilt`,
    the kernel that `sosfilt` runs, without `sosfilt`'s coefficient
    validation, axis moves and array-namespace wrapping, which cost more than
    the filtering on a short chunk or on one row of a batch.  The kernel is a
    private scipy name; tests/test_preprocess.py pins this helper to
    `signal.sosfilt` bit for bit.  An `x` that is not C-contiguous is a
    ValueError from the kernel, not a silent copy.
    """
    # the kernel needs a writable cascade; a memoised one is read-only
    _sosfilt(np.array(sos, dtype=float), x, np.zeros((x.shape[0], len(sos), 2)))
    return x


def generate_synthetic(spec: SyntheticSpec) -> list:
    """Deterministically synthesize recordings; same spec -> identical bits.

    Each trial is one (n_channels, n_samples) array, drawn in one call in
    channel order from the trial's own seed, as `mix_awgn` draws.  A
    movement's trials form one (n_trials, n_channels, n_samples) batch: its
    rows are band-filtered in one call (without tilt), or each channel is
    mixed from its low and high sub-band, each filtered for all the trials
    in one call (with tilt); then every row is scaled to unit RMS, a silent
    row left as it is, and each trial is multiplied by the movement's gains
    into an array of its own.
    """
    low, high = spec.band
    nyq = spec.sample_rate_hz / 2.0

    def bandpass(lo, hi):
        return signal.butter(4, [lo / nyq, hi / nyq], btype="bandpass", output="sos")

    n = int(round(spec.duration_s * spec.sample_rate_hz))
    # one movement's trials, reused by every movement: each recording gets an
    # array of its own, so a kept trial keeps no batch alive
    x = np.empty((spec.n_trials, spec.n_channels, n))

    def unit_rms(rows, squares):
        # in place, row by row; a silent row stays as it is.  `squares` is
        # scratch of rows' shape; the sum over a row divided by its length is
        # the arithmetic of np.mean
        np.multiply(rows, rows, out=squares)
        rms = np.sqrt(np.add.reduce(squares, -1, keepdims=True) / n)
        rows /= np.where(rms > 0, rms, 1.0)
        return rows

    if spec.class_tilt_matrix is None:
        sos_band = bandpass(low, high)
    else:
        sos_pairs = [(bandpass(low, split), bandpass(split, high))
                     for split in spec.tilt_splits_hz]
        lows, highs, squares = (np.empty((spec.n_trials, n)) for _ in range(3))

    recordings = []
    for s in range(spec.n_subjects):
        subject = f"S{s + 1}"
        for m in range(spec.n_movements):
            movement = MOVEMENTS[m]
            for t in range(spec.n_trials):
                rng = np.random.default_rng(
                    derive_seed(spec.seed, "synth", subject, movement, t + 1)
                )
                rng.standard_normal(out=x[t])
            if spec.class_tilt_matrix is None:
                sosfilt_rows(sos_band, x.reshape(-1, n))
            else:
                # each channel splits its sub-bands at its own frequency
                for c, (sos_low, sos_high) in enumerate(sos_pairs):
                    tilt = spec.class_tilt_matrix[m][c]
                    np.copyto(lows, x[:, c])
                    np.copyto(highs, x[:, c])
                    unit_rms(sosfilt_rows(sos_low, lows), squares)
                    unit_rms(sosfilt_rows(sos_high, highs), squares)
                    lows *= tilt
                    highs *= 1.0 - tilt
                    np.add(lows, highs, out=x[:, c])
            gains = np.asarray(spec.class_gain_matrix[m])[:, None]
            for t in range(spec.n_trials):
                # the recording's own array holds the squares, then the
                # channels, so this step needs no batch-sized scratch
                channels = np.empty((spec.n_channels, n))
                np.multiply(unit_rms(x[t], channels), gains, out=channels)
                recordings.append(
                    Recording(
                        subject_id=subject,
                        movement=movement,
                        trial=t + 1,
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
        raise ZeroPowerChannel(f"{rec._where()}: channel {silent[0] + 1} has zero power")
    scale = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    # one draw in channel order: the same numbers as one rng.normal per channel
    noise = np.random.default_rng(seed).standard_normal(x.shape)
    # in place: x + noise * scale, as IEEE addition commutes
    noise *= scale[:, None]
    noise += x
    return rec.with_channels(noise)


def estimate_snr(active_rms: float, noise_rms: float) -> float:
    """SNR in dB by power subtraction of the rest-state noise floor; both
    RMS values must be finite numbers."""
    check_number("active_rms", active_rms)
    check_number("noise_rms", noise_rms)
    if noise_rms <= 0:
        raise SignalBelowNoise("noise_rms must be positive")
    if active_rms <= noise_rms:
        raise SignalBelowNoise(
            f"active RMS {active_rms} does not exceed noise RMS {noise_rms}"
        )
    return 20.0 * math.log10(
        math.sqrt(active_rms**2 - noise_rms**2) / noise_rms
    )
