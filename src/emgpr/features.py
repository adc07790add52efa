"""Time-domain feature catalog and named feature-set registry.

Every feature maps one window channel (a 1-D float array) to one scalar and
is defined once, as a batch kernel that evaluates it on many window channels
at a time (see "batch kernels" below).  The catalog covers the classic
amplitude/frequency surrogates (MAV, WL, ZC, SSC, WAMP, ...), autoregressive
coefficients, the power-spectrum moment descriptors, and the two
log-compressed amplitude features LMAV and NSV that sharpen discrimination
between weak activations.

Log-type features clamp their argument at ``EPS`` so every catalog entry is
finite on any input, including all-zero windows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .errors import UnknownFeature, WindowTooShort, check_number

EPS = 1e-12

_TDPSD_IDS = ("M0", "M2", "M4", "IRREGULARITY_FACTOR", "SPARSENESS", "WL_RATIO")


@dataclass(frozen=True)
class Thresholds:
    """Gate levels for the counting features, in signal units; the SSC level
    is in squared units, since it gates a product of two differences."""

    zc: float = 1e-4
    ssc: float = 1e-4
    wamp: float = 0.02
    myop: float = 0.016

    def __post_init__(self):
        for f in fields(self):
            check_number(f"threshold {f.name}", getattr(self, f.name), 0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class FeatureSetSpec:
    """A named, ordered list of per-channel features."""

    name: str
    features: tuple
    thresholds: Thresholds = field(default_factory=Thresholds)

    def __post_init__(self):
        if not self.features:
            raise ValueError("feature set must contain at least one feature")
        for fid in self.features:
            if fid not in CATALOG:
                raise UnknownFeature(f"unknown feature id {fid!r}")

    def __len__(self) -> int:
        return len(self.features)

    def to_dict(self) -> dict:
        return asdict(self)


_REGISTRY = {
    "FS1": ("RMS", "AR1", "AR2", "AR3", "AR4", "AR5", "AR6"),
    "FS2": ("IEMG", "WL", "WAMP", "ZC", "SSC", "VAR"),
    "FS3": ("M0", "M2", "M4", "SPARSENESS", "IRREGULARITY_FACTOR", "WL_RATIO"),
    "FS4": ("M0", "M2", "M4", "IRREGULARITY_FACTOR", "SPARSENESS", "COV", "TKEO"),
    "PROPOSED": (
        "LMAV", "NSV", "WL", "WAMP", "SSC", "ZC", "MOB", "COM", "SKW",
        "AR1", "AR2", "AR3", "AR4",
    ),
}

FEATURE_SET_NAMES = tuple(_REGISTRY) + ("CUSTOM",)


def feature_set(name: str, features=None, thresholds: Thresholds = None) -> FeatureSetSpec:
    """Instantiate a registry set (FS1..FS4, PROPOSED) or a CUSTOM list."""
    thresholds = thresholds or Thresholds()
    key = name.upper() if isinstance(name, str) else None
    if key == "CUSTOM":
        if not features:
            raise ValueError("CUSTOM feature set needs an explicit feature list")
        return FeatureSetSpec("CUSTOM", tuple(features), thresholds)
    if key not in _REGISTRY:
        raise UnknownFeature(f"unknown feature set {name!r}")
    if features is not None:
        raise ValueError(f"{key} has a fixed feature list")
    return FeatureSetSpec(key, _REGISTRY[key], thresholds)


def with_lmav_nsv(base: FeatureSetSpec) -> FeatureSetSpec:
    """Augment a base set with LMAV and NSV for ablation comparisons."""
    return FeatureSetSpec(
        name="CUSTOM",
        features=tuple(base.features) + ("LMAV", "NSV"),
        thresholds=base.thresholds,
    )


# ---------------------------------------------------------------------------
# batch kernels
#
# A block is a C-contiguous (rows, n) float array holding one window channel
# per row.  Each catalog feature is one kernel, `fn(block, thresholds)`, that
# maps the block to one value per row; the intermediates the kernels share
# (|x|, differences, row means and variances, centred signal, AR fit) are
# computed at most once per block.  Reductions run along rows only, and the
# per-row log/exp/pow finishing steps use the scalar libm calls, so a row's
# value never depends on the other rows of its block.


def _centre(y: np.ndarray) -> np.ndarray:
    """Rows minus their means, as np.var centres them."""
    return y - y.sum(axis=1, keepdims=True) / y.shape[1]


def _sum_sq(y: np.ndarray) -> np.ndarray:
    return (y * y).sum(axis=1)


def _variance(y: np.ndarray) -> np.ndarray:
    """Per-row population variance, bit-equal to np.var of the row."""
    c = _centre(y)
    return np.multiply(c, c, out=c).sum(axis=1) / y.shape[1]


def _per_row(fn, values: np.ndarray) -> np.ndarray:
    """A scalar math function applied to each row's value.

    numpy's vectorised log, exp and pow may differ from libm in the last bit,
    so the scalar call keeps every value that of the scalar definition.
    """
    return np.array([fn(v) for v in values.tolist()], dtype=float)


def _mobility(var: np.ndarray, var_diff: np.ndarray) -> np.ndarray:
    """Hjorth mobility sqrt(var(x') / var(x)); 0 where var(x) < EPS."""
    flat = var < EPS
    return np.where(flat, 0.0, np.sqrt(var_diff / np.where(flat, 1.0, var)))


def _dot_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two blocks whose rows are contiguous.

    A (1, m) @ (m, 1) product per row goes to the same BLAS dot as np.dot of
    the two rows, so each value is bit-equal to the 1-D np.dot.
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _levinson(x: np.ndarray, order: int) -> np.ndarray:
    """Yule-Walker AR coefficients a_1..a_p of every row via Levinson-Durbin.

    Biased autocorrelation; convention x_t = sum_k a_k x_{t-k} + e_t.  A row
    with r_0 <= EPS gets all zeros; a row whose prediction error falls to EPS
    leaves the recursion with the coefficients found so far and zeros beyond.
    """
    rows, n = x.shape
    r = np.stack([_dot_rows(x[:, : n - lag], x[:, lag:]) for lag in range(order + 1)],
                 axis=1) / n
    out = np.zeros((rows, order))
    live = np.flatnonzero(~(r[:, 0] <= EPS))  # rows still in the recursion
    r, a, err = r[live], out[live], r[live, 0]
    r_rev = r[:, ::-1].copy()  # r_rev[:, p - k : p] is r[k], ..., r[1]
    for k in range(order):
        acc = _dot_rows(a[:, :k], r_rev[:, order - k : order]) if k else 0.0
        kappa = (r[:, k + 1] - acc) / err
        if k:
            head = a[:, :k]
            a[:, :k] = head - kappa[:, None] * head[:, ::-1]
        a[:, k] = kappa
        err = err * (1.0 - kappa * kappa)
        done = err <= EPS
        if done.any():
            out[live[done]] = a[done]
            keep = ~done
            live, r, r_rev, a, err = live[keep], r[keep], r_rev[keep], a[keep], err[keep]
    out[live] = a
    return out


class _Block:
    """A (rows, n) block of window channels and the intermediates its
    kernels share; each intermediate is computed on first use."""

    def __init__(self, x: np.ndarray, ar_order: int):
        self.x = x
        self.n = x.shape[1]
        self.ar_order = ar_order

    @cached_property
    def abs(self):
        return np.abs(self.x)

    @cached_property
    def sum_abs(self):
        return self.abs.sum(axis=1)

    @cached_property
    def sum_sq(self):
        return _sum_sq(self.x)

    @cached_property
    def mean(self):
        return self.x.sum(axis=1) / self.n

    @cached_property
    def centred(self):
        return self.x - self.mean[:, None]

    @cached_property
    def sum_sq_dev(self):
        return _sum_sq(self.centred)

    @cached_property
    def var(self):
        return self.sum_sq_dev / self.n

    @cached_property
    def d1(self):
        return np.diff(self.x, axis=1)

    @cached_property
    def abs_d1(self):
        return np.abs(self.d1)

    @cached_property
    def sum_abs_d1(self):
        return self.abs_d1.sum(axis=1)

    @cached_property
    def sum_sq_d1(self):
        return _sum_sq(self.d1)

    @cached_property
    def var_d1(self):
        return _variance(self.d1)

    @cached_property
    def d2(self):
        return np.diff(self.d1, axis=1)

    @cached_property
    def mob(self):
        return _mobility(self.var, self.var_d1)

    @cached_property
    def ar(self):
        return _levinson(self.x, self.ar_order)

    @cached_property
    def moments(self):
        """Spectral-moment descriptors from the signal and its derivatives.

        Root moments m0/m2/m4 come from the signal, its first and second
        difference; M0/M2/M4 are log power-normalized moments, the remaining
        three are scale-invariant shape ratios.
        """
        log = partial(_per_row, math.log)
        m0 = np.sqrt(self.sum_sq)
        m2 = np.sqrt(self.sum_sq_d1)
        m4 = np.sqrt(_sum_sq(self.d2))
        # power normalization flattens the dynamic range before the log
        m0n, m2n, m4n = (_per_row(lambda v: v ** 0.1, m) / 0.1 for m in (m0, m2, m4))
        wl_d1 = np.abs(self.d2).sum(axis=1)
        wl_d2 = np.abs(np.diff(self.d2, axis=1)).sum(axis=1)
        return {
            "M0": log(m0n + EPS),
            "M2": log(np.abs(m0n - m2n) + EPS),
            "M4": log(np.abs(m0n - m4n) + EPS),
            "SPARSENESS": log(m0 / (np.sqrt(np.abs(m0 - m2) * np.abs(m0 - m4)) + EPS) + EPS),
            "IRREGULARITY_FACTOR": log(m2 / (np.sqrt(m0 * m4) + EPS) + EPS),
            "WL_RATIO": log(wl_d1 / (wl_d2 + EPS) + EPS),
        }


def _skewness(b: _Block, th: Thresholds) -> np.ndarray:
    """Bias-corrected sample skewness; 0 where var < EPS."""
    xc = b.centred
    cube = xc * xc
    cube *= xc
    m3c = cube.sum(axis=1) / b.n
    flat = b.var < EPS
    g1 = m3c / _per_row(lambda v: v ** 1.5, np.where(flat, 1.0, b.var))
    return np.where(flat, 0.0, g1 * math.sqrt(b.n * (b.n - 1)) / (b.n - 2))


def _complexity(b: _Block, th: Thresholds) -> np.ndarray:
    """Hjorth complexity MOB(x') / MOB(x); 0 where MOB(x) == 0."""
    mob_d1 = _mobility(b.var_d1, _variance(b.d2))
    still = b.mob == 0.0
    return np.where(still, 0.0, mob_d1 / np.where(still, 1.0, b.mob))


def _zero_crossings(b: _Block, th: Thresholds) -> np.ndarray:
    x = b.x
    return np.count_nonzero((x[:, :-1] * x[:, 1:] < 0) & (b.abs_d1 >= th.zc), axis=1)


def _slope_sign_changes(b: _Block, th: Thresholds) -> np.ndarray:
    # (x_i - x_{i-1}) * (x_i - x_{i+1}) > ssc, written on the first differences
    return np.count_nonzero(b.d1[:, :-1] * b.d1[:, 1:] < -th.ssc, axis=1)


def _tkeo(b: _Block, th: Thresholds) -> np.ndarray:
    x = b.x
    return (x[:, 1:-1] * x[:, 1:-1] - x[:, :-2] * x[:, 2:]).sum(axis=1) / (b.n - 2)


def _nsv(b: _Block, th: Thresholds) -> np.ndarray:
    """Log RMS deviation between the window MAV and the sample cube roots."""
    dev = np.subtract((b.sum_abs / b.n)[:, None], np.cbrt(b.abs))
    dev *= dev
    return 0.5 * _per_row(math.log, np.maximum(dev.sum(axis=1) / b.n, EPS))


#: feature id -> (fewest samples a window needs, kernel).
_KERNELS = {
    "MAV": (1, lambda b, th: b.sum_abs / b.n),
    "IEMG": (1, lambda b, th: b.sum_abs),
    "WL": (2, lambda b, th: b.sum_abs_d1),
    "WAMP": (2, lambda b, th: np.count_nonzero(b.abs_d1 > th.wamp, axis=1)),
    "ZC": (2, _zero_crossings),
    "SSC": (3, _slope_sign_changes),
    "VAR": (2, lambda b, th: b.sum_sq_dev / (b.n - 1)),
    "RMS": (1, lambda b, th: np.sqrt(b.sum_sq / b.n)),
    "LOG": (1, lambda b, th: _per_row(math.exp, np.log(b.abs + EPS).sum(axis=1) / b.n)),
    "DAMV": (2, lambda b, th: b.sum_abs_d1 / (b.n - 1)),
    "DASDV": (2, lambda b, th: np.sqrt(b.sum_sq_d1 / (b.n - 1))),
    "MYOP": (1, lambda b, th: np.count_nonzero(b.abs > th.myop, axis=1) / b.n),
    "SKW": (3, _skewness),
    "MOB": (3, lambda b, th: b.mob),
    "COM": (4, _complexity),
    "MFL": (2, lambda b, th: _per_row(math.log10, np.maximum(np.sqrt(b.sum_sq_d1), EPS))),
    **{
        f"AR{lag}": (2 * lag + 1, lambda b, th, lag=lag: b.ar[:, lag - 1])
        for lag in range(1, 7)
    },
    **{fid: (5, lambda b, th, fid=fid: b.moments[fid]) for fid in _TDPSD_IDS},
    "COV": (2, lambda b, th: np.sqrt(b.sum_sq_dev / (b.n - 1)) / (np.abs(b.mean) + EPS)),
    "TKEO": (3, _tkeo),
    "LMAV": (1, lambda b, th: 0.5 * _per_row(math.log, np.maximum(b.sum_abs / b.n, EPS))),
    "NSV": (1, _nsv),
}

#: Catalog order is the tie-break order used by forward selection.
CATALOG = tuple(_KERNELS)


def _evaluate(features, thresholds: Thresholds, x: np.ndarray) -> np.ndarray:
    """(rows, len(features)) values of a feature list on a C-contiguous block.

    AR lags share one fit whose order is the largest requested lag (a list
    asking for AR1..AR4 reads all four coefficients off one 4th-order fit).
    """
    n = x.shape[1]
    order = max((int(fid[2:]) for fid in features if fid.startswith("AR")), default=0)
    if n < 2 * order + 1:
        raise WindowTooShort(f"AR{order}", n, 2 * order + 1)
    for fid in features:
        needed = _KERNELS[fid][0]
        if n < needed:
            raise WindowTooShort(fid, n, needed)
    block = _Block(x, order)
    out = np.empty((x.shape[0], len(features)))
    for i, fid in enumerate(features):
        out[:, i] = _KERNELS[fid][1](block, thresholds)
    return out


# ---------------------------------------------------------------------------
# window-level extraction

#: Samples per block in `extract_matrix`: 32 rows of 1000 samples, so an
#: intermediate takes 256 KB.  On 2 x 1000 sample windows this was as fast as
#: or faster than 64k and 128k sample blocks, and whole subjects per block
#: ran about half as fast.
_CHUNK_SAMPLES = 1 << 15


@dataclass(frozen=True)
class FeatureVector:
    """Channel-major feature values of one window."""

    values: np.ndarray


def extract(set_spec: FeatureSetSpec, window: np.ndarray) -> FeatureVector:
    """Extract a feature set from every channel of a (channels, n) window
    (channel-major); a single channel `x` is the window `x[None]`.  This is
    the one per-window call."""
    x = np.ascontiguousarray(window, dtype=float)
    return FeatureVector(_evaluate(set_spec.features, set_spec.thresholds, x).reshape(-1))


def extract_matrix(set_spec: FeatureSetSpec, windows) -> np.ndarray:
    """`extract` of every window of a (windows, channels, n) array, or of a
    list of same-shape windows, as an (n_windows, d) matrix.

    The windows are evaluated in blocks of about `_CHUNK_SAMPLES` samples;
    every row equals `extract` of its window alone.
    """
    windows = np.ascontiguousarray(windows, dtype=float)
    count, channels, n = windows.shape
    rows = windows.reshape(-1, n)
    step = channels * max(1, _CHUNK_SAMPLES // (channels * n))
    values = [
        _evaluate(set_spec.features, set_spec.thresholds, rows[start : start + step])
        for start in range(0, len(rows), step)
    ]
    return np.concatenate(values).reshape(count, -1)


def feature_column_names(set_spec: FeatureSetSpec, n_channels: int) -> list:
    """Channel-major column labels, e.g. MAV_ch1 ... NSV_ch2."""
    return [
        f"{fid}_ch{ch + 1}"
        for ch in range(n_channels)
        for fid in set_spec.features
    ]
