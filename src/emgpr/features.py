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
from dataclasses import asdict, dataclass, fields
from functools import lru_cache, partial

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


def feature_set(name: str, features=None) -> FeatureSetSpec:
    """Instantiate a registry set (FS1..FS4, PROPOSED) or a CUSTOM list."""
    key = name.upper() if isinstance(name, str) else None
    if key == "CUSTOM":
        if not features:
            raise ValueError("CUSTOM feature set needs an explicit feature list")
        return FeatureSetSpec("CUSTOM", tuple(features))
    if key not in _REGISTRY:
        raise UnknownFeature(f"unknown feature set {name!r}")
    if features is not None:
        raise ValueError(f"{key} has a fixed feature list")
    return FeatureSetSpec(key, _REGISTRY[key])


def with_lmav_nsv(base: FeatureSetSpec) -> FeatureSetSpec:
    """Augment a base set with LMAV and NSV for ablation comparisons."""
    return FeatureSetSpec("CUSTOM", tuple(base.features) + ("LMAV", "NSV"))


def ar_lag(fid: str) -> int:
    """The lag k of an AR<k> feature id; 0 for every other feature."""
    return int(fid[2:]) if fid.startswith("AR") else 0


def ar_fit_order(features) -> int:
    """A list reads all its AR lags off one fit at its largest lag; 0 if none."""
    return max(map(ar_lag, features), default=0)


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
#
# A one-window block has two rows, so the fixed cost of each numpy call is
# much of its price.  The kernels therefore call the ufuncs behind the
# Python-level wrappers, with the same values: np.add.reduce(y, 1) for
# y.sum(axis=1) and for np.count_nonzero(mask, axis=1), and `_diff` for
# np.diff(y, axis=1).


def _diff(y: np.ndarray) -> np.ndarray:
    """First differences along rows: ``np.diff(y, axis=1)``."""
    return np.subtract(y[:, 1:], y[:, :-1])


def _sum_sq(y: np.ndarray) -> np.ndarray:
    return np.add.reduce(y * y, 1)


def _variance(y: np.ndarray) -> np.ndarray:
    """Per-row population variance, bit-equal to np.var of the row."""
    c = y - np.add.reduce(y, 1, keepdims=True) / y.shape[1]
    return np.add.reduce(np.multiply(c, c, out=c), 1) / y.shape[1]


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


def _levinson(x: np.ndarray, order: int) -> np.ndarray:
    """Yule-Walker AR coefficients a_1..a_p of every row via Levinson-Durbin.

    Biased autocorrelation; convention x_t = sum_k a_k x_{t-k} + e_t.  A row
    with r_0 <= EPS gets all zeros; a row whose prediction error falls to EPS
    leaves the recursion with the coefficients found so far and zeros beyond.

    Every dot product is a (1, m) @ (m, 1) product per row over contiguous
    rows, which goes to the same BLAS dot as np.dot of the two 1-D rows, so
    a row's coefficients never depend on the other rows of its block.  The
    recursion runs in `out` itself until a row leaves; only then are the
    rows still in it tracked by index and copied out.
    """
    rows, n = x.shape
    r = np.empty((rows, order + 1))
    for lag in range(order + 1):
        np.matmul(x[:, None, : n - lag], x[:, lag:, None], out=r[:, None, lag : lag + 1])
    r /= n
    out = np.zeros((rows, order))
    r_rev = r[:, ::-1].copy()  # r_rev[:, p - k : p] is r[k], ..., r[1]
    a, err = out, r[:, :1].copy()
    live = None  # out's row of each row of a, once a row has left
    for k in range(order):
        # (err <= EPS).any(), as fmin skips NaN; at k = 0 it is r_0 <= EPS
        if np.fmin.reduce(err, None, initial=np.inf) <= EPS:
            done = err[:, 0] <= EPS
            if live is None:
                live = np.arange(rows)
            out[live[done]] = a[done]
            keep = ~done
            live, r, r_rev, a, err = live[keep], r[keep], r_rev[keep], a[keep], err[keep]
        kappa = a[:, k : k + 1]  # the new coefficient is the reflection coefficient
        if k:
            acc = np.matmul(a[:, None, :k], r_rev[:, order - k : order, None])[:, 0]
            np.subtract(r[:, k + 1 : k + 2], acc, out=kappa)
            np.divide(kappa, err, out=kappa)
            head = a[:, :k]
            head -= kappa * a[:, k - 1 :: -1]
        else:
            np.divide(r[:, 1:2], err, out=kappa)
        err *= 1.0 - kappa * kappa
    if live is not None:
        out[live] = a
    return out


class _lazy:
    """A block intermediate computed on first use.  The value is stored in
    the instance, which shadows this non-data descriptor from then on.
    Unlike functools.cached_property before Python 3.12, it takes no lock."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, block, owner=None):
        value = block.__dict__[self.name] = self.fn(block)
        return value


class _Block:
    """A (rows, n) block of window channels and the intermediates its
    kernels share; each intermediate is computed on first use."""

    def __init__(self, x: np.ndarray, ar_order: int):
        self.x = x
        self.n = x.shape[1]
        self.ar_order = ar_order

    @_lazy
    def abs(self):
        return np.abs(self.x)

    @_lazy
    def sum_abs(self):
        return np.add.reduce(self.abs, 1)

    @_lazy
    def sum_sq(self):
        return _sum_sq(self.x)

    @_lazy
    def mean(self):
        return np.add.reduce(self.x, 1) / self.n

    @_lazy
    def centred(self):
        return self.x - self.mean[:, None]

    @_lazy
    def sum_sq_dev(self):
        return _sum_sq(self.centred)

    @_lazy
    def var(self):
        return self.sum_sq_dev / self.n

    @_lazy
    def d1(self):
        return _diff(self.x)

    @_lazy
    def abs_d1(self):
        return np.abs(self.d1)

    @_lazy
    def sum_abs_d1(self):
        return np.add.reduce(self.abs_d1, 1)

    @_lazy
    def sum_sq_d1(self):
        return _sum_sq(self.d1)

    @_lazy
    def var_d1(self):
        return _variance(self.d1)

    @_lazy
    def d2(self):
        return _diff(self.d1)

    @_lazy
    def mob(self):
        return _mobility(self.var, self.var_d1)

    @_lazy
    def ar(self):
        return _levinson(self.x, self.ar_order)

    @_lazy
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
        wl_d1 = np.add.reduce(np.abs(self.d2), 1)
        wl_d2 = np.add.reduce(np.abs(_diff(self.d2)), 1)
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
    m3c = np.add.reduce(cube, 1) / b.n
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
    return np.add.reduce((x[:, :-1] * x[:, 1:] < 0) & (b.abs_d1 >= th.zc), 1)


def _slope_sign_changes(b: _Block, th: Thresholds) -> np.ndarray:
    # (x_i - x_{i-1}) * (x_i - x_{i+1}) > ssc, written on the first differences
    return np.add.reduce(b.d1[:, :-1] * b.d1[:, 1:] < -th.ssc, 1)


def _tkeo(b: _Block, th: Thresholds) -> np.ndarray:
    x = b.x
    return np.add.reduce(x[:, 1:-1] * x[:, 1:-1] - x[:, :-2] * x[:, 2:], 1) / (b.n - 2)


def _nsv(b: _Block, th: Thresholds) -> np.ndarray:
    """Log RMS deviation between the window MAV and the sample cube roots."""
    dev = np.subtract((b.sum_abs / b.n)[:, None], np.cbrt(b.abs))
    dev *= dev
    return 0.5 * _per_row(math.log, np.maximum(np.add.reduce(dev, 1) / b.n, EPS))


#: feature id -> (fewest samples a window needs, kernel).
_KERNELS = {
    "MAV": (1, lambda b, th: b.sum_abs / b.n),
    "IEMG": (1, lambda b, th: b.sum_abs),
    "WL": (2, lambda b, th: b.sum_abs_d1),
    "WAMP": (2, lambda b, th: np.add.reduce(b.abs_d1 > th.wamp, 1)),
    "ZC": (2, _zero_crossings),
    "SSC": (3, _slope_sign_changes),
    "VAR": (2, lambda b, th: b.sum_sq_dev / (b.n - 1)),
    "RMS": (1, lambda b, th: np.sqrt(b.sum_sq / b.n)),
    "LOG": (1, lambda b, th: _per_row(math.exp,
                                      np.add.reduce(np.log(b.abs + EPS), 1) / b.n)),
    "DAMV": (2, lambda b, th: b.sum_abs_d1 / (b.n - 1)),
    "DASDV": (2, lambda b, th: np.sqrt(b.sum_sq_d1 / (b.n - 1))),
    "MYOP": (1, lambda b, th: np.add.reduce(b.abs > th.myop, 1) / b.n),
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


@lru_cache(maxsize=256)
def _plan(features: tuple):
    """What `_evaluate` needs of a feature list, resolved once per list: the
    AR fit order, the fewest samples a window needs, the length checks in the
    order they are made, and the kernels.

    The AR lags share one fit (`ar_fit_order`), so the fit order is checked
    first, then each feature in list order.
    """
    order = ar_fit_order(features)
    checks = ((f"AR{order}", 2 * order + 1),) if order else ()
    checks += tuple((fid, _KERNELS[fid][0]) for fid in features)
    needed = max(k for _, k in checks)
    return order, needed, checks, tuple(_KERNELS[fid][1] for fid in features)


def _evaluate(features, thresholds: Thresholds, x: np.ndarray) -> np.ndarray:
    """(rows, len(features)) values of a feature list on a C-contiguous block."""
    order, needed, checks, kernels = _plan(tuple(features))
    n = x.shape[1]
    if n < needed:
        fid, k = next(check for check in checks if n < check[1])
        raise WindowTooShort(fid, n, k)
    block = _Block(x, order)
    out = np.empty((x.shape[0], len(kernels)))
    for i, kernel in enumerate(kernels):
        out[:, i] = kernel(block, thresholds)
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


def extract(set_spec: FeatureSetSpec, window: np.ndarray,
            thresholds: Thresholds = Thresholds()) -> FeatureVector:
    """Extract a feature set from every channel of a (channels, n) window
    (channel-major), with the counting features gated at `thresholds`; a
    single channel `x` is the window `x[None]`.  This is the one per-window
    call."""
    x = np.ascontiguousarray(window, dtype=float)
    return FeatureVector(_evaluate(set_spec.features, thresholds, x).reshape(-1))


def extract_matrix(set_spec: FeatureSetSpec, windows,
                   thresholds: Thresholds = Thresholds()) -> np.ndarray:
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
        _evaluate(set_spec.features, thresholds, rows[start : start + step])
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
