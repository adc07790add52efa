"""Exception types raised across the toolkit, and the check that every
numeric setting passes."""

import math
import numbers


def check_number(name: str, value, low=None, high=None, *,
                 open_low: bool = False, integer: bool = False) -> None:
    """ValueError naming `name` unless `value` is a finite real number, not a
    bool (an integer when `integer`), with low <= value <= high; `open_low`
    excludes low itself.  An omitted bound is not checked."""
    kind = numbers.Integral if integer else numbers.Real
    ok = (isinstance(value, kind) and not isinstance(value, bool)
          and (integer or math.isfinite(value))
          and (low is None or value > low or (value == low and not open_low))
          and (high is None or value <= high))
    if not ok:
        bounds = [f"{'>' if open_low else '>='} {low:g}"] if low is not None else []
        bounds += [f"<= {high:g}"] if high is not None else []
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {what} {' and '.join(bounds)}, got {value!r}")


class EmgprError(Exception):
    """Base class for all toolkit errors."""


class MissingFile(EmgprError):
    def __init__(self, path):
        super().__init__(f"dataset file not found: {path}")
        self.path = str(path)


class MalformedRow(EmgprError):
    def __init__(self, path, line_no, cell):
        super().__init__(f"{path}:{line_no}: cannot parse {cell!r} as a finite number")
        self.path = str(path)
        self.line_no = line_no
        self.cell = cell


class ChannelCountMismatch(EmgprError):
    def __init__(self, path, line_no, expected, got):
        super().__init__(
            f"{path}:{line_no}: expected {expected} columns, got {got}"
        )
        self.path = str(path)
        self.line_no = line_no


class InvalidBand(EmgprError):
    pass


class ZeroPowerChannel(EmgprError):
    pass


class SignalBelowNoise(EmgprError):
    pass


class NyquistViolation(EmgprError):
    pass


class WindowLongerThanTrial(EmgprError):
    pass


class WindowTooShort(EmgprError):
    def __init__(self, feature_id, n, needed):
        super().__init__(
            f"feature {feature_id} needs at least {needed} samples, window has {n}"
        )
        self.feature_id = feature_id


class UnknownFeature(EmgprError):
    pass


class DegenerateClasses(EmgprError):
    pass


class RankZero(EmgprError):
    pass


class DimensionMismatch(EmgprError):
    pass


class SingularCovariance(EmgprError):
    pass


class ZeroDispersion(EmgprError):
    pass


class EmptyMatrix(EmgprError):
    pass


class InsufficientGroups(EmgprError):
    pass
