"""Exception types raised across the toolkit."""


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
