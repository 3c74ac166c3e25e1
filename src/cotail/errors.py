"""Exception types shared across the package, and ``unwrap`` for a result that may be one."""


class CotailError(Exception):
    """Base class for every error raised by this package."""


class NegativeValue(CotailError):
    """A coordinate was negative where nonnegative data is required."""


class NonPositiveThreshold(CotailError):
    """The selected order-statistic threshold is not strictly positive."""


class ZeroSpread(CotailError):
    """All top order statistics are equal, so the tail index is undefined."""


class AlphaNotAboveOne(CotailError):
    """The tail index must exceed 1 for expectation-type estimators."""


class InvalidP(CotailError):
    """The extrapolation probability must lie strictly inside (0, 1)."""


class NonFiniteEstimate(CotailError):
    """An estimate or its plug-in variance lies beyond the double range."""


class MissingVariance(CotailError):
    """The estimate carries no plug-in variance."""


class ParseError(CotailError):
    """Malformed tabular input."""


class NonPositivePrice(CotailError):
    """Price levels must be strictly positive to form log-returns."""


def unwrap(value):
    """``value``, or raise it if it is a ``CotailError`` standing for a failed row."""
    if isinstance(value, CotailError):
        raise value
    return value
