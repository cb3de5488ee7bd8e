"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """Input outside the validity region of a special function or seed formula."""


class DimensionError(ValueError):
    """Parameter-point dimension does not match the active term cutoff."""


class IndexRangeError(ValueError):
    """A term-index range is malformed or outside [1, N]."""


class NotAGramPointError(ValueError):
    """theta(g)/pi is not an integer within tolerance."""


class StaleCacheError(ValueError):
    """A cache shard was written by another cache version."""


class CorruptCacheError(ValueError):
    """A cache shard holds a row that is not a complete record."""


class FlatPointError(RuntimeError):
    """Newton iteration hit a derivative too small to divide by."""

    def __init__(self, message: str, iterates: list[float]):
        super().__init__(message)
        self.iterates = iterates


class NonConvergenceError(RuntimeError):
    """Newton iteration exhausted its budget; carries the iterate history."""

    def __init__(self, message: str, iterates: list[float]):
        super().__init__(message)
        self.iterates = iterates


class IndeterminateSignError(RuntimeError):
    """Both the classical AFE and zmodel.point_values give |Z| too small to trust a sign."""


class TraceError(RuntimeError):
    """Continuation could not deliver a requested value; carries the partial trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
