"""Exception hierarchy for the ``repro`` library.

All library errors derive from :class:`ReproError` so downstream code can
catch library-specific failures with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class InvalidPrivacyBudgetError(ReproError, ValueError):
    """Raised when an ``epsilon`` value is not a positive finite number."""


class InvalidDomainError(ReproError, ValueError):
    """Raised when a domain size is not a positive integer (or not a power
    of the required base, e.g. the Hadamard transform needs powers of two)."""


class InvalidQueryError(ReproError, ValueError):
    """Raised when a range/prefix/quantile query is outside the domain or
    malformed (e.g. ``a > b`` or ``phi`` outside ``[0, 1]``)."""


class NotFittedError(ReproError, RuntimeError):
    """Raised when query answering is attempted before any user reports have
    been aggregated (mechanism not yet *fitted*)."""


class ProtocolError(ReproError, RuntimeError):
    """Raised when user reports are malformed or inconsistent with the
    mechanism configuration (wrong level id, wrong report length, ...), or
    when a service response breaks HTTP framing (bad status line, missing
    or non-digit ``Content-Length``, oversized head)."""


class ConfigurationError(ReproError, ValueError):
    """Raised for invalid mechanism / experiment configuration values, such
    as a branching factor below two or a non-positive population size."""


class ServiceOverloadedError(ReproError, RuntimeError):
    """Raised when a non-blocking submission finds the target shard's queue
    full (or the service mid-scale).  The network tier maps this to HTTP
    ``503 Service Unavailable`` with a ``Retry-After`` hint — the batch was
    *not* absorbed and should be retried by the producer."""
