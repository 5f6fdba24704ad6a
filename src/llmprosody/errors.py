"""Shared exception hierarchy.

The class of an error is its category and the message is its kind: each
failure raises one of the three categories with a message naming the check
that failed.  Each category owns its CLI exit code as ``exit_code``.  The
only subclasses are the three that carry ``.attempts`` (``llm.RateLimited``,
``llm.NetworkError`` and ``llm.RepairExhausted``), and they inherit the code
of their category.
"""


class LlmProsodyError(Exception):
    """Base class for every error raised by this package."""


class DataError(LlmProsodyError):
    """Malformed, inconsistent, or degenerate input data."""

    exit_code = 2


class LlmOutputError(LlmProsodyError):
    """The model's output could not be turned into a usable suggestion."""

    exit_code = 3


class BackendError(LlmProsodyError):
    """Transport-level failure while talking to a completion backend."""

    exit_code = 4
