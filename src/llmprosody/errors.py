"""Shared exception hierarchy.

The class of an error is its category and the message is its kind: each
failure raises one of the three categories with a message naming the check
that failed.  The categories map onto the CLI exit codes: DataError -> 2,
LlmOutputError -> 3, BackendError -> 4.  The only subclasses are the three
that carry ``.attempts`` (``llm.RateLimited``, ``llm.NetworkError`` and
``llm.RepairExhausted``).
"""


class LlmProsodyError(Exception):
    """Base class for every error raised by this package."""


class DataError(LlmProsodyError):
    """Malformed, inconsistent, or degenerate input data."""


class LlmOutputError(LlmProsodyError):
    """The model's output could not be turned into a usable suggestion."""


class BackendError(LlmProsodyError):
    """Transport-level failure while talking to a completion backend."""
