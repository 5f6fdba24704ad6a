"""Shared exception hierarchy.

The class of an error is its category and the message is its kind: each
failure raises one of the three categories with a message naming the check
that failed.  Each category owns its CLI exit code as ``exit_code``.  The
only subclasses are the three that carry ``.attempts`` (``llm.RateLimited``,
``llm.NetworkError`` and ``llm.RepairExhausted``), and they inherit the code
of their category.  :class:`Checked` is the base of the value types whose
fields are checked with :class:`DataError`.
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


class Checked:
    """Base, before its ``collections.namedtuple``, of a value type that checks its fields.

    The subclass's ``_check`` raises :class:`DataError`; it runs on every way a
    value is made: a call, ``_make`` and ``_replace``, ``pickle`` and ``copy``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)
