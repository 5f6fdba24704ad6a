"""Settings of the completion backend and the repair loop, apart from :mod:`llmprosody.llm`
so that the CLI reads ``plan``'s defaults without loading the LLM, prompt and response layers."""

import _thread
import math
from collections import namedtuple

from .errors import Checked, DataError


class BackendConfig(Checked, namedtuple(
    "BackendConfig", "base_url model_name api_key_env temperature timeout_s max_retries max_parallel",
    defaults=("https://api.openai.com/v1", "gpt-4o-mini", "OPENAI_API_KEY", 0.0, 30.0, 3, 1),
)):
    """Connection settings for a chat/completions-compatible endpoint.

    The API key is read from the environment variable named by
    ``api_key_env`` and sent as a bearer token; it is never logged and never
    included in error messages.
    """

    __slots__ = ()
    base_url: str
    model_name: str
    api_key_env: str
    temperature: float
    timeout_s: float
    max_retries: int
    max_parallel: int

    def _check(self) -> None:
        if self.max_retries < 0:
            raise DataError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.timeout_s > 0:
            raise DataError(f"timeout_s must be > 0, got {self.timeout_s}")
        # a socket refuses a longer timeout with OverflowError
        if self.timeout_s > _thread.TIMEOUT_MAX:
            raise DataError(f"timeout_s must be at most {_thread.TIMEOUT_MAX}, got {self.timeout_s}")
        if self.max_parallel < 1:
            raise DataError(f"max_parallel must be >= 1, got {self.max_parallel}")
        # nan and inf would pass a bare `< 0` test, and JSON has no way to send them
        if not 0 <= self.temperature < math.inf:
            raise DataError(f"temperature must be a finite number >= 0, got {self.temperature}")


class RepairPolicy(Checked, namedtuple("RepairPolicy", "max_attempts", defaults=(3,))):
    """How many completions to request before giving up, and what to say."""

    __slots__ = ()
    max_attempts: int
    repair_instruction_template = (
        "\n\nYour previous answer was rejected for these reasons:\n"
        "{diagnostics}\n"
        "Answer again. Follow the response format exactly: one REASONING line, "
        "one GLOBAL line, then one WORD line for every listed word in the "
        "listed order. Do not skip, reorder, or invent words."
    )

    def _check(self) -> None:
        if self.max_attempts < 1:
            raise DataError(f"max_attempts must be >= 1, got {self.max_attempts}")
