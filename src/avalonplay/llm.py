"""Chat-completions transport: a real HTTP client and a scripted stand-in.

The HTTP client posts to ``{base_url}/chat/completions`` with the usual
``{model, messages, temperature}`` body, reads the API key from the
``AVALON_LLM_API_KEY`` environment variable, and retries transient
transport failures (HTTP 429 and 5xx, honouring a numeric ``Retry-After``)
with exponential backoff.

``MockLLM`` serves fixture-scripted responses for tests and offline runs:
an ordered rule list where each rule may match on the request's phase tag
and/or a text pattern, with a use budget. Requests that no rule matches
raise immediately; silent improvisation would mask fixture bugs. A fixture
file is checked as it loads, and each pattern compiled once. A
tournament plays each game against its own copy of the client, so use
budgets and ``requests_log`` belong to one game.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import NoneType
from typing import Any, Sequence

import requests

API_KEY_ENV = "AVALON_LLM_API_KEY"


class LLMError(Exception):
    pass


class TransportError(LLMError):
    """The request could not complete after all retries."""


class MockScriptExhausted(LLMError):
    """No fixture rule matched a mock request."""


class FixtureError(LLMError):
    """A mock fixture file that is not a usable fixture."""

    def __init__(self, path: str | Path, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def to_dict(self) -> dict[str, str]:
        return {"role": self.role, "content": self.content}


def logged_complete(
    client: "LLMClient",
    messages: Sequence[ChatMessage],
    temperature: float,
    tag: str,
    exchanges: list[dict[str, Any]],
) -> str:
    """`client.complete`, appending the exchange to `exchanges` in the form
    records embed under ``--log-exchanges``."""
    response = client.complete(messages, temperature=temperature, tag=tag)
    exchanges.append(
        {
            "request": [m.to_dict() for m in messages],
            "response": response,
            "tag": tag,
            "temperature": temperature,
        }
    )
    return response


class LLMClient:
    """Interface: complete(messages, temperature, tag) -> response text."""

    model: str = ""

    def complete(self, messages: Sequence[ChatMessage], temperature: float, tag: str) -> str:
        raise NotImplementedError


class HttpLLMClient(LLMClient):
    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 120.0,
        max_retries: int = 3,
        backoff: float = 1.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def complete(self, messages: Sequence[ChatMessage], temperature: float, tag: str) -> str:
        body = {
            "model": self.model,
            "messages": [m.to_dict() for m in messages],
            "temperature": temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        retry_after: int | None = None
        for attempt in range(self.max_retries):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)) if retry_after is None else retry_after)
            retry_after = None
            try:
                resp = requests.post(
                    f"{self.base_url}/chat/completions",
                    json=body,
                    headers=headers,
                    timeout=self.timeout,
                )
                if resp.status_code == 429 or resp.status_code >= 500:
                    # Rate limits and server errors pass; wait as long as the server asks.
                    last_error = TransportError(f"HTTP {resp.status_code}")
                    wait = resp.headers.get("Retry-After", "")
                    retry_after = int(wait) if wait.isdecimal() else None
                    continue
                resp.raise_for_status()
                data = resp.json()
                return data["choices"][0]["message"]["content"]
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = exc
                continue
            except (requests.HTTPError, KeyError, IndexError, ValueError) as exc:
                # Client errors and malformed bodies will not improve on retry.
                raise TransportError(f"unusable response from {self.base_url}: {exc}") from exc
        raise TransportError(f"request failed after {self.max_retries} attempts: {last_error}")


@dataclass
class MockRule:
    response: str
    phase: str | None = None
    pattern: str | None = None
    max_uses: int | None = 1  # None means unlimited
    uses: int = field(default=0, compare=False)
    _regex: re.Pattern[str] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._regex = None if self.pattern is None else re.compile(self.pattern, re.IGNORECASE | re.DOTALL)

    def matches(self, tag: str, text: str) -> bool:
        if self.max_uses is not None and self.uses >= self.max_uses:
            return False
        if self.phase is not None and self.phase != tag:
            return False
        if self._regex is not None and not self._regex.search(text):
            return False
        return True


def _fixture_rule(raw: Any) -> MockRule:
    """The rule a fixture entry describes; TypeError or re.error says why not."""
    if not isinstance(raw, dict):
        raise TypeError("not an object")
    if not isinstance(raw.get("response"), str):
        raise TypeError("no string 'response'")
    for key in ("phase", "pattern"):
        if not isinstance(raw.get(key), (str, NoneType)):
            raise TypeError(f"'{key}' is neither a string nor null")
    max_uses = raw.get("max_uses", 1)
    if type(max_uses) not in (int, NoneType):
        raise TypeError("'max_uses' is neither an integer nor null")
    return MockRule(raw["response"], raw.get("phase"), raw.get("pattern"), max_uses)


class MockLLM(LLMClient):
    def __init__(self, rules: Sequence[MockRule], model: str = "mock") -> None:
        self.model = model
        self.rules = list(rules)
        self.requests_log: list[dict[str, Any]] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "MockLLM":
        """The client a fixture file scripts: a list of rules, or an object
        with a ``rules`` list and an optional ``model``. Raises OSError if
        the file cannot be read, and FixtureError, naming the file and the
        rule, if it is not a fixture."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise FixtureError(path, f"not JSON: {exc}") from None
        model = "mock"
        if isinstance(data, dict):
            model = data.get("model", "mock")
            if not isinstance(model, str):
                raise FixtureError(path, "'model' is not a string")
            data = data.get("rules")
        if not isinstance(data, list):
            raise FixtureError(path, "no 'rules' list")
        rules = []
        for index, raw in enumerate(data):
            try:
                rules.append(_fixture_rule(raw))
            except TypeError as exc:
                raise FixtureError(path, f"rule {index}: {exc}") from None
            except re.error as exc:
                raise FixtureError(path, f"rule {index}: bad pattern: {exc}") from None
        return cls(rules, model=model)

    def complete(self, messages: Sequence[ChatMessage], temperature: float, tag: str) -> str:
        text = "\n".join(m.content for m in messages)
        self.requests_log.append(
            {
                "tag": tag,
                "temperature": temperature,
                "messages": [m.to_dict() for m in messages],
            }
        )
        for rule in self.rules:
            if rule.matches(tag, text):
                rule.uses += 1
                return rule.response
        raise MockScriptExhausted(
            f"no fixture rule matched a {tag!r} request; prompt tail: {text[-200:]!r}"
        )
