"""Chat-completions transport: a real HTTP client and a scripted stand-in.

The HTTP client posts to ``{base_url}/chat/completions`` with the usual
``{model, messages, temperature}`` body, reads the API key from the
``AVALON_LLM_API_KEY`` environment variable, and retries transient
transport failures (HTTP 429 and 5xx, honouring a numeric ``Retry-After``)
with exponential backoff. A reply whose content is not text that encodes
as UTF-8 is unusable and is not retried.

``MockLLM`` serves fixture-scripted responses for tests and offline runs:
an ordered rule list where each rule may match on the request's phase tag
and/or a text pattern, with a use budget. Requests that no rule matches
raise immediately; silent improvisation would mask fixture bugs. A fixture
file is checked as it loads, and each pattern compiled once. A
tournament plays each game against its own copy of the client, so use
budgets and ``requests_log`` belong to one game.

Most fixture patterns are plain: literal text joined by ``.*`` or
``.*?``. On an ASCII request such a pattern is matched by a few
``str.find`` calls on the lowercased text instead of a case-insensitive
regex search, with the same result (see ``_plain_segments``).
"""

from __future__ import annotations

import copy
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import NoneType
from typing import Any, Sequence

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
        # Imported here, so that offline games (mock and pure-policy seats)
        # neither need `requests` nor pay for importing it.
        import requests

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
                content = resp.json()["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"the content is {type(content).__name__}, not text")
                content.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError
                return content
            except (requests.ConnectionError, requests.Timeout, requests.exceptions.ChunkedEncodingError) as exc:
                # A body cut off mid-transfer passes like a dropped connection.
                last_error = exc
                continue
            except (requests.HTTPError, requests.exceptions.ContentDecodingError, LookupError, TypeError, ValueError) as exc:
                # Client errors and malformed, undecodable or non-text bodies will not improve on retry.
                raise TransportError(f"unusable response from {self.base_url}: {exc}") from exc
        raise TransportError(f"request failed after {self.max_retries} attempts: {last_error}")


# Characters that are not literal in a regex outside a class.
_REGEX_META = frozenset("\\.^$*+?{}[]()|")


def _plain_segments(pattern: str) -> tuple[str, ...] | None:
    """The lowercased literal runs of a plain pattern, in order, or None if
    `pattern` is not plain.

    A plain pattern is a sequence of ASCII literal characters other than
    ``\\.^$*+?{}[]()|``, backslash escapes of ASCII characters that are
    neither letters nor digits, and the wildcards ``.*`` and ``.*?``;
    anything else (a quantifier after a literal, ``.*+``, ``.*??``, a
    class, a group, ``|``, ``\\d``, ...) is not plain.

    On an ASCII text the segments decide a case-insensitive, dot-matches-
    newline search of the pattern exactly:

    - Under DOTALL each ``.*`` spans anything, so the pattern matches iff
      its segments occur in order without overlapping. Taking the leftmost
      occurrence of each segment in turn finds such a chain whenever one
      exists.
    - For an ASCII text and ASCII literals, ``re``'s case-insensitive
      comparison is ASCII lowercase equality. Its extra equivalences (such
      as U+212A KELVIN SIGN with ``k``, U+017F LONG S with ``s``, U+0130
      and U+0131 with ``i``) all need a non-ASCII text character, and a
      non-ASCII text goes to the regex.
    """
    segments: list[str] = []
    literal: list[str] = []
    i, n = 0, len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == ".":
            if pattern[i + 1 : i + 2] != "*":
                return None
            i += 3 if pattern[i + 2 : i + 3] == "?" else 2
            segments.append("".join(literal))
            literal = []
            continue
        if ch == "\\":
            ch = pattern[i + 1 : i + 2]
            if not ch or ch.isalnum() or not ch.isascii():
                return None
            i += 2
        elif ch in _REGEX_META or not ch.isascii():
            return None
        else:
            i += 1
        literal.append(ch)
    segments.append("".join(literal))
    return tuple(s.lower() for s in segments if s)


@dataclass
class MockRule:
    response: str
    phase: str | None = None
    pattern: str | None = None
    max_uses: int | None = 1  # None means unlimited
    uses: int = field(default=0, compare=False)
    _regex: re.Pattern[str] | None = field(init=False, repr=False, compare=False)
    _segments: tuple[str, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._regex = None if self.pattern is None else re.compile(self.pattern, re.IGNORECASE | re.DOTALL)
        self._segments = None if self.pattern is None else _plain_segments(self.pattern)

    def matches(self, tag: str, text: str) -> bool:
        return self._matches(tag, text, text.lower() if text.isascii() else None)

    def _matches(self, tag: str, text: str, folded: str | None) -> bool:
        """`matches`, given `folded`: the lowercased text if it is ASCII, else None."""
        if self.max_uses is not None and self.uses >= self.max_uses:
            return False
        if self.phase is not None and self.phase != tag:
            return False
        if self._regex is None:
            return True
        if folded is None or self._segments is None:
            return self._regex.search(text) is not None
        at = 0
        for segment in self._segments:
            at = folded.find(segment, at)
            if at < 0:
                return False
            at += len(segment)
        return True


def _fixture_rule(raw: Any) -> MockRule:
    """The rule a fixture entry describes; TypeError, ValueError or re.error says why not."""
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
    if max_uses is not None and max_uses < 0:
        raise ValueError("'max_uses' is negative")
    for key in ("response", "pattern"):
        try:
            (raw.get(key) or "").encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"'{key}' does not encode as UTF-8: {exc}") from None
    return MockRule(raw["response"], raw.get("phase"), raw.get("pattern"), max_uses)


class MockLLM(LLMClient):
    def __init__(self, rules: Sequence[MockRule], model: str = "mock") -> None:
        self.model = model
        self.rules = list(rules)
        self.requests_log: list[dict[str, Any]] = []

    def __deepcopy__(self, memo: dict[int, Any]) -> "MockLLM":
        """A copy with its own budgets and log that shares each rule's
        compiled pattern and segments with this client."""
        clone = copy.copy(self)
        clone.rules = [copy.copy(rule) for rule in self.rules]
        clone.requests_log = copy.deepcopy(self.requests_log, memo)
        return clone

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
            except (TypeError, ValueError) as exc:
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
        folded = text.lower() if text.isascii() else None
        for rule in self.rules:
            if rule._matches(tag, text, folded):
                rule.uses += 1
                return rule.response
        raise MockScriptExhausted(
            f"no fixture rule matched a {tag!r} request; prompt tail: {text[-200:]!r}"
        )
