"""Chat-completions transport: a real HTTP client and a scripted stand-in.

The HTTP client posts to ``{base_url}/chat/completions`` with the usual
``{model, messages, temperature}`` body, reads the API key from the
``AVALON_LLM_API_KEY`` environment variable, and retries transient
transport failures (HTTP 429 and 5xx, honouring a numeric ``Retry-After``)
with exponential backoff.

``MockLLM`` serves fixture-scripted responses for tests and offline runs:
an ordered rule list where each rule may match on the request's phase tag
and/or a text pattern, with a use budget. Requests that no rule matches
raise immediately; silent improvisation would mask fixture bugs. A
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
from typing import Any, Sequence

import requests

API_KEY_ENV = "AVALON_LLM_API_KEY"


class LLMError(Exception):
    pass


class TransportError(LLMError):
    """The request could not complete after all retries."""


class MockScriptExhausted(LLMError):
    """No fixture rule matched a mock request."""


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

    def matches(self, tag: str, text: str) -> bool:
        if self.max_uses is not None and self.uses >= self.max_uses:
            return False
        if self.phase is not None and self.phase != tag:
            return False
        if self.pattern is not None and not re.search(self.pattern, text, re.IGNORECASE | re.DOTALL):
            return False
        return True


class MockLLM(LLMClient):
    def __init__(self, rules: Sequence[MockRule], model: str = "mock") -> None:
        self.model = model
        self.rules = list(rules)
        self.requests_log: list[dict[str, Any]] = []

    @classmethod
    def from_file(cls, path: str | Path) -> "MockLLM":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if isinstance(data, dict):
            model = data.get("model", "mock")
            raw_rules = data["rules"]
        else:
            model = "mock"
            raw_rules = data
        rules = [
            MockRule(
                response=r["response"],
                phase=r.get("phase"),
                pattern=r.get("pattern"),
                max_uses=r.get("max_uses", 1),
            )
            for r in raw_rules
        ]
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
