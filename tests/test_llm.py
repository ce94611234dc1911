import json
from types import SimpleNamespace

import pytest
import requests

from avalonplay.llm import (
    API_KEY_ENV,
    ChatMessage,
    FixtureError,
    HttpLLMClient,
    MockLLM,
    MockRule,
    MockScriptExhausted,
    TransportError,
    logged_complete,
)

MESSAGES = (ChatMessage("system", "sys"), ChatMessage("user", "hello"))


def ok_response(content="fine"):
    return SimpleNamespace(
        status_code=200,
        raise_for_status=lambda: None,
        json=lambda: {"choices": [{"message": {"content": content}}]},
    )


def server_error(code=503, headers=None):
    def raise_for_status():
        raise requests.HTTPError(f"{code}")

    return SimpleNamespace(status_code=code, headers=headers or {}, raise_for_status=raise_for_status, json=lambda: {})


def client_error(code=401):
    def raise_for_status():
        raise requests.HTTPError(f"{code} client error")

    return SimpleNamespace(status_code=code, raise_for_status=raise_for_status, json=lambda: {})


@pytest.fixture
def no_sleep(monkeypatch):
    slept = []
    monkeypatch.setattr("avalonplay.llm.time.sleep", slept.append)
    return slept


class TestHttpClient:
    def test_posts_body_and_key_header(self, monkeypatch, no_sleep):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append((url, json, headers, timeout))
            return ok_response("reply!")

        monkeypatch.setattr("avalonplay.llm.requests.post", fake_post)
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        client = HttpLLMClient("http://api.example/v1/", model="m1", timeout=7.0)
        assert client.complete(MESSAGES, 0.3, "team_vote") == "reply!"
        url, body, headers, timeout = calls[0]
        assert url == "http://api.example/v1/chat/completions"
        assert body == {
            "model": "m1",
            "messages": [{"role": "system", "content": "sys"}, {"role": "user", "content": "hello"}],
            "temperature": 0.3,
        }
        assert headers["Authorization"] == "Bearer sk-test"
        assert timeout == 7.0

    def test_no_auth_header_without_key(self, monkeypatch, no_sleep):
        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(headers)
            return ok_response()

        monkeypatch.setattr("avalonplay.llm.requests.post", fake_post)
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")
        assert "Authorization" not in captured

    def test_explicit_key_overrides_environment(self, monkeypatch, no_sleep):
        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(headers)
            return ok_response()

        monkeypatch.setattr("avalonplay.llm.requests.post", fake_post)
        monkeypatch.setenv(API_KEY_ENV, "sk-env")
        HttpLLMClient("http://x", model="m", api_key="sk-direct").complete(MESSAGES, 0.0, "t")
        assert captured["Authorization"] == "Bearer sk-direct"

    def test_retries_with_exponential_backoff(self, monkeypatch, no_sleep):
        responses = iter([server_error(503), server_error(502), ok_response("third time")])
        monkeypatch.setattr("avalonplay.llm.requests.post", lambda *a, **k: next(responses))
        client = HttpLLMClient("http://x", model="m", backoff=0.5)
        assert client.complete(MESSAGES, 0.0, "t") == "third time"
        assert no_sleep == [0.5, 1.0]

    def test_rate_limit_is_retried(self, monkeypatch, no_sleep):
        responses = iter([server_error(429), ok_response("after the limit")])
        monkeypatch.setattr("avalonplay.llm.requests.post", lambda *a, **k: next(responses))
        client = HttpLLMClient("http://x", model="m", backoff=0.5)
        assert client.complete(MESSAGES, 0.0, "t") == "after the limit"
        assert no_sleep == [0.5]

    def test_rate_limits_exhaust_the_retries(self, monkeypatch, no_sleep):
        monkeypatch.setattr("avalonplay.llm.requests.post", lambda *a, **k: server_error(429))
        with pytest.raises(TransportError, match="after 3 attempts: HTTP 429"):
            HttpLLMClient("http://x", model="m", max_retries=3).complete(MESSAGES, 0.0, "t")
        assert no_sleep == [1.0, 2.0]

    @pytest.mark.parametrize("code", [429, 503])
    def test_retry_after_replaces_the_backoff_step(self, monkeypatch, no_sleep, code):
        responses = iter([server_error(code, {"Retry-After": "2"}), server_error(code, {"Retry-After": "soon"}), ok_response()])
        monkeypatch.setattr("avalonplay.llm.requests.post", lambda *a, **k: next(responses))
        assert HttpLLMClient("http://x", model="m", backoff=0.5).complete(MESSAGES, 0.0, "t") == "fine"
        # A value that is not a number of seconds falls back to the backoff.
        assert no_sleep == [2, 1.0]

    def test_connection_errors_retried_then_raised(self, monkeypatch, no_sleep):
        def fake_post(*a, **k):
            raise requests.ConnectionError("refused")

        monkeypatch.setattr("avalonplay.llm.requests.post", fake_post)
        client = HttpLLMClient("http://x", model="m", max_retries=3)
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.complete(MESSAGES, 0.0, "t")
        assert len(no_sleep) == 2

    def test_timeouts_retried_then_raised(self, monkeypatch, no_sleep):
        timeouts = []

        def fake_post(*a, timeout=None, **k):
            timeouts.append(timeout)
            raise requests.Timeout("read timed out")

        monkeypatch.setattr("avalonplay.llm.requests.post", fake_post)
        client = HttpLLMClient("http://x", model="m", timeout=7.0, max_retries=3, backoff=0.5)
        with pytest.raises(TransportError, match="after 3 attempts: read timed out"):
            client.complete(MESSAGES, 0.0, "t")
        assert timeouts == [7.0] * 3
        assert no_sleep == [0.5, 1.0]

    def test_truncated_bodies_retried_then_raised(self, monkeypatch, no_sleep):
        def fake_post(*a, **k):
            raise requests.exceptions.ChunkedEncodingError("Connection broken: IncompleteRead")

        monkeypatch.setattr("avalonplay.llm.requests.post", fake_post)
        client = HttpLLMClient("http://x", model="m", max_retries=3, backoff=0.5)
        with pytest.raises(TransportError, match="after 3 attempts: Connection broken"):
            client.complete(MESSAGES, 0.0, "t")
        assert no_sleep == [0.5, 1.0]

    def test_truncated_body_then_a_reply(self, monkeypatch, no_sleep):
        def truncated(*a, **k):
            raise requests.exceptions.ChunkedEncodingError("Connection broken: IncompleteRead")

        replies = iter([truncated, lambda *a, **k: ok_response("whole")])
        monkeypatch.setattr("avalonplay.llm.requests.post", lambda *a, **k: next(replies)(*a, **k))
        assert HttpLLMClient("http://x", model="m", backoff=0.5).complete(MESSAGES, 0.0, "t") == "whole"
        assert no_sleep == [0.5]

    def test_undecodable_body_fails_immediately(self, monkeypatch, no_sleep):
        calls = []

        def fake_post(*a, **k):
            calls.append(1)
            raise requests.exceptions.ContentDecodingError("Received response with content-encoding: gzip")

        monkeypatch.setattr("avalonplay.llm.requests.post", fake_post)
        with pytest.raises(TransportError, match="unusable response from http://x: Received response"):
            HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")
        assert len(calls) == 1 and no_sleep == []

    def test_client_errors_fail_immediately(self, monkeypatch, no_sleep):
        calls = []

        def fake_post(*a, **k):
            calls.append(1)
            return client_error(401)

        monkeypatch.setattr("avalonplay.llm.requests.post", fake_post)
        with pytest.raises(TransportError, match="unusable response"):
            HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")
        assert len(calls) == 1

    def test_malformed_body_fails_immediately(self, monkeypatch, no_sleep):
        monkeypatch.setattr(
            "avalonplay.llm.requests.post",
            lambda *a, **k: SimpleNamespace(
                status_code=200, raise_for_status=lambda: None, json=lambda: {"unexpected": True}
            ),
        )
        with pytest.raises(TransportError, match="unusable response"):
            HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")

class TestMockRule:
    def test_phase_gating(self):
        rule = MockRule("r", phase="team_vote")
        assert rule.matches("team_vote", "anything")
        assert not rule.matches("discussion", "anything")

    def test_pattern_is_case_insensitive_and_spans_lines(self):
        rule = MockRule("r", pattern="quest ended in SUCCESS.*your turn")
        assert rule.matches("t", "The quest ended in success.\nLots of text.\nYour turn, player 3.")

    def test_use_budget(self):
        rule = MockRule("r", max_uses=2)
        assert rule.matches("t", "x")
        rule.uses = 2
        assert not rule.matches("t", "x")

    def test_unlimited_uses(self):
        rule = MockRule("r", max_uses=None)
        rule.uses = 10_000
        assert rule.matches("t", "x")

    def test_pattern_is_compiled_once(self, monkeypatch):
        rule = MockRule("r", pattern="selects 3", max_uses=None)

        class NoRegexModule:
            def __getattr__(self, name):
                raise AssertionError(f"re.{name} was used while matching")

        # Only the module under test loses `re`; pytest's own use of it is untouched.
        monkeypatch.setattr("avalonplay.llm.re", NoRegexModule())
        assert rule.matches("t", "The leader SELECTS 3 players.")
        assert not rule.matches("t", "The leader selects 2 players.")


class TestMockLLM:
    def test_first_unconsumed_match_wins_and_budget_advances(self):
        mock = MockLLM(
            [
                MockRule("first", phase="discussion"),
                MockRule("second", phase="discussion", max_uses=None),
            ]
        )
        assert mock.complete(MESSAGES, 0.7, "discussion") == "first"
        assert mock.complete(MESSAGES, 0.7, "discussion") == "second"
        assert mock.complete(MESSAGES, 0.7, "discussion") == "second"

    def test_pattern_matches_joined_message_contents(self):
        mock = MockLLM([MockRule("matched", pattern="sys.*hello")])
        assert mock.complete(MESSAGES, 0.0, "any") == "matched"

    def test_exhaustion_raises_with_context(self):
        mock = MockLLM([MockRule("only", phase="team_vote")])
        with pytest.raises(MockScriptExhausted, match="'discussion'"):
            mock.complete(MESSAGES, 0.0, "discussion")

    def test_requests_log(self):
        mock = MockLLM([MockRule("r", max_uses=None)])
        mock.complete(MESSAGES, 0.4, "quest_vote")
        assert mock.requests_log == [
            {
                "tag": "quest_vote",
                "temperature": 0.4,
                "messages": [m.to_dict() for m in MESSAGES],
            }
        ]

    def test_from_file_bare_list(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps(
                [
                    {"response": "a", "phase": "discussion"},
                    {"response": "b", "pattern": "x", "max_uses": None},
                ]
            )
        )
        mock = MockLLM.from_file(path)
        assert mock.model == "mock"
        assert [r.response for r in mock.rules] == ["a", "b"]
        assert mock.rules[0].max_uses == 1
        assert mock.rules[1].max_uses is None

    def test_from_file_with_model(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"model": "scripted-7", "rules": [{"response": "a"}]}))
        mock = MockLLM.from_file(path)
        assert mock.model == "scripted-7"
        assert len(mock.rules) == 1

    @pytest.mark.parametrize(
        "content, reason",
        [
            ("not json", "not JSON: Expecting value: line 1 column 1 (char 0)"),
            (b"\xff\xfe", "not JSON: "),
            ('{"model": "m"}', "no 'rules' list"),
            ('{"rules": {"response": "a"}}', "no 'rules' list"),
            ('{"model": 7, "rules": []}', "'model' is not a string"),
            ('{"rules": [{"phase": "x"}]}', "rule 0: no string 'response'"),
            ('[{"response": "a"}, "b"]', "rule 1: not an object"),
            ('[{"response": "a", "phase": 3}]', "rule 0: 'phase' is neither a string nor null"),
            ('[{"response": "a", "max_uses": true}]', "rule 0: 'max_uses' is neither an integer nor null"),
            (
                '[{"response": "a"}, {"response": "b", "pattern": "("}]',
                "rule 1: bad pattern: missing ), unterminated subpattern at position 0",
            ),
        ],
    )
    def test_from_file_rejects_what_is_not_a_fixture(self, tmp_path, content, reason):
        path = tmp_path / "rules.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(FixtureError) as caught:
            MockLLM.from_file(path)
        assert caught.value.path == path
        assert caught.value.reason.startswith(reason)
        assert str(caught.value) == f"{path}: {caught.value.reason}"


class TestExchange:
    def test_to_dict(self):
        client = MockLLM([MockRule(response="ok", max_uses=None)])
        exchanges = []
        assert logged_complete(client, MESSAGES, 0.7, "discussion", exchanges) == "ok"
        (d,) = exchanges
        # The keys, in this order, are what records embed under --log-exchanges.
        assert list(d) == ["request", "response", "tag", "temperature"]
        assert d["request"][1] == {"role": "user", "content": "hello"}
        assert d["tag"] == "discussion"
        assert d["temperature"] == 0.7
