import copy
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests
from hypothesis import example, given
from hypothesis import strategies as st

from avalonplay.agents import AgentSpec
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
from avalonplay.records import load_record
from avalonplay.runner import TournamentConfig, run_tournament

ROOT = Path(__file__).resolve().parents[1]
BENCH_FIXTURE = ROOT / "bench" / "fixtures" / "mock_llm.json"
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

        monkeypatch.setattr("requests.post", fake_post)
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

        monkeypatch.setattr("requests.post", fake_post)
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")
        assert "Authorization" not in captured

    def test_explicit_key_overrides_environment(self, monkeypatch, no_sleep):
        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(headers)
            return ok_response()

        monkeypatch.setattr("requests.post", fake_post)
        monkeypatch.setenv(API_KEY_ENV, "sk-env")
        HttpLLMClient("http://x", model="m", api_key="sk-direct").complete(MESSAGES, 0.0, "t")
        assert captured["Authorization"] == "Bearer sk-direct"

    def test_retries_with_exponential_backoff(self, monkeypatch, no_sleep):
        responses = iter([server_error(503), server_error(502), ok_response("third time")])
        monkeypatch.setattr("requests.post", lambda *a, **k: next(responses))
        client = HttpLLMClient("http://x", model="m", backoff=0.5)
        assert client.complete(MESSAGES, 0.0, "t") == "third time"
        assert no_sleep == [0.5, 1.0]

    def test_rate_limit_is_retried(self, monkeypatch, no_sleep):
        responses = iter([server_error(429), ok_response("after the limit")])
        monkeypatch.setattr("requests.post", lambda *a, **k: next(responses))
        client = HttpLLMClient("http://x", model="m", backoff=0.5)
        assert client.complete(MESSAGES, 0.0, "t") == "after the limit"
        assert no_sleep == [0.5]

    def test_rate_limits_exhaust_the_retries(self, monkeypatch, no_sleep):
        monkeypatch.setattr("requests.post", lambda *a, **k: server_error(429))
        with pytest.raises(TransportError, match="after 3 attempts: HTTP 429"):
            HttpLLMClient("http://x", model="m", max_retries=3).complete(MESSAGES, 0.0, "t")
        assert no_sleep == [1.0, 2.0]

    @pytest.mark.parametrize("code", [429, 503])
    def test_retry_after_replaces_the_backoff_step(self, monkeypatch, no_sleep, code):
        responses = iter([server_error(code, {"Retry-After": "2"}), server_error(code, {"Retry-After": "soon"}), ok_response()])
        monkeypatch.setattr("requests.post", lambda *a, **k: next(responses))
        assert HttpLLMClient("http://x", model="m", backoff=0.5).complete(MESSAGES, 0.0, "t") == "fine"
        # A value that is not a number of seconds falls back to the backoff.
        assert no_sleep == [2, 1.0]

    def test_connection_errors_retried_then_raised(self, monkeypatch, no_sleep):
        def fake_post(*a, **k):
            raise requests.ConnectionError("refused")

        monkeypatch.setattr("requests.post", fake_post)
        client = HttpLLMClient("http://x", model="m", max_retries=3)
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.complete(MESSAGES, 0.0, "t")
        assert len(no_sleep) == 2

    def test_timeouts_retried_then_raised(self, monkeypatch, no_sleep):
        timeouts = []

        def fake_post(*a, timeout=None, **k):
            timeouts.append(timeout)
            raise requests.Timeout("read timed out")

        monkeypatch.setattr("requests.post", fake_post)
        client = HttpLLMClient("http://x", model="m", timeout=7.0, max_retries=3, backoff=0.5)
        with pytest.raises(TransportError, match="after 3 attempts: read timed out"):
            client.complete(MESSAGES, 0.0, "t")
        assert timeouts == [7.0] * 3
        assert no_sleep == [0.5, 1.0]

    def test_truncated_bodies_retried_then_raised(self, monkeypatch, no_sleep):
        def fake_post(*a, **k):
            raise requests.exceptions.ChunkedEncodingError("Connection broken: IncompleteRead")

        monkeypatch.setattr("requests.post", fake_post)
        client = HttpLLMClient("http://x", model="m", max_retries=3, backoff=0.5)
        with pytest.raises(TransportError, match="after 3 attempts: Connection broken"):
            client.complete(MESSAGES, 0.0, "t")
        assert no_sleep == [0.5, 1.0]

    def test_truncated_body_then_a_reply(self, monkeypatch, no_sleep):
        def truncated(*a, **k):
            raise requests.exceptions.ChunkedEncodingError("Connection broken: IncompleteRead")

        replies = iter([truncated, lambda *a, **k: ok_response("whole")])
        monkeypatch.setattr("requests.post", lambda *a, **k: next(replies)(*a, **k))
        assert HttpLLMClient("http://x", model="m", backoff=0.5).complete(MESSAGES, 0.0, "t") == "whole"
        assert no_sleep == [0.5]

    def test_undecodable_body_fails_immediately(self, monkeypatch, no_sleep):
        calls = []

        def fake_post(*a, **k):
            calls.append(1)
            raise requests.exceptions.ContentDecodingError("Received response with content-encoding: gzip")

        monkeypatch.setattr("requests.post", fake_post)
        with pytest.raises(TransportError, match="unusable response from http://x: Received response"):
            HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")
        assert len(calls) == 1 and no_sleep == []

    def test_client_errors_fail_immediately(self, monkeypatch, no_sleep):
        calls = []

        def fake_post(*a, **k):
            calls.append(1)
            return client_error(401)

        monkeypatch.setattr("requests.post", fake_post)
        with pytest.raises(TransportError, match="unusable response"):
            HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")
        assert len(calls) == 1

    def test_malformed_body_fails_immediately(self, monkeypatch, no_sleep):
        monkeypatch.setattr(
            "requests.post",
            lambda *a, **k: SimpleNamespace(
                status_code=200, raise_for_status=lambda: None, json=lambda: {"unexpected": True}
            ),
        )
        with pytest.raises(TransportError, match="unusable response"):
            HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")

    # None, a number, a list, and text holding a lone surrogate (which a JSON
    # "\ud800" escape decodes to): none of them can be a reply.
    @pytest.mark.parametrize("content", [None, 5, ["a"], "fine \ud800"], ids=["null", "number", "list", "lone-surrogate"])
    def test_content_that_is_not_text_fails_immediately(self, monkeypatch, no_sleep, content):
        calls = []

        def fake_post(*a, **k):
            calls.append(1)
            return ok_response(content)

        monkeypatch.setattr("requests.post", fake_post)
        with pytest.raises(TransportError, match="^unusable response from http://x: "):
            HttpLLMClient("http://x", model="m").complete(MESSAGES, 0.0, "t")
        assert len(calls) == 1 and no_sleep == []

    @pytest.mark.parametrize("content", [None, "fine \ud800"], ids=["null", "lone-surrogate"])
    def test_content_that_is_not_text_aborts_the_game(self, monkeypatch, no_sleep, tmp_path, content):
        monkeypatch.setattr("requests.post", lambda *a, **k: ok_response(content))
        tc = TournamentConfig(n_games=1, just_spec=AgentSpec("llm"), record_dir=str(tmp_path))
        (summary,) = run_tournament(tc, HttpLLMClient("http://x", model="m")).summaries
        assert summary.aborted
        record = load_record(summary.record_path)
        assert record.aborted and record.error.startswith("TransportError: unusable response from http://x: ")


class TestWithoutRequests:
    def test_offline_games_need_no_requests(self):
        # `import requests` raises ImportError once its module entry is None.
        program = textwrap.dedent(
            f"""
            import sys
            sys.modules["requests"] = None
            from avalonplay.agents import AgentSpec
            from avalonplay.game import GameConfig
            from avalonplay.llm import MockLLM
            from avalonplay.runner import run_game, seed_for_game

            deduction = run_game(GameConfig(), AgentSpec("deduction"), AgentSpec("scripted_evil"), seed_for_game(42, 0))
            cot = run_game(
                GameConfig(), AgentSpec("llm", strategy="cot", model="mock"), AgentSpec("scripted_evil"),
                seed_for_game(42, 1), client=MockLLM.from_file({str(BENCH_FIXTURE)!r}),
            )
            print(deduction.aborted, cot.aborted, len(cot.events) > 0, sys.modules["requests"])
            """
        )
        src = str(ROOT / "src")
        done = subprocess.run(
            [sys.executable, "-c", program], capture_output=True, text=True, env=os.environ | {"PYTHONPATH": src}
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False False True None\n", "")


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


# Plain-pattern tokens: mixed-case letters, digits, escaped metacharacters
# and the two wildcards. Texts are drawn from the same literals in either
# case, with and without the non-ASCII characters that `re` treats as case
# variants of ASCII letters (KELVIN SIGN, LONG S, dotted capital I, dotless
# small i).
PLAIN_TOKENS = ["a", "B", "k", "S", "i", "0", " ", r"\.", r"\*", r"\[", r"\\", r"\|", ".*", ".*?"]
ASCII_PIECES = ["a", "A", "b", "B", "k", "K", "s", "S", "i", "I", "0", " ", ".", "*", "[", "\\", "|", "\n", "x"]
CASE_VARIANTS = ["\u212a", "\u017f", "\u0130", "\u0131"]


def joined(pieces, max_size=12):
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


class TestPlainPatterns:
    @pytest.mark.parametrize(
        "pattern, segments",
        [
            ("", ()),
            ("selects 3 players", ("selects 3 players",)),
            (r"your turn, player 1\. Please discuss", ("your turn, player 1. please discuss",)),
            ("'Player 4'.*your TURN.*?vote", ("'player 4'", "your turn", "vote")),
            (r".*\[a\].*", ("[a]",)),
        ],
    )
    def test_plain_patterns_keep_their_lowercased_segments(self, pattern, segments):
        assert MockRule("r", pattern=pattern)._segments == segments

    @pytest.mark.parametrize(
        "pattern",
        ["a*", "ab+", "a?", "a{2}", ".*+", ".+", "a.b", "[y]es", "(a)", "a|b", r"\d", r"\bword", "^a", "a$", "caf\u00e9"],
    )
    def test_other_patterns_are_not_plain(self, pattern):
        assert MockRule("r", pattern=pattern)._segments is None

    @given(joined(PLAIN_TOKENS, max_size=6), st.one_of(joined(ASCII_PIECES), joined(ASCII_PIECES + CASE_VARIANTS)))
    @example("b.*a", "AB")  # segments in the wrong order
    @example("a.*?a", "A")  # segments may not overlap
    @example("S", "\u017f")  # LONG S is an `s` only to the regex
    @example("k", "\u212a")
    def test_plain_matching_equals_the_regex(self, pattern, text):
        rule = MockRule("r", pattern=pattern, max_uses=None)
        assert rule._segments is not None
        assert rule.matches("t", text) == (re.search(pattern, text, re.IGNORECASE | re.DOTALL) is not None)

    @pytest.mark.parametrize(
        "fixture",
        [BENCH_FIXTURE, ROOT / "tests" / "fixtures" / "codeact_e2e.json", ROOT / "tests" / "fixtures" / "strategy_smoke.json"],
        ids=lambda path: path.name,
    )
    def test_every_checked_in_fixture_pattern_is_plain(self, fixture):
        patterned = [rule for rule in MockLLM.from_file(fixture).rules if rule.pattern is not None]
        assert patterned
        assert [rule.pattern for rule in patterned if rule._segments is None] == []

    @pytest.mark.parametrize("strategy", ["base", "cot", "react", "codeact"])
    def test_each_request_gets_the_first_rule_whose_regex_matches(self, strategy):
        checked = []

        class RegexChecked(MockLLM):
            def complete(self, messages, temperature, tag):
                text = "\n".join(m.content for m in messages)
                expected = next(
                    rule
                    for rule in self.rules
                    if (rule.max_uses is None or rule.uses < rule.max_uses)
                    and rule.phase in (None, tag)
                    and (rule.pattern is None or re.search(rule.pattern, text, re.IGNORECASE | re.DOTALL))
                )
                uses = [rule.uses for rule in self.rules]
                response = super().complete(messages, temperature, tag)
                consumed = [rule for rule, before in zip(self.rules, uses) if rule.uses != before]
                assert consumed == [expected]
                checked.append(text.isascii() and expected._segments is not None)
                return response

        client = RegexChecked(MockLLM.from_file(BENCH_FIXTURE).rules)
        tc = TournamentConfig(n_games=4, base_seed=42, just_spec=AgentSpec(policy="llm", strategy=strategy, model="mock"))
        run_tournament(tc, client=client)
        # Every game played against a copy; the plain path chose the rules.
        assert len(checked) > 40 and all(checked)


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

    def test_copies_have_their_own_budgets_and_log_and_share_patterns(self):
        mock = MockLLM([MockRule("first", pattern="sys.*hello"), MockRule("rest", max_uses=None)])
        assert mock.complete(MESSAGES, 0.0, "t") == "first"
        clone = copy.deepcopy(mock)
        assert clone.complete(MESSAGES, 0.0, "t") == "rest"
        assert [r.uses for r in mock.rules] == [1, 0]
        assert [r.uses for r in clone.rules] == [1, 1]
        assert len(mock.requests_log) == 1 and len(clone.requests_log) == 2
        assert clone.requests_log[0] == mock.requests_log[0] and clone.requests_log[0] is not mock.requests_log[0]
        assert type(clone) is MockLLM and clone.model == mock.model
        for original, copied in zip(mock.rules, clone.rules):
            assert copied is not original
            assert copied._regex is original._regex and copied._segments is original._segments

    def test_non_ascii_requests_are_matched_by_the_regex(self):
        # To `re`, LONG S is a case variant of `s`; to str.lower it is not.
        mock = MockLLM([MockRule("regex", pattern="lost"), MockRule("other", max_uses=None)])
        assert mock.complete((ChatMessage("user", "LO\u017fT"),), 0.0, "t") == "regex"

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
            ('[{"response": "a", "max_uses": -1}]', "rule 0: 'max_uses' is negative"),
            ('[{"response": "a \\ud800"}]', "rule 0: 'response' does not encode as UTF-8: "),
            ('[{"response": "a"}, {"response": "b", "pattern": "\\udc00x"}]', "rule 1: 'pattern' does not encode as UTF-8: "),
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
