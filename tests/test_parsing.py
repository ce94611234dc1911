import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avalonplay import parsing
from avalonplay.parsing import (
    InvalidPlayerRef,
    NoPlayersFound,
    ParseError,
    VoteParseError,
    WrongSize,
    extract_json_objects,
    extract_player_ids,
    extract_program,
    parse_team_selection,
    parse_vote,
)


class TestExtractPlayerIds:
    @pytest.mark.parametrize(
        "text,speaker,expected",
        [
            ("I choose player 2 and player 5.", None, [2, 5]),
            ("players 2, 3 and 6 should go", None, [2, 3, 6]),
            ("players 2, 3, and 6", None, [2, 3, 6]),
            ("player 1 & player 4", None, [1, 4]),
            ("[2, 3, 6, 7]", None, [2, 3, 6, 7]),
            ("the team is [1,2] obviously", None, [1, 2]),
            ("I choose myself and player 2", 5, [2, 5]),
            ("take me along with player 3", 4, [3, 4]),
            ("Player 3, player 3, and player 5", None, [3, 5]),
            ("sounds good to everyone?", None, []),
            ("myself", None, []),
        ],
    )
    def test_reference_styles(self, text, speaker, expected):
        assert sorted(extract_player_ids(text, speaker)) == sorted(expected)

    def test_order_of_first_mention(self):
        assert extract_player_ids("player 6, then players 2 and 6, then [4]") == [4, 6, 2]

    def test_self_reference_not_duplicated(self):
        assert extract_player_ids("me, player 5, and myself", 5) == [5]


class TestParseTeamSelection:
    def test_happy_path(self):
        team = parse_team_selection("I choose myself and player 2 for this quest.", 5, 2)
        assert team == frozenset({5, 2})

    def test_no_players(self):
        with pytest.raises(NoPlayersFound) as err:
            parse_team_selection("sounds good", 1, 2)
        assert err.value.ids == []

    def test_wrong_size_carries_ids(self):
        with pytest.raises(WrongSize) as err:
            parse_team_selection("[2, 3, 4, 6, 7]", None, 4)
        assert err.value.ids == [2, 3, 4, 6, 7]
        assert "need exactly 4" in str(err.value)

    def test_invalid_ref_carries_ids(self):
        with pytest.raises(InvalidPlayerRef) as err:
            parse_team_selection("players 8 and 2", None, 2)
        assert err.value.ids == [8, 2]

    def test_invalid_ref_wins_over_wrong_size(self):
        with pytest.raises(InvalidPlayerRef):
            parse_team_selection("[0]", None, 2)

    def test_errors_are_parse_errors(self):
        for exc in (NoPlayersFound, WrongSize, InvalidPlayerRef, VoteParseError):
            assert issubclass(exc, ParseError)


class TestExtractJsonObjects:
    def test_finds_balanced_objects_in_order(self):
        text = 'prefix {"a": 1} middle {"b": {"c": 2}} suffix'
        assert extract_json_objects(text) == [{"a": 1}, {"b": {"c": 2}}]

    def test_braces_inside_strings(self):
        text = '{"reasoning": "use {curly} braces", "vote": "approve"}'
        assert extract_json_objects(text) == [
            {"reasoning": "use {curly} braces", "vote": "approve"}
        ]

    def test_escaped_quotes(self):
        text = '{"reasoning": "she said \\"no\\"", "vote": "reject"}'
        assert extract_json_objects(text)[0]["reasoning"] == 'she said "no"'

    def test_malformed_candidates_are_skipped(self):
        assert extract_json_objects("{not json} then {\"ok\": true}") == [{"ok": True}]

    def test_non_dict_json_ignored(self):
        assert extract_json_objects("[1, 2, 3] and nothing else") == []

    def test_plain_text(self):
        assert extract_json_objects("I think we should proceed.") == []

    def test_too_deeply_nested_reply_is_a_vote_parse_error(self):
        # Decoding this raises RecursionError, which must not escape as
        # anything but "no usable vote object".
        text = '{"reasoning": ' * 3000 + '"x"' + "}" * 3000
        with pytest.raises(VoteParseError):
            parse_vote(text)

    def test_many_open_braces_scan_in_linear_time(self):
        start = time.perf_counter()
        assert extract_json_objects("{" * 20_000) == []
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("opener", ['{"a": ', '{"a": [', '{"'])
    def test_objects_that_never_close_scan_in_linear_time(self, opener):
        # Each opener would fail to decode only after a long recursion or a
        # newline count from the start of the text; with no "}" after it,
        # none is decoded at all.
        start = time.perf_counter()
        assert extract_json_objects(opener * 20_000) == []
        assert time.perf_counter() - start < 0.1

    def test_decodes_only_where_an_object_can_start(self, monkeypatch):
        decoder, starts = parsing._DECODER, []

        class Counting:
            def raw_decode(self, text, i):
                starts.append(i)
                return decoder.raw_decode(text, i)

        monkeypatch.setattr(parsing, "_DECODER", Counting())
        text = "{" * 1000 + "{ x" * 1000 + '{ \t\n\r"a": 1} {"b" {}'
        assert extract_json_objects(text) == [{"a": 1}, {}]
        objects = 1000 + 3 * 1000
        assert starts == [objects, objects + 13, objects + 18]


class TestParseVote:
    def test_approve(self):
        reasoning, approve = parse_vote(
            'Here is my vote: {"reasoning": "Seems safe.", "vote": "approve"}'
        )
        assert reasoning == "Seems safe."
        assert approve is True

    def test_reject_case_insensitive(self):
        _, approve = parse_vote('{"reasoning": "No.", "vote": " REJECT "}')
        assert approve is False

    def test_first_object_wins(self):
        _, approve = parse_vote(
            '{"reasoning": "a", "vote": "reject"} {"reasoning": "b", "vote": "approve"}'
        )
        assert approve is False

    @pytest.mark.parametrize(
        "text",
        [
            "I think we should proceed.",
            '{"vote": "approve"}',
            '{"reasoning": "only reasoning"}',
            '{"reasoning": "x", "vote": "yes"}',
            '{"reasoning": "x", "vote": 1}',
            '{"reasoning": 3, "vote": "approve"}',
        ],
    )
    def test_strictness(self, text):
        with pytest.raises(VoteParseError):
            parse_vote(text)

    def test_first_object_strictness_is_not_recovered_by_later_objects(self):
        # The protocol reads only the first object; a later well-formed one
        # does not rescue a malformed first reply.
        with pytest.raises(VoteParseError):
            parse_vote('{"vote": "yes"} {"reasoning": "x", "vote": "approve"}')


class TestExtractProgram:
    def test_fenced_block_preferred(self):
        text = "Thought: easy.\n```python\nprint([1, 2])\n```\nAction: ignored"
        assert extract_program(text) == "print([1, 2])"

    def test_plain_fence(self):
        assert extract_program("```\nx = 1\nprint(x)\n```") == "x = 1\nprint(x)"

    def test_action_output_block(self):
        text = "Action Output:\nteam = [2, 3]\nprint(team)\nObservation: done"
        assert extract_program(text) == "team = [2, 3]\nprint(team)"

    def test_action_block_with_repl_tag(self):
        text = "Action: Python_REPL\nprint(sorted(ids))\nFinal Answer: [2, 3]"
        assert extract_program(text) == "print(sorted(ids))"

    def test_raw_text_fallback(self):
        assert extract_program("  print([4, 5])  ") == "print([4, 5])"


# ---------------------------------------------------------------------------
# Properties.
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=7, unique=True))
def test_property_bracket_lists_round_trip(ids):
    team = parse_team_selection(str(ids), None, len(ids))
    assert team == frozenset(ids)


@given(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=7, unique=True))
def test_property_enumerations_round_trip(ids):
    text = "players " + ", ".join(str(p) for p in ids)
    assert extract_player_ids(text) == ids


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200))
def test_property_extractors_never_crash(text):
    extract_player_ids(text, speaker=3)
    extract_json_objects(text)
    extract_program(text)
    try:
        parse_vote(text)
    except ParseError:
        pass
    try:
        parse_team_selection(text, 3, 2)
    except ParseError:
        pass


@given(
    st.text(alphabet="abc {}[]\"',:123", max_size=80),
    st.sampled_from(["approve", "reject"]),
)
def test_property_vote_objects_survive_noise(noise, vote):
    # A well-formed vote object is recovered even with leading noise, as long
    # as the noise itself contains no opening brace that starts a candidate.
    if "{" in noise:
        return
    reasoning, approve = parse_vote(noise + f'{{"reasoning": "r", "vote": "{vote}"}}')
    assert reasoning == "r"
    assert approve is (vote == "approve")


def brace_scan_json_objects(text: str) -> list[dict]:
    """Reference: balanced top-level brace spans, each passed to json.loads."""
    objects: list[dict] = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] != "{":
            i += 1
            continue
        depth = 0
        in_string = False
        escaped = False
        for j in range(i, n):
            ch = text[j]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    try:
                        parsed = json.loads(text[i : j + 1])
                    except json.JSONDecodeError:
                        break
                    if isinstance(parsed, dict):
                        objects.append(parsed)
                    i = j
                    break
        i += 1
    return objects


@given(st.text(alphabet='{}":,\\ a1[]', max_size=120))
def test_property_json_objects_match_the_brace_scan(text):
    assert extract_json_objects(text) == brace_scan_json_objects(text)


def every_brace_json_objects(text: str) -> list[dict]:
    """Reference: the object that starts at each ``{``, trying every one."""
    objects: list[dict] = []
    i = text.find("{")
    while i >= 0:
        try:
            obj, end = json.JSONDecoder().raw_decode(text, i)
        except (json.JSONDecodeError, RecursionError):
            end = i + 1
        else:
            objects.append(obj)
        i = text.find("{", end)
    return objects


@given(st.text(alphabet='{}":,\\ \t\n\ra1[]', max_size=120))
def test_property_json_objects_match_trying_every_brace(text):
    assert extract_json_objects(text) == every_brace_json_objects(text)
