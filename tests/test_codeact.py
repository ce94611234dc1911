import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

import avalonplay
from avalonplay import codeact
from avalonplay.agents import AgentSpec
from avalonplay.codeact import (
    CodeActError,
    DebugLoopConfig,
    ExecStatus,
    ExecutionResult,
    build_code_prompt,
    execute_sandboxed,
    parse_final_team,
    self_debug_loop,
)
from avalonplay.game import GameConfig
from avalonplay.knowledge import PrivateFact, FactKind
from avalonplay.llm import MockLLM, MockRule
from avalonplay.memory import LeaderMemory, PublicFact
from avalonplay.parsing import ParseError, WrongSize
from avalonplay.records import load_record
from avalonplay.runner import TournamentConfig, run_tournament

FAST = DebugLoopConfig(max_attempts=3, per_run_timeout=10.0, output_cap=4096)


def result_with(stdout, status=ExecStatus.OK):
    return ExecutionResult(status=status, stdout=stdout, stderr="", exit_code=0)


class TestBuildCodePrompt:
    def test_all_placeholders_filled(self):
        lm = LeaderMemory(
            private_facts=(
                PrivateFact(FactKind.EVIL_SET, frozenset({5, 6, 7}), "Players 5, 6, and 7 belong to the evil side."),
            ),
            public_facts=(PublicFact(1, frozenset({1, 2}), True, None),),
        )
        prompt = build_code_prompt(lm, 3)
        assert prompt.team_n == 3
        assert "Players 5, 6, and 7 belong to the evil side." in prompt.text
        assert "In the initial round, players 1 and 2 were selected" in prompt.text
        assert "selects 3 players" in prompt.text
        assert "Please print the final 3 players." in prompt.text
        assert "{" not in prompt.text.replace("{1, 2}", "")  # no unfilled slots

    def test_empty_sections_get_placeholders(self):
        prompt = build_code_prompt(LeaderMemory(private_facts=(), public_facts=()), 2)
        assert "(no private information)" in prompt.text
        assert "(no quest results yet)" in prompt.text


class TestConfigValidation:
    def test_rejects_bad_limits(self):
        with pytest.raises(CodeActError):
            DebugLoopConfig(max_attempts=0)
        with pytest.raises(CodeActError):
            DebugLoopConfig(per_run_timeout=0)
        with pytest.raises(CodeActError):
            DebugLoopConfig(output_cap=0)


class TestSandbox:
    def test_ok_program(self):
        result = execute_sandboxed("print([1, 2])", FAST)
        assert result.status is ExecStatus.OK
        assert result.stdout == "[1, 2]\n"
        assert result.exit_code == 0

    def test_crash_is_error_with_traceback(self):
        result = execute_sandboxed("raise ValueError('boom')", FAST)
        assert result.status is ExecStatus.ERROR
        assert result.exit_code != 0
        assert "ValueError: boom" in result.stderr

    def test_network_is_unreachable(self):
        probe = (
            "import socket\n"
            "try:\n"
            "    socket.create_connection(('1.1.1.1', 80), timeout=3)\n"
            "    print('CONNECTED')\n"
            "except Exception as exc:\n"
            "    print('BLOCKED', type(exc).__name__)\n"
        )
        result = execute_sandboxed(probe, FAST)
        assert "CONNECTED" not in result.stdout
        assert "BLOCKED" in result.stdout

    def test_infinite_loop_is_killed_promptly(self):
        limits = DebugLoopConfig(max_attempts=1, per_run_timeout=1.0, output_cap=4096)
        t0 = time.monotonic()
        result = execute_sandboxed("while True:\n    pass", limits)
        elapsed = time.monotonic() - t0
        assert result.status is ExecStatus.TIMEOUT
        assert elapsed <= limits.per_run_timeout + 1.0

    def test_output_is_capped(self):
        limits = DebugLoopConfig(max_attempts=1, per_run_timeout=10.0, output_cap=1024)
        result = execute_sandboxed("print('x' * 100000)", limits)
        assert result.status is ExecStatus.OUTPUT_TRUNCATED
        assert result.stdout_truncated
        assert len(result.stdout.encode()) <= 1024

    def test_writes_outside_scratch_blocked_but_scratch_allowed(self):
        program = (
            "import os\n"
            "with open('inside.txt', 'w') as fh:\n"
            "    fh.write('ok')\n"
            "print('WROTE_INSIDE')\n"
            "try:\n"
            "    open('/tmp/codeact-escape-attempt', 'w')\n"
            "    print('WROTE_OUTSIDE')\n"
            "except PermissionError:\n"
            "    print('DENIED_OUTSIDE')\n"
        )
        result = execute_sandboxed(program, FAST)
        assert "WROTE_INSIDE" in result.stdout
        assert "WROTE_OUTSIDE" not in result.stdout
        assert "DENIED_OUTSIDE" in result.stdout

    def test_process_creation_blocked(self):
        program = (
            "import subprocess\n"
            "try:\n"
            "    subprocess.run(['/bin/ls'])\n"
            "    print('SPAWNED')\n"
            "except PermissionError:\n"
            "    print('DENIED')\n"
        )
        result = execute_sandboxed(program, FAST)
        assert "SPAWNED" not in result.stdout
        assert "DENIED" in result.stdout

    def test_programs_get_an_empty_stdin(self):
        # Run the sandbox from a child whose own stdin holds data: none of it
        # may reach the program, and input() must end at once on EOF.
        harness = (
            "import json\n"
            "from avalonplay.codeact import DebugLoopConfig, execute_sandboxed\n"
            "limits = DebugLoopConfig(max_attempts=1, per_run_timeout=5.0, output_cap=4096)\n"
            "programs = ('input()', 'import sys; print(repr(sys.stdin.read()))')\n"
            "results = [execute_sandboxed(p, limits) for p in programs]\n"
            "print(json.dumps([[r.status.value, r.stdout, r.stderr] for r in results]))\n"
        )
        src = str(Path(avalonplay.__file__).parents[1])
        child = subprocess.run(
            [sys.executable, "-c", harness],
            input="harness-input\n",
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 0, child.stderr
        (prompt_status, _, prompt_err), (read_status, read_out, _) = json.loads(child.stdout)
        assert prompt_status == ExecStatus.ERROR.value
        assert "EOFError" in prompt_err
        assert read_status == ExecStatus.OK.value
        assert read_out == "''\n"

    def test_scratch_directory_is_cleaned_up(self, tmp_path):
        result = execute_sandboxed("import os; print(os.getcwd())", FAST)
        scratch = result.stdout.strip()
        import os

        assert not os.path.exists(scratch)


class TestSandboxOutputIsDeterministic:
    """What a program prints depends on the program alone: no scratch path,
    no harness frame and no timing reach the record or the revise prompt."""

    def test_crash_traceback_repeats_and_starts_at_the_program(self):
        program = "def f():\n    return 1 / 0\n\nf()\n"
        first, second = (execute_sandboxed(program, FAST) for _ in range(2))
        assert first.status is ExecStatus.ERROR
        assert first.stderr == second.stderr
        assert first.stderr.startswith(
            'Traceback (most recent call last):\n  File "program.py", line 4, in <module>\n'
        )
        assert 'File "program.py", line 2, in f' in first.stderr
        assert first.stderr.count('File "') == 2  # no bootstrap frame
        assert "codeact-" not in first.stderr and tempfile.gettempdir() not in first.stderr

    def test_syntax_error_names_the_program(self):
        result = execute_sandboxed("x = (\n", FAST)
        assert result.status is ExecStatus.ERROR
        assert result.stderr.startswith('  File "program.py", line 1\n')
        assert result.stderr.endswith("SyntaxError: '(' was never closed\n")

    def test_guard_denial_traceback_repeats(self):
        program = "open('/outside.txt', 'w')\n"
        first, second = (execute_sandboxed(program, FAST) for _ in range(2))
        assert first.status is ExecStatus.ERROR
        assert first.stderr == second.stderr
        assert 'File "program.py", line 1, in <module>' in first.stderr
        assert first.stderr.endswith(
            "PermissionError: writes outside the sandbox scratch directory are disabled\n"
        )
        assert "codeact-" not in first.stderr

    def test_revise_prompt_after_a_crash_repeats(self):
        def revise_request():
            llm = MockLLM(
                [
                    MockRule("```python\nraise RuntimeError('no')\n```", phase="code_generation", pattern="selects 2"),
                    MockRule("```python\nprint([4, 5])\n```", phase="code_generation", pattern="execution error"),
                ]
            )
            prompt = build_code_prompt(LeaderMemory((), ()), 2)
            outcome = self_debug_loop(llm, prompt, FAST, lambda: frozenset({6, 7}))
            return outcome.exchanges[1]["request"]

        first = revise_request()
        assert 'File "program.py", line 1, in <module>' in first[2]["content"]
        assert first == revise_request()

    def test_program_runs_as_main_under_a_fixed_name(self):
        result = execute_sandboxed("import sys\nprint(__name__, __file__, sys.argv[0])", FAST)
        assert result.stdout == "__main__ program.py program.py\n"

    def test_scratch_holds_only_the_program_and_env_only_three_names(self):
        result = execute_sandboxed("import os\nprint(os.listdir('.'))\nprint(sorted(os.environ))", FAST)
        listing, names = result.stdout.splitlines()
        assert listing == "['program.py']"
        # The interpreter itself may add LC_CTYPE when it coerces a C locale.
        assert set(eval(names)) - {"LC_CTYPE"} == {"HOME", "PATH", "TMPDIR"}

    def test_runs_without_starting_a_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("execute_sandboxed started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert execute_sandboxed("print('x' * 100000)", FAST).status is ExecStatus.OUTPUT_TRUNCATED
        assert execute_sandboxed("print([1, 2])", FAST).stdout == "[1, 2]\n"

    def test_result_carries_no_wall_time(self):
        d = execute_sandboxed("print([1, 2])", FAST).to_dict()
        assert list(d) == ["status", "stdout", "stderr", "exit_code", "stdout_truncated", "stderr_truncated"]


class TestProgramEnding:
    """A program ends as `python program.py` would: same exit status, and
    every output its exit path makes (buffers, atexit handlers, threads,
    module-level finalizers) reaches the pipes."""

    @pytest.mark.parametrize(
        "program, status, exit_code, stdout, stderr_tail",
        [
            ("raise KeyboardInterrupt", ExecStatus.ERROR, -signal.SIGINT, "",
             '  File "program.py", line 1, in <module>\n    raise KeyboardInterrupt\nKeyboardInterrupt\n'),
            ("import sys\nsys.exit('bye')", ExecStatus.ERROR, 1, "", "bye\n"),
            ("import sys\nsys.exit(3)", ExecStatus.ERROR, 3, "", ""),
            ("raise SystemExit(None)", ExecStatus.OK, 0, "", ""),
            ("import sys\nsys.stdout.write('no newline')", ExecStatus.OK, 0, "no newline", ""),
            ("import atexit\natexit.register(lambda: print('at exit'))", ExecStatus.OK, 0, "at exit\n", ""),
            (
                "import threading, time\n"
                "def late():\n"
                "    time.sleep(0.05)\n"
                "    print('thread done')\n"
                "threading.Thread(target=late).start()\n",
                ExecStatus.OK, 0, "thread done\n", "",
            ),
            ("class D:\n    def __del__(self):\n        print('del')\nd = D()\n", ExecStatus.OK, 0, "del\n", ""),
            (
                "import sys\nclass D:\n    def __del__(self):\n        sys.stdout.write('del\\n')\nd = D()\n",
                ExecStatus.OK, 0, "del\n", "",
            ),
            ("import os\nos._exit(5)", ExecStatus.ERROR, 5, "", ""),
            ("import sys\nsys.stdout.close()", ExecStatus.OK, 0, "", ""),
            ("import io, sys\nprint('kept')\nsys.stdout = io.StringIO()\n", ExecStatus.OK, 0, "kept\n", ""),
        ],
        ids=[
            "keyboard-interrupt", "exit-with-message", "exit-with-int", "exit-with-none", "unflushed-write",
            "atexit-handler", "non-daemon-thread", "module-global-del", "del-reads-a-global", "os-exit",
            "closed-stdout", "rebound-stdout",
        ],
    )
    def test_exit_path(self, program, status, exit_code, stdout, stderr_tail):
        result = execute_sandboxed(program, FAST)
        assert (result.status, result.exit_code, result.stdout) == (status, exit_code, stdout)
        assert result.stderr.endswith(stderr_tail)
        if not stderr_tail:
            assert result.stderr == ""


class TestParseFinalTeam:
    def test_bracketed_last_line(self):
        assert parse_final_team(result_with("thinking...\n[2, 3, 6, 7]\n"), 4) == frozenset(
            {2, 3, 6, 7}
        )

    def test_final_answer_sentence(self):
        out = "scores computed\nFinal Answer: players 1 and 4 look safest\n(done)"
        assert parse_final_team(result_with(out), 2) == frozenset({1, 4})

    def test_last_bracketed_line_preferred(self):
        out = "Final Answer: [1, 2, 3]\n[4, 5, 6]"
        assert parse_final_team(result_with(out), 3) == frozenset({4, 5, 6})

    def test_empty_output(self):
        with pytest.raises(ParseError, match="printed nothing"):
            parse_final_team(result_with(""), 2)

    def test_prose_only_output(self):
        with pytest.raises(ParseError, match="no bracketed list"):
            parse_final_team(result_with("the best team is two and three\n"), 2)

    def test_wrong_size_carries_ids(self):
        with pytest.raises(WrongSize) as err:
            parse_final_team(result_with("[2, 3, 4, 6, 7]"), 4)
        assert err.value.ids == [2, 3, 4, 6, 7]


class TestSelfDebugLoop:
    def fallback(self):
        return frozenset({9, 9})  # sentinel; tests assert whether it was used

    def test_first_attempt_success(self):
        llm = MockLLM([MockRule("```python\nprint([1, 2])\n```", phase="code_generation")])
        prompt = build_code_prompt(LeaderMemory((), ()), 2)
        outcome = self_debug_loop(llm, prompt, FAST, lambda: frozenset({6, 7}))
        assert outcome.team == frozenset({1, 2})
        assert outcome.attempts_used == 1
        assert not outcome.fell_back
        assert outcome.attempts[0].issue is None
        assert len(outcome.exchanges) == 1
        assert outcome.exchanges[0]["tag"] == "code_generation"
        assert list(outcome.exchanges[0]) == ["request", "response", "tag", "temperature"]

    def test_revision_after_bad_output(self):
        llm = MockLLM(
            [
                MockRule("```python\nprint([1, 2, 3])\n```", phase="code_generation", pattern="selects 2 players"),
                MockRule("```python\nprint([1, 2])\n```", phase="code_generation", pattern="did not produce a usable answer"),
            ]
        )
        prompt = build_code_prompt(LeaderMemory((), ()), 2)
        outcome = self_debug_loop(llm, prompt, FAST, lambda: frozenset({6, 7}))
        assert outcome.team == frozenset({1, 2})
        assert outcome.attempts_used == 2
        assert not outcome.fell_back
        first = outcome.attempts[0]
        assert first.issue.startswith("unusable output")
        assert first.parsed_ids == [1, 2, 3]
        # The revision request carries the failing program and its output.
        revision_request = outcome.exchanges[1]["request"]
        assert revision_request[1]["role"] == "assistant"
        assert "print([1, 2, 3])" in revision_request[2]["content"]
        assert "[1, 2, 3]" in revision_request[2]["content"]

    def test_revision_after_crash(self):
        llm = MockLLM(
            [
                MockRule("```python\nraise RuntimeError('no')\n```", phase="code_generation", pattern="selects 2"),
                MockRule("```python\nprint([4, 5])\n```", phase="code_generation", pattern="execution error"),
            ]
        )
        prompt = build_code_prompt(LeaderMemory((), ()), 2)
        outcome = self_debug_loop(llm, prompt, FAST, lambda: frozenset({6, 7}))
        assert outcome.team == frozenset({4, 5})
        assert outcome.attempts[0].issue == "execution error"

    def test_exhaustion_falls_back(self):
        llm = MockLLM([MockRule("no code here at all", phase="code_generation", max_uses=None)])
        limits = DebugLoopConfig(max_attempts=2, per_run_timeout=5.0, output_cap=4096)
        prompt = build_code_prompt(LeaderMemory((), ()), 2)
        outcome = self_debug_loop(llm, prompt, limits, lambda: frozenset({6, 7}))
        assert outcome.fell_back
        assert outcome.team == frozenset({6, 7})
        assert outcome.attempts_used == 2
        assert len(outcome.attempts) == 2
        assert all(a.issue for a in outcome.attempts)

    def test_attempts_serialize(self):
        llm = MockLLM([MockRule("```python\nprint([1, 2])\n```", phase="code_generation")])
        prompt = build_code_prompt(LeaderMemory((), ()), 2)
        outcome = self_debug_loop(llm, prompt, FAST, lambda: frozenset({6, 7}))
        d = outcome.attempts[0].to_dict()
        assert d["program"] == "print([1, 2])"
        assert d["result"]["status"] == "ok"
        assert d["issue"] is None
        assert d["parsed_ids"] == []


# A program that prints the pid of its fork server: its parent is the waiter,
# and the waiter's parent is the server.
PRINT_SERVER_PID = "import os\nprint(open(f'/proc/{os.getppid()}/stat').read().split()[3])\n"


def run_harness(code: str) -> str:
    """Run `code` in a fresh interpreter that imports the package; its stdout."""
    src = str(Path(avalonplay.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def running(pid: int) -> bool:
    """Whether `pid` is a live process (a zombie has ended)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# Source text for harnesses and programs: `others(root, known, n)` waits up
# to 30 s until at least `n` live processes below `root` are not in `known`,
# and returns every live process below `root` that is not in `known`.
DESCENDANTS = """
import os, time
def descendants(root):
    children = {}
    for entry in filter(str.isdigit, os.listdir('/proc')):
        try:
            stat = open(f'/proc/{entry}/stat').read().rsplit(')', 1)[1].split()
        except OSError:
            continue
        if stat[0] != 'Z':
            children.setdefault(int(stat[1]), []).append(int(entry))
    found, todo = [], [root]
    while todo:
        below = children.get(todo.pop(), [])
        found += below
        todo += below
    return found
def others(root, known, n):
    deadline = time.monotonic() + 30
    while len(found := [pid for pid in descendants(root) if pid not in known]) < n and time.monotonic() < deadline:
        time.sleep(0.01)
    return found
"""


def ends_soon(pid: int, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class TestForkServer:
    def test_concurrent_runs_each_get_their_own_output(self):
        barrier = threading.Barrier(8)

        def run(i):
            barrier.wait(timeout=60)
            return execute_sandboxed(f"import time\ntime.sleep(0.1)\nprint('run {i}')", FAST)

        results = [None] * 8
        threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, run(i))) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [(r.status, r.stdout, r.stderr) for r in results] == [
            (ExecStatus.OK, f"run {i}\n", "") for i in range(8)
        ]

    def test_a_forked_child_starts_its_own_server(self):
        harness = (
            "import json, os\n"
            "from avalonplay.codeact import DebugLoopConfig, execute_sandboxed\n"
            "limits = DebugLoopConfig(max_attempts=1, per_run_timeout=5.0, output_cap=4096)\n"
            f"server = lambda: int(execute_sandboxed({PRINT_SERVER_PID!r}, limits).stdout)\n"
            "before = server()\n"
            "r, w = os.pipe()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os.write(w, b'%d' % server())\n"
            "    os._exit(0)\n"
            "os.close(w)\n"
            "child = int(os.read(r, 64))\n"
            "os.waitpid(pid, 0)\n"
            "print(json.dumps([before, child, server()]))\n"
        )
        before, child, after = json.loads(run_harness(harness))
        assert before == after != child
        # The child's server ends with the child that started it.
        assert ends_soon(child)

    def test_harness_exit_leaves_no_process_running(self):
        # The harness prints the program, its waiter and the server, then
        # every other process below the server: the idle waiter and program.
        harness = DESCENDANTS + (
            "from avalonplay.codeact import DebugLoopConfig, execute_sandboxed\n"
            "limits = DebugLoopConfig(max_attempts=1, per_run_timeout=5.0, output_cap=4096)\n"
            "program = \"import os\\nprint(os.getpid(), os.getppid(), open(f'/proc/{os.getppid()}/stat').read().split()[3])\"\n"
            "ran = [int(pid) for pid in execute_sandboxed(program, limits).stdout.split()]\n"
            "print(*ran, *others(ran[2], ran, 2))\n"
        )
        pids = [int(pid) for pid in run_harness(harness).split()]
        assert len(pids) >= 5  # program, waiter, server, idle waiter, idle program
        assert all(ends_soon(pid) for pid in pids)

    def test_a_killed_harness_leaves_no_process_running(self):
        # While a program sleeps, the harness prints the server and every
        # process below it (the sleeping program and its waiter, the idle
        # waiter and program), and is then killed without running any exit hook.
        harness = DESCENDANTS + (
            "import threading\n"
            "from avalonplay.codeact import DebugLoopConfig, execute_sandboxed\n"
            "limits = DebugLoopConfig(max_attempts=1, per_run_timeout=60.0, output_cap=4096)\n"
            f"server = int(execute_sandboxed({PRINT_SERVER_PID!r}, limits).stdout)\n"
            "threading.Thread(target=execute_sandboxed, args=('import time; time.sleep(60)', limits), daemon=True).start()\n"
            "print(server, *others(server, (), 4), flush=True)\n"
            "time.sleep(60)\n"
        )
        src = str(Path(avalonplay.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", harness], stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": src}
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stdout.close()
        assert len(pids) >= 5  # server, two waiters, two programs
        assert all(ends_soon(pid) for pid in pids)

    def test_a_killed_server_is_replaced(self):
        server = int(execute_sandboxed(PRINT_SERVER_PID, FAST).stdout)
        os.kill(server, signal.SIGKILL)
        assert ends_soon(server)
        assert int(execute_sandboxed(PRINT_SERVER_PID, FAST).stdout) != server

    def test_a_parallel_tournament_leaves_no_process_running(self, tmp_path):
        # Each program reports, on stderr, the pool worker that started its
        # fork server, the server, its waiter, itself, and every other
        # process below the server, which includes the idle waiter and program.
        program = DESCENDANTS + (
            "import sys\n"
            "parent = lambda pid: int(open(f'/proc/{pid}/stat').read().rsplit(')', 1)[1].split()[1])\n"
            "waiter = os.getppid()\n"
            "server = parent(waiter)\n"
            "print(parent(server), server, waiter, os.getpid(), *others(server, (waiter, os.getpid()), 2), file=sys.stderr)\n"
            "print(list(range(1, {n} + 1)))\n"
        )
        rules = [
            MockRule(f"```python\n{program.replace('{n}', str(n))}```", phase="code_generation",
                     pattern=f"selects {n} players", max_uses=None)
            for n in (2, 3, 4)
        ] + [
            MockRule("Nothing to add.", phase="discussion", max_uses=None),
            MockRule('{"reasoning": "Fine.", "vote": "approve"}', phase="team_vote", max_uses=None),
            MockRule('{"reasoning": "Go.", "vote": "approve"}', phase="quest_vote", max_uses=None),
        ]
        config = TournamentConfig(
            n_games=4,
            base_seed=3,
            just_spec=AgentSpec("llm", strategy="codeact"),
            evil_spec=AgentSpec("scripted_evil"),
            game=GameConfig(play_all_rounds=True),
            parallelism=2,
            record_dir=str(tmp_path),
        )
        assert run_tournament(config, client=MockLLM(rules)).report.n_aborted == 0
        reports = [
            attempt["result"]["stderr"].split()
            for path in sorted(tmp_path.glob("*.jsonl"))
            for event in load_record(path).events
            for attempt in event.payload.get("codeact", {}).get("attempts", [])
        ]
        assert reports and all(len(pids) >= 6 for pids in reports)
        servers: dict[str, set[str]] = {}
        for worker, server, *_ in reports:
            servers.setdefault(worker, set()).add(server)
        # Every worker started one server of its own.
        assert str(os.getpid()) not in servers
        assert all(len(started) == 1 for started in servers.values())
        assert len(set.union(*servers.values())) == len(servers)
        assert all(ends_soon(int(pid)) for pids in reports for pid in pids)

    def test_each_program_gets_its_own_network_namespace(self):
        if not codeact._probe_namespace_support():
            pytest.skip("unprivileged user and network namespaces are not available")
        program = "import os\nprint(os.readlink('/proc/self/ns/net'))"
        first, second = (execute_sandboxed(program, FAST).stdout for _ in range(2))
        assert first.startswith("net:[")
        assert len({first, second, os.readlink("/proc/self/ns/net") + "\n"}) == 3

    def test_program_sees_the_cpu_limit(self):
        # Back to back, each run sees the limit of its own request, not one
        # fixed when its process was forked ahead of it.
        program = "import resource\nprint(resource.getrlimit(resource.RLIMIT_CPU))"
        for limits in (FAST, DebugLoopConfig(max_attempts=1, per_run_timeout=3.0, output_cap=4096), FAST):
            cpu = int(limits.per_run_timeout) + 2
            assert execute_sandboxed(program, limits).stdout == f"({cpu}, {cpu})\n"

    def test_a_program_that_cannot_enter_its_namespaces_never_runs(self):
        if not codeact._probe_namespace_support():
            pytest.skip("unprivileged user and network namespaces are not available")
        # The server's probe succeeds, but each pre-forked program process's
        # own unshare() fails (EINVAL).
        harness = (
            "import json\n"
            "from avalonplay import codeact\n"
            "entry = 'if unshare and _libc.unshare(_NAMESPACES) != 0:'\n"
            "assert codeact._SERVER.count(entry) == 1\n"
            "codeact._SERVER = codeact._SERVER.replace(entry, 'if unshare and _libc.unshare(-1) != 0:')\n"
            "limits = codeact.DebugLoopConfig(max_attempts=1, per_run_timeout=5.0, output_cap=4096)\n"
            "assert codeact._probe_namespace_support()\n"
            "results = [codeact.execute_sandboxed(\"print('RAN')\", limits) for _ in range(2)]\n"
            "print(json.dumps([[r.status.value, r.exit_code, r.stdout, r.stderr] for r in results]))\n"
        )
        for status, exit_code, stdout, stderr in json.loads(run_harness(harness)):
            assert (status, exit_code, stdout) == (ExecStatus.ERROR.value, 1, "")
            assert stderr.endswith("OSError: [Errno 22] unshare(CLONE_NEWUSER|CLONE_NEWNET) failed\n")

    @pytest.mark.parametrize(
        "program, error",
        [
            ("import pytest", "ModuleNotFoundError: No module named 'pytest'"),
            ("exit(0)", "NameError: name 'exit' is not defined"),
        ],
    )
    def test_programs_get_the_standard_library_only(self, program, error):
        result = execute_sandboxed(program, FAST)
        assert result.status is ExecStatus.ERROR
        assert result.stderr.endswith(error + "\n")
