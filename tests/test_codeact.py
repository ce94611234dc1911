import json
import os
import signal
import socket
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
from avalonplay.memory import PublicFact
from avalonplay.parsing import ParseError, WrongSize
from avalonplay.records import load_record
from avalonplay.runner import TournamentConfig, run_tournament

FAST = DebugLoopConfig(max_attempts=3, per_run_timeout=10.0, output_cap=4096)


def result_with(stdout, status=ExecStatus.OK):
    return ExecutionResult(status=status, stdout=stdout, stderr="", exit_code=0)


class TestBuildCodePrompt:
    def test_all_placeholders_filled(self):
        prompt = build_code_prompt(
            (PrivateFact(FactKind.EVIL_SET, frozenset({5, 6, 7}), "Players 5, 6, and 7 belong to the evil side."),),
            (PublicFact(1, frozenset({1, 2}), True, None),),
            3,
        )
        assert "Players 5, 6, and 7 belong to the evil side." in prompt
        assert "In the initial round, players 1 and 2 were selected" in prompt
        assert "selects 3 players" in prompt
        assert "Please print the final 3 players." in prompt
        assert "{" not in prompt.replace("{1, 2}", "")  # no unfilled slots

    def test_empty_sections_get_placeholders(self):
        prompt = build_code_prompt((), (), 2)
        assert "(no private information)" in prompt
        assert "(no quest results yet)" in prompt


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

    def test_mode_and_owner_changes_outside_scratch_blocked(self):
        # A program that took the write bit off the base directory, or a
        # sibling's scratch directory, would make later runs fail.
        program = (
            "import os\n"
            "os.chmod('program.py', 0o600)\n"
            "changes = (\n"
            "    lambda: os.chmod('..', 0o500),\n"
            "    lambda: os.chmod(os.open('..', os.O_RDONLY), 0o500),\n"
            "    lambda: os.chown('..', -1, -1),\n"
            ")\n"
            "for change in changes:\n"
            "    try:\n"
            "        change()\n"
            "        print('CHANGED')\n"
            "    except PermissionError:\n"
            "        print('DENIED')\n"
        )
        result = execute_sandboxed(program, FAST)
        assert (result.status, result.stdout) == (ExecStatus.OK, "DENIED\nDENIED\nDENIED\n"), result.stderr
        # The process forked for the next run made its directory while the
        # program ran; the one after makes its own afterwards.
        for _ in range(2):
            assert execute_sandboxed("print([1, 2])", FAST).stdout == "[1, 2]\n"

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

    def test_removing_what_a_program_left_is_not_charged_to_its_timeout(self):
        # The program leaves many files and ends shortly before its deadline.
        # The server reports its wait status before it removes them, and the
        # harness waits for that removal outside the deadline.
        limits = DebugLoopConfig(max_attempts=1, per_run_timeout=4.0, output_cap=4096)
        end = time.monotonic() + limits.per_run_timeout - 0.05
        program = (
            "import os, time\n"
            "for i in range(20000):\n"
            "    open(f'f{i}', 'w').close()\n"
            f"time.sleep(max(0.0, {end!r} - time.monotonic()))\n"
            "print(os.getcwd())\n"
        )
        result = execute_sandboxed(program, limits)
        assert result.status is ExecStatus.OK, result.stderr
        assert not os.path.exists(result.stdout.strip())

    def test_a_program_larger_than_the_socket_buffer_runs(self):
        a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with a, b:
            buffer = a.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        program = "# " + "x" * (1 << 20) + "\nimport os\nprint(os.path.getsize('program.py'))\n"
        assert len(program) > max(buffer, 1 << 20)
        result = execute_sandboxed(program, FAST)
        assert (result.status, result.stdout) == (ExecStatus.OK, f"{len(program)}\n")

    @pytest.mark.parametrize(
        "program, printed",
        [
            # Line ends, in a string literal too, come out as a text-mode read gives them.
            ('print(repr("""a\r\nb\rc"""))\r\nprint(2)\r\n', "'a\\nb\\nc'\n2\n"),
            # The text is decoded as UTF-8, whatever its coding cookie says.
            ("# -*- coding: latin-1 -*-\nprint('é', len('é'))\n", "é 1\n"),
        ],
        ids=["crlf", "latin-1-cookie"],
    )
    def test_program_py_holds_the_utf8_text(self, program, printed):
        reads_itself = program + "print(open('program.py', 'rb').read().hex())\n"
        result = execute_sandboxed(reads_itself, FAST)
        assert result.status is ExecStatus.OK, result.stderr
        assert result.stdout == printed + reads_itself.encode("utf-8").hex() + "\n"

    def test_each_run_gets_its_own_private_scratch_directory(self):
        program = "import os, stat\nprint(os.getcwd(), oct(stat.S_IMODE(os.stat('.').st_mode)))"
        (first, first_mode), (second, second_mode) = (
            execute_sandboxed(program, FAST).stdout.split() for _ in range(2)
        )
        assert first != second
        assert first_mode == second_mode == "0o700"

    def test_a_symlinked_tmpdir_still_lets_a_program_write_in_its_directory(self, tmp_path):
        # The guard compares real paths, so the scratch directory's path
        # through the symlink is inside it too.
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real")
        harness = (
            "import json\n"
            "from avalonplay.codeact import DebugLoopConfig, execute_sandboxed\n"
            "limits = DebugLoopConfig(max_attempts=1, per_run_timeout=5.0, output_cap=4096)\n"
            "program = \"import os\\nopen('inside.txt', 'w').write('ok')\\n\"\n"
            "program += \"print(os.environ['TMPDIR'], sorted(os.listdir()))\"\n"
            "result = execute_sandboxed(program, limits)\n"
            "print(json.dumps([result.status.value, result.stdout, result.stderr]))\n"
        )
        status, stdout, stderr = json.loads(run_harness(harness, TMPDIR=str(tmp_path / "link")))
        assert status == ExecStatus.OK.value, stderr
        scratch, listing = stdout.split(" ", 1)
        assert scratch.startswith(str(tmp_path / "link") + os.sep)
        assert listing == "['inside.txt', 'program.py']\n"
        assert list((tmp_path / "real").iterdir()) == []


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
            outcome = self_debug_loop(llm, build_code_prompt((), (), 2), 2, FAST)
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
    def test_first_attempt_success(self):
        llm = MockLLM([MockRule("```python\nprint([1, 2])\n```", phase="code_generation")])
        outcome = self_debug_loop(llm, build_code_prompt((), (), 2), 2, FAST)
        assert outcome.team == frozenset({1, 2})
        assert outcome.attempts_used == 1
        assert not outcome.fell_back
        assert outcome.attempts[0]["issue"] is None
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
        outcome = self_debug_loop(llm, build_code_prompt((), (), 2), 2, FAST)
        assert outcome.team == frozenset({1, 2})
        assert outcome.attempts_used == 2
        assert not outcome.fell_back
        first = outcome.attempts[0]
        assert first["issue"].startswith("unusable output")
        assert first["parsed_ids"] == [1, 2, 3]
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
        outcome = self_debug_loop(llm, build_code_prompt((), (), 2), 2, FAST)
        assert outcome.team == frozenset({4, 5})
        assert outcome.attempts[0]["issue"] == "execution error"

    def test_exhaustion_falls_back(self):
        llm = MockLLM([MockRule("no code here at all", phase="code_generation", max_uses=None)])
        limits = DebugLoopConfig(max_attempts=2, per_run_timeout=5.0, output_cap=4096)
        outcome = self_debug_loop(llm, build_code_prompt((), (), 2), 2, limits)
        assert outcome.fell_back
        # The loop picks no team; the agent falls back (see test_agents).
        assert outcome.team is None
        assert outcome.attempts_used == 2
        assert len(outcome.attempts) == 2
        assert all(a["issue"] for a in outcome.attempts)

    def test_attempts_serialize(self):
        llm = MockLLM([MockRule("```python\nprint([1, 2])\n```", phase="code_generation")])
        outcome = self_debug_loop(llm, build_code_prompt((), (), 2), 2, FAST)
        d = outcome.attempts[0]
        assert list(d) == ["response", "program", "result", "issue", "parsed_ids"]
        assert d["program"] == "print([1, 2])"
        assert d["result"]["status"] == "ok"
        assert d["issue"] is None
        assert d["parsed_ids"] == []


# A program that prints the pid of its fork server, which is its parent.
PRINT_SERVER_PID = "import os\nprint(os.getppid())\n"


def run_harness(code: str, **env: str) -> str:
    """Run `code` in a fresh interpreter that imports the package, with `env`
    added to its environment; its stdout."""
    src = str(Path(avalonplay.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src, **env},
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
            with open(f'/proc/{entry}/stat') as fh:
                stat = fh.read().rsplit(')', 1)[1].split()
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


def killed_harness_pids(start_server: str, tmpdir: Path) -> list[int]:
    """Run a harness, with `tmpdir` as its TMPDIR, whose first run,
    `start_server`, sets `server` to its fork server's pid. While a second
    program sleeps, the harness prints the server and every process below it
    (the sleeping program and the idle program), and is then killed without
    running any exit hook. Returns the printed pids."""
    harness = DESCENDANTS + (
        "import threading\n"
        "from avalonplay.codeact import DebugLoopConfig, execute_sandboxed\n"
        "limits = DebugLoopConfig(max_attempts=1, per_run_timeout=60.0, output_cap=4096)\n"
        + start_server
        + "threading.Thread(target=execute_sandboxed, args=('import time; time.sleep(60)', limits), daemon=True).start()\n"
        "print(server, *others(server, (), 2), flush=True)\n"
        "time.sleep(60)\n"
    )
    src = str(Path(avalonplay.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", harness],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmpdir)},
    )
    try:
        return [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()


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

    def test_harness_exit_leaves_no_process_running(self, tmp_path):
        # The harness prints the program and the server, then every other
        # process below the server: the idle program.
        harness = DESCENDANTS + (
            "from avalonplay.codeact import DebugLoopConfig, execute_sandboxed\n"
            "limits = DebugLoopConfig(max_attempts=1, per_run_timeout=5.0, output_cap=4096)\n"
            "program = \"import os\\nprint(os.getpid(), os.getppid())\"\n"
            "ran = [int(pid) for pid in execute_sandboxed(program, limits).stdout.split()]\n"
            "print(*ran, *others(ran[1], ran, 1))\n"
        )
        pids = [int(pid) for pid in run_harness(harness, TMPDIR=str(tmp_path)).split()]
        assert len(pids) >= 3  # program, server, idle program
        assert all(ends_soon(pid) for pid in pids)
        assert list(tmp_path.iterdir()) == []

    def test_a_killed_harness_leaves_no_process_running(self, tmp_path):
        pids = killed_harness_pids(
            f"server = int(execute_sandboxed({PRINT_SERVER_PID!r}, limits).stdout)\n", tmp_path
        )
        assert len(pids) >= 3  # server, the sleeping program, the idle program
        assert all(ends_soon(pid) for pid in pids)
        assert list(tmp_path.iterdir()) == []

    def test_a_harness_that_forked_while_its_server_started_leaves_no_process_running(self, tmp_path):
        # The child forked while the server starts outlives the killed
        # harness; it must not hold the harness's end of the server's socket.
        forked = tmp_path / "forked"
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        pids = killed_harness_pids(
            "from avalonplay import codeact\n"
            "popen = codeact.subprocess.Popen\n"
            "def forking_popen(*args, **kwargs):\n"
            "    proc = popen(*args, **kwargs)\n"
            "    child = os.fork()\n"
            "    if child == 0:\n"
            "        time.sleep(60)\n"
            "        os._exit(0)\n"
            f"    open({str(forked)!r}, 'w').write(str(child))\n"
            "    return proc\n"
            "codeact.subprocess.Popen = forking_popen\n"
            "codeact._probe_namespace_support()  # starts the server\n"
            "codeact.subprocess.Popen = popen\n"
            f"server = int(execute_sandboxed({PRINT_SERVER_PID!r}, limits).stdout)\n",
            tmpdir,
        )
        try:
            assert len(pids) >= 3  # server, the sleeping program, the idle program
            assert all(ends_soon(pid) for pid in pids)
            assert list(tmpdir.iterdir()) == []
        finally:
            os.kill(int(forked.read_text()), signal.SIGKILL)

    def test_a_child_forked_during_a_run_holds_it_no_longer_than_its_timeout(self):
        # The first run starts the server, and a child forked then holds
        # copies of the run's pipes. The run still ends by its deadline: it
        # waits for the status pipe's last line, not for the pipe to close.
        harness = (
            "import json, os, time\n"
            "from avalonplay import codeact\n"
            "limits = codeact.DebugLoopConfig(max_attempts=1, per_run_timeout=1.0, output_cap=4096)\n"
            "popen = codeact.subprocess.Popen\n"
            "forked = []\n"
            "def forking_popen(*args, **kwargs):\n"
            "    proc = popen(*args, **kwargs)\n"
            "    forked.append(os.fork())\n"
            "    if forked[0] == 0:\n"
            "        for fd in (1, 2):  # so the harness's output ends with it\n"
            "            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)\n"
            "        time.sleep(30)\n"
            "        os._exit(0)\n"
            "    return proc\n"
            "codeact.subprocess.Popen = forking_popen\n"
            "t0 = time.monotonic()\n"
            "result = codeact.execute_sandboxed('print(1)', limits)\n"
            "print(json.dumps([forked[0], time.monotonic() - t0, result.status.value, result.stdout]))\n"
        )
        child, elapsed, status, stdout = json.loads(run_harness(harness))
        try:
            assert elapsed < 1.0 + 1.0
            assert (status, stdout) == (ExecStatus.OK.value, "1\n")
        finally:
            os.kill(child, signal.SIGKILL)

    def test_an_idle_server_forks_one_process_per_run(self):
        # Between runs the server's only child is the program process it has
        # made ready, and the next run is that process.
        scan: dict = {}
        exec(DESCENDANTS, scan)
        program = "import os\nprint(os.getpid(), os.getppid())\n"
        ran, server = map(int, execute_sandboxed(program, FAST).stdout.split())
        for _ in range(3):
            idle = scan["descendants"](server)
            assert len(idle) == 1 and idle[0] != ran
            ran, parent = map(int, execute_sandboxed(program, FAST).stdout.split())
            assert (ran, parent) == (idle[0], server)

    def test_timed_out_runs_return_promptly(self):
        # Each program reports the process forked to run after it, then
        # spins until its run times out. That process must not hold the
        # status pipe of the run before it open, or the caller, reading
        # that pipe to its end after the kill, would wait for the next run.
        limits = DebugLoopConfig(max_attempts=1, per_run_timeout=1.0, output_cap=4096)
        program = DESCENDANTS + "print(*others(os.getppid(), (os.getpid(),), 1), flush=True)\nwhile True:\n    pass\n"
        for _ in range(2):
            results = []
            run = threading.Thread(target=lambda: results.append(execute_sandboxed(program, limits)), daemon=True)
            run.start()
            run.join(timeout=limits.per_run_timeout + 1.0)
            assert [r.status for r in results] == [ExecStatus.TIMEOUT]
            assert len(results[0].stdout.split()) == 1

    def test_a_killed_harness_that_started_its_server_from_a_thread_leaves_no_process_running(self, tmp_path):
        # The end of file on its socket comes while the server is waiting
        # for a sleeping program, after the thread that started it has ended.
        pids = killed_harness_pids(
            "first = []\n"
            f"starter = threading.Thread(target=lambda: first.append(execute_sandboxed({PRINT_SERVER_PID!r}, limits)))\n"
            "starter.start()\n"
            "starter.join()\n"
            "server = int(first[0].stdout)\n",
            tmp_path,
        )
        assert len(pids) >= 3  # server, the sleeping program, the idle program
        assert all(ends_soon(pid) for pid in pids)
        assert list(tmp_path.iterdir()) == []

    def test_a_killed_server_is_replaced(self):
        # Each program prints its server and the server's base directory.
        program = PRINT_SERVER_PID + "print(os.path.dirname(os.getcwd()))\n"
        server, base = execute_sandboxed(program, FAST).stdout.split()
        os.kill(int(server), signal.SIGKILL)
        assert ends_soon(int(server))
        replacement, new_base = execute_sandboxed(program, FAST).stdout.split()
        assert replacement != server and new_base != base
        # The dead server could not remove its directory; the harness did.
        assert not os.path.exists(base)

    def test_a_parallel_tournament_leaves_no_process_running(self, tmp_path):
        # Each program reports, on stderr, the pool worker that started its
        # fork server, the server, itself, and every other process below the
        # server, which includes the idle program.
        program = DESCENDANTS + (
            "import sys\n"
            "parent = lambda pid: int(open(f'/proc/{pid}/stat').read().rsplit(')', 1)[1].split()[1])\n"
            "server = os.getppid()\n"
            "print(parent(server), server, os.getpid(), *others(server, (os.getpid(),), 1), file=sys.stderr)\n"
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
        assert reports and all(len(pids) >= 4 for pids in reports)
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
