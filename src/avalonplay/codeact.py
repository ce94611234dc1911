"""Code-as-action team selection with sandboxed execution and self-debug.

A leader on the just side can answer a team-selection request with a
program instead of prose. The program is generated at temperature 0,
executed in a sandboxed child process, and its printed output parsed into
a team. Failures (crash, timeout, unusable output) are fed back to the
model verbatim for revision, up to a bounded number of attempts; after
that the caller's fallback supplies the team.

Sandboxing is process-level: the child runs in its own process group in a
scratch directory with no inherited file descriptors beyond the standard
three. When the kernel allows unprivileged user namespaces (probed once),
the child is also detached into an empty network namespace. The child
starts from a small bootstrap (``python -B -c``) that installs a Python
audit hook blocking socket use, process creation, and filesystem writes
outside the scratch directory, then compiles and runs ``program.py``
under that relative name, so tracebacks read ``File "program.py"`` with
no scratch path and no bootstrap frame. The caller reads both output
pipes in its own thread until they close or the wall-clock timeout
passes; a timeout kills the whole process group, and output past a byte
cap is read and dropped.
"""

from __future__ import annotations

import ctypes
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Sequence

from .llm import ChatMessage, LLMClient, logged_complete
from .memory import LeaderMemory
from .parsing import ParseError, extract_program, parse_team_selection
from .templates import render

_CLONE_NEWUSER = 0x10000000
_CLONE_NEWNET = 0x40000000

# Bound on simultaneously running sandboxed children, shared process-wide.
_EXECUTION_SLOTS = threading.BoundedSemaphore(8)

_BRACKETED_INTS = re.compile(r"\[\s*\d+(?:\s*,\s*\d+)*\s*\]")


class CodeActError(Exception):
    pass


class ExecStatus(str, Enum):
    OK = "ok"
    ERROR = "error"
    TIMEOUT = "timeout"
    OUTPUT_TRUNCATED = "output_truncated"


@dataclass(frozen=True)
class DebugLoopConfig:
    max_attempts: int = 3
    per_run_timeout: float = 10.0
    output_cap: int = 65536

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CodeActError("max_attempts must be at least 1")
        if self.per_run_timeout <= 0:
            raise CodeActError("per_run_timeout must be positive")
        if self.output_cap < 1:
            raise CodeActError("output_cap must be at least 1 byte")


@dataclass(frozen=True)
class CodePrompt:
    team_n: int
    text: str


@dataclass(frozen=True)
class ExecutionResult:
    status: ExecStatus
    stdout: str
    stderr: str
    exit_code: int | None
    stdout_truncated: bool = False
    stderr_truncated: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status.value,
            "stdout": self.stdout,
            "stderr": self.stderr,
            "exit_code": self.exit_code,
            "stdout_truncated": self.stdout_truncated,
            "stderr_truncated": self.stderr_truncated,
        }


def build_code_prompt(leader_memory: LeaderMemory, team_n: int) -> CodePrompt:
    """Fill the code-generation template with the leader's information."""
    private = "\n".join(f.text for f in leader_memory.private_facts)
    if not private:
        private = "(no private information)"
    public = "\n".join(f.render() for f in leader_memory.public_facts)
    if not public:
        public = "(no quest results yet)"
    text = render(
        "codeact_template",
        PRIVATE_INFORMATION=private,
        PUBLIC_INFORMATION=public,
        TEAM_NUMBER=team_n,
    )
    return CodePrompt(team_n=team_n, text=text)


# The child's whole entry point, run as `python -B -c` in the scratch
# directory: install the guard (the second containment layer behind the
# network namespace), then run program.py as __main__. The excepthook drops
# the bootstrap's own frame, so a traceback starts at program.py.
_BOOTSTRAP = r'''
import os
import sys

_SCRATCH = os.path.realpath(os.getcwd())
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND


def _inside(path):
    try:
        real = os.path.realpath(os.fsdecode(path))
    except Exception:
        return False
    return real == _SCRATCH or real.startswith(_SCRATCH + os.sep) or real == os.devnull


def _hook(event, args):
    if event.startswith("socket.") and event != "socket.__new__":
        raise PermissionError("network access is disabled in the code sandbox")
    elif event in (
        "subprocess.Popen",
        "os.system",
        "os.posix_spawn",
        "os.spawn",
        "os.exec",
        "os.fork",
        "os.forkpty",
    ):
        raise PermissionError("process creation is disabled in the code sandbox")
    elif event == "open":
        path, mode, flags = args
        if isinstance(path, int):
            return
        mode = mode or ""
        wants_write = any(c in mode for c in "wax+") or (not mode and flags & _WRITE_FLAGS)
        if wants_write and not _inside(path):
            raise PermissionError("writes outside the sandbox scratch directory are disabled")
    elif event in ("os.remove", "os.rename", "os.rmdir", "os.mkdir", "os.link", "os.symlink", "os.truncate"):
        for candidate in args:
            if isinstance(candidate, (str, bytes, os.PathLike)) and not _inside(candidate):
                raise PermissionError("filesystem changes outside the sandbox scratch directory are disabled")


def _excepthook(kind, value, tb):
    sys.__excepthook__(kind, value.with_traceback(tb.tb_next), tb.tb_next)


sys.addaudithook(_hook)
sys.excepthook = _excepthook
sys.argv[0] = "program.py"
with open("program.py", encoding="utf-8") as _source:
    _code = compile(_source.read(), "program.py", "exec")
exec(_code, {"__name__": "__main__", "__file__": "program.py"})
'''.lstrip()

_libc = ctypes.CDLL(None, use_errno=True)
_namespace_support: bool | None = None


def _probe_namespace_support() -> bool:
    """Whether unprivileged user+net namespaces work on this kernel."""
    global _namespace_support
    if _namespace_support is None:
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "pass"],
                preexec_fn=_unshare_net,
                capture_output=True,
                timeout=30,
            )
            _namespace_support = proc.returncode == 0
        except Exception:
            _namespace_support = False
    return _namespace_support


def _unshare_net() -> None:
    if _libc.unshare(_CLONE_NEWUSER | _CLONE_NEWNET) != 0:
        raise OSError(ctypes.get_errno(), "unshare(CLONE_NEWUSER|CLONE_NEWNET) failed")


def _child_limits(timeout: float, use_namespaces: bool) -> Callable[[], None]:
    def prepare() -> None:
        import resource

        cpu = max(1, int(timeout) + 2)
        resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
        resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024 * 1024, 64 * 1024 * 1024))
        if use_namespaces:
            _unshare_net()

    return prepare


def execute_sandboxed(program: str, limits: DebugLoopConfig) -> ExecutionResult:
    """Run one program in a fresh scratch sandbox and capture its output."""
    scratch = tempfile.mkdtemp(prefix="codeact-")
    try:
        with open(os.path.join(scratch, "program.py"), "w", encoding="utf-8") as fh:
            fh.write(program)
        use_ns = _probe_namespace_support()
        with _EXECUTION_SLOTS:
            proc = subprocess.Popen(
                [sys.executable, "-B", "-c", _BOOTSTRAP],
                cwd=scratch,
                env={"PATH": "/usr/bin:/bin", "HOME": scratch, "TMPDIR": scratch},
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
                preexec_fn=_child_limits(limits.per_run_timeout, use_ns),
                close_fds=True,
            )
            deadline = time.monotonic() + limits.per_run_timeout
            # Keep up to the cap from each pipe, and keep reading past it so
            # the child never blocks on a full pipe.
            kept = {proc.stdout: bytearray(), proc.stderr: bytearray()}
            truncated = {proc.stdout: False, proc.stderr: False}
            timed_out = False
            try:
                with selectors.DefaultSelector() as selector:
                    for stream in kept:
                        selector.register(stream, selectors.EVENT_READ)
                    while selector.get_map() and (left := deadline - time.monotonic()) > 0:
                        for key, _ in selector.select(left):
                            chunk = os.read(key.fd, 65536)
                            if not chunk:
                                selector.unregister(key.fileobj)
                                continue
                            buf = kept[key.fileobj]
                            room = limits.output_cap - len(buf)
                            buf += chunk[:room]
                            truncated[key.fileobj] |= len(chunk) > room
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                timed_out = True
            finally:
                if proc.returncode is None:
                    _kill_group(proc)
                    proc.wait()
                proc.stdout.close()
                proc.stderr.close()
        exit_code = proc.returncode
        if timed_out:
            status = ExecStatus.TIMEOUT
        elif exit_code != 0:
            status = ExecStatus.ERROR
        elif truncated[proc.stdout] or truncated[proc.stderr]:
            status = ExecStatus.OUTPUT_TRUNCATED
        else:
            status = ExecStatus.OK
        return ExecutionResult(
            status=status,
            stdout=kept[proc.stdout].decode("utf-8", errors="replace"),
            stderr=kept[proc.stderr].decode("utf-8", errors="replace"),
            exit_code=exit_code,
            stdout_truncated=truncated[proc.stdout],
            stderr_truncated=truncated[proc.stderr],
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()


def parse_final_team(result: ExecutionResult, required_n: int) -> frozenset[int]:
    """Team from program output.

    Priority: a bracketed integer list on the last non-empty stdout line,
    then a 'Final Answer' sentence anywhere in stdout.
    """
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if not lines:
        raise ParseError("the program printed nothing")
    last = lines[-1]
    if _BRACKETED_INTS.search(last):
        return parse_team_selection(last, None, required_n)
    for line in lines:
        if "final answer" in line.lower():
            return parse_team_selection(line, None, required_n)
    raise ParseError("no bracketed list or 'Final Answer' line in the program output")


@dataclass
class DebugAttempt:
    response: str
    program: str
    result: ExecutionResult | None
    issue: str | None
    parsed_ids: list[int] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "response": self.response,
            "program": self.program,
            "result": self.result.to_dict() if self.result else None,
            "issue": self.issue,
            "parsed_ids": self.parsed_ids,
        }


@dataclass
class DebugLoopOutcome:
    team: frozenset[int]
    attempts_used: int
    fell_back: bool
    attempts: list[DebugAttempt]
    exchanges: list[dict[str, Any]]


def self_debug_loop(
    llm: LLMClient,
    prompt: CodePrompt,
    limits: DebugLoopConfig,
    fallback_team: Callable[[], frozenset[int]],
    temperature: float = 0.0,
) -> DebugLoopOutcome:
    """Generate, run, and revise programs until one yields a usable team."""
    conversation: list[ChatMessage] = [ChatMessage("user", prompt.text)]
    attempts: list[DebugAttempt] = []
    exchanges: list[dict[str, Any]] = []
    for attempt_no in range(1, limits.max_attempts + 1):
        response = logged_complete(llm, conversation, temperature, "code_generation", exchanges)
        program = extract_program(response)
        result = execute_sandboxed(program, limits)
        attempt = DebugAttempt(response=response, program=program, result=result, issue=None)
        attempts.append(attempt)
        if result.status is ExecStatus.OK:
            try:
                team = parse_final_team(result, prompt.team_n)
                return DebugLoopOutcome(
                    team=team,
                    attempts_used=attempt_no,
                    fell_back=False,
                    attempts=attempts,
                    exchanges=exchanges,
                )
            except ParseError as exc:
                attempt.issue = f"unusable output: {exc}"
                attempt.parsed_ids = list(exc.ids)
        else:
            attempt.issue = f"execution {result.status.value}"
        conversation = conversation + [
            ChatMessage("assistant", response),
            ChatMessage(
                "user",
                render(
                    "codeact_revise",
                    program=program,
                    issue=attempt.issue,
                    stdout=result.stdout or "(empty)",
                    stderr=result.stderr or "(empty)",
                    TEAM_NUMBER=prompt.team_n,
                ),
            ),
        ]
    return DebugLoopOutcome(
        team=fallback_team(),
        attempts_used=limits.max_attempts,
        fell_back=True,
        attempts=attempts,
        exchanges=exchanges,
    )
