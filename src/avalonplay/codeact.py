"""Code-as-action team selection with sandboxed execution and self-debug.

A leader on the just side can answer a team-selection request with a
program instead of prose. The program is generated at temperature 0,
executed in a sandboxed child process, and its printed output parsed into
a team. Failures (crash, timeout, unusable output) are fed back to the
model verbatim for revision, up to a bounded number of attempts; after
that the caller's fallback supplies the team.

Sandboxing is process-level, and each program gets a fresh process. Each
harness process starts one fork server on its first run, as
``python -I -S -B -c``, so programs get the standard library only and no
``exit()``/``quit()``. A forked harness process starts a server of its own.
The server probes once, at start, whether the kernel allows unprivileged
user namespaces, and tells the harness. It compiles once, so programs
inherit a warm compiler, and then keeps one waiter and its program process
ready at all times: the program process has already started a session, set
the core and file-size rlimits and, where the probe succeeded, detached into
empty user and network namespaces; it fails its run, before any line of the
program, if it could not. A run is one message on a ``SOCK_SEQPACKET``
socket, passing the program's stdin (``/dev/null``), stdout, stderr and a
status pipe. The ready waiter takes it, hands the request and the three
streams to its program process, and wakes the server to fork the next
waiter and program. The program process sets the CPU rlimit the request
names, moves to the scratch directory, takes ``PATH``, ``HOME`` and
``TMPDIR`` as its whole environment, and runs a small bootstrap that
installs a Python audit hook blocking socket use, process creation, and
filesystem writes outside the scratch directory, then compiles and runs
``program.py`` under that relative name, so tracebacks read
``File "program.py"`` with no scratch path and no bootstrap frame. The
program ends as ``python program.py`` would (exit status, uncaught
exception, death by ``SIGINT``, non-daemon threads, ``atexit`` handlers,
module-level finalizers, standard streams flushed), then calls ``os._exit``
instead of tearing the interpreter down; other files left open are not
flushed. The waiter reports the program's pid and then its wait status on
the status pipe. The caller reads the three pipes in its own thread until
the program's streams close and the status is complete, or the wall-clock
timeout passes; a timeout kills the program's process group, and output
past a byte cap is read and dropped.

Nothing outlives the harness: at the end of file on its socket (an
``atexit`` hook closes it and waits) the ready waiter exits, and then the
server; each waiter and program process dies with its parent
(``PR_SET_PDEATHSIG``), as does a server started from the main thread.
"""

from __future__ import annotations

import atexit
import os
import re
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from .llm import ChatMessage, LLMClient, logged_complete
from .memory import LeaderMemory
from .parsing import ParseError, extract_program, parse_team_selection
from .templates import render

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


# The program process's entry point, run at the top level of the server's
# `-c` text in the scratch directory: install the guard (the second
# containment layer behind the network namespace), then run program.py as
# __main__. The excepthook drops the top-level frame, so a traceback starts
# at program.py. The program then ends as Py_RunMain ends one, minus the
# interpreter's teardown, which would walk and copy the server's heap.
_BOOTSTRAP = r'''
import atexit
import gc
import os
import signal
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


def _exit_status(code):
    """The exit status of SystemExit(code), as CPython reads it."""
    if code is None:
        return 0
    if isinstance(code, int):  # CPython reads a code outside a C long as -1
        return code & 0xFF if -(1 << 63) <= code < 1 << 63 else 255
    if sys.stderr is not None:
        print(code, file=sys.stderr)
    return 1


sys.addaudithook(_hook)
sys.excepthook = _excepthook
sys.argv[0] = "program.py"
_interrupted = False
try:
    with open("program.py", encoding="utf-8") as _source:
        _code = compile(_source.read(), "program.py", "exec")
    exec(_code, {"__name__": "__main__", "__file__": "program.py"})
    _status = 0
except SystemExit as _stop:
    _status = _exit_status(_stop.code)
except BaseException as _error:  # this is the program's top level
    _interrupted = isinstance(_error, KeyboardInterrupt)
    sys.excepthook(type(_error), _error, _error.__traceback__)
    _status = 1
# What Py_FinalizeEx does that a program can see: join its threads, run its
# atexit handlers, finalize its module-level objects (nothing else holds the
# namespace now, and the server's objects are frozen, so this is cheap) and
# flush the standard streams. Other files left open are not flushed.
if "threading" in sys.modules:
    sys.modules["threading"]._shutdown()
atexit._run_exitfuncs()
gc.collect()
for _stream in (sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__):
    try:
        if _stream is not None and not getattr(_stream, "closed", False):
            _stream.flush()
    except Exception:
        _status = 120  # as Py_RunMain exits when its final flush fails
if _interrupted:  # die by SIGINT, as CPython does
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGINT)
    _status = 128 + signal.SIGINT  # still alive: SIGINT is blocked
os._exit(_status)
'''.lstrip()

# The fork server's own code, run as `python -I -S -B -c _SERVER <socket fd>
# <harness pid or 0>` with _BOOTSTRAP appended. The server first probes once
# whether a child can enter fresh user and network namespaces, and sends its
# verdict, b"1" or b"0", on the socket. From then on it keeps one waiter and
# its program process ready. The program process has started its session,
# set the core and file-size rlimits and, if the probe succeeded, entered
# fresh namespaces; it blocks on a socket of its own from the waiter. The
# waiter blocks on the harness socket, where a request is one message,
# b"<cpu seconds>\0<scratch path>", with four descriptors: stdin, stdout,
# stderr and the status pipe. The waiter that takes a request hands the
# request and the three streams to its program; writes a byte on its pipe to
# the server, which then forks the next waiter; writes the program's pid and
# then its wait status to the status pipe; and exits. Only a program process
# returns from _serve(), and so goes on into _BOOTSTRAP.
_SERVE = r"""
import ctypes
import gc
import os
import resource
import signal
import socket
import sys

_libc = ctypes.CDLL(None, use_errno=True)
_libc.unshare.argtypes = (ctypes.c_int,)
_NAMESPACES = 0x10000000 | 0x40000000  # CLONE_NEWUSER | CLONE_NEWNET


def _die_with(parent):
    _libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _probe():
    child = os.fork()
    if child == 0:
        os._exit(_libc.unshare(_NAMESPACES) != 0)
    return os.waitpid(child, 0)[1] == 0


def _enter_program(channel, unshare):
    os.setsid()
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024 * 1024, 64 * 1024 * 1024))
    failure = None
    if unshare and _libc.unshare(_NAMESPACES) != 0:
        failure = OSError(ctypes.get_errno(), "unshare(CLONE_NEWUSER|CLONE_NEWNET) failed")
    request, fds, _, _ = socket.recv_fds(channel, 4096, 3)
    if not request:
        os._exit(1)
    channel.close()
    cpu, scratch = request.split(b"\0", 1)
    resource.setrlimit(resource.RLIMIT_CPU, (int(cpu), int(cpu)))
    for target, fd in enumerate(fds):
        os.dup2(fd, target)
    for fd in fds:
        os.close(fd)
    if failure is not None:  # fail the run before any line of the program
        raise failure
    scratch = os.fsdecode(scratch)
    os.chdir(scratch)
    os.environ["HOME"] = os.environ["TMPDIR"] = scratch
    sys.argv[:] = ["program.py"]
    for name, fd, mode in (("stdin", 0, "r"), ("stdout", 1, "w"), ("stderr", 2, "w")):
        old = getattr(sys, name)
        new = open(fd, mode, 1 if old.line_buffering else -1, old.encoding, old.errors, "\n", closefd=False)
        setattr(sys, name, new)
        setattr(sys, f"__{name}__", new)


def _wait(sock, ready, server, unshare):
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    _die_with(server)
    waiter = os.getpid()
    mine, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    program = os.fork()
    if program == 0:
        _die_with(waiter)
        sock.close()
        mine.close()
        os.close(ready)
        _enter_program(theirs, unshare)
        return
    theirs.close()
    request, fds, _, _ = socket.recv_fds(sock, 4096, 4)
    if not request:
        os._exit(0)
    try:
        socket.send_fds(mine, [request], fds[:3])
    except OSError:
        pass  # the program process has died; its wait status says how
    # Only now wake the server to fork the next pair: woken first, its
    # forks delay this hand-over by about a millisecond.
    sock.close()
    os.write(ready, b"\0")
    os.close(ready)
    for fd in fds[:3]:
        os.close(fd)
    try:
        os.write(fds[3], b"%d\n" % program)
        os.write(fds[3], b"%d\n" % os.waitpid(program, 0)[1])
    finally:
        os._exit(0)


def _serve(sock_fd, harness):
    if harness:
        _die_with(harness)
    sock = socket.socket(fileno=sock_fd)
    unshare = _probe()
    sock.send(b"%d" % unshare)
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # the kernel reaps the waiters
    server = os.getpid()
    # The first compile() sets up the compiler's state (about 2 ms); done
    # here, each program process inherits it.
    compile("pass", "<warm-up>", "exec")
    # Out of the collector's reach, the server's objects stay shared with
    # each program process instead of being copied page by page as the
    # program's collections and its exit walk them.
    gc.freeze()
    while True:
        ready, ready_w = os.pipe()
        try:
            waiter = os.fork()
        except OSError:
            sys.exit(1)  # dropping the socket fails the queued requests
        if waiter == 0:
            os.close(ready)
            _wait(sock, ready_w, server, unshare)
            return
        os.close(ready_w)
        # One byte: the waiter has taken a request. End of file: the
        # harness closed its socket, or the waiter died.
        if not os.read(ready, 1):
            sys.exit(0)
        os.close(ready)


_serve(int(sys.argv[1]), int(sys.argv[2]))
"""
_SERVER = _SERVE + _BOOTSTRAP


class _Server:
    def __init__(self) -> None:
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        # PR_SET_PDEATHSIG fires when the thread that started the server
        # ends, so a server started from any other thread relies on the end
        # of file on its socket alone.
        harness = os.getpid() if threading.current_thread() is threading.main_thread() else 0
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-B", "-c", _SERVER, str(theirs.fileno()), str(harness)],
                cwd="/",
                env={"PATH": "/usr/bin:/bin"},
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
            )
        # The server's first message: whether it can make namespaces.
        self.netns = self.sock.recv(1) == b"1"


_server: _Server | None = None
_server_lock = threading.Lock()


def _running_server() -> _Server:
    """This process's server, started if it is not running."""
    global _server
    with _server_lock:
        if _server is None or _server.proc.poll() is not None:
            if _server is not None:
                _server.sock.close()
            _server = _Server()
        return _server


def _forget_server() -> None:
    """In a forked child: drop the parent's server, so the child starts its own."""
    global _server, _server_lock
    if _server is not None:
        _server.sock.close()
    _server, _server_lock = None, threading.Lock()


@atexit.register
def _stop_server() -> None:
    """The server exits at the end of file on its socket; wait for it."""
    if _server is not None:
        _server.sock.close()
        _server.proc.wait()


os.register_at_fork(after_in_child=_forget_server)


def _run(request: bytes, timeout: float, output_cap: int) -> tuple[int, bool, list[bytearray], list[bool]]:
    """Have the server run one request; return the program's exit code,
    whether it timed out, and its stdout and stderr, each with whether it
    passed the cap."""
    pipes = [os.pipe() for _ in range(3)]
    devnull = os.open(os.devnull, os.O_RDONLY)
    try:
        socket.send_fds(_running_server().sock, [request], [devnull] + [w for _, w in pipes])
    except BaseException:
        for r, _ in pipes:
            os.close(r)
        raise
    finally:
        os.close(devnull)
        for _, w in pipes:
            os.close(w)
    out, err, status_fd = (r for r, _ in pipes)
    deadline = time.monotonic() + timeout
    # Keep up to the cap from each pipe, and keep reading past it so the
    # program never blocks on a full pipe.
    kept = {out: bytearray(), err: bytearray()}
    truncated = {out: False, err: False}
    status = bytearray()  # b"<pid>\n<wait status>\n", once the waiter has both
    try:
        with selectors.DefaultSelector() as selector:
            for fd in (out, err, status_fd):
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map() and (left := deadline - time.monotonic()) > 0:
                for key, _ in selector.select(left):
                    chunk = os.read(key.fd, 65536)
                    if not chunk:
                        selector.unregister(key.fd)
                    elif key.fd == status_fd:
                        status += chunk
                        if status.count(b"\n") == 2:  # all the waiter writes; no need to wait for its exit
                            selector.unregister(status_fd)
                    else:
                        buf = kept[key.fd]
                        room = output_cap - len(buf)
                        buf += chunk[:room]
                        truncated[key.fd] |= len(chunk) > room
    finally:
        timed_out = status.count(b"\n") < 2
        if timed_out:
            _kill_program(status_fd, status)
        for fd in (out, err, status_fd):
            os.close(fd)
    try:
        _, wait_status = status.split()
    except ValueError:
        raise CodeActError("the sandbox server did not run the program") from None
    exit_code = os.waitstatus_to_exitcode(int(wait_status))
    return exit_code, timed_out, [kept[out], kept[err]], [truncated[out], truncated[err]]


def _kill_program(status_fd: int, status: bytearray) -> None:
    """Kill the program's process group, and read the rest of its status."""
    while b"\n" not in status and (chunk := os.read(status_fd, 64)):
        status += chunk
    if b"\n" in status:
        pid = int(status.split()[0])
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:  # not yet the leader of its own group
            os.kill(pid, signal.SIGKILL)
    while chunk := os.read(status_fd, 64):
        status += chunk


def _probe_namespace_support() -> bool:
    """Whether unprivileged user+net namespaces work on this kernel, as this
    process's server found when it started."""
    return _running_server().netns


def execute_sandboxed(program: str, limits: DebugLoopConfig) -> ExecutionResult:
    """Run one program in a fresh scratch sandbox and capture its output."""
    scratch = tempfile.mkdtemp(prefix="codeact-")
    try:
        with open(os.path.join(scratch, "program.py"), "w", encoding="utf-8") as fh:
            fh.write(program)
        cpu = max(1, int(limits.per_run_timeout) + 2)
        request = b"%d\0%s" % (cpu, os.fsencode(scratch))
        with _EXECUTION_SLOTS:
            exit_code, timed_out, (stdout, stderr), (stdout_cut, stderr_cut) = _run(
                request, limits.per_run_timeout, limits.output_cap
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if timed_out:
        status = ExecStatus.TIMEOUT
    elif exit_code != 0:
        status = ExecStatus.ERROR
    elif stdout_cut or stderr_cut:
        status = ExecStatus.OUTPUT_TRUNCATED
    else:
        status = ExecStatus.OK
    return ExecutionResult(
        status=status,
        stdout=stdout.decode("utf-8", errors="replace"),
        stderr=stderr.decode("utf-8", errors="replace"),
        exit_code=exit_code,
        stdout_truncated=stdout_cut,
        stderr_truncated=stderr_cut,
    )


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
