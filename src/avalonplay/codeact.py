"""Code-as-action team selection with sandboxed execution and self-debug.

A leader on the just side can answer a team-selection request with a
program instead of prose. The program is generated at temperature 0,
executed in a sandboxed child process, and its printed output parsed into
a team. Failures (crash, timeout, unusable output) are fed back to the
model verbatim for revision, up to a bounded number of attempts. The loop
returns its whole record, each attempt in the form records embed, with no
team when no program gave a usable one; the caller then picks the team.

Sandboxing is process-level, and each program gets a fresh process. Each
harness process starts one fork server on its first run, as
``python -I -S -B -c``, so programs get the standard library only and no
``exit()``/``quit()``, and makes one base directory for it with
``tempfile.mkdtemp``. A forked harness process starts a server of its own.
The server defines the guard, a Python audit hook blocking socket use,
process creation, and filesystem writes outside a program's scratch
directory, once, so every program process inherits it. It probes once, at
start, whether the kernel allows unprivileged user namespaces, and tells
the harness. It compiles once, so programs inherit a warm compiler, and
then keeps one program process ready at all times. Before its run is
requested, that process has started a session, set the core rlimit and,
where the probe succeeded, detached into empty user and network namespaces
(it fails its run, before any line of the program, if it could not). It has
also made its own scratch directory (mode 0700) under the base directory,
moved into it, taken ``PATH``, ``HOME`` and ``TMPDIR`` as its whole
environment and ``/dev/null`` as its stdin. A run is one message on a
``SOCK_SEQPACKET`` socket, naming the CPU limit and passing the program's
stdout, stderr, a ``memfd`` holding the program's text, and a status pipe.
The server takes one run at a time: it hands the request to the ready
program process, forks the next one while this one runs, reports the
program's pid on the status pipe, reaps the program, reports its wait
status, removes its scratch directory, says so with an empty line, and only
then takes the next request. So runs from several threads are served in
turn, and the harness does no filesystem work per run. The program process
writes ``program.py``, sets the CPU and file-size rlimits, installs the
guard, and compiles and runs the program under that relative name, so
tracebacks read ``File "program.py"`` with no scratch path and no bootstrap
frame. The program ends as ``python program.py`` would (exit status, uncaught
exception, death by ``SIGINT``, non-daemon threads, ``atexit`` handlers,
module-level finalizers, standard streams flushed), then calls ``os._exit``
instead of tearing the interpreter down; other files left open are not
flushed. The caller reads the three pipes in its own thread until the
program's streams close and the status is complete, or the wall-clock
timeout passes; a timeout kills the program's process group, and output
past a byte cap is read and dropped. It then waits, outside the timeout,
for the status pipe's empty line, so the scratch directory is gone when the
run returns.

Nothing outlives the harness: at the end of file on its socket (an
``atexit`` hook closes it and waits, and a dead harness's socket closes
too) the server kills and reaps its program processes, removes the base
directory and exits. A child forked from the harness, even while the
server is starting, closes its copy of that socket. Each program process
dies with the server (``PR_SET_PDEATHSIG``).
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
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .llm import ChatMessage, LLMClient, logged_complete
from .knowledge import PrivateFact
from .memory import PublicFact
from .parsing import ParseError, extract_program, parse_team_selection
from .templates import render

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


def build_code_prompt(
    private_facts: tuple[PrivateFact, ...], public_facts: tuple[PublicFact, ...], team_n: int
) -> str:
    """The code-generation template filled with a leader's private facts and
    the public quest history it acts on."""
    private = "\n".join(f.text for f in private_facts)
    if not private:
        private = "(no private information)"
    public = "\n".join(f.render() for f in public_facts)
    if not public:
        public = "(no quest results yet)"
    return render(
        "codeact_template",
        PRIVATE_INFORMATION=private,
        PUBLIC_INFORMATION=public,
        TEAM_NUMBER=team_n,
    )


# The fork server's own code, run as `python -I -S -B -c _SERVER <socket fd>
# <base directory>` with _BOOTSTRAP appended. It defines the guard (the
# second containment layer behind the network namespace) and the exit
# helpers once, so every program process inherits them. It probes once
# whether a child can enter fresh user and network namespaces, and sends its
# verdict, b"1" or b"0", on the socket. From then on it keeps one program
# process ready. Before its request arrives, that process has started its
# session, set the core rlimit, entered fresh namespaces if the probe
# succeeded, made its own scratch directory (mode 0700) under the base
# directory, moved into it, and set its environment, argv and stdin (the
# server's /dev/null); it blocks on a socket of its own from the server. The
# server serves one request at a time from the harness socket, where a
# request is one message, b"<cpu seconds>", with four descriptors: stdout,
# stderr, a file holding the program's UTF-8 text, and the status pipe. It
# hands the first three to the ready program, which writes program.py from
# the text; forks the next program while this one runs; writes the program's
# pid to the status pipe; reaps the program; writes its wait status; removes
# its scratch directory; writes an empty line; and closes the pipe. At the
# end of file on the harness socket, even while a program runs, the server
# kills and reaps its programs, removes the base directory and exits. Only a
# program process returns from _serve(), with the program's text, and so
# goes on into _BOOTSTRAP.
_SERVE = r'''
import atexit
import ctypes
import gc
import os
import resource
import select
import shutil
import signal
import socket
import sys

_libc = ctypes.CDLL(None, use_errno=True)
_libc.unshare.argtypes = (ctypes.c_int,)
_NAMESPACES = 0x10000000 | 0x40000000  # CLONE_NEWUSER | CLONE_NEWNET
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND
_SCRATCH = None  # a program process's scratch directory, as a real path


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
    elif event in ("os.chmod", "os.chown"):  # a descriptor's file is named under /proc
        path = args[0]
        if not _inside(f"/proc/self/fd/{path}" if isinstance(path, int) else path):
            raise PermissionError("filesystem changes outside the sandbox scratch directory are disabled")
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


def _die_with(parent):
    _libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def _probe():
    child = os.fork()
    if child == 0:
        os._exit(_libc.unshare(_NAMESPACES) != 0)
    return os.waitpid(child, 0)[1] == 0


def _reopen(name, fd, mode):
    old = getattr(sys, name)
    new = open(fd, mode, 1 if old.line_buffering else -1, old.encoding, old.errors, "\n", closefd=False)
    setattr(sys, name, new)
    setattr(sys, f"__{name}__", new)


def _enter_program(channel, unshare, scratch):
    # Up to the request, this runs while the run before it is still going.
    global _SCRATCH
    os.setsid()
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
    failure = None
    if unshare and _libc.unshare(_NAMESPACES) != 0:
        failure = OSError(ctypes.get_errno(), "unshare(CLONE_NEWUSER|CLONE_NEWNET) failed")
    try:
        os.mkdir(scratch, 0o700)
        os.chdir(scratch)
    except OSError as exc:
        failure = failure or exc
    os.environ["HOME"] = os.environ["TMPDIR"] = scratch
    sys.argv[:] = ["program.py"]
    _SCRATCH = os.path.realpath(scratch)
    _reopen("stdin", 0, "r")
    request, fds, _, _ = socket.recv_fds(channel, 64, 3)
    if not request:
        os._exit(1)
    channel.close()
    resource.setrlimit(resource.RLIMIT_CPU, (int(request), int(request)))
    stdout, stderr, text = fds
    for target, fd in ((1, stdout), (2, stderr)):
        os.dup2(fd, target)
        os.close(fd)
    if failure is not None:  # fail the run before any line of the program
        raise failure
    with open(text, "rb") as fh:
        source = fh.read()
    with open("program.py", "xb") as fh:
        fh.write(source)
    resource.setrlimit(resource.RLIMIT_FSIZE, (64 * 1024 * 1024, 64 * 1024 * 1024))
    _reopen("stdout", 1, "w")
    _reopen("stderr", 2, "w")
    return source


def _report(sock, programs, program, scratch, status):
    # The program's pid, then, once it has ended, its wait status, and an
    # empty line once its scratch directory is gone. Should the harness close
    # its socket first, the server shuts down at once.
    os.write(status, b"%d\n" % program)
    ended = os.pidfd_open(program)
    poller = select.poll()
    poller.register(ended, select.POLLIN)
    poller.register(sock, select.POLLRDHUP)
    if any(fd != ended for fd, _ in poller.poll()):
        sys.exit(0)
    os.close(ended)
    wait_status = os.waitpid(program, 0)[1]
    programs.remove(program)
    os.write(status, b"%d\n" % wait_status)
    shutil.rmtree(scratch, ignore_errors=True)
    os.write(status, b"\n")
    os.close(status)


def _shut_down(programs, base):
    for program in programs:
        try:
            os.killpg(program, signal.SIGKILL)
        except ProcessLookupError:  # not yet the leader of its own group
            os.kill(program, signal.SIGKILL)
    for program in programs:
        os.waitpid(program, 0)
    shutil.rmtree(base, ignore_errors=True)


def _serve(sock_fd, base):
    sock = socket.socket(fileno=sock_fd)
    server = os.getpid()
    programs = []  # the program processes not yet reaped
    try:
        unshare = _probe()
        sock.send(b"%d" % unshare)
        # The first compile() sets up the compiler's state (about 2 ms); done
        # here, each program process inherits it.
        compile("pass", "<warm-up>", "exec")
        # Out of the collector's reach, the server's objects stay shared with
        # each program process instead of being copied page by page as the
        # program's collections and its exit walk them.
        gc.freeze()
        running = None  # the program now running, its scratch directory and status pipe
        forked = 0
        while True:
            forked += 1
            scratch = f"{base}/{forked}"
            mine, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
            try:
                program = os.fork()
            except OSError:
                sys.exit(1)  # dropping the socket fails the queued requests
            if program == 0:
                _die_with(server)
                sock.close()
                mine.close()
                if running is not None:  # held open, its status pipe would keep the caller reading
                    os.close(running[2])
                return _enter_program(theirs, unshare, scratch)
            programs.append(program)
            theirs.close()
            if running is not None:
                _report(sock, programs, *running)
            request, fds, _, _ = socket.recv_fds(sock, 64, 4)
            if not request:
                sys.exit(0)  # the harness closed its socket
            try:
                socket.send_fds(mine, [request], fds[:3])
            except OSError:
                pass  # the program process has died; its wait status says how
            mine.close()
            for fd in fds[:3]:
                os.close(fd)
            running = (program, scratch, fds[3])
    finally:
        if os.getpid() == server:  # not in a program process leaving _serve()
            _shut_down(programs, base)


_program = _serve(int(sys.argv[1]), sys.argv[2])
'''

# The program process's code after _serve() returns it the program's text, at
# the top level of the server's `-c` text in the scratch directory: install
# the guard, then run program.py as __main__. The text is compiled as a
# text-mode read of program.py would give it. The excepthook drops the
# top-level frame, so a traceback starts at program.py. The program then ends
# as Py_RunMain ends one, minus the interpreter's teardown, which would walk
# and copy the server's heap.
_BOOTSTRAP = r"""
sys.addaudithook(_hook)
sys.excepthook = _excepthook
_interrupted = False
try:
    _code = compile(_program.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"), "program.py", "exec")
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
""".lstrip()
_SERVER = _SERVE + _BOOTSTRAP


class _Server:
    def __init__(self) -> None:
        global _starting
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        _starting = self  # so a child forked before _server is set closes self.sock too
        # Each program process makes its scratch directory in this one.
        self.base = tempfile.mkdtemp(prefix="codeact-")
        try:
            # The server's stdin, /dev/null read-only, is every program's.
            with theirs, open(os.devnull, "rb") as devnull:
                self.proc = subprocess.Popen(
                    [sys.executable, "-I", "-S", "-B", "-c", _SERVER, str(theirs.fileno()), self.base],
                    cwd="/",
                    env={"PATH": "/usr/bin:/bin"},
                    stdin=devnull,
                    stdout=subprocess.DEVNULL,
                    pass_fds=(theirs.fileno(),),
                )
        except BaseException:
            self.sock.close()
            shutil.rmtree(self.base, ignore_errors=True)
            raise
        # The server's first message: whether it can make namespaces.
        self.netns = self.sock.recv(1) == b"1"

    def stop(self) -> None:
        """Close the socket, at whose end of file the server removes its
        directory and exits; wait for it, and remove the directory should
        the server have died first."""
        self.sock.close()
        self.proc.wait()
        shutil.rmtree(self.base, ignore_errors=True)


_server: _Server | None = None
_starting: _Server | None = None  # a server being started, until _server holds it
_server_lock = threading.Lock()


def _running_server() -> _Server:
    """This process's server, started if it is not running."""
    global _server, _starting
    with _server_lock:
        if _server is None or _server.proc.poll() is not None:
            if _server is not None:
                _server.stop()
            try:
                _server = _Server()
            finally:
                _starting = None
        return _server


def _forget_server() -> None:
    """In a forked child: drop the parent's server, or the one it was
    starting, so the child starts its own and holds no copy of its socket."""
    global _server, _starting, _server_lock
    for server in (_server, _starting):
        if server is not None:
            server.sock.close()
    _server, _starting, _server_lock = None, None, threading.Lock()


@atexit.register
def _stop_server() -> None:
    if _server is not None:
        _server.stop()


os.register_at_fork(after_in_child=_forget_server)


def _run(
    request: bytes, source: bytes, timeout: float, output_cap: int
) -> tuple[int, bool, list[bytearray], list[bool]]:
    """Have the server run one request on the program text `source`; return
    the program's exit code, whether it timed out, and its stdout and
    stderr, each with whether it passed the cap."""
    pipes = [os.pipe() for _ in range(3)]
    text = os.memfd_create("program.py")
    try:
        with open(text, "wb", closefd=False) as fh:
            fh.write(source)
            fh.seek(0)  # the program process reads the text from here
        (_, out_w), (_, err_w), (_, status_w) = pipes
        socket.send_fds(_running_server().sock, [request], [out_w, err_w, text, status_w])
    except BaseException:
        for r, _ in pipes:
            os.close(r)
        raise
    finally:
        os.close(text)
        for _, w in pipes:
            os.close(w)
    out, err, status_fd = (r for r, _ in pipes)
    deadline = time.monotonic() + timeout
    # Keep up to the cap from each pipe, and keep reading past it so the
    # program never blocks on a full pipe.
    kept = {out: bytearray(), err: bytearray()}
    truncated = {out: False, err: False}
    status = bytearray()  # b"<pid>\n<wait status>\n\n", the last line once the scratch directory is gone
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
                        if status.count(b"\n") == 2:  # the program has ended and been reaped
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
        # Waiting for the scratch directory to go is not the program's time,
        # so it is outside the deadline.
        while status.count(b"\n") < 3 and (chunk := os.read(status_fd, 64)):
            status += chunk
        for fd in (out, err, status_fd):
            os.close(fd)
    try:
        _, wait_status = status.split()
    except ValueError:
        raise CodeActError("the sandbox server did not run the program") from None
    exit_code = os.waitstatus_to_exitcode(int(wait_status))
    return exit_code, timed_out, [kept[out], kept[err]], [truncated[out], truncated[err]]


def _kill_program(status_fd: int, status: bytearray) -> None:
    """Kill the program's process group, once the server has named it."""
    while b"\n" not in status and (chunk := os.read(status_fd, 64)):
        status += chunk
    if b"\n" in status:
        pid = int(status.split()[0])
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:  # not yet the leader of its own group
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # already reaped: its status line follows
                pass


def _probe_namespace_support() -> bool:
    """Whether unprivileged user+net namespaces work on this kernel, as this
    process's server found when it started."""
    return _running_server().netns


def execute_sandboxed(program: str, limits: DebugLoopConfig) -> ExecutionResult:
    """Run one program in a fresh scratch sandbox and capture its output.

    A text that is not UTF-8 (a lone surrogate) cannot be a program file, so
    it is an `error` result with no exit code, and nothing runs."""
    try:
        source = program.encode("utf-8")
    except UnicodeEncodeError as exc:
        return ExecutionResult(status=ExecStatus.ERROR, stdout="", stderr=f"the program text is not UTF-8: {exc}",
                               exit_code=None)
    cpu = max(1, int(limits.per_run_timeout) + 2)
    exit_code, timed_out, (stdout, stderr), (stdout_cut, stderr_cut) = _run(
        b"%d" % cpu, source, limits.per_run_timeout, limits.output_cap
    )
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
class DebugLoopOutcome:
    """The team of the first program whose output parsed, or None if no
    program gave one; every attempt, in the form records embed; and the
    raw exchanges."""

    team: frozenset[int] | None
    attempts: list[dict[str, Any]]
    exchanges: list[dict[str, Any]]

    @property
    def attempts_used(self) -> int:
        return len(self.attempts)

    @property
    def fell_back(self) -> bool:
        return self.team is None


def self_debug_loop(
    llm: LLMClient,
    prompt: str,
    team_n: int,
    limits: DebugLoopConfig,
    temperature: float = 0.0,
) -> DebugLoopOutcome:
    """Generate, run, and revise programs until one yields a team of `team_n`."""
    conversation: list[ChatMessage] = [ChatMessage("user", prompt)]
    attempts: list[dict[str, Any]] = []
    exchanges: list[dict[str, Any]] = []
    for _ in range(limits.max_attempts):
        response = logged_complete(llm, conversation, temperature, "code_generation", exchanges)
        program = extract_program(response)
        result = execute_sandboxed(program, limits)
        attempt = {"response": response, "program": program, "result": result.to_dict(), "issue": None, "parsed_ids": []}
        attempts.append(attempt)
        if result.status is ExecStatus.OK:
            try:
                return DebugLoopOutcome(parse_final_team(result, team_n), attempts, exchanges)
            except ParseError as exc:
                attempt["issue"] = f"unusable output: {exc}"
                attempt["parsed_ids"] = list(exc.ids)
        else:
            attempt["issue"] = f"execution {result.status.value}"
        conversation = conversation + [
            ChatMessage("assistant", response),
            ChatMessage(
                "user",
                render(
                    "codeact_revise",
                    program=program,
                    issue=attempt["issue"],
                    stdout=result.stdout or "(empty)",
                    stderr=result.stderr or "(empty)",
                    TEAM_NUMBER=team_n,
                ),
            ),
        ]
    return DebugLoopOutcome(None, attempts, exchanges)
