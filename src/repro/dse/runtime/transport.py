"""Distributed DSE over a supervised socket transport.

This module lets the evaluation side of the runtime leave the machine: a
:class:`RemotePoolBackend` on the coordinator dispatches ``(kernel key,
encoded point)`` tasks to *worker agents* (``repro-hls worker-agent
--connect HOST:PORT``) over TCP, and gets back the exact ``(tag, record,
telemetry)`` tuples the local backends exchange — the wire contract is the
guarded task of :mod:`repro.dse.runtime.worker`, unchanged.

Protocol
--------

Length-prefixed frames: an 12-byte header (``!4sII`` — magic ``RDSE``,
payload length, CRC-32 of the payload) followed by a pickled ``(kind,
data)`` payload.  A frame with a bad magic, an oversized length or a
checksum mismatch poisons the stream: the connection is closed and its
in-flight task is requeued (this is how the ``garbage-frame`` chaos fault
is detected).  Pickle implies a *trusted network* — worker agents are part
of the deployment, not an open endpoint.

Handshake::

    agent → coordinator   hello    {protocol, session, agent}
    coordinator → agent   welcome  {session, payload, pipeline, heartbeat_interval}
                          (or reject {error} — actionable, agent exits)
    agent → coordinator   ready    {pipeline, agent}

``session`` is a fingerprint over the run's design spaces, platform
configurations and transform-pipeline signature: a reconnecting agent
echoes the fingerprint it last handshook, and an agent carrying a
different session (stale process, wrong coordinator) is *rejected* with an
actionable error instead of silently being fed tasks.  ``payload`` is the
same pickled ``(contexts, pipelines)`` registry the process pool ships to
its workers; the agent installs it with the worker initializer and then
verifies its own pipeline signature against the coordinator's
(version-skew guard, same as local workers).

Steady state: the coordinator sends ``task {id, key, encoded, traced}``
frames; the agent replies ``result {id, tag, payload, telemetry}`` and
emits ``heartbeat`` frames from a background thread the whole time (also
*during* long evaluations, so silence specifically means transport
trouble).  ``shutdown`` ends an agent cleanly.

Fault attribution
-----------------

* **Charged** — the agent *reported* an evaluation error, or the task
  exceeded ``--task-timeout`` while its connection stayed healthy: the
  design point is at fault, exactly as on the local backends.
* **Uncharged** — the connection broke, garbled, or went silent past the
  heartbeat window before a result arrived: the point is innocent.  The
  link reports it ``lost`` and the supervisor requeues it, retry budget
  untouched, for the next healthy agent.  A stale result can never be
  double-counted: giving up on a task *is* closing its connection, so the
  agent's late send fails and it re-joins through a fresh handshake.

Dispatch, retries, quarantine and telemetry absorption are
:class:`~repro.dse.runtime.worker.Supervisor`'s, shared with the local
backends, so the frontier is byte-identical whether evaluation ran serial,
in a local pool, or across N agents with mid-run disconnects — which is
what the transport chaos tests byte-compare.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from typing import Optional

from repro import obs
from repro.dse.runtime import worker as worker_mod
from repro.dse.runtime.config import SweepConfig
from repro.dse.runtime.faults import EvaluationFailure, backoff_delay

#: Bumped on every incompatible frame/handshake change; agents and
#: coordinators refuse to pair across versions.
PROTOCOL_VERSION = 1

_MAGIC = b"RDSE"
_HEADER = struct.Struct("!4sII")

#: Ceiling on a single frame payload (the context registry of a large model
#: is a few MB; anything near this is a corrupt length field).
MAX_FRAME_BYTES = 1 << 30

#: Reconnect sleeps are exponential but capped, so an agent that outlives
#: its coordinator spends its retry budget in minutes, not centuries.
_MAX_RECONNECT_DELAY = 5.0


class FrameError(ConnectionError):
    """A malformed frame arrived: the stream can no longer be trusted."""


class AgentError(RuntimeError):
    """The coordinator rejected this agent — actionable, never retried."""


# -- framing --------------------------------------------------------------------------------


def send_frame(sock: socket.socket, kind: str, data,
               lock: Optional[threading.Lock] = None) -> None:
    """Send one ``(kind, data)`` frame (atomically, when ``lock`` given)."""
    payload = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
    frame = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload
    if lock is None:
        sock.sendall(frame)
    else:
        with lock:
            sock.sendall(frame)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        try:
            chunk = sock.recv(min(count, 1 << 20))
        except socket.timeout:
            if chunks:
                # A timeout before any byte is an idle poll (callers retry);
                # a timeout *mid-frame* leaves the stream desynchronized —
                # frames are sent atomically, so a healthy peer never stalls
                # here — and must poison the connection instead.
                raise FrameError("timed out mid-frame")
            raise
        if not chunk:
            raise ConnectionError("connection closed by peer")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Receive one frame; raise :class:`FrameError` on any corruption.

    A ``socket.timeout`` before the first byte of a frame is re-raised
    as-is (an idle poll); a timeout once a frame started is a
    :class:`FrameError`, because the stream position is lost.
    """
    magic, length, checksum = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if magic != _MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"oversized frame ({length} bytes)")
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) != checksum:
        raise FrameError("frame checksum mismatch")
    try:
        kind, data = pickle.loads(payload)
    except Exception as error:  # any unpickling failure poisons the stream
        raise FrameError(f"undecodable frame payload "
                         f"({worker_mod._describe_error(error)})")
    return kind, data


def _corrupt_frame() -> bytes:
    """A syntactically plausible frame with a wrong checksum (chaos only)."""
    payload = pickle.dumps(("result", {"id": -1}))
    return _HEADER.pack(_MAGIC, len(payload),
                        zlib.crc32(payload) ^ 0xFFFFFFFF) + payload


def session_fingerprint(contexts: dict, pipeline_signature: str) -> str:
    """Fingerprint of everything that must match between the two sides.

    Covers the protocol version, the transform-pipeline signature, and each
    kernel's design-space fingerprint and platform configuration hash — the
    exact inputs that make evaluation a pure function.  Two runs with the
    same fingerprint are interchangeable for a worker agent; anything else
    is a re-handshake rejection.
    """
    parts = [f"protocol={PROTOCOL_VERSION}", f"pipeline={pipeline_signature}"]
    for key in sorted(contexts):
        context = contexts[key]
        parts.append(f"{key}:{context.space.fingerprint()}"
                     f":{context.platform.config_hash()}")
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:20]


# -- coordinator side -----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TransportConfig:
    """How a coordinator exposes itself to worker agents.

    ``spawn_workers`` local agents are launched as subprocesses connecting
    over loopback; ``host``/``port`` additionally accept external agents
    (``port=0`` binds an ephemeral port, fine for purely local runs).
    ``min_workers`` is how many connected agents :meth:`~RemotePoolBackend.
    warm_up` waits for (default: the spawned count, at least one).

    Heartbeat settings bound dead-agent detection: an agent is presumed
    gone when its connection stays silent for ``heartbeat_timeout`` seconds
    while a task is in flight — agents heartbeat every
    ``heartbeat_interval`` seconds even mid-evaluation, so silence means
    transport trouble, not a slow point (slow points are the *charged*
    ``task_timeout``'s business).  ``max_requeues`` is a fail-safe against
    livelock from a point whose dispatch kills every agent; it is far above
    anything a real run should hit.
    """

    host: str = "127.0.0.1"
    port: int = 0
    spawn_workers: int = 0
    min_workers: Optional[int] = None
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 10.0
    connect_timeout: float = 60.0
    reconnect_base: float = 0.25
    max_requeues: int = 100

    @property
    def expected_workers(self) -> int:
        if self.min_workers is not None:
            return max(1, self.min_workers)
        return max(1, self.spawn_workers)


class _SocketLink:
    """One handshaken agent connection.  A broken, garbled or silent one
    reports an *uncharged* ``lost``; only a deadline blown while it stayed
    healthy is a charged ``timeout``.  Either way the link is finished:
    closing the socket is what keeps the agent's late result from ever
    being counted, and the agent re-joins through a fresh handshake."""

    def __init__(self, sock: socket.socket, heartbeat_timeout: float,
                 task_timeout: Optional[float]):
        self._sock = sock
        self._heartbeat_timeout = heartbeat_timeout
        self._task_timeout = task_timeout
        self._sent = 0
        self.alive = True

    def _drop(self, kind: str, cause: str):
        self.alive = False
        obs.counter("dse.transport.disconnects")
        return kind, cause, None

    def run(self, key: str, encoded: tuple, traced: bool):
        self._sent += 1  # a result must echo the id of the task it answers
        now = time.monotonic()
        task_deadline = now + (self._task_timeout or math.inf)
        heartbeat_deadline = now + self._heartbeat_timeout
        try:
            send_frame(self._sock, "task", {"id": self._sent, "key": key,
                                            "encoded": encoded,
                                            "traced": traced})
            while True:
                now = time.monotonic()
                if now >= task_deadline:
                    # The agent is presumed stuck inside the evaluation.
                    return self._drop(
                        worker_mod._TIMEOUT,
                        f"evaluation exceeded the task timeout of "
                        f"{self._task_timeout:g}s")
                if now >= heartbeat_deadline:
                    obs.counter("dse.transport.heartbeat_misses")
                    return self._drop(worker_mod._LOST, "heartbeat missed")
                wait = min(heartbeat_deadline, task_deadline) - now
                self._sock.settimeout(max(wait, 0.01))
                try:
                    kind, data = recv_frame(self._sock)
                except socket.timeout:
                    continue
                if kind == "heartbeat":
                    heartbeat_deadline = time.monotonic() \
                        + self._heartbeat_timeout
                elif kind == "result" and data.get("id") == self._sent:
                    return (data.get("tag"), data.get("payload"),
                            data.get("telemetry"))
        except FrameError:
            obs.counter("dse.transport.garbage_frames")
            return self._drop(worker_mod._LOST, "garbage frame")
        except (ConnectionError, OSError):
            return self._drop(worker_mod._LOST, "connection lost")

    def abort(self) -> None:
        self.alive = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked recv
        except OSError:
            pass

    def close(self) -> None:
        if self.alive:
            try:
                send_frame(self._sock, "shutdown", {})  # the agent exits
            except OSError:
                pass
        _close_quietly(self._sock)


class RemotePoolBackend(worker_mod.Supervisor):
    """Socket-transport sibling of ``ProcessPoolBackend``: one listener
    thread accepts worker agents, and each connection's thread handshakes
    and then serves its :class:`_SocketLink` as a supervisor slot."""

    def __init__(self, contexts: dict, config: SweepConfig,
                 stop_event: Optional[threading.Event] = None):
        from repro.dse.apply import kernel_pipeline_signature

        super().__init__(contexts, config, stop_event)
        self._transport: TransportConfig = config.transport
        self._max_requeues = self._transport.max_requeues
        self._starve_seconds = self._transport.connect_timeout
        self._signature = kernel_pipeline_signature()
        self._payload = worker_mod._worker_payload(contexts)
        self._session = session_fingerprint(contexts, self._signature)
        self._agents: list[subprocess.Popen] = []
        self._listener: Optional[socket.socket] = None
        #: The bound ``(host, port)`` once :meth:`start` ran.
        self.address: Optional[tuple[str, int]] = None

    # -- lifecycle --------------------------------------------------------------------------

    def start(self) -> None:
        """Bind the listener and launch any local agents (idempotent)."""
        with self._lock:
            if self._listener is not None:
                return
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener = self._listener
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._transport.host, self._transport.port))
        listener.listen(16)
        listener.settimeout(0.2)
        self.address = listener.getsockname()[:2]
        threading.Thread(target=self._accept_loop, name="transport-accept",
                         daemon=True).start()
        if self._transport.spawn_workers:
            self._spawn_agents(self._transport.spawn_workers)

    def _spawn_agents(self, count: int) -> None:
        import repro

        source_root = os.path.dirname(
            os.path.abspath(next(iter(repro.__path__))))
        env = dict(os.environ)
        env["PYTHONPATH"] = source_root + os.pathsep \
            + env.get("PYTHONPATH", "")
        host, port = self.address
        if host in ("", "0.0.0.0", "::"):
            host = "127.0.0.1"
        for index in range(count):
            # -c instead of -m: repro.tools re-exports the driver from its
            # __init__, and runpy warns when the target module is already
            # imported as a side effect of importing its package.
            command = [sys.executable, "-c",
                       "import sys; from repro.tools.driver import main; "
                       "sys.exit(main(sys.argv[1:]))",
                       "worker-agent", "--connect", f"{host}:{port}",
                       "--agent-id", f"local-{index}",
                       "--reconnect-base",
                       str(self._transport.reconnect_base)]
            # stdout stays quiet (a coordinator's stdout may be a frontier
            # JSON byte-compare); agent status lines go to inherited stderr.
            self._agents.append(subprocess.Popen(
                command, env=env, stdout=subprocess.DEVNULL))

    def warm_up(self) -> None:
        """Block until the expected number of agents handshook."""
        self.start()
        self._await_workers(self._transport.expected_workers)

    def _ready(self) -> None:
        self.start()
        self._await_workers(1)

    def _await_workers(self, count: int) -> None:
        deadline = time.monotonic() + self._transport.connect_timeout
        while len(self._links) < count:
            worker_mod._check_stop(self._stop_event)
            if time.monotonic() >= deadline:
                host, port = self.address
                raise EvaluationFailure(
                    f"no worker agent connected within "
                    f"{self._transport.connect_timeout:g}s (need {count}, "
                    f"have {len(self._links)}); start agents with "
                    f"'repro-hls worker-agent --connect {host}:{port}' or "
                    f"pass --workers N to spawn local ones")
            time.sleep(0.05)

    def close(self) -> None:
        if self._listener is not None:
            _close_quietly(self._listener)
        # Each slot sends its agent a clean shutdown frame on the way out.
        super().close()
        for process in self._agents:
            if process.poll() is None:
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        self._agents.clear()

    # -- accepting and serving connections --------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(sock,),
                name=f"transport-conn-{addr[0]}:{addr[1]}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def _handshake(self, sock: socket.socket) -> bool:
        """Run the coordinator side of the handshake; False means the agent
        was told why it is rejected."""
        sock.settimeout(max(self._transport.heartbeat_timeout, 5.0))
        kind, data = recv_frame(sock)
        if kind != "hello":
            raise FrameError(f"expected hello, got {kind!r}")
        if data.get("protocol") != PROTOCOL_VERSION:
            send_frame(sock, "reject", {"error": (
                f"protocol version mismatch: coordinator speaks "
                f"v{PROTOCOL_VERSION}, agent speaks "
                f"v{data.get('protocol')} — upgrade the older side")})
            return False
        presented = data.get("session", "")
        if presented and presented != self._session:
            send_frame(sock, "reject", {"error": (
                f"session fingerprint mismatch: this coordinator runs "
                f"session {self._session} (pipeline '{self._signature}') "
                f"but the agent last handshook session {presented} — the "
                f"agent belongs to a different run; restart it against "
                f"this coordinator")})
            return False
        send_frame(sock, "welcome", {
            "session": self._session,
            "payload": self._payload,
            "pipeline": self._signature,
            "heartbeat_interval": self._transport.heartbeat_interval,
        })
        kind, data = recv_frame(sock)
        if kind != "ready":
            raise FrameError(f"expected ready, got {kind!r}")
        if data.get("pipeline") != self._signature:
            send_frame(sock, "reject", {"error": (
                f"worker pipeline mismatch: coordinator evaluates under "
                f"'{self._signature}' but the agent would run "
                f"'{data.get('pipeline')}' — coordinator and agents must "
                f"run the same code version")})
            return False
        return True

    def _serve_connection(self, sock: socket.socket) -> None:
        try:
            admitted = self._handshake(sock)
        except (ConnectionError, OSError):  # FrameError is a ConnectionError
            admitted = False
        if not admitted:
            _close_quietly(sock)
            return
        obs.counter("dse.transport.connects")
        self._serve(_SocketLink(sock, self._transport.heartbeat_timeout,
                                self._config.supervision.task_timeout))


def _close_quietly(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


# -- worker-agent side ----------------------------------------------------------------------


def _transport_plan():
    """The installed fault plan, when it targets the transport layer."""
    for context in worker_mod._WORKER_CONTEXTS.values():
        plan = context.faults
        if plan is not None and plan.transport_fault:
            return plan
    return None


def _serve_agent(sock: socket.socket, agent_id: str, session: str,
                 handshook: Optional[list] = None):
    """Serve one connection; returns ``(outcome, session)`` where outcome
    is ``"shutdown"`` (clean exit) or ``"retry"`` (reconnect).

    ``handshook`` (a mutable flag list) is marked as soon as the handshake
    completes, so the caller can distinguish a mid-serve connection drop
    (reconnect with a fresh attempt budget) from a coordinator that was
    never reachable (counts against ``max_reconnects``) even when this
    function unwinds with an exception.
    """
    from repro.dse.apply import kernel_pipeline_signature

    lock = threading.Lock()
    sock.settimeout(30.0)  # the handshake must be prompt
    send_frame(sock, "hello", {"protocol": PROTOCOL_VERSION,
                               "session": session, "agent": agent_id}, lock)
    kind, data = recv_frame(sock)
    if kind == "reject":
        raise AgentError(data.get("error", "rejected by coordinator"))
    if kind != "welcome":
        raise FrameError(f"expected welcome, got {kind!r}")
    session = data["session"]
    worker_mod._init_worker(data["payload"])
    send_frame(sock, "ready", {"pipeline": kernel_pipeline_signature(),
                               "agent": agent_id}, lock)
    if handshook is not None:
        handshook.append(True)
    sock.settimeout(None)
    plan = _transport_plan()
    interval = float(data.get("heartbeat_interval", 1.0))
    stop = threading.Event()
    paused = threading.Event()

    def _heartbeats() -> None:
        # Runs for the life of the connection — including while the main
        # thread is deep inside an evaluation — so the coordinator can tell
        # "slow point" (heartbeats flowing) from "dead transport" (silence).
        while not stop.wait(interval):
            if paused.is_set():
                continue
            try:
                send_frame(sock, "heartbeat", {}, lock)
            except OSError:
                return

    beater = threading.Thread(target=_heartbeats, daemon=True,
                              name=f"heartbeat-{agent_id}")
    beater.start()
    try:
        while True:
            kind, message = recv_frame(sock)
            if kind == "shutdown":
                return "shutdown", session
            if kind == "reject":
                raise AgentError(message.get("error", "rejected"))
            if kind != "task":
                continue
            key = message["key"]
            encoded = tuple(message["encoded"])
            action = plan.transport_action(key, encoded) if plan else None
            if action == "disconnect":
                return "retry", session  # drop the link, result unsent
            if action == "garbage-frame":
                with lock:
                    sock.sendall(_corrupt_frame())
                return "retry", session
            if action == "stall":
                # Go silent long enough to blow the heartbeat window, then
                # come back (the coordinator has moved on; our next send
                # fails and we re-join through a fresh handshake).
                paused.set()
                time.sleep(plan.hang_seconds)
                paused.clear()
            tag, payload, telemetry = worker_mod._evaluate_task(
                key, encoded, message["traced"])
            send_frame(sock, "result", {"id": message["id"], "tag": tag,
                                        "payload": payload,
                                        "telemetry": telemetry}, lock)
    finally:
        stop.set()
        beater.join(timeout=interval + 1.0)


def run_worker_agent(host: str, port: int, agent_id: str = "",
                     reconnect_base: float = 0.25,
                     max_reconnects: int = 30) -> int:
    """The agent main loop: connect, serve, re-join on failure.

    Reconnect sleeps follow the shared deterministic schedule
    (:func:`~repro.dse.runtime.faults.backoff_delay`, capped at
    ``_MAX_RECONNECT_DELAY``).  Exit codes: 0 — coordinator shut us down;
    2 — rejected with an actionable error (printed); 3 — the coordinator
    stayed unreachable for ``max_reconnects`` attempts.
    """
    agent_id = agent_id or f"agent-{os.getpid()}"
    session = ""
    attempt = 0
    while True:
        if attempt:
            if attempt > max_reconnects:
                print(f"worker-agent {agent_id}: giving up on {host}:{port} "
                      f"after {attempt - 1} reconnect attempts",
                      file=sys.stderr)
                return 3
            time.sleep(min(backoff_delay(attempt, reconnect_base),
                           _MAX_RECONNECT_DELAY))
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            attempt += 1
            continue
        handshook: list = []
        try:
            outcome, session = _serve_agent(sock, agent_id, session,
                                            handshook)
        except AgentError as error:
            print(f"worker-agent {agent_id}: rejected by coordinator: "
                  f"{error}", file=sys.stderr)
            return 2
        except (FrameError, ConnectionError, OSError):
            outcome = "retry"
        finally:
            _close_quietly(sock)
        if outcome == "shutdown":
            print(f"worker-agent {agent_id}: coordinator shut down cleanly",
                  file=sys.stderr)
            return 0
        # A post-handshake drop re-joins after one base backoff step; a
        # coordinator that vanished for good is caught by the attempt cap
        # once connects start failing outright.
        attempt = 1 if handshook else attempt + 1
