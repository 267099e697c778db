"""Tests for the distributed DSE transport: frame (de)serialization, the
shared deterministic backoff schedule, session-fingerprint handshakes,
frontier parity between serial / local-pool / remote-agent topologies, and
transport-level chaos (disconnects, garbage frames, stalls, killed agents)
with charged-vs-uncharged fault attribution."""

import os
import socket

import pytest

from repro import obs
from repro.dse import KernelDesignSpace
from repro.dse.runtime import (
    FaultPlan,
    ParallelExplorer,
    RemotePoolBackend,
    SupervisionPolicy,
    SweepConfig,
    TransportConfig,
    backoff_delay,
)
from repro.dse.runtime.transport import (
    _MAX_RECONNECT_DELAY,
    PROTOCOL_VERSION,
    FrameError,
    _corrupt_frame,
    recv_frame,
    send_frame,
    session_fingerprint,
)
from repro.dse.runtime.worker import KernelContext
from repro.estimation import XC7Z020
from repro.tools.driver import build_parser, main

from conftest import GEMM_SOURCE, compile_source


def frontier_signature(result):
    """Byte-comparable rendering of a frontier (encoded point + objectives)."""
    return repr([(p.encoded, p.latency, p.area) for p in result.frontier])


def small_explorer(**overrides):
    config = dict(num_samples=6, max_iterations=8, seed=11, jobs=1,
                  batch_size=4)
    config.update(overrides)
    return ParallelExplorer(XC7Z020, SweepConfig(**config))


def fast_policy(**overrides):
    """A supervision policy with near-zero backoff so retries don't stall tests."""
    config = dict(max_retries=2, backoff=0.001)
    config.update(overrides)
    return SupervisionPolicy(**config)


def fast_transport(**overrides):
    """Loopback transport tuned for test latency: quick heartbeats and
    near-instant agent reconnects."""
    config = dict(spawn_workers=2, heartbeat_interval=0.2,
                  heartbeat_timeout=5.0, connect_timeout=60.0,
                  reconnect_base=0.05)
    config.update(overrides)
    return TransportConfig(**config)


@pytest.fixture
def gemm_module():
    return compile_source(GEMM_SOURCE, "gemm")


def _context(module, faults=None):
    space = KernelDesignSpace.from_function(module.functions()[0])
    return KernelContext(module=module, func_name=None, platform=XC7Z020,
                         space=space, faults=faults)


# -- framing --------------------------------------------------------------------------------


class TestFraming:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        return left, right

    def test_round_trip(self):
        left, right = self._pair()
        try:
            send_frame(left, "task", {"id": 7, "encoded": (1, 2, 3)})
            assert recv_frame(right) == ("task", {"id": 7,
                                                  "encoded": (1, 2, 3)})
        finally:
            left.close()
            right.close()

    def test_corrupt_frame_rejected(self):
        left, right = self._pair()
        try:
            left.sendall(_corrupt_frame())
            with pytest.raises(FrameError, match="checksum mismatch"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_bad_magic_rejected(self):
        left, right = self._pair()
        try:
            send_frame(left, "task", {"id": 1})
            # Stomp the magic without touching the rest of the stream.
            data = right.recv(1 << 16)
            patched = b"XXXX" + data[4:]
            other_left, other_right = self._pair()
            try:
                other_left.sendall(patched)
                with pytest.raises(FrameError, match="bad frame magic"):
                    recv_frame(other_right)
            finally:
                other_left.close()
                other_right.close()
        finally:
            left.close()
            right.close()

    def test_oversized_length_rejected(self):
        import struct

        from repro.dse.runtime import transport

        left, right = self._pair()
        try:
            header = struct.pack("!4sII", b"RDSE",
                                 transport.MAX_FRAME_BYTES + 1, 0)
            left.sendall(header)
            with pytest.raises(FrameError, match="oversized frame"):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_undecodable_payload_rejected(self):
        import struct
        import zlib

        left, right = self._pair()
        try:
            payload = b"this is not a pickle"
            left.sendall(struct.pack("!4sII", b"RDSE", len(payload),
                                     zlib.crc32(payload)) + payload)
            with pytest.raises(FrameError, match="undecodable frame payload"):
                recv_frame(right)
        finally:
            left.close()
            right.close()


# -- the shared backoff schedule ------------------------------------------------------------


class TestBackoffDelay:
    def test_schedule_doubles_from_base(self):
        assert [backoff_delay(n, 0.25) for n in range(5)] \
            == [0.25, 0.25, 0.5, 1.0, 2.0]

    def test_supervision_policy_uses_shared_schedule(self):
        # Satellite contract: evaluation retries and agent reconnects pace
        # themselves off the *same* public function.
        policy = SupervisionPolicy(backoff=0.5)
        for attempt in (1, 2, 3, 7):
            assert policy.backoff_seconds(attempt) \
                == backoff_delay(attempt, policy.backoff)

    def test_reconnect_cap_bounds_the_schedule(self):
        # An agent sleeping min(backoff_delay, cap) never waits minutes.
        assert min(backoff_delay(30, 0.25), _MAX_RECONNECT_DELAY) \
            == _MAX_RECONNECT_DELAY


# -- session fingerprints -------------------------------------------------------------------


class TestSessionFingerprint:
    def test_stable_and_sensitive(self, gemm_module):
        contexts = {"kernel": _context(gemm_module)}
        first = session_fingerprint(contexts, "pipe-a")
        assert first == session_fingerprint(contexts, "pipe-a")
        assert first != session_fingerprint(contexts, "pipe-b")
        assert first != session_fingerprint({}, "pipe-a")
        assert len(first) == 20


# -- handshake rejections -------------------------------------------------------------------


class TestHandshakeRejection:
    @pytest.fixture
    def backend(self, gemm_module):
        backend = RemotePoolBackend({"kernel": _context(gemm_module)},
                                    SweepConfig(transport=TransportConfig()))
        backend.start()
        yield backend
        backend.close()

    def _connect(self, backend):
        sock = socket.create_connection(backend.address, timeout=5.0)
        sock.settimeout(5.0)
        return sock

    def test_protocol_mismatch_rejected(self, backend):
        sock = self._connect(backend)
        try:
            send_frame(sock, "hello", {"protocol": PROTOCOL_VERSION + 1,
                                       "session": "", "agent": "test"})
            kind, data = recv_frame(sock)
            assert kind == "reject"
            assert "protocol version mismatch" in data["error"]
        finally:
            sock.close()

    def test_stale_session_rejected(self, backend):
        sock = self._connect(backend)
        try:
            send_frame(sock, "hello", {"protocol": PROTOCOL_VERSION,
                                       "session": "f" * 20, "agent": "test"})
            kind, data = recv_frame(sock)
            assert kind == "reject"
            assert "session fingerprint mismatch" in data["error"]
            assert "restart it against this coordinator" in data["error"]
        finally:
            sock.close()

    def test_pipeline_mismatch_rejected(self, backend):
        sock = self._connect(backend)
        try:
            send_frame(sock, "hello", {"protocol": PROTOCOL_VERSION,
                                       "session": "", "agent": "test"})
            kind, data = recv_frame(sock)
            assert kind == "welcome"
            assert data["session"] == backend._session
            send_frame(sock, "ready", {"pipeline": "bogus-signature",
                                       "agent": "test"})
            kind, data = recv_frame(sock)
            assert kind == "reject"
            assert "worker pipeline mismatch" in data["error"]
        finally:
            sock.close()


# -- frontier parity across topologies ------------------------------------------------------


class TestRemoteParity:
    def test_two_agents_match_serial_byte_for_byte(self, gemm_module):
        clean = small_explorer().explore(gemm_module)
        backend = RemotePoolBackend(
            {"kernel": _context(gemm_module)},
            SweepConfig(transport=fast_transport(),
                        supervision=fast_policy()))
        try:
            with obs.session() as session:
                backend.warm_up()  # both agents handshake before any task
                remote = small_explorer().explore(gemm_module,
                                                  backend=backend)
        finally:
            backend.close()
        counters = session.metrics.counters
        assert counters.get("dse.transport.connects", 0) >= 2
        assert counters.get("dse.transport.requeues", 0) == 0
        assert frontier_signature(remote) == frontier_signature(clean)
        assert set(remote.records) == set(clean.records)

    def test_explorer_owned_transport_matches_serial(self, gemm_module):
        # The explorer builds (and tears down) the RemotePoolBackend itself
        # when given a transport config — the `--workers N` code path.
        clean = small_explorer().explore(gemm_module)
        remote = small_explorer(
            transport=fast_transport(spawn_workers=1),
            supervision=fast_policy()).explore(gemm_module)
        assert frontier_signature(remote) == frontier_signature(clean)
        assert set(remote.records) == set(clean.records)


# -- transport chaos ------------------------------------------------------------------------


class TestTransportChaos:
    def _chaotic(self, module, plan, transport, **overrides):
        with obs.session() as session:
            result = small_explorer(transport=transport, faults=plan,
                                    supervision=fast_policy(),
                                    **overrides).explore(module)
        return result, session.metrics.counters

    def test_disconnect_is_uncharged_and_identical(self, gemm_module,
                                                   tmp_path):
        clean = small_explorer().explore(gemm_module)
        plan = FaultPlan(mode="disconnect", select=3, times=1,
                         state_dir=str(tmp_path / "ledger"))
        result, counters = self._chaotic(gemm_module, plan, fast_transport())
        assert os.listdir(plan.state_dir)  # faults actually fired
        assert counters.get("dse.transport.disconnects", 0) >= 1
        assert counters.get("dse.transport.requeues", 0) >= 1
        # Uncharged: innocent points never burn retries, never quarantine.
        assert result.num_quarantined == 0
        assert counters.get("dse.faults.retries", 0) == 0
        assert frontier_signature(result) == frontier_signature(clean)
        assert set(result.records) == set(clean.records)

    def test_garbage_frame_poisons_connection(self, gemm_module, tmp_path):
        clean = small_explorer().explore(gemm_module)
        plan = FaultPlan(mode="garbage-frame", select=3, times=1,
                         state_dir=str(tmp_path / "ledger"))
        result, counters = self._chaotic(gemm_module, plan, fast_transport())
        assert os.listdir(plan.state_dir)
        assert counters.get("dse.transport.garbage_frames", 0) >= 1
        assert counters.get("dse.transport.requeues", 0) >= 1
        assert result.num_quarantined == 0
        assert frontier_signature(result) == frontier_signature(clean)

    def test_stall_blows_heartbeat_window(self, gemm_module, tmp_path):
        clean = small_explorer().explore(gemm_module)
        plan = FaultPlan(mode="stall", select=3, times=1, hang_seconds=2.0,
                         state_dir=str(tmp_path / "ledger"))
        transport = fast_transport(heartbeat_interval=0.2,
                                   heartbeat_timeout=1.0)
        result, counters = self._chaotic(gemm_module, plan, transport)
        assert os.listdir(plan.state_dir)
        assert counters.get("dse.transport.heartbeat_misses", 0) >= 1
        assert counters.get("dse.transport.requeues", 0) >= 1
        assert result.num_quarantined == 0
        assert frontier_signature(result) == frontier_signature(clean)

    def test_poison_quarantines_identically_over_transport(self, gemm_module,
                                                           tmp_path):
        # Charged faults: a worker-*reported* error consumes retries and
        # quarantines byte-identically at any topology.
        plan = FaultPlan(mode="poison", select=2,
                         state_dir=str(tmp_path / "ledger"))
        config = dict(faults=plan, supervision=fast_policy(max_retries=1))
        serial = small_explorer(**config).explore(gemm_module)
        remote = small_explorer(transport=fast_transport(),
                                **config).explore(gemm_module)
        assert serial.num_quarantined > 0
        quarantined = lambda r: [(rec.encoded, rec.status, rec.error)
                                 for rec in r.quarantined_records()]
        assert quarantined(remote) == quarantined(serial)
        assert frontier_signature(remote) == frontier_signature(serial)
        assert set(remote.records) == set(serial.records)


class _KillAgentAfterFirstBatch:
    """Backend wrapper that SIGKILLs one agent subprocess between the first
    and second evaluated batch — a deterministic mid-run crash (a timer
    could land after a fast sweep already finished and prove nothing)."""

    def __init__(self, inner):
        self._inner = inner
        self.killed = False

    def evaluate(self, key, batch):
        records = self._inner.evaluate(key, batch)
        if not self.killed:
            self._inner._agents[0].kill()  # SIGKILL, no cleanup
            self.killed = True
        return records

    def close(self):
        self._inner.close()


class TestAgentKilledMidRun:
    def test_sigkill_agent_is_uncharged_and_identical(self, gemm_module):
        clean = small_explorer().explore(gemm_module)
        remote = RemotePoolBackend(
            {"kernel": _context(gemm_module)},
            SweepConfig(transport=fast_transport(heartbeat_interval=0.1,
                                                 heartbeat_timeout=1.0),
                        supervision=fast_policy()))
        backend = _KillAgentAfterFirstBatch(remote)
        try:
            with obs.session() as session:
                remote.warm_up()  # both agents join before the first batch
                result = small_explorer().explore(gemm_module,
                                                  backend=backend)
        finally:
            backend.close()
        assert backend.killed, "agent was never killed — test proved nothing"
        counters = session.metrics.counters
        # Every batch after the kill must route around the dead connection:
        # its in-flight task comes back uncharged and the drop is counted.
        assert counters.get("dse.transport.disconnects", 0) >= 1
        assert counters.get("dse.transport.requeues", 0) >= 1
        # The kill is a transport fault, never the point's fault: no retry
        # budget burned, no spurious quarantine, same frontier.
        assert result.num_quarantined == 0
        assert counters.get("dse.faults.retries", 0) == 0
        assert frontier_signature(result) == frontier_signature(clean)
        assert set(result.records) == set(clean.records)


# -- pool kill-error surfacing --------------------------------------------------------------


class _UnkillableProcess:
    pid = 4242

    def kill(self):
        raise OSError("process handle already closed")


class TestKillErrorsSurfaced:
    def test_kill_warns_and_counts(self):
        from repro.dse.runtime.worker import _kill_worker

        with obs.session() as session:
            with pytest.warns(RuntimeWarning,
                              match="failed to kill worker process 4242"):
                _kill_worker(_UnkillableProcess())
        assert session.metrics.counters.get("dse.pool.kill_errors") == 1


# -- driver surface -------------------------------------------------------------------------


class TestDriverTransportFlags:
    def test_dse_accepts_transport_flags(self):
        args = build_parser().parse_args(
            ["dse", "--kernel", "gemm", "--listen", "127.0.0.1:7870",
             "--workers", "2"])
        assert args.listen == "127.0.0.1:7870"
        assert args.workers == 2

    def test_dnn_accepts_transport_flags(self):
        args = build_parser().parse_args(
            ["dnn", "mobilenet", "--dse", "--workers", "1"])
        assert args.workers == 1
        assert args.listen is None

    def test_bad_listen_rejected(self):
        with pytest.raises(SystemExit, match="HOST:PORT"):
            main(["dse", "--kernel", "gemm", "--size", "8", "--samples", "2",
                  "--iterations", "1", "--listen", "nonsense"])

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit, match="--workers must be >= 0"):
            main(["dse", "--kernel", "gemm", "--size", "8", "--samples", "2",
                  "--iterations", "1", "--workers", "-1"])

    def test_zero_task_timeout_rejected(self):
        with pytest.raises(SystemExit, match="--task-timeout must be a "
                                             "positive number"):
            main(["dse", "--kernel", "gemm", "--size", "8", "--samples", "2",
                  "--iterations", "1", "--task-timeout", "0"])

    def test_negative_max_retries_rejected(self):
        with pytest.raises(SystemExit, match="--max-retries must be >= 0"):
            main(["dse", "--kernel", "gemm", "--size", "8", "--samples", "2",
                  "--iterations", "1", "--max-retries", "-1"])

    def test_dnn_validates_supervision_flags_too(self):
        with pytest.raises(SystemExit, match="--task-timeout"):
            main(["dnn", "mobilenet", "--dse", "--smoke",
                  "--task-timeout", "-3"])

    def test_worker_agent_bad_connect_rejected(self):
        with pytest.raises(SystemExit, match="--connect expects HOST:PORT"):
            main(["worker-agent", "--connect", "nowhere"])

    def test_worker_agent_bad_reconnect_base_rejected(self):
        with pytest.raises(SystemExit, match="--reconnect-base"):
            main(["worker-agent", "--connect", "127.0.0.1:7870",
                  "--reconnect-base", "0"])

    def test_worker_agent_bad_max_reconnects_rejected(self):
        with pytest.raises(SystemExit, match="--max-reconnects"):
            main(["worker-agent", "--connect", "127.0.0.1:7870",
                  "--max-reconnects", "-1"])

    def test_transport_fault_modes_parse(self, tmp_path):
        for mode in ("disconnect", "stall", "garbage-frame"):
            plan = FaultPlan.parse(f"{mode}:select=2,state_dir={tmp_path}")
            assert plan.transport_fault
            assert not plan.requires_process_isolation
