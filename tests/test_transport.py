"""Tests for the frame codec the end-to-end benchmark measures, and that the
socket transport around it stays gone from ``src/``."""

import pathlib
import pickle
import socket
import struct
import threading
import zlib

import pytest

from repro.dse.runtime import transport
from repro.dse.runtime.transport import FrameError, recv_frame, send_frame


def _frame(payload: bytes, checksum: int, magic: bytes = b"RDSE") -> bytes:
    return struct.pack("!4sII", magic, len(payload), checksum) + payload


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    with left, right:
        left.settimeout(5.0)
        right.settimeout(5.0)
        yield left, right


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        send_frame(left, "task", {"id": 7, "encoded": (1, 2, 3)})
        assert recv_frame(right) == ("task", {"id": 7, "encoded": (1, 2, 3)})

    def test_round_trip_spans_many_reads(self, pair):
        left, right = pair  # 5 MiB: several recv chunks, sent while drained
        data = bytes(range(256)) * (5 << 12)
        sender = threading.Thread(target=send_frame, args=(left, "blob", data))
        sender.start()
        assert recv_frame(right) == ("blob", data)
        sender.join()

    @pytest.mark.parametrize("keep", [5, 15], ids=["header", "payload"])
    def test_truncated_stream_is_a_closed_connection(self, pair, keep):
        left, right = pair
        left.sendall(_frame(b"a pickle", 0)[:keep])
        left.close()
        with pytest.raises(ConnectionError, match="connection closed by peer"):
            recv_frame(right)

    def test_corrupt_frame_rejected(self, pair):
        left, right = pair
        payload = pickle.dumps(("result", {"id": -1}))
        left.sendall(_frame(payload, zlib.crc32(payload) ^ 0xFFFFFFFF))
        with pytest.raises(FrameError, match="checksum mismatch"):
            recv_frame(right)

    def test_bad_magic_rejected(self, pair):
        left, right = pair
        payload = pickle.dumps(("task", {"id": 1}))
        left.sendall(_frame(payload, zlib.crc32(payload), magic=b"XXXX"))
        with pytest.raises(FrameError, match="bad frame magic"):
            recv_frame(right)

    def test_oversized_length_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("!4sII", b"RDSE",
                                 transport.MAX_FRAME_BYTES + 1, 0))
        with pytest.raises(FrameError, match="oversized frame"):
            recv_frame(right)

    def test_undecodable_payload_rejected(self, pair):
        left, right = pair
        payload = b"this is not a pickle"
        left.sendall(_frame(payload, zlib.crc32(payload)))
        with pytest.raises(FrameError, match="undecodable frame payload"):
            recv_frame(right)


@pytest.mark.parametrize("needle", [
    "RemotePoolBackend", "TransportConfig", "worker-agent", "socket.socket(",
    "create_connection", ".bind(", ".listen("])
def test_src_opens_no_socket(needle):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    hits = [str(path) for path in src.rglob("*.py")
            if needle in path.read_text()]
    assert not hits, f"{needle!r} is back under src/: {hits}"
