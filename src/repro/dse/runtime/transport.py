"""The frame codec the removed socket transport left behind.

No code under ``src/`` opens, binds or connects a socket: the socket
transport (a remote pool backend, its worker agents and their handshake)
was deleted because it unpickled unauthenticated network bytes and, on one
host, could not beat the process pool.  This codec stays only because the
end-to-end benchmark (``benchmarks/e2e/perlayer.py``) measures it as the
``transport.frame_*`` layer metrics; once those go, so does this module.

A frame is a 12-byte header (``!4sII`` — magic ``RDSE``, payload length,
CRC-32 of the payload) followed by a pickled ``(kind, data)`` payload.
:func:`recv_frame` unpickles what it reads, so it must never read from a
peer it does not trust.
"""

from __future__ import annotations

import pickle
import socket
import struct
import zlib

_MAGIC = b"RDSE"
_HEADER = struct.Struct("!4sII")

#: Ceiling on a single frame payload; anything near it is a corrupt length.
MAX_FRAME_BYTES = 1 << 30


class FrameError(ConnectionError):
    """A malformed frame arrived: the stream can no longer be trusted."""


def send_frame(sock: socket.socket, kind: str, data) -> None:
    """Send one ``(kind, data)`` frame."""
    payload = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload))
                 + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed by peer")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket):
    """Receive one frame; raise :class:`FrameError` on any corruption."""
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
                         f"({type(error).__name__}: {error})") from error
    return kind, data
