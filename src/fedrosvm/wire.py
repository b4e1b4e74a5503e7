"""Binary message framing for the federation protocol.

Every message travels as one frame: a 4-byte big-endian payload length
followed by the payload. Payloads start with a 1-byte tag and contain only
big-endian fixed-width fields (uint32 for counters, IEEE-754 float64 for
model coordinates), so the same logical message always produces the same
bytes on every platform. That is what makes the TCP transport bit-identical
to the in-process one.

Message payloads:

  RoundStart   0x01 | t: u32 | vec w      server -> clients, round begins
  SmResult     0x02 | g: u32 | vec v      client subgradient
  AdmmResult   0x03 | g: u32 | vec w_g    client proximal iterate
  Broadcast    0x04 | t: u32 | vec w      server -> clients, updated model
  Shutdown     0x05                       server -> clients, end of run

where `vec` is u32 count followed by count float64 values. Vectors must be
finite: NaN or infinity anywhere is a protocol error on both ends.
Every message but Shutdown is `tag | u32 field | vec`, one row of `_LAYOUT`.
"""

import struct
from dataclasses import dataclass

import numpy as np

# Upper bound on a single payload; a peer announcing more is assumed broken
# or hostile and the connection is dropped.
FRAME_CAP = 1 << 20


class ProtocolError(Exception):
    """Malformed, oversized, or truncated wire data."""


@dataclass(frozen=True)
class RoundStart:
    t: int
    w: np.ndarray


@dataclass(frozen=True)
class SmResult:
    g: int
    v: np.ndarray


@dataclass(frozen=True)
class AdmmResult:
    g: int
    w_g: np.ndarray


@dataclass(frozen=True)
class Broadcast:
    t: int
    w: np.ndarray


@dataclass(frozen=True)
class Shutdown:
    pass


# message type -> (tag, name of its u32 field, name of its vector field)
_LAYOUT = {
    RoundStart: (0x01, "t", "w"),
    SmResult: (0x02, "g", "v"),
    AdmmResult: (0x03, "g", "w_g"),
    Broadcast: (0x04, "t", "w"),
}
_BY_TAG = {tag: (cls, field, vec) for cls, (tag, field, vec) in _LAYOUT.items()}
_SHUTDOWN = b"\x05"


def _check_u32(value, name):
    if not (0 <= int(value) <= 0xFFFFFFFF):
        raise ProtocolError(f"{name} out of uint32 range: {value}")
    return int(value)


def _pack_vec(v):
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ProtocolError(f"vector payloads must be 1-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ProtocolError("refusing to encode non-finite vector")
    return struct.pack(">I", arr.size) + arr.astype(">f8").tobytes()


def _unpack_vec(payload, off):
    if off + 4 > len(payload):
        raise ProtocolError("truncated vector header")
    (count,) = struct.unpack_from(">I", payload, off)
    off += 4
    end = off + 8 * count
    if end > len(payload):
        raise ProtocolError("truncated vector body")
    arr = np.frombuffer(payload[off:end], dtype=">f8").astype(np.float64)
    if not np.isfinite(arr).all():
        raise ProtocolError("received non-finite vector")
    return arr, end


def encode_message(msg):
    """Serialize a protocol message to its payload bytes (no length prefix)."""
    if isinstance(msg, Shutdown):
        return _SHUTDOWN
    if type(msg) not in _LAYOUT:
        raise ProtocolError(f"unknown message type: {type(msg).__name__}")
    tag, field, vec = _LAYOUT[type(msg)]
    return (
        struct.pack(">BI", tag, _check_u32(getattr(msg, field), field))
        + _pack_vec(getattr(msg, vec))
    )


def decode_message(payload):
    """Parse payload bytes back into a protocol message.

    Trailing bytes after a well-formed message are an error; a frame holds
    exactly one message.
    """
    if len(payload) < 1:
        raise ProtocolError("empty payload")
    if payload[:1] == _SHUTDOWN:
        if len(payload) != 1:
            raise ProtocolError("trailing bytes after shutdown")
        return Shutdown()
    if len(payload) < 5:
        raise ProtocolError("truncated message header")
    (value,) = struct.unpack_from(">I", payload, 1)
    arr, end = _unpack_vec(payload, 5)
    if end != len(payload):
        raise ProtocolError("trailing bytes after message")
    if payload[0] not in _BY_TAG:
        raise ProtocolError(f"unknown message tag 0x{payload[0]:02x}")
    cls, field, vec = _BY_TAG[payload[0]]
    return cls(**{field: value, vec: arr})


def write_frame(sock, msg):
    """Encode msg and send it as one length-prefixed frame."""
    payload = encode_message(msg)
    if len(payload) > FRAME_CAP:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the frame cap {FRAME_CAP}"
        )
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def _recv_exact(sock, count):
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(sock):
    """Read one length-prefixed frame and decode it.

    Raises ConnectionError on clean or mid-frame EOF and ProtocolError on
    malformed or oversized frames.
    """
    header = _recv_exact(sock, 4)
    (length,) = struct.unpack(">I", header)
    if length > FRAME_CAP:
        raise ProtocolError(
            f"announced frame of {length} bytes exceeds the cap {FRAME_CAP}"
        )
    return decode_message(_recv_exact(sock, length))
