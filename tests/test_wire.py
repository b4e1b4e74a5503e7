"""Wire codec tests: frozen byte layouts, round trips, malformed input."""

import struct

import numpy as np
import pytest

from fedrosvm.wire import (
    FRAME_CAP,
    AdmmResult,
    ProtocolError,
    RoundStart,
    Shutdown,
    SmResult,
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)


class LoopbackSocket:
    """Byte buffer with the recv/sendall surface the codec needs."""

    def __init__(self, data=b""):
        self.rx = bytearray(data)
        self.tx = bytearray()

    def sendall(self, data):
        self.tx.extend(data)

    def recv(self, n):
        chunk = bytes(self.rx[:n])
        del self.rx[: len(chunk)]
        return chunk


def test_round_start_frozen_bytes():
    payload = encode_message(RoundStart(t=3, w=np.array([1.0])))
    expected = bytes(
        [0x01, 0, 0, 0, 3, 0, 0, 0, 1, 0x3F, 0xF0, 0, 0, 0, 0, 0, 0]
    )
    assert payload == expected


def test_sm_result_frozen_bytes():
    payload = encode_message(SmResult(g=2, v=np.array([-0.5])))
    expected = bytes(
        [0x02, 0, 0, 0, 2, 0, 0, 0, 1, 0xBF, 0xE0, 0, 0, 0, 0, 0, 0]
    )
    assert payload == expected


def test_shutdown_frozen_bytes():
    assert encode_message(Shutdown()) == b"\x05"


def test_frame_layout():
    sock = LoopbackSocket()
    write_frame(sock, RoundStart(t=3, w=np.array([1.0])))
    assert bytes(sock.tx[:4]) == struct.pack(">I", 17)
    assert len(sock.tx) == 21


def test_round_trip_all_messages():
    w = np.array([0.25, -1.5, 3.0])
    for msg in (
        RoundStart(t=0, w=w),
        SmResult(g=7, v=w),
        AdmmResult(g=1, w_g=w),
        Shutdown(),
    ):
        back = decode_message(encode_message(msg))
        assert type(back) is type(msg)
        for name in ("t", "g"):
            if hasattr(msg, name):
                assert getattr(back, name) == getattr(msg, name)
        for name in ("w", "v", "w_g"):
            if hasattr(msg, name):
                np.testing.assert_array_equal(getattr(back, name), getattr(msg, name))


def test_round_trip_through_socket():
    sock = LoopbackSocket()
    msgs = [RoundStart(t=1, w=np.array([1.0, 2.0])), Shutdown()]
    for m in msgs:
        write_frame(sock, m)
    sock.rx = sock.tx
    first = read_frame(sock)
    assert isinstance(first, RoundStart) and first.t == 1
    assert isinstance(read_frame(sock), Shutdown)


def test_empty_vector_round_trips():
    back = decode_message(encode_message(SmResult(g=0, v=np.array([]))))
    assert back.v.size == 0


def test_rejects_non_finite():
    with pytest.raises(ProtocolError, match="non-finite"):
        encode_message(RoundStart(t=1, w=np.array([np.nan])))
    with pytest.raises(ProtocolError, match="non-finite"):
        encode_message(SmResult(g=0, v=np.array([np.inf])))
    # a crafted payload carrying an infinity must be refused on decode too
    crafted = bytearray(encode_message(RoundStart(t=1, w=np.array([1.0]))))
    crafted[9:17] = struct.pack(">d", np.inf)
    with pytest.raises(ProtocolError, match="non-finite"):
        decode_message(bytes(crafted))


def test_rejects_out_of_range_counter():
    with pytest.raises(ProtocolError, match="uint32"):
        encode_message(RoundStart(t=-1, w=np.array([1.0])))
    with pytest.raises(ProtocolError, match="uint32"):
        encode_message(SmResult(g=1 << 32, v=np.array([1.0])))


def test_rejects_malformed_payloads():
    with pytest.raises(ProtocolError, match="empty"):
        decode_message(b"")
    with pytest.raises(ProtocolError, match="tag"):
        decode_message(bytes([0x7F, 0, 0, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(ProtocolError, match="truncated"):
        decode_message(bytes([0x01, 0, 0]))
    good = encode_message(RoundStart(t=1, w=np.array([1.0])))
    with pytest.raises(ProtocolError, match="truncated"):
        decode_message(good[:-1])
    with pytest.raises(ProtocolError, match="trailing"):
        decode_message(good + b"\x00")
    with pytest.raises(ProtocolError, match="trailing"):
        decode_message(b"\x05\x00")


def test_retired_tag_0x04_decodes_as_unknown():
    # a well-formed `tag | u32 | vec` payload under the retired tag
    payload = b"\x04" + encode_message(RoundStart(t=42, w=np.array([1.0])))[1:]
    with pytest.raises(ProtocolError, match="unknown message tag 0x04"):
        decode_message(payload)


def test_frame_cap_enforced_both_directions():
    big = RoundStart(t=1, w=np.zeros(FRAME_CAP // 8))  # 9 bytes over the cap
    with pytest.raises(ProtocolError, match="cap"):
        write_frame(LoopbackSocket(), big)
    sock = LoopbackSocket(struct.pack(">I", FRAME_CAP + 1))
    with pytest.raises(ProtocolError, match="cap"):
        read_frame(sock)


def test_read_frame_reports_connection_loss():
    sock = LoopbackSocket()
    write_frame(sock, RoundStart(t=1, w=np.array([1.0])))
    sock.rx = sock.tx[: 10]  # cut mid-frame
    with pytest.raises(ConnectionError):
        read_frame(sock)
    with pytest.raises(ConnectionError):
        read_frame(LoopbackSocket())  # clean EOF before any frame
