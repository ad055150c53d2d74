import itertools
import struct

import pytest
from hypothesis import given, settings, strategies as st
from oracles import checked_encode_frame

from wctrlsim.frames import (BROADCAST, FRAME_SIZE, CmdFrame, EstopFrame, FbFrame,
                             FrameError, SyncFrame, decode_frame, encode_frame, wrap_i32)


def test_command_frame_byte_layout():
    # little-endian two's complement: +100 = 64 00, -100 = 9C FF
    frame = CmdFrame(src=0, dst=1, seq=7, left_mms=100, right_mms=-100)
    assert encode_frame(frame).hex() == "010001070064009cff00000000000000"


def test_all_frames_are_exactly_16_bytes():
    frames = [
        SyncFrame(src=3, seq=9, cycle_index=123456, wave=2),
        CmdFrame(src=0, dst=1, seq=7, left_mms=100, right_mms=-100, estop=True),
        FbFrame(src=1, dst=0, seq=42, left_ticks=-5, right_ticks=99, distance_mm=500),
        EstopFrame(src=0, seq=1),
    ]
    for frame in frames:
        assert len(encode_frame(frame)) == FRAME_SIZE


def _boundary_frames():
    for seq in (0, 65535):
        yield SyncFrame(src=0, seq=seq, cycle_index=0, wave=0)
        yield SyncFrame(src=254, seq=seq, cycle_index=0xFFFFFFFF, wave=255)
        yield EstopFrame(src=254, seq=seq)
        for left, right in itertools.product((-32768, -100, 0, 100, 32767), repeat=2):
            for dst in (0, 254, BROADCAST):
                yield CmdFrame(src=0, dst=dst, seq=seq, left_mms=left,
                               right_mms=right, estop=seq == 0)
        for ticks in (-2**31, -1, 0, 1, 2**31 - 1):
            for distance in (None, 0, 1, 65534):
                yield FbFrame(src=1, dst=0, seq=seq, left_ticks=ticks,
                              right_ticks=-ticks - 1 if ticks < 0 else ticks,
                              distance_mm=distance)


def test_roundtrip_identity_over_field_boundaries():
    count = 0
    for frame in _boundary_frames():
        encoded = encode_frame(frame)
        assert encoded == checked_encode_frame(frame)
        decoded = decode_frame(encoded)
        assert decoded == frame and type(decoded) is type(frame)
        count += 1
    assert count > 100  # exhaustive boundary sweep actually ran


def test_distance_sentinel_roundtrips_as_none():
    frame = FbFrame(src=1, dst=0, seq=1, left_ticks=0, right_ticks=0, distance_mm=None)
    encoded = encode_frame(frame)
    assert encoded[13:15] == b"\xff\xff"
    assert decode_frame(encoded).distance_mm is None


def test_decode_rejects_unknown_msg_type():
    payload = bytes([9] + [0] * 15)
    with pytest.raises(FrameError):
        decode_frame(payload)


def test_decode_rejects_wrong_length():
    with pytest.raises(FrameError):
        decode_frame(bytes(15))
    with pytest.raises(FrameError):
        decode_frame(bytes(17))


def test_decode_rejects_nonzero_reserved_bytes():
    good = bytearray(encode_frame(CmdFrame(src=0, dst=1, seq=1, left_mms=0, right_mms=0)))
    good[15] = 1
    with pytest.raises(FrameError):
        decode_frame(bytes(good))


def test_decode_rejects_reserved_flag_bits():
    raw = bytearray(encode_frame(CmdFrame(src=0, dst=1, seq=1, left_mms=0, right_mms=0)))
    raw[9] = 0x02
    with pytest.raises(FrameError):
        decode_frame(bytes(raw))


def test_decode_rejects_non_broadcast_sync_dst():
    raw = bytearray(encode_frame(SyncFrame(src=0, seq=0, cycle_index=0, wave=1)))
    raw[2] = 0x01
    with pytest.raises(FrameError):
        decode_frame(bytes(raw))


def test_encode_rejects_out_of_range_fields():
    with pytest.raises(FrameError):
        encode_frame(CmdFrame(src=0, dst=1, seq=1, left_mms=40000, right_mms=0))
    with pytest.raises(FrameError):
        encode_frame(CmdFrame(src=0, dst=1, seq=70000, left_mms=0, right_mms=0))
    with pytest.raises(FrameError):
        encode_frame(FbFrame(src=1, dst=0, seq=1, left_ticks=2**31, right_ticks=0))
    with pytest.raises(FrameError):
        encode_frame(SyncFrame(src=0, seq=0, cycle_index=2**32, wave=0))


def test_wrap_i32():
    assert wrap_i32(2**31) == -2**31
    assert wrap_i32(-2**31 - 1) == 2**31 - 1
    assert wrap_i32(123) == 123


@given(st.integers(0, 254), st.integers(0, 255), st.integers(0, 65535),
       st.integers(-32768, 32767), st.integers(-32768, 32767), st.booleans())
def test_random_command_roundtrip(src, dst, seq, left, right, estop):
    frame = CmdFrame(src=src, dst=dst, seq=seq, left_mms=left, right_mms=right, estop=estop)
    decoded = decode_frame(encode_frame(frame))
    assert decoded == frame and type(decoded) is CmdFrame


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 65535),
       st.integers(-2**31, 2**31 - 1), st.integers(-2**31, 2**31 - 1),
       st.one_of(st.none(), st.integers(0, 65534)))
def test_random_feedback_roundtrip(src, dst, seq, lt, rt, distance):
    frame = FbFrame(src=src, dst=dst, seq=seq, left_ticks=lt, right_ticks=rt,
                    distance_mm=distance)
    decoded = decode_frame(encode_frame(frame))
    assert decoded == frame and type(decoded) is FbFrame


def test_frames_are_immutable():
    # the medium shares one encoding among the senders of a flood
    for frame in (SyncFrame(3, 9, 1, 2), CmdFrame(0, 1, 7, 100, -100),
                  FbFrame(1, 0, 42, -5, 99), EstopFrame(0, 1)):
        with pytest.raises(AttributeError):
            frame.seq = 0


def test_equal_fields_of_another_frame_type_decode_apart():
    # tuple equality ignores the type: the wire type byte tells them apart
    cmd, fb = CmdFrame(0, 1, 7, 100, -100, True), FbFrame(0, 1, 7, 100, -100, 1)
    assert cmd == fb
    assert type(decode_frame(encode_frame(cmd))) is CmdFrame
    assert type(decode_frame(encode_frame(fb))) is FbFrame


def _field(low: int, high: int):
    """Values for a field of wire range low..high: inside, at and just beyond each
    bound, and the off-type values a caller could pass (bools, floats, 2**32)."""
    beyond = [low - 1, high + 1, 2**32, -2**32, 0.0, 1.5, -1.0, float(high), float("nan")]
    return (st.integers(low, high) | st.sampled_from([low, high, True, False])
            | st.sampled_from(beyond))


_U8, _U16, _I16 = _field(0, 0xFF), _field(0, 0xFFFF), _field(-0x8000, 0x7FFF)
_U32, _I32 = _field(0, 0xFFFFFFFF), _field(-0x80000000, 0x7FFFFFFF)
_BROADCAST_DST = st.one_of(st.just(BROADCAST), _U8)

_ANY_FRAME = st.one_of(
    st.builds(SyncFrame, _U8, _U16, _U32, _U8, _BROADCAST_DST),
    st.builds(CmdFrame, _U8, _U8, _U16, _I16, _I16,
              st.one_of(st.booleans(), st.none(), _U8)),
    st.builds(FbFrame, _U8, _U8, _U16, _I32, _I32, st.one_of(st.none(), _U16)),
    st.builds(EstopFrame, _U8, _U16, _BROADCAST_DST),
)


@settings(max_examples=500)
@given(_ANY_FRAME)
def test_struct_checked_encode_agrees_with_the_named_checks(frame):
    # the oracle checks each field by name; the encoder leaves the ranges to struct
    try:
        expected = checked_encode_frame(frame)
    except (FrameError, struct.error):
        with pytest.raises(FrameError):
            encode_frame(frame)
    else:
        assert encode_frame(frame) == expected
