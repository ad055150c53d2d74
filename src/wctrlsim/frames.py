"""Bit-exact codec for the 16-byte MAC payload.

All multi-byte fields are little-endian.  Layouts (offsets in bytes):

    SYNC:  [0]=0  [1]=src  [2]=0xFF  [3:5]=seq u16  [5:9]=cycle u32  [9]=wave u8   [10:16]=0
    CMD:   [0]=1  [1]=src  [2]=dst   [3:5]=seq u16  [5:7]=left i16   [7:9]=right i16
           [9]=flags (bit0 = emergency stop)                                        [10:16]=0
    FB:    [0]=2  [1]=src  [2]=dst   [3:5]=seq u16  [5:9]=left ticks i32
           [9:13]=right ticks i32    [13:15]=distance mm u16 (0xFFFF = no reading)  [15]=0
    ESTOP: [0]=3  [1]=src  [2]=0xFF  [3:5]=seq u16                                  [5:16]=0

Wheel speeds are in mm/s, encoder ticks are cumulative (two's complement wrap).
The `struct` formats below are the one statement of each field's wire range:
encoding leaves the range checks to `struct.pack` and turns a value it cannot
pack (out of range, or not an integer) into FrameError; only the broadcast dst
of SYNC and ESTOP is checked by name.  Decoding rejects unknown message types
and nonzero reserved bytes.

Frames are immutable `NamedTuple`s, built once per slot and shared by every
sender of a flood.  Tuple equality ignores the type, so code that tells frames
apart checks `type(frame)` or `isinstance`, never `==` alone.  The run loop
builds its records, frames included, with `new_record(Cls, (every field))`:
`tuple.__new__` runs in C, where a `NamedTuple`'s generated `__new__` is
Python, and fills no default, so a call passes `SyncFrame.dst` too.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Union

FRAME_SIZE = 16
BROADCAST = 0xFF
NO_READING = 0xFFFF

_ESTOP_FLAG = 0x01

# B u8, H u16, h i16, i i32, I u32
_SYNC_STRUCT = struct.Struct("<BBBHIB6s")
_CMD_STRUCT = struct.Struct("<BBBHhhB6s")
_FB_STRUCT = struct.Struct("<BBBHiiHB")
_ESTOP_STRUCT = struct.Struct("<BBBH11s")

_ZERO6 = bytes(6)
_ZERO11 = bytes(11)


class MsgType:
    """The type byte that opens each frame: plain int constants."""

    SYNC = 0
    CMD = 1
    FB = 2
    ESTOP = 3


new_record = tuple.__new__  # new_record(Cls, values) == Cls._make(values), unchecked


class FrameError(ValueError):
    """Invalid frame contents (encode) or malformed payload bytes (decode)."""


class SyncFrame(NamedTuple):
    src: int
    seq: int
    cycle_index: int
    wave: int
    dst: int = BROADCAST


class CmdFrame(NamedTuple):
    src: int
    dst: int
    seq: int
    left_mms: int
    right_mms: int
    estop: bool = False


class FbFrame(NamedTuple):
    src: int
    dst: int
    seq: int
    left_ticks: int
    right_ticks: int
    distance_mm: int | None = None


class EstopFrame(NamedTuple):
    src: int
    seq: int
    dst: int = BROADCAST


Frame = Union[SyncFrame, CmdFrame, FbFrame, EstopFrame]

# the frame column of trace rows
FRAME_NAMES = {SyncFrame: "SYNC", CmdFrame: "CMD", FbFrame: "FB", EstopFrame: "ESTOP"}


def wrap_i32(value: int) -> int:
    """Two's-complement wrap of an unbounded tick count into i32."""
    return ((value + 0x80000000) & 0xFFFFFFFF) - 0x80000000


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to its 16-byte wire form.  A field that its struct
    format cannot pack (out of range, or not an integer) raises FrameError."""
    kind = type(frame)
    try:
        if kind is SyncFrame:
            src, seq, cycle_index, wave, dst = frame
            if dst != BROADCAST:
                raise FrameError("sync frames are broadcast only")
            return _SYNC_STRUCT.pack(MsgType.SYNC, src, BROADCAST, seq, cycle_index, wave,
                                     _ZERO6)
        if kind is CmdFrame:
            src, dst, seq, left, right, estop = frame
            return _CMD_STRUCT.pack(MsgType.CMD, src, dst, seq, left, right,
                                    _ESTOP_FLAG if estop else 0, _ZERO6)
        if kind is FbFrame:
            src, dst, seq, left, right, distance = frame
            return _FB_STRUCT.pack(MsgType.FB, src, dst, seq, left, right,
                                   NO_READING if distance is None else distance, 0)
        if kind is EstopFrame:
            src, seq, dst = frame
            if dst != BROADCAST:
                raise FrameError("estop frames are broadcast only")
            return _ESTOP_STRUCT.pack(MsgType.ESTOP, src, BROADCAST, seq, _ZERO11)
    except struct.error as exc:
        raise FrameError(f"cannot encode {frame!r}: {exc}") from None
    raise FrameError(f"not a frame: {frame!r}")


def decode_frame(data: bytes) -> Frame:
    """Parse 16 payload bytes back into a frame, rejecting malformed input."""
    if len(data) != FRAME_SIZE:
        raise FrameError(f"payload must be exactly {FRAME_SIZE} bytes, got {len(data)}")
    msg_type = data[0]
    if msg_type == MsgType.SYNC:
        _, src, dst, seq, cycle_index, wave, tail = _SYNC_STRUCT.unpack(data)
        if dst != BROADCAST:
            raise FrameError(f"sync dst must be broadcast, got {dst:#04x}")
        if tail != _ZERO6:
            raise FrameError("nonzero reserved bytes in sync frame")
        return SyncFrame(src=src, seq=seq, cycle_index=cycle_index, wave=wave)
    if msg_type == MsgType.CMD:
        _, src, dst, seq, left, right, flags, tail = _CMD_STRUCT.unpack(data)
        if flags & ~_ESTOP_FLAG:
            raise FrameError(f"reserved command flag bits set: {flags:#04x}")
        if tail != _ZERO6:
            raise FrameError("nonzero reserved bytes in command frame")
        return CmdFrame(src=src, dst=dst, seq=seq, left_mms=left, right_mms=right,
                        estop=bool(flags & _ESTOP_FLAG))
    if msg_type == MsgType.FB:
        _, src, dst, seq, left_ticks, right_ticks, distance, tail = _FB_STRUCT.unpack(data)
        if tail != 0:
            raise FrameError("nonzero reserved byte in feedback frame")
        return FbFrame(src=src, dst=dst, seq=seq, left_ticks=left_ticks,
                       right_ticks=right_ticks,
                       distance_mm=None if distance == NO_READING else distance)
    if msg_type == MsgType.ESTOP:
        _, src, dst, seq, tail = _ESTOP_STRUCT.unpack(data)
        if dst != BROADCAST:
            raise FrameError(f"estop dst must be broadcast, got {dst:#04x}")
        if tail != _ZERO11:
            raise FrameError("nonzero reserved bytes in estop frame")
        return EstopFrame(src=src, seq=seq)
    raise FrameError(f"unknown message type {msg_type}")
