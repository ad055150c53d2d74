"""Deterministic co-simulator for closed-loop robot control over a TDMA wireless MAC.

The package wires a fixed-period cycle engine, a packet-erasure radio model, a
slotted MAC with flooding time sync and in-cycle retransmission, ground-truth
differential-drive robots, and a waypoint path controller into replayable
scenarios with trace and metrics outputs.
"""

from .channel import BurstModel, Cause, Medium, ProtocolViolation, ReceptionOutcome
from .controller import FollowerParams, PathController, SteeringParams
from .engine import Engine, RunSummary
from .frames import (BROADCAST, FRAME_SIZE, NO_READING, CmdFrame, EstopFrame,
                     FbFrame, Frame, FrameError, MsgType, SyncFrame,
                     decode_frame, encode_frame)
from .mac import (CycleSchedule, Direction, ScheduleError, SyncParams, SyncState,
                  build_schedule, run_sync_beacon)
from .robot import Pose, Robot, RobotParams, Segment, step_kinematics
from .scenario import ConfigError, ScenarioConfig, config_from_dict, load_config
from .simulation import Simulation, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
