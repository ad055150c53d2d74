"""The per-cycle executor: one run wiring engine, medium, MAC, plants and controller.

The engine steps one cycle per period; each cycle runs its slots in order:

    sync flood -> per-plant feedback slots -> controller compute (gap) ->
    per-plant command slots -> shared retx flood slots -> plant tick

Every transmission is drawn against every listening node, so any node can
overhear a frame and join later retransmission floods.  The shared retx slots
serve one queue of pending frames in a fixed priority order: once the
controller has latched an emergency stop, a broadcast stop frame heads it in
every cycle, then come undelivered commands, then undelivered feedback, each
by robot id.

In a leader-follower scenario the controller is hosted on the leader robot:
the leader's own loop closes locally at compute time (encoders sampled and
commands applied in place), while the follower's loop runs over the radio.
Lane progress and completion are read from the controller, never copied here.

A finished run is its `Simulation`: `run()` returns the run itself, with its
trace, end reason, cycle count and metrics report.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metrics as metrics_mod
from .channel import Cause, Medium
from .controller import PathController
from .engine import Engine, SimTime, stream_rng
from .frames import FRAME_NAMES, CmdFrame, EstopFrame, FbFrame, Frame, new_record
from .mac import Direction, Slot, SyncState, build_schedule, run_sync_beacon
from .robot import Robot, Segment
from .scenario import ScenarioConfig
from .trace import (CMD_APPLY, CMD_APPLY_LOCAL, CMD_EMIT, CMD_EMIT_ESTOP, DESYNC, END,
                    ESTOP_CONTROLLER, ESTOP_PLANT, FB_SAMPLE, FB_SAMPLE_LOCAL, META, POSE,
                    REF_POINT, RX, RX_EMPTY, SYNC, SYNC_MISS, SYNC_RX, SYNC_TX, TX, WAYPOINT,
                    WAYPOINT_COMPLETE, Trace)

_NO_OBSTACLES: list[Segment] = []  # shared, never written: a run without obstacles


@dataclass
class _Pending:
    """A frame awaiting the shared retx slots; dest None marks the stop broadcast."""

    priority: tuple[int, int]  # (-1, 0) for the stop, (0, robot) commands, (1, robot) feedback
    frame: Frame
    dest: int | None
    holders: set[int]


class Simulation:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        proto = config.protocol
        self.engine = Engine(config.seed)
        self.medium = Medium(self.engine, proto.n_channels,
                             phy_overhead_bytes=proto.phy_overhead_bytes,
                             phy_rate_mbps=proto.phy_rate_mbps)
        self.all_nodes = sorted(config.node_ids())
        self._build_links()

        hop_rng = stream_rng(config.seed, None, "hop-forward")
        hop_forward = tuple(int(c) for c in hop_rng.permutation(proto.n_channels))
        hop_rng = stream_rng(config.seed, None, "hop-feedback")
        hop_feedback = tuple(int(c) for c in hop_rng.permutation(proto.n_channels))
        self.controller_node = config.controller_node().node_id
        # in a platoon the leader hosts the controller, and its own loop is local
        plants = [spec.node_id for spec in config.robots() if spec.node_id != self.controller_node]
        self.schedule = build_schedule(self.controller_node, plants,
                                       slot_duration_us=proto.slot_duration_us,
                                       compute_gap_us=proto.compute_gap_us,
                                       retx_slots=proto.retx_slots,
                                       hop_forward=hop_forward,
                                       hop_feedback=hop_feedback)

        self.robots: dict[int, Robot] = {}
        for spec in config.robots():
            self.robots[spec.node_id] = Robot(spec.node_id, spec.params, spec.start_pose,
                                              sensor_range_mm=config.sensor_range_mm,
                                              watchdog_cycles=proto.watchdog_cycles)
        self._robot_order = sorted(self.robots.items())
        self.controller = PathController(self.controller_node, config.steering)
        self._build_lanes()
        self._local_lanes = [self.controller_node] if self.controller_node in self.robots else []
        # one (handler, slot, start offset, hop sequence) per slot; plain functions,
        # so that the plan holds no reference back to the run
        handlers = {Direction.SYNC: Simulation._run_sync_slot,
                    Direction.UPLINK: Simulation._run_uplink_slot,
                    Direction.GAP: Simulation._run_compute,
                    Direction.DOWNLINK: Simulation._run_downlink_slot,
                    Direction.RETX: Simulation._run_retx_slot}
        self._cycle_len = self.schedule.cycle_length_us
        self._cycle_s = self._cycle_len * 1e-6
        self._last_start = config.max_time_us - self._cycle_len  # the last cycle that fits
        self._plan = [(handlers[s.direction], s, s.offset_us, s.hop or None)
                      for s in self.schedule.slots]
        self.sync_states = {node: SyncState() for node in self.all_nodes}
        self._sync_order = [(node, self.sync_states[node]) for node in self.all_nodes]
        self._listeners: dict[int, list[tuple[int, SyncState]]] = {}  # filled by _send
        self.trace = Trace()
        self.cycle = 0
        self.end_reason: str | None = None
        self.end_time_us: SimTime = 0
        self.metrics: dict = {}  # the report, once run() returns
        self._fb_seq: dict[int, int] = {node: 0 for node in self.robots}
        self._estop_seq = 0
        self._cycle_cmds: dict[int, CmdFrame] = {}
        self._pending: list[_Pending] = []

    # -- setup ---------------------------------------------------------------

    def _build_links(self) -> None:
        channel = self.config.channel
        for spec in channel.links:
            self.medium.add_link(spec.sender, spec.receiver, per=spec.per,
                                 per_by_channel=spec.per_by_channel, burst=spec.burst)
        self.medium.add_links(self.all_nodes, channel.default_per)
        for blackout in channel.blackouts:
            self.medium.add_blackout(blackout.node, blackout.from_us, blackout.until_us)

    def _build_lanes(self) -> None:
        """A follower tracks the controller's own robot, the leader; every other
        robot follows its path."""
        for spec in self.config.robots():
            if spec.role == "follower":
                self.controller.add_follower_lane(spec.node_id, spec.params, spec.start_pose,
                                                  self.controller_node)
            else:
                self.controller.add_path_lane(spec.node_id, spec.params, spec.start_pose,
                                              list(spec.path))

    # -- helpers -------------------------------------------------------------

    def _active_obstacles(self, at: SimTime) -> list[Segment]:
        if not self.config.obstacles:
            return _NO_OBSTACLES
        return [o.segment for o in self.config.obstacles if o.appears_at_us <= at]

    def _sample_feedback(self, robot_id: int, at: SimTime, slot: int | None = None) -> FbFrame:
        """Sample a robot's sensors into the next feedback frame; slot None = local loop."""
        ticks_l, ticks_r, distance = self.robots[robot_id].sample_feedback(
            self._active_obstacles(at))
        seq = self._fb_seq[robot_id] = (self._fb_seq[robot_id] + 1) & 0xFFFF
        distance_mm = -1 if distance is None else distance
        if slot is None:
            self.trace.add(at, FB_SAMPLE_LOCAL, self.cycle, robot_id, seq, "local",
                           ticks_l, ticks_r, distance_mm)
        else:
            self.trace.add(at, FB_SAMPLE, self.cycle, slot, robot_id, seq,
                           ticks_l, ticks_r, distance_mm)
        return new_record(FbFrame, (robot_id, self.controller_node, seq, ticks_l, ticks_r,
                                    distance))

    def _apply_cmd(self, robot_id: int, cmd: CmdFrame, at: SimTime, slot: int | None) -> None:
        robot = self.robots[robot_id]
        was_latched = robot.estop_latched
        disposition = robot.apply_command(cmd)
        cause = "local" if slot is None and disposition == "applied" else disposition
        if slot is None:  # the leader's own loop
            self.trace.add(at, CMD_APPLY_LOCAL, self.cycle, robot_id, "CMD", cmd.src, cmd.dst,
                           cmd.seq, cause, cmd.left_mms, cmd.right_mms)
        else:
            self.trace.add(at, CMD_APPLY, self.cycle, slot, robot_id, "CMD", cmd.src, cmd.dst,
                           cmd.seq, cause, cmd.left_mms, cmd.right_mms)
        if robot.estop_latched and not was_latched:
            self.trace.add(at, ESTOP_PLANT, self.cycle, robot_id, "plant-latch")

    def _latch_estop_plant(self, robot_id: int, at: SimTime) -> None:
        robot = self.robots[robot_id]
        if not robot.estop_latched:
            self.trace.add(at, ESTOP_PLANT, self.cycle, robot_id, "plant-latch")
        robot.latch_estop()  # every stop frame a plant hears feeds its watchdog

    def _send(self, senders: list[int], frame: Frame, slot: Slot, at: SimTime,
              channel: int) -> list[int]:
        """Put `frame` on the air from every sender in one slot (a flood if more
        than one), logging each transmission and one reception outcome per
        listening node; returns the listeners that received it, in node order.

        A desynced listener never receives, and sync state changes only in
        slot 0, so every node that holds a frame later in the cycle is synced."""
        medium, add = self.medium, self.trace.add
        cycle, position = self.cycle, slot.position
        slot_uid = medium.begin_slot()
        if len(senders) == 1:
            sender = senders[0]
            tx = medium.make_transmission(sender, frame, slot_uid, channel, at)
            deliver, listeners = medium.deliver, self._listeners.get(sender)
            if listeners is None:  # every other node, resolved on the sender's first send
                listeners = self._listeners[sender] = [
                    (node, state) for node, state in self._sync_order if node != sender]
        else:
            tx = [medium.make_transmission(s, frame, slot_uid, channel, at) for s in senders]
            deliver, sending = medium.deliver_flood, set(senders)
            listeners = [(node, state) for node, state in self._sync_order
                         if node not in sending]
        name, src, dst, seq = FRAME_NAMES[type(frame)], frame.src, frame.dst, frame.seq
        for sender in senders:
            add(at, TX, cycle, position, sender, name, src, dst, seq, channel)
        received: list[int] = []
        for node, state in listeners:
            if state.synced:
                outcome = deliver(tx, node)
                cause = outcome.cause
                if outcome.received:
                    received.append(node)
            else:
                cause = Cause.DESYNCED_LISTENER
            add(at, RX, cycle, position, node, name, src, dst, seq, cause, channel)
        return received

    def _log_empty_slot(self, slot: Slot, at: SimTime) -> None:
        cycle, position, add = self.cycle, slot.position, self.trace.add
        for node in self.all_nodes:
            if node != slot.owner:
                add(at, RX_EMPTY, cycle, position, node, Cause.NO_TRANSMITTER)

    # -- per-slot handlers -----------------------------------------------------

    def _run_sync_slot(self, slot: Slot, cycle_start: SimTime, channel: int) -> None:
        cycle, add = self.cycle, self.trace.add
        transmissions, outcomes, receptions, desynced = run_sync_beacon(
            self.engine, self.medium, channel, cycle, self.controller_node, self.all_nodes,
            self.sync_states, self.config.protocol.sync, cycle_start)
        frame = transmissions[0][1].frame  # the originator's wave-1 beacon
        name, src, dst, seq = FRAME_NAMES[type(frame)], frame.src, frame.dst, frame.seq
        for wave, tx in transmissions:
            add(tx.start, SYNC_TX, cycle, 0, tx.sender, name, src, dst, seq, channel, wave)
        for wave, at, outcome in outcomes:
            add(at, SYNC_RX, cycle, 0, outcome.receiver, name, src, dst, seq, outcome.cause,
                channel, wave)
        for node, wave, residual_us in receptions:
            add(cycle_start, SYNC, cycle, 0, node, residual_us, wave)
        for node, state in self._sync_order:
            if state.missed_beacons > 0:
                add(cycle_start, SYNC_MISS, cycle, 0, node, state.missed_beacons)
        for node in desynced:
            add(cycle_start, DESYNC, cycle, 0, node)

    def _run_uplink_slot(self, slot: Slot, at: SimTime, channel: int) -> None:
        robot_id = slot.owner
        if not self.sync_states[robot_id].synced:
            self._log_empty_slot(slot, at)
            return
        frame = self._sample_feedback(robot_id, at, slot.position)
        received = self._send([robot_id], frame, slot, at, channel)
        if self.controller_node in received:
            self.controller.ingest_feedback(frame)
        else:
            self._pending.append(_Pending(priority=(1, robot_id), frame=frame,
                                          dest=self.controller_node,
                                          holders={robot_id, *received}))

    def _run_compute(self, slot: Slot, at: SimTime, channel: None) -> None:
        # leader-follower: the co-located leader loop closes here, off the air
        for robot_id in self._local_lanes:
            self.controller.ingest_feedback(self._sample_feedback(robot_id, at))

        decisions = self.controller.run_cycle()
        if decisions.estop_triggered:
            self.trace.add(at, ESTOP_CONTROLLER, self.cycle, self.controller_node,
                           "controller-latch", decisions.estop_source)
        if self.controller.estop_latched:
            self._estop_seq = (self._estop_seq + 1) & 0xFFFF
            self._pending.append(_Pending(
                priority=(-1, 0), frame=EstopFrame(self.controller_node, self._estop_seq),
                dest=None, holders={self.controller_node}))
        self._cycle_cmds.clear()
        for decision in decisions.commands:
            robot, cmd = decision.robot, decision.cmd
            if decision.advanced:  # a path is completed by reaching its last point
                if decision.completed:
                    self.trace.add(at, WAYPOINT_COMPLETE, self.cycle, robot, "complete",
                                   decision.advanced)
                else:
                    self.trace.add(at, WAYPOINT, self.cycle, robot, decision.advanced)
            if cmd.estop:
                self.trace.add(at, CMD_EMIT_ESTOP, self.cycle, self.controller_node, "CMD",
                               cmd.src, cmd.dst, cmd.seq, "estop",
                               cmd.left_mms, cmd.right_mms, decision.informing_fb_seq)
            else:
                self.trace.add(at, CMD_EMIT, self.cycle, self.controller_node, "CMD",
                               cmd.src, cmd.dst, cmd.seq,
                               cmd.left_mms, cmd.right_mms, decision.informing_fb_seq)
            if robot == self.controller_node:
                self._apply_cmd(robot, cmd, at, None)
            else:
                self._cycle_cmds[robot] = cmd

    def _run_downlink_slot(self, slot: Slot, at: SimTime, channel: int) -> None:
        cmd = self._cycle_cmds[slot.plant]
        received = self._send([self.controller_node], cmd, slot, at, channel)
        if cmd.dst in received:
            self._apply_cmd(cmd.dst, cmd, at + self.medium.airtime_us, slot.position)
        else:
            self._pending.append(_Pending(priority=(0, slot.plant), frame=cmd, dest=cmd.dst,
                                          holders={self.controller_node, *received}))

    def _run_retx_slot(self, slot: Slot, at: SimTime, channel: int) -> None:
        if not self._pending:
            self._log_empty_slot(slot, at)
            return
        self._pending.sort(key=lambda p: p.priority)
        entry = self._pending[0]
        received = self._send(sorted(entry.holders), entry.frame, slot, at, channel)
        entry.holders.update(received)
        if entry.dest is None:
            for node in received:
                if node in self.robots:
                    self._latch_estop_plant(node, at + self.medium.airtime_us)
        elif entry.dest in received:
            self._pending.remove(entry)
            if isinstance(entry.frame, CmdFrame):
                self._apply_cmd(entry.dest, entry.frame, at + self.medium.airtime_us,
                                slot.position)
            else:
                self.controller.ingest_feedback(entry.frame)

    # -- one cycle -----------------------------------------------------------------

    def _run_cycle(self) -> bool:
        """Run the cycle starting at the engine's current time; False ends the run."""
        cycle_start = self.engine.now
        if cycle_start > self._last_start:
            self._finish("timeout", cycle_start)
            return False
        self._pending = []

        for handler, slot, offset, hop in self._plan:
            handler(self, slot, cycle_start + offset,
                    None if hop is None else hop[(self.cycle + slot.position) % len(hop)])

        cycle_end = cycle_start + self._cycle_len
        cycle_s = self._cycle_s
        for robot_id, robot in self._robot_order:
            robot.end_cycle(cycle_s)
            x, y, theta = robot.pose
            left, right = robot.actual
            self.trace.add(cycle_end, POSE, self.cycle, robot_id, x, y, theta, left, right)

        reason = self._completion_reason()
        if reason is not None:
            self._finish(reason, cycle_end)
            return False
        self.cycle += 1
        return True

    def _completion_reason(self) -> str | None:
        if self.controller.estop_latched:
            if all(robot.stationary for robot in self.robots.values()):
                return "estopped"
            return None
        if self.config.run_to_completion and self.controller.finished():
            return "completed"
        return None

    def _finish(self, reason: str, at: SimTime) -> None:
        self.end_reason = reason
        self.end_time_us = at
        self.trace.add(at, END, self.cycle, reason, self.cycle)

    # -- entry point -----------------------------------------------------------

    def run(self) -> Simulation:
        """Execute the run to its completion condition, then compute its metrics."""
        self.trace.add(0, META, self.schedule.cycle_length_us, self.medium.airtime_us,
                       len(self.schedule.slots), self.config.seed)
        for spec in self.config.robots():
            if spec.path:
                for idx, (x, y) in enumerate(spec.path):
                    self.trace.add(0, REF_POINT, spec.node_id, idx, x, y)
        self.engine.run_until(self.schedule.cycle_length_us, self._run_cycle)
        self.metrics = metrics_mod.compute_metrics(self)
        return self


def run_scenario(config: ScenarioConfig) -> Simulation:
    """Validate, build and execute one scenario to its completion condition."""
    return Simulation(config).run()
